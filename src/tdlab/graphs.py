"""Immutable bit-set graphs, family generators, and one-step minor operations.

Vertices are the integers 0..n-1. Every vertex subset, including each
adjacency row, is a plain Python int used as a bit mask, so subgraph work
reduces to word arithmetic. Graphs are values: every operation returns a new
Graph and never mutates its input, and equality and hashing read only the
vertex count and the adjacency. The one mutable part of a Graph object is a
private slot in which the solver keeps what it has learned about that object;
it lives and dies with the object.

Vertex numbering conventions of the generators and the re-indexing rules of
the minor operations are fixed (and tested) so that witness rankings can name
vertices deterministically.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

MAX_VERTICES = 64


# ---------------------------------------------------------------------------
# Bit-mask helpers. A "vertex set" throughout this package is an int whose
# set bits all lie below the host graph's vertex count.
# ---------------------------------------------------------------------------

def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def component_of(adj: tuple[int, ...], sub: int, start: int) -> int:
    """Connected component of `start` inside the induced subgraph on `sub`."""
    comp = frontier = (1 << start) & sub
    while frontier:
        grow = 0
        f = frontier
        while f:
            low = f & -f
            grow |= adj[low.bit_length() - 1]
            f ^= low
        frontier = grow & sub & ~comp
        comp |= frontier
    return comp


def component_masks(adj: tuple[int, ...], sub: int) -> list[int]:
    """Connected components of the induced subgraph on `sub`, ordered by lowest vertex."""
    comps = []
    rest = sub
    while rest:
        comp = component_of(adj, rest, (rest & -rest).bit_length() - 1)
        comps.append(comp)
        rest &= ~comp
    return comps


def _drop_bit(mask: int, v: int) -> int:
    """Remove position v from a mask and shift higher bits down by one."""
    low = mask & ((1 << v) - 1)
    return low | ((mask >> (v + 1)) << v)


# ---------------------------------------------------------------------------
# Graph value
# ---------------------------------------------------------------------------

class Graph:
    """Simple undirected graph on 1..64 vertices with bit-mask adjacency.

    Invariants enforced at construction: adjacency is symmetric, no vertex is
    its own neighbour, and all neighbour bits lie below n. `_solved` belongs
    to the solver (see `solver._Solved`); it starts as None and takes no part
    in equality, hashing or repr.
    """

    __slots__ = ("n", "adj", "_solved")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) names a vertex outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)
        self._solved = None

    @classmethod
    def from_adj(cls, adj: tuple[int, ...]) -> "Graph":
        """Build from adjacency rows, validating the Graph invariants."""
        n = len(adj)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"adjacency row of {v} has bits at or above n={n}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v} not allowed")
        for v, row in enumerate(adj):
            for u in bit_indices(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        return cls._unchecked(tuple(adj))

    @classmethod
    def _unchecked(cls, adj: tuple[int, ...]) -> "Graph":
        """Build from adjacency rows that already meet the Graph invariants."""
        g = object.__new__(cls)
        g.n = len(adj)
        g.adj = adj
        g._solved = None
        return g

    # -- queries ------------------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(bit_indices(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bit_indices(row):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def is_connected(self) -> bool:
        return component_of(self.adj, self.full_mask(), 0) == self.full_mask()

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} does not exist (n={self.n})")

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()!r})"


# ---------------------------------------------------------------------------
# Family generators
# ---------------------------------------------------------------------------

def complete(k: int) -> Graph:
    """Complete graph on k vertices, 1 <= k <= 64."""
    if not 1 <= k <= MAX_VERTICES:
        raise ValueError(f"complete: size must be in 1..{MAX_VERTICES}, got {k}")
    return Graph(k, combinations(range(k), 2))


def path(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"path: size must be in 1..{MAX_VERTICES}, got {n}")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0, n >= 3."""
    if not 3 <= n <= MAX_VERTICES:
        raise ValueError(f"cycle: size must be in 3..{MAX_VERTICES}, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((0, n - 1))
    return Graph(n, edges)


def k_net(k: int) -> Graph:
    """K_k with one pendant vertex attached to each clique vertex.

    Vertices 0..k-1 form the clique; vertex k+i is the pendant of vertex i.
    """
    if not 1 <= k <= MAX_VERTICES // 2:
        raise ValueError(f"k_net: size must be in 1..{MAX_VERTICES // 2}, got {k}")
    edges = list(combinations(range(k), 2))
    edges.extend((i, k + i) for i in range(k))
    return Graph(2 * k, edges)


def cartesian_k2(a: int) -> Graph:
    """Two copies of K_a joined by a perfect matching of rungs.

    Vertices 0..a-1 and a..2a-1 are the two cliques; the rungs are i <-> a+i.
    """
    if not 1 <= a <= MAX_VERTICES // 2:
        raise ValueError(f"cartesian_k2: size must be in 1..{MAX_VERTICES // 2}, got {a}")
    edges = list(combinations(range(a), 2))
    edges.extend((a + u, a + v) for u, v in combinations(range(a), 2))
    edges.extend((i, a + i) for i in range(a))
    return Graph(2 * a, edges)


class HnLayout(NamedTuple):
    """Vertex roles in an hn family graph.

    hub is adjacent exactly to the middles; middles[i] has degree 2 with
    neighbours {hub, clique[i]}; the clique vertices are pairwise adjacent.
    """

    hub: int
    clique: tuple[int, ...]
    middles: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.clique) + 1

    def partner(self, x: int) -> int:
        """The matched vertex across the clique/middle pairing."""
        if x in self.clique:
            return self.middles[self.clique.index(x)]
        if x in self.middles:
            return self.clique[self.middles.index(x)]
        raise ValueError(f"vertex {x} is the hub; it has no pairing partner")

    def role(self, x: int) -> str:
        if x == self.hub:
            return "hub"
        if x in self.clique:
            return "clique"
        if x in self.middles:
            return "middle"
        raise ValueError(f"vertex {x} not in layout")


def hn(n: int) -> tuple[Graph, HnLayout]:
    """The hn family member: K_n with every edge at one hub vertex subdivided once.

    Fixed convention: hub 0, clique vertices 1..n-1, middle (subdivision)
    vertices n..2n-2, where middle n-1+i sits on the former edge from the hub
    to clique vertex i. n=3 is the degenerate base member (a 5-cycle).
    """
    if not 3 <= n <= MAX_VERTICES // 2:
        raise ValueError(f"hn: size must be in 3..{MAX_VERTICES // 2}, got {n}")
    edges = list(combinations(range(1, n), 2))
    for i in range(1, n):
        mid = n - 1 + i
        edges.append((i, mid))
        edges.append((0, mid))
    layout = HnLayout(hub=0, clique=tuple(range(1, n)), middles=tuple(range(n, 2 * n - 1)))
    return Graph(2 * n - 1, edges), layout


# ---------------------------------------------------------------------------
# One-step minor operations. Re-indexing convention: deleting vertex v (also
# the discarded endpoint of a contraction) shifts every higher-numbered
# vertex down by one; a contraction merges into min(u, v).
# ---------------------------------------------------------------------------

def delete_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) does not exist")
    rows = list(g.adj)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph.from_adj(tuple(rows))


def delete_vertex(g: Graph, v: int) -> Graph:
    g._check_vertex(v)
    if g.n == 1:
        raise ValueError("cannot delete the last vertex")
    rows = [_drop_bit(g.adj[u], v) for u in range(g.n) if u != v]
    return Graph.from_adj(tuple(rows))


def contract_edge(g: Graph, u: int, v: int) -> Graph:
    """Contract the edge (u, v); the merged vertex keeps index min(u, v).

    Loops and parallel edges arising from the merge are discarded, so the
    result is again a simple graph.
    """
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) does not exist")
    keep, drop = min(u, v), max(u, v)
    merged = (g.adj[keep] | g.adj[drop]) & ~(1 << keep) & ~(1 << drop)
    rows = []
    for w in range(g.n):
        if w == drop:
            continue
        if w == keep:
            row = merged
        else:
            row = g.adj[w]
            if row >> drop & 1:
                row = (row & ~(1 << drop)) | (1 << keep)
        rows.append(_drop_bit(row, drop))
    return Graph.from_adj(tuple(rows))


def star_clique(g: Graph, v: int) -> Graph:
    """Delete v and make its former neighbourhood a clique.

    Re-indexing follows the delete_vertex convention. The input need not be
    connected.
    """
    g._check_vertex(v)
    if g.n == 1:
        raise ValueError("cannot star-clique the last vertex away")
    nb = g.adj[v]
    rows = []
    for u in range(g.n):
        if u == v:
            continue
        row = g.adj[u] & ~(1 << v)
        if nb >> u & 1:
            row |= nb & ~(1 << u)
        rows.append(_drop_bit(row, v))
    return Graph.from_adj(tuple(rows))


class _MinorStepFields(NamedTuple):
    kind: str
    u: int
    v: int = -1  # unused for delete_vertex


class MinorStep(_MinorStepFields):
    """A single minor move: delete_edge, contract_edge, or delete_vertex.

    Steps sort by (kind, u, v).
    """

    __slots__ = ()

    KINDS = ("delete_edge", "contract_edge", "delete_vertex")

    def __new__(cls, kind: str, u: int, v: int = -1) -> "MinorStep":
        if kind not in cls.KINDS:
            raise ValueError(f"unknown minor step kind {kind!r}")
        if kind != "delete_vertex" and v < 0:
            raise ValueError(f"{kind} needs two vertices")
        return super().__new__(cls, kind, u, v)

    @classmethod
    def del_edge(cls, u: int, v: int) -> "MinorStep":
        return cls("delete_edge", min(u, v), max(u, v))

    @classmethod
    def contract(cls, u: int, v: int) -> "MinorStep":
        return cls("contract_edge", min(u, v), max(u, v))

    @classmethod
    def del_vertex(cls, v: int) -> "MinorStep":
        return cls("delete_vertex", v)

    @property
    def dropped(self) -> int | None:
        """The vertex the step removes; higher vertices shift down by one.

        None for an edge deletion, u for a vertex deletion, and max(u, v)
        for a contraction, whose merged vertex keeps min(u, v).
        """
        if self.kind == "delete_edge":
            return None
        if self.kind == "delete_vertex":
            return self.u
        return max(self.u, self.v)

    def __str__(self) -> str:
        if self.kind == "delete_vertex":
            return f"-v{self.u}"
        op = "-" if self.kind == "delete_edge" else "/"
        return f"{op}({self.u},{self.v})"


def apply_minor_step(g: Graph, step: MinorStep) -> Graph:
    if step.kind == "delete_edge":
        return delete_edge(g, step.u, step.v)
    if step.kind == "contract_edge":
        return contract_edge(g, step.u, step.v)
    return delete_vertex(g, step.u)


def one_step_minor_steps(g: Graph) -> list[MinorStep]:
    """Canonical enumeration of one-step minor moves.

    Edge deletions (sorted), then edge contractions (sorted), then deletions
    of isolated vertices (ascending). Deleting a non-isolated vertex factors
    through deleting any incident edge first, so those moves are dominated by
    the edge deletions and are not listed. A single-vertex graph has no steps:
    its only proper minor would be the empty graph, which this representation
    does not model.
    """
    steps = [MinorStep.del_edge(u, v) for u, v in g.edges()]
    steps.extend(MinorStep.contract(u, v) for u, v in g.edges())
    if g.n > 1:
        steps.extend(MinorStep.del_vertex(v) for v in range(g.n) if g.adj[v] == 0)
    return steps


# ---------------------------------------------------------------------------
# Automorphisms and isomorphism
# ---------------------------------------------------------------------------

def _refine(nbrs: list[list[int]], colours: list[int]) -> tuple[list[int], list]:
    """Colour refinement to a stable colouring, numbered without naming a vertex.

    Each round gives every vertex the signature (its colour, the sorted
    colours of its neighbours) and renumbers the signatures in sorted order,
    so relabelling the graph relabels the result the same way. The old colour
    leads the signature, so cells only split, in place; the rounds stop when
    none does. Returns the colours and the sorted signatures of the last
    round, which two colourings related by an automorphism share.
    """
    cells = len(set(colours))
    while True:
        sigs = [(colours[v], tuple(sorted([colours[u] for u in nb]))) for v, nb in enumerate(nbrs)]
        keys = sorted(set(sigs))
        rank = {key: i for i, key in enumerate(keys)}
        colours = [rank[s] for s in sigs]
        if len(keys) == cells:
            return colours, sorted(sigs)
        cells = len(keys)


def _individualise(colours: list[int], v: int) -> list[int]:
    # v alone at the front of its cell, every cell keeping its place
    return [2 * c + (u != v) for u, c in enumerate(colours)]


def _is_automorphism(adj: tuple[int, ...], perm: tuple[int, ...]) -> bool:
    """Whether `perm` (perm[v] is the image of v) is a bijection that preserves adjacency."""
    if len(perm) != len(adj) or len(set(perm)) != len(adj):
        return False
    for u, row in enumerate(adj):
        image = 0
        for x in bit_indices(row):
            image |= 1 << perm[x]
        if adj[perm[u]] != image:
            return False
    return True


def _orbit(gens: list[tuple[int, ...]], v: int) -> int:
    """The orbit of v under the group generated by `gens`, as a mask."""
    orbit = 1 << v
    todo = [v]
    while todo:
        u = todo.pop()
        for perm in gens:
            w = perm[u]
            if not orbit >> w & 1:
                orbit |= 1 << w
                todo.append(w)
    return orbit


def _extend(adj, nbrs, left, right) -> tuple[int, ...] | None:
    """An automorphism that maps the refined colouring `left` onto `right`, or None.

    Both are (colours, signatures) pairs from `_refine`. The first cell with
    more than one vertex is split at its first vertex on the left, and at
    every vertex of the same cell in turn on the right. A discrete pair
    gives the one map that sends each colour's vertex to the same colour's,
    kept only if it preserves adjacency.
    """
    lc, lsigs = left
    rc, rsigs = right
    if lsigs != rsigs:
        return None
    sizes = [0] * len(lc)
    for c in lc:
        sizes[c] += 1
    target = next((c for c, k in enumerate(sizes) if k > 1), None)
    if target is None:
        where = [0] * len(rc)
        for u, c in enumerate(rc):
            where[c] = u
        perm = tuple(where[c] for c in lc)
        return perm if _is_automorphism(adj, perm) else None
    down = _refine(nbrs, _individualise(lc, lc.index(target)))
    for w, c in enumerate(rc):
        if c == target:
            perm = _extend(adj, nbrs, down, _refine(nbrs, _individualise(rc, w)))
            if perm is not None:
                return perm
    return None


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of g; each maps v to perm[v].

    Individualisation and refinement along the base 0, 1, 2, ...: level i
    is the group of automorphisms that fix 0..i-1, and the image of i under
    it lies in i's cell of the refined colouring with 0..i-1 individualised.
    The levels run deepest first, so when level i starts, the generators
    found so far generate the whole group fixing 0..i. An automorphism
    mapping i to w is searched for only when w is outside the orbits of i,
    and of every image already refused, under them. So each level adds a
    generator only where the orbit of i grows, and the list is a strong
    generating set: together the generators generate the whole group. An
    asymmetric graph whose refined colouring is already discrete gets an
    empty list after one refinement.
    """
    nbrs = [list(bit_indices(row)) for row in g.adj]
    levels = []
    colours = _refine(nbrs, [0] * g.n)[0]
    while len(set(colours)) < g.n:
        levels.append(colours)
        colours = _refine(nbrs, _individualise(colours, len(levels) - 1))[0]
    gens: list[tuple[int, ...]] = []
    for i in reversed(range(len(levels))):
        colours = levels[i]
        left = _refine(nbrs, _individualise(colours, i))
        tried = _orbit(gens, i)
        for w, c in enumerate(colours):
            if c != colours[i] or tried >> w & 1:
                continue
            perm = _extend(g.adj, nbrs, left, _refine(nbrs, _individualise(colours, w)))
            if perm is not None:
                gens.append(perm)
            tried |= _orbit(gens, w)
    return gens


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether some bijection of g's vertices onto h's preserves adjacency.

    In the disjoint union of g and h, with h's vertices after g's, such a
    bijection and its inverse make an automorphism that swaps the two, and
    every automorphism that maps the refined colouring marking g's vertices
    0 and h's 1 onto the one marking them the other way round is such a
    pair. `_extend` searches for one.
    """
    if g.n != h.n:
        return False
    adj = g.adj + tuple(row << g.n for row in h.adj)
    nbrs = [list(bit_indices(row)) for row in adj]
    left = _refine(nbrs, [0] * g.n + [1] * h.n)
    right = _refine(nbrs, [1] * g.n + [0] * h.n)
    return _extend(adj, nbrs, left, right) is not None
