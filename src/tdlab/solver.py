"""Exact tree-depth with certificates, plus an independent brute-force oracle.

The exact solver runs the standard recursion (a single vertex has depth 1,
a disconnected graph takes the maximum over components, and a connected
graph takes 1 + min over vertex removals) as a memoized branch-and-bound
over vertex subsets of a fixed root graph. Every subproblem of the
recursion is a connected induced subgraph, so the memo key is just the
subset mask, one machine word.

Only connected masks are ever memoized. The search relies on this: when a
branch removes v from a connected mask and the rest is in the memo, the rest
is one component with a known value, so no split is needed. On a miss the
rest is split by a search from v's neighbours, which stops as soon as it has
reached all of them, since every component of the rest contains one.

The search is bounded: each subproblem is asked only whether its value is
below a bound, and answers with the exact value or a proven lower bound of
at least that bound. Exact values go to the memo and lower bounds to a
second store beside it (connected masks only, too), which later queries
read. A mask of at most 2 vertices is answered by its size and never
stored. A node's incumbent, its best value so far, starts at the number of
its vertices. Only a clique has that value, so wherever else a node writes
an exact value, a branch has lowered the incumbent (see the witness below).
A clique needs no rule of its own: its greedy clique bound meets the
incumbent's start, so its node closes before any branch. A node on more
than `_SMALL_MAX_VERTICES` + 1 vertices also computes the height of a DFS
tree of the mask, whose deepest path bounds td from below by
ceil(log2(height + 1)). A smaller node does without it: each of its
branches is answered exactly at once, by one read of the table of small
subgraphs (below) or, on 3 vertices, by the size of its rest.

Two textbook facts about k-rankings are read from the degrees of the branch
order. In an elimination forest every vertex adjacent to all others of a
connected G is an ancestor or a descendant of each of them, so it can be
moved to the root: td(G) = 1 + td(G - u) for such a u, which is then the
only branch. And a leaf of an elimination forest has all its neighbours
among its ancestors, so td >= 1 + the least degree.

A graph h built by `derive`, a one-step minor or star-clique transform of a
parent g, also reads g's stores. A connected subproblem h[S] is either
identical to a subproblem g[P], whose value or bound it then shares, or it
is the same step applied inside a subproblem g[P']. In that case
td(h[S]) >= td(g[P']) - 1, by one argument for every step. The step deletes
a vertex x of P', or an edge at x, and otherwise only adds edges: x is an
end of a deleted edge, the dropped end of a contracted edge, or the centre
of a transform. So h[S] contains g[P'] - x as a subgraph. Tree-depth is
monotone on subgraphs, and td(G) <= td(G - x) + 1 for every vertex x, by
putting x above an elimination forest of G - x.

The search branches on one vertex per orbit. When an automorphism of
G[mask] maps u to v, td(mask - u) = td(mask - v), so of each orbit only the
first vertex in branch order is searched. Each graph keeps generators of its
automorphism group in its entry, and the orbits at a mask are those of
the group generated by the generators that map the mask onto itself. That
group is a subgroup of Aut(G[mask]), and any subgroup is sound: its orbits
are only finer than the true ones, and each vertex left out has the value of
the kept vertex that stands for it, so every value and bound is unchanged.
The rule never skips the first vertex in branch order whose removal attains
the optimum: the first vertex of its orbit attains it too, so it is that
vertex. Witnesses are therefore those of the search without the rule (see
the witness below). The orbits of a node are asked for only once its first
branch has failed to close it; that vertex is the first of its orbit, so
nothing it would have skipped changes.
One function, `generators`, owns a graph's generators: it searches for
them at most once and keeps them in the graph's entry, and the search,
`derive` and the reports of `tdlab.critical` all read them through it. One
measured size gate decides which graphs have any: those with at least 7
vertices (`_GENERATORS_MIN_VERTICES`). A search on such a graph that has
none yet fetches them at its first node whose first branch does not close
it. A graph built by `derive` never searches: it inherits those of its
parent's generators that fix the dropped vertex and are automorphisms of
it.

Subgraphs on 3 to 5 vertices are settled once per process. Every search
ends in them, and there are only 2^3 + 2^6 + 2^10 = 1,096 labeled graphs on
3 to 5 vertices, so one process-wide table (`_small_table`) keeps each
one's exact tree-depth and witness labels by position, keyed by the labeled
subgraph itself rather than by a graph and a mask. A search reads it for a
subproblem of that size before its stores, and at a node on at most 6
vertices each branch reads its whole rest, connected or not, with one table
read: no split and no solve per component. On a miss
a search of its own, on empty stores and without budgets or generators,
solves each component of the mask exactly and builds its witness. None of
its nodes, store entries or reads is the caller's, so no count of a call
and no store entry depends on what the process solved before. A
disconnected entry holds the largest of its components' values and their
labels side by side, as the split and the witness rebuild give them. No
entry can depend on which graph the mask came from: the branch order
inside a mask is by degree inside it and then by index, and
relabeling by position keeps both. An exact value answers every bounded
query, and tree-depth is monotone on subgraphs, so a branch may learn the
exact value of its rest where a split would have stopped at the first
component that reached the cap. Each search keeps the entries it has read
by mask, so the witness rebuild copies a rest's labels without computing
its key again. The table is not one of a graph's stores, so `memo_capacity`
does not count it. Concurrent fills are safe: every writer of a key writes
the identical entry.

What the search learns about a graph is kept on that Graph object, in its
`_solved` slot (see `_Solved`), and lives exactly as long as the object, or a
graph derived from it, is alive. Equal but distinct objects solve
separately; values and witnesses do not depend on which one is asked.
Concurrent callers need no lock: every memo writer writes the identical
(value, pick) pair, and every lower bound written is valid, so two threads
that create a graph's entry at once lose at most one entry's work, never a
value.

The brute-force oracle searches the space of labelings instead of the space
of elimination orders, which keeps the two routes to a tree-depth value
independent of each other.

Determinism: branch order is decreasing degree with lowest index breaking
ties, and the witness assigns the removed vertex the highest rank of its
subproblem, so identical inputs always produce identical certificates.

The witness is the canonical elimination: the first vertex in branch order
whose removal attains td(mask) gets the mask's value, and the witness
recurses into the components of the rest. Every exact value is kept in the
memo with that vertex, its pick, in one entry, so the witness rebuild is a
walk of picks. A node's pick starts at the first vertex in branch order,
and each branch that lowers the incumbent replaces it. If no branch did,
the node is a clique (see above), where every vertex attains. Otherwise
the vertex v that lowered it last is the first attaining vertex a. v
attains td(mask): its branch was answered exactly below the cap, and the
incumbent it set is the node's value. So a comes no later than v, and the
loop reached it. The cap ends at td(mask), lowered there by v, and a branch
lowers it to td(mask) only if it attains. So if a was tried, the cap was
still above td(mask), a lowered it to td(mask), and no later branch went
below: v is a. A value that `derive` copies from the identical subgraph of
a parent brings the parent's pick, re-indexed the way the step re-indexes
the graph, which keeps the branch order. The one property every rule that
prunes the branch loop must keep is therefore that it never skips the
first attaining vertex; the orbit rule keeps it (see above).
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

from .graphs import (
    Graph,
    MinorStep,
    _drop_bit,
    _is_automorphism,
    apply_minor_step,
    automorphism_generators,
    bit_indices,
    component_masks,
    star_clique,
)
from .ranking import Ranking

# Largest graph the labeling-space search is run on: brute_force_td here and
# critical.one_unique_direct.
BRUTE_FORCE_MAX_VERTICES = 8


class SolverConfig(NamedTuple):
    """Resource limits of one solver call.

    Each budget limits the new work of one `treedepth` or `treedepth_le`
    call: nodes expanded, wall time, and the number of entries the graph's
    two stores (exact values with their picks, and lower bounds, see
    `_Solved`) may hold together. The capacity is checked before every write
    that adds an entry, values copied from a parent graph included. Values
    already solved for the same Graph object cost nothing, so a call whose
    answer is already known never runs out; an equal but distinct object
    starts from empty stores. Subproblems on at most 2 vertices are answered
    in closed form: they are neither nodes nor store entries, so they spend
    no budget. Nor are subgraphs on 3 to 5 vertices, subproblems or the
    rests of branches, connected or not: they are read from the process-wide
    table of small subgraphs (see the module docstring), which no capacity
    counts and whose missing entries are filled outside the call's budget. A
    node on 6 vertices is one node whose every branch is such a read. Every
    node's incumbent starts at its size. A clique on 6 or more vertices is
    an ordinary node, which closes before any branch; its witness rebuild
    then solves the clique one vertex smaller, and so on down to 6 vertices,
    one node each. A node with a vertex adjacent to all others branches on
    that vertex alone.
    """

    node_budget: int | None = None
    time_budget: float | None = None
    memo_capacity: int | None = None


DEFAULT_CONFIG = SolverConfig()


class SolverStats(NamedTuple):
    """What one call did: nodes expanded, store entries of its graph, seconds.

    `symmetry_skips` counts the branches left out by the orbit rule (see the
    module docstring): vertices of an expanded node's branch order that an
    earlier vertex of their orbit stood for. `table_reads` counts the
    distinct subgraphs (masks) the call read from the table of small
    subgraphs, the witness rebuild's included; a fill's reads are not
    counted, so no count depends on what the table held. The rebuild
    mostly reads masks the search read already; below a clique, which
    closes before any branch, or a value copied from a parent, its reads
    are new.
    """

    nodes: int
    memo_entries: int
    elapsed: float
    symmetry_skips: int = 0
    table_reads: int = 0


class Bounds(NamedTuple):
    """Certified enclosure: lower <= td(G) <= upper."""

    lower: int
    upper: int


class TdCertificate(NamedTuple):
    """Exact tree-depth plus a witness ranking that attains it."""

    value: int
    witness: Ranking
    stats: SolverStats


class BudgetExceededError(Exception):
    """A resource budget ran out; `bounds` still encloses the true value."""

    def __init__(self, message: str, bounds: Bounds, stats: SolverStats):
        super().__init__(message)
        self.bounds = bounds
        self.stats = stats


class _BudgetHit(Exception):
    pass


# Above the tree-depth of any graph on at most 64 vertices: no bound.
_NO_BOUND = 65


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def _dfs_height(adj: tuple[int, ...], mask: int, root: int, depth: list | None = None) -> int:
    """Height in vertices of the DFS tree from `root` inside `mask`.

    Neighbours are explored in ascending order, so the value is
    deterministic. Every non-tree edge of a DFS tree joins an ancestor to a
    descendant, hence labeling each vertex with height - depth + 1 is
    feasible and the height is an upper bound for the tree-depth. The stack
    is the tree path from the root, so its length is the depth of its top;
    if a `depth` list is given, each vertex's depth is written into it.
    """
    unvisited = mask & ~(1 << root)
    stack = [root]
    height = 1
    if depth is not None:
        depth[root] = 1
    while stack:
        free = adj[stack[-1]] & unvisited
        if free:
            low = free & -free
            unvisited ^= low
            v = low.bit_length() - 1
            stack.append(v)
            d = len(stack)
            if depth is not None:
                depth[v] = d
            if d > height:
                height = d
        else:
            stack.pop()
    return height


def _branch_order(adj: tuple[int, ...], mask: int) -> list[int]:
    """Vertices of `mask` by decreasing degree inside `mask`, ties by lowest index.

    This is the solver's one branch order: the search and the greedy clique
    bound use it, and the witness takes the first vertex in it whose removal
    attains the optimum (see the module docstring). Degrees and indices are
    below 64, so one packed integer key per vertex sorts the same way as the
    pair.
    """
    keys = []
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        keys.append((64 - (adj[v] & mask).bit_count()) << 6 | v)
        m ^= low
    keys.sort()
    return [k & 63 for k in keys]


def _greedy_clique(adj: tuple[int, ...], order: list[int]) -> int:
    """Size of the clique built greedily along `order`, a lower bound."""
    clique = 0
    for v in order:
        if clique & ~adj[v] == 0:
            clique |= 1 << v
    return clique.bit_count()


def _split(adj: tuple[int, ...], rest: int, nbrs: int) -> list[int]:
    """Components of `rest`, given that each of them contains a vertex of `nbrs`.

    `rest` is a connected mask with one vertex v removed and `nbrs` is
    `adj[v] & rest`. The search from the lowest neighbour returns `[rest]`
    as soon as it has reached every neighbour; only when v is a cut vertex
    does the full split run, which orders the components by lowest vertex.
    """
    comp = frontier = nbrs & -nbrs
    while frontier:
        if nbrs & ~comp == 0:
            return [rest]
        grow = 0
        f = frontier
        while f:
            low = f & -f
            grow |= adj[low.bit_length() - 1]
            f ^= low
        frontier = grow & rest & ~comp
        comp |= frontier
    return component_masks(adj, rest)


# Subgraphs on 3 to this many vertices are settled once per process, in
# `_small_table`. In-process solves of the 27,476 connected graphs on at most
# 6 vertices, table emptied first, took 0.79 s without the table, 0.71 s with
# a limit of 4, 0.48 s with 5 and 0.66 s with 6, where every 6-vertex graph
# pays a fill at its top level (CPython 3.11, one core; the table then held
# connected non-cliques only). A node on at most one vertex more reads every
# branch from the table, exactly, so it computes no DFS height (see
# `_Search.solve_conn`). Larger nodes keep it for the log-height lower
# bound: without that bound the 8 G(16, 0.3) graphs of
# perfbench/inputs/gnp16.txt took 47,248 search nodes, and with it 28,326,
# the same whether the incumbent starts at the DFS height or at the size
# (in-process, table emptied first, fills counted).
_SMALL_MAX_VERTICES = 5

# The exact tree-depth and witness labels, by position, of every labeled graph
# on 3 to `_SMALL_MAX_VERTICES` vertices, connected or not, that a search of
# this process has read whole, keyed by `_small_key`: at most
# 2^3 + 2^6 + 2^10 = 1,096 entries. A disconnected entry is the largest of its
# components' values, with their labels side by side. Every writer of a key
# writes the identical entry, so concurrent fills are safe.
_small_table: dict[int, tuple[int, tuple[int, ...]]] = {}


def _small_key(adj: tuple[int, ...], mask: int) -> int:
    """The labeled subgraph on `mask`: a sentinel bit, then each vertex's
    adjacency to the later vertices of the mask, vertices in ascending order.

    A row gets one bit per later vertex, the first of them highest, so an
    edge to b sets the bit whose index is the number of later vertices above b.
    """
    key = 1
    m = mask
    while m:
        low = m & -m
        m ^= low
        row = adj[low.bit_length() - 1] & m
        c = 0
        while row:
            b = row & -row
            c |= 1 << (m & -(b << 1)).bit_count()
            row ^= b
        key = key << m.bit_count() | c
    return key


class _Search:
    """One call's bounded branch-and-bound over connected vertex subsets of one graph.

    The search reads and writes the graph's two shared stores (see
    `_Solved`): `memo`, the exact values, each with the canonical vertex of
    its mask that the witness rebuild reads, and `lower`, proven lower
    bounds of subproblems that were only asked whether they beat a bound.
    Every entry is valid whatever the caller's incumbent, so a call stopped
    by its budget leaves only exact values and valid bounds. A graph built
    by `derive` also reads both stores of its parent (`_Solved.parent`),
    through the lift of `_inherit`. Where the two induced subgraphs are
    identical, an exact value read there is copied into the memo with its
    pick, and a lower bound raises the subproblem's own. Where they are one
    step apart, the parent's value, or else its lower bound, minus 1 raises
    it. Both reads happen in one place, at the top of `solve_conn`, before
    the subproblem counts as a node, and only an exact value is written.
    """

    __slots__ = (
        "g", "adj", "config", "memo", "lower", "parent", "cycles",
        "nodes", "skips", "entries", "filling", "_start", "_deadline",
    )

    def __init__(self, g: Graph, config: SolverConfig, solved: _Solved):
        self.g = g
        self.adj = g.adj
        self.config = config
        self.memo = solved.memo
        self.lower = solved.lower
        self.parent = solved.parent
        # The cycles of the entry's generators; a fill's empty entry has none.
        # An entry without generators yet has none below the size gate of
        # `generators`, and from it on fetches them at the first node whose
        # first branch does not close it.
        gens = solved.gens
        self.cycles: tuple[list[int], ...] | None = (
            tuple(_cycle_masks(p) for p in gens) if gens
            else None if gens is None and g.n >= _GENERATORS_MIN_VERTICES
            else ()
        )
        self.nodes = 0
        self.skips = 0
        # The table entries this call has read, by mask (see `_small`).
        self.entries: dict[int, tuple[int, tuple[int, ...]]] = {}
        # The mask whose table entry this search fills, which reads past the table.
        self.filling = 0
        self._start = time.monotonic()
        self._deadline = (
            None if config.time_budget is None else self._start + config.time_budget
        )

    # -- resource accounting -------------------------------------------------

    def _tick(self) -> None:
        # Checked before counting, so a stop reports exactly the nodes expanded.
        cfg = self.config
        if cfg.node_budget is not None and self.nodes >= cfg.node_budget:
            raise _BudgetHit(f"node budget of {cfg.node_budget} exhausted")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise _BudgetHit(f"time budget of {cfg.time_budget}s exhausted")
        self.nodes += 1

    def _store(self, store: dict, mask: int, entry: int | tuple[int, int]) -> None:
        # The memo capacity bounds the entries of both stores together, so it
        # is checked before every write that adds one.
        cap = self.config.memo_capacity
        if cap is not None and mask not in store and len(self.memo) + len(self.lower) >= cap:
            raise _BudgetHit(f"memo capacity of {cap} exhausted")
        store[mask] = entry

    def stats(self) -> SolverStats:
        return SolverStats(
            self.nodes,
            len(self.memo) + len(self.lower),
            time.monotonic() - self._start,
            self.skips,
            len(self.entries),
        )

    # -- symmetry ------------------------------------------------------------

    def _orbit_skips(self, mask: int, order: list[int]) -> int:
        """The vertices of `order` that the orbit rule leaves out, as a mask.

        The generators of the graph that map `mask` onto itself generate a
        group of automorphisms of G[mask]. Of each of its orbits only the
        first vertex in `order` is kept. The generators are fetched at the
        first node that needs them.
        """
        cycles = self.cycles
        if cycles is None:
            cycles = self.cycles = tuple(_cycle_masks(p) for p in generators(self.g))
        if not cycles:
            return 0
        orbits: list[int] = []
        for gen in cycles:
            for c in gen:
                if 0 != c & mask != c:
                    break  # this generator moves a vertex of mask out of it
            else:
                for c in gen:
                    if c & mask:
                        merged = c
                        apart = []
                        for o in orbits:
                            if o & c:
                                merged |= o
                            else:
                                apart.append(o)
                        apart.append(merged)
                        orbits = apart
        skip = 0
        for v in order:
            b = 1 << v
            if not skip & b:
                for o in orbits:
                    if o & b:
                        skip |= o ^ b
                        break
        return skip

    # -- values --------------------------------------------------------------

    def solve_set(self, comps: list[int], ub: int = _NO_BOUND) -> int:
        """Tree-depth of the union of the components `comps` if below `ub`, else
        a lower bound of at least `ub`, from the first component that reaches it."""
        worst = 0
        for c in comps:
            val = self.solve_conn(c, ub)
            if val > worst:
                worst = val
                if worst >= ub:
                    break
        return worst

    def solve_conn(self, mask: int, ub: int = _NO_BOUND) -> int:
        """Tree-depth of the connected induced subgraph on `mask`, if it is below `ub`.

        An exact value that a node finds is kept in `memo` with its pick, the
        canonical vertex; otherwise the result is a proven lower bound L with
        ub <= L <= td, which is kept in `lower`. A mask on 3 to `_SMALL_MAX_VERTICES`
        vertices is answered from the table of small subgraphs, exactly,
        unless it is the one whose entry this search is filling; that read
        needs no connected mask. A mask of at most 2 vertices is answered by
        its size, before it counts as a node and without a store entry. A
        node has td >= 1 + its least degree (see the module docstring), and
        its incumbent starts at its size. At a node on at most
        `_SMALL_MAX_VERTICES` + 1 vertices each branch reads its whole rest
        from the table, exactly. Elsewhere the node also takes the
        log-height lower bound of a DFS tree, and a branch asks the
        components of its rest, through `solve_set`, only whether they beat
        the current cap (the incumbent, or `ub` if lower), so most
        subproblems are never solved exactly. Whatever a branch
        learns bounds td(mask - v) from below, and so td(mask) too: once
        such a bound reaches the cap, the remaining branches are skipped.
        A vertex adjacent to all others comes first in branch order and is
        then the only branch. Otherwise, once the first branch has failed to
        close the node, of each orbit of the mask's symmetries only the first
        vertex in branch order is a branch (see the module docstring).
        """
        cnt = mask.bit_count()
        if 2 < cnt <= _SMALL_MAX_VERTICES and mask != self.filling:
            return self._small(mask)[0]
        memo = self.memo
        hit = memo.get(mask)
        if hit:
            return hit[0]
        if cnt <= 2:
            return cnt
        adj = self.adj
        known = self.lower.get(mask, 2)
        if self.parent is not None:
            up, lift, drop = self.parent
            p = lift(mask)
            if p >= 0:
                hit = up.memo.get(p)
                if hit:
                    # the parent's pick, re-indexed past the dropped vertex
                    val, w = hit
                    self._store(memo, mask, (val, w - (w > drop)))
                    return val
                known = max(known, up.lower.get(p, 0))
            else:
                # mask is one step from the parent's ~p: td drops by at most 1
                p = ~p
                hit = up.memo.get(p)
                known = max(known, (hit[0] if hit else up.lower.get(p, 0)) - 1)
        if known >= ub:
            return known
        self._tick()
        order = _branch_order(adj, mask)
        top = order[0]
        universal = (adj[top] & mask).bit_count() == cnt - 1
        # The incumbent starts at the size, which only a clique attains, and
        # there at order[0]; a branch that lowers it replaces the pick.
        best = cnt
        chosen = order[0]
        cap = min(best, ub)
        # A vertex of least degree, order[-1], as a leaf of an elimination
        # forest has all its neighbours among its ancestors. Above
        # _SMALL_MAX_VERTICES + 1 vertices, the deepest path of a DFS tree
        # has td = ceil(log2(height + 1)).
        lb = max(
            _greedy_clique(adj, order),
            0 if cnt <= _SMALL_MAX_VERTICES + 1
            else _ceil_log2(_dfs_height(adj, mask, (mask & -mask).bit_length() - 1) + 1),
            known,
            1 + (adj[order[-1]] & mask).bit_count(),
        )
        # floor: the least lower bound proven for a branch that did not beat
        # cap, or lb if the loop was cut before every branch had run.
        floor = _NO_BOUND
        if lb < cap:
            # A rest on 3 to _SMALL_MAX_VERTICES vertices is one table entry,
            # connected or not.
            small_rest = 3 < cnt <= _SMALL_MAX_VERTICES + 1
            skip = 0
            for v in order:
                if skip >> v & 1:
                    continue
                rest = mask ^ (1 << v)
                if small_rest:
                    worst = self._small(rest)[0]
                else:
                    # Only connected masks are memoized, so a hit is the value
                    # of the whole rest and needs no split.
                    hit = memo.get(rest)
                    worst = hit[0] if hit else self.solve_set(
                        _split(adj, rest, adj[v] & rest), cap - 1
                    )
                if 1 + worst < cap:
                    best = cap = 1 + worst
                    chosen = v
                elif 1 + worst < floor:
                    floor = 1 + worst
                # Tree-depth is monotone on subgraphs: td(mask) >= td(rest) >=
                # worst. Once lb reaches cap no later branch can beat it.
                if worst > lb:
                    lb = worst
                if lb >= cap:
                    floor = lb
                    break
                if v == top:
                    if universal:
                        break  # td(mask) = 1 + td(mask - top): the only branch
                    if self.cycles != ():  # no call at all on a graph without generators
                        # top is the first vertex of its orbit, so it is never skipped
                        skip = self._orbit_skips(mask, order)
                        self.skips += skip.bit_count()
        else:
            floor = lb
        # Below ub the cap was always the incumbent, so no branch beats best.
        # Otherwise best is the starting incumbent, exact only if floor reaches it.
        if best < ub or floor >= best:
            self._store(memo, mask, (best, chosen))
            return best
        self._store(self.lower, mask, floor)
        return floor

    # -- witness ---------------------------------------------------------------

    def _witness_conn(self, mask: int, out: list[int]) -> None:
        # Give the mask's pick, the canonical vertex (see the module
        # docstring), the top rank of this subproblem and recurse into the
        # components of its rest. `solve_conn` leaves the memo entry: a hit,
        # a copy from the parent, or the node of a clique nested in a
        # clique, which closes at once. A mask on 3 to `_SMALL_MAX_VERTICES`
        # vertices, connected or not, takes the labels its table entry
        # holds, and a rest of that size is not split.
        cnt = mask.bit_count()
        if 2 < cnt <= _SMALL_MAX_VERTICES and mask != self.filling:
            for label in self._small(mask)[1]:
                low = mask & -mask
                out[low.bit_length() - 1] = label
                mask ^= low
            return
        if cnt <= 2:
            # the lower vertex is the pick: labels cnt, ..., 1 in ascending order
            while mask:
                low = mask & -mask
                out[low.bit_length() - 1] = cnt
                cnt -= 1
                mask ^= low
            return
        self.solve_conn(mask)
        value, v = self.memo[mask]
        out[v] = value
        adj = self.adj
        rest = mask ^ (1 << v)
        small_rest = 3 < cnt <= _SMALL_MAX_VERTICES + 1
        for c in [rest] if small_rest else _split(adj, rest, adj[v] & rest):
            self._witness_conn(c, out)

    # -- the table of small subgraphs -------------------------------------------

    def _small(self, mask: int) -> tuple[int, tuple[int, ...]]:
        """The table's entry for the subgraph on `mask`, filled on a miss.

        The entries this search has read are kept by mask in `entries`, so
        each key is computed once per call. A fill is a search of its own
        on empty stores, with no budget and no generators, whose `filling`
        names the mask so that a connected mask skips the table there; its
        nodes and store entries are not this search's, so this search counts
        and spends the same whatever the table held.
        """
        entry = self.entries.get(mask)
        if entry is not None:
            return entry
        key = _small_key(self.adj, mask)
        entry = _small_table.get(key)
        if entry is None:
            fill = _Search(self.g, DEFAULT_CONFIG, _Solved([]))
            fill.filling = mask
            value, out = fill._solve_whole(mask)
            entry = _small_table[key] = (value, tuple(out[v] for v in bit_indices(mask)))
        self.entries[mask] = entry
        return entry

    def _solve_whole(self, mask: int) -> tuple[int, list[int]]:
        """Exact tree-depth of the subgraph on `mask`, connected or not, and
        the witness labels of its vertices, indexed by vertex: its
        components' side by side."""
        comps = component_masks(self.adj, mask)
        value = self.solve_set(comps)
        out = [0] * self.g.n
        for c in comps:
            self._witness_conn(c, out)
        return value, out

    def certificate(self) -> TdCertificate:
        value, out = self._solve_whole(self.g.full_mask())
        return TdCertificate(value, Ranking(tuple(out), value), self.stats())


class _Solved:
    """What is known of one graph, and the parent it was derived from (see `derive`).

    `memo` maps a connected mask to the pair (value, pick): its exact
    tree-depth and its canonical vertex, the one the witness takes (see the
    module docstring). `lower` maps a connected mask to a proven lower bound
    of its tree-depth; an entry is only ever raised, and may stay after the
    mask's exact value is found.
    `cert` is the finished certificate, built only by `treedepth`.
    The entry lives on its Graph object (`_solved_for`). `parent` is set by
    `derive`: the parent graph's own entry, the lift of `_inherit`, which
    maps each mask of this graph to the parent mask of the identical
    subgraph, or of the subgraph one step away, and the dropped vertex (the
    parent's n if none), past which a parent's pick is re-indexed. Holding
    the entry keeps the parent's stores readable after the parent graph
    itself is gone. `gens` are the automorphism generators the search
    branches by (see `generators`), None until they are first needed.
    """

    __slots__ = ("memo", "lower", "cert", "parent", "gens")

    def __init__(self, gens: list[tuple[int, ...]] | None = None):
        self.memo: dict[int, tuple[int, int]] = {}
        self.lower: dict[int, int] = {}
        self.cert: TdCertificate | None = None
        self.parent: tuple[_Solved, Callable[[int], int], int] | None = None
        self.gens = gens


def _solved_for(g: Graph) -> _Solved:
    """g's entry, created on first use. Every call, budgeted or not, reads and
    writes it; budgets and node counts stay in the call's own _Search."""
    solved = g._solved
    if solved is None:
        solved = g._solved = _Solved()
    return solved


# `generators` searches for generators only on graphs with at least this
# many vertices. The reports group their work by the orbits they give,
# `derive` hands them on, and the search branches by them. Measured
# in-process (CPython 3.11, one core), against the direct 1-uniqueness checks
# of every vertex: on all 26,704 connected labeled 6-vertex graphs the
# automorphism search took 1.54 s and the checks 3.45 s, and orbit
# representatives are 118,692 of the 160,224 vertices, so grouping would save
# about 0.9 s for 1.5 s spent; on 225 random 7-vertex graphs the search took
# 15 ms and the checks 110 ms (representatives 1,234 of 1,575), and on 231
# random 8-vertex graphs 18 ms and 688 ms (1,601 of 1,848). For the search
# alone: on the 27,476 connected graphs with at most 6 vertices, generators
# on every graph cut the nodes by only 23% (195,289 -> 149,489) and took
# their solves from 1.15 to 2.95 s; the 1,000 lone solves of random 7- and
# 8-vertex graphs of the acceptance tests went from 9,099 to 7,962 nodes and
# from 0.11 to 0.18 s.
_GENERATORS_MIN_VERTICES = 7


def generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of Aut(g), kept in g's entry and searched for once.

    None are searched for below `_GENERATORS_MIN_VERTICES` vertices. A
    graph built by `derive` already holds its inherited ones.
    """
    solved = _solved_for(g)
    if solved.gens is None:
        solved.gens = automorphism_generators(g) if g.n >= _GENERATORS_MIN_VERTICES else []
    return solved.gens


def _cycle_masks(perm: tuple[int, ...]) -> list[int]:
    """The cycles of `perm` that move a vertex, each as a mask."""
    cycles = []
    seen = 0
    for v, w in enumerate(perm):
        if w == v or seen >> v & 1:
            continue
        c = 0
        while not c >> v & 1:
            c |= 1 << v
            v = perm[v]
        seen |= c
        cycles.append(c)
    return cycles


def _inherit_generators(
    gens: list[tuple[int, ...]], h: Graph, drop: int
) -> list[tuple[int, ...]]:
    """The generators of the parent that fix `drop` and are automorphisms of h.

    Each is re-indexed past `drop` first, the way the step re-indexes h. A
    `drop` of the parent's n drops no vertex.
    """
    out = []
    for perm in gens:
        if drop < len(perm):
            if perm[drop] != drop:
                continue
            perm = tuple(w - (w > drop) for v, w in enumerate(perm) if v != drop)
        if _is_automorphism(h.adj, perm):
            out.append(perm)
    return out


def derive(g: Graph, step: MinorStep | int) -> Graph:
    """Apply `step` to g and let the solves of the result read g's stores.

    `step` is a `MinorStep`, or a vertex v for `star_clique(g, v)`. The step
    drops at most one vertex: `step.dropped` for a minor step, and v for the
    transform. The lift of `_inherit` is built here, once, and stored with
    g's entry in the result's `parent`, which keeps g's stores alive as long
    as the result is. Later `treedepth` and `treedepth_le` calls on the
    returned graph read each subproblem that is identical in g from g's memo
    and lower bounds instead of searching it.
    A subproblem one step from one of g's gets g's value there, or else its
    lower bound, minus 1 as a lower bound (see the module docstring). When
    the step changes an edge of a connected h, h's full mask is such a
    subproblem, so td(g) - 1 bounds h from its first node on, and no store
    entry is written here.
    Every value read is exact or a valid bound, so the value and the witness
    are those of a search from empty stores.
    The result never searches for automorphism generators: it gets those of
    g's generators (searched for now, if g has none yet) that fix the
    dropped vertex and, re-indexed, are automorphisms of the result.
    """
    if isinstance(step, MinorStep):
        h = apply_minor_step(g, step)
        drop = g.n if step.dropped is None else step.dropped  # g.n: none dropped
    else:
        h = star_clique(g, step)
        drop = step
    up = _solved_for(g)
    entry = _solved_for(h)
    entry.parent = (up, _inherit(g, h, drop), drop)
    # Inherited, never searched: a search per minor took `is_critical(hn(7))`
    # from 9.6 to 30.8 ms in-process (CPython 3.11, one core).
    entry.gens = _inherit_generators(generators(g), h, drop)
    return h


def _inherit(g: Graph, h: Graph, drop: int) -> Callable[[int], int]:
    """The lift of a mask of h to the mask of g that its search reads.

    h is g with at most one vertex `drop` removed (higher vertices shift
    down; a `drop` of g.n removes none) and some edges changed. A mask S of
    h maps to the mask P of g that has a 0 bit put back at `drop`. g[P] is
    h[S] exactly when no changed edge has both ends in S; the lift returns
    P >= 0 then. Otherwise h[S] is the step applied to g[P'], where P' is P
    with the bit of `drop` set, if a vertex was dropped, so td(h[S]) >=
    td(g[P']) - 1; the lift returns the negative ~P'.
    """
    dropped = 1 << drop & g.full_mask()
    rows = [_drop_bit(g.adj[u], drop) for u in range(g.n) if u != drop]
    # changed[i]: the vertices whose adjacency to i differs from the parent's
    changed = [row ^ old for row, old in zip(h.adj, rows)]
    touched = sum(1 << i for i, c in enumerate(changed) if c)
    low = (1 << drop) - 1

    def lift(s: int) -> int:
        p = (s & low) | (s >> drop << (drop + 1))
        m = s & touched
        while m:
            b = m & -m
            if changed[b.bit_length() - 1] & s:
                return ~(p | dropped)
            m ^= b
        return p

    return lift


def treedepth(g: Graph, config: SolverConfig | None = None) -> TdCertificate:
    """Exact tree-depth of g with a witness ranking that attains it.

    The witness is the canonical elimination (see the module docstring),
    except after a budget stop whose `bounds` meet: the value is then theirs
    and the witness the DFS ranking behind the upper bound. The solver runs
    `ranking.verify_ranking` on neither; that check is independent of the
    solver and left to the caller.

    Raises BudgetExceededError (carrying certified Bounds) when a configured
    resource budget runs out before the exact value is known.
    """
    solved = _solved_for(g)
    if solved.cert is not None:
        return solved.cert
    search = _Search(g, config or DEFAULT_CONFIG, solved)
    try:
        solved.cert = search.certificate()
    except _BudgetHit as hit:
        quick = bounds(g)
        if quick.lower == quick.upper:
            return TdCertificate(quick.upper, _dfs_ranking(g), search.stats())
        raise BudgetExceededError(str(hit), quick, search.stats()) from None
    return solved.cert


def treedepth_le(g: Graph, k: int, config: SolverConfig | None = None) -> bool:
    """Decision form: is td(g) <= k? A search bounded at k + 1 on the shared stores.

    No certificate is built: each component is only asked whether it beats
    k + 1, and the search stops at the first one that does not. The search
    alone decides; `bounds` is computed only when a budget stops it, as
    `treedepth` does, and answers when it settles k.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    search = _Search(g, config or DEFAULT_CONFIG, _solved_for(g))
    try:
        return search.solve_set(component_masks(g.adj, g.full_mask()), k + 1) <= k
    except _BudgetHit as hit:
        quick = bounds(g)
        if quick.upper <= k or quick.lower > k:
            return quick.upper <= k
        raise BudgetExceededError(str(hit), quick, search.stats()) from None


def _max_clique(adj: tuple[int, ...], mask: int) -> int:
    best = 0

    def grow(cand: int, size: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = max(best, size)
            return
        low = cand & -cand
        grow(cand & adj[low.bit_length() - 1], size + 1)
        grow(cand ^ low, size)

    grow(mask, 0)
    return best


_EXACT_CLIQUE_MAX = 20


def _dfs_roots(g: Graph) -> tuple[list[int], list[int]]:
    """DFS height from every vertex, and the root of each component.

    A component's root is its vertex of least DFS height, lowest index on
    ties; its height is the component's DFS upper bound.
    """
    adj = g.adj
    full = g.full_mask()
    heights = [_dfs_height(adj, full, v) for v in range(g.n)]
    roots = [
        min(bit_indices(comp), key=heights.__getitem__)
        for comp in component_masks(adj, full)
    ]
    return heights, roots


def bounds(g: Graph) -> Bounds:
    """Cheap certified bounds: clique and longest-DFS-path below, DFS height above."""
    adj = g.adj
    full = g.full_mask()
    heights, roots = _dfs_roots(g)
    upper = max(heights[r] for r in roots)
    longest = max(heights) - 1
    if g.n <= _EXACT_CLIQUE_MAX:
        clique = _max_clique(adj, full)
    else:
        clique = max(
            _greedy_clique(adj, _branch_order(adj, comp))
            for comp in component_masks(adj, full)
        )
    return Bounds(max(clique, _ceil_log2(longest + 2)), upper)


def _dfs_ranking(g: Graph) -> Ranking:
    """The ranking behind the upper bound of `bounds`.

    Each component is walked by `_dfs_height` from its root of least DFS
    height, and a vertex at depth d of a tree of height h gets label
    h - d + 1. The largest label is the upper bound.
    """
    adj = g.adj
    depth = [0] * g.n
    labels = [0] * g.n
    comps = component_masks(adj, g.full_mask())
    for root, comp in zip(_dfs_roots(g)[1], comps):
        height = _dfs_height(adj, comp, root, depth)
        for v in bit_indices(comp):
            labels[v] = height - depth[v] + 1
    return Ranking(tuple(labels), max(labels))


# ---------------------------------------------------------------------------
# Labeling-space search: the independent oracle machinery.
# ---------------------------------------------------------------------------

def search_feasible_labeling(
    g: Graph,
    k: int,
    fixed: dict[int, int] | None = None,
    min_free_label: int = 1,
) -> tuple[int, ...] | None:
    """Lexicographically first feasible labeling with labels in {1..k}, or None.

    `fixed` pins chosen vertices to chosen labels; every other vertex ranges
    over {min_free_label..k}. Vertices are assigned in ascending order
    (pinned ones first), each to an allowed label. Let i be the next vertex,
    top the highest label in use, C_L the component of i among i and the
    vertices labeled <= L, and n_L the number of vertices labeled L in C_L.
    Label c is allowed exactly when c > top or n_c = 0, and n_L <= 1 for
    every c < L <= top: the labeled vertices contain no violating path, so a
    new one runs through i and joins two vertices labeled L >= c, one of
    them i when L = c. Extending a labeling only adds vertices to the
    low-label subgraphs, so a partial labeling with a violation is abandoned.
    """
    n = g.n
    adj = g.adj
    pins = dict(fixed or {})
    for v, lab in pins.items():
        g._check_vertex(v)
        if not 1 <= lab <= k:
            raise ValueError(f"pinned label {lab} of vertex {v} outside 1..{k}")
    # (vertex, lowest and highest label it may take), in the order assigned
    order = [(v, pins[v], pins[v]) for v in sorted(pins)]
    order += [(v, min_free_label, k) for v in range(n) if v not in pins]
    labels = [0] * n
    lab_masks = [0] * (k + 1)

    def assign(pos: int, top: int) -> tuple[int, ...] | None:
        if pos == n:
            return tuple(labels)
        i, lo, hi = order[pos]
        # C_L grows with L, so one growth over the levels finds every n_L,
        # and a vertex's row is read once.
        comp = bit = 1 << i
        reach = adj[i]  # the neighbours of comp
        acc = 0
        free = []
        for lab in range(1, top + 1):
            here = lab_masks[lab]
            acc |= here
            frontier = reach & acc & ~comp
            while frontier:
                comp |= frontier
                while frontier:
                    low = frontier & -frontier
                    reach |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & acc & ~comp
            met = comp & here
            if met & (met - 1):  # n_lab >= 2: no c <= lab is allowed
                free = []
            elif not met and lo <= lab <= hi:
                free.append(lab)
        free.extend(range(max(lo, top + 1), hi + 1))
        for c in free:
            labels[i] = c
            lab_masks[c] |= bit
            found = assign(pos + 1, c if c > top else top)
            if found is not None:
                return found
            lab_masks[c] ^= bit
        return None

    return assign(0, 0)


def brute_force_td(g: Graph) -> int:
    """Smallest k admitting a feasible k-labeling, by search over labelings.

    Independent of the subset solver; limited to 8 vertices.
    """
    if g.n > BRUTE_FORCE_MAX_VERTICES:
        raise ValueError(
            f"brute_force_td supports at most {BRUTE_FORCE_MAX_VERTICES} vertices"
        )
    for k in range(1, g.n + 1):
        if search_feasible_labeling(g, k) is not None:
            return k
    raise AssertionError("an injective labeling is always feasible")
