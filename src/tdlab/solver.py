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
read. A mask of at most 2 vertices or a clique is answered by its size and
never stored.

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

The brute-force oracle searches the space of labelings instead of the space
of elimination orders, which keeps the two routes to a tree-depth value
independent of each other.

Determinism: branch order is decreasing degree with lowest index breaking
ties, and the witness assigns the removed vertex the highest rank of its
subproblem, so identical inputs always produce identical certificates.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from .graphs import (
    Graph,
    MinorStep,
    _drop_bit,
    apply_minor_step,
    bit_indices,
    component_masks,
    component_of,
    star_clique,
)
from .ranking import Ranking

# Largest graph the labeling-space search is run on: brute_force_td here and
# critical.one_unique_direct.
BRUTE_FORCE_MAX_VERTICES = 8


@dataclass(frozen=True)
class SolverConfig:
    """Resource limits of one solver call.

    Each budget limits the new work of one `treedepth` or `treedepth_le`
    call: nodes expanded, wall time, and the number of entries the graph's
    two stores (exact values and lower bounds, see `_Solved`) may hold
    together. The capacity is checked before every write that adds an
    entry, values copied from a parent graph included. Values already
    solved for the same graph in this process cost nothing, so a call whose
    answer is cached never runs out. Subproblems on at most 2 vertices and
    cliques are answered in closed form: they are neither nodes nor store
    entries, so they spend no budget.
    """

    node_budget: int | None = None
    time_budget: float | None = None
    memo_capacity: int | None = None


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class SolverStats:
    nodes: int
    memo_entries: int
    elapsed: float


@dataclass(frozen=True)
class Bounds:
    """Certified enclosure: lower <= td(G) <= upper."""

    lower: int
    upper: int


@dataclass(frozen=True)
class TdCertificate:
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

    This is the solver's one branch order: the search, the witness rebuild
    and the greedy clique bound all use it. Degrees and indices are below
    64, so one packed integer key per vertex sorts the same way as the pair.
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


def _is_clique(adj: tuple[int, ...], mask: int) -> bool:
    m = mask
    while m:
        low = m & -m
        if adj[low.bit_length() - 1] & mask != mask ^ low:
            return False
        m ^= low
    return True


class _Search:
    """One call's bounded branch-and-bound over connected vertex subsets of one graph.

    The search reads and writes the graph's two shared stores (see
    `_Solved`): `memo`, the exact values, and `lower`, proven lower bounds of
    subproblems that were only asked whether they beat a bound. Every entry
    is valid whatever the caller's incumbent, so a call stopped by its budget
    leaves only exact values and valid bounds. A graph built by `derive`
    also reads both stores of its parent (`_Solved.parent`), through the
    lift of `_inherit`. Where the two induced subgraphs are identical, an
    exact value read there is copied into the memo and a lower bound raises
    the subproblem's own. Where they are one step apart, the parent's value,
    or else its lower bound, minus 1 raises it. Both reads happen in one
    place, at the top of `solve_conn`, before the subproblem counts as a
    node, and only an exact value is written.
    """

    __slots__ = (
        "adj", "n", "config", "memo", "lower", "parent", "nodes", "_start", "_deadline",
    )

    def __init__(self, g: Graph, config: SolverConfig, solved: _Solved):
        self.adj = g.adj
        self.n = g.n
        self.config = config
        self.memo = solved.memo
        self.lower = solved.lower
        self.parent = solved.parent
        self.nodes = 0
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

    def _store(self, store: dict[int, int], mask: int, value: int) -> None:
        # The memo capacity bounds the entries of both stores together, so it
        # is checked before every write that adds one.
        cap = self.config.memo_capacity
        if cap is not None and mask not in store and len(self.memo) + len(self.lower) >= cap:
            raise _BudgetHit(f"memo capacity of {cap} exhausted")
        store[mask] = value

    def stats(self) -> SolverStats:
        return SolverStats(
            self.nodes, len(self.memo) + len(self.lower), time.monotonic() - self._start
        )

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

        Otherwise the result is a proven lower bound L with ub <= L <= td,
        which is kept in `lower`. A mask of at most 2 vertices or a clique is
        answered by its size, before it counts as a node and without a store
        entry. Every other mask has td >= 2, its first lower bound. Each
        branch asks the components of its rest, through `solve_set`, only
        whether they beat the current cap (the incumbent, or `ub` if lower),
        so most subproblems are never solved exactly. Whatever a branch
        learns bounds td(mask - v) from below, and so td(mask) too: once
        such a bound reaches the cap, the remaining branches are skipped.
        """
        memo = self.memo
        val = memo.get(mask)
        if val is not None:
            return val
        adj = self.adj
        cnt = mask.bit_count()
        if cnt <= 2 or _is_clique(adj, mask):
            return cnt
        known = self.lower.get(mask, 2)
        if self.parent is not None:
            up, lift = self.parent
            p = lift(mask)
            if p >= 0:
                val = up.memo.get(p)
                if val is not None:
                    self._store(memo, mask, val)
                    return val
                known = max(known, up.lower.get(p, 0))
            else:
                # mask is one step from the parent's ~p: td drops by at most 1
                p = ~p
                known = max(known, (up.memo.get(p) or up.lower.get(p, 0)) - 1)
        if known >= ub:
            return known
        self._tick()
        root = (mask & -mask).bit_length() - 1
        height = _dfs_height(adj, mask, root)
        best = height
        cap = min(height, ub)
        order = _branch_order(adj, mask)
        lb = max(_greedy_clique(adj, order), _ceil_log2(height + 1), known)
        # floor: the least lower bound proven for a branch that did not beat
        # cap, or lb if the loop was cut before every branch had run.
        floor = _NO_BOUND
        if lb < cap:
            for v in order:
                rest = mask ^ (1 << v)
                # Only connected masks are memoized, so a hit is the value of
                # the whole rest and needs no split.
                worst = memo.get(rest)
                if worst is None:
                    worst = self.solve_set(_split(adj, rest, adj[v] & rest), cap - 1)
                if 1 + worst < cap:
                    best = cap = 1 + worst
                elif 1 + worst < floor:
                    floor = 1 + worst
                # Tree-depth is monotone on subgraphs: td(mask) >= td(rest) >=
                # worst. Once lb reaches cap no later branch can beat it.
                if worst > lb:
                    lb = worst
                if lb >= cap:
                    floor = lb
                    break
        else:
            floor = lb
        # Below ub the cap was always the incumbent, so no branch beats best.
        # Otherwise best is the DFS height, exact only if floor reaches it.
        if best < ub or floor >= best:
            self._store(memo, mask, best)
            return best
        self._store(self.lower, mask, floor)
        return floor

    # -- witness ---------------------------------------------------------------

    def _witness_conn(self, mask: int, out: dict[int, int]) -> None:
        # Second pass: pick the first branch vertex (in branch order) whose
        # components all lie below the optimum, which is the first one that
        # attains it, give it the top rank of this subproblem, and recurse
        # into the remaining components.
        adj = self.adj
        target = self.solve_conn(mask)
        for v in _branch_order(adj, mask):
            rest = mask ^ (1 << v)
            comps = _split(adj, rest, adj[v] & rest)
            if all(self.solve_conn(c, target) < target for c in comps):
                out[v] = target
                for c in comps:
                    self._witness_conn(c, out)
                return
        raise AssertionError("no removal attains the memoized optimum")

    def certificate(self) -> TdCertificate:
        comps = component_masks(self.adj, (1 << self.n) - 1)
        value = self.solve_set(comps)
        out: dict[int, int] = {}
        for c in comps:
            self._witness_conn(c, out)
        labels = tuple(out[v] for v in range(self.n))
        return TdCertificate(value, Ranking(labels, value), self.stats())


@dataclass(slots=True)
class _Solved:
    """What is known of one graph, and the parent it was derived from (see `derive`).

    `memo` maps a connected mask to its exact tree-depth. `lower` maps a
    connected mask to a proven lower bound of its tree-depth; an entry is
    only ever raised, and may stay after the mask's exact value is found.
    `cert` is the finished certificate, built only by `treedepth`.
    `parent` is set by `derive`: the parent graph's own entry, and the lift
    of `_inherit`, which maps each mask of this graph to the parent mask of
    the identical subgraph, or of the subgraph one step away. Holding the
    entry keeps the parent's stores readable after the parent has left the
    search cache.
    """

    memo: dict[int, int] = field(default_factory=dict)
    lower: dict[int, int] = field(default_factory=dict)
    cert: TdCertificate | None = None
    parent: tuple[_Solved, Callable[[int], int]] | None = None


# Every call, budgeted or not, reads and writes its graph's entry; budgets and
# node counts stay in the call's own _Search. Concurrent callers are safe: the
# lock guards the cache, every memo writer computes the identical value, and
# every lower bound written is valid, so a raise lost to a concurrent write
# only weakens pruning.
_SEARCH_CACHE_SIZE = 4096
_search_cache: OrderedDict[Graph, _Solved] = OrderedDict()
_search_cache_lock = threading.Lock()


def _solved_for(g: Graph) -> _Solved:
    with _search_cache_lock:
        hit = _search_cache.get(g)
        if hit is not None:
            _search_cache.move_to_end(g)
            return hit
        solved = _search_cache[g] = _Solved()
        if len(_search_cache) > _SEARCH_CACHE_SIZE:
            _search_cache.popitem(last=False)
    return solved


def derive(g: Graph, step: MinorStep | int) -> Graph:
    """Apply `step` to g and let the solves of the result read g's stores.

    `step` is a `MinorStep`, or a vertex v for `star_clique(g, v)`. The step
    drops at most one vertex: `step.dropped` for a minor step, and v for the
    transform. The lift of `_inherit` is built here, once, and stored with
    g's cache entry in the result's `parent`. Later `treedepth` and
    `treedepth_le` calls on the returned graph read each subproblem that is
    identical in g from g's memo and lower bounds instead of searching it.
    A subproblem one step from one of g's gets g's value there, or else its
    lower bound, minus 1 as a lower bound (see the module docstring). When
    the step changes an edge of a connected h, h's full mask is such a
    subproblem, so td(g) - 1 bounds h from its first node on, and no store
    entry is written here.
    Every value read is exact or a valid bound, so the value and the witness
    are those of a search from empty stores.
    """
    if isinstance(step, MinorStep):
        h = apply_minor_step(g, step)
        drop = step.dropped
    else:
        h = star_clique(g, step)
        drop = step
    _solved_for(h).parent = (_solved_for(g), _inherit(g, h, drop))
    return h


def _inherit(g: Graph, h: Graph, drop: int | None) -> Callable[[int], int]:
    """The lift of a mask of h to the mask of g that its search reads.

    h is g with at most one vertex `drop` removed (higher vertices shift
    down) and some edges changed. A mask S of h maps to the mask P of g that
    has a 0 bit put back at `drop`. g[P] is h[S] exactly when no changed
    edge has both ends in S; the lift returns P >= 0 then. Otherwise h[S] is
    the step applied to g[P'], where P' is P with the bit of `drop` set, if a
    vertex was dropped, so td(h[S]) >= td(g[P']) - 1; the lift returns the
    negative ~P'.
    """
    dropped = 0 if drop is None else 1 << drop
    if drop is None:
        drop = g.n  # past every vertex: no bit is put back
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
    """Exact tree-depth of g with a verified witness ranking.

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
    k + 1, and the search stops at the first one that does not.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    quick = bounds(g)  # 1 <= lower and upper <= n decide k = 0 and k >= n
    if quick.upper <= k:
        return True
    if quick.lower > k:
        return False
    search = _Search(g, config or DEFAULT_CONFIG, _solved_for(g))
    try:
        return search.solve_set(component_masks(g.adj, g.full_mask()), k + 1) <= k
    except _BudgetHit as hit:
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
    (pinned ones first) and a partial labeling is abandoned exactly when its
    already-labeled vertices contain a violating path: extending the labeling
    only adds vertices to the low-label subgraphs, so such a violation can
    never be repaired.
    """
    n = g.n
    adj = g.adj
    pins = dict(fixed or {})
    for v, lab in pins.items():
        g._check_vertex(v)
        if not 1 <= lab <= k:
            raise ValueError(f"pinned label {lab} of vertex {v} outside 1..{k}")
    order = sorted(pins) + [v for v in range(n) if v not in pins]
    labels = [0] * n
    lab_masks = [0] * (k + 1)

    def violates(i: int, c: int) -> bool:
        # Adding vertex i with label c can only create a violation inside the
        # component of i of some <=L subgraph, L >= c.
        acc = 0
        for lab in range(1, c):
            acc |= lab_masks[lab]
        bit_i = 1 << i
        for lab in range(c, k + 1):
            acc |= lab_masks[lab]
            comp = component_of(adj, acc | bit_i, i)
            same = lab_masks[lab] | (bit_i if lab == c else 0)
            if (comp & same).bit_count() >= 2:
                return True
        return False

    def assign(pos: int) -> tuple[int, ...] | None:
        if pos == n:
            return tuple(labels)
        u = order[pos]
        choices = (pins[u],) if u in pins else range(min_free_label, k + 1)
        for c in choices:
            if violates(u, c):
                continue
            labels[u] = c
            lab_masks[c] |= 1 << u
            found = assign(pos + 1)
            if found is not None:
                return found
            lab_masks[c] &= ~(1 << u)
            labels[u] = 0
        return None

    return assign(0)


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
