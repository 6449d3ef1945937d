"""Feasible-labeling (ranking) verification and explicit witness rankings.

A labeling of a graph with values from {1..k} is feasible when every path
joining two vertices that share a label passes through a vertex with a
strictly larger label. Verification here uses an equivalent component
criterion which is near-linear per label:

    the labeling is feasible  <=>  for every label L, each connected
    component of the subgraph induced on {x : label(x) <= L} contains at
    most one vertex with label L.

Equivalence sketch. If some path joins two L-labeled vertices and no internal
vertex exceeds L, then every vertex of that path has label <= L, so its two
endpoints lie in one component of the <=L subgraph, breaking the criterion.
Conversely, if one component of the <=L subgraph holds two L-labeled
vertices, any path between them inside that component has all labels <= L,
so no internal vertex exceeds L and the labeling is infeasible. The test
suite additionally checks the two verifiers against each other on exhaustive
and randomized labelings (see verify_ranking_by_paths).
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    Graph,
    HnLayout,
    MinorStep,
    apply_minor_step,
    bit_indices,
    component_masks,
    hn,
)


MAX_KAK2 = 32


class Ranking:
    """Per-vertex labels drawn from {1..colors}.

    An immutable value: equal labels and colors compare and hash equal. It
    is a class, not a tuple, because its length is its vertex count.
    """

    __slots__ = ("labels", "colors")

    def __init__(self, labels, colors: int):
        labels = tuple(labels)
        if colors < 1:
            raise ValueError(f"colors must be positive, got {colors}")
        if labels and (min(labels) < 1 or max(labels) > colors):
            # the first label out of range names the error
            for v, lab in enumerate(labels):
                if not 1 <= lab <= colors:
                    raise ValueError(f"label {lab} of vertex {v} outside 1..{colors}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "colors", colors)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def max_label(self) -> int:
        return max(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        if other.__class__ is not Ranking:
            return NotImplemented
        return self.labels == other.labels and self.colors == other.colors

    def __hash__(self) -> int:
        return hash((self.labels, self.colors))

    def __repr__(self) -> str:
        return f"Ranking(labels={self.labels!r}, colors={self.colors!r})"


class Violation(NamedTuple):
    """Witness that a labeling is infeasible.

    `path` joins the two vertices of `pair`, both labeled `label`, and no
    internal vertex of the path has a larger label.
    """

    label: int
    pair: tuple[int, int]
    path: tuple[int, ...]


def _check_ranking_shape(g: Graph, r: Ranking) -> None:
    if len(r.labels) != g.n:
        raise ValueError(
            f"ranking has {len(r.labels)} labels for a graph on {g.n} vertices"
        )


def _shortest_path_to_label(
    adj: tuple[int, ...], sub: int, start: int, targets: int
) -> tuple[int, ...]:
    """BFS inside `sub` from `start` to the nearest vertex of `targets`.

    Layers are scanned in ascending vertex order, so the returned path is
    deterministic.
    """
    parent = {start: -1}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in bit_indices(adj[u] & sub):
                if w in parent:
                    continue
                parent[w] = u
                if targets >> w & 1:
                    rev = [w]
                    while rev[-1] != start:
                        rev.append(parent[rev[-1]])
                    return tuple(reversed(rev))
                nxt.append(w)
        frontier = nxt
    raise AssertionError("target vertex not reachable inside its own component")


def verify_ranking(g: Graph, r: Ranking) -> Violation | None:
    """Return None when the ranking is feasible, else a concrete Violation.

    Component criterion: the violation is at the smallest offending label.
    Its pair starts at the lowest offending vertex x of the first offending
    component (components ordered by lowest vertex), and its path is a
    shortest path from x to another vertex of that label inside the
    <=label subgraph. Deterministic.
    """
    _check_ranking_shape(g, r)
    adj = g.adj
    by_label: dict[int, int] = {}
    for v, lab in enumerate(r.labels):
        by_label[lab] = by_label.get(lab, 0) | (1 << v)
    cum = 0
    for lab in sorted(by_label):
        lab_mask = by_label[lab]
        cum |= lab_mask
        if lab_mask & (lab_mask - 1) == 0:
            continue  # one vertex holds this label: no component can hold two
        for comp in component_masks(adj, cum):
            same = comp & lab_mask
            if same.bit_count() < 2:
                continue
            x = (same & -same).bit_length() - 1
            path = _shortest_path_to_label(adj, comp, x, same & ~(1 << x))
            return Violation(label=lab, pair=(x, path[-1]), path=path)
    return None


def verify_ranking_by_paths(g: Graph, r: Ranking) -> Violation | None:
    """Reference verifier straight from the path definition.

    Enumerates every simple path between each same-labeled pair and demands
    an internal vertex with a larger label. Exponential; used to cross-check
    verify_ranking on small graphs.
    """
    _check_ranking_shape(g, r)
    labels = r.labels
    n = g.n
    for x in range(n):
        for y in range(x + 1, n):
            if labels[x] != labels[y]:
                continue
            bad = _find_low_path(g.adj, labels, x, y, labels[x])
            if bad is not None:
                return Violation(label=labels[x], pair=(x, y), path=bad)
    return None


def _find_low_path(
    adj: tuple[int, ...], labels: tuple[int, ...], x: int, y: int, lab: int
) -> tuple[int, ...] | None:
    """Depth-first search for a simple x..y path whose internal labels never exceed lab."""
    stack: list[int] = [x]

    def dfs(u: int, visited: int) -> tuple[int, ...] | None:
        if u == y:
            return tuple(stack)
        for w in bit_indices(adj[u] & ~visited):
            if w != y and labels[w] > lab:
                continue
            stack.append(w)
            found = dfs(w, visited | (1 << w))
            if found is not None:
                return found
            stack.pop()
        return None

    return dfs(x, 1 << x)


# ---------------------------------------------------------------------------
# Explicit witness rankings for the generator families. Injective label
# blocks are always assigned in ascending vertex order so the outputs are
# byte-stable.
# ---------------------------------------------------------------------------

def witness_hn(n: int) -> Ranking:
    """Optimal (n+1)-ranking of hn(n): hub n+1, clique injectively 2..n, middles 1."""
    if n < 3:
        raise ValueError(f"witness_hn needs n >= 3, got {n}")
    g, layout = hn(n)
    labels = [0] * g.n
    labels[layout.hub] = n + 1
    for i, b in enumerate(layout.clique):
        labels[b] = 2 + i
    for a in layout.middles:
        labels[a] = 1
    return Ranking(tuple(labels), n + 1)


def witness_kak2(a: int) -> Ranking:
    """Optimal ceil(3a/2)-ranking of cartesian_k2(a) for a >= 3.

    A transversal T takes the first floor(a/2) vertices of the low clique and
    the last ceil(a/2) of the high clique (so T contains no rung pair) and is
    labeled injectively with {ceil(a/2)+1 .. ceil(3a/2)}; the rest of each
    clique is labeled injectively from 1 upward. Sizes a in {1, 2} are not
    covered by this construction and are left to the solver.
    """
    if a < 3:
        raise ValueError(f"witness_kak2 needs a >= 3, got {a}")
    if a > MAX_KAK2:
        raise ValueError(f"witness_kak2 supports a <= {MAX_KAK2}, got {a}")
    half_lo = a // 2  # floor
    half_hi = a - half_lo  # ceil
    labels = [0] * (2 * a)
    t_vertices = list(range(half_lo)) + list(range(2 * a - half_hi, 2 * a))
    for i, v in enumerate(t_vertices):
        labels[v] = half_hi + 1 + i
    for i, v in enumerate(range(half_lo, a)):
        labels[v] = 1 + i
    for i, v in enumerate(range(a, 2 * a - half_hi)):
        labels[v] = 1 + i
    return Ranking(tuple(labels), a + half_hi)


def hn_minor_witness(n: int, step: MinorStep) -> tuple[Graph, Ranking]:
    """The minor of hn(n) under `step` together with its explicit coloring.

    Every one-step minor of hn(n) admits a ranking with at most n colors; the
    coloring used depends on which kind of edge the step touches. Deleting a
    vertex x reuses the coloring of the deletion of the edge from x to its
    lowest neighbour, restricted to the surviving vertices (a feasible
    labeling stays feasible on any induced subgraph). The label of
    `step.dropped` is removed, so the rest follow the re-indexing convention
    of the minor operations.
    """
    if n < 4:
        raise ValueError(f"hn_minor_witness needs n >= 4, got {n}")
    g, layout = hn(n)
    minor = apply_minor_step(g, step)  # validates the step against hn(n)

    if step.kind == "contract_edge":
        labels, merged_label = _hn_contraction_labels(n, layout, step.u, step.v)
        labels[min(step.u, step.v)] = merged_label
    elif step.kind == "delete_edge":
        labels = _hn_edge_deletion_labels(n, layout, step.u, step.v)
    else:  # delete_vertex; hn(n) has no isolated vertices, so x has a neighbour
        x = step.u
        lowest = (g.adj[x] & -g.adj[x]).bit_length() - 1
        labels = _hn_edge_deletion_labels(n, layout, x, lowest)

    if step.dropped is not None:
        del labels[step.dropped]
    return minor, Ranking(tuple(labels), n)


def _inject(labels: list[int], vertices, start: int) -> None:
    for i, v in enumerate(sorted(vertices)):
        labels[v] = start + i


def _hn_edge_deletion_labels(n: int, layout: HnLayout, u: int, v: int) -> list[int]:
    labels = [0] * (2 * n - 1)
    roles = {layout.role(u), layout.role(v)}
    if roles == {"clique"}:
        # Both clique endpoints drop to 1; middles 2; hub 3; rest 4..n.
        labels[u] = labels[v] = 1
        for a in layout.middles:
            labels[a] = 2
        labels[layout.hub] = 3
        _inject(labels, (b for b in layout.clique if b not in (u, v)), 4)
        return labels
    # Hub-middle or clique-middle edge: the middle's clique partner joins the
    # hub at label 2, every middle gets 1, rest of the clique 3..n.
    mid = u if layout.role(u) == "middle" else v
    w = layout.partner(mid)
    labels[layout.hub] = 2
    labels[w] = 2
    for a in layout.middles:
        labels[a] = 1
    _inject(labels, (b for b in layout.clique if b != w), 3)
    return labels


def _hn_contraction_labels(
    n: int, layout: HnLayout, u: int, v: int
) -> tuple[list[int], int]:
    """Labels on the original vertex ids plus the label of the merged vertex."""
    labels = [0] * (2 * n - 1)
    roles = {layout.role(u), layout.role(v)}
    if roles == {"clique"}:
        # Merged clique pair at 2; middles 1; hub 3; remaining clique 4..n.
        for a in layout.middles:
            labels[a] = 1
        labels[layout.hub] = 3
        _inject(labels, (b for b in layout.clique if b not in (u, v)), 4)
        return labels, 2
    mid = u if layout.role(u) == "middle" else v
    other = v if mid == u else u
    for a in layout.middles:
        labels[a] = 1
    if other == layout.hub:
        # Hub absorbs a middle: merged vertex keeps the hub role at 2 and the
        # middle's clique partner becomes the extra label-1 vertex.
        labels[layout.partner(mid)] = 1
        _inject(labels, (b for b in layout.clique if b != layout.partner(mid)), 3)
        return labels, 2
    # Clique vertex absorbs its middle: the merged vertex joins the label-1
    # class and the hub takes 2.
    labels[layout.hub] = 2
    _inject(labels, (b for b in layout.clique if b != other), 3)
    return labels, 1

