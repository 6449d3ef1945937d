"""Criticality certification, 1-uniqueness testing, and the hn family report.

A graph is critical when every proper minor has strictly smaller tree-depth.
Only edge deletions, edge contractions, and deletions of isolated vertices
are enumerated: deleting a non-isolated vertex factors through deleting an
incident edge first, so its tree-depth is dominated by that of the edge
deletion and never needs its own solver call. The report prints each
minor's tree-depth. Two steps that an automorphism of G maps onto each
other give isomorphic minors, and two steps may give the identical labeled
minor, so the steps fall into classes of equal tree-depth and only the
first minor of each class is solved exactly (`is_critical`). It is built by
`derive`, so its search reads G's stores, and a minor that changes an edge
is bounded from below by G's stored value minus 1.

A vertex v is 1-unique when some optimal ranking gives v the only label 1.
Two independent tests are provided. The transform method compares td(G)
against the graph obtained by deleting v and completing its neighbourhood
into a clique; v is 1-unique exactly when that transform lowers the
tree-depth. The report prints only the verdict, so the transform method
asks the decision form whether td(transform) <= td(G) - 1, and builds the
transform's certificate only for a 1-unique vertex, to lift its ranking
into the witness. The direct method searches for an optimal ranking with v
pinned to label 1 and everything else above 1. Each returns an optimal
ranking with v alone at label 1, or None. The report runs both whenever the
direct method is in range and insists they agree. Vertices in one orbit of
Aut(G) share their verdict, so the direct method runs once per orbit; the
transform method still runs on every vertex, because each 1-unique vertex
gets its own witness (`uniqueness_report`).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graphs import Graph, MinorStep, apply_minor_step, hn, one_step_minor_steps
from .ranking import Ranking, hn_minor_witness, verify_ranking, witness_hn
from .solver import (
    BRUTE_FORCE_MAX_VERTICES,
    BudgetExceededError,
    SolverConfig,
    derive,
    generators,
    search_feasible_labeling,
    treedepth,
    treedepth_le,
)


class StepResult(NamedTuple):
    step: MinorStep
    td: int


class CriticalityReport(NamedTuple):
    """Per-minor tree-depths of all one-step minors.

    is_critical is False as soon as one minor fails to drop, True when all
    enumerated minors drop and none was inconclusive, and None when the only
    obstacle was a solver budget.
    """

    base_td: int
    steps: tuple[StepResult, ...]
    failing_steps: tuple[StepResult, ...]
    inconclusive_steps: tuple[MinorStep, ...]
    is_critical: bool | None


def _class_firsts(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The lowest member of each item's class, for items 0..n-1 joined by `pairs`."""
    first = list(range(n))

    def find(i: int) -> int:
        while first[i] != i:
            first[i] = first[first[i]]
            i = first[i]
        return i

    for i, j in pairs:
        a, b = find(i), find(j)
        if a != b:
            first[max(a, b)] = min(a, b)
    return [find(i) for i in range(n)]


def _step_image(step: MinorStep, perm: tuple[int, ...]) -> MinorStep:
    """The step at the images of step's vertices under the automorphism `perm`."""
    if step.kind == "delete_vertex":
        return MinorStep.del_vertex(perm[step.u])
    u, v = perm[step.u], perm[step.v]
    return MinorStep(step.kind, min(u, v), max(u, v))


def _step_classes(g: Graph, steps: list[MinorStep]) -> list[int]:
    """For each step, the first step of its class: steps whose minors are
    isomorphic by an automorphism of g, or identical as labeled graphs."""
    index = {step: i for i, step in enumerate(steps)}
    pairs = [
        (i, index[_step_image(step, perm)])
        for perm in generators(g)
        for i, step in enumerate(steps)
    ]
    seen: dict[tuple[int, ...], int] = {}
    pairs.extend(
        (i, seen.setdefault(apply_minor_step(g, step).adj, i)) for i, step in enumerate(steps)
    )
    return _class_firsts(len(steps), pairs)


def is_critical(g: Graph, config: SolverConfig | None = None) -> CriticalityReport:
    """Certify whether every one-step minor has smaller tree-depth.

    The steps are split into classes of equal tree-depth, and only the first
    step of each class is solved, through `derive`; every step of the class
    gets its value. Two steps share a class when an automorphism p of g maps
    one onto the other (the step at u, v onto the same kind of step at
    p[u], p[v], whose minor is isomorphic), or when both give the identical
    labeled minor (contract(0, m) and contract(m, c) in hn(n)); the classes
    are the union of both relations. The generators are the ones the solver
    keeps in g's entry (`solver.generators`), which `derive` hands on to
    every minor; on graphs below 7 vertices, where the automorphism search
    costs more than it saves, there are none, and only identical minors are
    grouped. A budget applies to each solve on its own: when the solve of a
    class's first step runs out, every step of the class is inconclusive.
    """
    if g.n < 2:
        raise ValueError("criticality needs at least 2 vertices")
    base = treedepth(g, config).value
    steps = one_step_minor_steps(g)
    tds: list[int | None] = []
    for i, first in enumerate(_step_classes(g, steps)):
        if first < i:
            tds.append(tds[first])
            continue
        try:
            tds.append(treedepth(derive(g, steps[i]), config).value)
        except BudgetExceededError:
            tds.append(None)
    results = tuple(StepResult(s, td) for s, td in zip(steps, tds) if td is not None)
    inconclusive = tuple(s for s, td in zip(steps, tds) if td is None)
    failing = tuple(r for r in results if r.td >= base)
    if failing:
        verdict: bool | None = False
    elif inconclusive:
        verdict = None
    else:
        verdict = True
    return CriticalityReport(
        base_td=base,
        steps=results,
        failing_steps=failing,
        inconclusive_steps=inconclusive,
        is_critical=verdict,
    )


def _check_two_vertices(g: Graph) -> None:
    # Both 1-uniqueness tests and the report share this domain.
    if g.n < 2:
        raise ValueError("1-uniqueness tests need at least 2 vertices")


def one_unique_starclique(
    g: Graph, v: int, config: SolverConfig | None = None
) -> Ranking | None:
    """Transform test: delete v, complete its neighbourhood, compare tree-depths.

    The verdict comes from the decision form `treedepth_le(transform,
    td(g) - 1)`. When the transform is not shallower than g, the result is
    None and no certificate of the transform is built. Otherwise v is
    1-unique, and the transform's optimal ranking, with every label shifted
    up by one and v placed alone at label 1, is an optimal ranking of g: a
    path of g between equal labels either avoids v and is a path of the
    transform, or passes through v and can be shortcut across the clique on
    v's former neighbourhood; either way the higher internal label survives
    the shift. That lifted ranking is returned.
    """
    _check_two_vertices(g)
    g._check_vertex(v)
    base = treedepth(g, config).value
    h = derive(g, v)
    if not treedepth_le(h, base - 1, config):
        return None
    cert = treedepth(h, config)
    labels = [1] * g.n  # v keeps 1; every other vertex is overwritten below
    for i, lab in enumerate(cert.witness.labels):
        labels[i if i < v else i + 1] = lab + 1
    return Ranking(tuple(labels), cert.witness.colors + 1)


def one_unique_direct(
    g: Graph, v: int, config: SolverConfig | None = None
) -> Ranking | None:
    """Exhaustive test: an optimal ranking with v pinned as the only label 1.

    Searches all labelings with td(G) colors where v has label 1 and every
    other vertex a label in {2..td(G)}; returns the first valid one or None.
    """
    _check_two_vertices(g)
    if g.n > BRUTE_FORCE_MAX_VERTICES:
        raise ValueError(
            f"one_unique_direct supports at most {BRUTE_FORCE_MAX_VERTICES} vertices"
        )
    g._check_vertex(v)
    k = treedepth(g, config).value
    labels = search_feasible_labeling(g, k, fixed={v: 1}, min_free_label=2)
    return None if labels is None else Ranking(labels, k)


class VertexUniqueness(NamedTuple):
    vertex: int
    one_unique: bool | None
    by_direct: bool | None  # None when skipped (n > 8) or inconclusive
    witness: Ranking | None

    @property
    def by_starclique(self) -> bool | None:
        # the report's verdict is the transform method's
        return self.one_unique


class UniquenessReport(NamedTuple):
    per_vertex: tuple[VertexUniqueness, ...]
    non_one_unique: tuple[int, ...]
    graph_one_unique: bool | None
    direct_method_ran: bool


def uniqueness_report(
    g: Graph, config: SolverConfig | None = None
) -> UniquenessReport:
    """Per-vertex 1-uniqueness verdicts with witnesses.

    The transform method decides every vertex; the direct search also runs
    when the graph has at most 8 vertices, and a disagreement between the two
    is an internal error. The witness of a 1-unique vertex is the transform
    method's lifted optimal ranking.

    Vertices in one orbit of the generators the solver keeps in g's entry
    (`solver.generators`) are 1-unique together, so the direct search runs
    once per orbit, on its lowest vertex, and each vertex's transform
    verdict is compared with its orbit's direct verdict. The transforms are
    built by `derive`, which hands the same generators on. On graphs below
    7 vertices, where the automorphism search costs more than it saves,
    there are none, and the direct search runs on every vertex. A budget
    applies to each solve on its own, and a vertex whose transform runs out
    is inconclusive. The direct search solves nothing but g, which the
    report has solved first, so it does not run out.
    """
    _check_two_vertices(g)
    treedepth(g, config)  # a budget stop on g itself ends the whole report
    direct_in_range = g.n <= BRUTE_FORCE_MAX_VERTICES
    firsts = _class_firsts(g.n, ((v, perm[v]) for perm in generators(g) for v in range(g.n)))
    direct: dict[int, bool] = {}  # by the first vertex of each orbit

    def check(v: int) -> VertexUniqueness:
        try:
            witness = one_unique_starclique(g, v, config)
            by_direct = None
            if direct_in_range:
                first = firsts[v]
                if first not in direct:
                    direct[first] = one_unique_direct(g, first, config) is not None
                by_direct = direct[first]
        except BudgetExceededError:
            return VertexUniqueness(v, None, None, None)
        unique = witness is not None
        if by_direct is not None and by_direct != unique:
            raise RuntimeError(
                f"1-uniqueness methods disagree at vertex {v}: "
                f"transform={unique} direct={by_direct}"
            )
        return VertexUniqueness(v, unique, by_direct, witness)

    per_vertex = tuple(check(v) for v in range(g.n))
    non_unique = tuple(u.vertex for u in per_vertex if u.one_unique is False)
    if any(u.one_unique is None for u in per_vertex):
        overall: bool | None = None
    else:
        overall = not non_unique
    return UniquenessReport(
        per_vertex=per_vertex,
        non_one_unique=non_unique,
        graph_one_unique=overall,
        direct_method_ran=direct_in_range,
    )


# ---------------------------------------------------------------------------
# hn family reproduction
# ---------------------------------------------------------------------------

class FamilyRow(NamedTuple):
    """One fully-checked member of the hn family.

    Expected values: tree-depth n+1; critical; the hub is the only vertex
    that is not 1-unique; the hub transform has tree-depth ceil(3(n-1)/2);
    and every explicit witness coloring verifies without the solver.
    """

    n: int
    td: int | None
    critical: bool | None
    non_1_unique: tuple[int, ...] | None
    starclique_td: int | None
    witnesses_ok: bool
    expected_td: int
    expected_starclique_td: int
    ok: bool
    incomplete: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "td": self.td,
            "critical": self.critical,
            "non_1_unique": list(self.non_1_unique) if self.non_1_unique is not None else None,
            "starclique_td": self.starclique_td,
            "witnesses_ok": self.witnesses_ok,
            "ok": self.ok,
            "incomplete": self.incomplete,
        }


def family_witnesses_ok(n: int) -> bool:
    """Verify every explicit hn coloring with the verifier alone (no solver)."""
    g, layout = hn(n)
    top = witness_hn(n)
    if verify_ranking(g, top) is not None:
        return False
    if top.colors != n + 1 or top.max_label != n + 1:
        return False
    # hn(n) has no isolated vertex, so every vertex deletion is added here
    steps = one_step_minor_steps(g) + [MinorStep.del_vertex(v) for v in range(g.n)]
    for step in steps:
        minor, coloring = hn_minor_witness(n, step)
        if verify_ranking(minor, coloring) is not None:
            return False
        if coloring.max_label > n:
            return False
    return True


def _family_row(n: int, config: SolverConfig | None) -> FamilyRow:
    g, layout = hn(n)
    expected_td = n + 1
    expected_sc = -(-3 * (n - 1) // 2)
    td = critical = non_unique = sc_td = None
    incomplete = False
    try:
        td = treedepth(g, config).value
        report = is_critical(g, config)
        critical = report.is_critical
        uniq = uniqueness_report(g, config)
        non_unique = uniq.non_one_unique
        if critical is None or uniq.graph_one_unique is None:
            incomplete = True
        sc_td = treedepth(derive(g, layout.hub), config).value
    except BudgetExceededError:
        incomplete = True
    witnesses_ok = family_witnesses_ok(n)
    ok = (
        not incomplete
        and td == expected_td
        and critical is True
        and non_unique == (layout.hub,)
        and sc_td == expected_sc
        and witnesses_ok
    )
    return FamilyRow(
        n=n,
        td=td,
        critical=critical,
        non_1_unique=non_unique,
        starclique_td=sc_td,
        witnesses_ok=witnesses_ok,
        expected_td=expected_td,
        expected_starclique_td=expected_sc,
        ok=ok,
        incomplete=incomplete,
    )


def reproduce(n_max: int, config: SolverConfig | None = None) -> list[FamilyRow]:
    """Check every hn family member for n = 4..n_max, 4 <= n_max <= 8."""
    if not 4 <= n_max <= 8:
        raise ValueError(f"reproduce supports n_max in 4..8, got {n_max}")
    return [_family_row(n, config) for n in range(4, n_max + 1)]
