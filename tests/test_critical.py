"""Criticality reports, 1-uniqueness methods, and the family reproduction."""

from pathlib import Path

import pytest

from tdlab import critical, solver
from tdlab.critical import (
    family_witnesses_ok,
    is_critical,
    one_unique_direct,
    one_unique_starclique,
    reproduce,
    uniqueness_report,
)
from tdlab.formats import parse_graph6
from tdlab.graphs import (
    Graph,
    apply_minor_step,
    cartesian_k2,
    complete,
    cycle,
    hn,
    is_isomorphic,
    one_step_minor_steps,
    path,
    star_clique,
)
from tdlab.ranking import verify_ranking
from tdlab.selftest import uniqueness_cross_validation_suite
from tdlab.solver import BudgetExceededError, SolverConfig, derive, treedepth

GNP16 = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "gnp16.txt"


# -- is_critical ---------------------------------------------------------------

def test_hn_members_are_critical():
    for n in (4, 5):
        report = is_critical(hn(n)[0])
        assert report.is_critical is True
        assert report.base_td == n + 1
        assert not report.failing_steps and not report.inconclusive_steps
        assert all(r.td == n for r in report.steps)


def test_path3_is_not_critical():
    report = is_critical(path(3))
    assert report.is_critical is False
    assert report.base_td == 2
    # deleting either edge leaves an edge plus an isolated vertex, still depth 2
    assert {str(r.step) for r in report.failing_steps} >= {"-(0,1)", "-(1,2)"}


def test_cliques_are_critical():
    for m in range(2, 7):
        report = is_critical(complete(m))
        assert report.is_critical is True
        assert report.base_td == m


def test_is_critical_includes_isolated_vertex_deletions():
    g = Graph(3, [(0, 1)])
    report = is_critical(g)
    steps = {str(r.step) for r in report.steps}
    assert "-v2" in steps
    # deleting the isolated vertex leaves an edge with equal depth
    assert report.is_critical is False


def test_is_critical_rejects_single_vertex():
    with pytest.raises(ValueError):
        is_critical(complete(1))


def test_is_critical_budget_marks_inconclusive():
    # The base graph is solved first, and each minor reads the subproblems
    # it shares with it from the base graph's memo; a budget below what the
    # largest minor still has to search leaves some minors unsolved. Budgets
    # 4-6 each leave one class of four minors unsolved, 7 finishes every minor.
    g = hn(5)[0]
    treedepth(g)
    report = is_critical(g, SolverConfig(node_budget=6))
    assert report.is_critical is None
    assert report.inconclusive_steps
    assert not report.failing_steps


def test_is_critical_failure_is_decisive_despite_budget():
    # graph6 FTPeg: td 4, and every one of its 20 minors keeps td 4. The
    # budget solves the base graph but is below what the largest minors
    # need, even with the search bounded by each minor's incumbent: budgets
    # 3-5 each leave a minor inconclusive, 6 finishes every minor.
    g = Graph(7, [(0, 2), (0, 3), (0, 6), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5),
                  (3, 6), (5, 6)])
    report = is_critical(g, SolverConfig(node_budget=3))
    assert report.inconclusive_steps
    assert report.failing_steps
    assert report.is_critical is False


def test_one_step_sufficiency_for_bounded_multistep_minors():
    """When the one-step report says critical, no depth-2 minor reaches base td."""
    import random

    from tdlab.graphs import apply_minor_step, one_step_minor_steps
    from tdlab.selftest import random_graph

    rng = random.Random(17)
    candidates = [complete(4), cycle(5), hn(4)[0]]
    candidates += [random_graph(rng, rng.randint(3, 9), rng.random()) for _ in range(12)]
    confirmed_critical = 0
    for g in candidates:
        report = is_critical(g)
        if report.is_critical is not True:
            continue
        confirmed_critical += 1
        base = report.base_td
        seen = {g}
        frontier = [g]
        for _ in range(2):
            grown = []
            for h in frontier:
                for step in one_step_minor_steps(h):
                    m = apply_minor_step(h, step)
                    if m in seen:
                        continue
                    seen.add(m)
                    grown.append(m)
                    assert treedepth(m).value < base, (g, step)
            frontier = grown
    assert confirmed_critical >= 3


# -- 1-uniqueness methods ---------------------------------------------------------

def assert_one_unique_witness(g, v, r):
    # an optimal ranking of g that gives v the only label 1
    assert r is not None
    assert verify_ranking(g, r) is None
    assert r.colors == treedepth(g).value
    assert r.labels[v] == 1 and r.labels.count(1) == 1


def test_hn_hub_is_the_only_non_unique_vertex():
    for n in (4, 5):
        g, layout = hn(n)
        assert one_unique_starclique(g, layout.hub) is None
        for v in range(1, g.n):
            assert_one_unique_witness(g, v, one_unique_starclique(g, v))


def test_transform_certificate_is_built_only_when_printed(monkeypatch):
    # The transform test asks only whether td drops, so a vertex that is not
    # 1-unique leaves its transform without a certificate. reproduce prints
    # the hub transform's td, so it builds that certificate.
    built = []

    def recording_derive(g, step):
        h = solver.derive(g, step)
        built.append((g, step, h))
        return h

    monkeypatch.setattr(critical, "derive", recording_derive)

    def hub_transforms(n):
        g, layout = hn(n)
        return [h for parent, step, h in built if parent == g and step == layout.hub]

    g, layout = hn(7)
    assert one_unique_starclique(g, layout.hub) is None
    [h] = hub_transforms(7)
    assert h == star_clique(g, layout.hub)
    assert solver._solved_for(h).cert is None
    reproduce(8)
    # uniqueness_report's transform test, then the printed solve
    tested, printed = hub_transforms(8)
    assert solver._solved_for(tested).cert is None
    assert solver._solved_for(printed).cert is not None


def test_cliques_are_one_unique_everywhere():
    for m in (2, 3, 4, 5):
        g = complete(m)
        for v in range(m):
            assert_one_unique_witness(g, v, one_unique_starclique(g, v))


def test_one_unique_direct_hn4():
    g, layout = hn(4)
    assert one_unique_direct(g, layout.hub) is None
    for a in layout.middles:
        r = one_unique_direct(g, a)
        assert r is not None
        assert r.colors == 5
        assert r.labels[a] == 1
        assert r.labels.count(1) == 1
        assert verify_ranking(g, r) is None


def test_one_unique_direct_triangle():
    g = complete(3)
    for v in range(3):
        r = one_unique_direct(g, v)
        assert r is not None and r.labels[v] == 1 and sorted(r.labels) == [1, 2, 3]


def test_one_unique_direct_size_cap():
    with pytest.raises(ValueError):
        one_unique_direct(hn(5)[0], 0)  # 9 vertices


def test_both_one_uniqueness_methods_reject_a_single_vertex():
    for method in (one_unique_direct, one_unique_starclique):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            method(complete(1), 0)


# -- uniqueness_report ------------------------------------------------------------------

def test_uniqueness_report_hn4():
    g, layout = hn(4)
    report = uniqueness_report(g)
    assert report.non_one_unique == (layout.hub,)
    assert report.graph_one_unique is False
    assert report.direct_method_ran is True
    for u in report.per_vertex:
        assert u.by_direct is not None
        assert u.by_direct == u.by_starclique == u.one_unique


def test_uniqueness_report_witnesses_are_optimal_with_unique_one():
    for g in [hn(4)[0], cycle(5), complete(4), path(5)]:
        td = treedepth(g).value
        report = uniqueness_report(g)
        for u in report.per_vertex:
            if not u.one_unique:
                assert u.witness is None
                continue
            w = u.witness
            assert w is not None
            assert w.colors == td
            assert w.labels[u.vertex] == 1
            assert w.labels.count(1) == 1
            assert verify_ranking(g, w) is None


def test_uniqueness_report_cycle5_methods_agree():
    # the report itself raises if the two methods ever disagree
    report = uniqueness_report(cycle(5))
    assert report.direct_method_ran
    assert report.graph_one_unique is not None


def test_uniqueness_report_complete4_all_unique():
    report = uniqueness_report(complete(4))
    assert report.graph_one_unique is True
    assert report.non_one_unique == ()


def test_uniqueness_report_skips_direct_above_cap():
    report = uniqueness_report(hn(5)[0])  # 9 vertices
    assert report.direct_method_ran is False
    assert all(u.by_direct is None for u in report.per_vertex)
    assert report.non_one_unique == (0,)


def test_uniqueness_report_budget_inconclusive():
    # graph6 GPuPIG: td(g) = 4, and no vertex is 1-unique. Enough to solve g,
    # too little to decide whether the transforms at vertices 1, 4, 6 and 7
    # have td <= 3: their lower bound is 3, so the decision needs a search.
    # Every other transform is settled within the budget or, when it runs
    # out, by its bounds. Budgets 2-6 leave those four undecided, 7 decides
    # every vertex.
    g = Graph(8, [(0, 2), (0, 4), (0, 5), (1, 4), (1, 7), (2, 3), (2, 6), (3, 4),
                  (3, 5), (5, 6), (5, 7)])
    report = uniqueness_report(g, SolverConfig(node_budget=3))
    assert report.graph_one_unique is None
    flagged = [u for u in report.per_vertex if u.one_unique is None]
    assert flagged and flagged[0].vertex == 1


def test_budget_outcomes_do_not_depend_on_what_the_table_holds(small_sweep):
    # Entries of the table of small subgraphs are filled outside the call's
    # budget, so whether a report runs out, and where, is the same from an
    # empty table and from one that every subgraph on 3 to 5 vertices has
    # filled. Each call gets a new Graph object, so only the table carries over.
    graphs = [hn(n)[0] for n in range(5, 10)] + [cartesian_k2(a) for a in range(3, 7)]
    graphs += [parse_graph6("FTPeg"), parse_graph6("GPuPIG")]
    for line in GNP16.read_text(encoding="ascii").splitlines():
        if line and not line.startswith("#"):
            graphs.append(parse_graph6(line.split()[1]))

    def outcomes(cold):
        got = []
        for g in graphs:
            for budget in range(41):
                for report in (is_critical, uniqueness_report):
                    if cold:
                        solver._small_table.clear()
                    try:
                        got.append(report(Graph.from_adj(g.adj), SolverConfig(node_budget=budget)))
                    except BudgetExceededError as exc:
                        got.append((str(exc), exc.bounds, exc.stats._replace(elapsed=0.0)))
        return got

    from_empty = outcomes(cold=True)
    small_sweep.restore_table()
    assert len(solver._small_table) == 8 + 64 + 1024
    assert outcomes(cold=False) == from_empty


def test_cross_validation_suite_reports_a_disagreement(monkeypatch):
    # The selftest suite drives uniqueness_report, whose comparison of the two
    # methods is the one that catches a disagreement.
    monkeypatch.setattr(critical, "one_unique_direct", lambda g, v, config=None: None)
    ok, detail = uniqueness_cross_validation_suite(3)
    assert not ok
    assert detail.startswith(
        "1-uniqueness methods disagree at vertex 0: transform=True direct=False on "
    ), detail


def test_uniqueness_report_rejects_single_vertex():
    with pytest.raises(ValueError):
        uniqueness_report(complete(1))


# -- reports grouped by symmetry class ----------------------------------------------------------

# hn(4..9) and kak2(3..7) take every source of generators in a report: none
# below the size gate (kak2(3)), one search per report (hn(4), kak2(4)), and
# the solver's own from 9 vertices on. Ip|IrppyW (10 vertices) and Gqcmv?
# (8 vertices) have no automorphism, but steps that give identical minors.
GROUPING_GRAPHS = (
    [hn(n)[0] for n in range(4, 10)]
    + [cartesian_k2(a) for a in range(3, 8)]
    + [parse_graph6("Ip|IrppyW"), parse_graph6("Gqcmv?")]
)
# the number of step classes of each graph above
GROUPING_CLASSES = [5] * 6 + [18] + [4] * 4 + [48, 23]


def ungrouped_critical(g):
    # each minor solved on a fresh Graph, which reads no store of g
    return {step: treedepth(apply_minor_step(g, step)).value for step in one_step_minor_steps(g)}


def ungrouped_uniqueness(g, config=None):
    # both methods on every vertex of a fresh copy of g
    g = Graph.from_adj(g.adj)
    treedepth(g, config)
    rows = []
    for v in range(g.n):
        try:
            witness = one_unique_starclique(g, v, config)
            direct = None
            if g.n <= solver.BRUTE_FORCE_MAX_VERTICES:
                direct = one_unique_direct(g, v, config) is not None
        except BudgetExceededError:
            rows.append((v, None, None, None))
            continue
        rows.append((v, witness is not None, direct, witness))
    return tuple(rows)


def test_grouped_reports_equal_ungrouped_references():
    for g, classes in zip(GROUPING_GRAPHS, GROUPING_CLASSES):
        steps = one_step_minor_steps(g)
        firsts = critical._step_classes(g, steps)
        assert len(set(firsts)) == classes, g
        for step, first in zip(steps, firsts):
            assert is_isomorphic(apply_minor_step(g, step), apply_minor_step(g, steps[first]))
        report = is_critical(Graph.from_adj(g.adj))
        assert report.steps == tuple(ungrouped_critical(g).items())
        assert uniqueness_report(Graph.from_adj(g.adj)).per_vertex == ungrouped_uniqueness(g)


def test_grouped_reports_under_budgets():
    # A class of steps is inconclusive exactly when the solve of its first
    # step runs out, and its other steps get the reference values. Vertices
    # keep their ungrouped verdicts under every budget: each transform still
    # runs on its own, and a direct search runs out only where g's solve does.
    for g in GROUPING_GRAPHS:
        steps = one_step_minor_steps(g)
        firsts = critical._step_classes(g, steps)
        want = ungrouped_critical(g)
        for budget in range(41):
            config = SolverConfig(node_budget=budget)
            h = Graph.from_adj(g.adj)
            try:
                treedepth(h, config)
            except BudgetExceededError:
                for report in (is_critical, uniqueness_report):
                    with pytest.raises(BudgetExceededError):
                        report(Graph.from_adj(g.adj), config)
                continue
            runs_out = {}
            for first in set(firsts):
                try:
                    treedepth(derive(h, steps[first]), config)
                    runs_out[first] = False
                except BudgetExceededError:
                    runs_out[first] = True
            report = is_critical(Graph.from_adj(g.adj), config)
            assert report.inconclusive_steps == tuple(
                s for s, f in zip(steps, firsts) if runs_out[f]
            ), (g, budget)
            assert report.steps == tuple(
                (s, want[s]) for s, f in zip(steps, firsts) if not runs_out[f]
            ), (g, budget)
            got = uniqueness_report(Graph.from_adj(g.adj), config).per_vertex
            assert got == ungrouped_uniqueness(g, config), (g, budget)


def test_direct_search_runs_on_every_vertex_below_the_gate(monkeypatch):
    # cycle(6) is below the gate of 7 vertices; cycle(7) and kak2(4) are
    # vertex-transitive and not below it, so one direct search serves each.
    calls = []
    real = critical.one_unique_direct

    def counted(g, v, config=None):
        calls.append(v)
        return real(g, v, config)

    monkeypatch.setattr(critical, "one_unique_direct", counted)
    for g, want in ((cycle(6), list(range(6))), (cycle(7), [0]), (cartesian_k2(4), [0])):
        calls.clear()
        per_vertex = uniqueness_report(g).per_vertex
        assert calls == want
        assert all(u.by_direct is not None and u.by_direct == u.one_unique for u in per_vertex)


# -- reproduce ---------------------------------------------------------------------------------

def test_reproduce_rows_4_to_5():
    rows = reproduce(5)
    assert [row.n for row in rows] == [4, 5]
    for row in rows:
        assert row.ok and not row.incomplete
        assert row.td == row.n + 1
        assert row.critical is True
        assert row.non_1_unique == (0,)
        assert row.starclique_td == -(-3 * (row.n - 1) // 2)
        assert row.witnesses_ok


def test_reproduce_row6_starclique_value():
    rows = reproduce(6)
    assert rows[-1].starclique_td == 8  # ceil(15/2)


def test_reproduce_json_schema():
    row = reproduce(4)[0].to_json_dict()
    assert set(row) >= {"n", "td", "critical", "non_1_unique", "starclique_td", "witnesses_ok"}
    assert row["n"] == 4 and row["td"] == 5
    assert row["non_1_unique"] == [0]


def test_reproduce_range_validation():
    with pytest.raises(ValueError):
        reproduce(3)
    with pytest.raises(ValueError):
        reproduce(9)


def test_reproduce_budget_marks_incomplete():
    rows = reproduce(4, SolverConfig(node_budget=2))
    assert rows[0].incomplete
    assert not rows[0].ok
    assert rows[0].witnesses_ok  # witness checks never touch the solver


def test_family_witnesses_ok_direct():
    for n in (4, 5, 6):
        assert family_witnesses_ok(n)
