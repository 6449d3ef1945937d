"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s

All expected values are integer-exact, so every comparison is equality.
The two exhaustive sweeps (criteria 7 and 8) cover every connected labeled
graph on up to 6 vertices and take a minute or two combined.
"""

import random
import time

from tdlab.critical import family_witnesses_ok, is_critical, uniqueness_report
from tdlab.formats import (
    format_edge_list,
    format_graph6,
    parse_edge_list,
    parse_graph6,
)
from tdlab.graphs import Graph, cartesian_k2, hn, is_isomorphic, k_net, star_clique
from tdlab.ranking import verify_ranking, witness_kak2
from tdlab.selftest import (
    monotonicity_spot_check,
    oracle_equivalence_suite,
    random_graph,
    uniqueness_cross_validation_suite,
)
from tdlab.solver import brute_force_td, treedepth

SEED = 20250810


def _report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_criterion_01_hn_treedepth():
    t0 = time.monotonic()
    got = {n: treedepth(hn(n)[0]).value for n in range(3, 9)}
    elapsed = time.monotonic() - t0
    ok = all(got[n] == n + 1 for n in range(3, 9))
    _report(1, ok, f"td(hn(n)) == n+1 for n=3..8, got {got} ({elapsed:.1f}s)")


def test_criterion_02_hn_criticality():
    t0 = time.monotonic()
    verdicts = {n: is_critical(hn(n)[0]).is_critical for n in range(4, 10)}
    elapsed = time.monotonic() - t0
    ok = all(verdicts[n] is True for n in range(4, 10))
    _report(2, ok, f"is_critical(hn(n)) for n=4..9, got {verdicts} ({elapsed:.1f}s)")


def test_criterion_03_hn_uniqueness():
    t0 = time.monotonic()
    ok = True
    details = []
    for n in range(4, 10):
        g, layout = hn(n)
        report = uniqueness_report(g)
        flagged = report.non_one_unique
        details.append(f"n={n}:{flagged}")
        ok = ok and flagged == (layout.hub,) and report.graph_one_unique is False
        if report.direct_method_ran:
            ok = ok and all(
                u.by_direct is not None and u.by_direct == u.by_starclique
                for u in report.per_vertex
            )
        else:
            ok = ok and g.n > 8
    elapsed = time.monotonic() - t0
    _report(3, ok, f"non-1-unique sets {details}, both methods agree in range ({elapsed:.1f}s)")


def test_criterion_04_k_net_treedepth():
    got = {k: treedepth(k_net(k)).value for k in range(1, 9)}
    ok = all(got[k] == k + 1 for k in range(1, 9))
    _report(4, ok, f"td(k_net(k)) == k+1 for k=1..8, got {got}")


def test_criterion_05_cartesian_k2():
    got = {a: treedepth(cartesian_k2(a)).value for a in range(1, 8)}
    ok = all(got[a] == -(-3 * a // 2) for a in range(1, 8))
    for a in range(3, 8):
        w = witness_kak2(a)
        want = -(-3 * a // 2)
        ok = ok and w.colors == want and w.max_label == want
        ok = ok and verify_ranking(cartesian_k2(a), w) is None
    _report(5, ok, f"td == ceil(3a/2) for a=1..7 ({got}) and witnesses valid for a=3..7")


def test_criterion_06_starclique_isomorphism():
    results = {
        n: is_isomorphic(star_clique(hn(n)[0], 0), cartesian_k2(n - 1))
        for n in range(4, 7)
    }
    ok = all(results.values())
    _report(6, ok, f"hub transform of hn(n) ~ cartesian_k2(n-1) for n=4..6: {results}")


def test_criterion_07_uniqueness_methods_cross_validation():
    # Every connected labeled graph on 2..6 vertices, every vertex. The single
    # graph on one vertex is outside the operations' n >= 2 precondition.
    t0 = time.monotonic()
    ok, detail = uniqueness_cross_validation_suite(6)
    _report(7, ok, f"{detail} ({time.monotonic() - t0:.1f}s)")


def test_criterion_08_oracle_equivalence():
    t0 = time.monotonic()
    ok, detail = oracle_equivalence_suite(6)
    disagreements = 0
    rng = random.Random(SEED)
    for i in range(1000):
        g = random_graph(rng, 7 + (i & 1), rng.uniform(0.1, 0.9))
        if treedepth(g).value != brute_force_td(g):
            disagreements += 1
    ok = ok and disagreements == 0
    _report(8, ok, f"exhaustive: {detail}; 1000 random graphs on 7-8 vertices, "
                   f"{disagreements} disagreements ({time.monotonic() - t0:.1f}s)")


def test_criterion_09_witness_suite():
    ok = all(family_witnesses_ok(n) for n in range(4, 8))
    _report(9, ok, "witness_hn and every minor coloring valid for n=4..7, solver unused")


def test_criterion_10_property_suite():
    # minor monotonicity on random graphs up to 12 vertices
    ok, detail = monotonicity_spot_check(SEED, rounds=20, max_n=12)
    notes = [f"monotonicity: {detail}"]
    rng = random.Random(SEED)

    # tree-depth of a disconnected graph is the component maximum
    for _ in range(25):
        parts = [random_graph(rng, rng.randint(1, 7), rng.random())
                 for _ in range(rng.randint(2, 3))]
        edges = []
        offset = 0
        for p in parts:
            edges.extend((u + offset, v + offset) for u, v in p.edges())
            offset += p.n
        whole = Graph(offset, edges)
        if treedepth(whole).value != max(treedepth(p).value for p in parts):
            ok = False
    notes.append("component-max rule on 25 disjoint unions")

    # certificates verify and attain their value
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        cert = treedepth(g)
        if verify_ranking(g, cert.witness) is not None:
            ok = False
        if cert.witness.max_label != cert.value:
            ok = False
    notes.append("certificate soundness on 60 random graphs")

    # serialization round-trips, both formats, bit for bit
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 64), rng.random())
        if parse_edge_list(format_edge_list(g)) != g:
            ok = False
        if parse_graph6(format_graph6(g)) != g:
            ok = False
    notes.append("round-trips on 60 random graphs up to 64 vertices")

    _report(10, ok, "; ".join(notes) + f" (seed {SEED})")
