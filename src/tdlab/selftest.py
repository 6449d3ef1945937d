"""Reduced-scale cross-validation suites, plus small enumeration helpers.

The CLI `selftest` command runs these: the exact solver against the
labeling-space brute force on every connected labeled graph with at most 5
vertices, the two 1-uniqueness methods against each other on the same range,
and a seeded random spot check of minor monotonicity. Acceptance criteria 7
and 8 (tests/test_acceptance.py) run the first two sweeps at full scale, on
at most 6 vertices; criterion 10 and tests/test_solver.py run the spot check
on larger graphs.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from .graphs import Graph, apply_minor_step, one_step_minor_steps
from .critical import uniqueness_report
from .solver import brute_force_td, treedepth


def iter_labeled_graphs(n: int, connected_only: bool = True) -> Iterator[Graph]:
    """All labeled graphs on vertex set 0..n-1, by edge-set bitmask order."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph(n, edges)
        if connected_only and not g.is_connected():
            continue
        yield g


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def oracle_equivalence_suite(max_n: int = 5) -> tuple[bool, str]:
    """Solver value == brute-force value on all connected labeled graphs <= max_n."""
    checked = 0
    for n in range(1, max_n + 1):
        for g in iter_labeled_graphs(n):
            solver_value = treedepth(g).value
            oracle_value = brute_force_td(g)
            if solver_value != oracle_value:
                return False, (
                    f"solver={solver_value} brute_force={oracle_value} on {g!r}"
                )
            checked += 1
    return True, f"{checked} connected graphs up to {max_n} vertices"


def uniqueness_cross_validation_suite(max_n: int = 5) -> tuple[bool, str]:
    """Transform method == direct search on all connected labeled graphs <= max_n.

    `uniqueness_report` runs both methods on every vertex and raises on a
    disagreement; only vertices the direct search decided are counted.
    """
    checked = 0
    for n in range(2, max_n + 1):
        for g in iter_labeled_graphs(n):
            try:
                report = uniqueness_report(g)
            except RuntimeError as err:
                return False, f"{err} on {g!r}"
            checked += sum(u.by_direct is not None for u in report.per_vertex)
    return True, f"{checked} vertex checks up to {max_n} vertices"


def monotonicity_spot_check(seed: int = 0, rounds: int = 40, max_n: int = 8) -> tuple[bool, str]:
    """td never grows under any one-step minor, on seeded random graphs <= max_n."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(rounds):
        n = rng.randint(2, max_n)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        base = treedepth(g).value
        for step in one_step_minor_steps(g):
            minor_td = treedepth(apply_minor_step(g, step)).value
            if minor_td > base:
                return False, f"step {step} raised td {base} -> {minor_td} on {g!r}"
            checked += 1
    return True, f"{checked} minor steps over {rounds} seeded graphs"


def run_selftest(seed: int = 0) -> bool:
    suites = [
        ("oracle equivalence (<=5 vertices)", lambda: oracle_equivalence_suite(5)),
        (
            "1-uniqueness cross-validation (<=5 vertices)",
            lambda: uniqueness_cross_validation_suite(5),
        ),
        ("minor monotonicity spot check", lambda: monotonicity_spot_check(seed)),
    ]
    all_ok = True
    for name, suite in suites:
        ok, detail = suite()
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        all_ok = all_ok and ok
    return all_ok
