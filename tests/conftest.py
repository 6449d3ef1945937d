"""Shared fixtures."""

from typing import NamedTuple

import pytest

from tdlab import solver
from tdlab.selftest import iter_labeled_graphs


@pytest.fixture(scope="session")
def oracle_td():
    # brute_force_td of a graph, each distinct graph searched once per session.
    # Keyed by adjacency, so the memo holds no Graph object and no solver state.
    memo = {}

    def td(g):
        value = memo.get(g.adj)
        if value is None:
            value = memo[g.adj] = solver.brute_force_td(g)
        return value

    return td


class SmallGraph(NamedTuple):
    adj: tuple[int, ...]
    value: int  # treedepth's value
    labels: tuple[int, ...]  # treedepth's witness labels
    oracle: int  # brute_force_td's value


class SmallSweep(NamedTuple):
    graphs: list[SmallGraph]
    table: dict  # the table of small subgraphs as the pass left it

    def restore_table(self):
        solver._small_table.clear()
        solver._small_table.update(self.table)


@pytest.fixture(scope="session")
def small_sweep(oracle_td):
    # Every connected labeled graph on at most 6 vertices, in
    # iter_labeled_graphs order, solved once per session with treedepth,
    # from an empty table of small subgraphs, each on a new Graph object.
    # Like oracle_td, it keeps no Graph object and no solver state.
    solver._small_table.clear()
    graphs = []
    for n in range(1, 7):
        for g in iter_labeled_graphs(n):
            cert = solver.treedepth(g)
            graphs.append(SmallGraph(g.adj, cert.value, cert.witness.labels, oracle_td(g)))
    return SmallSweep(graphs, dict(solver._small_table))
