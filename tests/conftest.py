"""Shared fixtures."""

import pytest

from tdlab import solver


@pytest.fixture(autouse=True)
def empty_small_table():
    # Every solve reads and writes the process-wide table of small subgraphs.
    # Emptying it keeps a test that expects a budget to run out, or counts
    # nodes, from passing or failing by what earlier tests happened to solve.
    # Everything else a solve learns lives on its Graph object.
    solver._small_table.clear()


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
