"""Shared fixtures."""

import pytest

from tdlab import solver


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
