"""Shared fixtures."""

import pytest

from tdlab import solver


@pytest.fixture(autouse=True)
def empty_search_cache():
    # Every solve, budgeted or not, reads and writes the process-wide
    # per-graph cache and the table of small subgraphs. Emptying both keeps
    # a test that expects a budget to run out, or counts nodes, from passing
    # or failing by what earlier tests happened to solve.
    solver._search_cache.clear()
    solver._small_table.clear()
