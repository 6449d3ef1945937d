"""Ranking verification (component criterion vs path oracle) and witnesses."""

import random
from itertools import product

import pytest

from tdlab.graphs import Graph, MinorStep, cartesian_k2, cycle, hn, path
from tdlab.ranking import (
    Ranking,
    hn_minor_witness,
    verify_ranking,
    verify_ranking_by_paths,
    witness_hn,
    witness_kak2,
)
from tdlab.selftest import iter_labeled_graphs, random_graph


def valid(g, r):
    return verify_ranking(g, r) is None


# -- Ranking / Violation shapes ---------------------------------------------

def test_ranking_validates_labels():
    with pytest.raises(ValueError):
        Ranking((0, 1), 2)
    with pytest.raises(ValueError):
        Ranking((1, 3), 2)
    with pytest.raises(ValueError):
        Ranking((1,), 0)
    # the first label out of range is named, not the lowest or the highest
    with pytest.raises(ValueError, match=r"^label 3 of vertex 1 outside 1\.\.2$"):
        Ranking((1, 3, 0, 4), 2)
    with pytest.raises(ValueError, match=r"^label 0 of vertex 2 outside 1\.\.4$"):
        Ranking((1, 3, 0, 4), 4)


def test_ranking_is_an_immutable_value():
    r = Ranking([1, 2, 1], 2)
    assert len(r) == 3
    assert r == Ranking((1, 2, 1), 2) and hash(r) == hash(Ranking((1, 2, 1), 2))
    assert r != Ranking((1, 2, 1), 3)
    assert repr(r) == "Ranking(labels=(1, 2, 1), colors=2)"
    with pytest.raises(AttributeError):
        r.colors = 3


def test_verify_rejects_length_mismatch():
    with pytest.raises(ValueError):
        verify_ranking(path(3), Ranking((1, 2), 2))


# -- verify_ranking examples --------------------------------------------------

def test_path3_middle_peak_is_valid():
    assert valid(path(3), Ranking((1, 2, 1), 2))


def test_adjacent_equal_labels_violate():
    v = verify_ranking(path(2), Ranking((1, 1), 1))
    assert v is not None
    assert v.path == (0, 1)
    assert v.label == 1


def test_cycle5_known_violation():
    g = cycle(5)
    r = Ranking((1, 2, 1, 2, 3), 3)
    # Oracle first: the exhaustive path check must reject this labeling at
    # label 2 through the label-1 vertex between the two 2s.
    by_paths = verify_ranking_by_paths(g, r)
    assert by_paths is not None and by_paths.label == 2
    v = verify_ranking(g, r)
    assert v is not None
    assert v.label == 2
    assert v.pair == (1, 3)
    assert v.path == (1, 2, 3)
    assert r.labels[2] == 1


def test_violation_path_invariants():
    rng = random.Random(31)
    found = 0
    while found < 200:
        g = random_graph(rng, rng.randint(2, 8), rng.random())
        labels = tuple(rng.randint(1, 4) for _ in range(g.n))
        v = verify_ranking(g, Ranking(labels, 4))
        if v is None:
            continue
        found += 1
        x, y = v.pair
        assert v.path[0] == x and v.path[-1] == y
        assert labels[x] == labels[y] == v.label
        assert all(labels[z] <= v.label for z in v.path[1:-1])
        for a, b in zip(v.path, v.path[1:]):
            assert g.has_edge(a, b)


def test_witness_hn_explicit_labels():
    assert witness_hn(4).labels == (5, 2, 3, 4, 1, 1, 1)
    assert witness_hn(3).colors == 4
    assert valid(hn(6)[0], witness_hn(6))


def test_witness_hn_all_sizes_valid():
    for n in range(3, 11):
        w = witness_hn(n)
        assert w.colors == n + 1 and w.max_label == n + 1
        assert valid(hn(n)[0], w)
    with pytest.raises(ValueError):
        witness_hn(2)


def test_witness_kak2_valid_with_exact_colors():
    for a in range(3, 11):
        w = witness_kak2(a)
        want = -(-3 * a // 2)
        assert w.colors == want and w.max_label == want
        assert valid(cartesian_k2(a), w)
    with pytest.raises(ValueError):
        witness_kak2(2)


def test_hn_minor_witness_examples():
    g, layout = hn(4)
    a = layout.middles[0]
    w = layout.partner(a)
    # removing the hub-to-middle edge: hub and partner at 2, middles 1, rest 3..4
    minor, coloring = hn_minor_witness(4, MinorStep.del_edge(0, a))
    assert valid(minor, coloring)
    assert coloring.labels[0] == 2 and coloring.labels[w] == 2
    assert all(coloring.labels[m] == 1 for m in layout.middles)
    assert coloring.max_label == 4

    # removing a clique edge: its endpoints at 1, middles 2, hub 3, rest from 4
    w1, w2 = layout.clique[0], layout.clique[1]
    minor, coloring = hn_minor_witness(4, MinorStep.del_edge(w1, w2))
    assert valid(minor, coloring)
    assert coloring.labels[w1] == 1 and coloring.labels[w2] == 1
    assert all(coloring.labels[m] == 2 for m in layout.middles)
    assert coloring.labels[0] == 3
    assert coloring.max_label == 4


def test_hn_minor_witness_pairing_contraction():
    g, layout = hn(5)
    b = layout.clique[2]
    a = layout.partner(b)
    minor, coloring = hn_minor_witness(5, MinorStep.contract(b, a))
    assert minor.n == 8
    assert valid(minor, coloring)
    assert coloring.max_label == 5


def test_hn_minor_witness_every_step():
    for n in range(4, 11):
        g, _ = hn(n)
        steps = [MinorStep.del_edge(u, v) for u, v in g.edges()]
        steps += [MinorStep.contract(u, v) for u, v in g.edges()]
        steps += [MinorStep.del_vertex(v) for v in range(g.n)]
        for step in steps:
            minor, coloring = hn_minor_witness(n, step)
            assert verify_ranking(minor, coloring) is None, (n, step)
            assert coloring.max_label <= n


def test_hn_minor_witness_rejects_bad_steps():
    with pytest.raises(ValueError):
        hn_minor_witness(3, MinorStep.del_edge(0, 3))
    with pytest.raises(ValueError):
        hn_minor_witness(4, MinorStep.del_edge(0, 1))  # hub-clique is not an edge
    with pytest.raises(ValueError):
        hn_minor_witness(4, MinorStep.del_edge(0, 99))


# -- component criterion == path definition ------------------------------------

def test_verifier_equivalence_exhaustive_small():
    """All graphs on <= 5 vertices, all labelings with <= 4 colors."""
    for n in range(1, 6):
        labelings = [Ranking(labels, 4) for labels in product((1, 2, 3, 4), repeat=n)]
        for g in iter_labeled_graphs(n, connected_only=False):
            for r in labelings:
                fast = verify_ranking(g, r)
                slow = verify_ranking_by_paths(g, r)
                assert (fast is None) == (slow is None), (g, r)


def test_verifier_equivalence_random_sample():
    """>= 1e5 random (graph <= 7 vertices, <= 4 colors) pairs."""
    rng = random.Random(20250810)
    graphs = [random_graph(rng, rng.randint(1, 7), rng.random()) for _ in range(2000)]
    checked = 0
    while checked < 100_000:
        g = graphs[checked % len(graphs)]
        r = Ranking(tuple(rng.randint(1, 4) for _ in range(g.n)), 4)
        fast = verify_ranking(g, r)
        slow = verify_ranking_by_paths(g, r)
        assert (fast is None) == (slow is None), (g, r)
        checked += 1


# -- restriction property ----------------------------------------------------------

def induced_subgraph(g: Graph, keep: list[int]) -> Graph:
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos]
    return Graph(len(keep), edges)


def test_valid_ranking_restricts_to_induced_subgraphs():
    rng = random.Random(77)
    witnesses = [(hn(n)[0], witness_hn(n)) for n in range(3, 8)]
    witnesses += [(cartesian_k2(a), witness_kak2(a)) for a in range(3, 8)]
    for g, w in witnesses:
        assert valid(g, w)
        for _ in range(20):
            keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            sub = induced_subgraph(g, keep)
            sub_labels = tuple(w.labels[v] for v in keep)
            assert valid(sub, Ranking(sub_labels, w.colors))
