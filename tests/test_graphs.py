"""Graph value, generators, minor operations, star-clique, isomorphism."""

import random

import pytest

from tdlab.graphs import (
    Graph,
    MinorStep,
    apply_minor_step,
    cartesian_k2,
    complete,
    contract_edge,
    cycle,
    delete_edge,
    delete_vertex,
    hn,
    is_isomorphic,
    k_net,
    one_step_minor_steps,
    path,
    star_clique,
)
from tdlab.selftest import random_graph


def assert_simple(g: Graph):
    full = g.full_mask()
    for v in range(g.n):
        assert g.adj[v] & ~full == 0
        assert not g.adj[v] >> v & 1
        for u in g.neighbors(v):
            assert g.adj[u] >> v & 1


def all_family_members_up_to_16():
    members = []
    members += [complete(k) for k in range(1, 17)]
    members += [path(n) for n in range(1, 17)]
    members += [cycle(n) for n in range(3, 17)]
    members += [k_net(k) for k in range(1, 9)]
    members += [cartesian_k2(a) for a in range(1, 9)]
    members += [hn(n)[0] for n in range(3, 9)]
    return members


# -- construction and invariants ---------------------------------------------

def test_graph_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(65)


def test_graph_rejects_loops_and_stray_vertices():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_from_adj_rejects_asymmetry():
    with pytest.raises(ValueError):
        Graph.from_adj((0b010, 0b000, 0b000))


def test_generators_satisfy_graph_invariants():
    for g in all_family_members_up_to_16():
        assert_simple(g)


def test_graph_value_semantics():
    assert complete(3) == complete(3)
    assert complete(3) != path(3)
    assert hash(cycle(4)) == hash(cycle(4))


# -- generator examples --------------------------------------------------------

def test_complete_examples():
    assert (complete(1).n, complete(1).edge_count()) == (1, 0)
    g = complete(4)
    assert (g.n, g.edge_count()) == (4, 6)
    assert all(g.degree(v) == 3 for v in range(4))
    assert complete(7).degree_sequence() == (6,) * 7


def test_k_net_examples():
    assert is_isomorphic(k_net(1), complete(2))
    g = k_net(3)
    assert (g.n, g.edge_count()) == (6, 6)
    assert g.degree_sequence() == (3, 3, 3, 1, 1, 1)
    assert k_net(4).edge_count() == 4 * 3 // 2 + 4


def test_cartesian_k2_examples():
    assert is_isomorphic(cartesian_k2(1), complete(2))
    g = cartesian_k2(3)
    assert (g.n, g.edge_count()) == (6, 9)
    assert g.degree_sequence() == (3,) * 6
    assert cartesian_k2(5).edge_count() == 5 * 4 + 5


def test_path_and_cycle_examples():
    assert path(1) == complete(1)
    g = cycle(5)
    assert (g.n, g.edge_count()) == (5, 5)
    assert g.degree_sequence() == (2,) * 5


def test_hn_structure():
    g, layout = hn(4)
    assert (g.n, g.edge_count()) == (7, 9)
    assert g.degree(layout.hub) == 3
    assert [g.degree(a) for a in layout.middles] == [2, 2, 2]
    assert [g.degree(b) for b in layout.clique] == [3, 3, 3]
    # pairing: middle i is adjacent exactly to the hub and clique[i]
    for b, a in zip(layout.clique, layout.middles):
        assert set(g.neighbors(a)) == {layout.hub, b}
    assert layout.partner(layout.middles[1]) == layout.clique[1]


def test_hn_degree_classes_all_sizes():
    for n in range(3, 9):
        g, layout = hn(n)
        assert g.degree(layout.hub) == n - 1
        assert all(g.degree(a) == 2 for a in layout.middles)
        assert all(g.degree(b) == n - 1 for b in layout.clique)
        assert g.edge_count() == (n - 1) * (n - 2) // 2 + 2 * (n - 1)


def test_hn_base_member_is_five_cycle():
    assert is_isomorphic(hn(3)[0], cycle(5))


def test_hn_hub_deletion_leaves_k_net():
    for n in (4, 5):
        g, layout = hn(n)
        assert is_isomorphic(delete_vertex(g, layout.hub), k_net(n - 1))


def test_hn_out_of_range():
    with pytest.raises(ValueError):
        hn(2)


def test_generator_range_errors():
    for gen, bad in [(complete, 0), (complete, 65), (k_net, 0), (k_net, 33),
                     (cartesian_k2, 0), (cartesian_k2, 33), (path, 0), (cycle, 2)]:
        with pytest.raises(ValueError):
            gen(bad)


# -- minor operations ------------------------------------------------------------

def test_delete_edge():
    g = delete_edge(complete(3), 0, 1)
    assert g.edge_count() == 2
    assert is_isomorphic(g, path(3))
    with pytest.raises(ValueError):
        delete_edge(path(3), 0, 2)


def test_delete_vertex_reindexes_downward():
    g = delete_vertex(path(4), 1)  # survivors 0,2,3 -> 0,1,2; edge 2-3 becomes 1-2
    assert g.n == 3
    assert g.edges() == [(1, 2)]


def test_contract_edge_examples():
    assert contract_edge(path(3), 0, 1) == path(2)
    # merged vertex keeps min index: contracting 1-2 in P4 leaves 0-1-2
    assert contract_edge(path(4), 1, 2) == path(3)
    with pytest.raises(ValueError):
        contract_edge(path(3), 0, 2)


def test_contract_discards_parallel_edges():
    g = contract_edge(complete(3), 0, 1)
    assert g == complete(2)


def test_hn_clique_contraction_has_six_vertices():
    g, layout = hn(4)
    minor = contract_edge(g, layout.clique[0], layout.clique[1])
    assert minor.n == 6
    assert_simple(minor)


def test_one_step_minor_counts():
    rng = random.Random(11)
    graphs = all_family_members_up_to_16() + [
        random_graph(rng, rng.randint(2, 16), rng.random()) for _ in range(40)
    ]
    for g in graphs:
        for step in one_step_minor_steps(g):
            m = apply_minor_step(g, step)
            assert_simple(m)
            if step.kind == "delete_edge":
                assert m.n == g.n and m.edge_count() == g.edge_count() - 1
            elif step.kind == "contract_edge":
                assert m.n == g.n - 1 and m.edge_count() <= g.edge_count() - 1
            else:
                assert m.n == g.n - 1 and m.edge_count() == g.edge_count()


def test_one_step_enumeration_covers_isolated_vertices():
    g = Graph(3, [(0, 1)])
    steps = one_step_minor_steps(g)
    assert MinorStep.del_vertex(2) in steps
    assert MinorStep.del_edge(0, 1) in steps
    assert MinorStep.contract(0, 1) in steps
    assert len(steps) == 3


def test_minor_step_validation():
    with pytest.raises(ValueError):
        MinorStep("shrink", 0, 1)
    with pytest.raises(ValueError):
        MinorStep("delete_edge", 0)


def test_minor_steps_sort_by_kind_then_vertices():
    steps = sorted(one_step_minor_steps(hn(5)[0]))
    assert steps == sorted(steps, key=lambda s: (s.kind, s.u, s.v))
    assert steps[0] == MinorStep.contract(0, 5) and steps[-1] == MinorStep.del_edge(4, 8)


# -- star-clique transform --------------------------------------------------------

def test_star_clique_edge_set():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        v = rng.randrange(g.n)
        h = star_clique(g, v)
        assert h.n == g.n - 1
        nb = g.neighbors(v)
        expected = set()
        for u, w in g.edges():
            if v in (u, w):
                continue
            expected.add((u - (u > v), w - (w > v)))
        for i, u in enumerate(nb):
            for w in nb[i + 1 :]:
                a, b = u - (u > v), w - (w > v)
                expected.add((min(a, b), max(a, b)))
        assert set(h.edges()) == expected


def test_star_clique_examples():
    assert star_clique(path(3), 0) == path(2)
    assert star_clique(complete(4), 2) == complete(3)
    assert is_isomorphic(star_clique(hn(4)[0], 0), cartesian_k2(3))
    with pytest.raises(ValueError):
        star_clique(path(3), 5)


def test_star_clique_disconnected_input():
    g = Graph(4, [(0, 1)])  # two isolated vertices
    h = star_clique(g, 3)
    assert h == Graph(3, [(0, 1)])


# -- isomorphism ---------------------------------------------------------------------

def test_is_isomorphic_basics():
    assert is_isomorphic(hn(3)[0], cycle(5))
    assert not is_isomorphic(complete(3), path(3))
    assert is_isomorphic(star_clique(hn(5)[0], 0), cartesian_k2(4))


def test_is_isomorphic_degree_blind_pair():
    # same degree sequence (2,2,2,2,2,2): triangle pair vs hexagon
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_isomorphic(two_triangles, cycle(6))
    relabeled = Graph(6, [(5, 3), (3, 1), (5, 1), (4, 2), (2, 0), (4, 0)])
    assert is_isomorphic(two_triangles, relabeled)


def test_is_isomorphic_beyond_ten_vertices():
    # The hub transform of hn(n) is kak2(n - 1), here on 22 vertices.
    assert is_isomorphic(star_clique(hn(12)[0], 0), cartesian_k2(11))
    assert not is_isomorphic(star_clique(hn(12)[0], 1), cartesian_k2(11))
    # Both 2-regular on 12 vertices, so refinement alone cannot tell them apart.
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    two_hexagons = Graph(12, hexagon + [(6 + u, 6 + v) for u, v in hexagon])
    assert not is_isomorphic(two_hexagons, cycle(12))
    assert is_isomorphic(cycle(12), cycle(12)) and is_isomorphic(complete(11), complete(11))
