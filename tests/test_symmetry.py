"""Automorphism generators and the orbit rule of the exact search."""

import random
from pathlib import Path

import pytest

from tdlab import solver
from tdlab.critical import is_critical, uniqueness_report
from tdlab.formats import parse_graph6
from tdlab.graphs import (
    Graph,
    automorphism_generators,
    cartesian_k2,
    complete,
    cycle,
    hn,
    one_step_minor_steps,
)
from tdlab.ranking import Ranking
from tdlab.selftest import random_graph
from tdlab.solver import DEFAULT_CONFIG, _Search, _Solved, derive, treedepth
from test_solver import canonical_elimination

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def grid(a, b):
    edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    edges += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    return Graph(a * b, edges)


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def hypercube(d):
    edges = [(u, u | 1 << k) for u in range(1 << d) for k in range(d) if not u >> k & 1]
    return Graph(1 << d, edges)


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def named_graphs():
    graphs = [cycle(n) for n in range(9, 15)]
    graphs += [cartesian_k2(a) for a in range(3, 9)]
    graphs += [hn(n)[0] for n in range(4, 9)]
    graphs += [grid(3, 4), grid(4, 4), grid(3, 5), hypercube(4), petersen()]
    return graphs + first_branch_graphs()


def first_branch_graphs():
    # K_{a,b} with a <= b: td = a + 1 = 1 + min degree, so every node of the
    # search is closed by its first branch, which removes a vertex of the
    # smaller side, before the orbit rule is asked for anything.
    return [complete_bipartite(3, 7), complete_bipartite(4, 6), complete_bipartite(5, 5)]


def gnp16_pool():
    lines = (PERFBENCH / "inputs" / "gnp16.txt").read_text(encoding="ascii").splitlines()
    rows = [line.split() for line in lines if line.strip() and not line.startswith("#")]
    return [parse_graph6(row[1]) for row in rows]


def is_automorphism(g, perm):
    # Independent of the library's check: the edge set maps onto itself.
    edges = set(g.edges())
    return sorted(perm) == list(range(g.n)) and {
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    } == edges


def orbits(n, gens):
    # Union-find over the vertices, one union per vertex and generator.
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for perm in gens:
        for v in range(n):
            root[find(v)] = find(perm[v])
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return sorted(sorted(o) for o in groups.values())


def certs(g):
    # The search with generators forced on, whatever the graph's size, and
    # the search with none.
    pruned = _Search(g, DEFAULT_CONFIG, _Solved(gens=automorphism_generators(g))).certificate()
    plain = _Search(g, DEFAULT_CONFIG, _Solved(gens=[])).certificate()
    return pruned, plain


# -- generators -------------------------------------------------------------------

def test_generators_are_automorphisms():
    rng = random.Random(43)
    graphs = named_graphs() + [complete(6), hn(3)[0]]
    graphs += [random_graph(rng, rng.randint(2, 12), rng.random()) for _ in range(60)]
    for g in graphs:
        for perm in automorphism_generators(g):
            assert is_automorphism(g, perm), (g, perm)
            assert perm != tuple(range(g.n)), g


@pytest.mark.parametrize("a", range(1, 11))
def test_kak2_has_one_orbit(a):
    g = cartesian_k2(a)
    assert orbits(g.n, automorphism_generators(g)) == [list(range(g.n))]


def test_asymmetric_graphs_get_no_generators():
    # An asymmetric graph on 6 vertices, the fewest there are: the triangle
    # 0-2-3 with a pendant 5 at 0 and the path 2-1-4 hanging from 2.
    g = Graph(6, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3)])
    assert automorphism_generators(g) == []
    assert automorphism_generators(complete(1)) == []
    for g in gnp16_pool():
        assert automorphism_generators(g) == []


def test_generators_form_a_strong_generating_set():
    # For the base 0, 1, 2, ...: at every level i, the generators that fix
    # 0..i-1 move i exactly as the whole group fixing 0..i-1 does. By
    # orbit-stabiliser, the product of these orbit sizes is then the order
    # of the group, so the generators generate all of it. The group is
    # listed by networkx, which is skipped when absent.
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    for g in [hn(n)[0] for n in range(3, 8)] + [cartesian_k2(4), petersen(), grid(3, 3), cycle(8)]:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        matches = GraphMatcher(nxg, nxg).isomorphisms_iter()
        group = [tuple(m[v] for v in range(g.n)) for m in matches]
        gens = automorphism_generators(g)
        order = 1
        for i in range(g.n):
            fixing = [p for p in group if all(p[j] == j for j in range(i))]
            want = sorted({p[i] for p in fixing})
            fixing_gens = [p for p in gens if all(p[j] == j for j in range(i))]
            got = next(o for o in orbits(g.n, fixing_gens) if i in o)
            assert got == want, (g, i)
            order *= len(want)
        assert order == len(group), g
        # whole-group orbits, as networkx's matcher lists them
        assert orbits(g.n, gens) == orbits(g.n, group), g


@pytest.mark.parametrize(
    "g",
    [hn(7)[0], cartesian_k2(5), cartesian_k2(4), hn(4)[0]],
    ids=["hn7", "kak2_5", "kak2_4", "hn4"],
)
def test_inherited_generators_are_automorphisms_of_the_derived_graph(g):
    # A derived graph never searches; it keeps the parent's generators that
    # fix the dropped vertex and are automorphisms of it, re-indexed. Parents
    # from 7 vertices on hand some on.
    parent = automorphism_generators(g)
    assert parent
    inherited = 0
    for step in one_step_minor_steps(g) + list(range(g.n)):
        h = derive(g, step)
        gens = solver._solved_for(h).gens
        assert gens is not None, step
        inherited += len(gens)
        for perm in gens:
            assert is_automorphism(h, perm), (step, perm)
    assert inherited > 0
    # the hub transform of hn(7) is kak2(6); it keeps the clique symmetries of hn(7)
    if g.n == 13:
        h = derive(g, 0)
        assert len(orbits(h.n, solver._solved_for(h).gens)) == 2


# -- the orbit rule in the search ------------------------------------------------

def test_witness_under_the_orbit_rule_is_the_canonical_elimination(oracle_td):
    # Generators are fetched first, so the search skips by orbits on hn(4),
    # kak2(4) and C8 (the bipartite graphs close every node at its first
    # branch). The witness is still the canonical elimination, checked with
    # brute_force_td and not with the solver.
    graphs = [hn(4)[0], cartesian_k2(4), cycle(8)]
    graphs += [complete_bipartite(3, 4), complete_bipartite(4, 4)]
    canonical = {}
    skips = []
    for g in graphs:
        assert solver.generators(g), g
        cert = treedepth(g)
        skips.append(cert.stats.symmetry_skips)
        assert cert.witness.labels == canonical_elimination(g, oracle_td, canonical), g
    assert all(skips[:3]), skips


def test_orbit_rule_keeps_values_and_witnesses_on_small_graphs(small_sweep):
    # Every connected labeled graph on at most 6 vertices, with generators
    # forced on; the pruned value is also checked against the oracle. The
    # plain certificate is the session's sweep's: treedepth fetches no
    # generators for a lone search below 9 vertices.
    assert solver._LONE_SEARCH_MIN_VERTICES > 6
    for adj, value, labels, oracle in small_sweep.graphs:
        g = Graph.from_adj(adj)
        pruned = _Search(g, DEFAULT_CONFIG, _Solved(gens=automorphism_generators(g))).certificate()
        assert pruned.value == value and pruned.witness == Ranking(labels, value), g
        assert pruned.value == oracle, g


def test_orbit_rule_keeps_values_and_witnesses_on_symmetric_graphs():
    first_branch = first_branch_graphs()
    for g in named_graphs():
        pruned, plain = certs(g)
        assert pruned.value == plain.value and pruned.witness == plain.witness, g
        if g in first_branch:
            a = min(g.degree(v) for v in range(g.n))
            assert pruned.stats.symmetry_skips == 0, g
            assert pruned.stats.nodes == plain.stats.nodes == a, g
        else:
            assert pruned.stats.symmetry_skips > 0, g
            if g.n > 6:
                assert pruned.stats.nodes < plain.stats.nodes, g
            else:
                # one node whose rests are table reads: the rule cuts reads
                assert pruned.stats.table_reads < plain.stats.table_reads, g
    rng = random.Random(47)
    for _ in range(40):
        g = random_graph(rng, rng.randint(9, 12), rng.random())
        pruned, plain = certs(g)
        assert pruned.value == plain.value and pruned.witness == plain.witness, g


def test_orbit_rule_cuts_the_kak2_proof():
    # kak2 spends all of its nodes proving the lower bound, which only the
    # orbit rule shortens.
    pruned, plain = certs(cartesian_k2(8))
    assert pruned.stats.nodes * 10 < plain.stats.nodes
    assert plain.stats.symmetry_skips == 0


@pytest.mark.parametrize("a", [16, 24, 32])
def test_complete_bipartite_closes_before_any_generator_search(a):
    # td >= 1 + min degree = a + 1 closes each node at its first branch, and
    # the generators are fetched only after a first branch fails to close.
    g = complete_bipartite(a, a)
    cert = treedepth(g)
    assert cert.value == a + 1
    assert cert.stats.nodes == a
    assert solver._solved_for(g).gens is None


@pytest.mark.parametrize("build", [lambda: cartesian_k2(4), lambda: hn(4)[0]], ids=["kak2_4", "hn4"])
def test_both_reports_on_one_graph_search_its_generators_once(monkeypatch, build):
    # is_critical, uniqueness_report and every derive read the generators
    # kept in g's entry, so a 7- or 8-vertex graph is searched once.
    calls = []

    def counted(h):
        calls.append(h)
        return automorphism_generators(h)

    monkeypatch.setattr(solver, "automorphism_generators", counted)
    g = build()
    is_critical(g)
    uniqueness_report(g)
    assert len(calls) == 1 and calls[0] is g
    assert solver._solved_for(g).gens == automorphism_generators(g)


def test_generators_are_searched_only_for_large_underived_graphs():
    small = cartesian_k2(4)
    assert treedepth(small).stats.symmetry_skips == 0
    assert solver._solved_for(small).gens is None
    big = cartesian_k2(5)
    assert treedepth(big).stats.symmetry_skips > 0
    assert solver._solved_for(big).gens == automorphism_generators(big)
    # a graph whose answer needs no node gets none searched for
    clique = complete(12)
    treedepth(clique)
    assert solver._solved_for(clique).gens is None
