"""Exact solver: values, certificates, bounds, budgets, brute-force oracle."""

import gc
import hashlib
import random
import sys
import threading
import tracemalloc
import weakref
from itertools import islice, product
from pathlib import Path

import pytest

from tdlab import selftest, solver
from tdlab.formats import format_graph6, parse_graph6
from tdlab.graphs import (
    Graph,
    MinorStep,
    _drop_bit,
    apply_minor_step,
    bit_indices,
    cartesian_k2,
    complete,
    component_masks,
    cycle,
    hn,
    k_net,
    one_step_minor_steps,
    path,
    star_clique,
)
from tdlab.ranking import Ranking, verify_ranking
from tdlab.selftest import (
    iter_labeled_graphs,
    monotonicity_spot_check,
    oracle_equivalence_suite,
    random_graph,
)
from tdlab.solver import (
    DEFAULT_CONFIG,
    Bounds,
    BudgetExceededError,
    SolverConfig,
    _branch_order,
    _inherit,
    _Search,
    _small_key,
    _Solved,
    _split,
    bounds,
    brute_force_td,
    derive,
    search_feasible_labeling,
    treedepth,
    treedepth_le,
)
from test_ranking import induced_subgraph


def fresh_cert(g):
    # a search with its own stores, independent of those on the graph object
    return _Search(g, DEFAULT_CONFIG, _Solved()).certificate()


def assert_stores_valid(g, solved):
    # Both stores hold only connected masks; every memo value equals an
    # unbudgeted solve of its mask and every lower bound is at most that.
    ref = _Search(g, DEFAULT_CONFIG, _Solved())
    for mask, value in solved.memo.items():
        assert component_masks(g.adj, mask) == [mask]
        assert value == ref.solve_conn(mask), bin(mask)
    for mask, value in solved.lower.items():
        assert component_masks(g.adj, mask) == [mask]
        assert value <= ref.solve_conn(mask), bin(mask)


def assert_memo_exact(g):
    solved = solver._solved_for(g)
    assert solved.memo
    assert_stores_valid(g, solved)


def exact_td(adj, mask, memo):
    # The plain recursion, independent of the solver: one vertex is 1, a
    # disconnected mask its worst component, else 1 + the best removal.
    if mask not in memo:
        comps = component_masks(adj, mask)
        if len(comps) > 1:
            memo[mask] = max(exact_td(adj, c, memo) for c in comps)
        elif mask & (mask - 1) == 0:
            memo[mask] = 1
        else:
            memo[mask] = 1 + min(
                exact_td(adj, mask ^ (1 << v), memo) for v in bit_indices(mask)
            )
    return memo[mask]


# -- exact values -------------------------------------------------------------

def test_single_vertex():
    assert treedepth(complete(1)).value == 1


def test_cycle5_value():
    assert treedepth(cycle(5)).value == 4


def test_path4_value_against_brute_force():
    # oracle first: smallest k admitting a feasible labeling of P4 is 3
    assert brute_force_td(path(4)) == 3
    assert treedepth(path(4)).value == 3


def test_k_net_values():
    for k in range(1, 9):
        assert treedepth(k_net(k)).value == k + 1


def test_cartesian_k2_values():
    for a in range(1, 8):
        assert treedepth(cartesian_k2(a)).value == -(-3 * a // 2)


def test_hn_values():
    for n in range(3, 9):
        assert treedepth(hn(n)[0]).value == n + 1


def test_hub_family_growth():
    values = {n: treedepth(hn(n)[0]).value for n in range(3, 9)}
    for k in range(3, 8):
        assert values[k + 1] >= 1 + values[k]


def test_component_max_rule():
    rng = random.Random(13)
    for _ in range(30):
        parts = [random_graph(rng, rng.randint(1, 6), rng.random())
                 for _ in range(rng.randint(2, 3))]
        edges = []
        offset = 0
        for p in parts:
            edges.extend((u + offset, v + offset) for u, v in p.edges())
            offset += p.n
        g = Graph(offset, edges)
        assert treedepth(g).value == max(treedepth(p).value for p in parts)


# -- search invariants --------------------------------------------------------

def test_split_from_neighbours_matches_component_masks():
    # The search splits a connected mask minus v from v's neighbours; the
    # result must be the full split, in the same order, for every removal.
    for n in range(2, 7):
        for g in iter_labeled_graphs(n):
            full = g.full_mask()
            for v in range(n):
                rest = full ^ (1 << v)
                assert _split(g.adj, rest, g.adj[v] & rest) == component_masks(g.adj, rest)


def test_branch_order_is_decreasing_degree_then_index():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        for _ in range(10):
            mask = rng.getrandbits(g.n)
            expected = sorted(
                bit_indices(mask), key=lambda v: (-(g.adj[v] & mask).bit_count(), v)
            )
            assert _branch_order(g.adj, mask) == expected


def test_memo_holds_only_connected_masks():
    # A memo hit on the rest of a removal is read as one solved component;
    # lower bounds are kept for connected masks only, too.
    for g in [hn(6)[0], random_graph(random.Random(17), 12, 0.35)]:
        search = _Search(g, DEFAULT_CONFIG, _Solved())
        search.certificate()
        assert search.memo and search.lower
        for mask in [*search.memo, *search.lower]:
            assert component_masks(g.adj, mask) == [mask]


def test_bounded_solve_is_exact_below_ub_and_a_lower_bound_above():
    # For every connected mask and every ub: td when td < ub, else a value
    # in [ub, td]. Every connected labeled graph on at most 5 vertices and
    # every 16th on 6, each ub run on fresh stores that the masks then share.
    graphs = [g for n in range(1, 6) for g in iter_labeled_graphs(n)]
    graphs += list(iter_labeled_graphs(6))[::16]
    for g in graphs:
        td = {}
        masks = [m for m in range(1, 1 << g.n) if component_masks(g.adj, m) == [m]]
        for ub in range(1, g.n + 2):
            search = _Search(g, DEFAULT_CONFIG, _Solved())
            for mask in masks:
                want = exact_td(g.adj, mask, td)
                got = search.solve_conn(mask, ub)
                if want < ub:
                    assert got == want, (g, bin(mask), ub)
                else:
                    assert ub <= got <= want, (g, bin(mask), ub)
            for mask, value in search.memo.items():
                assert value == exact_td(g.adj, mask, td), (g, bin(mask), ub)
            for mask, value in search.lower.items():
                assert component_masks(g.adj, mask) == [mask]
                assert value <= exact_td(g.adj, mask, td), (g, bin(mask), ub)


def test_small_nodes_are_exact_at_and_below_td_plus_one(monkeypatch, small_sweep):
    # A node on at most _SMALL_MAX_VERTICES + 1 vertices starts its incumbent
    # at its size, with neither a DFS height nor the log-height bound. For
    # every connected labeled 6-vertex graph, with td read from the
    # small_sweep fixture, a fresh search of the full mask asked for a value
    # below td proves td, and one asked below td + 1 answers td exactly and
    # records the branch that attained it, except on K6, which closes before
    # any branch. A log-height bound taken from the size, ceil(log2(7)) = 3,
    # fails here on the six labeled stars K1,5, whose td is 2.
    monkeypatch.setattr(solver, "_dfs_height", None)  # a small node must not call it
    checked = 0
    for adj, value, _, _ in small_sweep.graphs:
        if len(adj) != 6:
            continue
        checked += 1
        g = Graph.from_adj(adj)
        full = g.full_mask()
        assert _Search(g, DEFAULT_CONFIG, _Solved()).solve_conn(full, value) == value, g
        search = _Search(g, DEFAULT_CONFIG, _Solved())
        assert search.solve_conn(full, value + 1) == value, g
        assert search.memo == {full: value}, g
        assert (full in search.pick) == (value < 6), g
    assert checked == 26704


# sha256 over "graph6 td labels" lines of every connected labeled graph on at
# most 6 vertices, as computed by the exact search before it was bounded.
SMALL6_WITNESS_SHA256 = "253ec8d6d6dcf4dab7a786ca6ce6cf319537eee1e40d986d88b2ff11946c7a65"


def test_witnesses_of_all_small_graphs_are_pinned(small_sweep):
    digest = hashlib.sha256()
    for adj, value, labels, _ in small_sweep.graphs:
        g6 = format_graph6(Graph.from_adj(adj))
        digest.update(f"{g6} {value} {' '.join(map(str, labels))}\n".encode())
    assert digest.hexdigest() == SMALL6_WITNESS_SHA256


PERFBENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def small6_graphs():
    lines = (PERFBENCH_INPUTS / "small6.txt").read_text().splitlines()
    return [parse_graph6(line.split()[0]) for line in lines]


# sha256 over "name td labels" lines of hn9, kak2_8 and the G(16, 0.3) pool
# members named gnp16_<seed>, as computed before the branch loop's
# subset-monotone cut.
SOLVE_HARD_WITNESS_SHA256 = "534730ad54146597a3ffca7a73fe086a254588bf537409625f90100c3331f248"


def test_solve_hard_witnesses_are_pinned():
    graphs = [(name, (PERFBENCH_INPUTS / f"{name}.g6").read_text()) for name in ("hn9", "kak2_8")]
    for line in (PERFBENCH_INPUTS / "gnp16.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            seed, g6 = line.split()[:2]
            graphs.append((f"gnp16_{seed}", g6))
    assert len(graphs) == 10
    digest = hashlib.sha256()
    for name, text in graphs:
        cert = treedepth(parse_graph6(text.strip()))
        labels = " ".join(map(str, cert.witness.labels))
        digest.update(f"{name} {cert.value} {labels}\n".encode())
    assert digest.hexdigest() == SOLVE_HARD_WITNESS_SHA256


class NoPicks(dict):
    # A pick store that keeps nothing, so every witness level runs the scan.
    def __setitem__(self, mask, v):
        pass


def test_recorded_picks_give_the_scan_witness():
    # The vertex that last lowered a node's incumbent is the one the witness
    # scan finds (see the solver's module docstring), so building the witness
    # from the recorded picks changes no label.
    graphs = small6_graphs()[::8]
    graphs += [hn(n)[0] for n in range(5, 10)] + [cartesian_k2(a) for a in range(3, 9)]
    for line in (PERFBENCH_INPUTS / "gnp16.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            graphs.append(parse_graph6(line.split()[1]))
    picked = 0
    for g in graphs:
        cert = treedepth(g)
        solved = solver._solved_for(g)
        assert solved.pick.keys() <= solved.memo.keys()
        picked += len(solved.pick)
        solved.pick = NoPicks()
        scanned = _Search(g, DEFAULT_CONFIG, solved).certificate()
        assert scanned.witness == cert.witness, format_graph6(g)
    assert (len(graphs), picked) == (3454, 3426)


# -- the table of small subgraphs ----------------------------------------------

def pattern_graph(key):
    # The graph a table key stands for: after the sentinel bit, each vertex's
    # adjacency to the later vertices, vertices in ascending order.
    bits = key.bit_length() - 1
    n = next(n for n in range(3, 6) if n * (n - 1) // 2 == bits)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [pair for i, pair in enumerate(pairs) if key >> (bits - 1 - i) & 1])


def assert_table_valid(entries, oracle_td, monkeypatch):
    # Each entry, connected or not, is the oracle's value with a verified
    # witness that is the one a search without the table builds.
    entries = dict(entries)
    with monkeypatch.context() as m:
        m.setattr(solver, "_SMALL_MAX_VERTICES", 2)
        for key, (value, labels) in entries.items():
            g = pattern_graph(key)
            assert _small_key(g.adj, g.full_mask()) == key
            assert value == oracle_td(g), g
            assert verify_ranking(g, Ranking(labels, value)) is None, g
            assert labels == fresh_cert(g).witness.labels, g


def all_small_keys():
    # the key of every labeled graph on 3 to 5 vertices, connected or not
    return {
        _small_key(g.adj, g.full_mask())
        for n in range(3, 6)
        for g in iter_labeled_graphs(n, connected_only=False)
    }


def test_table_of_small_subgraphs_is_exact_and_bounded(monkeypatch, small_sweep, oracle_td):
    # Every connected graph on 3 to 5 vertices is read at its own top level,
    # and every graph on 3 to 5 vertices, connected or not, is the rest of a
    # branch of some graph one vertex larger, so after all connected graphs
    # on at most 6 vertices the table holds every labeled graph on 3 to 5
    # vertices: 2^3 + 2^6 + 2^10 entries, and nothing else. The session's
    # sweep of those graphs starts from an empty table.
    table = small_sweep.table
    assert len(table) == 8 + 64 + 1024
    assert set(table) == all_small_keys()
    assert_table_valid(table, oracle_td, monkeypatch)


def test_disconnected_entries_are_their_components_side_by_side():
    # A disconnected entry holds the largest value of its components and
    # each component's labels at its own positions: those of the
    # component's entry, or the closed form of at most 2 vertices.
    disconnected = 0
    for n in range(3, 6):
        for g in iter_labeled_graphs(n, connected_only=False):
            full = g.full_mask()
            value, labels = _Search(g, DEFAULT_CONFIG, _Solved())._small(full)
            comps = component_masks(g.adj, full)
            if len(comps) == 1:
                continue
            disconnected += 1
            values = []
            want = {}
            for c in comps:
                k = c.bit_count()
                if k >= 3:
                    part, part_labels = solver._small_table[_small_key(g.adj, c)]
                else:
                    part, part_labels = k, tuple(range(k, 0, -1))
                values.append(part)
                want.update(zip(bit_indices(c), part_labels))
            assert value == max(values), g
            assert labels == tuple(want[v] for v in range(n)), g
    assert disconnected == 4 + 26 + 296


def history_graphs():
    graphs = [hn(n)[0] for n in range(4, 10)] + [cartesian_k2(a) for a in range(3, 7)]
    for line in (PERFBENCH_INPUTS / "gnp16.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            graphs.append(parse_graph6(line.split()[1]))
    return graphs + small6_graphs()[::8]


def test_certificates_do_not_depend_on_what_the_table_holds(small_sweep):
    # A table entry is filled in a search of its own, so neither the value,
    # the witness nor what the call counts depends on which entries earlier
    # solves of the process left behind: the table empty before each solve,
    # as a backward pass leaves it, or full as the session's sweep of small
    # graphs left it. Each pass solves new Graph objects, so only the table
    # carries over.
    def copies():
        return [Graph.from_adj(g.adj) for g in history_graphs()]

    def outcome(cert):
        # everything the call returns but its seconds
        return cert.value, cert.witness, cert.stats._replace(elapsed=0.0)

    cold = []
    for g in copies():
        solver._small_table.clear()
        cold.append(outcome(treedepth(g)))
    solver._small_table.clear()
    backwards = [outcome(treedepth(g)) for g in reversed(copies())][::-1]
    small_sweep.restore_table()
    assert len(solver._small_table) == 8 + 64 + 1024
    warm = [outcome(treedepth(g)) for g in copies()]
    assert sum(stats.table_reads for _, _, stats in warm) > 0
    assert backwards == cold
    assert warm == cold


def test_zero_budgets_solve_every_small_graph_exactly(monkeypatch, oracle_td):
    # A graph on 3 to 5 vertices, connected or not, is read from the table
    # of small subgraphs, and a missing entry is filled outside the call's
    # budget. So from an empty table, no node, no store entry and no time
    # still gives each its exact certificate, and leaves only valid entries.
    graphs = [g for n in range(3, 6) for g in iter_labeled_graphs(n, connected_only=False)]
    for config in (
        SolverConfig(node_budget=0), SolverConfig(memo_capacity=0), SolverConfig(time_budget=0.0)
    ):
        solver._small_table.clear()
        for g in graphs:
            cert = treedepth(Graph.from_adj(g.adj), config)
            assert cert.value == oracle_td(g), g
            assert cert.witness.max_label == cert.value, g
            assert verify_ranking(g, cert.witness) is None, g
            assert (cert.stats.nodes, cert.stats.memo_entries) == (0, 0), g
    assert_table_valid(solver._small_table, oracle_td, monkeypatch)


def cone(g, k):
    # g joined with K_k: k new vertices, each adjacent to every other vertex
    edges = list(g.edges()) + [(v, g.n + i) for i in range(k) for v in range(g.n + i)]
    return Graph(g.n + k, edges)


def test_universal_vertices_cost_one_node_each():
    # A vertex adjacent to every other one is the only branch its node needs,
    # td = 1 + td(G - u), so a k-fold cone costs the nodes of its base plus
    # one per cone vertex. Without that rule the search tries every branch
    # under each cone vertex: one cone over hn(9) costs 470 nodes, not 142,
    # and one over gnp16 member 129 23,644, not 9,864.
    graphs = [parse_graph6((PERFBENCH_INPUTS / f"{name}.g6").read_text().strip())
              for name in ("hn9", "kak2_8")]
    for line in (PERFBENCH_INPUTS / "gnp16.txt").read_text().splitlines():
        if line.startswith("129 "):
            graphs.append(parse_graph6(line.split()[1]))
    assert len(graphs) == 3
    for g in graphs:
        base = treedepth(g)
        for k in (1, 2):
            cert = treedepth(cone(g, k))
            assert cert.value == base.value + k, (format_graph6(g), k)
            assert cert.stats.nodes <= base.stats.nodes + k, (format_graph6(g), k)


def test_monotone_cut_shrinks_hn_search():
    # td(mask) >= td(mask - v) ends the branch loop once one removal's bound
    # reaches the cap; without that cut this search expands 5,953 nodes.
    assert treedepth(hn(8)[0]).stats.nodes < 5953


def test_cliques_close_at_their_first_node():
    # K_1 and K_2 are answered by their size and K_3..K_5 read from the table:
    # no node, no store entry. From K_6 on, the greedy clique bound meets the
    # DFS height, so a node closes before any branch with its exact value,
    # whatever bound above 2 was asked. The witness rebuild then asks the nested
    # cliques K_(k-1), ..., K_6 the same way, one node each, and takes the
    # vertices in ascending order.
    for k in range(1, 10):
        cert = treedepth(complete(k))
        assert cert.value == k
        assert cert.stats.nodes == cert.stats.memo_entries == max(0, k - 5)
        assert cert.witness.labels == tuple(range(k, 0, -1))
    for k in (6, 7, 8):
        full = (1 << k) - 1
        for ub in range(3, k + 2):
            search = _Search(complete(k), DEFAULT_CONFIG, _Solved())
            assert search.solve_conn(full, ub) == k
            assert search.nodes == 1 and search.memo == {full: k} and not search.lower
    # a triangle inside a larger graph, and every smaller clique of K_6
    triangle_plus = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    cases = [(triangle_plus, 0b0111)] + [(complete(6), m) for m in range(1, (1 << 6) - 1)]
    for g, mask in cases:
        for ub in range(1, mask.bit_count() + 2):
            search = _Search(g, DEFAULT_CONFIG, _Solved())
            assert search.solve_conn(mask, ub) == mask.bit_count()
            assert search.nodes == 0
            assert not search.memo and not search.lower


# -- parent memo reuse --------------------------------------------------------

def derived_graphs(g):
    # (step, graph) for every one-step minor and every star-clique transform
    for step in one_step_minor_steps(g):
        yield step, apply_minor_step(g, step)
    if g.n > 1:
        for v in range(g.n):
            yield v, star_clique(g, v)


def dropped_vertex(step):
    # the parent vertex a step removes, or None for an edge deletion
    if isinstance(step, int):
        return step
    if step.kind == "contract_edge":
        return max(step.u, step.v)
    if step.kind == "delete_vertex":
        return step.u
    return None


def parent_indices(step, n):
    # vertex i of the derived graph on n vertices is vertex up[i] of the parent
    removed = dropped_vertex(step)
    if removed is None:
        return list(range(n))
    return [i if i < removed else i + 1 for i in range(n)]


def test_minor_step_dropped_is_the_vertex_apply_minor_step_removes():
    # Every step of every labeled graph on 2-5 vertices, every vertex
    # deletion included: the minor has one vertex fewer exactly when a vertex
    # is dropped, and between the vertices the step does not touch (neither
    # endpoint) it keeps g's adjacency, each row shifted down at `dropped`.
    for n in range(2, 6):
        for g in iter_labeled_graphs(n, connected_only=False):
            steps = [MinorStep.del_vertex(v) for v in range(n)]
            for u, v in g.edges():
                steps += [MinorStep.del_edge(u, v), MinorStep.contract(u, v)]
            for step in steps:
                dropped = step.dropped
                assert dropped == dropped_vertex(step), step
                minor = apply_minor_step(g, step)
                assert minor.n == g.n - (dropped is not None), (g, step)
                d = n if dropped is None else dropped  # past every vertex: no shift
                keep = sum(1 << w for w in range(n) if w not in (step.u, step.v))
                for w in bit_indices(keep):
                    i = _drop_bit(1 << w, d).bit_length() - 1
                    row = minor.adj[i] & _drop_bit(keep, d)
                    assert row == _drop_bit(g.adj[w] & keep, d), (g, step, w)


def test_inherit_accepts_exactly_the_identical_subgraphs():
    # The lookup maps a mask S of the derived graph to the parent mask whose
    # stores the search reads. When each vertex's row inside S equals its
    # parent's row inside the parent mask, that is the mask P of the identical
    # subgraph. Otherwise it is ~P', where P' is P plus the dropped vertex, if
    # any: the parent subproblem that h[S] is one step away from. Every
    # labeled graph on 2-5 vertices, isolated vertices included, and every
    # 16th connected labeled graph on 6 vertices.
    graphs = [g for n in range(2, 6) for g in iter_labeled_graphs(n, connected_only=False)]
    graphs += list(iter_labeled_graphs(6))[::16]
    for g in graphs:
        for step, h in derived_graphs(g):
            up = parent_indices(step, h.n)
            dropped = dropped_vertex(step)
            drop_bit = 0 if dropped is None else 1 << dropped
            lookup = _inherit(g, h, dropped)
            # differ[i]: vertices whose adjacency to i is not the parent's
            differ = [
                h.adj[i] ^ sum(1 << j for j in range(h.n) if g.adj[up[i]] >> up[j] & 1)
                for i in range(h.n)
            ]
            same = [True] * (1 << h.n)
            lifted = [0] * (1 << h.n)
            for s in range(1, 1 << h.n):
                low = s & -s
                i = low.bit_length() - 1
                same[s] = same[s ^ low] and not differ[i] & s
                lifted[s] = lifted[s ^ low] | 1 << up[i]
                want = lifted[s] if same[s] else ~(lifted[s] | drop_bit)
                assert lookup(s) == want, (g, step, bin(s))


def test_one_step_facts_against_the_oracle(oracle_td):
    # The parent bound of the search rests on three facts, checked here with
    # brute_force_td and not with the solver: every one-step minor has td in
    # {td - 1, td}; every star-clique transform has td >= td - 1; and every
    # connected mask S of a derived graph whose lift is negative has
    # td(h[S]) >= td(g[P']) - 1, where P' = ~lift(S) is a connected mask of
    # g. Every connected labeled graph on 2-5 vertices, and every 16th
    # connected labeled graph on 6 vertices.
    def td(g, mask=None):
        if mask is not None:
            g = induced_subgraph(g, list(bit_indices(mask)))
        return oracle_td(g)

    graphs = [g for n in range(2, 6) for g in iter_labeled_graphs(n)]
    graphs += list(iter_labeled_graphs(6))[::16]
    for g in graphs:
        base = td(g)
        for step, h in derived_graphs(g):
            if isinstance(step, MinorStep):
                assert td(h) in (base - 1, base), (g, step)
            else:
                assert td(h) >= base - 1, (g, step)
            lift = _inherit(g, h, dropped_vertex(step))
            for s in range(1, 1 << h.n):
                p = lift(s)
                if p >= 0 or component_masks(h.adj, s) != [s]:
                    continue
                assert component_masks(g.adj, ~p) == [~p], (g, step, bin(s))
                assert td(h, s) >= td(g, ~p) - 1, (g, step, bin(s))


def canonical_elimination(g, td, memo):
    # The witness labels the solver promises, from the oracle `td` alone. In
    # a connected graph, the first vertex by decreasing degree, then lowest
    # index, whose removal leaves a rest of smaller tree-depth takes the
    # graph's tree-depth, and the rest is labeled the same way, component by
    # component. `memo` keeps each labeled graph's labels.
    labels = memo.get(g.adj)
    if labels is not None:
        return labels
    out = [0] * g.n
    comps = component_masks(g.adj, g.full_mask())
    if g.n == 1:
        out[0] = 1
    elif len(comps) > 1:
        for comp in comps:
            part = list(bit_indices(comp))
            for v, label in zip(part, canonical_elimination(induced_subgraph(g, part), td, memo)):
                out[v] = label
    else:
        value = td(g)
        for v in sorted(range(g.n), key=lambda v: (-g.adj[v].bit_count(), v)):
            rows = tuple(_drop_bit(row, v) for u, row in enumerate(g.adj) if u != v)
            rest = Graph._unchecked(rows)
            if td(rest) < value:
                labels = canonical_elimination(rest, td, memo)
                out = [*labels[:v], value, *labels[v:]]
                break
    labels = memo[g.adj] = tuple(out)
    return labels


def test_small_subproblem_rules_against_the_oracle(small_sweep, oracle_td):
    # The rules that settle small subproblems without branching, checked with
    # brute_force_td and not with the solver, on every connected labeled
    # graph with at most 6 vertices: a universal vertex u gives
    # td = 1 + td(G - u), and td >= 1 + the least degree. The same sweep
    # checks that the solver's witness is the canonical elimination.
    td = oracle_td
    canonical = {}
    for adj, _, labels, value in small_sweep.graphs:
        g = Graph.from_adj(adj)
        assert labels == canonical_elimination(g, td, canonical), g
        degrees = [g.degree(v) for v in range(g.n)]
        for u in range(g.n):
            if g.n >= 2 and degrees[u] == g.n - 1:
                rest = induced_subgraph(g, [v for v in range(g.n) if v != u])
                assert value == 1 + td(rest), (g, u)
        assert value >= 1 + min(degrees), g


def test_small_subgraphs_never_cost_a_node():
    # path(3) has 3 vertices, so its solve reads the table of small
    # subgraphs. From an empty table the first solve fills the entry in a
    # search of its own, whose node is not the call's; a later one, on a new
    # path(3) object with empty stores, reads it. Both cost no node and give
    # the same witness, which takes the labels of the entry the value came
    # from, so each call reads one entry.
    solver._small_table.clear()
    first = treedepth(path(3))
    assert _small_key(path(3).adj, path(3).full_mask()) in solver._small_table
    again = treedepth(path(3))
    assert (first.value, first.stats.nodes, first.stats.memo_entries) == (2, 0, 0)
    assert (again.value, again.stats.nodes, again.stats.memo_entries) == (2, 0, 0)
    assert again.witness == first.witness
    assert first.stats.table_reads == again.stats.table_reads == 1


def test_inherited_solves_match_fresh_solves():
    rng = random.Random(29)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 9), rng.random())
        treedepth(g)
        for step, h in derived_graphs(g):
            derived = derive(g, step)
            cert = treedepth(derived)
            want = fresh_cert(h)
            assert cert.value == want.value and cert.witness == want.witness, (g, step)
            assert_stores_valid(h, solver._solved_for(derived))


class DroppableGraph(Graph):
    # a Graph whose deletion a weak reference can observe
    __slots__ = ("__weakref__",)


def test_derived_solve_reads_a_deleted_parent():
    # The derived graph keeps its parent's entry, so the parent's stores still
    # serve it after the parent graph itself has been deleted.
    g = DroppableGraph.from_adj(hn(6)[0].adj)
    treedepth(g)
    h = derive(g, one_step_minor_steps(g)[0])
    parent = weakref.ref(g)
    del g
    gc.collect()
    assert parent() is None
    cert = treedepth(h)
    want = fresh_cert(h)
    assert cert.value == want.value and cert.witness == want.witness
    assert cert.stats.nodes < want.stats.nodes


def test_chained_derived_solves_match_fresh_solves():
    rng = random.Random(37)
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 9), rng.random())
        treedepth(g)
        s1 = rng.choice(list(derived_graphs(g)))[0]
        h1 = derive(g, s1)
        if rng.random() < 0.5:
            treedepth(h1)
        s2, h2 = rng.choice(list(derived_graphs(h1)))
        derived = derive(h1, s2)
        cert = treedepth(derived)
        want = fresh_cert(h2)
        assert cert.value == want.value and cert.witness == want.witness, (g, s1, s2)
        assert_stores_valid(h1, solver._solved_for(h1))
        assert_stores_valid(h2, solver._solved_for(derived))


def test_inherited_minor_solves_expand_fewer_nodes():
    g = hn(6)[0]
    treedepth(g)
    inherited = fresh = 0
    for step in one_step_minor_steps(g):
        inherited += treedepth(derive(g, step)).stats.nodes
        fresh += fresh_cert(apply_minor_step(g, step)).stats.nodes
    assert inherited < fresh


# -- memory --------------------------------------------------------------------

def test_solver_memory_follows_the_graphs_the_caller_holds():
    # What a solve learns lives on its Graph object, so solving graphs that
    # the caller drops leaves nothing behind but the bounded table of small
    # subgraphs. 5,500 distinct connected labeled graphs on 6 vertices; the
    # first 500 warm the table.
    graphs = islice(iter_labeled_graphs(6), 0, 22000, 4)
    tracemalloc.start()
    try:
        for g in islice(graphs, 500):
            treedepth(g)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        solved = 0
        for g in graphs:
            treedepth(g)
            solved += 1
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert solved == 5000
    assert growth < 1 << 20, growth


# -- decision form -----------------------------------------------------------------

def test_treedepth_le():
    assert not treedepth_le(cycle(5), 3)
    assert treedepth_le(cycle(5), 4)
    assert not treedepth_le(hn(5)[0], 5)
    for g in [path(6), complete(4), k_net(2)]:
        assert treedepth_le(g, g.n)
    assert not treedepth_le(path(2), 0)
    with pytest.raises(ValueError):
        treedepth_le(path(2), -1)


def test_treedepth_le_is_a_bounded_search():
    # Every k agrees with the exact value, and no certificate is built.
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 11), rng.random())
        td = fresh_cert(g).value
        for k in range(g.n + 1):
            assert treedepth_le(g, k) == (td <= k), (g, k)
        assert solver._solved_for(g).cert is None


# -- certificates ----------------------------------------------------------------------

def test_certificate_soundness_families():
    for g in [complete(5), cycle(7), path(9), k_net(4), cartesian_k2(4), hn(5)[0]]:
        cert = treedepth(g)
        assert verify_ranking(g, cert.witness) is None
        assert cert.witness.max_label == cert.value
        assert cert.witness.colors == cert.value


def test_certificate_soundness_random():
    rng = random.Random(23)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        cert = treedepth(g)
        assert verify_ranking(g, cert.witness) is None
        assert cert.witness.max_label == cert.value


def test_certificates_are_deterministic():
    g = hn(5)[0]
    a = fresh_cert(g)
    b = fresh_cert(g)
    assert a.value == b.value
    assert a.witness == b.witness
    c = treedepth(g)  # the path through the stores on g
    assert c.value == a.value and c.witness == a.witness


def test_minor_monotonicity_random():
    ok, detail = monotonicity_spot_check(41, rounds=25, max_n=10)
    assert ok, detail


# -- bounds ------------------------------------------------------------------------------

def test_bounds_examples():
    b = bounds(complete(6))
    assert b.lower >= 6 and b.upper == 6
    assert bounds(path(7)).lower >= 3
    assert bounds(path(7)).upper == 4  # DFS from the middle vertex
    assert brute_force_td(path(7)) == 3  # the lower bound is tight here
    assert bounds(hn(5)[0]).lower >= 4


def test_bounds_enclose_truth():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        b = bounds(g)
        td = treedepth(g).value
        assert b.lower <= td <= b.upper


# -- budgets ----------------------------------------------------------------------------------

def test_default_config_repr():
    assert repr(SolverConfig()) == (
        "SolverConfig(node_budget=None, time_budget=None, memo_capacity=None)"
    )


def test_node_budget_exhaustion_reports_bounds():
    g = hn(5)[0]
    with pytest.raises(BudgetExceededError) as err:
        treedepth(g, SolverConfig(node_budget=3))
    b = err.value.bounds
    assert isinstance(b, Bounds)
    assert b.lower <= 6 <= b.upper
    assert err.value.stats.nodes == 3


def test_treedepth_le_budget_stop_answers_when_bounds_settle_k():
    # The bounded search alone decides; when a budget stops it, `bounds`
    # answers if it settles k, as a budget stop of `treedepth` returns a
    # value the bounds pin. hn(5): bounds [4, 7], td 6.
    zero = SolverConfig(node_budget=0)
    assert treedepth_le(hn(5)[0], 7, zero)
    assert not treedepth_le(hn(5)[0], 3, zero)
    with pytest.raises(BudgetExceededError) as err:
        treedepth_le(hn(5)[0], 5, zero)
    assert err.value.bounds == Bounds(4, 7)
    assert err.value.stats.nodes == 0


def test_time_budget_exhaustion():
    g = cartesian_k2(7)
    with pytest.raises(BudgetExceededError):
        treedepth(g, SolverConfig(time_budget=0.0))


def test_memo_capacity_acts_as_budget():
    g = hn(5)[0]
    with pytest.raises(BudgetExceededError):
        treedepth(g, SolverConfig(memo_capacity=2))


def test_memo_capacity_bounds_both_stores():
    # Values written as the recursion unwinds, lower bounds and values
    # copied from the parent's memo all count, so the two stores together
    # never pass the capacity.
    g = hn(6)[0]
    treedepth(g)
    config = SolverConfig(memo_capacity=30)
    for step in one_step_minor_steps(g):
        for inherit in (True, False):
            h = derive(g, step) if inherit else apply_minor_step(g, step)
            try:
                entries = treedepth(h, config).stats.memo_entries
            except BudgetExceededError as exc:
                entries = exc.stats.memo_entries
            solved = solver._solved_for(h)
            assert entries == len(solved.memo) + len(solved.lower) <= 30, step


def test_generous_budget_still_exact():
    cert = treedepth(cycle(5), SolverConfig(node_budget=10**8, time_budget=60.0))
    assert cert.value == 4


@pytest.mark.parametrize(
    "config",
    [SolverConfig(node_budget=0), SolverConfig(time_budget=0.0), SolverConfig(memo_capacity=0)],
)
def test_budget_stop_with_pinned_bounds_returns_certificate(monkeypatch, config):
    # The star K_1,5 with its centre at 0 and at 5, and K_6, each need one
    # node, which every zero budget stops. Their bounds meet, so the DFS
    # ranking behind the upper bound is an optimal witness.
    dfs_rankings = []
    real = solver._dfs_ranking

    def counted(g):
        dfs_rankings.append(g)
        return real(g)

    monkeypatch.setattr(solver, "_dfs_ranking", counted)
    stopped = [
        (Graph(6, [(0, v) for v in range(1, 6)]), 2),
        (Graph(6, [(v, 5) for v in range(5)]), 2),
        (complete(6), 6),
    ]
    for g, value in stopped:
        cert = treedepth(g, config)
        assert dfs_rankings[-1] is g
        assert cert.value == value
        assert cert.witness.max_label == cert.witness.colors == value
        assert verify_ranking(g, cert.witness) is None
    assert len(dfs_rankings) == len(stopped)
    # K2, P3 with its middle vertex at index 0 (graph6 Bo) and at index 1
    # (Bg), and a disconnected graph: closed forms and table reads, which no
    # budget stops.
    exact = [path(2), Graph(3, [(0, 1), (0, 2)]), path(3), Graph(6, [(0, 1), (2, 3), (2, 4)])]
    for g in exact:
        cert = treedepth(g, config)
        assert cert.value == 2 and verify_ranking(g, cert.witness) is None
    assert len(dfs_rankings) == len(stopped)


def test_budget_stops_resume_on_exact_memo():
    # Budgeted calls share the graph's memo: each stop leaves only exact
    # values behind, and a later call resumes from them.
    g = hn(6)[0]
    want = fresh_cert(g)
    for budget in (1, 3, 6, 10, 15):
        with pytest.raises(BudgetExceededError):
            treedepth(g, SolverConfig(node_budget=budget))
    assert_memo_exact(g)
    cert = treedepth(g)
    assert cert.value == want.value and cert.witness == want.witness
    assert cert.stats.nodes < want.stats.nodes
    assert_memo_exact(g)


def test_solved_graph_needs_no_budget():
    g = hn(5)[0]
    cert = treedepth(g)
    zero = SolverConfig(node_budget=0)
    assert treedepth(g, zero) is cert
    assert treedepth_le(g, 6, zero)
    assert not treedepth_le(g, 5, zero)


def test_concurrent_budgeted_callers():
    # Budgets and node counts belong to each call, so callers with different
    # budgets on one graph cannot change each other's limits or results.
    g = hn(6)[0]
    want = fresh_cert(g)
    got = []
    errors = []

    def call(budget):
        for _ in range(3):
            try:
                got.append(treedepth(g, SolverConfig(node_budget=budget)))
            except BudgetExceededError as exc:
                if budget is None or exc.stats.nodes != budget:
                    errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=call, args=(b,)) for b in (None, 3, 40, None, 7)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert not errors
    assert len(got) >= 6
    assert all(c.value == want.value and c.witness == want.witness for c in got)
    assert_memo_exact(g)


# -- brute force oracle -------------------------------------------------------------------------

def test_brute_force_cliques():
    for m in range(1, 6):
        assert brute_force_td(complete(m)) == m


def test_brute_force_cycle5():
    assert brute_force_td(cycle(5)) == 4


def test_brute_force_size_cap():
    with pytest.raises(ValueError):
        brute_force_td(complete(9))


def test_oracle_equivalence_suite_passes_and_reports_a_disagreement(monkeypatch):
    assert oracle_equivalence_suite(4) == (True, "44 connected graphs up to 4 vertices")
    # An oracle one above the truth on every graph: the suite stops at the
    # first graph, the single vertex, and names both values.
    monkeypatch.setattr(selftest, "brute_force_td", lambda g: g.n + 1)
    ok, detail = oracle_equivalence_suite(4)
    assert not ok
    assert detail == f"solver=1 brute_force=2 on {Graph(1, [])!r}"


def test_search_feasible_labeling_respects_pins():
    g = path(3)
    got = search_feasible_labeling(g, 2, fixed={1: 2}, min_free_label=1)
    assert got == (1, 2, 1)
    assert search_feasible_labeling(g, 2, fixed={0: 2, 2: 2}) is None
    with pytest.raises(ValueError):
        search_feasible_labeling(g, 2, fixed={0: 3})


def test_search_feasible_labeling_is_lexicographically_first():
    g = path(4)
    got = search_feasible_labeling(g, 3)
    labelings = []
    for labels in product((1, 2, 3), repeat=4):
        if verify_ranking(g, Ranking(labels, 3)) is None:
            labelings.append(labels)
    assert got == min(labelings)


def first_feasible_by_enumeration(g, k, pinned=None):
    # The least labeling in lexicographic order that verify_ranking accepts:
    # all of {1..k}^n, or, with a vertex pinned to 1, that vertex at 1 and
    # every other vertex in {2..k}.
    if pinned is None:
        candidates = product(range(1, k + 1), repeat=g.n)
    else:
        candidates = (
            rest[:pinned] + (1,) + rest[pinned:]
            for rest in product(range(2, k + 1), repeat=g.n - 1)
        )
    for labels in candidates:
        if verify_ranking(g, Ranking(labels, k)) is None:
            return labels
    return None


def test_search_feasible_labeling_against_enumeration():
    # The allowed-label rule against plain enumeration: every labeled graph
    # on at most 4 vertices, connected or not, and every k <= n; then the
    # pinned form of one_unique_direct on every connected graph on at most
    # 5 vertices, every vertex and every k <= n.
    for n in range(1, 5):
        for g in iter_labeled_graphs(n, connected_only=False):
            for k in range(1, n + 1):
                assert search_feasible_labeling(g, k) == first_feasible_by_enumeration(g, k), (g, k)
    for n in range(2, 6):
        for g in iter_labeled_graphs(n):
            for v in range(n):
                for k in range(1, n + 1):
                    got = search_feasible_labeling(g, k, fixed={v: 1}, min_free_label=2)
                    assert got == first_feasible_by_enumeration(g, k, pinned=v), (g, v, k)
