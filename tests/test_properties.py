"""Property tests of the exact solver and of one-step minors on random graphs of
at most 8 vertices, and of the graph codecs on graphs of up to 64 vertices.

They need hypothesis and are skipped without it. Examples are derandomized
and bounded, so every run draws the same graphs.
"""

from itertools import combinations

import pytest

from tdlab.formats import (
    format_edge_list,
    format_graph6,
    format_graph_text,
    parse_edge_list,
    parse_graph6,
    parse_graph_text,
)
from tdlab.graphs import (
    MAX_VERTICES,
    Graph,
    MinorStep,
    apply_minor_step,
    automorphism_generators,
    one_step_minor_steps,
)
from tdlab.ranking import verify_ranking
from tdlab.solver import (
    BRUTE_FORCE_MAX_VERTICES,
    brute_force_td,
    derive,
    treedepth,
    treedepth_le,
)
from test_formats import reference_graph6_decode, reference_graph6_encode

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def graphs(draw):
    n = draw(st.integers(1, BRUTE_FORCE_MAX_VERTICES))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [pair for pair, kept in zip(pairs, keep) if kept])


@hypothesis.settings(max_examples=300, derandomize=True, database=None, deadline=None)
@hypothesis.given(graphs())
def test_solver_value_witness_and_decision_form_agree_with_the_oracle(g):
    cert = treedepth(g)
    assert cert.value == brute_force_td(g)
    assert cert.witness.max_label == cert.value
    assert verify_ranking(g, cert.witness) is None
    # each decision on a new object, so it searches instead of reading the solve
    for k in range(g.n + 1):
        assert treedepth_le(Graph.from_adj(g.adj), k) == (cert.value <= k), k


def step_image(step, perm):
    # the same kind of step at the images of its vertices
    if step.kind == "delete_vertex":
        return MinorStep.del_vertex(perm[step.u])
    make = MinorStep.del_edge if step.kind == "delete_edge" else MinorStep.contract
    return make(perm[step.u], perm[step.v])


@hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
@hypothesis.given(graphs())
def test_one_step_minors_derived_fresh_and_under_automorphisms(g):
    base = treedepth(g).value
    steps = one_step_minor_steps(g)
    fresh = {step: treedepth(apply_minor_step(g, step)).value for step in steps}
    for step in steps:
        assert treedepth(derive(g, step)).value == fresh[step], step
        assert base - 1 <= fresh[step] <= base, step
    for perm in automorphism_generators(g):
        for step in steps:
            assert fresh[step_image(step, perm)] == fresh[step], (perm, step)


@st.composite
def large_graphs(draw):
    # The upper triangle as one integer; two draws combined by `&` or `|`
    # give sparse and dense graphs as well as half-full ones.
    n = draw(st.integers(1, MAX_VERTICES))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    bits = st.integers(0, (1 << len(pairs)) - 1)
    a, b, mix = draw(bits), draw(bits), draw(st.sampled_from("a&|"))
    mask = a if mix == "a" else a & b if mix == "&" else a | b
    return Graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


@hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
@hypothesis.given(large_graphs())
def test_graph6_and_edge_list_round_trips(g):
    s = format_graph6(g)
    assert s == reference_graph6_encode(g)
    assert parse_graph6(s) == g == reference_graph6_decode(s)
    assert format_graph6(parse_graph6(s)) == s
    text = format_edge_list(g)
    assert parse_edge_list(text) == g
    assert format_edge_list(parse_edge_list(text)) == text
    for fmt in ("edgelist", "graph6"):
        assert parse_graph_text(format_graph_text(g, fmt)) == g, fmt
