"""Edge-list, graph6, and ranking codecs: frozen vectors, round trips, errors."""

import random

import pytest

from tdlab.formats import (
    FormatError,
    _data_lines,
    detect_graph_format,
    format_edge_list,
    format_graph6,
    format_graph_text,
    format_ranking,
    parse_edge_list,
    parse_graph6,
    parse_graph_text,
    parse_ranking,
)
from tdlab.graphs import Graph, cartesian_k2, complete, cycle, hn, k_net, path
from tdlab.ranking import Ranking
from tdlab.selftest import random_graph

# Encodings computed by hand from the published 6-bit packing (upper triangle
# column by column, offset 63) and frozen here.
GRAPH6_VECTORS = [
    (complete(1), "@"),
    (complete(2), "A_"),
    (path(3), "Bg"),
    (path(4), "Ch"),
    (complete(4), "C~"),
    (cycle(5), "Dhc"),
    (k_net(3), "E{O_"),
    (cartesian_k2(3), "E{Sw"),
    (hn(4)[0], "FJqc_"),
]


# -- edge list ----------------------------------------------------------------

def test_edge_list_output_is_normalized():
    g = Graph(4, [(3, 1), (2, 0), (1, 0)])
    assert format_edge_list(g) == "4 3\n0 1\n0 2\n1 3\n"


def test_edge_list_round_trip_families():
    for g in [complete(1), path(7), cycle(6), k_net(4), cartesian_k2(4), hn(5)[0]]:
        assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_and_blanks_ignored():
    text = "# a comment\n\n3 2\n0 1\n   # indented comment\n1 2\n"
    assert parse_edge_list(text) == path(3)


def test_edge_list_parse_errors_carry_location():
    with pytest.raises(FormatError) as err:
        parse_edge_list("3 1\n0 x\n")
    assert err.value.line == 2
    assert err.value.column == 3

    for bad in ["", "3\n", "2 1\n0 0\n", "2 1\n0 5\n", "3 2\n0 1\n0 1\n", "3 2\n0 1\n"]:
        with pytest.raises(FormatError):
            parse_edge_list(bad)


# -- graph6 ----------------------------------------------------------------------

def test_graph6_frozen_vectors():
    for g, expected in GRAPH6_VECTORS:
        assert format_graph6(g) == expected
        assert parse_graph6(expected) == g


def reference_graph6_decode(s):
    # Bit by bit from the published packing: size field, then the upper
    # triangle column by column, six bits per character, highest bit first.
    if s[0] == "~":
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    bits = [(ord(ch) - 63) >> shift & 1 for ch in body for shift in range(5, -1, -1)]
    pairs = [(row, col) for col in range(1, n) for row in range(col)]
    assert not any(bits[len(pairs):])
    return Graph(n, [pair for pair, bit in zip(pairs, bits) if bit])


def test_graph6_round_trip_random():
    rng = random.Random(99)
    sizes = list(range(1, 65)) + [63, 63, 64, 64] + [rng.randint(1, 64) for _ in range(200)]
    for n in sizes:
        g = random_graph(rng, n, rng.random())
        s = format_graph6(g)
        h = parse_graph6(s)
        assert h == g == reference_graph6_decode(s)
        # the decoder skips from_adj's checks; its rows must pass them anyway
        assert type(h.adj) is tuple and Graph.from_adj(h.adj) == h


def reference_graph6_encode(g):
    # Bit by bit from the published packing: a list of the upper triangle's
    # bits column by column, regrouped six at a time with zero padding.
    n = g.n
    head = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bits = [g.adj[col] >> row & 1 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    groups = [bits[i : i + 6] for i in range(0, len(bits), 6)]
    return head + "".join(chr(63 + int("".join(map(str, group)), 2)) for group in groups)


def test_graph6_round_trip_at_the_size_boundaries():
    # n = 62 is the last short size field, 63 the first long one, 64 the cap
    rng = random.Random(19)
    for n in (1, 2, 62, 63, 64):
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            g = random_graph(rng, n, p)
            s = format_graph6(g)
            assert s.startswith("~") == (n > 62)
            assert s == reference_graph6_encode(g)
            assert parse_graph6(s) == g == reference_graph6_decode(s)


def test_graph6_long_size_form():
    for g in [complete(63), path(64)]:
        s = format_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<Bg") == path(3)


def test_graph6_rejects_bad_input():
    long63 = format_graph6(path(63))
    cases = [
        ("", "empty graph6 input (line 1)"),
        ("B ", "graph6 body for n=3 needs 1 characters, found 0 (line 1)"),
        ("Dh c", "invalid graph6 character ' ' (line 1, column 3)"),
        # places are those of the input as given: past a header, leading
        # blanks and leading blank lines
        (">>graph6<<Dh c", "invalid graph6 character ' ' (line 1, column 13)"),
        ("  Dh c", "invalid graph6 character ' ' (line 1, column 5)"),
        ("\n\nDh c", "invalid graph6 character ' ' (line 3, column 3)"),
        ("\n\nBgg", "graph6 body for n=3 needs 1 characters, found 2 (line 3)"),
        ("B\u00e9", "invalid graph6 character '\u00e9' (line 1, column 2)"),
        ("B\x7f", "invalid graph6 character '\\x7f' (line 1, column 2)"),
        # the first bad character is named, not the lowest or the highest
        ("Dh\u00e9!", "invalid graph6 character '\u00e9' (line 1, column 3)"),
        ("Bgg", "graph6 body for n=3 needs 1 characters, found 2 (line 1)"),
        ("B", "graph6 body for n=3 needs 1 characters, found 0 (line 1)"),
        (long63[:-1], "graph6 body for n=63 needs 326 characters, found 325 (line 1)"),
        # nonzero padding bits: P3 body 'g' is 101000; 'h' = 101001 sets a pad bit
        ("Bh", "nonzero padding bits in graph6 body (line 1)"),
        ("A`", "nonzero padding bits in graph6 body (line 1)"),
        (long63[:-1] + chr(ord(long63[-1]) + 1), "nonzero padding bits in graph6 body (line 1)"),
        ("?", "graphs must have at least one vertex (line 1)"),
        ("~?B~", "graph on 255 vertices exceeds the 64-vertex cap (line 1)"),
        ("~~~~~~~~", "graph6 8-byte size form exceeds the 64-vertex cap (line 1)"),
        # blank and `#` lines are skipped; one graph line per input
        ("# note\n  Dh c", "invalid graph6 character ' ' (line 2, column 5)"),
        ("# only comments\n", "empty graph6 input (line 1)"),
        ("Dhc\nDhc\n", "expected one graph6 line, found 2 (line 2)"),
        ("# one\nBg\n# two\nBg\nBg", "expected one graph6 line, found 3 (line 4)"),
    ]
    for text, message in cases:
        with pytest.raises(FormatError) as err:
            parse_graph6(text)
        assert str(err.value) == message, text


def test_graph6_skips_comment_lines():
    # Blank and `#` lines are skipped as in every format, so the parser
    # accepts whatever detection sends it.
    for text in ["# comment\nDhc", "Dhc\n# trailing\n", "\n  # a\n\nDhc\n\n", ">>graph6<<\nDhc\n"]:
        assert detect_graph_format(text) == "graph6"
        assert parse_graph6(text) == parse_graph_text(text) == parse_graph6("Dhc"), repr(text)


def test_graph6_matches_reference_library():
    nx = pytest.importorskip("networkx")
    rng = random.Random(4)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 30), rng.random())
        ref = nx.Graph()
        ref.add_nodes_from(range(g.n))
        ref.add_edges_from(g.edges())
        assert format_graph6(g) == nx.to_graph6_bytes(ref, header=False).decode().strip()


# -- auto-detection -----------------------------------------------------------------

def test_detect_graph_format():
    assert detect_graph_format("3 2\n0 1\n1 2\n") == "edgelist"
    assert detect_graph_format("Bg\n") == "graph6"
    assert detect_graph_format("# note\nBg\n") == "graph6"
    with pytest.raises(FormatError):
        detect_graph_format("# only comments\n")


def test_detect_graph_format_reads_the_first_data_line_only():
    def by_data_lines(text):  # the verdict from the fully split text
        lines = _data_lines(text)
        if not lines:
            raise FormatError("empty graph input", line=1)
        first = lines[0][1].lstrip()[0]
        return "edgelist" if first.isdigit() or first in "+-" else "graph6"

    empty = ["", "\n", "  \n\t\n\n", "# only\n  # comments\n", "\r\n# crlf\r\n\r\n", "#"]
    for text in empty:
        with pytest.raises(FormatError) as err:
            detect_graph_format(text)
        assert str(err.value) == "empty graph input (line 1)"
        with pytest.raises(FormatError) as ref:
            by_data_lines(text)
        assert str(ref.value) == str(err.value)
    texts = [
        "3 2\r\n0 1\r\n1 2\r\n",
        "\r\n  Bg  \r\n",
        "# n m\n\n  # note\n  4 0\n",
        "   # indented comment\nBg\n",
        "Bg\n3 2\n",  # only the first data line decides
        "3 2\nBg\n",
        "\u2028Bg",  # splitlines also splits at U+2028
        "+3 2\n0 1\n1 2\n",  # int() reads a sign, so a header may start with one
        "  -3 2\n",
    ]
    for text in texts:
        assert detect_graph_format(text) == by_data_lines(text), repr(text)
    assert [detect_graph_format(t) for t in texts[:4]] == ["edgelist", "graph6", "edgelist", "graph6"]
    assert [detect_graph_format(t) for t in texts[-2:]] == ["edgelist", "edgelist"]
    assert parse_graph_text(texts[-2]) == path(3)
    with pytest.raises(FormatError) as err:
        parse_graph_text(texts[-1])
    assert str(err.value) == "bad header counts n=-3 m=2 (line 1)"


def test_parse_graph_text_forced_format():
    assert parse_graph_text("Bg", fmt="graph6") == path(3)
    with pytest.raises(FormatError):
        parse_graph_text("3 2\n0 1\n1 2\n", fmt="graph6")
    with pytest.raises(ValueError):
        parse_graph_text("Bg", fmt="dot")


def test_format_graph_text_round_trip_both_formats():
    rng = random.Random(12)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 20), rng.random())
        for fmt in ("edgelist", "graph6"):
            assert parse_graph_text(format_graph_text(g, fmt)) == g


# -- ranking line -----------------------------------------------------------------------

def test_ranking_round_trip():
    r = Ranking((3, 1, 2, 1), 3)
    assert format_ranking(r) == "3: 3 1 2 1\n"
    assert parse_ranking(format_ranking(r)) == r


def test_ranking_parse_errors():
    for bad in ["", "3 1 2", "x: 1 2", "2: 1 3", "2: a b", "1: 1\n1: 1\n"]:
        with pytest.raises(FormatError):
            parse_ranking(bad)
    # the column counts from the start of the line, not from the colon
    with pytest.raises(FormatError) as err:
        parse_ranking("3: 1 x 2")
    assert str(err.value) == "not an integer: 'x' (line 1, column 6)"
