"""Text formats: edge-list files, graph6 strings, and ranking lines.

Lines whose first non-blank character is ``#`` and blank lines are ignored
on input, in every format.

Edge list: first line ``n m``, then m lines ``u v`` with 0-based vertex
indices. Output is normalized: u < v on every edge line, edges ascending.

graph6: the compact ASCII encoding used by the common graph tool chains
(6 bits per character, offset 63, upper triangle packed column by column,
padded with zero bits). Both the short form (n <= 62) and the 4-character
long form are supported; an optional ``>>graph6<<`` header is accepted on
input, before the graph on its line or on a line of its own. One graph
line per input.

Ranking line: ``k: l_0 l_1 ... l_{n-1}``.
"""

from __future__ import annotations

import re

from .graphs import Graph
from .ranking import Ranking

_GRAPH6_HEADER = ">>graph6<<"
_NOT_GRAPH6 = re.compile(r"[^?-~]")  # outside chr(63)..chr(126)
_FIELD = re.compile(r"\S+")


class FormatError(ValueError):
    """Parse failure with an optional 1-based line/column location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


def _data_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if stripped and stripped[0] != "#":
            out.append((lineno, raw))
    return out


def _int_tokens(lineno: int, line: str, expect: int, start: int = 0) -> list[int]:
    """The integer fields of `line` from index `start` on; a column names the
    field's place in the whole line."""
    tokens = list(_FIELD.finditer(line, start))
    if len(tokens) != expect:
        raise FormatError(
            f"expected {expect} fields, found {len(tokens)}", line=lineno
        )
    values = []
    for tok in tokens:
        try:
            values.append(int(tok.group()))
        except ValueError:
            raise FormatError(
                f"not an integer: {tok.group()!r}", line=lineno, column=tok.start() + 1
            ) from None
    return values


# ---------------------------------------------------------------------------
# Edge-list format
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    return _parse_edge_list(_data_lines(text))


def _parse_edge_list(lines: list[tuple[int, str]]) -> Graph:
    if not lines:
        raise FormatError("empty input", line=1)
    lineno, header = lines[0]
    n, m = _int_tokens(lineno, header, 2)
    if n < 1 or m < 0:
        raise FormatError(f"bad header counts n={n} m={m}", line=lineno)
    if len(lines) - 1 != m:
        raise FormatError(
            f"header promises {m} edges, found {len(lines) - 1} edge lines",
            line=lineno,
        )
    edges = []
    seen = set()
    for lineno, line in lines[1:]:
        u, v = _int_tokens(lineno, line, 2)
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"vertex out of range on edge ({u}, {v})", line=lineno)
        if u == v:
            raise FormatError(f"loop at vertex {u}", line=lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"duplicate edge ({u}, {v})", line=lineno)
        seen.add(key)
        edges.append(key)
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6 format
# ---------------------------------------------------------------------------

def format_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    # The upper triangle as one integer, column by column, row 0 highest in
    # each column (the inverse of parse_graph6), zero-padded to whole characters.
    bits = 0
    for col in range(1, n):
        column = g.adj[col] & ~(-1 << col)
        bits <<= col
        while column:
            low = column & -column
            column ^= low
            bits |= 1 << col - low.bit_length()
    nbits = n * (n - 1) // 2
    pos = nbits + -nbits % 6  # the padded length
    bits <<= pos - nbits
    return head + "".join([chr(63 + (bits >> s & 63)) for s in range(pos - 6, -1, -6)])


def parse_graph6(text: str) -> Graph:
    return _parse_graph6(_data_lines(text))


def _parse_graph6(lines: list[tuple[int, str]]) -> Graph:
    if lines and lines[0][1].strip() == _GRAPH6_HEADER:  # a header line of its own
        lines = lines[1:]
    if not lines:
        raise FormatError("empty graph6 input", line=1)
    if len(lines) > 1:
        raise FormatError(f"expected one graph6 line, found {len(lines)}", line=lines[1][0])
    # Columns name places in the line as given: `start` indexes the
    # encoding's first character, past leading blanks and the header.
    lineno, line = lines[0]
    start = len(line) - len(line.lstrip())
    if line.startswith(_GRAPH6_HEADER, start):
        start += len(_GRAPH6_HEADER)
        start = len(line) - len(line[start:].lstrip())
    s = line[start:].rstrip()
    bad = _NOT_GRAPH6.search(s)
    if bad:
        raise FormatError(
            f"invalid graph6 character {bad.group()!r}",
            line=lineno, column=start + bad.start() + 1,
        )
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise FormatError("graph6 8-byte size form exceeds the 64-vertex cap", line=lineno)
        if len(s) < 4:
            raise FormatError("truncated graph6 size field", line=lineno)
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n == 0:
        raise FormatError("graphs must have at least one vertex", line=lineno)
    if n > 64:
        raise FormatError(f"graph on {n} vertices exceeds the 64-vertex cap", line=lineno)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise FormatError(
            f"graph6 body for n={n} needs {need} characters, found {len(body)}", line=lineno
        )
    # The whole body as one integer, first character highest; the padding is
    # its low 6 * need - nbits bits.
    bits = 0
    for ch in body.encode("ascii"):
        bits = bits << 6 | (ch - 63)
    pos = 6 * need
    if bits & ((1 << (pos - nbits)) - 1):
        raise FormatError("nonzero padding bits in graph6 body", line=lineno)
    # Column col is the next col bits, row 0 highest. Every edge has
    # row < col < n and sets both rows, so the Graph invariants hold.
    rows = [0] * n
    for col in range(1, n):
        pos -= col
        column = bits >> pos & ((1 << col) - 1)
        while column:
            low = column & -column
            column ^= low
            row = col - low.bit_length()
            rows[row] |= 1 << col
            rows[col] |= 1 << row
    return Graph._unchecked(tuple(rows))


# ---------------------------------------------------------------------------
# Auto-detection. An edge list's first data line starts with a digit or a
# sign (int() reads "+3"); graph6 characters all live in the 63..126 range,
# so the two first-character profiles are disjoint.
# ---------------------------------------------------------------------------

def detect_graph_format(text: str) -> str:
    return _detect(_data_lines(text))


def _detect(lines: list[tuple[int, str]]) -> str:
    if not lines:
        raise FormatError("empty graph input", line=1)
    first = lines[0][1].lstrip()[0]
    return "edgelist" if first.isdigit() or first in "+-" else "graph6"


def parse_graph_text(text: str, fmt: str | None = None) -> Graph:
    lines = _data_lines(text)  # split once, for detection and parsing both
    if fmt is None:
        fmt = _detect(lines)
    if fmt == "edgelist":
        return _parse_edge_list(lines)
    if fmt == "graph6":
        return _parse_graph6(lines)
    raise ValueError(f"unknown graph format {fmt!r}")


def format_graph_text(g: Graph, fmt: str = "edgelist") -> str:
    if fmt == "edgelist":
        return format_edge_list(g)
    if fmt == "graph6":
        return format_graph6(g) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}")


# ---------------------------------------------------------------------------
# Ranking line
# ---------------------------------------------------------------------------

def parse_ranking(text: str) -> Ranking:
    lines = _data_lines(text)
    if len(lines) != 1:
        raise FormatError(f"expected one ranking line, found {len(lines)}", line=1)
    lineno, line = lines[0]
    head, sep, tail = line.partition(":")
    if not sep:
        raise FormatError("missing ':' after the color count", line=lineno)
    try:
        colors = int(head.strip())
    except ValueError:
        raise FormatError(f"bad color count {head.strip()!r}", line=lineno) from None
    labels = _int_tokens(lineno, line, len(tail.split()), len(head) + 1)
    if not labels:
        raise FormatError("ranking has no labels", line=lineno)
    try:
        return Ranking(tuple(labels), colors)
    except ValueError as exc:
        raise FormatError(str(exc), line=lineno) from None


def format_ranking(r: Ranking) -> str:
    return f"{r.colors}: " + " ".join(str(lab) for lab in r.labels) + "\n"
