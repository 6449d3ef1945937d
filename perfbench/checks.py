"""Output checks that do not rely on tdlab: a graph6 decoder, a ranking check
and a plain tree-depth recursion.

The ranking check follows the path definition of a feasible labeling: two
vertices with the same label L must not be joined by a path whose inner
vertices all have labels at most L. It searches from each vertex through
vertices labelled at most its own label, which is a different route from the
per-label component sweep that tdlab's verifier uses.
"""

from __future__ import annotations


def graph6_adjacency(line: str) -> list[int]:
    """Adjacency bit masks of a short-form graph6 string (1 to 62 vertices)."""
    text = line.strip()
    n = ord(text[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 size {n} outside 1..62")
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        if not 0 <= value < 64:
            raise ValueError(f"invalid graph6 character {ch!r}")
        bits.extend(value >> shift & 1 for shift in range(5, -1, -1))
    if len(bits) < n * (n - 1) // 2:
        raise ValueError(f"graph6 body too short for {n} vertices")
    adj = [0] * n
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            i += 1
    return adj


def ranking_feasible(adj: list[int], labels: list[int]) -> bool:
    """True when no two equal labels are joined through labels no larger."""
    n = len(adj)
    for x in range(n):
        top = labels[x]
        allowed = 0
        for v in range(n):
            if labels[v] <= top:
                allowed |= 1 << v
        seen = frontier = 1 << x
        while frontier:
            grow = 0
            for v in range(n):
                if frontier >> v & 1:
                    grow |= adj[v]
            frontier = grow & allowed & ~seen
            seen |= frontier
        for v in range(n):
            if v != x and seen >> v & 1 and labels[v] == top:
                return False
    return True


def witness_problem(adj: list[int], labels: list[int], colors: int, td: int) -> str | None:
    """Why a witness ranking does not certify td, or None when it does."""
    if colors != td:
        return f"witness uses {colors} colours, td is {td}"
    if len(labels) != len(adj):
        return f"witness has {len(labels)} labels for {len(adj)} vertices"
    if any(not 1 <= lab <= colors for lab in labels):
        return f"witness label outside 1..{colors}"
    if not ranking_feasible(adj, labels):
        return "witness is not a feasible ranking"
    return None


def small_td(adj: list[int], mask: int, memo: dict) -> int:
    """Tree-depth of the induced subgraph on mask by the plain recursion."""
    if mask in memo:
        return memo[mask]
    comps, rest = [], mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            grow = 0
            for v in range(len(adj)):
                if frontier >> v & 1:
                    grow |= adj[v]
            frontier = grow & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    if len(comps) > 1:
        value = max(small_td(adj, c, memo) for c in comps)
    elif mask & (mask - 1) == 0:
        value = 1
    else:
        value = 1 + min(
            small_td(adj, mask & ~(1 << v), memo) for v in range(len(adj)) if mask >> v & 1
        )
    memo[mask] = value
    return value
