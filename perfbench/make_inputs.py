"""Write the pinned inputs and expected outputs of the benchmark.

    PYTHONPATH=src python3 perfbench/make_inputs.py

Writes perfbench/inputs/ and perfbench/expected/ and prints the sha256 of
each workload's inputs, which run.py checks before it runs. Expected report
outputs are what tdlab prints at the commit where they are recorded; rerun
this only for a change that is meant to alter them, and review the diff.
Paper facts are asserted on the way: td(hn(n)) = n + 1, hn(7) is critical
and its hub is its only vertex that is not 1-unique.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from itertools import combinations
from pathlib import Path

import tdlab
import tdlab.cli

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import small_td  # noqa: E402
from run import EXPECTED, INPUTS, TD, WORKLOAD_INPUTS, inputs_sha256  # noqa: E402

GNP_N, GNP_P = 16, 0.3
# Generator seeds of the solve-hard pool: connected draws with 22k-31k search
# nodes whose solve times, measured interleaved at recording, lay closest
# together, so that the run's seed changes the instance but not the work.
POOL_SEEDS = (15, 18, 29, 43, 49, 74, 85, 129)


def gnp_edges(seed: int) -> list[tuple[int, int]]:
    """G(n, p) with edges drawn in itertools.combinations order."""
    rng = random.Random(seed)
    return [e for e in combinations(range(GNP_N), 2) if rng.random() < GNP_P]


def graph6(n: int, edges) -> str:
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        u, v = min(u, v), max(u, v)
        bits[v * (v - 1) // 2 + u] = 1
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def connected_small_graphs(max_n: int):
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            adj = [0] * n
            for u, v in edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            g = tdlab.Graph(n, edges)
            if g.is_connected():
                yield g, adj, edges


def cli_stdout(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tdlab.cli.main(list(argv))
    assert code == 0, (argv, code)
    return buf.getvalue()


def main() -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    EXPECTED.mkdir(parents=True, exist_ok=True)
    graphs = {
        "hn9": tdlab.hn(9)[0],
        "kak2_8": tdlab.cartesian_k2(8),
        "hn7": tdlab.hn(7)[0],
        "kak2_4": tdlab.cartesian_k2(4),
    }
    for name, g in graphs.items():
        line = graph6(g.n, g.edges())
        assert line == tdlab.format_graph6(g)
        assert tdlab.treedepth(g).value == TD[name], name
        (INPUTS / f"{name}.g6").write_text(line + "\n", encoding="ascii")

    pool = ["# generator seed, graph6, td, search nodes when recorded"]
    for seed in POOL_SEEDS:
        g = tdlab.Graph(GNP_N, gnp_edges(seed))
        assert g.is_connected(), seed
        cert = tdlab.treedepth(g)
        pool.append(f"{seed} {graph6(g.n, g.edges())} {cert.value} {cert.stats.nodes}")
    (INPUTS / "gnp16.txt").write_text("\n".join(pool) + "\n", encoding="ascii")

    rows = []
    for g, adj, edges in connected_small_graphs(6):
        td = small_td(adj, (1 << g.n) - 1, {})
        assert tdlab.treedepth(g).value == td, g
        rows.append(f"{graph6(g.n, edges)} {td}")
    (INPUTS / "small6.txt").write_text("\n".join(rows) + "\n", encoding="ascii")

    hn7 = tdlab.hn(7)
    critical = cli_stdout("critical", "--json", str(INPUTS / "hn7.g6"))
    doc = json.loads(critical)
    assert doc["base_td"] == 8 and doc["is_critical"] is True
    (EXPECTED / "critical_hn7.json").write_text(critical, encoding="ascii")
    for name in ("hn7", "kak2_4"):
        doc = json.loads(cli_stdout("unique1", "--json", str(INPUTS / f"{name}.g6")))
        for vertex in doc["vertices"]:
            del vertex["witness"]
        if name == "hn7":
            assert doc["non_1_unique"] == [hn7[1].hub]
        text = json.dumps(doc, sort_keys=True) + "\n"
        (EXPECTED / f"unique1_{name}.json").write_text(text, encoding="ascii")
    reproduce = cli_stdout("reproduce", "6", "--json", "--time-budget", "3600")
    assert all(row["ok"] for row in json.loads(reproduce))
    (EXPECTED / "reproduce_6.json").write_text(reproduce, encoding="ascii")

    print(f"{len(rows)} small graphs, {len(pool) - 1} pool members")
    for workload in WORKLOAD_INPUTS:
        print(f"{workload} {inputs_sha256(workload)}")


if __name__ == "__main__":
    main()
