"""Worker for the sweep-small workload: tdlab used as a library.

    PYTHONPATH=src python3 perfbench/sweep.py INPUT --seed N [--trace OUT]
    PYTHONPATH=src python3 perfbench/sweep.py INPUT --setup-only

INPUT holds one `graph6 td` pair per line. The worker imports tdlab.cli,
loads INPUT (this much is the workload's set-up), shuffles the lines with
the seed, and then for each graph times parse_graph_text, treedepth,
verify_ranking and format_graph6. Outside the timed region it checks the
value against the pinned td, the verifier's verdict, the graph6 round trip
and the witness with the benchmark's own ranking check. Around each chunk
of CHUNK graphs it times the speed probe of speed.py and adds the chunk's
times, scaled to reference seconds, to ref_wall_s and ref_cpu_s. It prints
one JSON summary line. With --trace it wraps tdlab's layers first and writes the
span totals to OUT.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time


CHUNK = 500  # graphs between two speed probes


def load(path: str) -> list[tuple[str, int]]:
    rows = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            g6, td = line.split()
            rows.append((g6, int(td)))
    return rows


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("input")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", metavar="OUT")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    import tdlab.cli  # noqa: F401  (set-up cost that every user of tdlab pays)

    import_s = time.perf_counter() - start
    rows = load(args.input)
    if args.setup_only:
        return 0

    from checks import graph6_adjacency, witness_problem
    from speed import Gauge

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import tdlab

    parse, solve = tdlab.parse_graph_text, tdlab.treedepth
    verify, fmt = tdlab.verify_ranking, tdlab.format_graph6

    random.Random(args.seed).shuffle(rows)
    walls, cpus, failures = [], [], []
    ref_wall = ref_cpu = 0.0  # per chunk of graphs, times scaled by the probes around it
    chunk_start = 0
    wall_clock, cpu_clock = time.perf_counter, time.process_time
    gauge = Gauge()
    for i, (g6, td) in enumerate(rows, 1):
        w0, c0 = wall_clock(), cpu_clock()
        g = parse(g6)
        cert = solve(g)
        violation = verify(g, cert.witness)
        back = fmt(g)
        cpus.append(cpu_clock() - c0)
        walls.append(wall_clock() - w0)
        if cert.value != td:
            problem = f"td {cert.value}, pinned {td}"
        elif violation is not None:
            problem = "verify_ranking rejects the witness"
        elif back != g6:
            problem = f"graph6 round trip gives {back}"
        else:
            problem = witness_problem(
                graph6_adjacency(g6), list(cert.witness.labels), cert.witness.colors, td
            )
        if problem is not None:
            failures.append(f"{g6}: {problem}")
        if i % CHUNK == 0 or i == len(rows):
            scale = gauge.scale()
            ref_wall += sum(walls[chunk_start:]) * scale
            ref_cpu += sum(cpus[chunk_start:]) * scale
            chunk_start = i

    if tracer is not None:
        with open(args.trace, "w", encoding="ascii") as fh:
            json.dump(tracer.totals(import_s), fh)
    wall_s = sum(walls)
    print(
        json.dumps(
            {
                "graphs": len(rows),
                "failed": len(failures),
                "failures": failures[:5],
                "wall_s": wall_s,
                "cpu_s": sum(cpus),
                "ref_wall_s": ref_wall,
                "ref_cpu_s": ref_cpu,
                "graphs_per_s": len(rows) / wall_s,
                "graph_p50_ms": statistics.median(walls) * 1e3,
                "graph_p99_ms": statistics.quantiles(walls, n=100)[98] * 1e3,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
