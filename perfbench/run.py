"""Outside-in benchmark of tdlab: CLI commands and library use, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a tdlab checkout; it finds the package in src/ and
needs only the standard library. Workloads (see BENCHMARK.json for why each
was chosen):

  solve-hard   `tdlab td --json` on hn(9), kak2(8) and one G(16, 0.3) member.
  reports      `tdlab critical --json` hn(7), `tdlab unique1 --json` hn(7) and
               kak2(4), `tdlab reproduce 6 --json --time-budget 3600`.
  sweep-small  parse_graph_text, treedepth, verify_ranking and format_graph6
               on every connected labeled graph with at most 6 vertices.

Load is a closed loop with one client: one operation runs at a time, and the
next starts when it has ended. Each CLI operation, and each pass of
sweep-small, is a fresh process, because tdlab keeps a per-process search
cache that would otherwise turn repeats into cache hits. CPU time and peak
RSS come from os.wait4 on that process (for sweep-small, CPU time is summed
around each graph's calls inside the worker).

The seed picks the G(16, 0.3) member from a pinned pool, the order of the
operations in each pass, and the order of the sweep-small graphs. Before
each pass the run times a fresh interpreter importing tdlab.cli (plus the
input load on sweep-small) three times; the median of these is setup_s. It
repeats whole passes over the workload's operations for --seconds and
reports, per operation, the median over passes. Every output is checked: td values and
report fields against pinned values, witnesses with checks.py.

Every time in the result line (setup_s, wall_ref_s, cpu_ref_s) is in
reference seconds: the run pins itself, and so every process it starts, to
one CPU, times the fixed pure-Python probe of speed.py before and after each
process and, with the process stopped, every speed.SLICE_S seconds while it
runs, and scales the process's times by speed.REF_S over the mean of these
probes (sweep.py probes around each chunk of its graphs instead). This cancels
the host's changes of speed, which reach a factor of two within seconds on a
shared host. Raw times are printed on the lines before, marked raw. The
per-layer times of --trace 1 are raw; trace.overhead_frac compares scaled
walls.

With --trace 1 the passes alternate between plain and traced (tracer.py
wraps every layer), and the run reports the per-layer metrics of the traced
passes, plus the tracing overhead against the plain ones.

Lines before the last give every number for people to read, including the
per-command times (td_s, critical_s, unique1_s, reproduce_s), the sweep's
raw graphs_per_s and percentiles, and failed_frac. The last line is one JSON
object with the keys correct, attempted, failed and metrics, holding the
end-to-end metrics of BENCHMARK.json, or its per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable
from pathlib import Path

from checks import graph6_adjacency, witness_problem
from speed import REF_S, SLICE_S, Gauge
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
INPUTS = BENCH / "inputs"
EXPECTED = BENCH / "expected"
WORK = ROOT / ".bench_build" / "perfbench"

PY = sys.executable
CLI = "import sys; from tdlab.cli import main; sys.exit(main())"
SETUP_PER_PASS = 3  # set-up is timed before each pass, so its samples span the run
RUN_LIMIT_S = 170  # a run must end within 180 s; a child is killed past this

WORKLOAD_INPUTS = {
    "solve-hard": ("hn9.g6", "kak2_8.g6", "gnp16.txt"),
    "reports": ("hn7.g6", "kak2_4.g6"),
    "sweep-small": ("small6.txt",),
}
# sha256 over the workload's input files; BENCHMARK.json quotes a prefix.
INPUT_SHA256 = {
    "solve-hard": "e6fea1c632d5c726d285a50ee1b8c2b43f40fafea8d49839ac1f7042f7562546",
    "reports": "d2a0e78819338cc1cbf6fe35c3ecbcb325855c1b85466503140303b47e3fcbad",
    "sweep-small": "33d0fb7fd61bf762129e836b67ce298122a82137ba67b2fb5cb3b6751331c0ff",
}
# hn(n) has tree-depth n + 1 (the paper); kak2 values were recorded with the inputs.
TD = {"hn9": 10, "kak2_8": 12, "hn7": 8, "kak2_4": 6}


def inputs_sha256(workload: str) -> str:
    digest = hashlib.sha256()
    for name in WORKLOAD_INPUTS[workload]:
        digest.update(name.encode() + b"\0" + (INPUTS / name).read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mib: float
    out: str
    err: str
    scale: float  # to reference seconds, from the speed probes around and during it


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TDLAB_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


ENV = child_env()


@dataclass
class Runner:
    """Starts the run's processes; they write scratch files under `work`."""

    work: Path
    deadline: float  # time.monotonic() past which a child is killed
    gauge: Gauge = field(default_factory=Gauge)

    def run(self, cmd: list[str], pause: bool = True) -> Child:
        """Run one process to completion; wall time, CPU and peak RSS are its own.

        With pause, the process is stopped every SLICE_S seconds while a speed
        probe runs on its CPU; the stopped time is left out of its wall time.
        """
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            paused = 0.0
            usage = None
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            exited = select.poll()  # the pidfd turns readable when the process exits
            pidfd = os.pidfd_open(proc.pid)
            exited.register(pidfd, select.POLLIN)
            try:
                while usage is None:
                    if pause and not exited.poll(SLICE_S * 1000):
                        stop = time.perf_counter()
                        os.kill(proc.pid, signal.SIGSTOP)
                        _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                        if os.WIFSTOPPED(status):
                            usage = None
                            self.gauge.sample()
                            os.kill(proc.pid, signal.SIGCONT)
                        paused += time.perf_counter() - stop
                    else:
                        _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                os.close(pidfd)
                if usage is None:  # left by an exception: end the process before leaving
                    proc.kill()
                    os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start - paused
            proc.returncode = os.waitstatus_to_exitcode(status)
            scale = self.gauge.scale()
            out.seek(0)
            err.seek(0)
            return Child(
                proc.returncode,
                wall,
                usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024,
                out.read().decode(errors="replace"),
                err.read().decode(errors="replace"),
                scale,
            )


# ---------------------------------------------------------------------------
# Operations and their output checks
# ---------------------------------------------------------------------------

@dataclass
class Op:
    name: str  # first word is the command, used to group times
    argv: list[str]
    check: Callable[[str], str | None]  # stdout -> problem, or None when correct


def td_check(g6: str, td: int):
    adj = graph6_adjacency(g6)

    def check(out: str) -> str | None:
        doc = json.loads(out)
        if doc["td"] != td:
            return f"td {doc['td']}, expected {td}"
        witness = doc["witness"]
        return witness_problem(adj, witness["labels"], witness["colors"], td)

    return check


def exact_check(expected: str):
    want = (EXPECTED / expected).read_text(encoding="ascii")

    def check(out: str) -> str | None:
        return None if out == want else f"output differs from expected/{expected}"

    return check


def unique1_check(name: str):
    """Exact fields byte for byte; witnesses checked for feasibility, not pinned."""
    want = (EXPECTED / f"unique1_{name}.json").read_text(encoding="ascii")
    adj = graph6_adjacency((INPUTS / f"{name}.g6").read_text(encoding="ascii"))
    td = TD[name]

    def check(out: str) -> str | None:
        doc = json.loads(out)
        witnesses = [(v["vertex"], v.pop("witness")) for v in doc["vertices"]]
        if json.dumps(doc, sort_keys=True) + "\n" != want:
            return f"fields differ from expected/unique1_{name}.json"
        for vertex, labels in witnesses:
            if labels is None:
                continue
            if labels[vertex] != 1 or labels.count(1) != 1:
                return f"witness of vertex {vertex} does not give it the only label 1"
            problem = witness_problem(adj, labels, td, td)
            if problem is not None:
                return f"witness of vertex {vertex}: {problem}"
        return None

    return check


def gnp_member(seed: int) -> tuple[str, str, int]:
    """The pool member the seed picks: (name, graph6, pinned td)."""
    lines = (INPUTS / "gnp16.txt").read_text(encoding="ascii").split("\n")
    pool = [line.split() for line in lines if line and not line.startswith("#")]
    gen_seed, g6, td, _nodes = pool[seed % len(pool)]
    return f"gnp16-{gen_seed}", g6, int(td)


def solve_hard_ops(seed: int, work: Path) -> list[Op]:
    ops = []
    for name in ("hn9", "kak2_8"):
        path = INPUTS / f"{name}.g6"
        ops.append(Op(f"td {name}", ["td", "--json", str(path)],
                      td_check(path.read_text(encoding="ascii"), TD[name])))
    name, g6, td = gnp_member(seed)
    path = work / f"{name}.g6"
    path.write_text(g6 + "\n", encoding="ascii")
    ops.append(Op(f"td {name}", ["td", "--json", str(path)], td_check(g6, td)))
    return ops


def reports_ops() -> list[Op]:
    return [
        Op("critical hn7", ["critical", "--json", str(INPUTS / "hn7.g6")],
           exact_check("critical_hn7.json")),
        Op("unique1 hn7", ["unique1", "--json", str(INPUTS / "hn7.g6")],
           unique1_check("hn7")),
        Op("unique1 kak2_4", ["unique1", "--json", str(INPUTS / "kak2_4.g6")],
           unique1_check("kak2_4")),
        Op("reproduce 6", ["reproduce", "6", "--json", "--time-budget", "3600"],
           exact_check("reproduce_6.json")),
    ]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    wall: dict = field(default_factory=dict)  # operation -> reference seconds
    cpu: dict = field(default_factory=dict)
    raw_wall: dict = field(default_factory=dict)  # operation -> seconds as timed
    rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # messages; sweep-small keeps a few
    nodes: dict = field(default_factory=dict)  # operation -> solver nodes
    sweep: dict = field(default_factory=dict)  # graphs_per_s and percentiles
    trace: list = field(default_factory=list)  # tracer totals, one per process


def cli_pass(ops: list[Op], rng: random.Random, runner: Runner, traced: bool) -> Pass:
    result = Pass()
    order = list(ops)
    rng.shuffle(order)
    for i, op in enumerate(order):
        trace_path = runner.work / f"trace-{i}.json"
        if traced:
            cmd = [PY, str(BENCH / "tracer.py"), str(trace_path), *op.argv]
        else:
            cmd = [PY, "-c", CLI, *op.argv]
        child = runner.run(cmd)
        result.wall[op.name] = child.wall * child.scale
        result.cpu[op.name] = child.cpu * child.scale
        result.raw_wall[op.name] = child.wall
        result.rss_mib = max(result.rss_mib, child.rss_mib)
        result.attempted += 1
        if child.code != 0:
            problem = f"exit code {child.code}: {child.err.strip()[-300:]}"
        else:
            try:
                problem = op.check(child.out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problem = f"unreadable output ({exc!r})"
        if problem is not None:
            result.failed += 1
            result.failures.append(f"{op.name}: {problem}")
        elif op.name.startswith("td "):
            result.nodes[op.name] = json.loads(child.out)["stats"]["nodes"]
        if traced and trace_path.exists():
            totals = json.loads(trace_path.read_text(encoding="ascii"))
            result.trace.append(totals)
            result.nodes[op.name] = totals["nodes"]
            trace_path.unlink()
    return result


def sweep_graphs() -> int:
    return (INPUTS / "small6.txt").read_text(encoding="ascii").count("\n")


def sweep_pass(rng: random.Random, runner: Runner, traced: bool) -> Pass:
    result = Pass()
    trace_path = runner.work / "trace-sweep.json"
    cmd = [PY, str(BENCH / "sweep.py"), str(INPUTS / "small6.txt"),
           "--seed", str(rng.randrange(2**32))]
    if traced:
        cmd += ["--trace", str(trace_path)]
    # sweep.py probes between its own chunks: a stop would land inside a timed graph
    child = runner.run(cmd, pause=False)
    result.rss_mib = child.rss_mib
    try:
        if child.code != 0:
            raise ValueError(f"exit code {child.code}: {child.err.strip()[-300:]}")
        doc = json.loads(child.out.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        result.wall["sweep"] = child.wall * child.scale
        result.cpu["sweep"] = child.cpu * child.scale
        result.raw_wall["sweep"] = child.wall
        result.attempted = result.failed = sweep_graphs()
        result.failures = [f"sweep worker: {exc}"]
        return result
    result.wall["sweep"] = doc["ref_wall_s"]
    result.cpu["sweep"] = doc["ref_cpu_s"]
    result.raw_wall["sweep"] = doc["wall_s"]
    result.attempted = doc["graphs"]
    result.failed = doc["failed"]
    result.failures = doc["failures"]
    result.sweep = {k: doc[k] for k in ("graphs_per_s", "graph_p50_ms", "graph_p99_ms")}
    if traced:
        totals = json.loads(trace_path.read_text(encoding="ascii"))
        result.trace.append(totals)
        result.nodes["sweep"] = totals["nodes"]
        trace_path.unlink()
    return result


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def median_per_op(passes: list[Pass], attr: str) -> dict:
    ops = getattr(passes[0], attr)
    return {op: statistics.median(getattr(p, attr)[op] for p in passes) for op in ops}


def layer_metrics(totals: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, from the totals of its processes."""
    spans: dict[str, list] = {}
    for t in totals:
        for name, (calls, self_s) in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
    counters = {k: sum(t[k] for t in totals)
                for k in ("reports", "subsolves", "repeats", "budget_exceeded", "nodes")}

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def self_s(names):
        return sum(s[1] for n, s in spans.items() if n in names)

    def prefixed(prefix):
        return [n for n in spans if n.startswith(prefix)]

    td_calls = calls("solver.treedepth")
    td_self = self_s(["solver.treedepth"])
    nodes = counters["nodes"]
    metrics = {
        "solver.treedepth.calls": td_calls,
        "solver.treedepth.self_s": td_self,
        "solver.nodes": nodes,
        "solver.us_per_node": td_self / nodes * 1e6 if nodes else 0.0,
        "solver.memo_entries": max((t["memo_entries"] for t in totals), default=0),
        "solver.treedepth.repeat_frac": counters["repeats"] / td_calls if td_calls else 0.0,
        "solver.subsolves_per_report": (
            counters["subsolves"] / counters["reports"] if counters["reports"] else 0.0
        ),
        "solver.search_feasible_labeling.calls": calls("solver.search_feasible_labeling"),
        "solver.search_feasible_labeling.self_s": self_s(["solver.search_feasible_labeling"]),
        "solver.budget_exceeded": counters["budget_exceeded"],
        "graphs.component_masks.calls": calls("graphs.component_masks"),
        "graphs.component_masks.self_s": self_s(["graphs.component_masks"]),
        "graphs.apply_minor_step.self_s": self_s(["graphs.apply_minor_step"]),
        "graphs.star_clique.self_s": self_s(["graphs.star_clique"]),
        "ranking.verify_ranking.calls": calls("ranking.verify_ranking"),
        "ranking.verify_ranking.self_s": self_s(["ranking.verify_ranking"]),
        "ranking.hn_minor_witness.self_s": self_s(["ranking.hn_minor_witness"]),
        "formats.parse.self_s": self_s(
            prefixed("formats.parse_") + ["formats.detect_graph_format"]
        ),
        "formats.format.self_s": self_s(prefixed("formats.format_")),
        "critical.is_critical.self_s": self_s(["critical.is_critical"]),
        "critical.uniqueness_report.self_s": self_s(["critical.uniqueness_report"]),
        "critical.reproduce.self_s": self_s(["critical.reproduce"]),
        "cli.import_s": statistics.median([t["import_s"] for t in totals] or [0.0]),
        # cli code outside every other layer: main, build_parser and the cmd_* handlers
        "cli.main.self_s": self_s(prefixed("cli.")),
    }
    for layer in LAYERS[1:]:  # the cli layer's self time is cli.main.self_s
        names = prefixed(layer + ".")
        metrics[f"{layer}.calls"] = sum(calls(n) for n in names)
        metrics[f"{layer}.self_s"] = self_s(names)
    return metrics


def declared_units() -> dict:
    """Metric name -> unit for "end_to_end" and "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def report(args, setup: list[float], plain: list[Pass], traced: list[Pass]) -> int:
    runs = plain + traced
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    wall = median_per_op(plain, "wall")
    raw_wall = median_per_op(plain, "raw_wall")
    cpu = median_per_op(plain, "cpu")
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_ref_s": sum(wall.values()),
        "cpu_ref_s": sum(cpu.values()),
        "peak_rss_mib": max(p.rss_mib for p in runs),
    }
    out = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"inputs sha256 {inputs_sha256(args.workload)}",
        f"set-up: {len(setup)} fresh interpreters; passes: {len(plain)} plain, "
        f"{len(traced)} traced; times are medians over the plain passes, in reference "
        f"seconds (probe = {REF_S} s) unless marked raw",
    ]
    kinds: dict[str, float] = {}
    for op in sorted(wall):
        nodes = sorted({p.nodes[op] for p in runs if op in p.nodes})
        out.append(f"  {op:<16} wall {wall[op]:.4f} s (raw {raw_wall[op]:.4f} s)  "
                   f"cpu {cpu[op]:.4f} s  nodes {nodes}")
        kind = op.split()[0]
        kinds[kind] = kinds.get(kind, 0.0) + wall[op]
    if args.workload == "sweep-small":
        for key, unit in (("graphs_per_s", "1/s"), ("graph_p50_ms", "ms"), ("graph_p99_ms", "ms")):
            done = [p.sweep[key] for p in plain if p.sweep]
            out.append(f"{key} {statistics.median(done) if done else '-'} {unit} (raw)")
    else:
        out.extend(f"{kind}_s {seconds} s" for kind, seconds in kinds.items())
    out.append(f"failed_frac {failed / attempted} ratio ({failed} of {attempted})")
    out.extend(f"FAILED {f}" for p in runs for f in p.failures)

    declared = declared_units()
    values, units = end_to_end, declared["end_to_end"]
    if traced:
        out.extend(f"{name} {end_to_end[name]} {units[name]}" for name in units)
        per_pass = [layer_metrics(p.trace) for p in traced]
        # median_low keeps counts whole: it picks a measured value, never a mean of two
        values = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        traced_wall = sum(median_per_op(traced, "wall").values())
        values["trace.overhead_frac"] = traced_wall / end_to_end["wall_ref_s"] - 1
        units = declared["per_layer"]
    if set(values) != set(units):
        raise SystemExit(f"measured metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")
    out.extend(f"{name} {values[name]} {unit}" for name, unit in units.items())
    print("\n".join(out))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_INPUTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tdlab" / "cli.py").is_file():
        print(f"perfbench: no tdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if inputs_sha256(args.workload) != INPUT_SHA256[args.workload]:
        print(f"perfbench: inputs of {args.workload} do not match their sha256",
              file=sys.stderr)
        return 2

    # The speed probes run in this process; the measured processes inherit
    # this affinity, so probe and measurement share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
        rng = random.Random(args.seed)
        if args.workload == "sweep-small":
            setup_cmd = [PY, str(BENCH / "sweep.py"), str(INPUTS / "small6.txt"), "--setup-only"]

            def one_pass(traced):
                return sweep_pass(rng, runner, traced)
        else:
            setup_cmd = [PY, "-c", "import tdlab.cli"]
            if args.workload == "solve-hard":
                ops = solve_hard_ops(args.seed, work)
            else:
                ops = reports_ops()

            def one_pass(traced):
                return cli_pass(ops, rng, runner, traced)

        setup, plain, traced = [], [], []

        def set_up() -> bool:
            for _ in range(SETUP_PER_PASS):
                child = runner.run(setup_cmd)
                if child.code != 0:
                    print(f"perfbench: set-up failed: {child.err.strip()}", file=sys.stderr)
                    return False
                setup.append(child.wall * child.scale)
            return True

        start = time.perf_counter()
        runner.run(setup_cmd)  # the first import may compile bytecode; not timed
        while set_up():
            began = time.perf_counter()
            plain.append(one_pass(False))
            if args.trace:
                traced.append(one_pass(True))
            took = time.perf_counter() - began
            if time.perf_counter() - start + took > args.seconds:
                return report(args, setup, plain, traced)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
