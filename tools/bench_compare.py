"""Compare BENCH files metric by metric against the bounds of BENCHMARK.json.

    python3 tools/bench_compare.py BENCH_B.json              # its parent side vs its change side
    python3 tools/bench_compare.py BENCH_A.json BENCH_B.json # A's change side vs B's change side

A BENCH file holds the last output lines of `perfbench/run.py` for a change
and for its parent commit, run in alternating pairs: its key `runs` is a list
of {"workload", "seed", "side": "parent" | "change", "result": <the line>}.
Run from the root of a checkout, or pass --benchmark.

With one file, each workload's parent runs are compared with its change runs
of the same seeds, pair by pair; that is the comparison that may claim a
gain, since both sides ran in one session. With two files, the change runs
of the older file are compared with those of the newer one; times are in
reference seconds (see perfbench/run.py), but the two sessions may still
differ, so only a large move means much.

For every workload present on both sides and every end-to-end metric, one
row gives both medians, the change as a fraction of the old median, the old
side's interquartile range, the pairs the new side won (one file only), and
a verdict:
  worse   the new median is worse than the old by more than the metric's bound;
  better  each side has at least ten runs, the new median is better by more
          than the old interquartile range, and, with pairs, the new side
          won at least nine in ten of them;
  flat    neither.
A workload whose new side failed a larger share of its operations is
marked too. The exit status is 1 if any row is worse or failed more, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


# Fewer runs than this on either side cannot show a gain.
MIN_RUNS_FOR_GAIN = 10


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _runs(bench: dict, side: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result line, for one side of a BENCH file."""
    out: dict[str, dict[int, dict]] = {}
    for run in bench["runs"]:
        if run["side"] == side:
            out.setdefault(run["workload"], {})[run["seed"]] = run["result"]
    return out


def compare(old: dict, new: dict, metrics: list[dict], paired: bool) -> list[dict]:
    """One row per workload and end-to-end metric; see the module docstring."""
    rows = []
    for workload in sorted(old.keys() & new.keys()):
        a, b = old[workload], new[workload]
        seeds = sorted(a.keys() & b.keys()) if paired else None
        if paired:
            a = {s: a[s] for s in seeds}
            b = {s: b[s] for s in seeds}
        share = {
            side: sum(r["failed"] for r in runs.values())
            / max(1, sum(r["attempted"] for r in runs.values()))
            for side, runs in (("old", a), ("new", b))
        }
        for metric in metrics:
            name = metric["name"]
            sign = 1 if metric["better"] == "lower" else -1
            va = [r["metrics"][name]["value"] for r in a.values()]
            vb = [r["metrics"][name]["value"] for r in b.values()]
            old_median, new_median = statistics.median(va), statistics.median(vb)
            q1, q3 = _quartiles(va)
            frac = (new_median - old_median) / old_median if old_median else 0.0
            wins = None
            if paired:
                wins = sum(
                    sign * (b[s]["metrics"][name]["value"] - a[s]["metrics"][name]["value"]) < 0
                    for s in seeds
                )
            if sign * frac > metric["bound"]:
                verdict = "worse"
            elif (
                min(len(va), len(vb)) >= MIN_RUNS_FOR_GAIN
                and sign * (old_median - new_median) > q3 - q1
                and (wins is None or wins >= 0.9 * len(seeds))
            ):
                verdict = "better"
            else:
                verdict = "flat"
            rows.append({
                "workload": workload,
                "metric": name,
                "runs": (len(va), len(vb)),
                "old_median": old_median,
                "new_median": new_median,
                "change_frac": frac,
                "old_quartiles": (q1, q3),
                "bound": metric["bound"],
                "pairs_won": wins,
                "verdict": verdict,
                "failed_share": (share["old"], share["new"]),
                "more_failures": share["new"] > share["old"],
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "files", nargs="+", type=Path, help="one BENCH file, or an older and a newer one"
    )
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one or two BENCH files")
    metrics = json.loads(args.benchmark.read_text(encoding="utf-8"))["end_to_end"]
    benches = [json.loads(f.read_text(encoding="utf-8")) for f in args.files]
    if len(benches) == 1:
        old, new, paired = _runs(benches[0], "parent"), _runs(benches[0], "change"), True
    else:
        old, new, paired = _runs(benches[0], "change"), _runs(benches[1], "change"), False
    rows = compare(old, new, metrics, paired)
    if not rows:
        print("no workload on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':<12} {'metric':<13} {'runs':>7} {'old':>9} {'new':>9} {'change':>8} "
          f"{'old IQR':>8} {'bound':>6} {'won':>6}  verdict")
    for r in rows:
        won = "-" if r["pairs_won"] is None else f"{r['pairs_won']}/{r['runs'][0]}"
        iqr = r["old_quartiles"][1] - r["old_quartiles"][0]
        more = "  more failures" if r["more_failures"] else ""
        print(f"{r['workload']:<12} {r['metric']:<13} {r['runs'][0]:>3}/{r['runs'][1]:<3} "
              f"{r['old_median']:>9.4f} {r['new_median']:>9.4f} {r['change_frac']:>+8.1%} "
              f"{iqr:>8.4f} {r['bound']:>6.2f} {won:>6}  {r['verdict']}{more}")
    return 1 if any(r["verdict"] == "worse" or r["more_failures"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
