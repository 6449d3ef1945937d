"""tools/bench_compare.py: verdicts against the BENCHMARK.json bounds."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_compare  # noqa: E402

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def line(wall, failed=0, attempted=10):
    values = {"setup_s": 0.1, "wall_ref_s": wall, "cpu_ref_s": wall, "peak_rss_mib": 20.0}
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()},
    }


def bench(walls_by_side, failed=0):
    runs = []
    for side, walls in walls_by_side.items():
        for seed, wall in enumerate(walls):
            runs.append({
                "workload": "solve-hard",
                "seed": seed,
                "side": side,
                "result": line(wall, failed if side == "change" else 0),
            })
    return {"runs": runs}


def verdicts(path, *files):
    paths = []
    for i, doc in enumerate(files):
        p = path / f"bench{i}.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(p))
    code = bench_compare.main(paths + ["--benchmark", str(ROOT / "BENCHMARK.json")])
    paired = len(files) == 1
    old = bench_compare._runs(files[0], "parent" if paired else "change")
    new = bench_compare._runs(files[-1], "change")
    rows = bench_compare.compare(old, new, METRICS, paired)
    return code, {r["metric"]: r["verdict"] for r in rows}, rows


def test_a_gain_in_nine_of_ten_pairs_is_better(tmp_path, capsys):
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [0.5] * 9 + [2.0]
    code, got, _ = verdicts(tmp_path, bench({"parent": parent, "change": change}))
    assert code == 0
    assert got["wall_ref_s"] == "better" and got["setup_s"] == "flat"
    assert "solve-hard" in capsys.readouterr().out


def test_too_few_pairs_or_wins_are_flat(tmp_path):
    _, got, _ = verdicts(tmp_path, bench({"parent": [1.0] * 5, "change": [0.5] * 5}))
    assert got["wall_ref_s"] == "flat"
    change = [0.5] * 8 + [2.0, 2.0]
    _, got, _ = verdicts(tmp_path, bench({"parent": [1.0] * 10, "change": change}))
    assert got["wall_ref_s"] == "flat"


def test_a_loss_beyond_the_bound_is_worse_and_fails(tmp_path):
    code, got, _ = verdicts(tmp_path, bench({"parent": [1.0] * 3, "change": [1.3] * 3}))
    assert code == 1 and got["wall_ref_s"] == "worse"
    code, got, _ = verdicts(tmp_path, bench({"parent": [1.0] * 3, "change": [1.1] * 3}))
    assert code == 0 and got["wall_ref_s"] == "flat"


def test_more_failures_fail(tmp_path):
    code, _, rows = verdicts(tmp_path, bench({"parent": [1.0] * 3, "change": [1.0] * 3}, failed=1))
    assert code == 1 and all(r["more_failures"] for r in rows)


def test_two_files_compare_their_change_sides(tmp_path):
    older = bench({"parent": [9.0] * 3, "change": [1.0] * 3})
    newer = bench({"parent": [1.0] * 3, "change": [1.5] * 3})
    code, got, rows = verdicts(tmp_path, older, newer)
    assert code == 1 and got["wall_ref_s"] == "worse"
    assert rows[0]["pairs_won"] is None
