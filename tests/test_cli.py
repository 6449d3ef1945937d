"""CLI surface: commands, formats, exit codes, JSON documents, env mirrors."""

import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tdlab.cli import main
from tdlab.formats import format_graph_text, parse_graph_text
from tdlab.graphs import cartesian_k2, complete, cycle, hn, k_net, path
from tdlab.ranking import Ranking, verify_ranking
from tdlab.solver import treedepth
from test_startup import _env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

FAMILY_CASES = [
    ("hn", 4, lambda n: hn(n)[0]),
    ("knet", 3, k_net),
    ("kak2", 3, cartesian_k2),
    ("complete", 5, complete),
    ("cycle", 6, cycle),
    ("path", 7, path),
]


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        data = stdin.encode("ascii") if isinstance(stdin, str) else stdin
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="g.txt", fmt="edgelist"):
    p = tmp_path / name
    p.write_text(format_graph_text(g, fmt))
    return str(p)


# -- gen ------------------------------------------------------------------------

def test_gen_is_byte_stable(capsys):
    code, out, _ = run(capsys, ["gen", "hn", "4"])
    assert code == 0
    assert out == "7 9\n0 4\n0 5\n0 6\n1 2\n1 3\n1 4\n2 3\n2 5\n3 6\n"
    code, out2, _ = run(capsys, ["gen", "hn", "4"])
    assert out2 == out


def test_gen_graph6_round_trips(capsys):
    code, out, _ = run(capsys, ["gen", "knet", "3", "--format", "graph6"])
    assert code == 0
    assert parse_graph_text(out) == k_net(3)


def test_gen_rejects_unknown_family(capsys):
    code, _, err = run(capsys, ["gen", "mobius", "4"])
    assert code == 4


def test_gen_rejects_out_of_range(capsys):
    code, _, err = run(capsys, ["gen", "cycle", "2"])
    assert code == 4
    assert "error" in err


# -- td --------------------------------------------------------------------------

def test_td_on_family_files(tmp_path, capsys):
    g = hn(5)[0]
    code, out, err = run(capsys, ["td", write_graph(tmp_path, g)])
    assert code == 0
    assert "td: 6" in out
    assert "witness: 6:" in out
    assert "elapsed" in err


def test_td_single_vertex(tmp_path, capsys):
    code, out, _ = run(capsys, ["td", write_graph(tmp_path, complete(1))])
    assert code == 0
    assert "td: 1" in out


def test_td_json_document(tmp_path, capsys):
    code, out, _ = run(capsys, ["td", write_graph(tmp_path, cartesian_k2(5)), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["td"] == 8
    assert doc["witness"]["colors"] == 8
    assert len(doc["witness"]["labels"]) == 10
    # kak2(5) is vertex-transitive: the root alone leaves 9 of its 10 branches out
    assert set(doc["stats"]) == {"nodes", "memo_entries", "symmetry_skips", "table_reads"}
    assert doc["stats"]["symmetry_skips"] >= 9
    # hn(9)'s search ends in subgraphs of at most 5 vertices, read from the table
    code, out, _ = run(capsys, ["td", write_graph(tmp_path, hn(9)[0]), "--json"])
    assert code == 0
    assert json.loads(out)["stats"]["table_reads"] > 0


def test_td_json_counts_no_skips_without_generators(tmp_path, capsys):
    # Graphs get generators only from 7 vertices on. kak2(3) has 6, so its
    # search skips nothing.
    code, out, _ = run(capsys, ["td", write_graph(tmp_path, cartesian_k2(3)), "--json"])
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["nodes"] > 0 and stats["symmetry_skips"] == 0


def test_td_stdin_auto_detect(capsys, monkeypatch):
    text = format_graph_text(cycle(5), "graph6")
    code, out, _ = run(capsys, ["td", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 0
    assert "td: 4" in out


def test_non_ascii_input_is_a_parse_error_from_a_file_and_from_stdin(
    tmp_path, capsys, monkeypatch
):
    data = b"# caf\xc3\xa9\n2 1\n0 1\n"
    p = tmp_path / "g.txt"
    p.write_bytes(data)
    for argv, stdin in ((["td", str(p)], None), (["td", "-"], data)):
        code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert code == 2 and out == "", argv
        assert "input is not ASCII text" in err, argv


def test_gen_td_round_trip_matches_library(tmp_path, capsys):
    for family, size, build in FAMILY_CASES:
        for fmt in ("edgelist", "graph6"):
            code, text, _ = run(capsys, ["gen", family, str(size), "--format", fmt])
            assert code == 0
            p = tmp_path / f"{family}-{fmt}.txt"
            p.write_text(text)
            code, out, _ = run(capsys, ["td", str(p)])
            assert code == 0
            expected = treedepth(build(size)).value
            assert f"td: {expected}" in out


def test_td_budget_exhaustion_exit_code(tmp_path, capsys):
    g = hn(5)[0]
    code, out, _ = run(capsys, ["td", write_graph(tmp_path, g), "--node-budget", "3"])
    assert code == 3
    assert "td in [" in out


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("command", ["td", "critical", "unique1"])
def test_budget_stop_prints_bounds_for_every_command(capsys, command, json_flag):
    # A stop of the base solve prints one document, whichever command made it.
    gpath = str(PERFBENCH / "inputs" / "hn7.g6")
    code, out, err = run(capsys, [command, *json_flag, "--node-budget", "0", gpath])
    assert code == 3
    if json_flag:
        assert out == '{"bounds": {"lower": 6, "upper": 9}}\n'
    else:
        assert out == "budget exhausted: td in [6, 9]\n"
    assert err == "# node budget of 0 exhausted\n"


def test_td_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("3 2\n0 1\n0 x\n")
    code, _, err = run(capsys, ["td", str(p)])
    assert code == 2
    assert "line 3" in err


def test_td_missing_file_is_usage_error(capsys):
    code, _, _ = run(capsys, ["td", "/nonexistent/nope.txt"])
    assert code == 4


# -- verify -------------------------------------------------------------------------

def test_verify_accepts_valid_ranking(tmp_path, capsys):
    gpath = write_graph(tmp_path, hn(4)[0])
    rpath = tmp_path / "r.txt"
    rpath.write_text("5: 5 2 3 4 1 1 1\n")
    code, out, _ = run(capsys, ["verify", gpath, str(rpath)])
    assert code == 0
    assert out.strip() == "valid"


def test_verify_rejects_invalid_ranking(tmp_path, capsys):
    gpath = write_graph(tmp_path, cycle(5))
    rpath = tmp_path / "r.txt"
    rpath.write_text("3: 1 2 1 2 3\n")
    code, out, _ = run(capsys, ["verify", gpath, str(rpath)])
    assert code == 1
    assert "label 2" in out


def test_closed_stdin_is_an_io_error():
    # fd 0 closed when the interpreter starts leaves sys.stdin None
    done = subprocess.run(
        ["sh", "-c", 'exec "$0" -m tdlab.cli td - <&-', sys.executable],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 4, done.stderr
    assert done.stdout == ""
    assert done.stderr == "io error: standard input is closed\n"


def test_verify_rejects_double_stdin(capsys):
    code, _, err = run(capsys, ["verify", "-", "-"])
    assert code == 4
    assert "stdin" in err


def test_verify_ranking_from_stdin(tmp_path, capsys, monkeypatch):
    gpath = write_graph(tmp_path, hn(4)[0])
    code, out, _ = run(
        capsys, ["verify", gpath, "-"], stdin="5: 5 2 3 4 1 1 1\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert out.strip() == "valid"


def test_verify_json(tmp_path, capsys):
    gpath = write_graph(tmp_path, cycle(5))
    rpath = tmp_path / "r.txt"
    rpath.write_text("3: 1 2 1 2 3\n")
    code, out, _ = run(capsys, ["verify", gpath, str(rpath), "--json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["pair"] == [1, 3]


# -- critical / unique1 ------------------------------------------------------------------

def test_critical_command(tmp_path, capsys):
    code, out, _ = run(capsys, ["critical", write_graph(tmp_path, hn(4)[0])])
    assert code == 0
    assert "verdict: critical" in out


@pytest.mark.parametrize("name", ["kak2_4", "hn4"])
def test_critical_json_matches_the_pinned_report(capsys, monkeypatch, name):
    # kak2(4) and hn(4) have 8 and 7 vertices, so their reports group the
    # steps by the generators searched for when the report asks, which every
    # minor inherits; CI compares their stdout with the same files. hn(4) is
    # piped in as `gen hn 4 --format graph6` writes it, as CI does.
    if name == "hn4":
        code, text, _ = run(capsys, ["gen", "hn", "4", "--format", "graph6"])
        assert code == 0
    else:
        text = (PERFBENCH / "inputs" / "kak2_4.g6").read_text(encoding="ascii")
    code, out, _ = run(capsys, ["critical", "--json", "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 0
    want = (Path(__file__).resolve().parent / f"critical_{name}.json").read_text(encoding="ascii")
    assert out == want


def test_critical_json(tmp_path, capsys):
    code, out, _ = run(capsys, ["critical", write_graph(tmp_path, path(3)), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["is_critical"] is False
    assert doc["base_td"] == 2


def test_unique1_summary(tmp_path, capsys):
    code, out, _ = run(capsys, ["unique1", write_graph(tmp_path, hn(4)[0])])
    assert code == 0
    assert "non-1-unique: {0}" in out


def test_unique1_single_vertex(tmp_path, capsys):
    code, out, _ = run(
        capsys, ["unique1", write_graph(tmp_path, hn(4)[0]), "--vertex", "3"]
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip() and not l.startswith("vertex")]
    assert len(lines) == 1 and lines[0].split()[0] == "3"


@pytest.mark.parametrize("vertex", ["99", "-1"])
def test_unique1_checks_vertex_before_the_report(tmp_path, capsys, monkeypatch, vertex):
    def no_report(*args, **kwargs):
        raise AssertionError("uniqueness_report called for a vertex out of range")

    monkeypatch.setattr("tdlab.cli.uniqueness_report", no_report)
    code, out, err = run(
        capsys, ["unique1", write_graph(tmp_path, hn(4)[0]), "--vertex", vertex]
    )
    assert code == 4
    assert out == ""
    assert f"error: vertex {vertex} does not exist (n=7)" in err


def test_unique1_all_unique_graph(tmp_path, capsys):
    code, out, _ = run(capsys, ["unique1", write_graph(tmp_path, complete(4))])
    assert code == 0
    assert "all vertices 1-unique" in out


@pytest.mark.parametrize("name", ["hn7", "kak2_4"])
def test_unique1_json_matches_pinned_fields(capsys, name):
    # Every field but the witnesses is pinned byte for byte; a witness must be
    # a ranking with td colours that gives its vertex the only label 1.
    gpath = PERFBENCH / "inputs" / f"{name}.g6"
    code, out, _ = run(capsys, ["unique1", "--json", str(gpath)])
    assert code == 0
    doc = json.loads(out)
    witnesses = [(v["vertex"], v.pop("witness")) for v in doc["vertices"]]
    want = (PERFBENCH / "expected" / f"unique1_{name}.json").read_text(encoding="ascii")
    assert json.dumps(doc, sort_keys=True) + "\n" == want
    g = parse_graph_text(gpath.read_text(encoding="ascii"))
    td = treedepth(g).value
    for vertex, labels in witnesses:
        if labels is None:
            continue
        assert verify_ranking(g, Ranking(tuple(labels), td)) is None
        assert labels[vertex] == 1 and labels.count(1) == 1


# sha256 of the full `unique1 --json` stdout, witnesses of the transforms included
UNIQUE1_JSON_SHA256 = {
    "hn7": "ce91a65dbdb82e35e4f04747c568e7813e7d5db0fac8c6e6b567f7950b33987b",
    "kak2_4": "9c1def0ad4de4acd614e2df959a549bf9288b55bc6cac068620abb3ae3c80660",
}


@pytest.mark.parametrize("name", sorted(UNIQUE1_JSON_SHA256))
def test_unique1_json_with_witnesses_is_pinned(capsys, name):
    code, out, _ = run(capsys, ["unique1", "--json", str(PERFBENCH / "inputs" / f"{name}.g6")])
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == UNIQUE1_JSON_SHA256[name]
    # CI compares the same stdout with this fixture under two hash seeds
    assert out == (Path(__file__).parent / f"unique1_{name}.json").read_text(encoding="ascii")


# -- reproduce -----------------------------------------------------------------------------

def test_reproduce_human_table(capsys):
    code, out, _ = run(capsys, ["reproduce", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + rows for n=4,5,6
    assert [line.split()[0] for line in lines[1:]] == ["4", "5", "6"]
    assert all(line.split()[-1] == "OK" for line in lines[1:])


def test_reproduce_json_rows(capsys):
    code, out, _ = run(capsys, ["reproduce", "5", "--json"])
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [4, 5]
    for r in rows:
        assert set(r) >= {"n", "td", "critical", "non_1_unique", "starclique_td", "witnesses_ok"}
        assert r["ok"] is True


def test_reproduce_budget_exit(capsys):
    code, out, _ = run(capsys, ["reproduce", "4", "--node-budget", "2"])
    assert code == 3


def test_reproduce_range_usage_error(capsys):
    code, _, _ = run(capsys, ["reproduce", "3"])
    assert code == 4


# -- selftest -----------------------------------------------------------------------------------

def test_selftest_passes(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "1"])
    assert code == 0
    assert out.count("PASS") == 3
    assert "all suites passed" in out


# -- env mirrors and misc ------------------------------------------------------------------------

def test_env_format_mirror(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TDLAB_FORMAT", "graph6")
    code, out, _ = run(capsys, ["gen", "kak2", "3"])
    assert code == 0
    assert out == "E{Sw\n"
    # Input commands read the format from the input, never from the variable.
    monkeypatch.setenv("TDLAB_FORMAT", "edgelist")
    code, out, _ = run(capsys, ["td", write_graph(tmp_path, cycle(5), fmt="graph6")])
    assert code == 0
    assert "td: 4" in out


def test_env_node_budget_mirror(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TDLAB_NODE_BUDGET", "3")
    code, _, _ = run(capsys, ["td", write_graph(tmp_path, hn(5)[0])])
    assert code == 3


@pytest.mark.parametrize(
    "name, value",
    [
        ("NODE_BUDGET", "many"),
        ("TIME_BUDGET", "soon"),
        ("MEMO_CAPACITY", "1.5"),
        ("SEED", "x"),
        ("FORMAT", "xyz"),
    ],
)
def test_env_malformed_value_is_usage_error(tmp_path, capsys, monkeypatch, name, value):
    monkeypatch.setenv("TDLAB_" + name, value)
    argv = {"SEED": ["selftest"], "FORMAT": ["gen", "hn", "4"]}.get(
        name, ["td", write_graph(tmp_path, cycle(5))]
    )
    code, out, err = run(capsys, argv)
    assert code == 4
    assert out == ""
    assert f"TDLAB_{name}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["gen"])
def test_format_flag_is_checked_like_its_env_mirror(capsys, monkeypatch, command):
    # The flag and TDLAB_FORMAT go through the same validator, so both give
    # the same message; usage still lists the choices. Only `gen` takes the
    # flag: it chooses the output format.
    code, out, flag_err = run(capsys, [command, "hn", "4", "--format", "xyz"])
    assert code == 4
    assert out == ""
    assert "--format {edgelist,graph6}" in flag_err
    monkeypatch.setenv("TDLAB_FORMAT", "xyz")
    code, out, env_err = run(capsys, [command, "hn", "4"])
    assert code == 4
    assert out == ""
    message = env_err.strip().split("TDLAB_FORMAT: ")[1]
    assert message.startswith("invalid choice: 'xyz'")
    assert flag_err.strip().endswith(message)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--node-budget", "-5"),
        ("--memo-capacity", "-1"),
        ("--time-budget", "-1"),
        ("--time-budget", "nan"),
        ("--time-budget", "inf"),
    ],
)
def test_invalid_budget_flag_is_usage_error(tmp_path, capsys, flag, value):
    code, out, err = run(capsys, ["td", write_graph(tmp_path, cycle(5)), flag, value])
    assert code == 4
    assert out == ""
    assert flag in err


@pytest.mark.parametrize(
    "name, value",
    [
        ("NODE_BUDGET", "-5"),
        ("MEMO_CAPACITY", "-1"),
        ("TIME_BUDGET", "-1"),
        ("TIME_BUDGET", "nan"),
    ],
)
def test_invalid_budget_env_is_usage_error(tmp_path, capsys, monkeypatch, name, value):
    monkeypatch.setenv("TDLAB_" + name, value)
    code, out, err = run(capsys, ["td", write_graph(tmp_path, cycle(5))])
    assert code == 4
    assert out == ""
    assert f"TDLAB_{name}" in err


def test_zero_budget_is_accepted(tmp_path, capsys):
    code, _, _ = run(capsys, ["td", write_graph(tmp_path, hn(5)[0]), "--node-budget", "0"])
    assert code == 3


@pytest.mark.parametrize("graph6", ["A_", "Bo", "Bg", "Esa?", "E?Bw"])
@pytest.mark.parametrize("flag", ["--node-budget", "--time-budget", "--memo-capacity"])
def test_zero_budget_with_pinned_bounds_is_exact(tmp_path, capsys, graph6, flag):
    # K2 and the 3-vertex path with its middle vertex at index 0 or 1 need no
    # node. The star K_1,5 with its centre at 0 (Esa?) and at 5 (E?Bw) needs
    # one, which the zero budget stops; the bounds meet, so the stop still
    # yields the value and the DFS witness.
    p = tmp_path / "g.g6"
    p.write_text(graph6 + "\n")
    code, out, _ = run(capsys, ["td", str(p), flag, "0"])
    assert code == 0
    assert "td: 2" in out
    code, out, _ = run(capsys, ["td", str(p), flag, "0", "--json"])
    assert code == 0
    doc = json.loads(out)
    witness = Ranking(tuple(doc["witness"]["labels"]), doc["witness"]["colors"])
    assert verify_ranking(parse_graph_text(graph6 + "\n"), witness) is None


def test_flag_overrides_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TDLAB_NODE_BUDGET", "3")
    code, out, _ = run(
        capsys, ["td", write_graph(tmp_path, hn(5)[0]), "--node-budget", "100000"]
    )
    assert code == 0
    assert "td: 6" in out


def test_no_command_is_usage_error(capsys):
    assert main([]) == 4


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("td", "--threads", "4"),
        ("critical", "--threads", "4"),
        ("unique1", "--threads", "4"),
        ("reproduce", "--threads", "4"),
        ("reproduce", "--format", "graph6"),
        # input commands read the format from the input
        ("td", "--format", "graph6"),
        ("verify", "--format", "graph6"),
        ("critical", "--format", "graph6"),
        ("unique1", "--format", "graph6"),
    ],
)
def test_removed_options_are_usage_errors(tmp_path, capsys, command, flag, value):
    target = ["4"] if command == "reproduce" else [write_graph(tmp_path, hn(4)[0])]
    if command == "verify":
        target.append(target[0])
    code, out, err = run(capsys, [command, *target, flag, value])
    assert code == 4
    assert out == ""
    assert flag in err


@pytest.mark.parametrize(
    "before, after, named",
    [
        # argparse reads the removed flag's value as GRAPH and leaves the file
        # over; only the flag is named
        (["--format", "graph6"], [], "--format"),
        (["--threads", "4"], [], "--threads"),
        # a stray positional is named as it is
        ([], ["extra"], "extra"),
    ],
    ids=["format", "threads", "positional"],
)
def test_unrecognized_arguments_name_the_options(tmp_path, capsys, before, after, named):
    path = write_graph(tmp_path, hn(4)[0])
    code, out, err = run(capsys, ["td", *before, path, *after])
    assert code == 4
    assert out == ""
    assert err.splitlines()[-1] == f"tdlab: error: unrecognized arguments: {named}"
