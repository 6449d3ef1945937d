"""Start-up cost of the package and the CLI, checked by the modules loaded, not by time.

Every CLI command runs in a fresh process, so what `import tdlab.cli` loads
is paid by each of them. The records are NamedTuples and small classes, so
no entry point needs `dataclasses`, which also imports `inspect`, `ast`, `dis`
and `tokenize`. The selftest suites are imported by the `selftest` command
alone, and `import tdlab` serves the report layer's names on first use.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdlab

ROOT = Path(__file__).resolve().parent.parent
HN9 = ROOT / "perfbench" / "inputs" / "hn9.g6"

NEVER_AT_START = ("dataclasses", "inspect", "tdlab.selftest")


def _env() -> dict:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def loaded_by(code: str) -> set[str]:
    """Modules a fresh interpreter holds after `code` that a bare one does not."""

    def modules(body: str) -> set[str]:
        script = body + "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
        done = subprocess.run(
            [sys.executable, "-c", script], env=_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return set(done.stdout.splitlines()[-1].split())

    return modules(code) - modules("pass")


def test_import_cli_loads_neither_dataclasses_nor_selftest():
    assert not loaded_by("import tdlab.cli") & set(NEVER_AT_START)


def test_import_package_defers_the_report_layer():
    loaded = loaded_by("import tdlab")
    assert "tdlab.solver" in loaded
    assert not loaded & {"tdlab.critical", *NEVER_AT_START}


def test_only_the_selftest_command_imports_the_suites():
    td = loaded_by(f"from tdlab.cli import main\nmain(['td', '--json', {str(HN9)!r}])")
    assert "tdlab.cli" in td and not td & set(NEVER_AT_START)
    assert "tdlab.selftest" in loaded_by("from tdlab.cli import main\nmain(['selftest'])")


def test_traced_cli_runs(tmp_path):
    # perfbench/tracer.py wraps every layer module, tdlab.critical included,
    # right after `import tdlab.cli`; a CLI that deferred the report layer
    # would fail every traced benchmark pass with a KeyError.
    out = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out), "td", "--json", str(HN9)],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["td"] == 10
    assert json.loads(out.read_text())["spans"]["solver.treedepth"][0] == 1


# Every name the package exported before its report layer was deferred.
EXPORTS = {
    "graphs": (
        "Graph", "HnLayout", "MinorStep", "apply_minor_step", "cartesian_k2", "complete",
        "contract_edge", "cycle", "delete_edge", "delete_vertex", "hn", "is_isomorphic",
        "k_net", "one_step_minor_steps", "path", "star_clique",
    ),
    "ranking": (
        "Ranking", "Violation", "hn_minor_witness", "verify_ranking",
        "verify_ranking_by_paths", "witness_hn", "witness_kak2",
    ),
    "solver": (
        "Bounds", "BudgetExceededError", "SolverConfig", "SolverStats", "TdCertificate",
        "bounds", "brute_force_td", "derive", "search_feasible_labeling", "treedepth",
        "treedepth_le",
    ),
    "critical": (
        "CriticalityReport", "FamilyRow", "UniquenessReport", "VertexUniqueness",
        "is_critical", "one_unique_direct", "one_unique_starclique", "reproduce",
        "uniqueness_report",
    ),
    "formats": (
        "FormatError", "format_edge_list", "format_graph6", "format_graph_text",
        "format_ranking", "parse_edge_list", "parse_graph6", "parse_graph_text",
        "parse_ranking",
    ),
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_package_exports_resolve_to_their_defining_module(module):
    defining = importlib.import_module(f"tdlab.{module}")
    for name in EXPORTS[module]:
        assert getattr(tdlab, name) is getattr(defining, name), name
        assert name in tdlab.__all__, name


def test_all_lists_exactly_the_exports():
    assert sorted(tdlab.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    with pytest.raises(AttributeError):
        tdlab.no_such_name  # noqa: B018
