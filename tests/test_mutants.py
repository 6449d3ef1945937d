"""tools/mutants.py: every entry still names code and tests that exist.

Running the mutants takes a pytest run per entry, so that is a CI job of its
own; here only the entries' texts and selections are checked.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import mutants  # noqa: E402


def test_every_mutant_text_occurs_once_and_changes_it():
    for m in mutants.MUTANTS:
        text = (ROOT / m.path).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.name
        assert m.new != m.old, m.name
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


def test_every_selection_names_a_test_function():
    for m in mutants.MUTANTS:
        assert m.selection, m.name
        for node in m.selection:
            path, name = node.split("::")
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            names = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
            assert name in names, (m.name, node)


def test_an_entry_whose_text_is_gone_is_an_error(tmp_path):
    (tmp_path / "code.py").write_text("x = 1\n", encoding="utf-8")
    gone = mutants.Mutant("gone", "code.py", "x = 2", "x = 3", ("t.py::test_x",), "")
    assert mutants.check(gone, tmp_path) == "its text occurs 0 times in code.py, not once"
