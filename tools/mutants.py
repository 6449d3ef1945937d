"""Named mutants of tdlab, each of which its test selection must kill.

    python3 tools/mutants.py

Each entry names a file, an exact text in it, the text that replaces it and
a pytest selection. The tool copies the checkout that holds it, without
.git and caches, into a temporary directory once, and runs every entry. For
each entry it runs the selection on the unmutated copy, which must pass, replaces the text, which must occur exactly
once, runs the selection again, which must fail, and puts the file back.

It exits 1 if a mutant survives, its text does not occur exactly once, or
its selection fails unmutated or does not run on the mutant; else 0. An
entry whose text no longer matches is therefore an error, not a pass: a
change to the code it mutates must update the entry. Standard library only;
the selections need pytest. To check one entry by hand, apply its change
and run its selection.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the checkout
    old: str  # must occur exactly once in the file
    new: str
    selection: tuple[str, ...]  # pytest node ids
    why: str  # what the mutant breaks


MUTANTS = [
    Mutant(
        "M5",
        "src/tdlab/solver.py",
        "if 0 != c & mask != c:",
        "if False:",
        ("tests/test_symmetry.py::test_circulant_values_match_the_subset_recursion",),
        "the orbit rule merges orbits by generators that move a vertex of the mask out of it",
    ),
    Mutant(
        "clique-pick-last",
        "src/tdlab/solver.py",
        "chosen = order[0]",
        "chosen = order[-1]",
        ("tests/test_solver.py::test_witnesses_of_all_small_graphs_are_pinned",),
        "a node that no branch lowers, a clique, picks the last vertex in branch order",
    ),
    Mutant(
        "parent-pick-unshifted",
        "src/tdlab/solver.py",
        "self._store(memo, mask, (val, w - (w > drop)))",
        "self._store(memo, mask, (val, w))",
        (
            "tests/test_solver.py::test_picks_copied_from_a_parent_are_canonical",
            "tests/test_solver.py::test_chained_derived_solves_match_fresh_solves",
        ),
        "a pick copied from the parent is not re-indexed past the dropped vertex",
    ),
    Mutant(
        "M6",
        "src/tdlab/solver.py",
        "known = max(known, (hit[0] if hit else up.lower.get(p, 0)) - 1)",
        "known = max(known, hit[0] if hit else up.lower.get(p, 0))",
        ("tests/test_acceptance.py::test_criterion_02_hn_criticality",),
        "a subproblem one step from the parent's takes the parent's value or bound without the - 1",
    ),
    Mutant(
        "M7",
        "src/tdlab/solver.py",
        "self._store(self.lower, mask, floor)",
        "self._store(self.lower, mask, floor + 1)",
        ("tests/test_acceptance.py::test_criterion_02_hn_criticality",),
        "a lower-store entry is written one above the bound the node proved",
    ),
]

# Pytest's exit status when tests ran and some failed.
_TESTS_FAILED = 1


def run_selection(root: Path, selection: tuple[str, ...]) -> int:
    """Pytest's exit status for `selection` on the checkout at `root`."""
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def check(mutant: Mutant, copy: Path) -> str | None:
    """None if the selection passes on `copy` and fails on the mutant, else what went wrong."""
    target = copy / mutant.path
    text = target.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        return f"its text occurs {found} times in {mutant.path}, not once"
    status = run_selection(copy, mutant.selection)
    if status != 0:
        return f"its selection fails unmutated (pytest exit {status})"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        status = run_selection(copy, mutant.selection)
    finally:
        target.write_text(text, encoding="utf-8")
    if status == 0:
        return "it survived"
    if status != _TESTS_FAILED:
        return f"its selection did not run on the mutant (pytest exit {status})"
    return None


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    ignore = shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_build", ".benchmarks"
    )
    failed = 0
    with tempfile.TemporaryDirectory(prefix="tdlab-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=ignore)
        for m in MUTANTS:
            start = time.monotonic()
            problem = check(m, copy)
            took = time.monotonic() - start
            if problem is None:
                print(f"{m.name}: killed by {' '.join(m.selection)} ({took:.1f} s)", flush=True)
            else:
                failed += 1
                print(f"{m.name} ({m.why}): FAILED, {problem} ({took:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
