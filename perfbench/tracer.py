"""Per-layer tracing of tdlab from outside the package.

Every public function of the layer modules (cli, formats, graphs, solver,
ranking, critical) is wrapped in a span. A wrapper is installed at every
place the function is looked up: `cli.py` and `critical.py` bind `treedepth`
at import and `solver.py` binds `component_masks`, so a wrapper placed only
on the defining module would see none of those calls.

A span's self time is its duration minus the time covered by its child
spans. Spans are folded into per-name totals (calls and self time)
as they close, so memory stays flat over the millions of spans a sweep makes,
and nothing is written until the process ends.

Run as a script, it is the traced form of the `tdlab` command:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json td --json graph.g6

writes the totals to OUT.json and exits with the command's exit code.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("cli", "formats", "graphs", "solver", "ranking", "critical")

# component_of runs inside component_masks and inside the labeling search's
# innermost loop; a span there would cost more than the call it times, so its
# time stays in the self time of its callers.
UNWRAPPED = frozenset({"graphs.component_of"})


class Tracer:
    """Span totals per wrapped function, plus the solver and report counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, self_s]
        self._covered = [0.0]  # child-span time of each open span, outermost first
        self._report_depth = 0
        self.reports = 0
        self.subsolves = 0
        self.repeats = 0
        self.budget_exceeded = 0
        self.nodes = 0
        self.memo_entries = 0
        self._solved: set = set()
        self._certs: dict[int, object] = {}

    def _span(self, name, fn):
        stat = self.spans.setdefault(name, [0, 0.0])
        covered = self._covered
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            covered.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                inner = covered.pop()
                covered[-1] += took
                stat[0] += 1
                stat[1] += took - inner

        return span

    def _report(self, fn):
        """Count the outermost critical-layer call as one report."""

        @functools.wraps(fn)
        def report(*args, **kwargs):
            if self._report_depth == 0:
                self.reports += 1
            self._report_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._report_depth -= 1

        return report

    def _solves(self, fn, budget_error):
        """Count treedepth calls: repeats, sub-solves of reports, distinct certificates.

        A search-cache hit returns the first solve's certificate object, whose
        stats describe that first solve, so nodes are summed once per object.
        """

        @functools.wraps(fn)
        def treedepth(g, config=None):
            if self._report_depth:
                self.subsolves += 1
            if g in self._solved:
                self.repeats += 1
            try:
                cert = fn(g, config)
            except budget_error:
                self.budget_exceeded += 1
                raise
            self._solved.add(g)
            if id(cert) not in self._certs:
                self._certs[id(cert)] = cert  # keeps the id from being reused
                self.nodes += cert.stats.nodes
                self.memo_entries = max(self.memo_entries, cert.stats.memo_entries)
            return cert

        return treedepth

    def install(self) -> None:
        """Wrap the public functions of every layer wherever tdlab binds them."""
        import inspect

        import tdlab.cli  # noqa: F401  (loads every layer module)
        from tdlab.solver import BudgetExceededError

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"tdlab.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrapped = self._span(name, fn)
                if layer == "critical":
                    wrapped = self._report(wrapped)
                if name == "solver.treedepth":
                    wrapped = self._solves(wrapped, BudgetExceededError)
                wrappers[fn] = wrapped
        for modname, module in list(sys.modules.items()):
            if modname != "tdlab" and not modname.startswith("tdlab."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def totals(self, import_s: float) -> dict:
        return {
            "import_s": import_s,
            "spans": self.spans,
            "reports": self.reports,
            "subsolves": self.subsolves,
            "repeats": self.repeats,
            "budget_exceeded": self.budget_exceeded,
            "nodes": self.nodes,
            "memo_entries": self.memo_entries,
        }


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    start = time.perf_counter()
    import tdlab.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return tdlab.cli.main(args)
    finally:
        import json

        with open(out, "w", encoding="ascii") as fh:
            json.dump(tracer.totals(import_s), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
