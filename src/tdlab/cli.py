"""Command-line surface: td, verify, gen, critical, unique1, reproduce, selftest.

Exit codes are a stable contract: 0 success, 1 property-check failure,
2 parse error, 3 budget exhaustion, 4 usage error. Flags mirror environment
variables with the TDLAB_ prefix (TDLAB_NODE_BUDGET, TDLAB_TIME_BUDGET,
TDLAB_MEMO_CAPACITY, TDLAB_FORMAT, TDLAB_SEED); an explicit flag wins over
its environment variable. Graph input is graph6 or an edge list, told apart
by its first data line, so only `gen`, which writes a graph, takes --format.
A budget stop prints the certified bounds on stdout, whatever the command.

Stdout is deterministic for identical inputs and flags; wall-clock timings
go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .critical import (
    CriticalityReport,
    FamilyRow,
    UniquenessReport,
    VertexUniqueness,
    is_critical,
    reproduce,
    uniqueness_report,
)
from .formats import (
    FormatError,
    format_graph_text,
    format_ranking,
    parse_graph_text,
    parse_ranking,
)
from .graphs import Graph, cartesian_k2, complete, cycle, hn, k_net, path
from .ranking import verify_ranking
from .solver import BudgetExceededError, SolverConfig, treedepth

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_USAGE = 4

ENV_PREFIX = "TDLAB_"

FAMILIES = {
    "hn": lambda n: hn(n)[0],
    "knet": k_net,
    "kak2": cartesian_k2,
    "complete": complete,
    "cycle": cycle,
    "path": path,
}


def _count(text: str) -> int:
    """A non-negative integer: a node budget or a memo capacity."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _seconds(text: str) -> float:
    """A time budget: a finite, non-negative number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite, non-negative number of seconds, got {text!r}"
        )
    return value


GRAPH_FORMATS = ("edgelist", "graph6")


def _graph_format(text: str) -> str:
    if text not in GRAPH_FORMATS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(GRAPH_FORMATS)})"
        )
    return text


# Options with an environment mirror: dest -> (variable, parser, fallback).
# The parser leaves them None when no flag is given; _apply_env fills them in
# inside main's error handling, so a bad value is a usage error, not a crash.
_ENV_OPTIONS = {
    "node_budget": ("NODE_BUDGET", _count, None),
    "time_budget": ("TIME_BUDGET", _seconds, None),
    "memo_capacity": ("MEMO_CAPACITY", _count, None),
    "seed": ("SEED", int, 0),
    "format": ("FORMAT", _graph_format, None),
}


def _apply_env(args: argparse.Namespace) -> None:
    for dest, (name, parse, fallback) in _ENV_OPTIONS.items():
        if not hasattr(args, dest) or getattr(args, dest) is not None:
            continue
        raw = os.environ.get(ENV_PREFIX + name)
        if raw is None:
            setattr(args, dest, fallback)
            continue
        try:
            setattr(args, dest, parse(raw))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{ENV_PREFIX}{name}: {exc}") from None


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the usage-error exit code of this tool."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_args(self, args=None, namespace=None):
        # An unknown option that takes a value makes argparse read its value
        # as a positional and leave the next one over, so when options are
        # among the leftovers, only they are named. Like argparse, `-` and a
        # negative number are not options.
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            options = [
                a for a in extras if a.startswith("-") and not re.fullmatch(r"-|-\d+|-\d*\.\d+", a)
            ]
            self.error(f"unrecognized arguments: {' '.join(options or extras)}")
        return parsed


def _solver_options() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--node-budget", type=_count,
        help="abort with bounds after this many expanded nodes "
        "(subgraphs of at most 5 vertices are not nodes)",
    )
    p.add_argument(
        "--time-budget", type=_seconds,
        metavar="SECONDS", help="abort with bounds after this much wall time",
    )
    p.add_argument(
        "--memo-capacity", type=_count,
        help="abort with bounds beyond this many solver store entries "
             "(exact values and lower bounds together)",
    )
    return p


def _io_options() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    return p


def _config_from(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        node_budget=args.node_budget,
        time_budget=args.time_budget,
        memo_capacity=args.memo_capacity,
    )


def _read_text(source: str) -> str:
    try:
        if source == "-":
            if sys.stdin is None:  # the process was started with fd 0 closed
                raise OSError("standard input is closed")
            return sys.stdin.buffer.read().decode("ascii")
        with open(source, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"input is not ASCII text: {exc}") from None


def _load_graph(args: argparse.Namespace) -> Graph:
    return parse_graph_text(_read_text(args.graph))


def _emit_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_td(args: argparse.Namespace) -> int:
    cert = treedepth(_load_graph(args), _config_from(args))
    if args.json:
        _emit_json(
            {
                "td": cert.value,
                "witness": {
                    "colors": cert.witness.colors,
                    "labels": list(cert.witness.labels),
                },
                "stats": {
                    "nodes": cert.stats.nodes,
                    "memo_entries": cert.stats.memo_entries,
                    "symmetry_skips": cert.stats.symmetry_skips,
                    "table_reads": cert.stats.table_reads,
                },
            }
        )
    else:
        print(f"td: {cert.value}")
        print(f"witness: {format_ranking(cert.witness)}", end="")
        print(f"nodes: {cert.stats.nodes}  memo: {cert.stats.memo_entries}")
    print(f"# elapsed: {cert.stats.elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    g = FAMILIES[args.family](args.size)
    sys.stdout.write(format_graph_text(g, args.format or "edgelist"))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.graph == "-" and args.ranking == "-":
        raise ValueError("only one of GRAPH and RANKING can read from stdin")
    g = _load_graph(args)
    r = parse_ranking(_read_text(args.ranking))
    violation = verify_ranking(g, r)
    if violation is None:
        if args.json:
            _emit_json({"valid": True})
        else:
            print("valid")
        return EXIT_OK
    if args.json:
        _emit_json(
            {
                "valid": False,
                "label": violation.label,
                "pair": list(violation.pair),
                "path": list(violation.path),
            }
        )
    else:
        x, y = violation.pair
        route = "-".join(str(v) for v in violation.path)
        print(
            f"invalid: vertices {x} and {y} share label {violation.label} "
            f"joined by path {route} with no higher label inside"
        )
    return EXIT_PROPERTY


def _criticality_doc(report: CriticalityReport) -> dict:
    return {
        "base_td": report.base_td,
        "is_critical": report.is_critical,
        "steps": [
            {"step": str(r.step), "kind": r.step.kind, "u": r.step.u, "v": r.step.v, "td": r.td}
            for r in report.steps
        ],
        "failing": [str(r.step) for r in report.failing_steps],
        "inconclusive": [str(s) for s in report.inconclusive_steps],
    }


def cmd_critical(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = is_critical(g, _config_from(args))
    if args.json:
        _emit_json(_criticality_doc(report))
    else:
        print(f"td: {report.base_td}")
        print(f"{'step':<12} {'td':>4} {'drops':>6}")
        for r in report.steps:
            print(f"{str(r.step):<12} {r.td:>4} {'yes' if r.td < report.base_td else 'NO':>6}")
        for s in report.inconclusive_steps:
            print(f"{str(s):<12} {'?':>4} {'?':>6}")
        verdict = {True: "critical", False: "not critical", None: "inconclusive"}
        print(f"verdict: {verdict[report.is_critical]}")
    return EXIT_BUDGET if report.is_critical is None else EXIT_OK


def _uniqueness_doc(
    report: UniquenessReport, selected: tuple[VertexUniqueness, ...]
) -> dict:
    return {
        "one_unique": report.graph_one_unique,
        "non_1_unique": list(report.non_one_unique),
        "direct_method_ran": report.direct_method_ran,
        "vertices": [
            {
                "vertex": u.vertex,
                "one_unique": u.one_unique,
                "by_starclique": u.by_starclique,
                "by_direct": u.by_direct,
                "witness": None if u.witness is None else list(u.witness.labels),
            }
            for u in selected
        ],
    }


def cmd_unique1(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if args.vertex is not None and not 0 <= args.vertex < g.n:
        raise ValueError(f"vertex {args.vertex} does not exist (n={g.n})")
    # The graph-level fields and the exit code describe the whole graph, so
    # the whole report is built even for one vertex.
    report = uniqueness_report(g, _config_from(args))
    selected = report.per_vertex
    if args.vertex is not None:
        selected = tuple(u for u in report.per_vertex if u.vertex == args.vertex)
    if args.json:
        _emit_json(_uniqueness_doc(report, selected))
    else:
        print(f"{'vertex':>6} {'1-unique':>9} {'transform':>10} {'direct':>7}")
        fmt = {True: "yes", False: "no", None: "-"}
        for u in selected:
            print(
                f"{u.vertex:>6} {fmt[u.one_unique]:>9} "
                f"{fmt[u.by_starclique]:>10} {fmt[u.by_direct]:>7}"
            )
        if args.vertex is None:
            if report.graph_one_unique is None:
                print("verdict: inconclusive")
            elif report.non_one_unique:
                members = ", ".join(str(v) for v in report.non_one_unique)
                print(f"non-1-unique: {{{members}}}")
            else:
                print("all vertices 1-unique")
    if report.graph_one_unique is None:
        return EXIT_BUDGET
    return EXIT_OK


def _row_line(row: FamilyRow) -> str:
    def show(x):
        return "?" if x is None else x

    non1 = "?" if row.non_1_unique is None else "{" + ",".join(map(str, row.non_1_unique)) + "}"
    return (
        f"{row.n:>3} {show(row.td):>4} {row.expected_td:>8} "
        f"{show(row.critical)!s:>9} {non1:>13} "
        f"{show(row.starclique_td):>7} {row.expected_starclique_td:>8} "
        f"{row.witnesses_ok!s:>10} {'OK' if row.ok else 'FAIL':>5}"
    )


def cmd_reproduce(args: argparse.Namespace) -> int:
    rows = reproduce(args.n_max, _config_from(args))
    if args.json:
        _emit_json([row.to_json_dict() for row in rows])
    else:
        print(
            f"{'n':>3} {'td':>4} {'expected':>8} {'critical':>9} "
            f"{'non-1-unique':>13} {'sc(td)':>7} {'expected':>8} {'witnesses':>10} {'ok':>5}"
        )
        for row in rows:
            print(_row_line(row))
    if any(row.incomplete for row in rows):
        return EXIT_BUDGET
    if not all(row.ok for row in rows):
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest  # only this command runs the suites

    ok = run_selftest(seed=args.seed)
    print("selftest: " + ("all suites passed" if ok else "FAILURES above"))
    return EXIT_OK if ok else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    solver_opts = _solver_options()
    io_opts = _io_options()
    parser = _ArgumentParser(
        prog="tdlab",
        description="Exact tree-depth laboratory for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("td", parents=[io_opts, solver_opts],
                       help="exact tree-depth with witness and stats")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.set_defaults(func=cmd_td)

    p = sub.add_parser("gen", help="emit a generator family member")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("size", type=int)
    p.add_argument(
        "--format", type=_graph_format, metavar="{" + ",".join(GRAPH_FORMATS) + "}",
        help="output format (default edgelist)",
    )
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", parents=[io_opts],
                       help="check a ranking against a graph")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("ranking", help="ranking file ('k: l_0 l_1 ...'), or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("critical", parents=[io_opts, solver_opts],
                       help="tree-depth of every one-step minor")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("unique1", parents=[io_opts, solver_opts],
                       help="per-vertex 1-uniqueness report")
    p.add_argument("graph", help="graph file, or - for stdin")
    p.add_argument("--vertex", type=int, default=None, help="restrict to one vertex")
    p.set_defaults(func=cmd_unique1)

    p = sub.add_parser("reproduce", parents=[io_opts, solver_opts],
                       help="certify the hn family up to n_max")
    p.add_argument("n_max", type=int)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("selftest", help="reduced-scale cross-validation suites")
    p.add_argument("--seed", type=int,
                   help="seed for the randomized spot checks (default 0)")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_env(args)
        return args.func(args)
    except FormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        lower, upper = exc.bounds.lower, exc.bounds.upper
        if args.json:
            _emit_json({"bounds": {"lower": lower, "upper": upper}})
        else:
            print(f"budget exhausted: td in [{lower}, {upper}]")
        print(f"# {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
