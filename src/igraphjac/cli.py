"""Command line interface.

Subcommands:
  jacobian    invariant factors of the Jacobian group for one n or a range
  trees       spanning tree counts with the square decomposition
  asymptotic  tree-growth constant by root product and by Mahler integral
  table       regenerate the reference tables (growth constants / Jacobians)

Ranges are written a..b (inclusive).  --json switches record streams to one
JSON object per line; big integers are serialized as decimal strings.  Exit
codes: 0 success, 1 internal consistency failure, 2 usage error, 3 numeric
precision failure.  `jacobian` and `trees` share one driver that runs the
routes --method names on each graph and compares their results.  A graph
whose routes disagree (InternalInconsistency) or run out of precision gets
an error record and the sweep goes on; its exit code is the worst over the
range, with a consistency failure outranking a precision failure.  `table`
builds its Jacobian tables from the same per-graph function, each over a
fixed `jacobian` command line (JAC_TABLES), and fails on the first failure.

`main` builds its argparse parser once per process, on its first call, and
reuses it: each later call only parses and dispatches.  Only the parser is
kept; every call computes its records afresh.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from math import gcd

import mpmath

from . import __version__
from .asymptotics import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    asymptotic_ratio,
    mahler_constant,
    mahler_integral,
    poly_roots,
)
from .errors import (
    ClassificationFailure,
    ConvergenceFailure,
    DisconnectedError,
    InternalInconsistency,
    InvalidParams,
    PrecisionExhausted,
    QuadratureFailure,
)
from .igraph import DENSE_CEILING, normalize
from .jacobian import LAPLACIAN_GATE, jacobian_via_companion, jacobian_via_laplacian
from .treecount import (
    decompose,
    tree_count_chebyshev,
    tree_count_kirchhoff,
    tree_count_resultant,
)

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
SEVERITY = (EXIT_OK, EXIT_PRECISION, EXIT_INCONSISTENT)  # a sweep exits with the worst

PRECISION_ERRORS = (PrecisionExhausted, ConvergenceFailure, ClassificationFailure, QuadratureFailure)


def _parse_range(text: str) -> range:
    # a range, not a list: a sweep over 10^8 values of n starts at once
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad range {text!r}; expected a..b")
        if lo > hi:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return range(lo, hi + 1)
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {text!r}; expected int or a..b")
    return range(n, n + 1)


def _parse_precision(text: str) -> int:
    try:
        bits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad precision {text!r}; expected an int")
    if bits < MIN_PRECISION:
        raise argparse.ArgumentTypeError(f"precision {bits} is below {MIN_PRECISION} bits")
    return bits


def _emit(record: dict, as_json: bool, text: str):
    print(json.dumps(record) if as_json else text)


def _error_record(n: int, k: int, l: int, exc: Exception) -> dict:
    rec = {"params": {"n": n, "k": k, "l": l}, "error": type(exc).__name__, "detail": str(exc)}
    if isinstance(exc, DisconnectedError):
        rec["components"] = exc.m
    return rec


# Each graph command computes one invariant by several routes.  The calls look
# the function up when they run, so a rebound module attribute is honoured.
ROUTES = {
    "jacobian": {
        "companion": lambda args, p: jacobian_via_companion(p),
        "laplacian": lambda args, p: jacobian_via_laplacian(p),
    },
    "trees": {
        "chebyshev": lambda args, p: tree_count_chebyshev(p, precision_bits=args.precision),
        "kirchhoff": lambda args, p: tree_count_kirchhoff(p),
        "resultant": lambda args, p: tree_count_resultant(p),
    },
}
AUTO_ROUTES = {"jacobian": ("laplacian", "companion"), "trees": ("kirchhoff", "resultant")}
DENSE_ROUTES = {"laplacian", "kirchhoff"}  # they build the n x n circulant S


def _route_names(args, n: int) -> list[str]:
    if args.method == "auto":
        return [AUTO_ROUTES[args.command][n > LAPLACIAN_GATE]]
    if args.method in ("both", "all"):
        return sorted(ROUTES[args.command])
    return [args.method]


# Per-command part of a record: its fields (with "checks", the paper's bounds
# on the result) and its text line.
def _jacobian_summary(p, group) -> tuple[dict, str]:
    upper = 2 * p.k + 2 * p.l - 1
    text = (
        f"{p}  torsion={list(group.torsion)}  free_rank={group.free_rank}"
        f"  tau={group.order}  rank={group.rank} in [2,{upper}]"
    )
    return {
        "torsion": [str(d) for d in group.torsion],
        "free_rank": group.free_rank,
        "tau": str(group.order),
        "checks": {"rank_lower": group.rank >= 2, "rank_upper": group.rank <= upper},
    }, text


def _trees_summary(p, tau) -> tuple[dict, str]:
    dec = decompose(tau, p)
    checks = {"divisible_by_n": tau % p.n == 0, "cube_bound": tau >= p.n**3}
    text = (
        f"{p}  tau={tau} = {dec.multiplier}*{p.n}*{dec.a}^2"
        f"  div_n={checks['divisible_by_n']}  cube={checks['cube_bound']}"
    )
    fields = {"tau": str(tau), "a": str(dec.a), "multiplier": dec.multiplier}
    return {**fields, "checks": checks}, text


SUMMARIES = {"jacobian": _jacobian_summary, "trees": _trees_summary}


def _graph_record(args, p) -> tuple[dict, str]:
    """Run the chosen routes on one graph, check they agree; return its record and text line."""
    results, timings = {}, {}
    for name in _route_names(args, p.n):
        t0 = time.perf_counter()
        results[name] = ROUTES[args.command][name](args, p)
        timings[name] = round((time.perf_counter() - t0) * 1000, 3)
    if len(set(results.values())) > 1:
        values = ", ".join(f"{name}={value}" for name, value in results.items())
        raise InternalInconsistency(f"routes disagree: {values}")
    fields, text = SUMMARIES[args.command](p, next(iter(results.values())))
    rec = {"params": {"n": p.n, "k": p.k, "l": p.l}, **fields}
    rec.update(methods_used=sorted(results), timings_ms=timings)
    return rec, text


def _sweep(args) -> int:
    """Run one graph command over the range of n; print each record, return the worst status.

    Degenerate parameters get a skip record, and a graph whose computation
    fails gets an error record; either way the sweep goes on to the next n.
    A dense route asked for above DENSE_CEILING fails the whole command
    before any record, so that no sweep stops halfway.  `table` builds its
    Jacobian tables from the same _graph_record, where a failure ends the command.
    """
    top = args.n[-1]
    if top > DENSE_CEILING and DENSE_ROUTES.intersection(_route_names(args, top)):
        raise InvalidParams(f"--method {args.method} is capped at n = {DENSE_CEILING}, got {top}")
    status = EXIT_OK
    for n in args.n:
        try:
            p = normalize(n, args.k, args.l)
        except InvalidParams as exc:
            rec = _error_record(n, args.k, args.l, exc)
            _emit(rec, args.json, f"I({n},{args.k},{args.l})  skipped: {rec['detail']}")
            continue
        try:
            rec, text = _graph_record(args, p)
            code = EXIT_OK if all(rec["checks"].values()) else EXIT_INCONSISTENT
        except PRECISION_ERRORS + (InternalInconsistency,) as exc:
            code = EXIT_PRECISION if isinstance(exc, PRECISION_ERRORS) else EXIT_INCONSISTENT
            rec = _error_record(p.n, p.k, p.l, exc)
            text = f"{p}  failed: {rec['error']}: {rec['detail']}"
        _emit(rec, args.json, text)
        status = max(status, code, key=SEVERITY.index)
    return status


def _justified(approx) -> str:
    """The value to the significant digits its error bound leaves intact."""
    digits = int(mpmath.floor(mpmath.log10(abs(approx.value) / approx.error_bound)))
    return mpmath.nstr(approx.value, max(digits, 1))


def cmd_asymptotic(args) -> int:
    k, l = args.k, args.l
    # normalized before any root or integral: a record holds one graph family
    p = None if args.ratio_at is None else normalize(args.ratio_at, k, l)
    if p is not None and (p.k, p.l) != tuple(sorted((k, l))):
        raise InvalidParams(f"--ratio-at {args.ratio_at} reduces I({p.n},{k},{l}) to {p}")
    roots = poly_roots(k, l, args.precision)
    root = mahler_constant(k, l, args.precision, roots)
    integral = mahler_integral(k, l, args.precision, roots)
    diff = abs(root.value - integral.value)
    agree = bool(diff <= root.error_bound + integral.error_bound)
    rec = {
        "k": k,
        "l": l,
        "precision_bits": args.precision,
        "constant": _justified(root),
        "constant_error_bound": mpmath.nstr(root.error_bound, 5),
        "integral": _justified(integral),
        "integral_error_bound": mpmath.nstr(integral.error_bound, 5),
        "agree": agree,
    }
    lines = [
        f"A({k},{l}) root product  = {rec['constant']}  (err <= {rec['constant_error_bound']})",
        f"A({k},{l}) Mahler integral = {rec['integral']}  (err <= {rec['integral_error_bound']})",
        f"4-decimal value: {_format_a_cell(root.value)}",
        f"routes agree within bounds: {agree}",
    ]
    if p is not None:
        tau = tree_count_resultant(p)
        ratio = asymptotic_ratio(p, tau, root)
        rec["ratio_at"] = {
            "n": p.n,
            "tau": str(tau),
            "ratio": mpmath.nstr(ratio.value, 20),
            "error_bound": mpmath.nstr(ratio.error_bound, 5),
        }
        lines.append(
            f"ratio at n={p.n}: {mpmath.nstr(ratio.value, 20)} "
            f"(err <= {mpmath.nstr(ratio.error_bound, 5)})"
        )
    _emit(rec, args.json, "\n".join(lines))
    return EXIT_OK if agree else EXIT_INCONSISTENT


def _format_a_cell(value) -> str:
    # truncated, not rounded: the published 4-decimal table cuts digits
    scaled = int(mpmath.floor(value * 10000))
    return f"{scaled // 10000}.{scaled % 10000:04d}"


def _table_a_records() -> list[dict]:
    records = []
    for k in range(1, 9):
        for l in range(k, 10):
            if gcd(k, l) != 1:
                continue
            approx = mahler_constant(k, l, precision_bits=128)
            records.append({"k": k, "l": l, "A": _format_a_cell(approx.value)})
    return records


# Each Jacobian table reformats the records of one `jacobian` command line.
JAC_TABLES = {
    "jac23": "jacobian --n 4..35 --k 2 --l 3 --method companion",
    "jac34": "jacobian --n 5..25 --k 3 --l 4 --method companion",
}


def _table_jac_rows(which: str) -> list[dict]:
    args = _parser().parse_args(JAC_TABLES[which].split())
    records = (_graph_record(args, normalize(n, args.k, args.l))[0] for n in args.n)
    return [{"n": rec["params"]["n"], "torsion": rec["torsion"], "tau": rec["tau"]} for rec in records]


def _table_lines(args) -> list[str]:
    records = _table_a_records() if args.which == "A" else _table_jac_rows(args.which)
    if args.format == "json":
        return [json.dumps(rec) for rec in records]
    if args.format == "csv":
        rows = [[" ".join(v) if isinstance(v, list) else str(v) for v in rec.values()] for rec in records]
        return [",".join(records[0]), *map(",".join, rows)]
    if args.which == "A":
        cells = {(rec["k"], rec["l"]): rec["A"] for rec in records}
        lines = ["k\\l " + "".join(f"{l:>8}" for l in range(1, 10))]
        for k in range(1, 9):
            row = "".join(" " * 8 if l < k else f"{cells.get((k, l), '-'):>8}" for l in range(1, 10))
            lines.append(f"{k:>3} {row}".rstrip())
        return lines
    groups = [f"n={rec['n']:>3}  Z^1 + (" + ", ".join(rec["torsion"]) + ")" for rec in records]
    width = max(map(len, groups))
    return [f"{group:<{width}}  tau={rec['tau']}" for group, rec in zip(groups, records)]


def cmd_table(args) -> int:
    # --out is opened before any record is computed, so a bad path fails at once
    try:
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
            out.write("".join(f"{line}\n" for line in _table_lines(args)))
    except OSError as exc:
        if not args.out:
            raise
        raise InvalidParams(f"cannot write --out: {exc}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igraphjac",
        description="Jacobian groups, spanning tree counts and growth constants of I-graphs I(n,k,l).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, every, help_text in (
        ("jacobian", "both", "invariant factors of the Jacobian group"),
        ("trees", "all", "spanning tree counts"),
    ):
        small, large = AUTO_ROUTES[command]
        p_graph = sub.add_parser(command, help=help_text)
        p_graph.add_argument("--n", type=_parse_range, required=True, help="single value or range a..b")
        p_graph.add_argument("--k", type=int, required=True)
        p_graph.add_argument("--l", type=int, required=True)
        p_graph.add_argument(
            "--method",
            choices=[*ROUTES[command], every, "auto"],
            default="auto",
            help=f"auto picks {small} for n <= {LAPLACIAN_GATE}, {large} above",
        )
        p_graph.add_argument("--json", action="store_true")
        if command == "trees":
            p_graph.add_argument("--precision", type=_parse_precision, default=DEFAULT_PRECISION)
        p_graph.set_defaults(func=_sweep)

    p_asym = sub.add_parser("asymptotic", help="tree-growth constant A(k,l)")
    p_asym.add_argument("--k", type=int, required=True)
    p_asym.add_argument("--l", type=int, required=True)
    p_asym.add_argument("--precision", type=_parse_precision, default=DEFAULT_PRECISION)
    p_asym.add_argument("--ratio-at", type=int, default=None, metavar="N")
    p_asym.add_argument("--json", action="store_true")
    p_asym.set_defaults(func=cmd_asymptotic)

    p_table = sub.add_parser("table", help="regenerate a reference table")
    p_table.add_argument("--which", choices=["A", "jac23", "jac34"], required=True)
    p_table.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p_table.add_argument("--out", default=None, help="write to file instead of stdout")
    p_table.set_defaults(func=cmd_table)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] by default); return its exit code.

    The parser is built on the first call and reused by later calls in the
    same process.  Parsing starts from a fresh namespace each time, and the
    routes are looked up when they run, so no argument or rebound function
    carries over from one call to the next.
    """
    args = _parser().parse_args(argv)
    # exact counts and invariant factors outgrow Python's default limit on
    # int -> decimal string conversion (4300 digits) from n of a few thousand
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except PRECISION_ERRORS as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except InternalInconsistency as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except InvalidParams as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
