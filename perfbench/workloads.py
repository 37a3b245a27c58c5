"""Op lists and record checks for the three benchmark workloads.

An op is what one user asks the command line for: one graph, or one growth
constant cell.  Each op carries the argv it is run with and what the benchmark
expects back.  The expectations are computed here from first principles (the
normalization rules, the published growth grid), never by calling the package,
so a wrong record cannot vouch for itself.

Workload choices (see README.md for the layers each one loads and bypasses):

exact-large-n     Companion Jacobians and resultant tree counts on contiguous
                  n blocks.  Smith form time is heavy tailed in n, so a
                  contiguous block samples that tail the same way each run;
                  the seed only shifts the block by a few n.
growth-grid       `asymptotic` over table-A cells at several precisions.  The
                  cell mix puts the median on (1,2), where the Mahler integral
                  dominates, and the 90th percentile on (5,6), where Aberth
                  rooting dominates, each inside its cluster of ops.
sweep-crosscheck  Per-graph `jacobian` and `trees` calls as a range sweep makes
                  them: auto method on both sides of LAPLACIAN_GATE, `both` and
                  `all` cross-checks, raw triples that normalize or skip, and a
                  Chebyshev leg past the n where the default precision runs out.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal
from math import gcd, prod

DEFAULT_PRECISION = 256  # the `trees --precision` default users start from
MAX_RETRIES = 2  # doublings tried after a precision failure (exit code 3)

# Published 4-decimal growth constants, truncated toward zero, for the cells
# the growth-grid workload runs.  (The one published cell that was rounded
# instead, (5,7), is not among them.)
GROWTH_4DP = {
    (1, 1): "3.7320",
    (1, 2): "4.3902",
    (2, 3): "4.8419",
    (5, 6): "5.1201",
}


@dataclass(frozen=True)
class Op:
    """One CLI request and the facts its record is checked against."""

    kind: str  # label used to spot percentile cliffs, e.g. "trees/auto"
    argv: tuple[str, ...]
    n: int = 0
    k: int = 0
    l: int = 0
    precision: int = DEFAULT_PRECISION

    def with_precision(self, bits: int) -> "Op":
        argv = list(self.argv)
        if "--precision" in argv:
            argv[argv.index("--precision") + 1] = str(bits)
        else:
            argv[-1:-1] = ["--precision", str(bits)]
        return Op(self.kind, tuple(argv), self.n, self.k, self.l, bits)


def _graph_op(cmd: str, method: str, n: int, k: int, l: int) -> Op:
    argv = (cmd, "--n", str(n), "--k", str(k), "--l", str(l), "--method", method, "--json")
    return Op(f"{cmd}/{method}", argv, n, k, l)


def _growth_op(k: int, l: int, bits: int) -> Op:
    argv = ("asymptotic", "--k", str(k), "--l", str(l), "--precision", str(bits), "--json")
    return Op(f"asymptotic({k},{l})", argv, 0, k, l, bits)


def exact_large_n(rng: random.Random, gate: int) -> list[Op]:
    # (4,5) sits at smaller n because around n = 300 single Smith forms
    # already take several seconds, which would leave too few ops per run.
    blocks = ((2, 3, 940), (3, 4, 540), (4, 5, 140))
    length = 96
    offset = rng.randrange(16)
    ops = []
    for i in range(length):
        for k, l, base in blocks:
            n = base + offset + i
            ops.append(_graph_op("jacobian", "companion", n, k, l))
            ops.append(_graph_op("trees", "resultant", n, k, l))
    return ops


def growth_grid(rng: random.Random, gate: int) -> list[Op]:
    # Of 16 ops, 10 are on (1,2), the cheapest cell, and 3 on (5,6): the
    # median falls inside the (1,2) cluster and the 90th percentile in the
    # middle of the (5,6) cluster.  Ops on (5,6) cost ten times more, so this
    # mix is what lets a run time at least 100 ops.  The seed jitters the
    # precisions and shuffles the cheap ops.  The (5,6) ops share one
    # precision, because their Aberth time changes by up to 40% from one
    # precision to the next and the 90th percentile would follow whichever
    # the seed picked; they sit every fifth op, so that the partial pass at
    # the end of a run holds the same mix as a whole one.
    plan = {
        (1, 2): [b + rng.randrange(8) for b in range(64, 209, 16)],
        (1, 1): [96 + rng.randrange(8)],
        (2, 3): [64 + rng.randrange(8), 128 + rng.randrange(8)],
    }
    cheap = [_growth_op(k, l, bits) for (k, l), levels in plan.items() for bits in levels]
    rng.shuffle(cheap)
    big = _growth_op(5, 6, 64)
    return cheap[:4] + [big] + cheap[4:8] + [big] + cheap[8:12] + [big] + cheap[12:]


def _raw_form(rng: random.Random, n: int, k: int, l: int) -> tuple[int, int]:
    """Steps that normalize back to (k, l): as given, swapped, or one shifted by n."""
    return rng.choice(((k, l), (l, k), (k + n, l), (k, l + n)))


def sweep_crosscheck(rng: random.Random, gate: int) -> list[Op]:
    # The n ranges are fixed: Kirchhoff time grows as n^3, so shifting them
    # would move both percentiles from seed to seed.  The seed picks the raw
    # form of the steps and the order of the ops.
    legs = [
        # auto method on both sides of the gate (Laplacian/Kirchhoff below
        # it, companion/resultant above)
        (range(gate - 15, gate + 9), ((2, 3), (3, 4)), (("jacobian", "auto"), ("trees", "auto"))),
        # internal cross-checks at small and medium n on raw pairs: (3,2)
        # swaps, (2,4) and (4,6) skip for even n and normalize for odd n,
        # (2,5) hits a loop at n = 5
        (
            range(5, 41, 3),
            ((2, 3), (3, 2), (2, 4), (4, 6), (2, 5)),
            (("jacobian", "both"), ("trees", "all")),
        ),
        # Chebyshev counts across the n (about 140) where 256 bits stop sufficing
        (range(90, 215, 5), ((2, 3), (3, 4)), (("trees", "chebyshev"),)),
    ]
    ops = [
        _graph_op(cmd, method, n, *_raw_form(rng, n, k, l))
        for ns, pairs, calls in legs
        for n in ns
        for k, l in pairs
        for cmd, method in calls
    ]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "exact-large-n": exact_large_n,
    "growth-grid": growth_grid,
    "sweep-crosscheck": sweep_crosscheck,
}


def make_ops(workload: str, seed: int, gate: int) -> list[Op]:
    """The workload's op list; the same seed always gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), gate)


def expected_calls(workload: str, ops: list[Op]) -> dict[str, int]:
    """Traced call counts the ops that ran must produce.

    The Chebyshev root cache is keyed by (k, l, precision), so the sweep roots
    one quotient per distinct key among the calls that reach the count,
    failed attempts included.
    """
    if workload == "exact-large-n":
        jac = sum(op.argv[0] == "jacobian" for op in ops)
        return {
            "bigmat.smith_normal_form": jac,
            "bigmat.mat_pow": jac,
            "polyring.resultant": len(ops) - jac,
        }
    if workload == "growth-grid":
        return {"asymptotics.poly_roots": len(ops), "asymptotics.mahler_integral": len(ops)}
    keys = set()
    for op in ops:
        skip, canon = expected_graph(op.n, op.k, op.l)
        if not skip and _method(op) in ("chebyshev", "all"):
            keys.add((canon[1], canon[2], op.precision))
    return {"asymptotics.poly_roots": len(keys)}


class BadRecord(Exception):
    """A record that is missing, malformed or wrong."""


def _require(ok: bool, what: str):
    if not ok:
        raise BadRecord(what)


def expected_graph(n: int, k: int, l: int):
    """(skip error name or None, components or canonical (n, k, l))."""
    k0, l0 = k % n, l % n
    if k0 == 0 or l0 == 0:
        return "LoopError", None
    m = gcd(n, gcd(k0, l0))
    if m > 1:
        return "DisconnectedError", m
    d = gcd(k0, l0)
    k0, l0 = sorted((k0 // d, l0 // d))
    return None, (n, k0, l0)


def _method(op: Op) -> str:
    return op.argv[op.argv.index("--method") + 1]


def _methods(op: Op, gate: int) -> list[str]:
    method = _method(op)
    if op.argv[0] == "jacobian":
        if method == "auto":
            return ["laplacian" if op.n <= gate else "companion"]
        return ["companion", "laplacian"] if method == "both" else [method]
    if method == "auto":
        return ["kirchhoff" if op.n <= gate else "resultant"]
    return ["chebyshev", "kirchhoff", "resultant"] if method == "all" else [method]


class Checker:
    """Checks each record and cross-checks tau between records of one run.

    The taus dict makes a Jacobian order and a tree count of the same graph
    witness each other, whichever of the two ops ran first.
    """

    def __init__(self, gate: int):
        self.gate = gate
        self.taus: dict[tuple[int, int, int], int] = {}

    def check(self, op: Op, rc: int, out: str):
        _require(rc == 0, f"exit code {rc}")
        lines = out.splitlines()
        _require(len(lines) == 1, f"expected one record, got {len(lines)} lines")
        try:
            rec = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise BadRecord(f"not JSON: {exc}") from None
        if op.argv[0] == "asymptotic":
            self._check_growth(op, rec)
        else:
            self._check_graph(op, rec)

    def _check_graph(self, op: Op, rec: dict):
        skip, expect = expected_graph(op.n, op.k, op.l)
        if skip:
            _require(rec.get("error") == skip, f"expected {skip} skip, got {rec}")
            _require(rec["params"] == {"n": op.n, "k": op.k, "l": op.l}, "skip params")
            if skip == "DisconnectedError":
                _require(rec.get("components") == expect, "component count")
            return
        n, k, l = expect
        _require("error" not in rec, f"error record {rec}")
        _require(rec["params"] == {"n": n, "k": k, "l": l}, f"params {rec['params']} != {expect}")
        _require(rec["methods_used"] == _methods(op, self.gate), f"methods {rec['methods_used']}")
        _require(all(rec["checks"].values()), f"failed checks {rec['checks']}")
        if op.argv[0] == "jacobian":
            torsion = [int(d) for d in rec["torsion"]]
            _require(all(d > 1 for d in torsion), "torsion factor <= 1")
            _require(all(b % a == 0 for a, b in zip(torsion, torsion[1:])), "divisibility chain")
            _require(2 <= len(torsion) <= 2 * k + 2 * l - 1, f"rank {len(torsion)} out of bounds")
            _require(rec["free_rank"] == 1, "free rank")
            tau = prod(torsion)
            _require(int(rec["tau"]) == tau, "tau is not the torsion order")
        else:
            tau, a, mult = int(rec["tau"]), int(rec["a"]), rec["multiplier"]
            _require(mult == (6 if n % 2 == 0 and k % 2 and l % 2 else 1), f"multiplier {mult}")
            _require(tau == mult * n * a * a, "tau != multiplier * n * a^2")
            _require(tau >= n**3, "tau < n^3")
        seen = self.taus.setdefault(expect, tau)
        _require(seen == tau, f"tau {tau} disagrees with {seen} from another record of {expect}")

    def _check_growth(self, op: Op, rec: dict):
        _require((rec["k"], rec["l"], rec["precision_bits"]) == (op.k, op.l, op.precision), "echo")
        _require(rec["agree"] is True, "root product and Mahler integral disagree")
        cell = Decimal(rec["constant"]).quantize(Decimal("0.0001"), rounding=ROUND_FLOOR)
        _require(str(cell) == GROWTH_4DP[(op.k, op.l)], f"cell {cell} != published")
