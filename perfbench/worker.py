"""One measuring pass in a fresh interpreter; run.py starts it.

Imports the package from ``src/`` under the current directory, builds the op
list and calls ``igraphjac.cli.main`` once per op as a closed loop with one
caller, checking every record.  Prints one JSON object with the raw figures.

    python3 perfbench/worker.py --workload W --seed S (--setup | --seconds T | --ops N) [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

SRC = os.path.join(os.getcwd(), "src")
PROBE_EVERY_S = 0.05  # how often the loop times the speed probe, between ops


def _import_cli():
    sys.path.insert(0, SRC)
    import igraphjac.cli

    if not os.path.abspath(igraphjac.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"igraphjac was imported from {igraphjac.cli.__file__}, not {SRC}")
    return igraphjac.cli


def _probe() -> float:
    """Seconds a fixed piece of big-integer work takes now.

    The host's speed drifts by 20% and more over minutes; timing this probe
    through a run lets run.py express the run's times at a reference speed.
    It is a fraction-free elimination on a 10 x 10 matrix of 400-bit
    integers, because of the probes tried it followed the package's own
    kernels most closely, and it shares no code with them.
    """
    t0 = time.perf_counter()
    m = [[pow(7 * i + 13 * j + 3, 41, 2**400 - 593) for j in range(10)] for i in range(10)]
    prev = 1
    for k in range(9):
        for i in range(k + 1, 10):
            for j in range(k + 1, 10):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return time.perf_counter() - t0


def _call(cli, argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr, as the same command line would give them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the interpreter would print it and exit with 1
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup", action="store_true", help="only time import and op list")
    mode.add_argument("--seconds", type=float, help="run ops until this much time has passed")
    mode.add_argument("--ops", type=int, help="run exactly this many ops")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import workloads

    t0 = time.perf_counter()
    cli = _import_cli()
    from igraphjac.jacobian import LAPLACIAN_GATE

    ops = workloads.make_ops(args.workload, args.seed, LAPLACIAN_GATE)
    setup_s = time.perf_counter() - t0
    if args.setup:
        probes = [_probe() for _ in range(3)]
        print(json.dumps({"setup_s": setup_s, "probes_ms": [p * 1000 for p in probes]}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    checker = workloads.Checker(LAPLACIAN_GATE)
    calls = []  # every CLI call made, retries included
    latencies, kinds, errors = [], [], []
    op_probe = []  # index of the last probe taken before each op
    failed = 0
    probes = []
    next_probe = 0.0
    start = time.perf_counter()
    deadline = start + (args.seconds or 0)
    i = 0
    while (i < args.ops) if args.ops is not None else (time.perf_counter() < deadline):
        op = ops[i % len(ops)]
        i += 1
        t = time.perf_counter()
        if t >= next_probe:  # kept out of the op's latency
            probes.append(_probe())
            next_probe = t + PROBE_EVERY_S
            t = time.perf_counter()
        rc, out, err = _call(cli, op.argv)
        calls.append(op)
        # a user whose Chebyshev count hits the precision limit (exit code 3)
        # asks again with twice the bits; the retries count in the latency
        for _ in range(workloads.MAX_RETRIES):
            if rc != 3 or "chebyshev" not in op.argv:
                break
            op = op.with_precision(2 * op.precision)
            rc, out, err = _call(cli, op.argv)
            calls.append(op)
        latencies.append((time.perf_counter() - t) * 1000)
        kinds.append(op.kind)
        op_probe.append(len(probes) - 1)
        try:
            checker.check(op, rc, out)
        except (workloads.BadRecord, KeyError, TypeError, ValueError) as exc:
            failed += 1
            if len(errors) < 5:
                stderr = err.strip().splitlines()[-1:]
                errors.append(f"{' '.join(op.argv)}: {type(exc).__name__}: {exc} {stderr}"[:300])
    wall = time.perf_counter() - start - sum(probes)
    probes.append(_probe())  # so every op has a probe after it too

    result = {
        "wall_s": wall,
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors,
        "latencies_ms": latencies,
        "probes_ms": [p * 1000 for p in probes],
        "op_probe": op_probe,
        "kinds": kinds,
        "retries": len(calls) - len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from igraphjac import treecount

        metrics = tracer.metrics()
        cache = getattr(treecount, "_quotient_roots", None)
        info = cache.cache_info() if cache else None
        lookups = info.hits + info.misses if info else 0
        metrics["treecount.quotient_roots.hit_ratio"] = (info.hits / lookups if lookups else 0.0, "ratio")
        result["trace"] = metrics
        expected = workloads.expected_calls(args.workload, calls)
        result["self_check"] = {
            name: {"expected": want, "traced": metrics[f"{name}.calls"][0]}
            for name, want in expected.items()
            if name not in tracer.missing
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
