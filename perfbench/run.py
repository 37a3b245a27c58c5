"""igraphjac benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload exact-large-n --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  Every pass runs in a fresh interpreter (perfbench/worker.py), one
at a time, so per-process caches start empty as they do for a CLI user.

--trace 0 prints the end-to-end metrics, measured without tracing:
  setup_s      median over 7 fresh interpreters of importing igraphjac.cli and
               building the op list
  ops_per_s    correct ops per second of run wall time
  op_ms_p50    median op latency
  op_ms_p90    90th percentile op latency
  peak_rss_mb  peak resident memory of the measuring interpreter
Times are scaled to a reference speed: each pass also times a fixed probe
(worker._probe) every 50 ms between ops.  Each op latency is multiplied by
REFERENCE_PROBE_MS / (mean of the probes either side of it), and the run's
wall time by REFERENCE_PROBE_MS / (mean of all its probes).  This takes out
the host's speed drift, which is far larger than the run-to-run spread of
the program.
--trace 1 prints the per-layer metrics from a traced pass of half the time,
then replays the same ops untraced in the other half to state the tracing
overhead.  Its call counts must match what the op list implies.

Records are checked in both modes; a wrong record makes the run fail
(exit code 1).  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
MODULES = ("asymptotics", "bigmat", "cli", "errors", "igraph", "jacobian", "polyring", "treecount")
SETUP_SAMPLES = 7
TIMEOUT_SLACK_S = 60
# Times are reported as if the worker's speed probe took this long; see
# worker._probe.  The measured values are printed above the JSON line.
REFERENCE_PROBE_MS = 1.5


def _worker(args, *extra: str, timeout: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _neighbours(latencies: list[float], kinds: list[str], value: float) -> str:
    """Op kinds of the five ops closest in latency to a percentile value."""
    pairs = sorted(zip(latencies, kinds), key=lambda p: abs(p[0] - value))
    return ", ".join(f"{kind} {ms:.1f}" for ms, kind in sorted(pairs[:5]))


def _source_lines() -> dict[str, int]:
    """Line counts of the package's modules (0 once deleted) and of all of src/."""
    src = os.path.join(os.getcwd(), "src", "igraphjac")
    counts = {}
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                counts[name[:-3]] = sum(1 for _ in fh)
    out = {f"{m}.lines": counts.get(m, 0) for m in MODULES}
    out["src.lines"] = sum(counts.values())
    return out


def _report(args, runs: list[dict]):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for r in runs:
        print(f"  pass: {r['attempted']} ops, {r['failed']} failed, {r['retries']} precision"
              f" retries, {r['wall_s']:.2f} s wall")
        for line in r["errors"]:
            print(f"  WRONG: {line}")
    print(f"  failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    return attempted, failed


def _scale(run: dict) -> float:
    """Factor that turns this pass's total time into reference-speed time."""
    return REFERENCE_PROBE_MS / statistics.mean(run["probes_ms"])


def _scaled_latencies(run: dict) -> list[float]:
    """Each op's latency at reference speed, from the probes either side of it."""
    probes = run["probes_ms"]
    return [
        ms * 2 * REFERENCE_PROBE_MS / (probes[j] + probes[j + 1])
        for ms, j in zip(run["latencies_ms"], run["op_probe"])
    ]


def _traced(args, timeout: float):
    traced = _worker(args, "--seconds", str(args.seconds / 2), "--trace", timeout=timeout)
    plain = _worker(args, "--ops", str(traced["attempted"]), timeout=timeout)
    attempted, failed = _report(args, [traced, plain])
    metrics = {name: tuple(pair) for name, pair in traced["trace"].items()}
    traced_s, plain_s = traced["wall_s"] * _scale(traced), plain["wall_s"] * _scale(plain)
    overhead = 100 * (traced_s / plain_s - 1)
    metrics["trace.overhead_pct"] = (overhead, "%")
    metrics["run.failed_frac"] = (failed / attempted, "ratio")
    metrics.update({name: (v, "lines") for name, v in _source_lines().items()})
    check_ok = True
    for name, c in traced["self_check"].items():
        ok = c["expected"] == c["traced"]
        check_ok &= ok
        print(f"  self-check {name}.calls: traced {c['traced']}, op list implies"
              f" {c['expected']} {'ok' if ok else 'MISMATCH'}")
    print(f"  tracing overhead {overhead:.1f}% ({traced_s:.2f} s traced vs {plain_s:.2f} s"
          f" untraced for the same {traced['attempted']} ops, at reference speed)")
    out = {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}
    return out, attempted, failed, failed == 0 and check_ok


def _end_to_end(args, timeout: float):
    setups = []
    for _ in range(SETUP_SAMPLES):
        r = _worker(args, "--setup", timeout=timeout)
        setups.append((r["setup_s"], r["setup_s"] * _scale(r)))
    run = _worker(args, "--seconds", str(args.seconds), timeout=timeout)
    attempted, failed = _report(args, [run])
    ops_per_s = (attempted - failed) / run["wall_s"]
    raw = sorted(run["latencies_ms"])
    scaled = _scaled_latencies(run)
    lat = sorted(scaled)
    p50, p90 = _nearest_rank(lat, 0.5), _nearest_rank(lat, 0.9)
    # name -> (value at reference speed, unit, value as measured)
    rows = {
        "setup_s": (statistics.median(s for _, s in setups), "s",
                    statistics.median(s for s, _ in setups)),
        "ops_per_s": (ops_per_s / _scale(run), "1/s", ops_per_s),
        "op_ms_p50": (p50, "ms", _nearest_rank(raw, 0.5)),
        "op_ms_p90": (p90, "ms", _nearest_rank(raw, 0.9)),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", run["peak_rss_mb"]),
    }
    print(f"  speed probe {statistics.mean(run['probes_ms']):.3f} ms (reference"
          f" {REFERENCE_PROBE_MS} ms) over {len(run['probes_ms'])} probes")
    for name, (value, unit, measured) in rows.items():
        print(f"  {name:<12} {value:.4f} {unit}  (measured {measured:.4f})")
    beyond = sum(1 for x in lat if x > p90)
    print(f"  latency samples {len(lat)}, {beyond} beyond p90; setup samples {SETUP_SAMPLES}")
    print(f"  near p50: {_neighbours(scaled, run['kinds'], p50)}")
    print(f"  near p90: {_neighbours(scaled, run['kinds'], p90)}")
    out = {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()}
    return out, attempted, failed, failed == 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(os.getcwd(), "src", "igraphjac", "cli.py")):
        print("run from the root of an igraphjac checkout (src/igraphjac/cli.py not found)",
              file=sys.stderr)
        return 2
    timeout = args.seconds + TIMEOUT_SLACK_S
    measure = _traced if args.trace else _end_to_end
    metrics, attempted, failed, correct = measure(args, timeout)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
