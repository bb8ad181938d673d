"""Benchmark entry point for capable2.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.  A
run is one closed loop: a single caller in a single-threaded process runs
fixed-size passes of the workload back to back until ``--seconds`` have
passed (always at least one pass), checking every output.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics per
traced pass, the tracing overhead against untraced passes on the same inputs,
and the per-operation micro-timings.  The exit code is 0 when every
output was correct, 1 when a check failed and 2 when the library cannot be
found.  ``--workload all`` runs each workload in its own process and prints
one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread per process, so that peak memory and time belong to the caller
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("witness_sweep", "recognize", "lemma_scan")
# set-up is timed in SETUP_SAMPLES fresh interpreters started SETUP_GAP_S
# apart, so that the samples span more than one of the host's speed phases
SETUP_SAMPLES = 15
SETUP_GAP_S = 1.0


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does; 0 when
    every item failed."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters: import plus input building."""
    samples = []
    for i in range(SETUP_SAMPLES):
        if i:
            time.sleep(SETUP_GAP_S)
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(workload, seconds: float):
    """Passes back to back while the next one still fits into ``seconds``
    (at least one); returns their results."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + results[-1].wall_s <= seconds:
        t0 = time.perf_counter()
        res = workload.run_pass(len(results))
        res.wall_s = time.perf_counter() - t0
        results.append(res)
    print("passes:", json.dumps([[r.wall_s, r.largest_s] for r in results]), file=sys.stderr)
    return results


def end_to_end(results, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall_s for r in results), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "largest_group_s": (statistics.median(r.largest_s for r in results), "s"),
    }


def run_traced(workload, seed: int, seconds: float):
    """Untraced and traced passes on the same inputs (pass 0 of the seed),
    alternating while the next pair still fits into ``seconds``, then the
    micro-timings.  Layer metrics are per traced pass."""
    import tracing

    tracer = tracing.Tracer()
    plain_s, traced_s, results = [], [], []
    start = time.perf_counter()
    while not plain_s or time.perf_counter() - start + plain_s[-1] + traced_s[-1] <= seconds:
        t0 = time.perf_counter()
        results.append(workload.run_pass(0))
        plain_s.append(time.perf_counter() - t0)
        with tracer:
            t0 = time.perf_counter()
            results.append(workload.run_pass(0))
            traced_s.append(time.perf_counter() - t0)
    print(tracer.table(), file=sys.stderr)
    metrics = tracer.layer_metrics(len(traced_s))
    metrics.update(tracing.micro_metrics(seed))
    items = [t for r in results[::2] for t in r.items_s]
    metrics["trace_overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s), "s")
    metrics["items"] = (len(results[0].items_s), "count")
    metrics["item_p50_ms"] = (percentile(items, 50) * 1e3, "ms")
    metrics["item_p99_ms"] = (percentile(items, 99) * 1e3, "ms")
    return results, metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    setup_s = None if trace else setup_seconds(name, seed)
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    if trace:
        results, metrics = run_traced(workload, seed, seconds)
    else:
        results = run_plain(workload, seconds)
        metrics = end_to_end(results, setup_s)

    correct = all(r.gate_ok for r in results)
    for r in results:
        for problem in r.problems:
            print(f"{name}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r.attempted for r in results),
                "failed": sum(r.failed for r in results),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    combined = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        status = max(status, out.returncode)
        lines = out.stdout.strip().splitlines()
        combined[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(combined, indent=1))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "capable2" / "__init__.py").is_file():
        print(f"capable2 sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
