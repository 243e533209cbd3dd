"""Benchmark of per-step hybrid force-velocity synthesis.

    python3 bench/run.py --workload tilt_plan --seed 1 --seconds 30 --trace 0

Runs one workload in fresh single-threaded worker processes (BLAS pinned to
one thread), checks every output, prints each metric with its unit, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones from two traced worker processes, whose counts must agree.
The full result, with the environment and the input digest, is written to
bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("tilt_plan", "random_velocity", "random_force")

# End-to-end metrics emitted on every workload: name -> (unit, better).
END_TO_END = {
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p95": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed and recorded, but outside the JSON line: each is zero or missing
# on some workload.
REPORTED = {
    "cli_s": ("s", "lower"),
    "error_frac": ("ratio", "lower"),
    "infeasible_frac": ("ratio", "equal"),
    "margin_mean": ("N", "higher"),
    "dir_cost_mean": ("1", "lower"),
}

# Set-up is timed in this many fresh processes (the last one also measures);
# setup_s is their median.
SETUP_SAMPLES = 5
TRACE_PROCESSES = 2
# Every worker must finish within this many seconds of the start.
DEADLINE_S = 170.0

# One thread for every BLAS and OpenMP runtime numpy or scipy may load.
PINNED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def _worker(args, mode, seconds, deadline):
    """Run one worker process and return its result."""
    env = dict(os.environ, **PINNED, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--mode", mode,
        "--out-dir", str(OUT),
    ]
    started = time.monotonic()
    cmd += ["--started", repr(started)]
    try:
        proc = subprocess.run(
            cmd,
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure(args, deadline) -> dict:
    runs = [_worker(args, "setup", 0, deadline) for _ in range(SETUP_SAMPLES - 1)]
    result = _worker(args, "measure", args.seconds, deadline)
    runs.append(result)
    setup_s = statistics.median(run["setup_s"] for run in runs)
    result["setup_raw_s"] = [run["setup_raw_s"] for run in runs]
    result["setup_s"] = setup_s
    result["correct"] = result["failed"] == 0
    result["metrics"] = {name: result[name] for name in END_TO_END}
    result["reported"] = {name: result[name] for name in REPORTED}
    return result


def trace(args, deadline) -> dict:
    """Two traced processes: per-layer metrics from the first, counts from both."""
    runs = [
        _worker(args, "trace", args.seconds / TRACE_PROCESSES, deadline)
        for _ in range(TRACE_PROCESSES)
    ]
    first = runs[0]
    repeat_ok = all(
        run["repeat_ok"] and run["signature"] == first["signature"] and run["digest"] == first["digest"]
        for run in runs
    )
    failed = sum(run["failed"] for run in runs)
    return {
        "correct": failed == 0 and repeat_ok,
        "counts_repeat": repeat_ok,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "failures": [f for run in runs for f in run["failures"]][:5],
        "metrics": first["metrics"],
        "absent": first["absent"],
        "passes": [run["passes"] for run in runs],
        "spans_files": [run["spans_file"] for run in runs],
        "digest": first["digest"],
        "environment": first["environment"],
    }


def _print_metrics(workload, metrics, specs):
    for name, value in metrics.items():
        unit, better = specs[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload:16s} {name:60s} {shown:>12s} {unit:6s} ({better} is better)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hybridservo" / "__init__.py").is_file():
        print(f"error: no hybridservo sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        result = trace(args, deadline) if args.trace else measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result["environment"]["git_commit"] = _git_commit()
    result["environment"]["blas_threads_pinned"] = int(PINNED["OPENBLAS_NUM_THREADS"])
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  input digest {result['digest']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    if args.trace:
        _print_metrics(args.workload, result["metrics"], PER_LAYER)
        print(f"absent layers: {result['absent'] or 'none'}; counts repeat: {result['counts_repeat']}")
        specs = PER_LAYER
    else:
        _print_metrics(args.workload, result["metrics"], END_TO_END)
        _print_metrics(args.workload, result["reported"], REPORTED)
        specs = END_TO_END
    for failure in result["failures"]:
        print(f"failure: {failure}")
    print(f"full result: {path.relative_to(ROOT)}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": specs[name][0]} for name in specs
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
