"""Repeat the benchmark over seeds and record each metric's median and spread.

    python3 bench/repeat.py --runs 10 --seconds 30 --out bench/BASELINE.json

For every workload this runs bench/run.py untraced with seeds 1..runs and
traced once with seed 1.  For each end-to-end metric it prints the median,
the quartiles and the spread (interquartile range over the median), next to
the metric's bound from BENCHMARK.json; the benchmark counts as steady when
every spread but setup_s's is below a third of its bound (correctness is
reported beside it).  The summary, with every run's values, failures and
input digest, is written to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = BENCH / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return line, json.loads(path.read_text())


def _stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: all workloads")
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {"seconds": args.seconds, "runs": args.runs, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = [_run(workload, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        traced_line, traced = _run(workload, 1, args.seconds, 1)
        correct = all(line["correct"] for line, _ in runs) and traced_line["correct"]
        entry = {
            "correct": correct,
            "digests": {str(seed): full["digest"] for seed, (_, full) in enumerate(runs, 1)},
            "failed": {str(seed): line["failed"] for seed, (line, _) in enumerate(runs, 1)},
            "end_to_end": {
                name: _stats([line["metrics"][name]["value"] for line, _ in runs]) for name in bounds
            },
            "reported": {
                name: _stats([full["reported"][name] for _, full in runs])
                for name in runs[0][1]["reported"]
                if runs[0][1]["reported"][name] is not None
            },
            "per_layer_seed1": {name: m["value"] for name, m in traced_line["metrics"].items()},
        }
        summary["workloads"][workload] = entry
        summary["environment"] = runs[0][1]["environment"]
        print(f"{workload}: correct {correct}")
        for name, stats in entry["end_to_end"].items():
            ok = name == "setup_s" or stats["spread"] < bounds[name] / 3
            steady &= ok
            print(
                f"  {name:14s} median {stats['median']:11.5g}  q1 {stats['q1']:11.5g}  "
                f"q3 {stats['q3']:11.5g}  spread {stats['spread']:.4f}  "
                f"bound {bounds[name]}  {'ok' if ok else 'TOO WIDE'}"
            )
        for name, stats in entry["reported"].items():
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
            print(f"  {name:14s} median {stats['median']:11.5g}  spread {spread}  (reported only)")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
