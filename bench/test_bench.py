"""Self-test of the benchmark: tiny runs of every workload.

    python3 -m pytest bench/test_bench.py

Checks that every named metric is emitted for every workload where it
applies, that the same seed gives the same input digest, that BENCHMARK.json
names exactly the metrics the benchmark emits, and that the benchmark fails
cleanly where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
from run import END_TO_END, REPORTED, WORKLOADS
from spans import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Reported-only metrics and the workloads where they must have a value.
APPLIES = {
    "cli_s": {"tilt_plan"},
    "error_frac": set(WORKLOADS),
    "infeasible_frac": set(WORKLOADS),
    "margin_mean": {"tilt_plan", "random_force"},
    "dir_cost_mean": {"tilt_plan", "random_velocity"},
}


def _bench(workload, trace, root=ROOT, seed=3):
    cmd = [
        sys.executable, str(root / "bench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def _line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    generate = inputs.GENERATORS[workload]
    assert inputs.digest(generate(5)) == inputs.digest(generate(5))
    assert inputs.digest(generate(5)) != inputs.digest(generate(6))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    line = _line(_bench(workload, 0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        name: unit for name, (unit, _) in END_TO_END.items()
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())
    full = json.loads((BENCH / "out" / f"result-{workload}-seed3-trace0.json").read_text())
    assert full["digest"] == inputs.digest(inputs.GENERATORS[workload](3))
    assert set(full["reported"]) == set(REPORTED)
    for name, workloads in APPLIES.items():
        assert (full["reported"][name] is not None) == (workload in workloads), name
    assert full["reported"]["error_frac"] == 0.0
    for key in ("nproc", "python", "numpy", "scipy", "blas", "blas_version", "blas_threads"):
        assert full["environment"][key] is not None, key
    assert full["environment"]["blas_threads"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    line = _line(_bench(workload, 1))
    assert line["correct"] and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }
    full = json.loads((BENCH / "out" / f"result-{workload}-seed3-trace1.json").read_text())
    assert full["counts_repeat"] and full["absent"] == []
    metrics = full["metrics"]
    runs_velocity = workload != "random_force"
    runs_force = workload != "random_velocity"
    assert (metrics["velocity_solver.projected_gradient_descent.calls"] > 0) == runs_velocity
    assert (metrics["force_solver.lp.calls"] > 0) == runs_force
    assert (metrics["cli.self_ms"] > 0) == (workload == "tilt_plan")
    assert (metrics["block_tilting.build_instance.ms"] > 0) == (workload == "tilt_plan")
    assert metrics["trace.traced_ops_per_s"] > 0
    for path in full["spans_files"]:
        first = json.loads(Path(path).read_text().splitlines()[0])
        assert set(first) == {"pass", "id", "name", "start", "end", "parent", "op", "attrs"}


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("random_force", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
