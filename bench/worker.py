"""One benchmark workload in one process (started by run.py).

Modes:
  setup    import, generate and prepare the inputs, report the set-up time;
  measure  then run ops in a closed loop for --seconds, untraced;
  trace    then alternate untraced and traced passes over a fixed prefix of
           the ops for --seconds, and write the spans.

The result is printed as one JSON line on stdout.  The parent passes its
time.monotonic() at the spawn as --started; the clock is system-wide on
Linux, so set-up time runs from process start to the first op.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import shutil
import time
from pathlib import Path

import numpy as np
import scipy

import inputs
import spans
from hybridservo import block_tilting, cli, force_solver, velocity_solver, verifier
from hybridservo.errors import EmptyBasis, InconsistentGoal, InfeasibleDimensions, InfeasibleLP
from hybridservo.model import GuardConditions, make_instance

# The outcomes a caller is told to expect; any other exception is a failure.
DOCUMENTED = (InfeasibleDimensions, InconsistentGoal, EmptyBasis, InfeasibleLP)

# random_force: a feasible op's margin may undershoot the constructed slack
# by this much, and an infeasible op's reported margin must be at most
# PAIR_SUM / 2 plus this much.
MARGIN_TOL = 1e-9


def direction_cost(C: np.ndarray, N: np.ndarray) -> float:
    """sum_{i!=j} |c_i . c_j| - sum_i ||NullN^T c_i||, from C and N alone."""
    gram = C @ C.T
    cross = float(np.abs(gram).sum() - np.abs(np.diag(gram)).sum())
    return cross - float(np.linalg.norm(C @ inputs.null_space(N), axis=1).sum())


class Workload:
    """Defaults: no CLI runs, nothing to prepare before a traced pass."""

    run_cli = None

    def prepare_trace(self, units):
        pass


class TiltPlan(Workload):
    """Per scenario: 15 steps of build -> velocity -> force, then the CLI."""

    trace_units = 4

    def __init__(self, raw, workdir: Path):
        self.scenarios = [block_tilting.TiltingScenario(**params) for params in raw]
        self.ops, self.units, self.cli_args = [], [], []
        self.unit_of: list[int] = []
        # The CLI's documented exit code for each plan, from its first step
        # that ended in a documented error: 2 velocity stage, 3 force stage.
        self.expected_exit: dict[int, int] = {}
        for j, (params, scenario) in enumerate(zip(raw, self.scenarios)):
            states = block_tilting.rollout_states(scenario)
            self.units.append(list(range(len(self.ops), len(self.ops) + len(states))))
            self.ops.extend((state, scenario) for state in states)
            self.unit_of.extend([j] * len(states))
            path = workdir / f"scenario-{j}.json"
            doc = {"schema": 1, "scenario_type": "block_tilting", "params": params, "solver": {}}
            path.write_text(json.dumps(doc))
            out = workdir / f"result-{j}.json"
            self.cli_args.append(["--scenario", str(path), "--out", str(out), "--verify", "--csv"])

    def prepare_trace(self, units):
        for unit in units:
            block_tilting.rollout_states(self.scenarios[unit])

    def op(self, i):
        state, scenario = self.ops[i]
        instance, guard = block_tilting.build_instance(state, scenario)
        vel = velocity_solver.solve_velocity(instance)
        force = force_solver.solve_force(instance, guard, vel.T, vel.n_av)
        return instance, guard, vel, force

    def judge(self, i, value, error):
        """(passed, documented infeasibility, quality values)."""
        if error is not None:
            documented = isinstance(error, DOCUMENTED)
            if documented:
                code = 3 if isinstance(error, InfeasibleLP) else 2
                self.expected_exit.setdefault(self.unit_of[i], code)
            return documented, documented, {}
        instance, guard, vel, force = value
        ok = (
            verifier.check_velocity_solution(instance, vel).passed
            and verifier.check_force_solution(instance, guard, vel.T, force).passed
        )
        quality = {
            "margin": float(force.objective_margin),
            "dir_cost": direction_cost(vel.C, instance.N),
        }
        return ok, False, quality

    def run_cli(self, unit) -> bool:
        """One CLI run after the plan's ops.

        The exit code must be the documented one for the plan's outcome; on
        exit 0 every step must be verified, with a CSV row per step.
        """
        args = self.cli_args[unit]
        try:
            code = cli.main(args)
        except Exception:  # a traceback out of the CLI is a failure
            return False
        if code != self.expected_exit.get(unit, 0):
            return False
        if code != 0:
            return True
        out = Path(args[3])
        doc = json.loads(out.read_text())
        csv_rows = out.with_suffix(".csv").read_text().splitlines()
        return doc["all_verified"] is True and len(csv_rows) == len(self.units[unit]) + 2


class RandomVelocity(Workload):
    """solve_velocity on criterion-4 instances; no force stage."""

    trace_units = 40

    def __init__(self, raw, workdir: Path):
        self.instances = [
            make_instance(d["n_u"], d["N"], d["G"], d["b_G"], d["F"]) for d in raw
        ]
        self.expected = [d["expected_n_av"] for d in raw]
        self.units = [[i] for i in range(len(raw))]

    def op(self, i):
        return velocity_solver.solve_velocity(self.instances[i])

    def judge(self, i, vel, error):
        if error is not None:
            return False, isinstance(error, DOCUMENTED), {}
        instance = self.instances[i]
        ok = (
            verifier.check_velocity_solution(instance, vel).passed
            and vel.n_av == self.expected[i]
        )
        return ok, False, {"dir_cost": direction_cost(vel.C, instance.N)}


class RandomForce(Workload):
    """solve_force on criterion-5 assemblies with guard rows; no velocity stage."""

    trace_units = 200

    def __init__(self, raw, workdir: Path):
        self.cases = []
        for d in raw:
            n = d["F"].size
            instance = make_instance(d["n_u"], d["N"], np.zeros((0, n)), np.zeros(0), d["F"])
            guard = GuardConditions(d["Lambda"], d["b_Lambda"], d["Gamma"], d["b_Gamma"])
            self.cases.append((instance, guard, d["T"], d["n_av"], d["slack"], d["infeasible"]))
        self.units = [[i] for i in range(len(raw))]

    def op(self, i):
        instance, guard, T, n_av, *_ = self.cases[i]
        return force_solver.solve_force(instance, guard, T, n_av)

    def judge(self, i, force, error):
        instance, guard, T, _, slack, infeasible = self.cases[i]
        if infeasible:
            ok = (
                isinstance(error, InfeasibleLP)
                and error.margin is not None
                and error.margin <= inputs.PAIR_SUM / 2 + MARGIN_TOL
            )
            return ok, isinstance(error, DOCUMENTED), {}
        if error is not None:
            return False, isinstance(error, DOCUMENTED), {}
        ok = (
            force.objective_margin >= slack - MARGIN_TOL
            and verifier.check_force_solution(instance, guard, T, force).passed
        )
        return ok, False, {"margin": float(force.objective_margin)}


WORKLOADS = {
    "tilt_plan": TiltPlan,
    "random_velocity": RandomVelocity,
    "random_force": RandomForce,
}


# Host speed.  A shared machine can run half again slower for seconds or
# minutes at a time, which no run length averages out.  Every reported time is
# therefore scaled by REF_MS / R, where R is the median of the last
# GAUGE_WINDOW timings of a reference kernel, one taken right before each op
# (so a change of speed is picked up within two ops): fixed numpy and Python
# work that shares no code with hybridservo, so a change to the program cannot
# move it.  REF_MS is the kernel's time in isolation on the baseline host
# (2-core Xeon VM, Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31) when quiet;
# scaled times are milliseconds at that speed.  Raw times are kept beside them.
REF_MS = 0.85
GAUGE_WINDOW = 3
_REF_A = np.random.default_rng(0).standard_normal((12, 12))
_REF_B = np.random.default_rng(1).standard_normal(12)


def reference_ms() -> float:
    """One timing of the reference kernel, in ms."""
    t0 = time.perf_counter()
    x = 0
    for i in range(8000):
        x += i * i
    for _ in range(12):
        np.linalg.svd(_REF_A)
        np.linalg.solve(_REF_A, _REF_B)
    return (time.perf_counter() - t0) * 1e3


class SpeedGauge:
    """Converts raw times to reference-speed times."""

    def __init__(self):
        self.samples_ms: list[float] = []

    def scale(self) -> float:
        """Time the kernel once; the factor for the work that follows."""
        self.samples_ms.append(reference_ms())
        return REF_MS / float(np.median(self.samples_ms[-GAUGE_WINDOW:]))


class Tally:
    """Outcomes and timings of a run over a list of units."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.raw_latencies_ms: list[float] = []
        self.busy_ms: list[float] = []
        self.cli_s: list[float] = []
        self.attempted = self.failed = self.verified = self.infeasible = 0
        self.quality: dict[str, list[float]] = {"margin": [], "dir_cost": []}
        self.failures: list[str] = []

    def fail(self, what):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)


def run_unit(wl, unit, tally, gauge, tracer=None):
    """Run one unit's ops, then its CLI run if the workload has one.

    Op latency covers the op alone; busy time adds its checks.  The CLI run
    is timed on its own.  Times are scaled to the reference speed.
    """
    for i in wl.units[unit]:
        if tracer is not None:
            tracer.op = i
        scale = gauge.scale()
        t0 = time.perf_counter()
        try:
            value, error = wl.op(i), None
        except Exception as exc:  # judged by the workload: documented or a failure
            value, error = None, exc
        t1 = time.perf_counter()
        ok, infeasible, quality = wl.judge(i, value, error)
        tally.busy_ms.append((time.perf_counter() - t0) * 1e3 * scale)
        tally.latencies_ms.append((t1 - t0) * 1e3 * scale)
        tally.raw_latencies_ms.append((t1 - t0) * 1e3)
        tally.attempted += 1
        tally.infeasible += infeasible
        if ok:
            tally.verified += 1
        else:
            tally.fail(f"op {i}: {type(error).__name__ if error else 'output check failed'} {error or ''}")
        for key, number in quality.items():
            tally.quality[key].append(number)
    if wl.run_cli is not None:
        if tracer is not None:
            tracer.op = f"cli-{unit}"
        scale = gauge.scale()
        t0 = time.perf_counter()
        ok = wl.run_cli(unit)
        tally.cli_s.append((time.perf_counter() - t0) * scale)
        tally.attempted += 1
        if not ok:
            tally.fail(f"cli run {unit} failed")


def _rate(tallies):
    """Verified ops per second of busy time (ops and their checks)."""
    return sum(t.verified for t in tallies) / (sum(sum(t.busy_ms) for t in tallies) / 1e3)


def measure(wl, seconds) -> dict:
    """Run units in a closed loop for `seconds`, cycling through the inputs."""
    gauge = SpeedGauge()
    run_unit(wl, 0, Tally(), gauge)  # warm-up: lazy imports and first-call set-up
    tally = Tally()
    start = time.perf_counter()
    for unit in itertools.cycle(range(len(wl.units))):
        if time.perf_counter() - start >= seconds:
            break
        run_unit(wl, unit, tally, gauge)
    lat, raw = tally.latencies_ms, tally.raw_latencies_ms
    return {
        "op_ms_p50": float(np.percentile(lat, 50)),
        "op_ms_p95": float(np.percentile(lat, 95)),
        "raw_op_ms_p50": float(np.percentile(raw, 50)),
        "raw_op_ms_p95": float(np.percentile(raw, 95)),
        "reference_ms_median": float(np.median(gauge.samples_ms)),
        "ops": len(lat),
        "ops_per_s": _rate([tally]),
        "cli_s": float(np.median(tally.cli_s)) if tally.cli_s else None,
        "cli_runs": len(tally.cli_s),
        "error_frac": tally.failed / tally.attempted,
        "infeasible_frac": tally.infeasible / len(lat),
        "margin_mean": _mean(tally.quality["margin"]),
        "dir_cost_mean": _mean(tally.quality["dir_cost"]),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace(wl, seconds, spans_path: Path) -> dict:
    """Alternate untraced and traced passes over the first trace_units units.

    Every traced pass must give the same counts per op; the first pass's
    counts go back to the parent, which compares them across processes.
    """
    units = range(min(wl.trace_units, len(wl.units)))
    tracer = spans.Tracer()
    gauge = SpeedGauge()
    run_unit(wl, 0, Tally(), gauge)  # warm-up
    untraced, traced = [], []
    passes, rows, signatures = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        untraced.append(Tally())
        for unit in units:
            run_unit(wl, unit, untraced[-1], gauge)
        traced.append(Tally())
        tracer.install()
        try:
            tracer.op = "setup"
            wl.prepare_trace(units)
            for unit in units:
                run_unit(wl, unit, traced[-1], gauge, tracer)
        finally:
            tracer.uninstall()
        recorded = tracer.take()
        profiles = spans.op_profiles(recorded)
        passes.append(recorded)
        rows.extend(profiles.items())
        signatures.append(spans.count_signature(profiles))
    spans.write_spans(spans_path, passes)
    metrics = spans.summarize(rows, [span for recorded in passes for span in recorded])
    metrics["trace.untraced_ops_per_s"] = _rate(untraced)
    metrics["trace.traced_ops_per_s"] = _rate(traced)
    metrics["trace.overhead_frac"] = _rate(untraced) / _rate(traced) - 1.0
    tallies = untraced + traced
    return {
        "metrics": metrics,
        "absent": tracer.absent,
        "signature": signatures[0],
        "passes": len(passes),
        "repeat_ok": all(sig == signatures[0] for sig in signatures),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "failures": [f for t in tallies for f in t.failures][:5],
        "spans_file": str(spans_path),
    }


def _mean(values):
    return float(np.mean(values)) if values else None


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument(
        "--started", type=float, required=True, help="parent's time.monotonic() at the spawn"
    )
    args = parser.parse_args(argv)

    workdir = args.out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        raw = inputs.GENERATORS[args.workload](args.seed)
        wl = WORKLOADS[args.workload](raw, workdir)
        setup_raw_s = time.monotonic() - args.started
        gauge = SpeedGauge()
        scales = [gauge.scale() for _ in range(GAUGE_WINDOW)]
        result = {"setup_raw_s": setup_raw_s, "setup_s": setup_raw_s * scales[-1]}
        if args.mode == "measure":
            result.update(measure(wl, args.seconds))
        elif args.mode == "trace":
            spans_path = args.out_dir / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
            result.update(trace(wl, args.seconds, spans_path))
        if args.mode != "setup":
            result["digest"] = inputs.digest(raw)
            result["environment"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
