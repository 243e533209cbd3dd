"""Command line front end.

Reads a versioned scenario JSON, synthesizes one hybrid action per step,
and writes the results as canonical JSON (optionally with a timing CSV).
Two scenario types exist: "block_tilting" rolls the built-in tilting plan,
"raw_instance" solves a single instance given directly as matrices.

Exit codes: 0 success, 2 velocity stage infeasible, inconsistent or without
independent command rows, 3 force stage infeasible or singular, 4 unreadable
or invalid input, including command-line usage errors and out-of-range
solver settings.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import block_tilting as tilting
from .errors import (
    EmptyBasis,
    InconsistentGoal,
    InfeasibleDimensions,
    InfeasibleLP,
    SingularSystem,
    SingularTransform,
)
from .force_solver import ForceSolverConfig, solve_force
from .model import GuardConditions, SystemInstance, assemble_N, make_instance, validate
from .velocity_solver import VelocitySolverConfig, solve_velocity
from .verifier import (
    VerificationReport,
    check_force_solution,
    check_velocity_solution,
)

SCHEMA_VERSION = 1

SCENARIO_KEYS = {"schema", "scenario_type", "params", "solver"}
# Schema-1 settings of the former iterative direction search, with their
# types.  The directions now have a closed form, so these are type-checked
# and otherwise ignored.
IGNORED_SOLVER_KEYS = {
    "num_starts": int,
    "rng_seed": int,
    "step_length": float,
    "max_iters": int,
    "convergence_tol": float,
}
SOLVER_KEYS = set(IGNORED_SOLVER_KEYS) | {"rank_tol", "f_max"}
TILTING_KEYS = {
    "edge_length",
    "mu_hand",
    "mu_table",
    "n_min",
    "gravity_object",
    "gravity_hand",
    "hand_contact_obj",
    "table_contacts",
    "rotation_axis",
    "tilt_rate",
    "num_steps",
    "step_duration",
}
RAW_KEYS = {
    "n_u",
    "N",
    "J_phi",
    "Omega",
    "G",
    "b_G",
    "F",
    "Lambda",
    "b_Lambda",
    "Gamma",
    "b_Gamma",
}

CSV_COLUMNS = [
    "step", "n_av", "direction_cost", "lp_margin", "newton_residual", "ms_velocity", "ms_force"
]


class ScenarioParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 4 (invalid input), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(4, f"{self.prog}: error: {message}\n")


@dataclass
class RunConfig:
    scenario_path: Path
    output_path: Path
    num_starts: int | None = None
    rng_seed: int | None = None
    rank_tol: float | None = None
    f_max: float | None = None
    emit_csv: bool = False
    verify: bool = False


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_scenario(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    unknown = set(doc) - SCENARIO_KEYS
    if unknown:
        raise ScenarioParseError(f"unknown scenario keys: {sorted(unknown)}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ScenarioParseError(f"unsupported schema version {doc.get('schema')!r}")
    if doc.get("scenario_type") not in ("block_tilting", "raw_instance"):
        raise ScenarioParseError(f"unknown scenario_type {doc.get('scenario_type')!r}")
    params = doc.get("params", {})
    solver = doc.get("solver", {})
    if not isinstance(params, dict) or not isinstance(solver, dict):
        raise ScenarioParseError("params and solver must be JSON objects")
    unknown = set(solver) - SOLVER_KEYS
    if unknown:
        raise ScenarioParseError(f"unknown solver keys: {sorted(unknown)}")
    allowed = TILTING_KEYS if doc["scenario_type"] == "block_tilting" else RAW_KEYS
    unknown = set(params) - allowed
    if unknown:
        raise ScenarioParseError(f"unknown params keys: {sorted(unknown)}")
    return doc


def _configs(doc: dict, run: RunConfig):
    solver = dict(doc.get("solver", {}))
    if run.num_starts is not None:
        solver["num_starts"] = run.num_starts
    if run.rng_seed is not None:
        solver["rng_seed"] = run.rng_seed
    if run.rank_tol is not None:
        solver["rank_tol"] = run.rank_tol
    if run.f_max is not None:
        solver["f_max"] = run.f_max
    for key in ("rank_tol", "f_max"):
        # float() would take true as 1.0 and "1e-8" as a number.
        if isinstance(solver.get(key), (bool, str)):
            raise ScenarioParseError(f"bad solver settings: {key} {solver[key]!r} is not a number")
    try:
        for key, kind in IGNORED_SOLVER_KEYS.items():
            if key in solver:
                kind(solver[key])
        vel = VelocitySolverConfig(rank_tol=float(solver.get("rank_tol", 1e-8)))
        force = ForceSolverConfig(f_max=float(solver.get("f_max", 50.0)))
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad solver settings: {exc}") from exc
    if "num_starts" in solver and int(solver["num_starts"]) < 1:
        raise ScenarioParseError(f"bad solver settings: num_starts {solver['num_starts']} < 1")
    if not (math.isfinite(force.f_max) and force.f_max > 0.0):
        raise ScenarioParseError(f"bad solver settings: f_max {force.f_max} must be finite and > 0")
    if not 0.0 < vel.rank_tol < 1.0:  # also rejects nan
        raise ScenarioParseError(f"bad solver settings: rank_tol {vel.rank_tol} must be in (0, 1)")
    return vel, force


def _raw_instance(params: dict):
    try:
        n_u = int(params["n_u"])
        G = np.asarray(params["G"], dtype=float)
        b_G = np.asarray(params["b_G"], dtype=float)
        F = np.asarray(params["F"], dtype=float)
        if "N" in params:
            N = np.asarray(params["N"], dtype=float)
            J_phi = np.asarray(params["J_phi"], dtype=float) if "J_phi" in params else None
            Omega = np.asarray(params["Omega"], dtype=float) if "Omega" in params else None
        elif "J_phi" in params and "Omega" in params:
            J_phi = np.asarray(params["J_phi"], dtype=float)
            Omega = np.asarray(params["Omega"], dtype=float)
            N = assemble_N(J_phi, Omega)
        else:
            raise ScenarioParseError("raw instance needs N or both J_phi and Omega")
        instance = make_instance(n_u, N, G, b_G, F, J_phi=J_phi, Omega=Omega)
        w = instance.n_phi + instance.n
        guard = GuardConditions(
            Lambda=np.asarray(params.get("Lambda", np.zeros((0, w))), dtype=float).reshape(-1, w),
            b_Lambda=np.asarray(params.get("b_Lambda", []), dtype=float).reshape(-1),
            Gamma=np.asarray(params.get("Gamma", np.zeros((0, w))), dtype=float).reshape(-1, w),
            b_Gamma=np.asarray(params.get("b_Gamma", []), dtype=float).reshape(-1),
        )
    except ScenarioParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"bad raw instance: {exc}") from exc
    problems = validate(instance, guard)
    if problems:
        raise ScenarioParseError("invalid instance: " + "; ".join(problems))
    return instance, guard


def _solve_step(instance, guard, vel_cfg, force_cfg, verify: bool):
    t0 = time.perf_counter()
    vel = solve_velocity(instance, vel_cfg)
    t1 = time.perf_counter()
    force = solve_force(instance, guard, vel.T, vel.n_av, force_cfg)
    t2 = time.perf_counter()

    force_check = check_force_solution(instance, guard, vel.T, force)
    record = {
        "n_av": int(vel.n_av),
        "n_af": int(instance.n_a - vel.n_av),
        "C": vel.C.tolist(),
        "w_av": vel.b_C.tolist(),
        "R_a": vel.R_a.tolist(),
        "T": vel.T.tolist(),
        "direction_cost": float(vel.cost),
        "eta_af": force.eta_af.tolist(),
        "lambda": force.lam.tolist(),
        "eta": force.eta.tolist(),
        "lp_margin": float(force.objective_margin),
        "guard_margins": force.guard_margins.tolist(),
        "effort_pass": force.effort_pass,
        "newton_residual": float(force_check.newton_residual),
        "verification": None,
    }
    if verify:
        report = VerificationReport(
            velocity=check_velocity_solution(instance, vel),
            force=force_check,
        )
        record["verification"] = report.to_dict()
    timing = {"ms_velocity": (t1 - t0) * 1e3, "ms_force": (t2 - t1) * 1e3}
    return record, timing


def _write_outputs(doc_out: dict, timings: list[dict], run: RunConfig):
    run.output_path.parent.mkdir(parents=True, exist_ok=True)
    run.output_path.write_text(canonical_json(doc_out))
    if run.emit_csv:
        csv_path = run.output_path.with_suffix(".csv")
        with csv_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for record, timing in zip(doc_out["steps"], timings):
                writer.writerow(
                    [
                        record["step"],
                        record["n_av"],
                        record["direction_cost"],
                        record["lp_margin"],
                        record["newton_residual"],
                        timing["ms_velocity"],
                        timing["ms_force"],
                    ]
                )
            if timings:
                writer.writerow(
                    [
                        "median",
                        "",
                        "",
                        "",
                        "",
                        statistics.median(t["ms_velocity"] for t in timings),
                        statistics.median(t["ms_force"] for t in timings),
                    ]
                )


def run_scenario(run: RunConfig) -> int:
    try:
        doc = _load_scenario(run.scenario_path)
        vel_cfg, force_cfg = _configs(doc, run)
        if doc["scenario_type"] == "block_tilting":
            try:
                scenario = tilting.TiltingScenario(**doc.get("params", {}))
            except (TypeError, ValueError) as exc:
                raise ScenarioParseError(f"bad tilting params: {exc}") from exc
            steps = [
                tilting.build_instance(state, scenario)
                for state in tilting.rollout_states(scenario)
            ]
        else:
            steps = [_raw_instance(doc.get("params", {}))]
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    records: list[dict] = []
    timings: list[dict] = []
    for index, (instance, guard) in enumerate(steps, start=1):
        try:
            record, timing = _solve_step(instance, guard, vel_cfg, force_cfg, run.verify)
        except (InfeasibleDimensions, InconsistentGoal, EmptyBasis, SingularTransform) as exc:
            print(f"step {index}: {exc}", file=sys.stderr)
            return 2
        except (InfeasibleLP, SingularSystem) as exc:
            print(f"step {index}: {exc}", file=sys.stderr)
            return 3
        record["step"] = index
        records.append(record)
        timings.append(timing)

    doc_out = {
        "schema": SCHEMA_VERSION,
        "scenario_type": doc["scenario_type"],
        "solver": {
            "rank_tol": vel_cfg.rank_tol,
            "f_max": force_cfg.f_max,
        },
        "steps": records,
        "all_verified": (
            all(r["verification"]["passed"] for r in records) if run.verify else None
        ),
    }
    _write_outputs(doc_out, timings, run)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hybridservo",
        description="Synthesize hybrid force-velocity actions for a scenario file.",
    )
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument("--seed", type=int, default=None, help="accepted for schema 1; no effect")
    parser.add_argument("--starts", type=int, default=None, help="accepted for schema 1 (>= 1); no effect")
    parser.add_argument("--rank-tol", type=float, default=None, help="override relative rank tolerance")
    parser.add_argument("--f-max", type=float, default=None, help="override force command bound [N]")
    parser.add_argument("--csv", action="store_true", help="also write a per-step timing CSV")
    parser.add_argument("--verify", action="store_true", help="run independent checks on every step")
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (4)
        return exc.code
    run = RunConfig(
        scenario_path=Path(args.scenario),
        output_path=Path(args.out),
        num_starts=args.starts,
        rng_seed=args.seed,
        rank_tol=args.rank_tol,
        f_max=args.f_max,
        emit_csv=args.csv,
        verify=args.verify,
    )
    return run_scenario(run)


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
