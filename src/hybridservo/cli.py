"""Command line front end.

Reads a versioned scenario JSON, synthesizes one hybrid action per step,
and writes the results as canonical JSON (optionally with a timing CSV).
Two scenario types exist: "block_tilting" rolls the built-in tilting plan,
"raw_instance" solves a single instance given directly as matrices.
The one solver setting, f_max, comes from the scenario's "solver" block,
overridden by --f-max.

Exit codes: 0 success; a failed step returns its error's exit_code (see
errors.py): 2 for InfeasibleDimensions, InconsistentGoal, EmptyBasis and
SingularTransform, 3 for InfeasibleLP and SingularSystem, 4 for
NumericOverflow.  Unreadable or invalid input, command-line usage errors and
an out-of-range solver setting also exit 4.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from . import block_tilting as tilting
from . import synthesize
from .errors import SolverError
from .force_solver import DEFAULT_F_MAX
from .model import GuardConditions, SystemInstance, make_instance, real_array, validate
from .verifier import check_force_solution, check_velocity_solution

SCHEMA_VERSION = 1

SCENARIO_KEYS = {"schema", "scenario_type", "params", "solver"}
SOLVER_KEYS = {"f_max"}
TILTING_KEYS = {f.name for f in dataclasses.fields(tilting.TiltingScenario) if f.init}
# A raw instance gives every field of the instance and its guard; F fixes n_a.
# N may instead come factored as J_phi @ Omega.
RAW_KEYS = {f.name for f in dataclasses.fields(SystemInstance) if f.name != "n_a"}
RAW_KEYS |= {f.name for f in dataclasses.fields(GuardConditions)} | {"J_phi", "Omega"}

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


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_scenario(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also over-long integers, deep nesting
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


def _solver_settings(doc: dict, args: argparse.Namespace) -> float:
    """f_max; the command-line flag wins over the scenario file."""
    value = args.f_max
    if value is None:
        value = doc.get("solver", {}).get("f_max", DEFAULT_F_MAX)
    # float() would take true as 1.0 and "10" as a number.
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioParseError(f"bad solver settings: f_max {value!r} is not a number")
    try:
        f_max = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ScenarioParseError(f"bad solver settings: f_max: {exc}") from exc
    if not (math.isfinite(f_max) and f_max > 0.0):
        raise ScenarioParseError(f"bad solver settings: f_max {f_max} must be finite and > 0")
    return f_max


def _raw_instance(params: dict):
    n_u = params.get("n_u")
    if not isinstance(n_u, int) or isinstance(n_u, bool):
        raise ScenarioParseError(f"bad raw instance: n_u {n_u!r} is not an integer")

    # Entries must be numbers and every array keeps its given shape:
    # make_instance would flatten a nested F or a scalar b_G.
    def array(key, value, ndim):
        A = real_array(key, value)
        if A.ndim != ndim:
            kind = "a matrix" if ndim == 2 else "a vector"
            raise ValueError(f"{key} must be {kind}, got shape {A.shape}")
        return A

    def matrix(key):
        return array(key, params[key], 2)

    try:
        G = matrix("G")
        b_G = array("b_G", params["b_G"], 1)
        F = array("F", params["F"], 1)
        N = matrix("N") if "N" in params else None
        if ("J_phi" in params) != ("Omega" in params):
            raise ScenarioParseError("invalid instance: J_phi and Omega must be given together")
        if "J_phi" in params:
            product = matrix("J_phi") @ matrix("Omega")
            if N is None:
                N = product
            else:
                _check_factored_N(N, product)
        elif N is None:
            raise ScenarioParseError("raw instance needs N or both J_phi and Omega")
        instance = make_instance(n_u, N, G, b_G, F)
        w = instance.n_phi + instance.n
        # Only an absent or empty guard block means no rows; any other keeps its shape.
        guard = GuardConditions(
            Lambda=matrix("Lambda") if params.get("Lambda", []) != [] else np.zeros((0, w)),
            b_Lambda=array("b_Lambda", params.get("b_Lambda", []), 1),
            Gamma=matrix("Gamma") if params.get("Gamma", []) != [] else np.zeros((0, w)),
            b_Gamma=array("b_Gamma", params.get("b_Gamma", []), 1),
        )
    except ScenarioParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioParseError(f"bad raw instance: {exc}") from exc
    problems = validate(instance, guard)
    if problems:
        raise ScenarioParseError("invalid instance: " + "; ".join(problems))
    return instance, guard


def _check_factored_N(N: np.ndarray, product: np.ndarray) -> None:
    """Reject a given N that J_phi @ Omega does not reproduce to 1e-10 relative."""
    err = float(np.abs(product - N).max(initial=0.0)) if N.shape == product.shape else np.inf
    scale = max(1.0, float(np.abs(N).max(initial=0.0)))
    if not err <= 1e-10 * scale:  # also rejects nan
        raise ScenarioParseError(
            f"invalid instance: N does not match J_phi @ Omega (max deviation {err:.3e})"
        )


def _solve_step(instance, guard, f_max: float, verify: bool):
    """The step's JSON record and its CSV timings."""
    step = synthesize(instance, guard, f_max=f_max)
    vel, force = step.velocity, step.force
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
        velocity_check = check_velocity_solution(instance, vel)
        record["verification"] = {
            "passed": velocity_check.passed and force_check.passed,
            "velocity": velocity_check.to_dict(),
            "force": force_check.to_dict(),
        }
    return record, {"ms_velocity": step.ms_velocity, "ms_force": step.ms_force}


def _write_outputs(doc_out: dict, timings: list[dict], args: argparse.Namespace):
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(canonical_json(doc_out))
    if args.csv:
        with out.with_suffix(".csv").open("w", newline="") as fh:
            writer = csv.DictWriter(fh, CSV_COLUMNS, restval="", extrasaction="ignore")
            writer.writeheader()
            writer.writerows({**r, **t} for r, t in zip(doc_out["steps"], timings))
            if timings:
                medians = {key: statistics.median(t[key] for t in timings) for key in timings[0]}
                writer.writerow({"step": "median", **medians})


def run_scenario(args: argparse.Namespace) -> int:
    """Solve every step of the scenario and write the outputs; return the exit code."""
    try:
        doc = _load_scenario(Path(args.scenario))
        f_max = _solver_settings(doc, args)
        if doc["scenario_type"] == "block_tilting":
            try:
                scenario = tilting.TiltingScenario(**doc.get("params", {}))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ScenarioParseError(f"bad tilting params: {exc}") from exc
            steps = [tilting.build_instance(s, scenario) for s in tilting.rollout_states(scenario)]
        else:
            steps = [_raw_instance(doc.get("params", {}))]
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    records, timings = [], []
    for index, (instance, guard) in enumerate(steps, start=1):
        try:
            record, timing = _solve_step(instance, guard, f_max, args.verify)
        except SolverError as exc:
            print(f"step {index}: {exc}", file=sys.stderr)
            return exc.exit_code
        record["step"] = index
        records.append(record)
        timings.append(timing)

    doc_out = {
        "schema": SCHEMA_VERSION,
        "scenario_type": doc["scenario_type"],
        "solver": {"f_max": f_max},
        "steps": records,
        "all_verified": (
            all(r["verification"]["passed"] for r in records) if args.verify else None
        ),
    }
    _write_outputs(doc_out, timings, args)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hybridservo",
        description="Synthesize hybrid force-velocity actions for a scenario file.",
    )
    parser.add_argument("--scenario", required=True, help="scenario JSON path")
    parser.add_argument("--out", required=True, help="output JSON path")
    parser.add_argument(
        "--f-max", type=float, help=f"force command bound [N] (default {DEFAULT_F_MAX:g})"
    )
    parser.add_argument("--csv", action="store_true", help="also write a per-step timing CSV")
    parser.add_argument("--verify", action="store_true", help="run independent checks on every step")
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (4)
        return exc.code
    return run_scenario(args)


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
