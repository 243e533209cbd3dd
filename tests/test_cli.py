from __future__ import annotations

import csv
import importlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from hybridservo import cli, errors
from hybridservo.cli import CSV_COLUMNS, main
from hybridservo.velocity_solver import solve_velocity


README = Path(__file__).resolve().parents[1] / "README.md"
# README's raw example: the raw_instance scenario in one of its JSON blocks.
RAW_EXAMPLE = next(
    block for block in re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    if "raw_instance" in block
)


def _write_scenario(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _run(tmp_path, doc, *flags, code=0):
    """Run main on doc as a scenario file, check its exit code and return the output path."""
    scenario = _write_scenario(tmp_path / "scenario.json", doc)
    out = tmp_path / "out.json"
    assert main(["--scenario", scenario, "--out", str(out), *flags]) == code
    return out


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


def _load(path):
    """An output file as strict JSON: json alone accepts NaN and Infinity."""
    return json.loads(path.read_text(), parse_constant=_reject)


def _raw_doc(params, solver=None):
    return {"schema": 1, "scenario_type": "raw_instance", "params": params, "solver": solver or {}}


def _tilting_doc(params=None, solver=None):
    return {**_raw_doc(params or {}, solver), "scenario_type": "block_tilting"}


def _supported_object_params():
    return json.loads(RAW_EXAMPLE)["params"]


def _raw_example(**params):
    """README's raw example, with the given params replaced."""
    return _raw_doc({**_supported_object_params(), **params})


def _factored_params():
    """The supported-object instance with N = J_phi @ Omega = [[1, -1]] factored."""
    factored = {k: v for k, v in _supported_object_params().items() if k != "N"}
    return {**factored, "J_phi": [[2.0, 1.0]], "Omega": [[0.5, -0.5], [0.0, 0.0]]}


def test_default_tilting_run(tmp_path):
    doc = _load(_run(tmp_path, _tilting_doc(), "--verify"))
    assert doc["schema"] == 1
    assert doc["all_verified"] is True
    assert len(doc["steps"]) == 15
    for step in doc["steps"]:
        assert step["n_av"] == 1
        assert step["n_af"] == 2
        assert step["newton_residual"] <= 1e-6
        assert step["lp_margin"] > 0.0
        assert min(step["guard_margins"]) >= 0.0
        assert step["verification"]["passed"] is True
        assert step["R_a"] == [row[6:] for row in step["T"][6:]]


def test_output_json_is_deterministic(tmp_path):
    scenario = _write_scenario(tmp_path / "scenario.json", _tilting_doc())
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["--scenario", scenario, "--out", str(out_a)]) == 0
    assert main(["--scenario", scenario, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_csv_has_per_step_rows_and_median(tmp_path):
    _run(tmp_path, _tilting_doc(), "--csv")
    with (tmp_path / "out.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 15 + 1
    for row in rows[1:-1]:
        assert int(row[1]) == 1  # n_av
        assert float(row[4]) <= 1e-6  # newton residual
        float(row[5]), float(row[6])  # timings parse
    assert rows[-1][0] == "median"
    assert float(rows[-1][5]) >= 0.0
    assert float(rows[-1][6]) >= 0.0


def test_raw_instance_roundtrip(tmp_path):
    doc = _load(_run(tmp_path, _raw_example(), "--verify"))
    assert len(doc["steps"]) == 1
    step = doc["steps"][0]
    assert step["lambda"][0] == pytest.approx(2.45, abs=1e-7)
    assert step["lp_margin"] == pytest.approx(1.95, abs=1e-6)
    assert doc["all_verified"] is True


class Run(NamedTuple):
    """A CLI run under --verify and what it must give.

    A run that exits 0 writes strict JSON in which every step from index
    verified_from on passes verification, and every step's force axes are
    the trailing columns of the Householder QR factor of its command rows.
    steps maps a step index to fields of that step.  A run that exits
    nonzero writes nothing, and its stderr starts with err.
    """

    doc: dict
    flags: tuple = ()
    code: int = 0
    verified_from: int = 0
    steps: dict = {}
    err: str = ""


@pytest.mark.parametrize(
    "run",
    [
        # A second contact squeezes the object: one force-controlled
        # direction (n_af = 1), which the force stage solves in closed form.
        Run(
            _raw_example(
                N=[[1.0, -1.0], [1.0, 0.0]], G=[[1.0, 0.0]], b_G=[0.0],
                Lambda=[[-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]], b_Lambda=[-0.5, -0.5],
            ),
            steps={0: {
                "n_af": 1, "effort_pass": "unique", "lp_margin": pytest.approx(0.725, abs=1e-12),
            }},
        ),
        # The contact force in micro-units (N and the lambda column of Lambda
        # times 1e-6): lambda is 1e6 times larger and the margin the same.
        Run(
            _raw_example(N=[[1e-6, -1e-6]], Lambda=[[-1e-6, 0.0, 0.0]]),
            steps={0: {"lp_margin": pytest.approx(1.95, abs=1e-9)}},
        ),
        # A third coordinate with a goal row in units 1e9 smaller: both goal
        # rows are commanded (n_av = 2).  null(N) has two dimensions and G two
        # rows, so the velocity stage takes its SVD route, as in the next row.
        Run(
            _raw_example(
                N=[[1.0, -1.0, 0.0]], G=[[1.0, 0.0, 0.0], [0.0, 0.0, 1e-9]], b_G=[0.3, 7e-10],
                F=[-2.45, 0.0, 0.0], Lambda=[[-1.0, 0.0, 0.0, 0.0]],
            ),
            steps={0: {"n_av": 2, "lp_margin": pytest.approx(1.95, abs=1e-9)}},
        ),
        # Two contacts and two goal rows: n_av = 2 and one force axis,
        # (1, 1, 2) / sqrt(6) in the actuated coordinates, not a coordinate axis.
        Run(
            _raw_example(
                N=[[1.0, 0.0, 0.0, -1.0], [-1.0, -1.0, -1.0, -1.0]],
                G=[[-1.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]], b_G=[-0.2, 0.1],
                F=[-2.45, 0.0, 0.0, 0.0], b_Lambda=[-0.5, -0.5],
                Lambda=[[-1.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0, 0.0, 0.0]],
            ),
            steps={0: {"n_av": 2, "n_af": 1}},
        ),
        # A two-dimensional null(N) whose one goal row adds one command: G NullN
        # is a row and A = NullN^T B_c has rank one, so the velocity stage
        # takes both in closed form and factors only N and the candidate basis.
        Run(
            _raw_example(
                n_u=2, N=[[1.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], G=[[1.0, 0.0, 0.0, 0.0]],
                b_G=[0.3], F=[-2.45, 0.0, 0.0, 0.0], Lambda=[[0.0, -1.0, 0.0, 0.0, 0.0, 0.0]],
            ),
            steps={0: {
                "n_av": 1, "n_af": 1, "lp_margin": pytest.approx(49.5, abs=1e-9),
                "direction_cost": pytest.approx(-0.7071067811865476, abs=1e-12),
            }},
        ),
        # Steps 1-11 command 500 N, so a check at the 50 N default would fail them.
        Run(
            _tilting_doc(), ("--f-max", "500"),
            steps={0: {"eta_af": pytest.approx([0.0, -500.0], abs=1e-6)}},
        ),
        # The margin LP starts at the box centre, so f_max scales no h, and
        # step 12's optimum is HiGHS's at f_max 50.  Steps 1-11 command about
        # 1e15 N (1e300 N in the next row); their Newton residual exceeds the
        # verifier's bound 1e-6 (1 + ||T F||), which concerns the free forces.
        Run(
            _tilting_doc(), ("--f-max", "1e15"), verified_from=11,
            steps={11: {"lp_margin": pytest.approx(0.6160652424908972, abs=1e-12)}},
        ),
        # The squared Newton residual of steps 1-11 overflows; its norm stays
        # finite, so the JSON stays strict.
        Run(_tilting_doc(), ("--f-max", "1e300"), verified_from=11),
        # Invalid input (4), not a traceback (1).
        Run(_raw_example(Lambda=[[]], b_Lambda=[1.0]), code=4, err="error:"),
        # Forces of 1e308 overflow inside the force stage.
        Run(
            _tilting_doc(params={"gravity_object": [1e308, 1e308, -1e308]}),
            code=4, err="step 1: force stage: overflow",
        ),
        Run(
            _tilting_doc(params={"gravity_hand": [1e308] * 3}),
            code=4, err="step 1: force stage: overflow",
        ),
    ],
    ids=[
        "squeeze", "micro-units", "small-goal-units", "two-commands", "two-motions", "f-max-500",
        "f-max-1e15", "f-max-1e300", "lambda-row-without-columns", "gravity-object",
        "gravity-hand",
    ],
)
def test_scenario_runs(tmp_path, capsys, run):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _run(tmp_path, run.doc, "--verify", *run.flags, code=run.code)
    if run.code:
        err = capsys.readouterr().err
        assert err.startswith(run.err) and "Traceback" not in err, err
        assert not out.exists()
        return
    doc = _load(out)
    passed = [step["verification"]["passed"] for step in doc["steps"]]
    assert doc["all_verified"] is all(passed)
    assert all(passed[run.verified_from:]), passed
    for step in doc["steps"]:
        R_a, n_af = np.array(step["R_a"]), step["n_af"]
        axes = np.linalg.qr(R_a[n_af:].T, mode="complete")[0][:, step["n_av"]:].T
        assert np.max(np.abs(R_a[:n_af] - axes), initial=0.0) <= 1e-12, R_a
    for i, fields in run.steps.items():
        assert {k: doc["steps"][i][k] for k in fields} == fields


def test_verify_json_without_guard_rows_is_strict_json(tmp_path):
    # README's raw example without its guard rows has no guard margin, so
    # min_guard_margin is null, not the non-JSON constant Infinity.
    params = {k: v for k, v in _supported_object_params().items() if k not in ("Lambda", "b_Lambda")}
    doc = _load(_run(tmp_path, _raw_doc(params), "--verify"))
    assert doc["steps"][0]["verification"]["force"]["min_guard_margin"] is None
    assert doc["all_verified"] is True


def test_raw_instance_with_n_factored_as_j_phi_and_omega(tmp_path, capsys):
    # README's raw example with N given in factored form.
    factored = _factored_params()
    outputs = []
    for name, params in [("n", _supported_object_params()), ("factored", factored)]:
        scenario = _write_scenario(tmp_path / f"{name}.json", _raw_doc(params))
        out = tmp_path / f"{name}_out.json"
        assert main(["--scenario", scenario, "--out", str(out), "--verify"]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    # Given with N, the factors must reproduce it: here J_phi @ Omega = [[1, 0]].
    mismatch = {**factored, "N": [[1.0, -1.0]], "Omega": [[0.5, -0.5], [0.0, 1.0]]}
    scenario = _write_scenario(tmp_path / "mismatch.json", _raw_doc(mismatch))
    out = tmp_path / "mismatch_out.json"
    assert main(["--scenario", scenario, "--out", str(out)]) == 4
    assert "N does not match J_phi @ Omega" in capsys.readouterr().err
    assert not out.exists()


def test_solver_overrides_reach_output(tmp_path):
    out = _run(tmp_path, _tilting_doc(solver={"f_max": 25.0}), "--f-max", "10.0")
    # Command line wins over the scenario file.
    assert _load(out)["solver"] == {"f_max": 10.0}


@pytest.mark.parametrize(
    "solver, flags, message",
    [
        ({}, ["--starts", "0"], "unrecognized arguments: --starts 0"),
        ({"num_starts": 0}, [], "unknown solver keys"),
        ({"max_iters": "many"}, [], "unknown solver keys"),
        ({}, ["--rank-tol", "0"], "unrecognized arguments: --rank-tol 0"),
        ({}, ["--rank-tol", "1"], "unrecognized arguments: --rank-tol 1"),
        ({}, ["--rank-tol", "nan"], "unrecognized arguments: --rank-tol nan"),
        ({"rank_tol": 1.5}, [], "unknown solver keys"),
        ({"rank_tol": "1e-8"}, [], "unknown solver keys"),
    ],
    ids=[
        "starts-flag-0", "num-starts-0", "max-iters-string", "rank-tol-0", "rank-tol-1",
        "rank-tol-nan", "scenario-rank-tol-1.5", "scenario-rank-tol-string",
    ],
)
def test_removed_settings_are_parse_errors(tmp_path, capsys, solver, flags, message):
    # The direction-search settings and the rank tolerance are gone from
    # schema 1: usage or unknown-key errors.
    out = _run(tmp_path, _tilting_doc(solver=solver), *flags, code=4)
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verification_absent_without_flag(tmp_path):
    doc = _load(_run(tmp_path, _tilting_doc()))
    assert doc["all_verified"] is None
    assert all(step["verification"] is None for step in doc["steps"])


def test_missing_scenario_file_is_parse_error(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["--scenario", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("blocked", ["out.json", "out.csv"])
def test_unwritable_output_returns_4(tmp_path, capsys, blocked):
    # A directory where the JSON or, under --csv, the CSV would go.
    (tmp_path / blocked).mkdir()
    _run(tmp_path, _raw_example(), "--csv", code=4)
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs: ") and err.count("\n") == 1
    assert (tmp_path / blocked).is_dir()


def test_module_entry_point_reports_missing_scenario(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hybridservo.cli",
         "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 4
    assert "error:" in proc.stderr


def test_cli_import_loads_no_scipy():
    # The runtime path is numpy only; SciPy is a test dependency.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hybridservo.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_invalid_json_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "scenario.json"
    bad.write_text("{not json")
    assert main(["--scenario", str(bad), "--out", str(tmp_path / "o.json")]) == 4
    assert "error:" in capsys.readouterr().err


def test_unknown_keys_are_parse_errors(tmp_path, capsys):
    doc = _tilting_doc()
    doc["params"]["tilt_angle"] = 1.0
    _run(tmp_path, doc, code=4)
    assert "tilt_angle" in capsys.readouterr().err


def test_wrong_schema_version_is_parse_error(tmp_path, capsys):
    doc = _tilting_doc()
    doc["schema"] = 2
    _run(tmp_path, doc, code=4)
    assert "schema" in capsys.readouterr().err


def test_velocity_infeasible_returns_2(tmp_path, capsys):
    params = {
        "n_u": 2,
        "N": [[1.0, 0.0, 0.0]],
        "G": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "b_G": [0.1, 0.2],
        "F": [0.0, 0.0, 0.0],
    }
    _run(tmp_path, _raw_doc(params), code=2)
    assert capsys.readouterr().err.startswith("step 1:")


EXIT_CODES = [
    ("InfeasibleDimensions", 2), ("InconsistentGoal", 2), ("EmptyBasis", 2),
    ("SingularTransform", 2), ("InfeasibleLP", 3), ("SingularSystem", 3), ("NumericOverflow", 4),
]


@pytest.mark.parametrize("name, code", EXIT_CODES)
def test_each_solver_error_returns_its_exit_code(tmp_path, capsys, monkeypatch, name, code):
    coded = {k for k, c in vars(errors).items() if isinstance(c, type) and hasattr(c, "exit_code")}
    assert coded == {n for n, _ in EXIT_CODES}
    calls = []

    def fail_on_second_step(*args):
        calls.append(args)
        if len(calls) == 2:
            raise getattr(errors, name)("injected")
        return solve_velocity(*args)

    monkeypatch.setattr("hybridservo.solve_velocity", fail_on_second_step)
    out = _run(tmp_path, _tilting_doc(), code=code)
    assert capsys.readouterr().err == "step 2: injected\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, stage",
    [
        (_raw_doc(dict(n_u=1, N=[[1, -1, 0, 0]], G=[[1.5e308] * 4], b_G=[1], F=[0] * 4)), "velocity"),
        (_tilting_doc(params={"mu_hand": 1e308, "mu_table": 1e308}), "force"),
    ],
    ids=["raw-goal", "friction"],
)
def test_steps_that_overflow_return_4(tmp_path, capsys, doc, stage):
    # Finite inputs whose products inside the solve exceed double precision;
    # test_scenario_runs holds the gravity forces that overflow.
    out = _run(tmp_path, doc, "--verify", code=4)
    assert capsys.readouterr().err.startswith(f"step 1: {stage} stage: overflow")
    assert not out.exists()


@pytest.mark.parametrize(
    "Gamma, b_Gamma, code",
    [
        ([[1.0, 0.0, 0.0]], [2.45], 0),
        ([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [2.45, 4.9], 0),
        ([[1.0, 0.0, 0.0]], [1.0], 3),
        ([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [1.0, 2.0], 3),
    ],
    ids=["consistent", "consistent-duplicate", "inconsistent", "inconsistent-duplicate"],
)
def test_gamma_rows_beyond_the_rank(tmp_path, capsys, Gamma, b_Gamma, code):
    # The unactuated balance already fixes lambda = 2.45, so a Gamma row on
    # lambda is redundant: it solves when it agrees and exits 3 when not.
    out = _run(tmp_path, _raw_example(Gamma=Gamma, b_Gamma=b_Gamma), "--verify", code=code)
    if code == 0:
        doc = _load(out)
        assert doc["all_verified"] is True
        assert doc["steps"][0]["lambda"][0] == pytest.approx(2.45, abs=1e-9)
    else:
        err = capsys.readouterr().err
        assert err.startswith("step 1: equality rows are inconsistent or pin the force command")
        assert not out.exists()


def test_force_infeasible_returns_3(tmp_path, capsys):
    _run(tmp_path, _tilting_doc(params={"mu_table": 0.0}), code=3)
    err = capsys.readouterr().err
    assert err.startswith("step 1:")
    assert "margin" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--scenario", "s.json", "--out", "o.json", "--f-max", "abc"],
        ["--scenario", "s.json"],
        ["--out", "o.json"],
    ],
    ids=["bad-type", "missing-out", "missing-scenario"],
)
def test_usage_errors_return_4(capsys, flags):
    assert main(flags) == 4
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "error:" in err


def test_help_returns_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage:")


@pytest.mark.parametrize(
    "solver, flags",
    [
        ({}, ["--f-max", "nan"]),
        ({}, ["--f-max", "inf"]),
        ({}, ["--f-max", "-1"]),
        ({"f_max": 0.0}, []),
        ({"f_max": "inf"}, []),
        ({"f_max": True}, []),
        ({"f_max": "10"}, []),
    ],
    ids=[
        "f-max-nan", "f-max-inf", "f-max-negative", "scenario-f-max-0", "scenario-f-max-inf",
        "scenario-f-max-true", "scenario-f-max-string",
    ],
)
def test_out_of_range_solver_settings_return_4(tmp_path, capsys, solver, flags):
    out = _run(tmp_path, _tilting_doc(solver=solver), *flags, code=4)
    assert "bad solver settings" in capsys.readouterr().err
    assert not out.exists()


def test_step_records_report_effort_pass(tmp_path):
    out = _run(tmp_path, _tilting_doc())
    # Tilting has two force-controlled directions.  The margin optimum is
    # unique at steps 1-2 and 9-15; at steps 3-8 the least-effort LP runs.
    passes = [step["effort_pass"] for step in _load(out)["steps"]]
    assert passes == ["unique"] * 2 + ["refined"] * 6 + ["unique"] * 7
    # The supported object has none: no LP, so nothing to refine.
    assert _load(_run(tmp_path, _raw_example()))["steps"][0]["effort_pass"] == "skipped"


@pytest.mark.parametrize(
    "doc",
    [
        _tilting_doc(params={"num_steps": 2.5}),
        _tilting_doc(params={"num_steps": 0}),
        _tilting_doc(params={"num_steps": True}),
        _tilting_doc(params={"rotation_axis": [0, 0, 1]}),
        _tilting_doc(params={"rotation_axis": [0, 0, 0]}),
        _tilting_doc(params={"mu_hand": "0.8"}),
        _tilting_doc(params={"tilt_rate": float("nan")}),
        _tilting_doc(params={"gravity_object": [0, 0, None]}),
        _raw_example(n_u=1.7),
        _raw_example(n_u=True),
        _raw_example(n_u="1"),
        _raw_example(Lambda=[[-1, 0, 0, 0, 0, 0]], b_Lambda=[0, 0]),
        _raw_example(N=5),
        _raw_example(G=5),
        _tilting_doc(params={"edge_length": -0.1}),
        _tilting_doc(params={"step_duration": 0}),
        _tilting_doc(params={"n_min": -1}),
        _tilting_doc(params={"mu_hand": -0.5}),
        _raw_example(N=[["1", "-1"]]),
        _raw_example(G=[[True, 0]]),
        _raw_example(b_G=[None]),
        _raw_example(F=[[-2.45, 0.0]]),
        _raw_example(b_G=0.1),
        _raw_example(b_Lambda=-0.5),
        _raw_example(Gamma=[[0, 1, 0]], b_Gamma=0),
        _raw_example(N=[[10**400, -1]]),
        _tilting_doc(params={"tilt_rate": 10, "step_duration": 1e308}),
        _tilting_doc(params={"tilt_rate": 1e308, "step_duration": 10}),
        _raw_doc({**_factored_params(), "J_phi": [[2.0, 1.0, 0.0]]}),
        _raw_example(J_phi=[[1.0, -1.0]]),
        _raw_example(Gamma=[[]], b_Gamma=[1.0]),
        {**_raw_example(), "schema": True},
        {**_raw_example(), "schema": 1.0},
    ],
    ids=[
        "num-steps-float", "num-steps-0", "num-steps-true", "axis-vertical", "axis-zero",
        "mu-string", "tilt-rate-nan", "gravity-null", "n-u-float", "n-u-true", "n-u-string",
        "lambda-wrong-width", "n-scalar", "g-scalar", "edge-negative", "step-duration-0",
        "n-min-negative", "mu-negative", "n-strings", "g-bool", "b-g-null", "f-matrix",
        "b-g-scalar", "b-lambda-scalar", "b-gamma-scalar", "n-int-overflow",
        "angle-overflow-duration", "angle-overflow-rate", "factor-shapes", "factor-alone",
        "gamma-row-without-columns", "schema-true", "schema-float",
    ],
)
def test_bad_scenario_params_return_4(tmp_path, capsys, doc):
    out = _run(tmp_path, doc, code=4)
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_huge_rotation_axis_gives_the_plan_of_its_direction(tmp_path):
    # The norm of [1e308, 1e308, 0] overflows; the axis is the diagonal all the same.
    edge = [[0.0265, 0.0265, 0.0], [-0.0265, -0.0265, 0.0]]
    outputs = []
    for name, axis in [("unit", [1, 1, 0]), ("huge", [1e308, 1e308, 0])]:
        doc = _tilting_doc(params={"rotation_axis": axis, "table_contacts": edge})
        scenario = _write_scenario(tmp_path / f"{name}.json", doc)
        out = tmp_path / f"{name}_out.json"
        assert main(["--scenario", scenario, "--out", str(out), "--verify"]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert _load(out)["all_verified"] is True


def test_readme_names_every_setting():
    readme = README.read_text()
    synopsis = readme.split("\n```\nhybridservo ", 1)[1].split("```", 1)[0]
    options = {s for a in cli.make_parser()._actions for s in a.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"--[a-z-]+", synopsis)) == options
    sentence = re.search(r"The `solver` block takes (.*?)\.\s", readme, re.S).group(1)
    assert set(re.findall(r"`([a-z_]+)`", sentence)) == cli.SOLVER_KEYS


def test_readme_layout_names_only_what_exists():
    readme = README.read_text()
    layout = readme.split("## Library layout\n\n", 1)[1].split("\n\n", 1)[0]
    for bullet in layout.removeprefix("- ").split("\n- "):
        where, text = re.fullmatch(r"`([^`]+)` - (.*)", bullet, re.S).groups()
        module = importlib.import_module(where.removeprefix("tests/").removesuffix(".py"))
        names = re.findall(r"`([A-Za-z_]\w*)[(`]", text)
        assert names, where
        assert [n for n in names if not hasattr(module, n)] == [], where
