from __future__ import annotations

import csv
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hybridservo import cli, errors
from hybridservo.cli import CSV_COLUMNS, main
from hybridservo.velocity_solver import solve_velocity


def _write_scenario(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _raw_doc(params, solver=None):
    return {"schema": 1, "scenario_type": "raw_instance", "params": params, "solver": solver or {}}


def _tilting_doc(params=None, solver=None):
    return {**_raw_doc(params or {}, solver), "scenario_type": "block_tilting"}


def _supported_object_params():
    return {
        "n_u": 1,
        "N": [[1.0, -1.0]],
        "G": [[1.0, 0.0]],
        "b_G": [0.1],
        "F": [-2.45, 0.0],
        "Lambda": [[-1.0, 0.0, 0.0]],
        "b_Lambda": [-0.5],
    }


def _factored_params():
    """The supported-object instance with N = J_phi @ Omega = [[1, -1]] factored."""
    factored = {k: v for k, v in _supported_object_params().items() if k != "N"}
    return {**factored, "J_phi": [[2.0, 1.0]], "Omega": [[0.5, -0.5], [0.0, 0.0]]}


def test_default_tilting_run(tmp_path):
    scenario = _write_scenario(tmp_path / "scenario.json", _tilting_doc())
    out = tmp_path / "out.json"
    assert main(["--scenario", scenario, "--out", str(out), "--verify"]) == 0
    doc = json.loads(out.read_text())
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


def test_output_json_is_deterministic(tmp_path):
    scenario = _write_scenario(tmp_path / "scenario.json", _tilting_doc())
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["--scenario", scenario, "--out", str(out_a)]) == 0
    assert main(["--scenario", scenario, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_csv_has_per_step_rows_and_median(tmp_path):
    scenario = _write_scenario(tmp_path / "scenario.json", _tilting_doc())
    out = tmp_path / "out.json"
    assert main(["--scenario", scenario, "--out", str(out), "--csv"]) == 0
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
    scenario = _write_scenario(
        tmp_path / "scenario.json", _raw_doc(_supported_object_params())
    )
    out = tmp_path / "out.json"
    assert main(["--scenario", scenario, "--out", str(out), "--verify"]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["steps"]) == 1
    step = doc["steps"][0]
    assert step["lambda"][0] == pytest.approx(2.45, abs=1e-7)
    assert step["lp_margin"] == pytest.approx(1.95, abs=1e-6)
    assert step["verification"]["passed"] is True


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
    scenario = _write_scenario(tmp_path / "scenario.json", _tilting_doc(solver={"f_max": 25.0}))
    out = tmp_path / "out.json"
    args = ["--scenario", scenario, "--out", str(out), "--f-max", "10.0"]
    assert main(args) == 0
    doc = json.loads(out.read_text())
    # Command line wins over the scenario file.
    assert doc["solver"] == {"f_max": 10.0}


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
    scenario = _write_scenario(tmp_path / "scenario.json", _tilting_doc(solver=solver))
    out = tmp_path / "o.json"
    assert main(["--scenario", scenario, "--out", str(out), *flags]) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verification_absent_without_flag(tmp_path):
    scenario = _write_scenario(tmp_path / "scenario.json", _tilting_doc())
    out = tmp_path / "out.json"
    assert main(["--scenario", scenario, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_verified"] is None
    assert all(step["verification"] is None for step in doc["steps"])


def test_missing_scenario_file_is_parse_error(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(["--scenario", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 4
    assert "error:" in capsys.readouterr().err


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
    scenario = _write_scenario(tmp_path / "scenario.json", doc)
    assert main(["--scenario", scenario, "--out", str(tmp_path / "o.json")]) == 4
    assert "tilt_angle" in capsys.readouterr().err


def test_wrong_schema_version_is_parse_error(tmp_path, capsys):
    doc = _tilting_doc()
    doc["schema"] = 2
    scenario = _write_scenario(tmp_path / "scenario.json", doc)
    assert main(["--scenario", scenario, "--out", str(tmp_path / "o.json")]) == 4
    assert "schema" in capsys.readouterr().err


def test_velocity_infeasible_returns_2(tmp_path, capsys):
    params = {
        "n_u": 2,
        "N": [[1.0, 0.0, 0.0]],
        "G": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "b_G": [0.1, 0.2],
        "F": [0.0, 0.0, 0.0],
    }
    scenario = _write_scenario(tmp_path / "scenario.json", _raw_doc(params))
    assert main(["--scenario", scenario, "--out", str(tmp_path / "o.json")]) == 2
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
    scenario = _write_scenario(tmp_path / "scenario.json", _tilting_doc())
    out = tmp_path / "o.json"
    assert main(["--scenario", scenario, "--out", str(out)]) == code
    assert capsys.readouterr().err == "step 2: injected\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        _raw_doc(dict(n_u=1, N=[[1, -1, 0, 0]], G=[[1.5e308] * 4], b_G=[1], F=[0] * 4)),
        _tilting_doc(params={"gravity_object": [1e308, 1e308, -1e308]}),
        _tilting_doc(params={"mu_hand": 1e308, "mu_table": 1e308}),
        _tilting_doc(params={"gravity_hand": [1e308] * 3}),
    ],
    ids=["raw-goal", "gravity-object", "friction", "gravity-hand"],
)
def test_steps_that_overflow_return_4(tmp_path, capsys, doc):
    # Finite inputs whose products inside the solve exceed double precision.
    scenario = _write_scenario(tmp_path / "scenario.json", doc)
    out = tmp_path / "o.json"
    assert main(["--scenario", scenario, "--out", str(out), "--verify"]) == 4
    assert re.match(r"step 1: (velocity|force) stage: overflow", capsys.readouterr().err)
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
    params = _supported_object_params()
    params.update(Gamma=Gamma, b_Gamma=b_Gamma)
    scenario = _write_scenario(tmp_path / "scenario.json", _raw_doc(params))
    out = tmp_path / "o.json"
    assert main(["--scenario", scenario, "--out", str(out), "--verify"]) == code
    if code == 0:
        doc = json.loads(out.read_text())
        assert doc["all_verified"] is True
        assert doc["steps"][0]["lambda"][0] == pytest.approx(2.45, abs=1e-9)
    else:
        err = capsys.readouterr().err
        assert err.startswith("step 1: equality rows are inconsistent or pin the force command")
        assert not out.exists()


def test_force_infeasible_returns_3(tmp_path, capsys):
    scenario = _write_scenario(
        tmp_path / "scenario.json", _tilting_doc(params={"mu_table": 0.0})
    )
    assert main(["--scenario", scenario, "--out", str(tmp_path / "o.json")]) == 3
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
    scenario = _write_scenario(tmp_path / "scenario.json", _tilting_doc(solver=solver))
    out = tmp_path / "o.json"
    assert main(["--scenario", scenario, "--out", str(out), *flags]) == 4
    assert "bad solver settings" in capsys.readouterr().err
    assert not out.exists()


def test_step_records_report_effort_pass(tmp_path):
    scenario = _write_scenario(tmp_path / "scenario.json", _tilting_doc())
    out = tmp_path / "out.json"
    assert main(["--scenario", scenario, "--out", str(out)]) == 0
    # Tilting has two force-controlled directions.  The margin optimum is
    # unique at steps 1-2 and 9-15; at steps 3-8 the least-effort LP runs.
    passes = [step["effort_pass"] for step in json.loads(out.read_text())["steps"]]
    assert passes == ["unique"] * 2 + ["refined"] * 6 + ["unique"] * 7
    # The supported object has none: no LP, so nothing to refine.
    raw = _write_scenario(tmp_path / "raw.json", _raw_doc(_supported_object_params()))
    assert main(["--scenario", raw, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["steps"][0]["effort_pass"] == "skipped"


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
        _raw_doc({**_supported_object_params(), "n_u": 1.7}),
        _raw_doc({**_supported_object_params(), "n_u": True}),
        _raw_doc({**_supported_object_params(), "n_u": "1"}),
        _raw_doc(
            {**_supported_object_params(), "Lambda": [[-1, 0, 0, 0, 0, 0]], "b_Lambda": [0, 0]}
        ),
        _raw_doc({**_supported_object_params(), "N": 5}),
        _raw_doc({**_supported_object_params(), "G": 5}),
        _tilting_doc(params={"edge_length": -0.1}),
        _tilting_doc(params={"step_duration": 0}),
        _tilting_doc(params={"n_min": -1}),
        _tilting_doc(params={"mu_hand": -0.5}),
        _raw_doc({**_supported_object_params(), "N": [["1", "-1"]]}),
        _raw_doc({**_supported_object_params(), "G": [[True, 0]]}),
        _raw_doc({**_supported_object_params(), "b_G": [None]}),
        _raw_doc({**_supported_object_params(), "F": [[-2.45, 0.0]]}),
        _raw_doc({**_supported_object_params(), "b_G": 0.1}),
        _raw_doc({**_supported_object_params(), "b_Lambda": -0.5}),
        _raw_doc({**_supported_object_params(), "Gamma": [[0, 1, 0]], "b_Gamma": 0}),
        _raw_doc({**_supported_object_params(), "N": [[10**400, -1]]}),
        _tilting_doc(params={"tilt_rate": 10, "step_duration": 1e308}),
        _tilting_doc(params={"tilt_rate": 1e308, "step_duration": 10}),
        _raw_doc({**_factored_params(), "J_phi": [[2.0, 1.0, 0.0]]}),
        _raw_doc({**_supported_object_params(), "J_phi": [[1.0, -1.0]]}),
    ],
    ids=[
        "num-steps-float", "num-steps-0", "num-steps-true", "axis-vertical", "axis-zero",
        "mu-string", "tilt-rate-nan", "gravity-null", "n-u-float", "n-u-true", "n-u-string",
        "lambda-wrong-width", "n-scalar", "g-scalar", "edge-negative", "step-duration-0",
        "n-min-negative", "mu-negative", "n-strings", "g-bool", "b-g-null", "f-matrix",
        "b-g-scalar", "b-lambda-scalar", "b-gamma-scalar", "n-int-overflow",
        "angle-overflow-duration", "angle-overflow-rate", "factor-shapes", "factor-alone",
    ],
)
def test_bad_scenario_params_return_4(tmp_path, capsys, doc):
    scenario = _write_scenario(tmp_path / "scenario.json", doc)
    out = tmp_path / "o.json"
    assert main(["--scenario", scenario, "--out", str(out)]) == 4
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
    assert json.loads(outputs[1])["all_verified"] is True


def test_readme_names_every_setting():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = readme.split("\n```\nhybridservo ", 1)[1].split("```", 1)[0]
    options = {s for a in cli.make_parser()._actions for s in a.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"--[a-z-]+", synopsis)) == options
    sentence = re.search(r"The `solver` block takes (.*?)\.\s", readme, re.S).group(1)
    assert set(re.findall(r"`([a-z_]+)`", sentence)) == cli.SOLVER_KEYS


def test_readme_layout_names_only_what_exists():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    layout = readme.split("## Library layout\n\n", 1)[1].split("\n\n", 1)[0]
    for bullet in layout.removeprefix("- ").split("\n- "):
        where, text = re.fullmatch(r"`([^`]+)` - (.*)", bullet, re.S).groups()
        module = importlib.import_module(where.removeprefix("tests/").removesuffix(".py"))
        names = re.findall(r"`([A-Za-z_]\w*)[(`]", text)
        assert names, where
        assert [n for n in names if not hasattr(module, n)] == [], where
