from __future__ import annotations

import ast
import dataclasses
import importlib
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from force_grid_oracle import brute_force_force_oracle
from helpers import random_feasible_instance
from hybridservo import cli, synthesize, verifier
from hybridservo import subspace_linalg as sla
from hybridservo.block_tilting import TiltingScenario, build_instance, rollout_states
from hybridservo.errors import InfeasibleLP
from hybridservo.force_solver import DEFAULT_F_MAX, solve_force
from hybridservo.model import GuardConditions, make_instance
from hybridservo.velocity_solver import solve_velocity
from hybridservo.verifier import _unit_row_svd, check_force_solution, check_velocity_solution


def _solved_tilting_step(step: int = 5, **scenario_kwargs):
    sc = TiltingScenario(**scenario_kwargs)
    st = rollout_states(sc)[step]
    inst, guard = build_instance(st, sc)
    step = synthesize(inst, guard)
    return inst, guard, step.velocity, step.force


def test_norm_stays_finite_where_its_square_overflows():
    # sqrt(r . r) bit for bit where r . r is finite; past that, finite and
    # without numpy's overflow warning; a non-finite r as before.
    rng = np.random.default_rng(3)
    for r in (rng.standard_normal(7), np.zeros(3), np.array([3e153, -4e153])):
        assert verifier._norm(r) == math.sqrt(r.dot(r))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verifier._norm(np.array([3e300, -4e300])) == pytest.approx(5e300, rel=1e-15)
    assert verifier._norm(np.array([np.inf, 1.0])) == math.inf
    assert math.isnan(verifier._norm(np.array([np.nan, 1.0])))


def test_velocity_check_passes_on_solved_instances():
    rng = np.random.default_rng(0)
    for _ in range(5):
        inst = random_feasible_instance(rng)
        sol = solve_velocity(inst)
        report = check_velocity_solution(inst, sol)
        assert report.passed, report.notes
        assert report.rank_nc == report.rank_ng


def test_velocity_check_fails_on_replaced_row():
    inst, _, vel, _ = _solved_tilting_step()
    corrupt = vel.C.copy()
    corrupt[0] = inst.N[0]  # a constraint row cannot pin the goal
    assert not check_velocity_solution(inst, replace(vel, C=corrupt)).passed


def test_velocity_check_fails_on_drifted_row():
    inst, _, vel, _ = _solved_tilting_step()
    # Drift along a constraint-compatible motion: the commanded value no
    # longer matches what the goal requires.
    drift = sla.factor(inst.N).null_space()[:, 0]
    corrupt = vel.C + 0.5 * drift[None, :]
    assert not check_velocity_solution(inst, replace(vel, C=corrupt)).passed


def test_velocity_check_fails_without_commands_the_goal_needs():
    # The goal moves a free axis, so one command is needed; a solution that
    # claims none must fail, not pass as "nothing to check".
    inst = make_instance(1, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [0.3], np.zeros(3))
    vel = solve_velocity(inst)
    assert vel.n_av == 1 and check_velocity_solution(inst, vel).passed
    none = replace(vel, C=np.zeros((0, 3)), b_C=np.zeros(0))
    report = check_velocity_solution(inst, none)
    assert not report.passed
    assert (report.rank_ng, report.rank_nc) == (2, 1)


def test_velocity_check_reports_no_residual_for_an_inconsistent_system():
    # A force row of the frame is orthogonal to every motion the constraints
    # allow, so commanding it to 1 has no solution: its cross residual is
    # None (JSON null), not inf.  T swaps it in as its command row, so the
    # frame itself stays valid and ends in C.
    inst, _, vel, _ = _solved_tilting_step()
    T = vel.T.copy()
    T[[6, 8]] = T[[8, 6]]
    report = check_velocity_solution(inst, replace(vel, T=T, C=T[8:], b_C=np.ones(1)))
    assert not report.passed
    assert report.cross_residual_goal is None
    assert report.notes[0] == "command system inconsistent"
    assert [note.split(" = ")[0] for note in report.notes[1:]] == [
        "rank [N; C]", "null_goal_residual", "cross_residual_command"
    ]
    json.dumps(report.to_dict(), allow_nan=False)


def _two_command_step():
    # Two goal rows 1e9 apart in scale: both are commanded (n_av = 2).
    G = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1e-9]])
    inst = make_instance(1, [[1.0, -1.0, 0.0]], G, G @ [0.3, 0.3, 0.7], [-2.45, 0.0, 0.0])
    vel = solve_velocity(inst)
    assert vel.n_av == 2
    return inst, vel


@pytest.mark.parametrize(
    "corrupt, names",
    [
        (
            lambda vel: replace(vel, C=vel.C[1:], b_C=vel.b_C[1:]),
            ["rank [N; C]", "null_goal_residual", "cross_residual_goal"],
        ),
        (
            lambda vel: replace(vel, C=vel.C[[1, 1]], b_C=vel.b_C[[1, 1]]),
            ["rank [N; C]", "null_goal_residual", "cross_residual_goal", "the last n_av rows of T are not C"],
        ),
        (
            lambda vel: replace(vel, b_C=vel.b_C + [0.0, 1e-3]),
            ["cross_residual_goal", "cross_residual_command"],
        ),
    ],
    ids=["dropped-row", "duplicated-row", "perturbed-b-c"],
)
def test_velocity_check_notes_each_failed_condition(corrupt, names):
    inst, vel = _two_command_step()
    assert check_velocity_solution(inst, vel).notes == []
    report = check_velocity_solution(inst, corrupt(vel))
    assert not report.passed
    assert [note.split(" = ")[0] for note in report.notes] == names
    if "rank [N; C]" in names:
        assert report.notes[0] == "rank [N; C] = 2 != rank [N; G] = 3"
    for note in report.notes:
        if note.split(" = ")[0] in ("null_goal_residual", "cross_residual_goal", "cross_residual_command"):
            assert note.endswith(" exceeds 1e-06")


def _scaled_frame(vel):
    T = vel.T.copy()
    T[6:, 6:] *= 1.001
    return replace(vel, T=T, C=T[8:], b_C=1.001 * vel.b_C)


def _frame_entry(vel, row, col, value):
    T = vel.T.copy()
    T[row, col] = value
    return replace(vel, T=T)


def _swapped_command_row(vel):
    T = vel.T.copy()
    T[[6, 8]] = T[[8, 6]]
    return replace(vel, T=T)


def _rotated_force_rows(vel):
    # A rotation of the two force rows within their plane: still a frame.
    T = vel.T.copy()
    c, s = np.cos(0.3), np.sin(0.3)
    T[6:8] = np.array([[c, -s], [s, c]]) @ T[6:8]
    return replace(vel, T=T)


@pytest.mark.parametrize(
    "corrupt, note",
    [
        (_scaled_frame, "R_a is not orthonormal (max |R_a R_a^T - I| = 2.001e-03)"),
        (lambda vel: _frame_entry(vel, 0, 0, 1.0 + 2.0**-52), "T is not block diagonal diag(I, R_a)"),
        (lambda vel: _frame_entry(vel, 7, 2, 1e-300), "T is not block diagonal diag(I, R_a)"),
        (_swapped_command_row, "the last n_av rows of T are not C"),
        (_rotated_force_rows, None),
    ],
    ids=["scaled-r-a", "identity-ulp", "lower-block-1e-300", "swapped-command-row", "rotated-force-rows"],
)
def test_velocity_check_reads_the_action_frame(corrupt, note):
    # The force check trusts T to be diag(I, R_a) with R_a orthonormal and
    # C as its last rows; a scaled C with its b_C states the same command,
    # so only the frame check sees it.
    inst, _, vel, _ = _solved_tilting_step()
    report = check_velocity_solution(inst, corrupt(vel))
    assert report.passed is (note is None)
    assert report.notes == ([] if note is None else [note])


def test_velocity_check_fails_on_wrong_magnitude():
    inst, _, vel, _ = _solved_tilting_step()
    report = check_velocity_solution(inst, replace(vel, b_C=vel.b_C + 0.1))
    assert not report.passed
    assert report.cross_residual_goal > 1e-6


LATERAL_LOAD = TiltingScenario(gravity_object=np.array([0.0, 0.6, -2.45]))
LATERAL_PLAN = [build_instance(s, LATERAL_LOAD)[0] for s in rollout_states(LATERAL_LOAD)]
LOG_SCALES = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)


@settings(max_examples=100, deadline=None)
@given(tilting=st.booleans(), step=st.integers(0, 14), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_velocity_check_ignores_row_scaling_and_duplicate_rows(tilting, step, seed, data):
    # Scaling rows of N, or of G with b_G, and repeating a row of N state the
    # same constraints and goal, so the same solution gets the same verdict.
    if tilting:
        inst = LATERAL_PLAN[step]
    else:
        inst = random_feasible_instance(np.random.default_rng(seed))
    vel = solve_velocity(inst)
    n_phi, k = inst.N.shape[0], inst.G.shape[0]
    s_N = np.array(data.draw(st.lists(LOG_SCALES, min_size=n_phi, max_size=n_phi)))
    s_G = np.array(data.draw(st.lists(LOG_SCALES, min_size=k, max_size=k)))
    repeat = data.draw(st.integers(0, n_phi - 1))
    N = s_N[:, None] * inst.N
    scaled = replace(
        inst,
        N=np.vstack([N, N[repeat]]),
        G=s_G[:, None] * inst.G,
        b_G=s_G * inst.b_G,
    )
    verdicts = [check_velocity_solution(i, vel) for i in (inst, scaled)]
    assert len({(r.passed, r.rank_ng, r.rank_nc) for r in verdicts}) == 1


def test_velocity_check_takes_two_svds_and_no_lstsq(monkeypatch):
    inst, _, vel, _ = _solved_tilting_step()
    svd, seen = np.linalg.svd, []

    def counted_svd(a, *args, **kwargs):
        seen.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("check_velocity_solution called lstsq or pinv")

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    monkeypatch.setattr(np.linalg, "pinv", forbidden)
    assert check_velocity_solution(inst, vel).passed
    # One full SVD each of the unit-row [N; G] and [N; C].
    assert seen == [(inst.n_phi + inst.G.shape[0], inst.n), (inst.n_phi + vel.n_av, inst.n)]


def test_force_check_passes_on_solved_step():
    inst, guard, vel, force = _solved_tilting_step()
    report = check_force_solution(inst, guard, vel.T, force)
    assert report.passed
    assert report.newton_residual <= 1e-6
    assert report.min_guard_margin >= 0.0


def test_force_check_fails_on_perturbed_reaction():
    inst, guard, vel, force = _solved_tilting_step()
    lam = force.lam.copy()
    lam[2] += 10.0
    report = check_force_solution(inst, guard, vel.T, replace(force, lam=lam))
    assert not report.passed
    assert report.newton_residual > 1e-3


def test_force_check_fails_on_unactuated_force():
    inst, guard, vel, force = _solved_tilting_step()
    eta = force.eta.copy()
    eta[0] += 1e-3
    report = check_force_solution(inst, guard, vel.T, replace(force, eta=eta))
    assert not report.passed
    assert report.unactuated_residual > 1e-8


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("objective_margin", lambda f: replace(f, objective_margin=f.objective_margin + 5.0)),
        ("guard_margins", lambda f: replace(f, guard_margins=np.zeros_like(f.guard_margins))),
        ("eta_af", lambda f: replace(f, eta_af=np.zeros_like(f.eta_af))),
    ],
    ids=["objective_margin", "guard_margins", "eta_af"],
)
def test_force_check_fails_on_a_reported_number_that_disagrees(name, corrupt):
    # Default step 4: lam and eta still hold the solved command, so balance
    # and margins pass; only the reported number is wrong.
    inst, guard, vel, force = _solved_tilting_step(step=3)
    assert check_force_solution(inst, guard, vel.T, force).passed
    report = check_force_solution(inst, guard, vel.T, corrupt(force))
    assert not report.passed
    assert report.notes == [f"reported {name} disagrees with its recomputation"]


def test_force_check_bounds_the_command_at_f_max():
    # Default step 4 solved at f_max = 500 commands 500 N: in balance and
    # inside every guard, but outside the 50 N box.
    inst, guard, vel, _ = _solved_tilting_step(step=3)
    force = solve_force(inst, guard, vel.T, vel.n_av, 500.0)
    assert np.abs(force.eta_af).max() > DEFAULT_F_MAX
    report = check_force_solution(inst, guard, vel.T, force)
    assert not report.passed
    assert report.notes == ["force command max|eta_af| = 500 exceeds f_max = 50"]
    assert check_force_solution(inst, guard, vel.T, force, f_max=500.0).passed


def _two_contact_squeeze():
    """README's raw example with a second contact: one force-controlled direction."""
    N = np.array([[1.0, -1.0], [1.0, 0.0]])
    inst = make_instance(1, N, np.array([[1.0, 0.0]]), [0.0], [-2.45, 0.0])
    Lam = np.array([[-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
    guard = GuardConditions(Lam, np.array([-0.5, -0.5]), np.zeros((0, 4)), np.zeros(0))
    step = synthesize(inst, guard)
    return inst, guard, step.velocity, step.force


@pytest.mark.parametrize(
    "n_af, effort_pass",
    [(2, "skipped"), (2, "optimal"), (1, "fell_back")],
    ids=["skipped", "optimal", "fell_back"],
)
def test_force_check_fails_on_an_effort_pass_the_solver_cannot_report(n_af, effort_pass):
    # Default step 4 has n_af = 2, where the least-effort pass is never
    # skipped; the squeeze has n_af = 1, where the closed form never falls back.
    inst, guard, vel, force = _solved_tilting_step(step=3) if n_af == 2 else _two_contact_squeeze()
    assert force.eta_af.size == n_af and force.effort_pass != effort_pass
    assert check_force_solution(inst, guard, vel.T, force).passed
    report = check_force_solution(inst, guard, vel.T, replace(force, effort_pass=effort_pass))
    assert not report.passed
    assert len(report.notes) == 1 and report.notes[0].startswith(f"effort_pass {effort_pass!r}")


def test_step_verification_aggregates_both_checks(monkeypatch):
    inst, guard, _, _ = _solved_tilting_step()
    good, _ = cli._solve_step(inst, guard, DEFAULT_F_MAX, verify=True)
    assert good["verification"]["passed"] is True
    solve = solve_force

    def unactuated_push(*args):
        force = solve(*args)
        eta = force.eta.copy()
        eta[0] += 1.0
        return replace(force, eta=eta)

    monkeypatch.setattr("hybridservo.solve_force", unactuated_push)
    bad, _ = cli._solve_step(inst, guard, DEFAULT_F_MAX, verify=True)
    assert bad["verification"]["velocity"]["passed"] is True
    assert bad["verification"]["force"]["passed"] is False
    assert bad["verification"]["passed"] is False


def test_min_norm_projection_matches_unit_row_svd():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((3, 7))
    rhs = rng.standard_normal(3)
    assert np.allclose(np.linalg.pinv(M) @ rhs, _unit_row_svd(M, rhs).v, atol=1e-10)


# The velocity check's unit-row SVD: rank, null space and minimum-norm solution.


def test_unit_row_svd_matches_pinv():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((2, 5))
    b = rng.standard_normal(2)
    x = _unit_row_svd(A, b).v
    assert np.allclose(A @ x, b, atol=1e-10)
    assert np.allclose(x, np.linalg.pinv(A) @ b, atol=1e-10)


def test_unit_row_svd_is_minimal():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((2, 5))
    b = rng.standard_normal(2)
    x = _unit_row_svd(A, b).v
    null = sla.factor(A).null_space()
    for _ in range(10):
        other = x + null @ rng.standard_normal(null.shape[1])
        assert np.linalg.norm(x) <= np.linalg.norm(other) + 1e-12


def test_unit_row_svd_flags_inconsistent_system():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([0.0, 1.0])
    assert _unit_row_svd(A, b).v is None


def test_unit_row_svd_no_rows_gives_zero():
    x = _unit_row_svd(np.zeros((0, 3)), np.zeros(0)).v
    assert np.allclose(x, np.zeros(3))


def test_verifier_imports_no_solver_code():
    # Data types, errors and constants only: no function or module of the
    # package, so no check can share code with the path it checks.
    tree = ast.parse(Path(verifier.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "hybridservo" for a in node.names)
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            name = "hybridservo" + (f".{node.module}" if node.module else "")
        elif node.module.split(".")[0] == "hybridservo":
            name = node.module
        else:
            continue
        module = importlib.import_module(name)
        for alias in node.names:
            value = getattr(module, alias.name)
            allowed = isinstance(value, (int, float, str)) or (
                isinstance(value, type)
                and (dataclasses.is_dataclass(value) or issubclass(value, Exception))
            )
            assert allowed, f"verifier imports {alias.name} from {name}"


def test_verifier_rank_follows_the_solver_rank_rule():
    rng = np.random.default_rng(2024)
    instances = [random_feasible_instance(rng) for _ in range(200)]  # criterion 4's set
    scenario = TiltingScenario()
    instances += [build_instance(st, scenario)[0] for st in rollout_states(scenario)]
    for inst in instances:
        sol = solve_velocity(inst)
        report = check_velocity_solution(inst, sol)
        assert report.rank_ng == sla.factor(np.vstack([inst.N, inst.G])).rank
        assert report.rank_nc == sla.factor(np.vstack([inst.N, sol.C])).rank


def test_grid_oracle_brackets_lp_margin():
    inst, guard, vel, force = _solved_tilting_step(step=3)
    grid_margin, grid_eta = brute_force_force_oracle(
        inst, guard, vel.T, vel.n_av, grid_resolution=0.5
    )
    # The grid is a subset of the LP feasible set, so it can only do worse;
    # a coarse grid should still land within a small gap of the optimum.
    assert force.objective_margin >= grid_margin - 1e-6
    assert grid_margin >= force.objective_margin - 0.5
    assert np.all(np.abs(grid_eta) <= 50.0)


def test_grid_oracle_sees_frictionless_infeasibility():
    sc = TiltingScenario(mu_table=0.0)
    st = rollout_states(sc)[0]
    inst, guard = build_instance(st, sc)
    vel = solve_velocity(inst)
    grid_margin, _ = brute_force_force_oracle(inst, guard, vel.T, vel.n_av)
    assert grid_margin < 0.0
    with pytest.raises(InfeasibleLP) as exc_info:
        solve_force(inst, guard, vel.T, vel.n_av)
    assert exc_info.value.margin < 0.0
    assert exc_info.value.margin >= grid_margin - 1e-6


def test_grid_oracle_rejects_wide_command_spaces():
    N = np.eye(4)
    inst = make_instance(0, N, np.zeros((0, 4)), [], np.zeros(4))
    guard = GuardConditions.empty(4, 4)
    with pytest.raises(ValueError):
        brute_force_force_oracle(inst, guard, np.eye(4), n_av=0)
