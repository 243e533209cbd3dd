from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from force_lp_oracle import exact_lexicographic, full_kkt_least_effort, full_kkt_margin, slack_tableau
from helpers import empty_guard, random_force_assembly, random_guarded_assembly
from hybridservo import block_tilting as tilting
from hybridservo import cli, force_solver, synthesize
from hybridservo import subspace_linalg as sla
from hybridservo.errors import InfeasibleLP, NumericOverflow, SingularSystem, SingularTransform
from hybridservo.force_solver import assemble_newton, solve_force
from hybridservo.model import GuardConditions, make_instance
from hybridservo.velocity_solver import solve_velocity
from hybridservo.verifier import check_force_solution
from kkt_reference import build_kkt, force_equalities, solve_kkt


def _supported_object():
    """1-D object resting on a velocity-controlled hand.

    Coordinates [x_o; x_h], sticking contact x_o = x_h, gravity -2.45 N on
    the object.  Equilibrium by hand: lambda = 2.45, eta_u = 0, hand force
    +2.45 (carries the object).
    """
    N = np.array([[1.0, -1.0]])
    G = np.array([[1.0, 0.0]])
    inst = make_instance(1, N, G, [0.1], [-2.45, 0.0])
    Lam = np.array([[-1.0, 0.0, 0.0]])
    guard = GuardConditions(Lam, np.array([-0.5]), np.zeros((0, 3)), np.zeros(0))
    return inst, guard


def _wall_press(b_rows):
    """Hand pressing a wall along one axis; lambda = -eta_af.

    Guard rows are (coefficient on lambda, bound) pairs acting on the
    stacked [lambda; f] vector.
    """
    N = np.array([[1.0]])
    inst = make_instance(0, N, np.zeros((0, 1)), [], [0.0])
    rows = np.array([[c, 0.0] for c, _ in b_rows])
    b = np.array([float(b) for _, b in b_rows])
    guard = GuardConditions(rows, b, np.zeros((0, 2)), np.zeros(0))
    return inst, guard


def test_assemble_newton_structure():
    # Rows over [lambda; eta_av] (eta_u = 0 has no column and no pin row):
    # the balance T N^T lambda + eta = -T F, then Gamma with Gamma_f T^T.
    inst, guard = _supported_object()
    guard = GuardConditions(guard.Lambda, guard.b_Lambda, np.array([[0.5, 0.0, 2.0]]), np.ones(1))
    M_free, B = assemble_newton(inst, guard, np.diag([1.0, -1.0]), n_av=1)
    assert np.array_equal(M_free, [[1.0, 0.0], [1.0, 1.0], [0.5, -2.0]])
    assert B.shape == (3, 1)
    assert np.array_equal(B[:, 0], [2.45, 0.0, 1.0])


def test_assemble_newton_command_columns():
    # n_af = 1 and a Gamma row: B = [rhs | -M_eta_f] with rhs = [-T F;
    # b_Gamma], -I in the command's rows n_u .. n_u + n_af of the balance,
    # and -Gamma_f T^T's command columns in the Gamma rows.
    N = np.array([[1.0, -1.0, 0.5]])
    inst = make_instance(1, N, np.array([[1.0, 0.0, 0.0]]), [0.1], [-2.45, 0.3, 0.7])
    Gamma, b_Gamma = np.array([[0.5, 0.0, 2.0, 3.0]]), np.array([1.5])
    guard = GuardConditions(np.zeros((0, 4)), np.zeros(0), Gamma, b_Gamma)
    c, s = 0.6, 0.8
    T = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    M_free, B = assemble_newton(inst, guard, T, n_av=1)
    n_u, n_af = 1, 1
    assert M_free.shape == (4, 2) and B.shape == (4, 1 + n_af)
    assert np.array_equal(B[:, 0], np.concatenate([-T @ inst.F, b_Gamma]))
    assert np.array_equal(B[:3, 1:], [[0.0], [-1.0], [0.0]])
    gamma_f = Gamma[:, 1:] @ T.T
    assert np.allclose(B[3:, 1:], -gamma_f[:, n_u : n_u + n_af], rtol=0, atol=1e-15)
    assert B[3, 1] == pytest.approx(1.2, abs=1e-15)
    # The free columns [lambda; eta_av] of the same rows.
    assert np.allclose(M_free[:3], np.column_stack([T @ N.T, [0.0, 0.0, 1.0]]), rtol=0, atol=1e-15)
    assert np.allclose(M_free[3], [0.5, gamma_f[0, 2]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_av", [-1, 2])
def test_assemble_newton_rejects_n_av_outside_the_actuated_range(n_av):
    inst, guard = _supported_object()
    with pytest.raises(ValueError, match=rf"n_av = {n_av} must lie in \[0, n_a\] = \[0, 1\]"):
        assemble_newton(inst, guard, np.eye(2), n_av)
    with pytest.raises(ValueError, match="n_av"):
        solve_force(inst, guard, np.eye(2), n_av)


def test_assemble_newton_rejects_singular_transform():
    inst, guard = _supported_object()
    with pytest.raises(SingularTransform):
        assemble_newton(inst, guard, np.diag([1.0, 1e-11]), n_av=1)


@pytest.mark.parametrize(
    "T",
    [
        np.diag([1.0, 2.0]),
        # Orthonormal, but it mixes the unactuated and actuated coordinates.
        np.array([[0.6, -0.8], [0.8, 0.6]]),
    ],
    ids=["scaled", "coupled"],
)
def test_solve_force_rejects_a_transform_that_is_not_an_action_frame(T):
    inst, guard = _supported_object()
    with pytest.raises(SingularTransform):
        solve_force(inst, guard, T, n_av=1)


def _action_frame(error=0.0, entry=None):
    """diag(I_6, R_a) with max|R_a R_a^T - I| = error, one entry optionally set."""
    Q = np.linalg.qr(np.random.default_rng(6).standard_normal((3, 3)))[0]
    T = np.eye(9)
    T[6:, 6:] = np.diag([np.sqrt(1.0 + error), 1.0, 1.0]) @ Q
    if entry is not None:
        T[entry[0]] = entry[1]
    return T


@pytest.mark.parametrize(
    "T, error",
    [
        (_action_frame(), None),
        (_action_frame(5e-11), None),
        (_action_frame(2e-10), SingularTransform),
        (_action_frame(entry=((0, 0), 1.0 + 2.0**-52)), SingularTransform),
        (_action_frame(entry=((0, 1), 1e-300)), SingularTransform),
        (_action_frame(entry=((7, 2), 1e-300)), SingularTransform),
        (_action_frame(entry=((2, 7), 1e-300)), SingularTransform),
        (_action_frame(entry=((4, 4), np.nan)), ValueError),
        (_action_frame(entry=((7, 8), np.inf)), ValueError),
        (np.eye(8), ValueError),
    ],
    ids=[
        "exact", "off-5e-11", "off-2e-10", "identity-ulp", "identity-block-1e-300",
        "lower-block-1e-300", "upper-block-1e-300", "nan", "inf", "shape",
    ],
)
def test_frame_check_accepts_and_rejects_exactly_these_frames(T, error):
    if error is None:
        assert np.array_equal(force_solver._check_transform(T, 9, 6), T)
    else:
        with pytest.raises(error):
            force_solver._check_transform(T, 9, 6)


def test_unactuated_force_is_exactly_zero():
    rng = np.random.default_rng(3)
    cases = [random_force_assembly(rng) for _ in range(50)]
    for inst, guard, T, n_av in [*cases, *_default_plan_cases()]:
        assert np.all(solve_force(inst, guard, T, n_av).eta[: inst.n_u] == 0.0)


def test_build_kkt_blocks():
    rng = np.random.default_rng(0)
    inst, guard, T, n_av = random_force_assembly(rng)
    M_free, M_eta_f, rhs = force_equalities(inst, guard, T, n_av)
    r, m = M_free.shape
    K, rhs_const, rhs_map = build_kkt(M_free, M_eta_f, rhs)
    assert K.shape == (m + r, m + r)
    assert np.allclose(K[:m, :m], 2.0 * np.eye(m))
    assert np.allclose(K[:m, m:], M_free.T)
    assert np.allclose(K[m:, :m], M_free)
    assert np.allclose(K[m:, m:], 0.0)
    assert np.allclose(rhs_const, np.concatenate([np.zeros(m), rhs]))
    assert np.allclose(rhs_map[m:], M_eta_f)


def test_kkt_reference_matches_pinv_projection():
    rng = np.random.default_rng(1)
    inst, guard, T, n_av = random_force_assembly(rng)
    M_free, M_eta_f, rhs = force_equalities(inst, guard, T, n_av)
    eta_af = rng.uniform(-10.0, 10.0, M_eta_f.shape[1])
    via_kkt = solve_kkt(M_free, M_eta_f, rhs, eta_af)
    via_pinv = np.linalg.pinv(M_free) @ (rhs - M_eta_f @ eta_af)
    assert np.max(np.abs(via_kkt - via_pinv)) < 1e-9


def test_supported_object_equilibrium():
    inst, guard = _supported_object()
    step = synthesize(inst, guard)
    vel, sol = step.velocity, step.force
    assert sol.lam[0] == pytest.approx(2.45, abs=1e-8)
    assert abs(sol.eta[0]) < 1e-9
    # Original-frame hand force carries the object weight.
    f = np.linalg.solve(vel.T, sol.eta)
    assert f[1] == pytest.approx(2.45, abs=1e-8)
    assert sol.objective_margin == pytest.approx(2.45 - 0.5, abs=1e-7)
    assert np.allclose(sol.guard_margins, [1.95], atol=1e-7)


def test_wall_press_margin_at_force_bound():
    inst, guard = _wall_press([(-1.0, -1.0)])
    sol = solve_force(inst, guard, np.eye(1), n_av=0)
    assert sol.eta_af[0] == pytest.approx(-50.0, abs=1e-6)
    assert sol.lam[0] == pytest.approx(50.0, abs=1e-6)
    assert sol.objective_margin == pytest.approx(49.0, abs=1e-6)


def test_wall_press_margin_balances_two_rows():
    inst, guard = _wall_press([(-1.0, -1.0), (1.0, 40.0)])
    sol = solve_force(inst, guard, np.eye(1), n_av=0)
    assert sol.lam[0] == pytest.approx(20.5, abs=1e-6)
    assert sol.objective_margin == pytest.approx(19.5, abs=1e-6)


def test_wall_press_infeasible_guards():
    inst, guard = _wall_press([(-1.0, -1.0), (1.0, -1.0)])
    with pytest.raises(InfeasibleLP) as exc_info:
        solve_force(inst, guard, np.eye(1), n_av=0)
    assert exc_info.value.margin == pytest.approx(-1.0, abs=1e-6)


def test_no_guard_rows_margin_is_box_slack():
    N = np.array([[1.0]])
    inst = make_instance(0, N, np.zeros((0, 1)), [], [0.0])
    guard = empty_guard(1, 1)
    sol = solve_force(inst, guard, np.eye(1), n_av=0)
    assert sol.objective_margin == pytest.approx(50.0, abs=1e-6)
    assert np.allclose(sol.eta_af, 0.0, atol=1e-6)
    assert sol.guard_margins.size == 0


def test_degenerate_margin_takes_least_effort_command():
    # Pinned 2-D contact; the friction rows are so slack that the margin is
    # set by the minimum-normal row alone, leaving the tangential command
    # free.  The refinement must zero the tangential force.
    N = np.eye(2)
    inst = make_instance(0, N, np.zeros((0, 2)), [], [0.0, 0.0])
    Lam = np.array(
        [
            [1.0, -10.0, 0.0, 0.0],
            [-1.0, -10.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )
    b_Lam = np.array([0.0, 0.0, -1.0])
    guard = GuardConditions(Lam, b_Lam, np.zeros((0, 4)), np.zeros(0))
    sol = solve_force(inst, guard, np.eye(2), n_av=0)
    assert sol.objective_margin == pytest.approx(49.0, abs=1e-6)
    assert sol.eta_af[1] == pytest.approx(-50.0, abs=1e-6)
    assert sol.eta_af[0] == pytest.approx(0.0, abs=1e-6)


def test_rank_deficient_equalities_raise():
    # With no velocity-controlled axis the hand force is pinned by the
    # contact balance, so a free force command is over-determined.
    N = np.array([[1.0, -1.0]])
    G = np.array([[2.0, -2.0]])
    inst = make_instance(1, N, G, [0.0], [-2.45, 0.0])
    guard = empty_guard(1, 2)
    with pytest.raises(SingularSystem):
        solve_force(inst, guard, np.eye(2), n_av=0)


def test_a_full_row_rank_force_system_near_the_rank_cutoff_solves():
    # One guarded assembly with N, and the lambda columns of Lambda and Gamma,
    # scaled by c: lambda grows as 1 / c and the physics stays.  M_free keeps
    # full row rank with condition numbers from 6.2e7 to 9.5e7, so the
    # equalities are consistent for every command, and each scale solves and
    # passes the verifier.  A residual test against RESIDUAL_TOL (1 + ||b||)
    # rejected 6 of these 40 scales with SingularSystem on round-off alone.
    inst, guard, T, n_av = random_guarded_assembly(np.random.default_rng(21), 4)
    scale = np.ones(guard.Lambda.shape[1])
    for c in np.geomspace(1.1e-8, 1.7e-8, 40):
        scale[: inst.n_phi] = c
        scaled = dataclasses.replace(inst, N=c * inst.N)
        guard_c = dataclasses.replace(guard, Lambda=guard.Lambda * scale, Gamma=guard.Gamma * scale)
        f = sla.factor(assemble_newton(scaled, guard_c, T, n_av)[0])
        assert f.rank == f.matrix.shape[0] and f.s[0] >= 6e7 * f.s[-1]
        sol = solve_force(scaled, guard_c, T, n_av)
        assert check_force_solution(scaled, guard_c, T, sol).passed


@pytest.mark.parametrize(
    "params, error",
    [
        ({"gravity_object": [1e308, 1e308, -1e308]}, NumericOverflow),
        ({"gravity_hand": [1e308] * 3}, NumericOverflow),
        ({"mu_hand": 1e308, "mu_table": 1e308}, NumericOverflow),
    ],
    ids=["gravity_object", "gravity_hand", "friction"],
)
def test_forces_that_overflow_raise_when_called_directly(params, error):
    # Without synthesize's overflow guard the margin map holds inf - inf,
    # which would make the LP margin nan.  M_free has full row rank, so the
    # free forces are finite and the margin map's check names the overflow.
    scenario = tilting.TiltingScenario(**params)
    instance, guard = tilting.build_instance(tilting.rollout_states(scenario)[0], scenario)
    vel = solve_velocity(instance)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error) as exc_info:
        solve_force(instance, guard, vel.T, vel.n_av)
    if error is NumericOverflow:
        assert exc_info.value.exit_code == 4
        assert str(exc_info.value).startswith("force stage: overflow")


@pytest.mark.parametrize(
    "g_scale, b_scale", [(1e300, 1e300), (1e200, 1.0)], ids=["goal_and_value", "goal_rows"]
)
def test_goals_that_overflow_raise_when_called_directly(g_scale, b_scale):
    # ||G||_F overflows; ranked against an inf scale G NullN would have rank
    # 0, and the goal would read as conflicting with the constraints.
    scenario = tilting.TiltingScenario()
    instance, guard = tilting.build_instance(tilting.rollout_states(scenario)[2], scenario)
    instance = dataclasses.replace(instance, G=g_scale * instance.G, b_G=b_scale * instance.b_G)
    with np.errstate(over="ignore"), pytest.raises(NumericOverflow) as exc_info:
        solve_velocity(instance)
    assert exc_info.value.exit_code == 4
    assert str(exc_info.value).startswith("velocity stage: overflow")
    with pytest.raises(NumericOverflow):
        synthesize(instance, guard)


def test_config_f_max_changes_box():
    inst, guard = _wall_press([(-1.0, -1.0)])
    sol = solve_force(inst, guard, np.eye(1), n_av=0, f_max=10.0)
    assert sol.lam[0] == pytest.approx(10.0, abs=1e-6)
    assert sol.objective_margin == pytest.approx(9.0, abs=1e-6)


@pytest.mark.parametrize("f_max", [0.0, -1.0, np.nan, np.inf])
def test_f_max_must_be_finite_and_positive(f_max):
    # The force stage owns the rule; synthesize reaches it through the stage.
    inst, guard = _wall_press([(-1.0, -1.0)])
    message = f"f_max {f_max} must be finite and > 0"
    with pytest.raises(ValueError, match=message):
        solve_force(inst, guard, np.eye(1), n_av=0, f_max=f_max)
    with pytest.raises(ValueError, match=message):
        synthesize(inst, guard, f_max=f_max)


def test_synthesize_takes_f_max_by_keyword_only():
    # A third positional argument, the old rank tolerance, must not run as f_max.
    inst, guard = _wall_press([(-1.0, -1.0)])
    with pytest.raises(TypeError):
        synthesize(inst, guard, 1e-8)
    assert synthesize(inst, guard, f_max=10.0).force.objective_margin == pytest.approx(9.0)


def test_force_balance_in_small_units_solves(tmp_path, capsys):
    # M_free = [[1e-7]] keeps its one singular value, so N in small units
    # solves.  The KKT system's condition (4e14 here) would read N's units
    # through its 2I block, so it decides nothing.
    inst = make_instance(0, [[1e-7]], np.zeros((0, 1)), [], [0.0])
    force = solve_force(inst, empty_guard(1, 1), np.eye(1), n_av=0)
    assert force.objective_margin == 50.0 and force.eta_af.tolist() == [0.0]
    # Through the CLI the goal adds no velocity command, so the force stage
    # solves the step on its own.
    raw = {"n_u": 0, "N": [[1e-7]], "G": [[1.0]], "b_G": [0.0], "F": [0.0]}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"schema": 1, "scenario_type": "raw_instance", "params": raw}))
    out = tmp_path / "out.json"
    assert cli.main(["--scenario", str(scenario), "--out", str(out), "--verify"]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["all_verified"] is True


def _effort(sol, T, n_u):
    """l1 norm of the actuated force in the original coordinates."""
    return float(np.abs(np.linalg.solve(T, sol.eta)[n_u:]).sum())


def _outcome(solve):
    """("solved", result) or ("infeasible", reported margin) of one solve."""
    try:
        return "solved", solve()
    except InfeasibleLP as exc:
        return "infeasible", exc.margin


def test_reduced_lp_matches_full_kkt_oracle_on_random_assemblies():
    # Criterion-5 assemblies with guard rows around a known command; every
    # n_af from 0 to 3, with and without a Gamma row, feasible and not.
    rng = np.random.default_rng(2024)
    covered = set()
    for i in range(300):
        n_rows = 0 if i % 7 == 0 else int(rng.integers(2, 9))
        inst, guard, T, n_av = random_guarded_assembly(rng, n_rows, infeasible=i % 3 == 2)
        got = _outcome(lambda: solve_force(inst, guard, T, n_av))
        want = _outcome(lambda: full_kkt_margin(inst, guard, T, n_av))
        assert got[0] == want[0]
        margin = got[1].objective_margin if got[0] == "solved" else got[1]
        assert margin == pytest.approx(want[1], abs=1e-8)
        if got[0] == "solved":
            least = full_kkt_least_effort(inst, guard, T, n_av)
            assert _effort(got[1], T, inst.n_u) <= least + 1e-7
        covered.add((inst.n_a - n_av, guard.n_eq, got[0]))
    assert covered == {
        (n_af, n_eq, kind)
        for n_af in range(4)
        for n_eq in (0, 1)
        for kind in ("solved", "infeasible")
    }


def test_reduced_lp_matches_full_kkt_oracle_on_tilting_plan():
    scenario = tilting.TiltingScenario()
    for state in tilting.rollout_states(scenario):
        instance, guard = tilting.build_instance(state, scenario)
        step = synthesize(instance, guard)
        vel, sol = step.velocity, step.force
        want = full_kkt_margin(instance, guard, vel.T, vel.n_av)
        assert sol.objective_margin == pytest.approx(want, abs=1e-8)
        least = full_kkt_least_effort(instance, guard, vel.T, vel.n_av)
        assert _effort(sol, vel.T, instance.n_u) <= least + 1e-7


def test_no_force_direction_solves_without_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved with n_af = 0 or without guard rows")

    monkeypatch.setattr(force_solver, "_simplex", no_lp)
    inst, guard = _supported_object()
    sol = solve_force(inst, guard, np.eye(2), n_av=1)
    assert sol.eta_af.size == 0
    assert sol.objective_margin == pytest.approx(1.95, abs=1e-9)
    assert sol.effort_pass == "skipped"
    # Without guard rows the margin is the box bound.
    free = solve_force(inst, empty_guard(1, 2), np.eye(2), n_av=1)
    assert free.objective_margin == 50.0
    # A guard the forced equilibrium violates: lambda = 2.45 < 3.
    strict = GuardConditions(guard.Lambda, np.array([-3.0]), guard.Gamma, guard.b_Gamma)
    with pytest.raises(InfeasibleLP) as exc_info:
        solve_force(inst, strict, np.eye(2), n_av=1)
    assert exc_info.value.margin == pytest.approx(-0.55, abs=1e-9)
    # Force-controlled directions but no guard rows: the box's own margin
    # has the unique optimum eta_af = 0, s = f_max, exactly and without an LP.
    rng = np.random.default_rng(5)
    n_afs = set()
    for f_max in (0.5, 50.0):
        for _ in range(20):
            inst, guard, T, n_av = random_force_assembly(rng)
            sol = solve_force(inst, guard, T, n_av, f_max=f_max)
            n_afs.add(inst.n_a - n_av)
            assert np.array_equal(sol.eta_af, np.zeros(inst.n_a - n_av))
            assert sol.objective_margin == f_max
            assert sol.effort_pass == ("unique" if sol.eta_af.size else "skipped")
    assert n_afs == {0, 1, 2, 3}


def _degenerate_margin_instance():
    N = np.eye(2)
    inst = make_instance(0, N, np.zeros((0, 2)), [], [0.0, 0.0])
    Lam = np.array([[1.0, -10.0, 0.0, 0.0], [-1.0, -10.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
    guard = GuardConditions(Lam, np.array([0.0, 0.0, -1.0]), np.zeros((0, 4)), np.zeros(0))
    return inst, guard


def _square_face_instance():
    # n_af = 3 and the one guard margin -f_3: it is best at f_3 = -f_max, and
    # f_1, f_2 span a square face, where the least effort is f_1 = f_2 = 0.
    inst = make_instance(0, np.eye(3), np.zeros((0, 3)), [], [0.0, 0.0, 0.0])
    Lam = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
    guard = GuardConditions(Lam, np.zeros(1), np.zeros((0, 6)), np.zeros(0))
    return inst, guard, np.eye(3), 0


def test_effort_pass_reports_refinement_and_fallback(monkeypatch):
    inst, guard = _degenerate_margin_instance()
    assert solve_force(inst, guard, np.eye(2), n_av=0).effort_pass == "refined"
    sol = solve_force(*_square_face_instance())
    assert sol.effort_pass == "refined"
    assert np.array_equal(sol.eta_af, [0.0, 0.0, -50.0])

    # A least-effort LP that does not succeed keeps the phase-1 vertex.
    simplex, max_margin = force_solver._simplex, force_solver._max_margin
    calls, vertices = [], []

    def failing_effort_pass(*args):
        calls.append(args)
        if len(calls) == 2:
            raise SingularSystem("force LP failed: injected")
        return simplex(*args)

    def recorded_max_margin(*args):
        vertices.append(max_margin(*args))
        return vertices[-1]

    monkeypatch.setattr(force_solver, "_simplex", failing_effort_pass)
    monkeypatch.setattr(force_solver, "_max_margin", recorded_max_margin)
    sol = solve_force(*_square_face_instance())
    assert len(calls) == 2
    assert sol.effort_pass == "fell_back"
    assert sol.objective_margin == pytest.approx(50.0, abs=1e-6)
    assert np.array_equal(sol.eta_af, vertices[0][0])


def _default_plan_cases():
    """(instance, guard, T, n_av) of every step of the default tilting plan."""
    scenario = tilting.TiltingScenario()
    for state in tilting.rollout_states(scenario):
        instance, guard = tilting.build_instance(state, scenario)
        vel = solve_velocity(instance)
        yield instance, guard, vel.T, vel.n_av


def test_unique_margin_optimum_solves_one_lp(monkeypatch):
    # Phase 2 solves an LP only when two or more nonbasic columns have a zero
    # phase-1 reduced cost.  With none, the phase-1 vertex is the only
    # margin-optimal command; with one, the face is an edge and phase 2 takes
    # its least effort in closed form, as on default steps 3-8.
    simplex, calls = force_solver._simplex, []

    def counted(*args):
        calls.append(args)
        return simplex(*args)

    monkeypatch.setattr(force_solver, "_simplex", counted)
    passes = []
    for case in _default_plan_cases():
        calls.clear()
        sol = solve_force(*case)
        assert len(calls) == 1
        passes.append(sol.effort_pass)
    assert passes.count("unique") == 9
    assert passes.count("refined") == 6
    calls.clear()
    assert solve_force(*_square_face_instance()).effort_pass == "refined"
    assert len(calls) == 2


def test_least_effort_pass_holds_the_margin_on_a_degenerate_face():
    # Phase 2 moves only along the margin-optimal face, so the refined
    # command keeps the phase-1 margin up to round-off.
    inst, guard = _degenerate_margin_instance()
    refined = 0
    for case in [(inst, guard, np.eye(2), 0), *_default_plan_cases()]:
        sol = solve_force(*case)
        if sol.effort_pass == "refined":
            refined += 1
            s = sol.objective_margin
            assert np.all(sol.guard_margins >= s - 1e-12 * max(1.0, abs(s)))
    assert refined == 7


def test_least_effort_starts_feasible_without_a_pivot(monkeypatch):
    # Phase 2 appends one row A1_j (x+ - x-) - p_j + q_j = -a0_j per
    # actuated coordinate and negates it where a0_j + A1_j x* >= 0, so p_j
    # there and q_j elsewhere starts basic at |a0_j + A1_j x*|: the simplex
    # gets a feasible tableau, and no pivot comes before it.
    pivot, simplex, least_effort = force_solver._pivot, force_solver._simplex, force_solver._least_effort
    events, values = [], []

    def recorded_pivot(*args):
        events.append(("pivot",))
        return pivot(*args)

    def recorded_simplex(tab, basis, *rest):
        events.append(("simplex", tab.copy(), basis.copy()))
        return simplex(tab, basis, *rest)

    def checked_least_effort(tab, basis, a0, A1, x_star):
        events.clear()
        command, effort_pass = least_effort(tab, basis, a0, A1, x_star)
        if effort_pass == "unique":
            return command, effort_pass
        assert effort_pass == "refined"
        assert events[0][0] == "simplex"
        _, start, start_basis = events[0]
        (m,), n_cols, n_act = basis.shape, tab.shape[1] - 1, A1.shape[0]
        assert start.shape[0] == m + n_act + 1
        assert np.all(start[:-1, -1] >= 0.0)
        v = a0 + A1 @ x_star
        assert np.array_equal(start_basis[m:], n_cols + np.arange(n_act) + n_act * (v < 0.0))
        values.append(v)
        return command, effort_pass

    monkeypatch.setattr(force_solver, "_pivot", recorded_pivot)
    monkeypatch.setattr(force_solver, "_simplex", recorded_simplex)
    monkeypatch.setattr(force_solver, "_least_effort", checked_least_effort)
    for f_max in (0.5, 50.0):
        solve_force(*_square_face_instance(), f_max=f_max)
    assert len(values) == 2
    # The square face's margin LP by hand, with a0 chosen so that its vertex
    # x* = [0, 0, -50] (the box centre in the two free coordinates) leaves
    # one actuated force exactly 0.
    G, h = np.array([[0.0, 0.0, 1.0]]), np.zeros(1)
    x_star, _, tab, basis = force_solver._max_margin(G, h, 50.0)
    assert np.array_equal(x_star, [0.0, 0.0, -50.0])
    A1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    checked_least_effort(tab, basis, np.array([0.0, -50.0, 0.0]), A1, x_star)
    assert np.array_equal(values[-1], [0.0, -50.0, 50.0])


def test_simplex_terminates_on_beales_cycling_example():
    # Beale (1955), Bertsimas & Tsitsiklis Example 3.6: with the largest
    # reduced cost entering, the pivots cycle through degenerate bases at
    # the origin forever.  Bland's rule reaches the optimum -5/4 at
    # z = (1, 0, 1, 0) within a handful of pivots.
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 20.0, -0.5, 6.0])
    z = force_solver._simplex(*slack_tableau(A, b, c))
    assert c @ z[:4] == pytest.approx(-1.25, abs=1e-12)
    assert np.allclose(z[:4], [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert np.all(A @ z[:4] <= b + 1e-12)


def test_simplex_switches_to_blands_rule_at_the_first_degenerate_pivot(monkeypatch):
    # Beale's LP behind a fifth variable z_4 <= 1 of cost -100.  The most
    # negative reduced cost enters first, z_4 (Bland's rule would take z_0),
    # with a step of 1; the next pivot is degenerate.  From that vertex the
    # most-negative rule alone repeats Beale's six-pivot cycle, so the
    # optimum -101.25 is reached only because Bland's rule takes over.
    A = np.array(
        [
            [0.25, -8.0, -1.0, 9.0, 0.0],
            [0.5, -12.0, -0.5, 3.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0, 1.0])
    c = np.array([-0.75, 20.0, -0.5, 6.0, -100.0])
    pivot, steps = force_solver._pivot, []

    def recorded(tab, basis, row, col):
        steps.append((col, tab[row, -1] / tab[row, col]))
        pivot(tab, basis, row, col)

    monkeypatch.setattr(force_solver, "_pivot", recorded)
    z = force_solver._simplex(*slack_tableau(A, b, c))
    assert steps[:2] == [(4, 1.0), (0, 0.0)]
    assert len(steps) == 7
    assert c @ z[:5] == pytest.approx(-101.25, abs=1e-12)
    assert np.allclose(z[:5], [1.0, 0.0, 1.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize(
    "gap, want_basis, want_rhs",
    [
        # (ratio_1 - step) * top = 2^-40 = 9.1e-13 <= TIE_TOL: all three rows
        # tie, and z_1, the lowest basic variable, leaves from row 1.  Rows 0
        # and 2 come out at -2^-41 and -2^-42; the clip puts both on 0.
        (2.0**-42, [3, 0, 2], [0.0, 1.0 + 2.0**-42, 0.0]),
        # 2^-39 = 1.8e-12 > TIE_TOL: row 1 drops out of the tie, so z_2
        # leaves from row 2, though row 0 has the same ratio.
        (2.0**-41, [3, 1, 0], [0.0, 2.0**-39, 1.0]),
    ],
)
def test_simplex_ratio_test_tie_rule(gap, want_basis, want_rhs):
    # z_0 enters (cost -1) on a tableau in canonical form for the basis
    # [z_3, z_1, z_2].  Its column is [2, 4, 1], so top = 4, and the ratios
    # are [1, 1 + gap, 1]; every number here is exact in binary.
    tab = np.array(
        [
            [2.0, 0.0, 0.0, 1.0, 2.0],
            [4.0, 1.0, 0.0, 0.0, 4.0 * (1.0 + gap)],
            [1.0, 0.0, 1.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    basis = np.array([3, 1, 2])
    z = force_solver._simplex(tab, basis)
    assert basis.tolist() == want_basis
    assert tab[:-1, -1].tolist() == want_rhs
    want_z = np.zeros(4)
    want_z[want_basis] = want_rhs
    assert z.tolist() == want_z.tolist()
    assert np.all(tab[-1, :-1] >= 0.0)


def test_simplex_iteration_cap_raises_singular_system(monkeypatch):
    # The margin LP here takes two pivots, so a cap of 1 fails only because
    # its forced first pivot counts against MAX_PIVOTS.
    inst, guard = _degenerate_margin_instance()
    for cap in (0, 1):
        monkeypatch.setattr(force_solver, "MAX_PIVOTS", cap)
        with pytest.raises(SingularSystem, match="force LP failed"):
            solve_force(inst, guard, np.eye(2), n_av=0)


def test_simplex_iteration_cap_exits_3_through_cli(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(force_solver, "MAX_PIVOTS", 0)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"schema": 1, "scenario_type": "block_tilting"}))
    out = tmp_path / "out.json"
    assert cli.main(["--scenario", str(scenario), "--out", str(out)]) == 3
    assert "step 1: force LP failed" in capsys.readouterr().err
    assert not out.exists()


# Entries are zero, multiples of 1/4 (so that ties and degenerate vertices
# are common) or between 1e-3 and 1e3 in magnitude.  HiGHS treats
# coefficients far below its feasibility tolerance as noise, so smaller ones
# would test the reference, not the simplex.
_ENTRIES = st.one_of(
    st.integers(-8, 8).map(lambda k: k / 4),
    st.just(0.0),
    st.floats(1e-3, 1e3),
    st.floats(-1e3, -1e-3),
)
# The reference runs HiGHS with tight tolerances so that its optimum is good
# to the 1e-9 the comparison asks for.
_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
_Z3 = [0.0, 0.0, 0.0]


@st.composite
def _boxed_lps(draw):
    """(G, h, a0, A1, f_max): a margin LP and its least-effort data."""
    n_af = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 8))
    n_act = draw(st.integers(1, 3))
    G = draw(hnp.arrays(float, (n_rows, n_af), elements=_ENTRIES))
    h = draw(hnp.arrays(float, n_rows, elements=_ENTRIES))
    a0 = draw(hnp.arrays(float, n_act, elements=_ENTRIES))
    A1 = draw(hnp.arrays(float, (n_act, n_af), elements=_ENTRIES))
    f_max = draw(st.sampled_from([0.5, 5.0, 50.0]))
    return G, h, a0, A1, f_max


# On the first two (entries near 870) the phase-1 vertex misses the margin by
# 2e-9 unless it is refined against the original rows.  On the third, HiGHS
# at the exact margin answers an effort 1.1e-9 below the exact
# 0.28720757802285374: its feasibility tolerance times the effort-vs-margin
# slope.
@example((
    np.array([[-874, -0.25], [0, -0.25], [0, -117], [0, -0.25], [0.25, -117], [0.25, 0]]),
    np.zeros(6), np.zeros(1), np.array([[1.0, -0.25]]), 50.0,
))
@example((
    np.array([[-870, -0.25], [0, -0.25], [0, -23], [0, -0.25], [0.25, -113], [0.25, 0]]),
    np.zeros(6), np.zeros(1), np.array([[1.0, -0.25]]), 50.0,
))
@example((
    np.array([[0, 0, 1.5], [1.953125e-3, -243, -487], [-997, 0, 0]]),
    np.array([0, 0, 61.0]), np.zeros(1), np.array([[-5.0, 0, 0]]), 5.0,
))
# The next six check round-off in the vertex: an unrefined tableau shifted
# by f_max broke a row with a large entry by 1.26e-7 and 2.24e-9 on two,
# and read an effort 1.0e-9 to 1.5e-9 off the exact one on four.
@example((
    np.array([_Z3, [-1.0, 0, 0], [0, -1e-3, 0], _Z3, [0, -1e3, 0]]),
    np.array([0.25, 0, 0, 0, 0]), np.zeros(1), np.zeros((1, 3)), 5.0,
))
@example((
    np.array([[0, 0], [0, 0], [0, 0], [-885, 1.0], [-1, 0], [0, 0.25]]),
    np.zeros(6), np.zeros(1), np.zeros((1, 2)), 50.0,
))
@example((
    np.array([[0.0], [0], [0], [0], [0.25], [0], [0], [-999]]),
    np.array([0, 0, 0, 0, 0, 0, 0, 0.25]), np.zeros(1), np.array([[275.0]]), 50.0,
))
@example((
    np.array([[0.0], [0], [1e-3]]),
    np.array([0, -129.0, -129]), np.zeros(1), np.array([[85.0]]), 0.5,
))
@example((
    np.array([_Z3, _Z3, [0, -1e-3, 0], _Z3, [0, 0, -656]]),
    np.zeros(5), np.zeros(2), np.array([[0, 0, 0], [0, 0.5, 0]]), 50.0,
))
@example((
    np.array([[0, 0], [0, 0.25], [0, 0], [0, 0], [0, 1.0], [-656, 0]]),
    np.array([1e-3, 0, 0.25, 0.25, 0, 0]), np.zeros(1), np.array([[0, 73.0]]), 50.0,
))
# The last six have met the absolute PIVOT_TOL and OPT_TOL tests on other
# pivots: a ratio-test skip of four entries of 3.6e-10 left a margin of
# 1.44e-9 against 0, four commands broke a zero row or read an effort up to
# 3.1e-4 off the exact 0.25 (seeds 23 and 27), and phase 1 stopped 4.65e-9
# short of the exact margin on a reduced cost within OPT_TOL.
@example((
    np.array([[0, 0, -1.953125e-3], [0, -0.25, 479], [-0.25, 708, 0], _Z3, _Z3, _Z3, _Z3]),
    np.array([0, 0, -0.25, 0, 0, 0, 0]), np.zeros(1), np.array([[1.0, 0, 0]]), 5.0,
))
@example((
    np.array([[0, -250, 0], _Z3, [1e-3, 0, 0], [0, 0.25, 100], [-250, 0, -0.25]]),
    np.zeros(5), np.array([0.25]), np.array([[0, 0, 0.25]]), 5.0,
))
@example((
    np.array([[0, -143, 0], _Z3, [1e-3, 0, 0], [0, 0.25, 306], [-143, 0, -0.25]]),
    np.zeros(5), np.array([0.25]), np.array([[0, 0, 0.25]]), 0.5,
))
@example((
    np.array([[-0.25, -662, 0], [119, 0, -0.25], _Z3, [0, 0, 155], _Z3, [0, 1.953125e-3, 0]]),
    np.zeros(6), np.array([0.25]), np.array([[0.25, 0, 0]]), 0.5,
))
@example((
    np.array([[-0.25, -657, 0], [40, 0, -0.25], _Z3, [0, 0, 465], _Z3, [0, 1.953125e-3, 0]]),
    np.zeros(6), np.array([0.25]), np.array([[0.25, 0, 0]]), 0.5,
))
@example((
    np.array([[-0.25, -657, 0], [40, 0, -0.25], _Z3, [0, 0, -929], _Z3, [0, 3.90625e-3, 0]]),
    np.array([0, 0, 0, 0, 0, -0.25]), np.zeros(1), np.zeros((1, 3)), 0.5,
))
# A margin-optimal face with three directions, so phase 2 runs the tableau
# LP: unrefined, its final tableau read an effort of 7.32e-9 against the
# exact 0; refined against its start, 7.4e-12.
@example((
    np.array([[-0.25, 0, 3], [0, 0, 0.25], _Z3]),
    np.zeros(3), np.zeros(2), np.array([[0, 201.0, 0], [808, 0.25, 2.001]]), 5.0,
))
@settings(max_examples=300, deadline=None)
@given(_boxed_lps())
def test_simplex_matches_linprog_on_random_boxed_lps(lp):
    G, h, a0, A1, f_max = lp
    n_rows, n_af = G.shape
    x, s, tab, basis = force_solver._max_margin(G, h, f_max)
    assert np.all(G @ x + s <= h + 1e-9 * (1.0 + np.abs(h)))
    assert np.all(np.abs(x) <= f_max * (1.0 + 1e-12))
    command, effort_pass = force_solver._least_effort(tab, basis, a0, A1, x)
    assert effort_pass != "fell_back"
    assert np.all(G @ command + s <= h + 1e-9 * (1.0 + np.abs(h)))
    assert np.all(np.abs(command) <= f_max * (1.0 + 1e-12))

    # The least effort at an exact margin moves with the margin, by a slope
    # that can pass 1e6, so the effort reference is exact, not HiGHS.
    s_exact, least = exact_lexicographic(G, h, a0, A1, f_max)
    assert s == pytest.approx(float(s_exact), rel=1e-9, abs=1e-9)
    effort = np.abs(a0 + A1 @ command).sum()
    assert effort == pytest.approx(float(least), rel=1e-9, abs=1e-9)
    margin_ref = linprog(
        np.append(np.zeros(n_af), -1.0),
        A_ub=np.hstack([G, np.ones((n_rows, 1))]),
        b_ub=h,
        bounds=[(-f_max, f_max)] * n_af + [(None, None)],
        method="highs",
        options=_HIGHS,
    )
    # At these tolerances HiGHS now and then stops short of an optimum on
    # rows that span six decades; such a draw has no reference to match.
    assume(margin_ref.status == 0)
    assert s == pytest.approx(-margin_ref.fun, rel=1e-9, abs=1e-9)


@st.composite
def _one_axis_lps(draw):
    """(G, h, a0, A1, f_max) as _boxed_lps draws them, with one command axis."""
    n_rows = draw(st.integers(1, 8))
    n_act = draw(st.integers(1, 3))
    G = draw(hnp.arrays(float, (n_rows, 1), elements=_ENTRIES))
    h = draw(hnp.arrays(float, n_rows, elements=_ENTRIES))
    a0 = draw(hnp.arrays(float, n_act, elements=_ENTRIES))
    A1 = draw(hnp.arrays(float, (n_act, 1), elements=_ENTRIES))
    f_max = draw(st.sampled_from([0.5, 5.0, 50.0]))
    return G, h, a0, A1, f_max


# The boxed-LP test's one-column examples.
@example((
    np.array([[0.0], [0], [0], [0], [0.25], [0], [0], [-999]]),
    np.array([0, 0, 0, 0, 0, 0, 0, 0.25]), np.zeros(1), np.array([[275.0]]), 50.0,
))
@example((
    np.array([[0.0], [0], [1e-3]]),
    np.array([0, -129.0, -129]), np.zeros(1), np.array([[85.0]]), 0.5,
))
@settings(max_examples=300, deadline=None)
@given(_one_axis_lps())
def test_one_axis_closed_form_matches_exact_lexicographic(lp):
    G, h, a0, A1, f_max = lp
    x, s, effort_pass = force_solver._one_axis(G[:, 0], h, a0, A1[:, 0], f_max)
    assert x.shape == (1,) and effort_pass in ("unique", "refined")
    assert np.all(np.abs(x) <= f_max * (1.0 + 1e-12))
    assert np.all(G @ x + s <= h + 1e-9 * (1.0 + np.abs(h)))
    s_exact, least = exact_lexicographic(G, h, a0, A1, f_max)
    assert s == pytest.approx(float(s_exact), rel=1e-9, abs=1e-9)
    effort = np.abs(a0 + A1 @ x).sum()
    assert effort == pytest.approx(float(least), rel=1e-9, abs=1e-9)


def test_one_force_direction_solves_without_the_simplex(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("a tableau was built with n_af = 1")

    monkeypatch.setattr(force_solver, "_max_margin", no_lp)
    monkeypatch.setattr(force_solver, "_simplex", no_lp)
    rng = np.random.default_rng(11)
    outcomes = []
    while len(outcomes) < 40:
        infeasible = len(outcomes) % 3 == 2
        inst, guard, T, n_av = random_guarded_assembly(rng, int(rng.integers(1, 9)), infeasible)
        if inst.n_a - n_av != 1:
            continue
        kind, result = _outcome(lambda: solve_force(inst, guard, T, n_av))
        if kind == "solved":
            assert result.effort_pass in ("unique", "refined")
            assert check_force_solution(inst, guard, T, result).passed
        outcomes.append(kind)
    assert set(outcomes) == {"solved", "infeasible"}


def test_one_axis_closed_form_does_not_overflow():
    # The rows' crossing lies at (1e10 - 0) / 2e-300 = 5e309, far outside the
    # box; the optimum is the box end x = 50, with margin 50e-300.  In the
    # second LP one flat row leaves the whole box optimal, and the first
    # actuated force's kink lies at -1e10 / 1e-300.
    cases = [
        (np.array([1e-300, -1e-300]), np.array([1e10, 0.0]), np.zeros(1), np.ones(1), 50.0),
        (np.zeros(1), np.ones(1), np.array([1e10, -3.0]), np.array([1e-300, 1.0]), 3.0),
    ]
    for g, h, a0, a1, x_want in cases:
        with np.errstate(all="raise"):
            x, s, _ = force_solver._one_axis(g, h, a0, a1, 50.0)
        s_exact, least = exact_lexicographic(g[:, None], h, a0, a1[:, None], 50.0)
        assert x[0] == x_want and s == float(s_exact)
        assert np.abs(a0 + a1 * x).sum() == pytest.approx(float(least), rel=1e-15)


def _edge_column(tab, basis, n_af):
    """The column of the one direction of the margin-optimal face, or None.

    The directions are the nonbasic columns with a zero phase-1 reduced
    cost, less the partner of each basic x+_j or x-_j, which moves no
    command; a nonbasic pair (x+_j, x-_j) is one two-sided direction, read
    off x+_j's column.  The ratio test over the rows whose basic variable is
    not an x+_j or x-_j must bound the edge each way it runs.
    """
    k = 2 * n_af
    on_face = ~(tab[-1, :-1] > force_solver.OPT_TOL)
    on_face[basis] = False
    split = basis[basis < k]
    on_face[(split + n_af) % k] = False
    (cols,) = on_face.nonzero()
    pair = cols.size == 2 and cols[0] < n_af and cols[1] == cols[0] + n_af
    if cols.size == 1 or pair:
        column = tab[:-1, cols[0]][basis >= k]
        ends = [column.max(initial=0.0)] + ([-column.min(initial=0.0)] if pair else [])
        if min(ends) > force_solver.PIVOT_TOL:
            return cols[0]
    return None


def _no_tableau(*args):
    raise AssertionError("the least-effort pass built a tableau on an edge")


@settings(max_examples=300, deadline=None)
@given(_boxed_lps())
def test_least_effort_on_a_one_dimensional_face_matches_exact_lexicographic(lp):
    # On an edge of the margin-optimal face phase 2 is a closed form: no
    # tableau, and the exact lexicographic optimum.
    G, h, a0, A1, f_max = lp
    x, s, tab, basis = force_solver._max_margin(G, h, f_max)
    assume(_edge_column(tab, basis, G.shape[1]) is not None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(force_solver, "_simplex", _no_tableau)
        command, effort_pass = force_solver._least_effort(tab, basis, a0, A1, x)
    assert effort_pass == "refined"
    assert np.all(G @ command + s <= h + 1e-9 * (1.0 + np.abs(h)))
    assert np.all(np.abs(command) <= f_max + 1e-9 * (1.0 + f_max))
    s_exact, least = exact_lexicographic(G, h, a0, A1, f_max)
    assert s == pytest.approx(float(s_exact), rel=1e-9, abs=1e-9)
    effort = np.abs(a0 + A1 @ command).sum()
    assert effort == pytest.approx(float(least), rel=1e-9, abs=1e-9)


def test_least_effort_on_a_one_dimensional_face_does_not_overflow(monkeypatch):
    # The face is the edge x2 = -50, -50 <= x1 <= 50 (margin 49), and the
    # first actuated force's kink lies at -1e10 / 1e-300 = -1e310, past the
    # float range; the second's is at x1 = 3.
    G, h = np.array([[-1.0, 10.0], [1.0, 10.0], [0.0, 1.0]]), np.array([0.0, 0.0, -1.0])
    a0, A1 = np.array([1e10, -3.0]), np.array([[1e-300, 0.0], [1.0, 0.0]])
    with np.errstate(all="raise"):
        x, s, tab, basis = force_solver._max_margin(G, h, 50.0)
        assert _edge_column(tab, basis, G.shape[1]) is not None
        monkeypatch.setattr(force_solver, "_simplex", _no_tableau)
        command, effort_pass = force_solver._least_effort(tab, basis, a0, A1, x)
    s_exact, least = exact_lexicographic(G, h, a0, A1, 50.0)
    assert effort_pass == "refined" and s == float(s_exact) == 49.0
    assert np.array_equal(command, [3.0, -50.0])
    assert np.abs(a0 + A1 @ command).sum() == pytest.approx(float(least), rel=1e-15)


def test_lp_vertex_that_is_not_finite_raises_numeric_overflow():
    # A margin LP with entries and margins near 1e290 solves to its exact
    # optimum 1e290 with no overflow and no nan; products of its small
    # entries may underflow, which is harmless.
    G = np.array(
        [
            [0, 1e290, 1.5e-9],
            [1e-8, 1e290, 3e-9],
            [0, -1, 1e-8],
            [-1e290, 0, 1e290],
            [1, 1, 1],
            [1, 1.5e-9, 1e290],
        ]
    )
    h = np.array([1e-9, 0, 1e290, 1e290, 1e290, 1e290])
    with np.errstate(over="raise", invalid="raise"):
        x, s, _, _ = force_solver._max_margin(G, h, 50.0)
    s_exact, _ = exact_lexicographic(G, h, np.zeros(1), np.zeros((1, 3)), 50.0)
    assert s == float(s_exact) == 1e290
    assert np.all(G @ x + s <= h * (1.0 + 1e-15)) and np.all(np.abs(x) <= 50.0 * (1.0 + 1e-12))
    with np.errstate(all="ignore"):
        # A least-effort LP whose effort rows overflow, on a degenerate face.
        G, h = np.array([[-1.0, 10.0], [1.0, 10.0], [0.0, 1.0]]), np.array([0.0, 0.0, -1.0])
        x, _, tab, basis = force_solver._max_margin(G, h, 50.0)
        a0, A1 = np.array([1e308]), np.array([[1e308, 1e308]])
        with pytest.raises(NumericOverflow, match="force stage: overflow in the least-effort LP"):
            force_solver._least_effort(tab, basis, a0, A1, x)


# Inputs on which the simplex misses the exact answer by more than the
# boxed-LP test's 1e-9 (ROADMAP item 4), pinned so that a change of pivot
# rule cannot hide them.
def _assert_exact_effort(G, h, a0, A1, f_max):
    x, s, tab, basis = force_solver._max_margin(G, h, f_max)
    s_exact, least = exact_lexicographic(G, h, a0, A1, f_max)
    assert s == pytest.approx(float(s_exact), rel=1e-9, abs=1e-9)
    command, _ = force_solver._least_effort(tab, basis, a0, A1, x)
    effort = np.abs(a0 + A1 @ command).sum()
    assert effort == pytest.approx(float(least), rel=1e-9, abs=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="absolute OPT_TOL face test")
def test_least_effort_face_test_trades_margin_for_effort():
    # A reduced cost near 1e-12 on a slack of range near 3e4 stays on the
    # face: effort 422.877 against the exact 499.815.
    G = np.array(
        [
            [0.0, 0.0, -1e-3],
            [0.0, -0.75, 479.557929],
            [-0.25, 720.978306, 0.0],
            _Z3,
            _Z3,
            [592.815712, 0.0, 0.0],
            [0.0, -249.152322, 109.44549],
        ]
    )
    h = np.array([-760.64716321, 0.0, -656.85403956, 0.0, 0.0, 1.25, 0.0])
    A1 = np.array([[-1.5, 0.0, -375.67376814]])
    _assert_exact_effort(G, h, np.array([98.06826807]), A1, 50.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="absolute OPT_TOL face test")
def test_least_effort_face_test_drops_a_small_effort():
    # A 5e-15 margin trade takes the effort from the exact 7.08e-9 to 0.
    G = np.array(
        [
            [0.0, 0.0, -1.953125e-3],
            [0.0, -0.25, 479.0],
            [-0.25, 708.0, 0.0],
            _Z3,
            _Z3,
            [36.0, 0.0, 0.0],
            _Z3,
        ]
    )
    h = np.array([0.0, -0.25, 0.0, 0.0, 0.0, 0.0, 0.0])
    _assert_exact_effort(G, h, np.zeros(1), np.array([[0.25, 0.0, 0.0]]), 0.5)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="absolute OPT_TOL face test")
@pytest.mark.parametrize("f_max", [0.5, 5.0])
def test_least_effort_face_test_trades_a_small_margin_on_an_edge(f_max):
    # Seed 23 of the boxed-LP test draws this input at both bounds.  A
    # reduced cost of 9.99e-12 keeps a slack on the face, so the edge breaks
    # a row by 7.1e-10 (7.1e-9 at f_max = 5) for effort 0.2498978755258481
    # (0.24897875525848095) against the exact 0.25.
    G = np.array(
        [[0, -143.0, 0], [0, -0.25, -0.75], [1e-3, 0, 0], [0.5, 0.25, 306.0], [-143.0, 0, -0.25]]
    )
    _assert_exact_effort(G, np.zeros(5), np.array([-0.25]), np.array([[0, 0, -0.25]]), f_max)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="absolute simplex tolerances")
def test_least_effort_on_an_edge_trades_a_tiny_margin_for_effort():
    # Drawn by the one-dimensional-face test.  The margin 4.997e-12 is the
    # exact one, but the edge's command 0 keeps only margin 0, for effort 0
    # against the exact 0.125.  The cause was not diagnosed.
    G = np.array([[463.0, 0, 1e-3], [0, 1e-3, -54.0], _Z3, _Z3, [0, 0, 0.25], [-0.25, 0, 0]])
    h = np.array([0, 0, 0.25, 0.25, 0, 0])
    _assert_exact_effort(G, h, np.zeros(1), np.array([[0, 0.25, 0]]), 0.5)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="absolute simplex tolerances")
def test_margin_lp_overshoots_a_zero_row():
    # Drawn by the one-dimensional-face test.  The zero row with h = 0 caps
    # the margin at 0, but the margin LP reports 5.0e-9 with the command
    # (-5, -5e-6, -5).  The cause was not diagnosed.
    G = np.array([[0, 1e-3, 0], [1e-3, -1e3, 0], _Z3])
    _assert_exact_effort(G, np.zeros(3), np.zeros(3), np.zeros((3, 3)), 5.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="absolute OPT_TOL face test")
def test_least_effort_prices_a_face_direction_off_on_round_off():
    # Phase 1 ends at eta_af = 0 with reduced costs -1.09e-11 and +1.09e-11
    # on x+_3 and x-_3, exactly 0 in exact arithmetic.  x-_3 is priced off
    # the face, so the command stays at 0, reported as refined, with effort
    # 0.3276 against the exact 0.
    G = np.array([[-0.75, -688.0, 0], [0, 0.229778218589548, 348.0], _Z3])
    A1 = np.array([[5.2551476056766111, -1.8265931612870968e-3, -2.001], _Z3])
    _assert_exact_effort(G, np.zeros(3), np.array([0.3276403709703906, 0.0]), A1, 50.0)


# HiGHS's optimum of default step 12's margin LP, the same at f_max 50 and
# 1e3. The LP's value is concave and nondecreasing in f_max, so it is the
# optimum at every larger bound too.
STEP_12_MARGIN = 0.6160652424908972


def test_margin_lp_keeps_the_optimum_at_a_large_f_max():
    # From the box centre nothing scales h by f_max, so the margin and a
    # command that keeps it hold up to 1e32.
    scenario = tilting.TiltingScenario()
    inst, guard = tilting.build_instance(tilting.rollout_states(scenario)[11], scenario)
    vel = solve_velocity(inst)
    for f_max in (50.0, 1e3, 1e15, 1e18, 1e32):
        force = solve_force(inst, guard, vel.T, vel.n_av, f_max)
        assert force.objective_margin == pytest.approx(STEP_12_MARGIN, abs=1e-12), f_max
        assert check_force_solution(inst, guard, vel.T, force, f_max=f_max).passed, f_max


def test_default_plan_takes_at_most_52_pivots(monkeypatch):
    # Counted over the 15 default steps and both phases, each margin LP's
    # forced first pivot included.  Every default margin-optimal face is a
    # point or an edge, so phase 2 takes no pivot.
    pivot, count = force_solver._pivot, [0]

    def counted_pivot(*args):
        count[0] += 1
        return pivot(*args)

    monkeypatch.setattr(force_solver, "_pivot", counted_pivot)
    for case in _default_plan_cases():
        solve_force(*case)
    assert count[0] <= 52


def _svd_route_cases():
    """(instance, guard, T, n_av, eta_af) on the 300 oracle draws and every tilting step."""
    rng = np.random.default_rng(2024)
    for i in range(300):
        n_rows = 0 if i % 7 == 0 else int(rng.integers(2, 9))
        inst, guard, T, n_av = random_guarded_assembly(rng, n_rows, infeasible=i % 3 == 2)
        yield inst, guard, T, n_av, rng.uniform(-10.0, 10.0, inst.n_a - n_av)
    for inst, guard, T, n_av in _default_plan_cases():
        yield inst, guard, T, n_av, np.linspace(-20.0, 20.0, inst.n_a - n_av)


def test_svd_route_matches_kkt_reference():
    # The solver's free forces [lambda; eta_av] against the LU solve of the
    # full-layout KKT system over [lambda; eta_u; eta_av], whose rows pin
    # eta_u = 0 on their own.
    for inst, guard, T, n_av, eta_af in _svd_route_cases():
        F = force_solver._free_force_map(*assemble_newton(inst, guard, T, n_av))
        reference = solve_kkt(*force_equalities(inst, guard, T, n_av), eta_af)
        lam, eta_av = np.split(F[:, 0] + F[:, 1:] @ eta_af, [inst.n_phi])
        full = np.concatenate([lam, np.zeros(inst.n_u), eta_av])
        scale = max(1.0, np.max(np.abs(reference)))
        assert np.max(np.abs(full - reference)) < 1e-9 * scale


def test_solve_force_factors_m_free_once(monkeypatch):
    rng = np.random.default_rng(4)
    inst, guard, T, n_av = random_guarded_assembly(rng, 4, n_eq=1)
    svd, shapes = np.linalg.svd, []

    def counted_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_force called an LU solve, cond or lstsq")

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    for name in ("solve", "cond", "lstsq", "inv", "pinv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    solve_force(inst, guard, T, n_av)
    # M_free: the n balance rows and the Gamma row over [lambda; eta_av].
    assert shapes == [(inst.n + 1, inst.n_phi + n_av)]


def test_simplex_keeps_entries_below_pivot_tolerance():
    # One guard row in small units, G = [1e-5, 1e-10], h = 0: the phase-1
    # optimum s* = 5.00005e-6 sits at (-0.5, -0.5), and both reduced costs,
    # 1e-5 and 1e-10, lie above OPT_TOL, so it is the only margin-optimal
    # command and its effort |x_1| = 0.5 is the least.  HiGHS drops matrix
    # entries below 1e-9 and answers the margin 5e-6 instead, which is why
    # the oracle tests keep entries above it.
    G, h, f_max = np.array([[1e-5, 1e-10]]), np.zeros(1), 0.5
    a0, A1 = np.zeros(1), np.array([[1.0, 0.0]])
    x, s, tab, basis = force_solver._max_margin(G, h, f_max)
    assert s == pytest.approx(5.00005e-6, rel=1e-12)
    command, effort_pass = force_solver._least_effort(tab, basis, a0, A1, x)
    assert effort_pass == "unique"
    assert np.array_equal(command, [-0.5, -0.5])
    assert exact_lexicographic(G, h, a0, A1, f_max) == (
        Fraction(G[0, 0]) / 2 + Fraction(G[0, 1]) / 2,
        Fraction(1, 2),
    )


def _gamma_outcome(inst, guard, T, n_av):
    """("solved", margin, eta_af) or ("infeasible", margin, None)."""
    try:
        sol = solve_force(inst, guard, T, n_av)
    except InfeasibleLP as exc:
        return "infeasible", exc.margin, None
    return "solved", sol.objective_margin, sol.eta_af


def _assert_same_outcome(base, other):
    assert other[0] == base[0]
    assert other[1] == pytest.approx(base[1], abs=1e-8 * max(1.0, abs(base[1])))
    if base[0] == "solved":
        assert np.max(np.abs(other[2] - base[2]), initial=0.0) < 1e-6


@st.composite
def _gamma_reformulations(draw):
    """A guarded assembly with 1-3 Gamma rows and one harmless rewrite of them."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_eq = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    inst, guard, T, n_av = random_guarded_assembly(
        rng, int(rng.integers(2, 9)), infeasible=bool(rng.random() < 0.2), n_eq=n_eq
    )
    kind = draw(st.sampled_from(["scale", "permute", "duplicate"]))
    Gamma, b_Gamma = guard.Gamma, guard.b_Gamma
    if kind == "scale":
        c = np.array(draw(st.lists(st.floats(1e-2, 1e2), min_size=n_eq, max_size=n_eq)))
        Gamma, b_Gamma = c[:, None] * Gamma, c * b_Gamma
    elif kind == "permute":
        order = draw(st.permutations(range(n_eq)))
        Gamma, b_Gamma = Gamma[order], b_Gamma[order]
    else:
        i = draw(st.integers(0, n_eq - 1))
        c = draw(st.floats(-1e2, 1e2).filter(lambda v: abs(v) >= 1e-2))
        Gamma = np.vstack([Gamma, c * Gamma[i]])
        b_Gamma = np.append(b_Gamma, c * b_Gamma[i])
    rewritten = GuardConditions(guard.Lambda, guard.b_Lambda, Gamma, b_Gamma)
    return inst, guard, rewritten, T, n_av


@settings(max_examples=200, deadline=None)
@given(_gamma_reformulations())
def test_gamma_row_scaling_permutation_and_duplication_leave_solution(case):
    inst, guard, rewritten, T, n_av = case
    base = _gamma_outcome(inst, guard, T, n_av)
    _assert_same_outcome(base, _gamma_outcome(inst, rewritten, T, n_av))
