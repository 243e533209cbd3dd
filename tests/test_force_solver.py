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
from helpers import random_force_assembly, random_guarded_assembly
from hybridservo import block_tilting as tilting
from hybridservo import cli, force_solver, synthesize
from hybridservo import subspace_linalg as sla
from hybridservo.errors import InfeasibleLP, NumericOverflow, SingularSystem, SingularTransform
from hybridservo.force_solver import assemble_newton, solve_force
from hybridservo.model import GuardConditions, make_instance
from hybridservo.velocity_solver import solve_velocity
from hybridservo.verifier import _force_equalities
from kkt_reference import build_kkt, solve_kkt


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
    M_free, M_eta_f, rhs = assemble_newton(inst, guard, np.diag([1.0, -1.0]), n_av=1)
    assert np.array_equal(M_free, [[1.0, 0.0], [1.0, 1.0], [0.5, -2.0]])
    assert M_eta_f.shape == (3, 0)
    assert np.array_equal(rhs, [2.45, 0.0, 1.0])


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
    M_free, M_eta_f, rhs = _force_equalities(inst, guard, T, n_av)
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
    M_free, M_eta_f, rhs = _force_equalities(inst, guard, T, n_av)
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
    guard = GuardConditions.empty(1, 1)
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
    guard = GuardConditions.empty(1, 2)
    with pytest.raises(SingularSystem):
        solve_force(inst, guard, np.eye(2), n_av=0)


@pytest.mark.parametrize(
    "params, error",
    [
        ({"gravity_object": [1e308, 1e308, -1e308]}, SingularSystem),
        ({"gravity_hand": [1e308] * 3}, SingularSystem),
        ({"mu_hand": 1e308, "mu_table": 1e308}, NumericOverflow),
    ],
    ids=["gravity_object", "gravity_hand", "friction"],
)
def test_forces_that_overflow_raise_when_called_directly(params, error):
    # Without synthesize's overflow guard the free-force residual is inf, or
    # the margin map holds inf - inf, which would make the LP margin nan.
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


def test_synthesize_takes_f_max_by_keyword_only():
    # A third positional argument, the old rank tolerance, must not run as f_max.
    inst, guard = _wall_press([(-1.0, -1.0)])
    with pytest.raises(TypeError):
        synthesize(inst, guard, 1e-8)
    assert synthesize(inst, guard, f_max=10.0).force.objective_margin == pytest.approx(9.0)


def test_ill_conditioned_force_balance_raises_singular_system(tmp_path, capsys):
    # M_free = [[n]]: cond(K) = (1 + sqrt(1 + n^2)) / (n^2 / (1 + sqrt(1 + n^2)))
    # is 4e14 for n = 1e-7, past MAX_CONDITION = 1e12, and 4e10 for n = 1e-5.
    def solve(n):
        inst = make_instance(0, [[n]], np.zeros((0, 1)), [], [0.0])
        return solve_force(inst, GuardConditions.empty(1, 1), np.eye(1), n_av=0)

    with pytest.raises(SingularSystem) as exc_info:
        solve(1e-7)
    assert str(exc_info.value) == (
        "force balance is singular or ill-conditioned (KKT cond 4.000e+14)"
    )
    assert solve(1e-5).objective_margin == pytest.approx(50.0, abs=1e-6)
    # Through the CLI the goal adds no velocity command, so the force stage fails.
    raw = {"n_u": 0, "N": [[1e-7]], "G": [[1.0]], "b_G": [0.0], "F": [0.0]}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"schema": 1, "scenario_type": "raw_instance", "params": raw}))
    out = tmp_path / "out.json"
    assert cli.main(["--scenario", str(scenario), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "step 1: force balance is singular or ill-conditioned (KKT cond 4.000e+14)"
    )
    assert not out.exists()


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
        raise AssertionError("an LP was solved with n_af = 0")

    monkeypatch.setattr(force_solver, "_simplex", no_lp)
    inst, guard = _supported_object()
    sol = solve_force(inst, guard, np.eye(2), n_av=1)
    assert sol.eta_af.size == 0
    assert sol.objective_margin == pytest.approx(1.95, abs=1e-9)
    assert sol.effort_pass == "skipped"
    # Without guard rows the margin is the box bound.
    free = solve_force(inst, GuardConditions.empty(1, 2), np.eye(2), n_av=1)
    assert free.objective_margin == 50.0
    # A guard the forced equilibrium violates: lambda = 2.45 < 3.
    strict = GuardConditions(guard.Lambda, np.array([-3.0]), guard.Gamma, guard.b_Gamma)
    with pytest.raises(InfeasibleLP) as exc_info:
        solve_force(inst, strict, np.eye(2), n_av=1)
    assert exc_info.value.margin == pytest.approx(-0.55, abs=1e-9)


def _degenerate_margin_instance():
    N = np.eye(2)
    inst = make_instance(0, N, np.zeros((0, 2)), [], [0.0, 0.0])
    Lam = np.array([[1.0, -10.0, 0.0, 0.0], [-1.0, -10.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
    guard = GuardConditions(Lam, np.array([0.0, 0.0, -1.0]), np.zeros((0, 4)), np.zeros(0))
    return inst, guard


def test_effort_pass_reports_refinement_and_fallback(monkeypatch):
    inst, guard = _degenerate_margin_instance()
    assert solve_force(inst, guard, np.eye(2), n_av=0).effort_pass == "refined"

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
    sol = solve_force(inst, guard, np.eye(2), n_av=0)
    assert len(calls) == 2
    assert sol.effort_pass == "fell_back"
    assert sol.objective_margin == pytest.approx(49.0, abs=1e-6)
    assert np.array_equal(sol.eta_af, vertices[0][0])


def _default_plan_cases():
    """(instance, guard, T, n_av) of every step of the default tilting plan."""
    scenario = tilting.TiltingScenario()
    for state in tilting.rollout_states(scenario):
        instance, guard = tilting.build_instance(state, scenario)
        vel = solve_velocity(instance)
        yield instance, guard, vel.T, vel.n_av


def test_unique_margin_optimum_solves_one_lp(monkeypatch):
    # Phase 2 runs only when a nonbasic column has a zero phase-1 reduced
    # cost; otherwise the phase-1 vertex is the only margin-optimal command.
    simplex, calls = force_solver._simplex, []

    def counted(*args):
        calls.append(args)
        return simplex(*args)

    monkeypatch.setattr(force_solver, "_simplex", counted)
    passes = []
    for case in _default_plan_cases():
        calls.clear()
        sol = solve_force(*case)
        assert len(calls) == {"unique": 1, "refined": 2}[sol.effort_pass]
        passes.append(sol.effort_pass)
    assert passes.count("unique") == 9


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


def test_simplex_iteration_cap_raises_singular_system(monkeypatch):
    monkeypatch.setattr(force_solver, "MAX_PIVOTS", 0)
    inst, guard = _degenerate_margin_instance()
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
@settings(max_examples=300, deadline=None)
@given(_boxed_lps())
def test_simplex_matches_linprog_on_random_boxed_lps(lp):
    G, h, a0, A1, f_max = lp
    n_rows, n_af = G.shape
    x, s, tab, basis = force_solver._max_margin(G, h, f_max)
    assert np.all(G @ x + s <= h + 1e-9 * (1.0 + np.abs(h)))
    assert np.all(np.abs(x) <= f_max * (1.0 + 1e-12))
    command, effort_pass = force_solver._least_effort(tab, basis, a0, A1, x, f_max)
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


# Inputs on which the simplex misses the exact answer by more than the
# boxed-LP test's 1e-9 (ROADMAP item 4), pinned so that a change of pivot
# rule cannot hide them.
_Z3 = [0.0, 0.0, 0.0]


def _assert_exact_margin(G, h, a0, A1, f_max):
    x, s, tab, basis = force_solver._max_margin(G, h, f_max)
    s_exact, least = exact_lexicographic(G, h, a0, A1, f_max)
    assert s == pytest.approx(float(s_exact), rel=1e-9, abs=1e-9)
    return x, tab, basis, least


def _assert_exact_effort(G, h, a0, A1, f_max):
    x, tab, basis, least = _assert_exact_margin(G, h, a0, A1, f_max)
    command, _ = force_solver._least_effort(tab, basis, a0, A1, x, f_max)
    effort = np.abs(a0 + A1 @ command).sum()
    assert effort == pytest.approx(float(least), rel=1e-9, abs=1e-9)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ratio test skips entries at most PIVOT_TOL"
)
def test_margin_ratio_test_skip_leaves_a_row_infeasible():
    # The last pivot skips four column entries of 3.6e-10, so the vertex
    # violates the zero rows by 1.44e-9 and the margin reads 1.44e-9, not 0.
    G = np.array(
        [[0.0, 0.0, -1.953125e-3], [0.0, -0.25, 479.0], [-0.25, 708.0, 0.0], _Z3, _Z3, _Z3, _Z3]
    )
    h = np.array([0.0, 0.0, -0.25, 0.0, 0.0, 0.0, 0.0])
    _assert_exact_margin(G, h, np.zeros(1), np.array([[1.0, 0.0, 0.0]]), 5.0)


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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="round-off of the shifted command")
def test_least_effort_shift_round_off_leaves_a_small_effort():
    # The exact command is 0, but it comes back as y - f_max with y near
    # f_max = 50 and a row entry of -999, so it is off by 3.6e-12 and the
    # effort 275 |x| reads 1.0e-9 against the exact 0.
    G = np.array([[0.0], [0.0], [0.0], [0.0], [0.25], [0.0], [0.0], [-999.0]])
    h = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25])
    _assert_exact_effort(G, h, np.zeros(1), np.array([[275.0]]), 50.0)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="round-off of the shifted command")
def test_least_effort_shift_round_off_through_a_small_entry():
    # The margin is -129 and the row 1e-3 x <= 0 leaves the exact command
    # 0, but y comes back 1.18e-11 below f_max = 0.5, so the effort 85 |x|
    # reads 1.005e-9 against the exact 0.
    G = np.array([[0.0], [0.0], [1e-3]])
    h = np.array([0.0, -129.0, -129.0])
    _assert_exact_effort(G, h, np.zeros(1), np.array([[85.0]]), 0.5)


def _assert_feasible_vertex(G, h, f_max):
    """The boxed-LP test's first check: the phase-1 vertex keeps every row."""
    x, s, _, _ = force_solver._max_margin(G, h, f_max)
    assert np.all(G @ x + s <= h + 1e-9 * (1.0 + np.abs(h)))


# On the next two the margin matches the exact 0, so _assert_exact_margin
# passes, but the vertex breaks a row with a large entry.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="phase-1 vertex breaks a row")
def test_margin_vertex_breaks_a_row_scaled_by_a_thousand():
    # x = [0, -1.26e-10, -5] with s = 0: the row -1e3 x_1 <= 0 is off by 1.26e-7.
    G = np.array([_Z3, [-1.0, 0.0, 0.0], [0.0, -1e-3, 0.0], _Z3, [0.0, -1e3, 0.0]])
    h = np.array([0.25, 0.0, 0.0, 0.0, 0.0])
    _assert_feasible_vertex(G, h, 5.0)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ratio test skips entries at most PIVOT_TOL"
)
def test_margin_vertex_breaks_a_row_through_a_small_entry():
    # x = [-2.54e-12, 0] with s = 0: the row -885 x_0 + x_1 <= 0 is off by 2.24e-9.
    G = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-885.0, 1.0], [-1.0, 0.0], [0.0, 0.25]])
    _assert_feasible_vertex(G, np.zeros(6), 50.0)


def _phase1_lps():
    """(G, h, f_max) of every default-plan margin LP and 200 seeded boxed LPs."""
    lps = []
    max_margin = force_solver._max_margin

    def recorded(G, h, f_max):
        lps.append((G, h, f_max))
        return max_margin(G, h, f_max)

    force_solver._max_margin = recorded
    try:
        for case in _default_plan_cases():
            solve_force(*case)
    finally:
        force_solver._max_margin = max_margin
    assert len(lps) == 15
    rng = np.random.default_rng(18)

    def entries(shape):
        # The boxed-LP test's mix (zero, multiples of 1/4 and 1e-3 .. 1e3 in
        # magnitude), with zeros of both signs.
        kind = rng.integers(0, 4, shape)
        zero = np.copysign(0.0, rng.uniform(-1.0, 1.0, shape))
        quarter = rng.integers(-8, 9, shape) / 4.0
        size = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), shape))
        return np.select([kind == 0, kind == 1, kind == 2], [zero, quarter, size], -size)

    for _ in range(200):
        n_rows, n_af = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        lps.append((entries((n_rows, n_af)), entries(n_rows), float(rng.choice([0.5, 5.0, 50.0]))))
    return lps


def test_max_margin_first_pivot_in_closed_form(monkeypatch):
    # _max_margin writes down the tableau after the first pivot; it must be
    # bitwise the slack tableau after _pivot(argmin corner row, t) and the
    # clip of the right-hand sides, and that pivot counts against MAX_PIVOTS.
    starts = []

    def first_simplex(tab, basis, pivots):
        starts.append((tab.copy(), basis.copy(), pivots))
        raise SingularSystem("stop after the first pivot")

    lps = _phase1_lps()
    monkeypatch.setattr(force_solver, "_simplex", first_simplex)
    for G, h, f_max in lps:
        with pytest.raises(SingularSystem, match="first pivot"):
            force_solver._max_margin(G, h, f_max)
        tab, basis, pivots = starts.pop()
        n_rows, n_af = G.shape
        corner = h + f_max * G.sum(axis=1)
        A = np.zeros((n_rows + n_af, n_af + 1))
        A[:n_rows, :n_af], A[:n_rows, n_af], A[n_rows:, :n_af] = G, 1.0, np.eye(n_af)
        b = np.concatenate([corner - corner.min(), np.full(n_af, 2.0 * f_max)])
        c = np.append(np.zeros(n_af), -1.0)
        want, want_basis = slack_tableau(A, b, c)
        force_solver._pivot(want, want_basis, int(corner.argmin()), n_af)
        np.maximum(want[:-1, -1], 0.0, out=want[:-1, -1])
        assert tab.tobytes() == want.tobytes()
        assert np.array_equal(basis, want_basis)
        assert pivots == 1


def test_default_plan_takes_at_most_88_pivots(monkeypatch):
    # Counted over the 15 default steps, both phases and the effort rows'
    # crash pivots, with each margin LP's closed-form first pivot as one.
    # Bland's rule alone took 111.
    pivot, max_margin, count = force_solver._pivot, force_solver._max_margin, [0]

    def counted_pivot(*args):
        count[0] += 1
        return pivot(*args)

    def counted_max_margin(*args):
        count[0] += 1
        return max_margin(*args)

    monkeypatch.setattr(force_solver, "_pivot", counted_pivot)
    monkeypatch.setattr(force_solver, "_max_margin", counted_max_margin)
    for case in _default_plan_cases():
        solve_force(*case)
    assert count[0] <= 88


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
        assembly = assemble_newton(inst, guard, T, n_av)
        f_free = sla.factor(assembly[0], full_matrices=False)
        closed_form = force_solver._kkt_condition(f_free)
        reference = np.linalg.cond(build_kkt(*assembly)[0])
        assert closed_form == pytest.approx(reference, rel=1e-9)
        f0, W = force_solver._free_force_map(*assembly)
        reference = solve_kkt(*_force_equalities(inst, guard, T, n_av), eta_af)
        lam, eta_av = np.split(f0 + W @ eta_af, [inst.n_phi])
        full = np.concatenate([lam, np.zeros(inst.n_u), eta_av])
        scale = max(1.0, np.max(np.abs(reference)))
        assert np.max(np.abs(full - reference)) < 1e-9 * scale


def test_kkt_condition_counts_columns_beyond_the_rank():
    # M = [1 0 0]: K has eigenvalues 1 +- sqrt(2) and 2 twice.
    f_free = sla.factor(np.array([[1.0, 0.0, 0.0]]), full_matrices=False)
    expected = (1.0 + np.sqrt(2.0)) / (np.sqrt(2.0) - 1.0)
    assert force_solver._kkt_condition(f_free) == pytest.approx(expected, rel=1e-14)
    assert force_solver._kkt_condition(f_free) == pytest.approx(
        np.linalg.cond(np.array([[2, 0, 0, 1], [0, 2, 0, 0], [0, 0, 2, 0], [1, 0, 0, 0.0]])),
        rel=1e-12,
    )
    # A tiny kept singular value: no cancellation in sqrt(1 + s^2) - 1.
    f_tiny = sla.factor(np.array([[1e-9]]))
    assert force_solver._kkt_condition(f_tiny) == pytest.approx(
        (1.0 + np.sqrt(1.0 + 1e-18)) / (1e-18 / 2.0), rel=1e-12
    )


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
    command, effort_pass = force_solver._least_effort(tab, basis, a0, A1, x, f_max)
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
