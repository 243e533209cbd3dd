from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from helpers import random_feasible_instance
from hybridservo import subspace_linalg as sla
from hybridservo.block_tilting import TiltingScenario, build_instance, rollout_states
from hybridservo.errors import InfeasibleLP
from hybridservo.force_solver import solve_force
from hybridservo.model import GuardConditions, make_instance
from hybridservo.velocity_solver import solve_velocity
from hybridservo.verifier import (
    VerificationReport,
    brute_force_force_oracle,
    check_force_solution,
    check_velocity_solution,
    min_norm_projection,
)


def _solved_tilting_step(step: int = 5, **scenario_kwargs):
    sc = TiltingScenario(**scenario_kwargs)
    st = rollout_states(sc)[step]
    inst, guard = build_instance(st, sc)
    vel = solve_velocity(inst)
    force = solve_force(inst, guard, vel.T, vel.n_av)
    return inst, guard, vel, force


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
    drift = sla.null_space_basis(inst.N).basis[:, 0]
    corrupt = vel.C + 0.5 * drift[None, :]
    assert not check_velocity_solution(inst, replace(vel, C=corrupt)).passed


def test_velocity_check_fails_on_wrong_magnitude():
    inst, _, vel, _ = _solved_tilting_step()
    report = check_velocity_solution(inst, replace(vel, b_C=vel.b_C + 0.1))
    assert not report.passed
    assert report.cross_residual_goal > 1e-6


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


def test_verification_report_aggregates():
    inst, guard, vel, force = _solved_tilting_step()
    good = VerificationReport(
        velocity=check_velocity_solution(inst, vel),
        force=check_force_solution(inst, guard, vel.T, force),
    )
    assert good.passed
    assert good.to_dict()["passed"] is True
    bad_eta = force.eta.copy()
    bad_eta[0] += 1.0
    bad = VerificationReport(
        velocity=good.velocity,
        force=check_force_solution(inst, guard, vel.T, replace(force, eta=bad_eta)),
    )
    assert not bad.passed


def test_min_norm_projection_matches_lstsq_path():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((3, 7))
    rhs = rng.standard_normal(3)
    assert np.allclose(
        min_norm_projection(M, rhs), sla.min_norm_solution(M, rhs), atol=1e-10
    )


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
