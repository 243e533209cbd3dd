"""Acceptance suite: end-to-end behavioral criteria for the whole package.

Each test prints one "criterion N: PASS/FAIL" line summarizing the measured
quantity against its pinned tolerance, then asserts it.  Together the nine
criteria cover trajectory structure, command geometry, solver-vs-oracle
agreement, residuals, timing, and rejection of corrupted solutions.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from hybridservo import block_tilting as tilting
from hybridservo import synthesize
from hybridservo.cli import main
from hybridservo.errors import InfeasibleLP
from hybridservo.force_solver import _free_force_map, assemble_newton, solve_force
from hybridservo.subspace_linalg import factor
from hybridservo.velocity_solver import solve_velocity
from hybridservo.verifier import (
    check_force_solution,
    check_velocity_solution,
    _force_equalities,
)

from force_grid_oracle import brute_force_force_oracle
from helpers import direction_problem, random_feasible_instance, random_force_assembly
from pgd_oracle import best_pgd_cost
from tilting_reference import hand_arc_velocity


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def default_run():
    """All 15 steps of the default scenario solved once with default settings."""
    scenario = tilting.TiltingScenario()
    steps = []
    for state in tilting.rollout_states(scenario):
        instance, guard = tilting.build_instance(state, scenario)
        step = synthesize(instance, guard)
        steps.append((state, instance, guard, step.velocity, step.force))
    return scenario, steps


def test_criterion_1_single_velocity_dimension():
    scenario = tilting.TiltingScenario()
    states = tilting.rollout_states(scenario)
    start = time.perf_counter()
    dims = []
    commands = []
    for _ in range(10):
        for state in states:
            instance, _ = tilting.build_instance(state, scenario)
            vel = solve_velocity(instance)
            dims.append(vel.n_av)
            commands.append(vel.C)
    elapsed = time.perf_counter() - start
    hits = sum(d == 1 for d in dims)
    repeats_agree = all(
        np.array_equal(C, commands[i % len(states)]) for i, C in enumerate(commands)
    )
    ok = hits == 150 and repeats_agree and elapsed < 10.0
    _report(
        1,
        ok,
        f"n_av == 1 on {hits}/150 step solves (10 repeats, identical C: {repeats_agree}) "
        f"in {elapsed:.2f} s (limit 10 s)",
    )
    assert hits == 150
    assert repeats_agree
    assert elapsed < 10.0


def test_criterion_2_velocity_command_direction(default_run):
    scenario, steps = default_run
    axis = scenario.rotation_axis
    anchor = scenario.table_contacts[0]
    worst_dot = np.inf
    worst_cos = 0.0
    for state, instance, _, vel, _ in steps:
        u = vel.C[0, instance.n_u :] * np.sign(vel.b_C[0])
        arc = hand_arc_velocity(state, scenario)
        worst_dot = min(worst_dot, float(u @ arc))
        rel = state.hand_position - anchor
        to_axis = anchor + (rel @ axis) * axis - state.hand_position
        cos = abs(u @ to_axis) / (np.linalg.norm(u) * np.linalg.norm(to_axis))
        worst_cos = max(worst_cos, float(cos))
    ok = worst_dot > 0.0 and worst_cos <= 0.2
    _report(
        2,
        ok,
        f"min arc inner product {worst_dot:.2e} (> 0), "
        f"max |cos| to hand-axis line {worst_cos:.3f} (<= 0.2)",
    )
    assert worst_dot > 0.0
    assert worst_cos <= 0.2


def test_criterion_3_lateral_hand_force_near_zero(default_run):
    _, steps = default_run
    worst = 0.0
    for _, instance, _, vel, force in steps:
        f = np.linalg.solve(vel.T, force.eta)
        hand = f[instance.n_u :]
        worst = max(worst, abs(hand[1]) / np.linalg.norm(hand))
    ok = worst <= 0.1
    _report(3, ok, f"max |Y hand force| / ||hand force|| = {worst:.2e} (<= 0.1)")
    assert worst <= 0.1


def test_criterion_4_velocity_checks_on_random_instances():
    rng = np.random.default_rng(2024)
    instances = [random_feasible_instance(rng) for _ in range(200)]
    start = time.perf_counter()
    solutions = [solve_velocity(inst) for inst in instances]
    passes = sum(
        check_velocity_solution(inst, sol).passed for inst, sol in zip(instances, solutions)
    )
    elapsed = time.perf_counter() - start
    # The paper's multi-start PGD, as a reference: the closed form must never
    # end above its best cost over 20 starts.
    beaten = 0
    worst_excess = -np.inf
    for inst, sol in zip(instances, solutions):
        B_c, null_n, n_av = direction_problem(inst)
        excess = sol.cost - best_pgd_cost(B_c, null_n, n_av, starts=20)
        worst_excess = max(worst_excess, excess)
        beaten += excess > 1e-12
    ok = passes >= 198 and passes == 200 and beaten == 0 and elapsed < 60.0
    _report(
        4,
        ok,
        f"{passes}/200 closed-form solutions pass (need >= 198 and 200), "
        f"{beaten}/200 above the 20-start PGD cost + 1e-12 (worst excess "
        f"{worst_excess:.1e}), in {elapsed:.1f} s (limit 60 s)",
    )
    assert passes >= 198
    assert passes == 200
    assert beaten == 0
    assert elapsed < 60.0


def test_criterion_5_kkt_matches_projection_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    hits = 0
    for _ in range(200):
        instance, guard, T, n_av = random_force_assembly(rng)
        M_free, M_eta_f, rhs = _force_equalities(instance, guard, T, n_av)
        eta_af = rng.uniform(-5.0, 5.0, M_eta_f.shape[1])
        # The free forces [lambda; eta_av] solve_force uses: affine in the
        # command, one SVD.  The oracle solves over the full layout
        # [lambda; eta_u; eta_av], so its eta_u must come out 0.
        F = _free_force_map(*assemble_newton(instance, guard, T, n_av))
        f_free = F[:, 0] + F[:, 1:] @ eta_af
        n_phi = instance.n_phi
        direct = np.concatenate([f_free[:n_phi], np.zeros(instance.n_u), f_free[n_phi:]])
        oracle = np.linalg.pinv(M_free) @ (rhs - M_eta_f @ eta_af)
        err = float(np.max(np.abs(direct - oracle))) if direct.size else 0.0
        worst = max(worst, err)
        hits += err <= 1e-7
    ok = hits == 200
    _report(5, ok, f"{hits}/200 assemblies within 1e-7 (worst max-abs error {worst:.2e})")
    assert hits == 200


def test_criterion_6_lp_margin_vs_grid_oracle():
    rng = np.random.default_rng(5)
    hits = 0
    worst_gap = -np.inf
    for _ in range(50):
        scenario = tilting.TiltingScenario(
            edge_length=float(rng.uniform(0.05, 0.12)),
            mu_hand=float(rng.uniform(0.6, 1.2)),
            mu_table=float(rng.uniform(0.6, 1.2)),
            gravity_object=np.array([0.0, 0.0, -float(rng.uniform(1.0, 5.0))]),
        )
        state = tilting.rollout_states(scenario)[int(rng.integers(15))]
        instance, guard = tilting.build_instance(state, scenario)
        vel = solve_velocity(instance)
        try:
            lp_margin = solve_force(instance, guard, vel.T, vel.n_av).objective_margin
        except InfeasibleLP as exc:
            lp_margin = exc.margin
        grid_margin, _ = brute_force_force_oracle(
            instance, guard, vel.T, vel.n_av, grid_resolution=0.25, f_max=50.0
        )
        gap = grid_margin - lp_margin
        worst_gap = max(worst_gap, gap)
        hits += lp_margin >= grid_margin - 0.05
    ok = hits == 50
    _report(
        6,
        ok,
        f"{hits}/50 instances with LP margin >= grid margin - 0.05 N "
        f"(worst shortfall {max(worst_gap, 0.0):.2e} N)",
    )
    assert hits == 50


def test_criterion_7_newton_and_guard_residuals(default_run):
    _, steps = default_run
    worst_newton = 0.0
    worst_margin = np.inf
    for _, instance, guard, vel, force in steps:
        check = check_force_solution(instance, guard, vel.T, force)
        worst_newton = max(worst_newton, check.newton_residual)
        worst_margin = min(worst_margin, check.min_guard_margin)
    ok = worst_newton <= 1e-6 and worst_margin >= 0.0
    _report(
        7,
        ok,
        f"max Newton residual {worst_newton:.2e} (<= 1e-6), "
        f"min guard margin {worst_margin:.3f} N (>= 0)",
    )
    assert worst_newton <= 1e-6
    assert worst_margin >= 0.0


def test_criterion_8_per_step_timing(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(
        json.dumps(
            {"schema": 1, "scenario_type": "block_tilting", "params": {}, "solver": {}}
        )
    )
    out = tmp_path / "out.json"
    assert main(["--scenario", str(scenario_path), "--out", str(out), "--csv"]) == 0
    with (tmp_path / "out.csv").open() as fh:
        rows = list(csv.reader(fh))
    per_step = [float(r[5]) + float(r[6]) for r in rows[1:-1]]
    median_row = rows[-1]
    median_total = float(median_row[5]) + float(median_row[6])
    ok = median_row[0] == "median" and max(per_step) <= 350.0
    _report(
        8,
        ok,
        f"max per-step solve {max(per_step):.1f} ms (<= 350 ms), "
        f"CSV median {median_total:.1f} ms",
    )
    assert median_row[0] == "median"
    assert max(per_step) <= 350.0


def test_criterion_9_corrupted_solutions_fail_verification(default_run):
    _, steps = default_run
    _, instance, guard, vel, force = steps[5]
    outcomes = []

    # Intact solutions must pass before sabotage means anything.
    outcomes.append(("clean velocity", check_velocity_solution(instance, vel).passed))
    outcomes.append(
        ("clean force", check_force_solution(instance, guard, vel.T, force).passed)
    )

    bad = replace(vel, C=np.vstack([instance.N[:1]]))
    outcomes.append(
        ("constraint row as command", not check_velocity_solution(instance, bad).passed)
    )
    bad = replace(vel, b_C=vel.b_C + 0.1)
    outcomes.append(
        ("shifted command value", not check_velocity_solution(instance, bad).passed)
    )
    # A valid frame, but its last row is a force row, not the command C.
    n = instance.n
    swapped = vel.T.copy()
    swapped[[instance.n_u, n - 1]] = swapped[[n - 1, instance.n_u]]
    outcomes.append(
        ("frame T with a force row as command row",
         not check_velocity_solution(instance, replace(vel, T=swapped)).passed)
    )

    bad_lam = force.lam.copy()
    bad_lam[0] += 1.0
    bad = replace(force, lam=bad_lam)
    outcomes.append(
        ("perturbed contact force", not check_force_solution(instance, guard, vel.T, bad).passed)
    )
    # Step 6 commands two force directions, so its least-effort pass ran.
    skipped = replace(force, effort_pass="skipped")
    outcomes.append(
        ("effort pass reported skipped", not check_force_solution(instance, guard, vel.T, skipped).passed)
    )
    # Balanced and inside every guard, but solved for a 500 N box.
    wide = solve_force(instance, guard, vel.T, vel.n_av, 500.0)
    outcomes.append(
        ("command beyond f_max", not check_force_solution(instance, guard, vel.T, wide).passed)
    )
    bad_eta = force.eta.copy()
    bad_eta[0] += 1e-3
    bad = replace(force, eta=bad_eta)
    outcomes.append(
        ("force on unactuated axis", not check_force_solution(instance, guard, vel.T, bad).passed)
    )

    # Equilibrium-consistent but cone-violating forces: move along the null
    # space of the equality rows until a guard margin goes negative.
    A = (vel.T @ instance.N.T)[: instance.n_u]
    drift = None
    for column in factor(A).null_space().T:
        for sign in (200.0, -200.0):
            lam2 = force.lam + sign * column
            eta2 = force.eta - sign * (vel.T @ instance.N.T @ column)
            check = check_force_solution(
                instance, guard, vel.T, replace(force, lam=lam2, eta=eta2)
            )
            if check.min_guard_margin < 0 and check.newton_residual <= 1e-6:
                drift = check
                break
        if drift is not None:
            break
    outcomes.append(("cone-violating equilibrium", drift is not None and not drift.passed))

    failed = [name for name, good in outcomes if not good]
    ok = not failed
    _report(
        9,
        ok,
        "hardware outcomes out of scope; structural criteria 1-8 stand in and "
        f"{sum(good for _, good in outcomes[2:])}/{len(outcomes) - 2} corrupted solutions were rejected"
        + (f" (failed: {failed})" if failed else ""),
    )
    assert ok, f"sabotage outcomes failed: {failed}"
