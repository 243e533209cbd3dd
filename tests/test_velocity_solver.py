from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import direction_problem, random_feasible_instance
from hybridservo import subspace_linalg as sla
from hybridservo import velocity_solver
from hybridservo.block_tilting import TiltingScenario, build_instance, rollout_states
from hybridservo.errors import (
    EmptyBasis,
    InconsistentGoal,
    InfeasibleDimensions,
    SingularTransform,
)
from hybridservo.model import make_instance
from hybridservo.velocity_solver import candidate_basis, solve_velocity
from hybridservo.verifier import check_velocity_solution
from pgd_oracle import (
    TIE_EPS,
    PgdConfig,
    _cost_and_grad,
    _project,
    direction_cost,
    projected_gradient_descent,
)


def test_n_av_counts_the_rank_the_goal_adds():
    N = np.array([[1.0, 0.0, 0.0]])
    G = np.array([[0.0, 0.0, 1.0]])
    inst = make_instance(1, N, G, [0.3], np.zeros(3))
    ranks = sla.factor(N).rank, sla.factor(np.vstack([N, G])).rank
    assert (solve_velocity(inst).n_av, *ranks) == (1, 1, 2)


def test_goal_redundant_with_the_constraints_needs_no_command():
    N = np.array([[1.0, 0.0, 0.0]])
    G = np.array([[2.0, 0.0, 0.0]])
    inst = make_instance(1, N, G, [0.0], np.zeros(3))
    ranks = sla.factor(N).rank, sla.factor(np.vstack([N, G])).rank
    assert (solve_velocity(inst).n_av, *ranks) == (0, 1, 1)
    # Off the coordinate axes G NullN is round-off rather than an exact
    # zero; it must not count as a command either.
    rng = np.random.default_rng(5)
    for _ in range(20):
        N = rng.standard_normal((2, 5))
        G = rng.standard_normal((1, 2)) @ N
        inst = make_instance(2, N, G, [0.0], np.zeros(5))
        sol = solve_velocity(inst)
        assert sol.n_av == 0
        assert check_velocity_solution(inst, sol).passed


def test_too_few_actuated_axes_raise_infeasible_dimensions():
    # rank(N) = 1 with n = 3: two actuated axes suffice, one does not.
    N = np.array([[1.0, 0.0, 0.0]])
    G = np.array([[0.0, 0.0, 1.0]])
    assert solve_velocity(make_instance(1, N, G, [0.3], np.zeros(3))).n_av == 1
    with pytest.raises(InfeasibleDimensions):
        solve_velocity(make_instance(2, N, G, [0.3], np.zeros(3)))


def test_candidate_basis_prefix_is_exactly_zero():
    rng = np.random.default_rng(2)
    inst = random_feasible_instance(rng, n=7)
    B_c, _, _ = direction_problem(inst)
    assert np.all(B_c[: inst.n_u, :] == 0.0)
    null_ng = sla.factor(np.vstack([inst.N, inst.G])).null_space()
    assert np.max(np.abs(B_c.T @ null_ng)) < 1e-10


def test_candidate_basis_empty_raises():
    # The only direction pinning the goal lives on the unactuated axis.
    null_ng = sla.factor(np.array([[0.0, 0.0], [1.0, 0.0]])).null_space()
    with pytest.raises(EmptyBasis):
        candidate_basis(null_ng, n_u=1, n_av=1)


def test_candidate_basis_ignores_round_off_in_the_actuated_part():
    # null([N; G]) is the unactuated axis up to round-off, so every actuated
    # direction is a candidate; ranking that round-off against its own size
    # would drop one and leave the command row to chance.
    null_ng = np.array([[1.0], [3e-17], [-2e-17]])
    B_c = candidate_basis(null_ng, n_u=1, n_av=1)
    assert B_c.shape == (3, 2)
    inst = make_instance(1, [[0.0, 0.6, 0.8]], [[0.0, 0.8, -0.6]], [0.3], np.zeros(3))
    sol = solve_velocity(inst)
    assert sol.cost == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(np.abs(sol.C), [[0.0, 0.8, 0.6]], atol=1e-12)


def test_candidate_count_meets_the_rank_bound():
    # n_c >= r_NG + n_a - n >= n_av in exact arithmetic, so EmptyBasis takes
    # round-off once r_N + n_a >= n; the criterion-4 set stays clear of it.
    rng = np.random.default_rng(2024)
    for _ in range(200):
        inst = random_feasible_instance(rng)
        B_c, _, n_av = direction_problem(inst)
        r_NG = sla.factor(np.vstack([inst.N, inst.G])).rank
        assert B_c.shape[1] >= r_NG + inst.n_a - inst.n >= n_av


def test_direction_cost_single_row_is_negative_alignment():
    N = np.array([[1.0, 0.0, 0.0]])
    null_n = sla.factor(N).null_space()
    B_c = np.zeros((3, 2))
    B_c[1:, :] = np.eye(2)
    k = np.array([[1.0], [0.0]])
    # c = e2 lies inside null(N): cost is minus its projection norm.
    assert direction_cost(k, B_c, null_n) == pytest.approx(-1.0)


def test_direction_cost_penalizes_parallel_rows():
    N = np.zeros((0, 3))
    null_n = sla.factor(N).null_space()
    B_c = np.eye(3)
    k_para = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    k_orth = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert direction_cost(k_para, B_c, null_n) > direction_cost(k_orth, B_c, null_n)


def test_direction_cost_from_k_and_a_matches_the_defining_form():
    # C C^T = k^T k and NullN^T C^T = A k when B_c has orthonormal columns.
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        B_c, null_n, n_av = direction_problem(random_feasible_instance(rng))
        k = rng.standard_normal((B_c.shape[1], n_av))
        ref = direction_cost(k, B_c, null_n)
        got = velocity_solver.direction_cost(k, null_n.T @ B_c)
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-14


def test_solve_velocity_cost_is_the_cost_of_its_rows():
    rng = np.random.default_rng(13)
    scenario = TiltingScenario()
    tilting = [build_instance(st, scenario)[0] for st in rollout_states(scenario)]
    for inst in tilting + [random_feasible_instance(rng) for _ in range(50)]:
        sol = solve_velocity(inst)
        null_n = sla.factor(inst.N).null_space()
        ref = direction_cost(sol.C.T, np.eye(inst.n), null_n)
        assert abs(sol.cost - ref) <= 1e-12 * max(1.0, abs(ref))


def test_pgd_is_deterministic_and_unit_norm():
    rng = np.random.default_rng(4)
    inst = random_feasible_instance(rng, n=8)
    B_c, null_n, n_av = direction_problem(inst)
    first = projected_gradient_descent(B_c, null_n, n_av, seed=0, start=1)
    second = projected_gradient_descent(B_c, null_n, n_av, seed=0, start=1)
    assert np.array_equal(first.k, second.k)
    assert first.cost == second.cost
    norms = np.linalg.norm(B_c @ first.k, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_pgd_improves_on_random_start():
    rng = np.random.default_rng(9)
    inst = random_feasible_instance(rng, n=9)
    B_c, null_n, n_av = direction_problem(inst)
    result = projected_gradient_descent(B_c, null_n, n_av, seed=3, start=0)
    start_rng = np.random.default_rng(3)
    k0 = start_rng.standard_normal((B_c.shape[1], n_av))
    k0 = k0 / np.linalg.norm(B_c @ k0, axis=0)
    assert result.cost <= direction_cost(k0, B_c, null_n) + 1e-12


def _sequential_pgd(B_c, null_n, n_av, cfg, start):
    """The descent method step by step (seed 0): each trial halves the last one."""
    rng = np.random.default_rng(start)
    k = _project(rng.standard_normal((B_c.shape[1], n_av)), B_c)
    cost, grad = _cost_and_grad(k, B_c, null_n)
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        step = cfg.step_length
        accepted = None
        for _ in range(40):
            trial = _project(k - step * grad, B_c)
            if trial is not None:
                trial_cost, trial_grad = _cost_and_grad(trial, B_c, null_n)
                if trial_cost <= cost + TIE_EPS:
                    accepted = (trial, trial_cost, trial_grad)
                    break
            step *= 0.5
        if accepted is None:
            converged = True
            break
        moved = np.linalg.norm(accepted[0] - k)
        k, cost, grad = accepted
        if moved < cfg.convergence_tol:
            converged = True
            break
    return k, cost, iterations, converged


@pytest.mark.parametrize("seed, expected_n_av", [(3, 2), (0, 3)])
@pytest.mark.parametrize("max_iters", [200, 10])
def test_pgd_line_search_matches_sequential_halving(seed, expected_n_av, max_iters):
    inst = random_feasible_instance(np.random.default_rng(seed))
    B_c, null_n, n_av = direction_problem(inst)
    assert n_av == expected_n_av
    cfg = PgdConfig(max_iters=max_iters)
    for start in range(3):
        result = projected_gradient_descent(B_c, null_n, n_av, 0, start, cfg)
        k, cost, iterations, converged = _sequential_pgd(B_c, null_n, n_av, cfg, start)
        assert np.array_equal(result.k, k)
        assert result.cost == cost
        assert result.iterations == iterations
        assert result.converged == converged


def test_solve_velocity_rows_independent_modulo_constraints():
    # Three-start PGD's lowest-cost start ends here with rows that are
    # independent in the actuated coordinates but dependent modulo N.
    rng = np.random.default_rng(7)
    for _ in range(145):
        inst = random_feasible_instance(rng)
    sol = solve_velocity(inst)
    assert sol.n_av == 3
    assert check_velocity_solution(inst, sol).passed


def test_closed_form_reaches_bound_with_orthonormal_signed_rows():
    rng = np.random.default_rng(31)
    seen = set()
    for _ in range(60):
        inst = random_feasible_instance(rng)
        sol = solve_velocity(inst)
        B_c, null_n, n_av = direction_problem(inst)
        sigma = np.linalg.svd(null_n.T @ B_c, compute_uv=False)
        bound = -np.sqrt(n_av * np.sum(sigma[:n_av] ** 2))
        assert abs(sol.cost - bound) <= 1e-12
        assert np.allclose(sol.C @ sol.C.T, np.eye(n_av), rtol=0.0, atol=1e-12)
        assert np.all(sol.b_C >= 0.0)
        seen.add(n_av)
    assert seen == {1, 2, 3}


def test_closed_form_repeated_singular_values_is_deterministic():
    # N is empty and B_c = I, so both singular values of NullN^T B_c are 1.
    inst = make_instance(0, np.zeros((0, 2)), np.eye(2), [0.3, -0.2], np.zeros(2))
    first = solve_velocity(inst)
    second = solve_velocity(inst)
    assert first.n_av == 2
    assert np.array_equal(first.C, second.C)
    assert first.cost == second.cost == pytest.approx(-2.0, abs=1e-12)
    assert np.all(first.b_C >= 0.0)
    assert check_velocity_solution(inst, first).passed


def test_solve_velocity_hand_built_instance():
    # Constraint pins dim 0, goal moves dim 2; dim 0 is unactuated.
    N = np.array([[1.0, 0.0, 0.0]])
    G = np.array([[0.0, 0.0, 1.0]])
    inst = make_instance(1, N, G, [0.3], np.zeros(3))
    sol = solve_velocity(inst)
    assert sol.n_av == 1
    # The only admissible unit command row is +/- e3.
    assert np.allclose(np.abs(sol.C), [[0.0, 0.0, 1.0]], atol=1e-9)
    assert sol.b_C[0] * sol.C[0, 2] == pytest.approx(0.3, abs=1e-9)
    assert np.allclose(sol.R_a @ sol.R_a.T, np.eye(2), atol=1e-9)
    assert np.allclose(sol.T[1:, 1:], sol.R_a)
    assert sla.factor(np.vstack([N, sol.C])).rank == 2


def test_solve_velocity_commands_pin_goal_on_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(20):
        inst = random_feasible_instance(rng)
        sol = solve_velocity(inst)
        stacked = np.vstack([inst.N, sol.C])
        assert sla.factor(stacked).rank == sla.factor(np.vstack([inst.N, inst.G])).rank
        v = np.linalg.pinv(stacked) @ np.concatenate([np.zeros(inst.N.shape[0]), sol.b_C])
        assert np.allclose(inst.G @ v, inst.b_G, atol=1e-6)


def test_solve_velocity_zero_commands_needed():
    # Goal is implied by the constraints; nothing to command.
    N = np.array([[1.0, 0.0, 0.0]])
    G = np.array([[2.0, 0.0, 0.0]])
    inst = make_instance(1, N, G, [0.0], np.zeros(3))
    sol = solve_velocity(inst)
    assert sol.n_av == 0
    assert sol.C.shape == (0, 3)
    assert np.allclose(sol.T, np.eye(3))


def test_solve_velocity_infeasible_dimensions():
    N = np.array([[1.0, 0.0, 0.0]])
    G = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    inst = make_instance(2, N, G, [0.1, 0.2], np.zeros(3))
    with pytest.raises(InfeasibleDimensions):
        solve_velocity(inst)


def test_solve_velocity_inconsistent_goal():
    N = np.array([[1.0, 0.0, 0.0]])
    G = np.array([[1.0, 0.0, 0.0]])
    inst = make_instance(1, N, G, [1.0], np.zeros(3))
    with pytest.raises(InconsistentGoal):
        solve_velocity(inst)


def test_solve_velocity_is_deterministic():
    rng = np.random.default_rng(21)
    inst = random_feasible_instance(rng, n=6)
    a = solve_velocity(inst)
    b = solve_velocity(inst)
    for field in ("C", "b_C", "T", "R_a"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.cost == b.cost
    r_NC = sla.factor(np.vstack([inst.N, a.C])).rank
    assert r_NC == sla.factor(np.vstack([inst.N, inst.G])).rank


@pytest.mark.parametrize("N", [[[0.0, 1.0, 0.0]], [[0.0, 0.6, 0.8]]])
def test_solve_velocity_singular_transform(N):
    # The goal moves the unactuated axis alone, so the only candidate row
    # is N's own row and cannot pin the goal down.  Rotated off the axes,
    # that row's component in null(N) is round-off, not an exact zero.
    inst = make_instance(1, N, [[1.0, 0.0, 0.0]], [0.3], np.zeros(3))
    with pytest.raises(SingularTransform):
        solve_velocity(inst)


@pytest.mark.parametrize("step", [1, 4, 15])
@pytest.mark.parametrize("scaled", ["N", "G"])
def test_solve_velocity_is_unit_free(step, scaled):
    # Metres against radians: rescaling N, or G with b_G, by 1e8 changes no
    # rank decision, because no cutoff compares N's units with G's.
    scenario = TiltingScenario()
    inst = build_instance(rollout_states(scenario)[step - 1], scenario)[0]
    if scaled == "N":
        other = dataclasses.replace(inst, N=1e8 * inst.N)
    else:
        other = dataclasses.replace(inst, G=1e8 * inst.G, b_G=1e8 * inst.b_G)
    base, sol = solve_velocity(inst), solve_velocity(other)
    assert sol.n_av == base.n_av
    assert abs(sol.cost - base.cost) <= 1e-12
    assert np.max(np.abs(sol.C - base.C)) <= 1e-9


def test_solve_velocity_takes_five_svds_and_none_of_a_stack(monkeypatch):
    rng = np.random.default_rng(21)
    inst = random_feasible_instance(rng)
    svd, seen = np.linalg.svd, []

    def counted_svd(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_velocity called lstsq")

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    sol = solve_velocity(inst)
    assert sol.n_av >= 1
    assert sum(a.shape == inst.N.shape and np.array_equal(a, inst.N) for a in seen) == 1
    for stack in (np.vstack([inst.N, inst.G]), np.vstack([inst.N, sol.C])):
        assert not any(a.shape == stack.shape and np.array_equal(a, stack) for a in seen)
    # Besides N: G NullN, null(sigma_a), the direction SVD and null(R_C).
    assert len(seen) == 5
