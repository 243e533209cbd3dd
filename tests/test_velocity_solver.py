from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest

from helpers import adversarial_svd, direction_problem, empty_guard, random_feasible_instance
from hybridservo import subspace_linalg as sla
from hybridservo import synthesize, velocity_solver
from hybridservo.block_tilting import TiltingScenario, build_instance, rollout_states
from hybridservo.errors import (
    EmptyBasis,
    InconsistentGoal,
    InconsistentSystem,
    InfeasibleDimensions,
    NumericOverflow,
    SingularTransform,
    SolverError,
)
from hybridservo.model import GuardConditions, make_instance
from hybridservo.velocity_solver import VelocitySolution, candidate_basis, solve_velocity
from hybridservo.verifier import check_velocity_solution
from pgd_oracle import (
    TIE_EPS,
    PgdConfig,
    _cost_and_grad,
    _project,
    direction_cost,
    pgd_costs,
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


def test_solve_velocity_cost_is_the_cost_of_its_rows():
    # The stage reports -sqrt(n_av S) from the singular values; this ties it
    # to the cost of the rows it returns, in the defining form.
    rng = np.random.default_rng(13)
    scenario = TiltingScenario()
    tilting = [build_instance(st, scenario)[0] for st in rollout_states(scenario)]
    counts = {1: 0, 2: 0, 3: 0}
    for inst in tilting + [random_feasible_instance(rng) for _ in range(400)]:
        sol = solve_velocity(inst)
        null_n = sla.factor(inst.N).null_space()
        ref = direction_cost(sol.C.T, np.eye(inst.n), null_n)
        assert abs(sol.cost - ref) <= 1e-12 * max(1.0, abs(ref))
        counts[sol.n_av] += 1
    assert counts[2] >= 100 and counts[3] >= 20, counts


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


def test_stacked_pgd_costs_match_the_serial_runs():
    # pgd_costs descends all starts as one stack; each start must end where
    # its own projected_gradient_descent run ends.
    rng = np.random.default_rng(5)
    for _ in range(6):
        B_c, null_n, n_av = direction_problem(random_feasible_instance(rng))
        stacked = pgd_costs(B_c, null_n, n_av, starts=5, seed=1)
        serial = [projected_gradient_descent(B_c, null_n, n_av, 1, s).cost for s in range(5)]
        assert np.max(np.abs(stacked - serial)) <= 1e-12


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
    R_a = sol.T[1:, 1:]
    assert np.allclose(R_a @ R_a.T, np.eye(2), atol=1e-9)
    assert np.array_equal(R_a[-1], sol.C[0, 1:])
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


def test_velocity_solution_stores_no_derived_fields():
    fields = [f.name for f in dataclasses.fields(VelocitySolution)]
    assert fields == ["C", "b_C", "T", "cost"]
    sol = solve_velocity(random_feasible_instance(np.random.default_rng(8)))
    assert sol.n_av == sol.C.shape[0] >= 1


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
    for field in ("C", "b_C", "T"):
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


def _draw(rng, n_av, min_free):
    """The next random_feasible_instance draw that solves at n_av commands
    with at least min_free free motions in null(N)."""
    while True:
        inst = random_feasible_instance(rng)
        try:
            sol = solve_velocity(inst)
        except SolverError:
            continue
        if sol.n_av == n_av and sla.factor(inst.N).null_space().shape[1] >= min_free:
            return inst


def _svds_of_a_solve(monkeypatch, inst):
    """solve_velocity(inst) with every np.linalg.svd input recorded; lstsq is banned."""
    svd, seen = np.linalg.svd, []

    def counted_svd(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_velocity called lstsq")

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    sol = solve_velocity(inst)
    monkeypatch.undo()
    assert sum(a.shape == inst.N.shape and np.array_equal(a, inst.N) for a in seen) == 1
    for stack in (np.vstack([inst.N, inst.G]), np.vstack([inst.N, sol.C])):
        assert not any(a.shape == stack.shape and np.array_equal(a, stack) for a in seen)
    return seen


def test_solve_velocity_takes_four_svds_and_none_of_a_stack(monkeypatch):
    # Three free motions leave null([N; G]) nonempty, so null(sigma_a) is factored.
    inst = _draw(np.random.default_rng(21), n_av=2, min_free=3)
    # Besides N: G NullN, null(sigma_a) and the direction SVD.  The force
    # axes, the complement of R_C, come from a QR factorization.
    assert len(_svds_of_a_solve(monkeypatch, inst)) == 4


def test_one_command_takes_two_svds_on_one_goal_row_and_three_on_two(monkeypatch):
    # dim null(N) >= 2 and n_av = 1: A has rank one and its SVD is a norm,
    # and the complement of the command row is a Householder reflector.  One
    # goal row makes G NullN a row, in closed form too, so N and null(sigma_a)
    # are the only factorizations; two goal rows add G NullN.
    inst = _draw(np.random.default_rng(21), n_av=1, min_free=2)
    assert inst.G.shape[0] == 1
    assert len(_svds_of_a_solve(monkeypatch, inst)) == 2
    inst = _one_command_instance(np.random.default_rng(21), "commanded", m=2)
    assert solve_velocity(inst).n_av == 1
    assert len(_svds_of_a_solve(monkeypatch, inst)) == 3


def _svd_route(inst):
    """(C, b_C, T, cost) by the stage's SVD route, from sla.factor and
    optimal_directions, on the unit goal rows; or the error it raises."""
    n, n_u = inst.n, inst.n_u
    null_n = sla.factor(inst.N).null_space()
    norms = np.linalg.norm(inst.G, axis=1)
    norms[norms == 0.0] = 1.0
    G, b_G = inst.G / norms[:, None], inst.b_G / norms
    f_gn = sla.factor(G @ null_n, scale=np.linalg.norm(G))
    try:
        v_star = null_n @ f_gn.min_norm(b_G)
    except InconsistentSystem:
        raise InconsistentGoal("SVD route") from None
    n_av = f_gn.rank
    if n_av == 0:
        return np.zeros((0, n)), np.zeros(0), np.eye(n), 0.0
    B_c = candidate_basis(null_n @ f_gn.null_space(), n_u, n_av)
    A = null_n.T @ B_c
    k, sigma = velocity_solver.optimal_directions(A, B_c, n_av)
    if not sigma[n_av - 1] > sla.RANK_TOL:
        raise SingularTransform("SVD route")
    C = (B_c @ k).T
    b_C = C @ v_star
    for i in range(n_av):
        lead = b_C[i] if b_C[i] != 0.0 else C[i, np.flatnonzero(C[i])[0]]
        if lead < 0.0:
            C[i], b_C[i] = -C[i], -b_C[i]
    T = np.eye(n)
    T[n_u:, n_u:] = np.vstack([sla.factor(C[:, n_u:]).null_space().T, C[:, n_u:]])
    return C, b_C, T, direction_cost(k, B_c, null_n)


def _one_motion_instance(rng, kind):
    """A random instance whose constraints leave one free motion z.

    kind: "commanded" (n_av = 1), "implied" (the goal rows lie in N's row
    space, n_av = 0), "inconsistent" (b_G that no velocity meets) or
    "unactuated" (z has a zero actuated part, so no row can command it).
    Goal rows are scaled by up to 1e6 either way.
    """
    n = int(rng.integers(2, 7))
    n_u = int(rng.integers(1 if kind == "unactuated" else 0, n))
    z = rng.standard_normal(n)
    if kind == "unactuated":
        z[n_u:] = 0.0
    z /= np.linalg.norm(z)
    N = rng.standard_normal((n - 1 + int(rng.integers(0, 2)), n)) @ (np.eye(n) - np.outer(z, z))
    m = int(rng.integers(1, 4))
    if kind == "implied":
        G = rng.standard_normal((m, N.shape[0])) @ N
    else:
        G = rng.standard_normal((m, n))
    if kind == "inconsistent":
        if m == 1:
            G = rng.standard_normal((1, N.shape[0])) @ N
        b_G = rng.standard_normal(m)
    else:
        b_G = G @ (z * rng.uniform(-2.0, 2.0))
    scales = 10.0 ** rng.uniform(-6.0, 6.0, m)
    return make_instance(n_u, N, scales[:, None] * G, scales * b_G, np.zeros(n))


@functools.cache
def _plan_steps():
    """(instance, guard) of every step of the default, lateral-load and
    90-step plans."""
    plans = [TiltingScenario(), TiltingScenario(gravity_object=[0.0, 0.6, -2.45])]
    plans += [
        TiltingScenario(mu_hand=mu, mu_table=mu, num_steps=90, tilt_rate=math.pi / 180.0)
        for mu in (0.3, 0.5, 0.8, 1.2, 1.5)
    ]
    return [build_instance(state, sc) for sc in plans for state in rollout_states(sc)]


def _one_motion_instances():
    tilting = [inst for inst, _ in _plan_steps()]
    rng = np.random.default_rng(32)
    kinds = ["commanded", "implied", "inconsistent", "unactuated"]
    return tilting + [_one_motion_instance(rng, kind) for kind in kinds for _ in range(50)]


def _outcome(route, inst):
    try:
        return route(inst)
    except (InconsistentGoal, SingularTransform, EmptyBasis) as exc:
        return type(exc)


def _worst_difference(got, ref):
    """Largest entry difference of (C, b_C, T, cost) between two solutions."""
    got = (got.C, got.b_C, got.T, got.cost)
    assert got[0].shape == ref[0].shape
    return max(float(np.max(np.abs(a - b), initial=0.0)) for a, b in zip(got, ref))


def test_one_free_motion_matches_the_svd_route():
    # The closed form against the SVD route on every step of the default,
    # lateral-load and 90-step plans (all with dim null(N) = 1), and on
    # random instances of each kind.
    outcomes, worst = {}, 0.0
    for inst in _one_motion_instances():
        assert sla.factor(inst.N).null_space().shape[1] == 1
        ref = _outcome(_svd_route, inst)
        got = _outcome(solve_velocity, inst)
        if isinstance(ref, type):
            assert got is ref
            outcomes[ref.__name__] = outcomes.get(ref.__name__, 0) + 1
            continue
        worst = max(worst, _worst_difference(got, ref))
        key = f"n_av = {ref[0].shape[0]}"
        outcomes[key] = outcomes.get(key, 0) + 1
    print(f"one free motion: {outcomes}, largest difference {worst:.2e}")
    assert worst <= 1e-12
    assert set(outcomes) == {"n_av = 0", "n_av = 1", "InconsistentGoal", "SingularTransform"}


def _one_command_instance(rng, kind, m=None):
    """A random instance with dim null(N) = d >= 2 whose goal adds rank one.

    null(N) is span(w) plus span(Y), the goal rows annihilate Y, so w is the
    goal's free motion and null([N; G]) = span(Y) has d - 1 >= 1 columns.
    kind: "commanded", "inconsistent" (two or more goal rows and a b_G no
    velocity meets) or "unactuated" (w has a zero actuated part, so no
    candidate row sees it).  m goal rows, drawn from 1-3 unless given; they
    are scaled by up to 1e6 either way.
    """
    n = int(rng.integers(3, 9))
    n_u = int(rng.integers(1 if kind == "unactuated" else 0, n - 1))
    d = int(rng.integers(2, n - n_u + 1))  # d <= n_a, so rank(N) + n_a >= n
    w = rng.standard_normal(n)
    if kind == "unactuated":
        w[n_u:] = 0.0
    Z = np.linalg.qr(np.column_stack([w, rng.standard_normal((n, d - 1))]))[0]
    Y = Z[:, 1:]
    N = rng.standard_normal((n - d + int(rng.integers(0, 2)), n)) @ (np.eye(n) - Z @ Z.T)
    if m is None:
        m = int(rng.integers(2 if kind == "inconsistent" else 1, 4))
    G = rng.standard_normal((m, n)) @ (np.eye(n) - Y @ Y.T)
    b_G = rng.standard_normal(m) if kind == "inconsistent" else G @ (Z[:, 0] * rng.uniform(-2.0, 2.0))
    scales = 10.0 ** rng.uniform(-6.0, 6.0, m)
    return make_instance(n_u, N, scales[:, None] * G, scales * b_G, np.zeros(n))


def test_one_command_closed_form_matches_the_svd_route():
    # At n_av = 1 with dim null(N) >= 2, A = NullN^T B_c has rank one and
    # the stage takes its SVD in closed form; the SVD route keeps
    # optimal_directions.  EmptyBasis cannot occur here: null([N; G]) has
    # dim null(N) - 1 <= n_a - 1 columns, so at least one candidate remains.
    rng = np.random.default_rng(34)
    kinds = ["commanded", "inconsistent", "unactuated"]
    instances = [_one_command_instance(rng, kind) for kind in kinds for _ in range(100)]
    instances += [_draw(rng, n_av=1, min_free=2) for _ in range(100)]
    outcomes, worst = {}, 0.0
    for inst in instances:
        ref = _outcome(_svd_route, inst)
        got = _outcome(solve_velocity, inst)
        if isinstance(ref, type):
            assert got is ref
            key = ref.__name__
        else:
            assert ref[0].shape[0] == 1
            assert sla.factor(inst.N).null_space().shape[1] >= 2
            worst = max(worst, _worst_difference(got, ref))
            key = "n_av = 1"
        outcomes[key] = outcomes.get(key, 0) + 1
    print(f"one command, dim null(N) >= 2: {outcomes}, largest difference {worst:.2e}")
    assert worst <= 1e-12
    assert set(outcomes) == {"n_av = 1", "InconsistentGoal", "SingularTransform"}


def _one_goal_row_instance(rng, kind):
    """A random instance with dim null(N) >= 2 and one goal row g.

    kind: "commanded" (n_av = 1), "implied" (g lies in N's row space with
    b_G = 0, n_av = 0), "inconsistent" (g as for implied, b_G != 0) or
    "unactuated" (g's free motion has a zero actuated part).  The row is
    scaled by up to 1e6 either way.
    """
    if kind in ("commanded", "unactuated"):
        return _one_command_instance(rng, kind, m=1)
    inst = _one_command_instance(rng, "commanded", m=1)
    G = rng.standard_normal((1, inst.N.shape[0])) @ inst.N
    b_G = rng.standard_normal(1) if kind == "inconsistent" else np.zeros(1)
    scale = 10.0 ** rng.uniform(-6.0, 6.0)
    return make_instance(inst.n_u, inst.N, scale * G, scale * b_G, inst.F)


def test_one_goal_row_closed_form_matches_the_svd_route():
    # With one goal row and dim null(N) >= 2, G NullN is a row: its SVD is
    # its norm and direction vh_0, null([N; G]) is spanned by NullN (I -
    # vh_0 vh_0^T), and the complement of the command row is a Householder
    # reflector.  The SVD route factors G NullN and R_C instead.
    rng = np.random.default_rng(36)
    kinds = ["commanded", "implied", "inconsistent", "unactuated"]
    outcomes, worst = {}, 0.0
    for inst in (_one_goal_row_instance(rng, kind) for kind in kinds for _ in range(60)):
        assert inst.G.shape[0] == 1
        assert sla.factor(inst.N).null_space().shape[1] >= 2
        ref = _outcome(_svd_route, inst)
        got = _outcome(solve_velocity, inst)
        if isinstance(ref, type):
            assert got is ref
            key = ref.__name__
        else:
            worst = max(worst, _worst_difference(got, ref))
            key = f"n_av = {ref[0].shape[0]}"
        outcomes[key] = outcomes.get(key, 0) + 1
    print(f"one goal row, dim null(N) >= 2: {outcomes}, largest difference {worst:.2e}")
    assert worst <= 1e-12
    assert set(outcomes) == {"n_av = 0", "n_av = 1", "InconsistentGoal", "SingularTransform"}


def _step_fields(inst, guard):
    """(n_av, C, b_C, T, cost) and (lp_margin, eta_af, lam), or the error
    class and its margin, of synthesize(inst, guard)."""
    vel = solve_velocity(inst)
    try:
        force = synthesize(inst, guard).force
    except SolverError as exc:
        return (vel.n_av, vel.C, vel.b_C, vel.T, vel.cost), (type(exc), getattr(exc, "margin", None))
    return (vel.n_av, vel.C, vel.b_C, vel.T, vel.cost), (force.objective_margin, force.eta_af, force.lam)


def _fields_difference(got, ref):
    """Largest entry difference of two _step_fields results; inf when an
    outcome or n_av differs."""
    (vel, force), (vel_ref, force_ref) = got, ref
    if vel[0] != vel_ref[0] or isinstance(force[0], type) != isinstance(force_ref[0], type):
        return math.inf
    if isinstance(force[0], type):
        if force[0] is not force_ref[0]:
            return math.inf
        force, force_ref = force[1:], force_ref[1:]
    pairs = [(a, b) for a, b in zip(vel[1:] + force, vel_ref[1:] + force_ref) if b is not None]
    return max(float(np.max(np.abs(np.subtract(a, b)), initial=0.0)) for a, b in pairs)


def test_plan_outputs_do_not_depend_on_the_svd_basis(monkeypatch):
    # Every step of the default, lateral-load and 90-step plans with
    # np.linalg.svd returning another valid SVD (sign flips of singular
    # pairs, rotations of the null-space bases): one free motion and n_av =
    # 1, so each output is a function of the problem, bit for bit.
    steps = _plan_steps()
    ref = [_step_fields(inst, guard) for inst, guard in steps]
    monkeypatch.setattr(np.linalg, "svd", adversarial_svd(np.random.default_rng(17)))
    got = [_step_fields(inst, guard) for inst, guard in steps]
    monkeypatch.undo()
    assert max(_fields_difference(g, r) for g, r in zip(got, ref)) == 0.0


def test_one_goal_row_outputs_do_not_depend_on_the_svd_basis(monkeypatch):
    # One-goal-row draws with n_av = 1 and three random guard rows.  With
    # dim null(N) >= 2 the force stage raises SingularSystem (a free motion
    # is neither commanded nor balanced), and NullN turns with the SVD, so
    # the rows agree to round-off.
    rng = np.random.default_rng(36)
    draws, dims = [], set()
    while len(draws) < 100:
        inst = random_feasible_instance(rng)
        if inst.G.shape[0] != 1 or solve_velocity(inst).n_av != 1:
            continue
        dims.add(min(sla.factor(inst.N).null_space().shape[1], 2))
        Lambda = rng.standard_normal((3, inst.n_phi + inst.n))
        b_Lambda = Lambda @ rng.standard_normal(Lambda.shape[1]) + rng.uniform(0.1, 1.0, 3)
        guard = GuardConditions(Lambda, b_Lambda, np.zeros((0, Lambda.shape[1])), np.zeros(0))
        draws.append((inst, guard))
    assert dims == {1, 2}
    ref = [_step_fields(inst, guard) for inst, guard in draws]
    monkeypatch.setattr(np.linalg, "svd", adversarial_svd(np.random.default_rng(17)))
    got = [_step_fields(inst, guard) for inst, guard in draws]
    monkeypatch.undo()
    assert max(_fields_difference(g, r) for g, r in zip(got, ref)) <= 1e-12


def _separated(inst, n_av):
    """Whether the top n_av + 1 singular values of A = NullN^T B_c are more
    than 1e-6 apart, so the top n_av right singular vectors are unique up
    to sign and the command rows are a function of the problem."""
    B_c, null_n, _ = direction_problem(inst)
    sigma = np.linalg.svd(null_n.T @ B_c, compute_uv=False)[: n_av + 1]
    return bool(np.all(-np.diff(sigma) > 1e-6))


def _relative_difference(got, ref):
    """Largest entry difference of each pair of arrays, relative to the
    largest entry of the reference."""
    worst = 0.0
    for a, b in zip(got, ref):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape
        scale = max(float(np.max(np.abs(b), initial=0.0)), np.finfo(float).tiny)
        worst = max(worst, float(np.max(np.abs(a - b), initial=0.0)) / scale)
    return worst


def test_several_command_outputs_do_not_depend_on_the_svd_basis(monkeypatch):
    # n_av >= 2 with np.linalg.svd returning another valid SVD: NullN, B_c
    # and the direction SVD's vectors turn or flip, but each direction is
    # signed by its command row and the force axes follow R_C alone.  Draws
    # whose top n_av + 1 singular values of A nearly tie are skipped: there
    # the rows may turn within their span, which is the SVD's tie rule.
    draws, skipped = [], 0
    for seed in (3, 4, 5):
        rng = np.random.default_rng(seed)
        for _ in range(400):
            inst = random_feasible_instance(rng)
            try:
                sol = solve_velocity(inst)
            except SolverError:
                continue
            if sol.n_av < 2:
                continue
            if not _separated(inst, sol.n_av):
                skipped += 1
                continue
            draws.append((inst, sol))
    assert (len(draws), skipped) == (465, 39)
    monkeypatch.setattr(np.linalg, "svd", adversarial_svd(np.random.default_rng(17)))
    got = [solve_velocity(inst) for inst, _ in draws]
    monkeypatch.undo()
    worst = max(
        _relative_difference((g.C, g.b_C, g.T, g.cost), (r.C, r.b_C, r.T, r.cost))
        for g, (_, r) in zip(got, draws)
    )
    assert worst <= 1e-10


def test_one_free_motion_takes_one_svd(monkeypatch):
    # README's raw example: null(N) is one free motion, so only N is
    # factored; G NullN and the directions are a column and a row, and the
    # complement of the command row is a Householder reflector.
    inst = make_instance(1, [[1.0, -1.0]], [[1.0, 0.0]], [0.1], [-2.45, 0.0])
    svd, seen = np.linalg.svd, []

    def counted_svd(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    sol = solve_velocity(inst)
    assert sol.n_av == 1
    assert len(seen) == 1
    assert np.array_equal(seen[0], inst.N)


def test_goal_rows_are_ranked_in_their_own_units():
    # Two goal rows 1e9 apart in scale each add rank; ranked against ||G||_F
    # the small one fell below RANK_TOL and was neither commanded nor met.
    G = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1e-9]])
    inst = make_instance(1, [[1.0, -1.0, 0.0]], G, G @ [0.3, 0.3, 0.7], [-2.45, 0.0, 0.0])
    sol = solve_velocity(inst)
    assert sol.n_av == 2
    assert check_velocity_solution(inst, sol).passed


def test_goal_row_scaling_changes_no_rank():
    # Each goal row and its b_G entry times 10^k, k up to +-12: the same goal.
    rng = np.random.default_rng(14)
    for _ in range(60):
        inst = random_feasible_instance(rng)
        s = 10.0 ** rng.integers(-12, 13, inst.G.shape[0]).astype(float)
        scaled = dataclasses.replace(inst, G=s[:, None] * inst.G, b_G=s * inst.b_G)
        base, sol = solve_velocity(inst), solve_velocity(scaled)
        assert sol.n_av == base.n_av
        assert abs(sol.cost - base.cost) <= 1e-9
        assert check_velocity_solution(scaled, sol).passed


@pytest.mark.parametrize(
    "G, b_G, b_C",
    [
        ([[1e150, 0.0]], [1e150], 1.0),
        ([[1e-300, 0.0]], [1e-301], 0.1),
        ([[1.0, 0.0], [1e150, 0.0]], [0.1, 1e149], 0.1),
        ([[1.7e308, 0.0]], [1.7e308], None),
        ([[1.7e308, 1.7e308]], [1.0], None),
        ([[1.0, 0.0]], [1.7e308], None),
        ([[1e-300, 0.0]], [1e10], None),
    ],
    ids=["large-row", "tiny-row", "mixed-rows", "huge-entry", "huge-norm", "huge-goal", "goal-over-tiny-row"],
)
def test_one_free_motion_near_the_float_maximum_solves_or_overflows(G, b_G, b_C):
    # b_C None: NumericOverflow, as ||G||_F, or ||b_G|| on the unit rows,
    # overflows.  Otherwise the step solves with every number finite.
    inst = make_instance(1, [[1.0, -1.0]], G, b_G, [-2.45, 0.0])
    guard = empty_guard(1, 2)
    if b_C is None:
        with pytest.raises(NumericOverflow, match="velocity stage: overflow"):
            synthesize(inst, guard)
        return
    vel = synthesize(inst, guard).velocity
    assert vel.n_av == 1
    assert all(np.isfinite(x).all() for x in (vel.C, vel.b_C, vel.T, vel.cost))
    assert vel.b_C[0] == pytest.approx(b_C, rel=1e-12)


def test_goal_row_scaling_and_permutation_leave_the_command_rows():
    # The goal rows with their b_G entries scaled by 10^k, k in [-3, 3], and
    # permuted state the same goal, so C must not move.  At n_av = 2 the
    # rotation mixes the two right singular vectors, so the rows depend on
    # each vector's sign, which must come from the goal and not from LAPACK.
    # At n_av = 1 with dim null(N) >= 2 the row is the candidate part of the
    # goal's free motion w, whose orientation LAPACK picks; the sign rule on
    # b_C must undo it.  (At n_av = 3 two singular values of 1 are common;
    # the rows may then turn within their span, which is the SVD's tie rule,
    # not a sign.)
    rng = np.random.default_rng(12)
    checked = {1: 0, 2: 0}
    while min(checked.values()) < 300:
        inst = random_feasible_instance(rng)
        try:
            sol = solve_velocity(inst)
        except SolverError:
            continue
        if checked.get(sol.n_av, 300) >= 300:
            continue
        if sol.n_av == 1 and sla.factor(inst.N).null_space().shape[1] < 2:
            continue
        k = inst.G.shape[0]
        scale, order = 10.0 ** rng.integers(-3, 4, k), rng.permutation(k)
        G, b_G = (scale[:, None] * inst.G)[order], (scale * inst.b_G)[order]
        other = solve_velocity(make_instance(inst.n_u, inst.N, G, b_G, inst.F))
        assert np.max(np.abs(other.C - sol.C)) <= 1e-12
        checked[sol.n_av] += 1


def _check_permuted_command_rows(zero_goal):
    # Reordering the actuated coordinates (the columns of N and G and the
    # entries of F past n_u) states the same problem, so C's columns follow
    # the order and b_C and the cost stay.  T is left out: the Householder
    # force axes follow the coordinate order by design.
    rng = np.random.default_rng(6)
    checked = {1: 0, 2: 0, 3: 0}
    for _ in range(300):
        inst = random_feasible_instance(rng)
        if zero_goal:
            inst = make_instance(inst.n_u, inst.N, inst.G, np.zeros_like(inst.b_G), inst.F)
        try:
            sol = solve_velocity(inst)
        except SolverError:
            continue
        if not _separated(inst, sol.n_av):
            continue
        order = np.concatenate([np.arange(inst.n_u), inst.n_u + rng.permutation(inst.n_a)])
        other = solve_velocity(
            make_instance(inst.n_u, inst.N[:, order], inst.G[:, order], inst.b_G, inst.F[order])
        )
        got, ref = (other.C, other.b_C, other.cost), (sol.C[:, order], sol.b_C, sol.cost)
        assert _relative_difference(got, ref) <= 1e-10
        checked[sol.n_av] += 1
    assert min(checked.values()) >= 30, checked


def test_permuted_actuated_coordinates_permute_the_command_rows():
    _check_permuted_command_rows(zero_goal=False)


def test_permuted_coordinates_permute_the_rows_of_zero_command_values():
    # b_G = 0 gives b_C = 0: each row is signed by its largest-magnitude
    # entry, which the coordinate order does not change.
    _check_permuted_command_rows(zero_goal=True)
