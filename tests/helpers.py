"""Shared builders for randomized test instances.

Both generators construct problems whose feasibility is guaranteed by
construction rather than by searching: constraint matrices get a chosen
rank, goals are generated from velocities that already satisfy the
constraints, and force assemblies are drawn so the equality system has
full row rank and stays well conditioned.
"""

from __future__ import annotations

import numpy as np

from hybridservo.model import GuardConditions, SystemInstance, make_instance
from hybridservo.subspace_linalg import factor
from hybridservo.velocity_solver import candidate_basis
from hybridservo.verifier import _force_equalities

MAX_ASSEMBLY_CONDITION = 1e3


def random_feasible_instance(
    rng: np.random.Generator, n: int | None = None
) -> SystemInstance:
    """Instance with a reachable goal and at least one velocity command.

    The constraint matrix has a deliberate rank r_N with r_N + n_a >= n,
    optionally padded with redundant rows; the goal rows add rank on top of
    the constraints; b_G comes from a velocity inside null(N), so the goal
    never conflicts with the constraints.
    """
    if n is None:
        n = int(rng.integers(4, 13))
    n_u = int(rng.integers(1, n - 1))
    n_a = n - n_u
    r_N = int(rng.integers(max(1, n - n_a), n))
    left = rng.standard_normal((r_N, r_N))
    right = rng.standard_normal((r_N, n))
    N = left @ right
    redundant = int(rng.integers(0, 3))
    if redundant:
        mix = rng.standard_normal((redundant, r_N))
        N = np.vstack([N, mix @ N])

    k_goal = int(rng.integers(1, min(3, n - r_N) + 1))
    G = rng.standard_normal((k_goal, n))
    null_n = factor(N).null_space()
    v_target = null_n @ rng.standard_normal(null_n.shape[1])
    b_G = G @ v_target
    F = rng.standard_normal(n)
    return make_instance(n_u, N, G, b_G, F)


def direction_problem(instance: SystemInstance):
    """(B_c, NullN, n_av): the velocity stage's direction problem, from ranks."""
    f_N = factor(instance.N)
    f_NG = factor(np.vstack([instance.N, instance.G]))
    n_av = f_NG.rank - f_N.rank
    B_c = candidate_basis(f_NG.null_space(), instance.n_u, n_av)
    return B_c, f_N.null_space(), n_av


def random_force_assembly(
    rng: np.random.Generator, max_free: int = 12, n_eq: int | None = None
):
    """Random (instance, guard, T, n_av) with a full-row-rank force system.

    Free-force count n_phi + n_u + n_av stays at or below max_free.  Full
    row rank of the stacked equalities requires n_phi + n_av >= n + n_eq,
    which the dimension draw enforces; ill-conditioned draws, judged on the
    verifier's full-layout equalities, are rejected.
    The number n_eq of Gamma rows is drawn from {0, 1} unless given.
    """
    fixed_eq = n_eq
    for _ in range(100):
        n_u = int(rng.integers(0, 3))
        n_a = int(rng.integers(1, 4))
        n = n_u + n_a
        n_av = int(rng.integers(0, n_a + 1))
        n_eq = int(rng.integers(0, 2)) if fixed_eq is None else fixed_eq
        n_phi_low = max(1, n + n_eq - n_av)
        n_phi = n_phi_low + int(rng.integers(0, 3))
        if n_phi + n_u + n_av > max_free:
            continue
        N = rng.standard_normal((n_phi, n))
        F = rng.standard_normal(n)
        instance = make_instance(n_u, N, np.zeros((0, n)), np.zeros(0), F)
        w = n_phi + n
        guard = GuardConditions(
            Lambda=np.zeros((0, w)),
            b_Lambda=np.zeros(0),
            Gamma=rng.standard_normal((n_eq, w)),
            b_Gamma=rng.standard_normal(n_eq),
        )
        q, _ = np.linalg.qr(rng.standard_normal((n_a, n_a)))
        T = np.eye(n)
        T[n_u:, n_u:] = q
        M_free = _force_equalities(instance, guard, T, n_av)[0]
        rank_ok = factor(M_free).rank == M_free.shape[0]
        if rank_ok and np.linalg.cond(M_free) < MAX_ASSEMBLY_CONDITION:
            return instance, guard, T, n_av
    raise RuntimeError("could not draw a well-conditioned force assembly")


def random_guarded_assembly(
    rng: np.random.Generator,
    n_rows: int,
    infeasible: bool = False,
    n_eq: int | None = None,
):
    """random_force_assembly plus n_rows guard rows around a known command.

    A command inside the box is drawn and its free forces resolved with the
    pseudoinverse, giving the stacked force x = [lambda; f].  Every guard
    row has margin at least `slack` at x.  An infeasible draw adds the pair
    a x <= b, -a x <= -0.5 - b, which caps every command's worst margin at
    -0.25.
    """
    instance, guard, T, n_av = random_force_assembly(rng, n_eq=n_eq)
    M_free, M_eta_f, rhs = _force_equalities(instance, guard, T, n_av)
    n_phi, n_u = instance.n_phi, instance.n_u
    eta_af = rng.uniform(-10.0, 10.0, M_eta_f.shape[1])
    f_free = np.linalg.pinv(M_free) @ (rhs - M_eta_f @ eta_af)
    eta = np.concatenate([f_free[n_phi : n_phi + n_u], eta_af, f_free[n_phi + n_u :]])
    x = np.concatenate([f_free[:n_phi], np.linalg.solve(T, eta)])
    Lambda = rng.standard_normal((n_rows, x.size))
    b_Lambda = Lambda @ x + rng.uniform(0.1, 1.0, n_rows)
    if infeasible:
        a = rng.standard_normal(x.size)
        b = float(a @ x + rng.uniform(-0.2, 0.2))
        Lambda = np.vstack([Lambda, a, -a])
        b_Lambda = np.concatenate([b_Lambda, [b, -0.5 - b]])
    guard = GuardConditions(Lambda, b_Lambda, guard.Gamma, guard.b_Gamma)
    return instance, guard, T, n_av
