"""Force stage: solve for contact reactions and the force command.

In the action frame the quasi-static force balance reads

    T N^T lambda + eta + T F = 0,        eta = T f,

with the unactuated block of eta forced to zero (nothing actuates those
coordinates) and any guard equalities Gamma [lambda; f] = b_Gamma appended.
Everything except the force command eta_af is a "free" force the physics
determines: f_free = [lambda; eta_u; eta_av].  Given eta_af, the free
forces are resolved as the minimum-norm solution of the stacked equality
system, written as a KKT system.  That solution is affine in the command,
f_free = f0 + W eta_af, so one KKT solve with n_af + 1 right-hand sides
resolves every command at once, and the guard margins are affine as well:
b_Lambda - Lambda [lambda; f] = h - G eta_af.

The command therefore comes from two small LPs over the real decision
variables only.  Phase 1 maximizes the worst guard margin s over
[eta_af; s] subject to G eta_af + s <= h and |eta_af| <= f_max.  With at
least one guard row the margin is bounded because eta_af is boxed; with no
guard rows the box rows take the place of the guard rows and the margin
sits at the box bound.  With no force-controlled direction (n_af = 0)
there is nothing to choose and no LP is solved: the margin is min(h), or
f_max without guard rows.

The margin optimum can be degenerate (several commands achieve the same
worst margin), so phase 2 picks, among the margin-maximal commands, the one
of least actuator effort: it minimizes sum t over [eta_af; t] with the
margin pinned on the right-hand side, G eta_af <= h - s_target, and
-t <= f_act(eta_af) <= t for the actuated force in the original
coordinates.  That keeps the result deterministic and free of gratuitous
force components.  ForceSolution.effort_pass records whether phase 2 was
skipped (n_af = 0), refined the command, or fell back to the phase-1
vertex because it did not succeed.

Both LPs go to HiGHS through scipy.optimize.milp with no integer
variables, which spends less per call on input handling than linprog.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from . import subspace_linalg as sla
from .errors import InfeasibleLP, SingularSystem, SingularTransform
from .model import GuardConditions, SystemInstance, unactuated_selector

# Condition ceiling for the action-frame transform.
MAX_T_CONDITION = 1e10


@dataclass
class ForceSolverConfig:
    f_max: float = 50.0
    feasibility_tol: float = 1e-9


@dataclass
class NewtonAssembly:
    """Stacked force-balance equalities split by decision role.

    M_free multiplies f_free = [lambda; eta_u; eta_av], M_eta_f multiplies
    the force command eta_af, and rhs collects the constant side
    [0; -T F; b_Gamma].
    """

    M_free: np.ndarray
    M_eta_f: np.ndarray
    rhs: np.ndarray
    free_force_layout: list[str]
    T: np.ndarray
    T_inv: np.ndarray
    n_phi: int
    n_u: int
    n_av: int
    n_af: int
    n: int


@dataclass
class ForceSolution:
    eta_af: np.ndarray
    lam: np.ndarray
    eta: np.ndarray
    guard_margins: np.ndarray
    objective_margin: float
    effort_pass: str  # "skipped", "refined" or "fell_back"


def _check_transform(T: np.ndarray, n: int) -> np.ndarray:
    T = np.asarray(T, dtype=float)
    if T.shape != (n, n):
        raise ValueError(f"T must be {n} x {n}, got {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValueError("T contains non-finite entries")
    cond = np.linalg.cond(T)
    if not np.isfinite(cond) or cond >= MAX_T_CONDITION:
        raise SingularTransform(f"transform T is not invertible (cond {cond:.3e})")
    return np.linalg.solve(T, np.eye(n))


def assemble_newton(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    n_av: int,
) -> NewtonAssembly:
    """Stack the force-balance, unactuated-zero and guard-equality rows."""
    n, n_u = instance.n, instance.n_u
    n_phi = instance.n_phi
    n_af = instance.n_a - n_av
    if n_af < 0:
        raise ValueError("n_av exceeds the number of actuated dimensions")
    T = np.asarray(T, dtype=float)
    T_inv = _check_transform(T, n)

    H = unactuated_selector(n_u, n)
    rows_h = np.hstack([np.zeros((n_u, n_phi)), H @ T_inv])
    rows_newton = np.hstack([T @ instance.N.T, np.eye(n)])
    rows_gamma = np.hstack([guard.Gamma[:, :n_phi], guard.Gamma[:, n_phi:] @ T_inv])
    stacked = np.vstack([rows_h, rows_newton, rows_gamma])
    rhs = np.concatenate([np.zeros(n_u), -T @ instance.F, guard.b_Gamma])

    free_cols = (
        list(range(n_phi))
        + list(range(n_phi, n_phi + n_u))
        + list(range(n_phi + n_u + n_af, n_phi + n))
    )
    af_cols = list(range(n_phi + n_u, n_phi + n_u + n_af))
    layout = (
        [f"lambda[{i}]" for i in range(n_phi)]
        + [f"eta_u[{i}]" for i in range(n_u)]
        + [f"eta_av[{i}]" for i in range(n_av)]
    )
    return NewtonAssembly(
        M_free=stacked[:, free_cols],
        M_eta_f=stacked[:, af_cols],
        rhs=rhs,
        free_force_layout=layout,
        T=T,
        T_inv=T_inv,
        n_phi=n_phi,
        n_u=n_u,
        n_av=n_av,
        n_af=n_af,
        n=n,
    )


def build_kkt(assembly: NewtonAssembly):
    """KKT system for min ||f_free||^2 s.t. M_free f_free = rhs - M_eta_f eta_af.

    Returns (K, kkt_rhs_const, kkt_rhs_eta_map) with
    K @ [f_free; f_dual] = kkt_rhs_const - kkt_rhs_eta_map @ eta_af.
    """
    m = assembly.M_free.shape[1]
    r = assembly.M_free.shape[0]
    K = np.zeros((m + r, m + r))
    K[:m, :m] = 2.0 * np.eye(m)
    K[:m, m:] = assembly.M_free.T
    K[m:, :m] = assembly.M_free
    kkt_rhs_const = np.concatenate([np.zeros(m), assembly.rhs])
    kkt_rhs_eta_map = np.vstack([np.zeros((m, assembly.n_af)), assembly.M_eta_f])
    return K, kkt_rhs_const, kkt_rhs_eta_map


def solve_kkt(assembly: NewtonAssembly, eta_af: np.ndarray) -> np.ndarray:
    """Free forces for a fixed force command (minimum-norm resolution)."""
    K, rhs_const, rhs_map = build_kkt(assembly)
    x = sla.solve_square(K, rhs_const - rhs_map @ np.asarray(eta_af, dtype=float))
    return x[: assembly.M_free.shape[1]]


def _eta_maps(assembly: NewtonAssembly):
    """Selectors assembling eta = E_free @ f_free + E_af @ eta_af."""
    n, n_u, n_av, n_af, n_phi = (
        assembly.n,
        assembly.n_u,
        assembly.n_av,
        assembly.n_af,
        assembly.n_phi,
    )
    m = n_phi + n_u + n_av
    E_free = np.zeros((n, m))
    E_free[:n_u, n_phi : n_phi + n_u] = np.eye(n_u)
    E_free[n_u + n_af :, n_phi + n_u :] = np.eye(n_av)
    E_af = np.zeros((n, n_af))
    E_af[n_u : n_u + n_af, :] = np.eye(n_af)
    return E_free, E_af


def _affine_forces(assembly: NewtonAssembly):
    """(f0, W) with f_free = f0 + W @ eta_af, from one KKT solve."""
    K, rhs_const, rhs_map = build_kkt(assembly)
    x = sla.solve_square(K, np.column_stack([rhs_const, -rhs_map]))
    f_map = x[: assembly.M_free.shape[1]]
    return f_map[:, 0], f_map[:, 1:]


def _max_margin(G, h, f_max):
    """Phase 1: max s over [eta_af; s] s.t. G eta_af + s <= h, |eta_af| <= f_max."""
    n_af = G.shape[1]
    c = np.zeros(n_af + 1)
    c[-1] = -1.0
    res = milp(
        c,
        constraints=LinearConstraint(np.hstack([G, np.ones((G.shape[0], 1))]), -np.inf, h),
        bounds=Bounds(
            np.append(np.full(n_af, -f_max), -np.inf), np.append(np.full(n_af, f_max), np.inf)
        ),
    )
    if not res.success:
        raise SingularSystem(f"force LP failed: {res.message}")
    return res.x[:-1], float(res.x[-1])


def _least_effort_at_margin(G, h, a0, A1, s_star, f_max):
    """Among commands achieving the optimal margin, minimize actuator effort.

    The margin maximum is often degenerate: a whole face of commands can
    achieve the same worst margin, and the vertex the solver happens to
    return may carry force components the guards never asked for.  This
    second pass pins the margin just below the phase-one optimum and
    minimizes the l1 norm of the actuated generalized force
    f_act = a0 + A1 eta_af in the original coordinates, zeroing anything
    the guard rows do not demand.  Returns the refined command, or None when
    the refinement fails numerically (the phase-one vertex is then kept).
    """
    n_rows, n_af = G.shape
    n_act = A1.shape[0]
    s_target = s_star - 1e-9 * (1.0 + abs(s_star))
    eye = np.eye(n_act)
    A = np.block([[G, np.zeros((n_rows, n_act))], [A1, -eye], [A1, eye]])
    lb = np.concatenate([np.full(n_rows + n_act, -np.inf), -a0])
    ub = np.concatenate([h - s_target, -a0, np.full(n_act, np.inf)])
    c = np.concatenate([np.zeros(n_af), np.ones(n_act)])
    res = milp(
        c,
        constraints=LinearConstraint(A, lb, ub),
        bounds=Bounds(
            np.concatenate([np.full(n_af, -f_max), np.zeros(n_act)]),
            np.concatenate([np.full(n_af, f_max), np.full(n_act, np.inf)]),
        ),
    )
    if not res.success:
        return None
    return res.x[:n_af]


def solve_force(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    n_av: int,
    config: ForceSolverConfig | None = None,
) -> ForceSolution:
    """Maximize the worst guard margin over the force command eta_af."""
    cfg = config or ForceSolverConfig()
    assembly = assemble_newton(instance, guard, T, n_av)
    r = assembly.M_free.shape[0]
    if sla.numerical_rank(assembly.M_free) < r:
        raise SingularSystem(
            "equality rows are rank deficient; free forces are not uniquely determined"
        )
    n_af, n_phi = assembly.n_af, assembly.n_phi
    f0, W = _affine_forces(assembly)
    E_free, E_af = _eta_maps(assembly)
    eta0 = E_free @ f0
    eta_map = E_free @ W + E_af
    # The stacked force [lambda; f], f = T_inv eta, is x0 + X @ eta_af.
    x0 = np.concatenate([f0[:n_phi], assembly.T_inv @ eta0])
    X = np.vstack([W[:n_phi], assembly.T_inv @ eta_map])
    G = guard.Lambda @ X
    h = guard.b_Lambda - guard.Lambda @ x0
    if guard.n_ineq:
        G_lp, h_lp = G, h
    else:
        # No guard rows: let the box bounds define the margin.
        G_lp = np.vstack([np.eye(n_af), -np.eye(n_af)])
        h_lp = np.full(2 * n_af, cfg.f_max)

    if n_af:
        eta_af, s = _max_margin(G_lp, h_lp, cfg.f_max)
    else:
        eta_af = np.zeros(0)
        s = float(h_lp.min()) if h_lp.size else cfg.f_max
    if s < -cfg.feasibility_tol:
        raise InfeasibleLP(
            f"best achievable guard margin is {s:.6e}", margin=s
        )
    effort_pass = "skipped"
    if n_af:
        act = slice(n_phi + assembly.n_u, None)
        refined = _least_effort_at_margin(G_lp, h_lp, x0[act], X[act], s, cfg.f_max)
        if refined is None:
            effort_pass = "fell_back"
        else:
            eta_af, effort_pass = refined, "refined"
    return ForceSolution(
        eta_af=eta_af,
        lam=x0[:n_phi] + X[:n_phi] @ eta_af,
        eta=eta0 + eta_map @ eta_af,
        guard_margins=h - G @ eta_af,
        objective_margin=s,
        effort_pass=effort_pass,
    )
