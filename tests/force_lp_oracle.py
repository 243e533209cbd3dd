"""Reference for the force stage: both LPs over the whole KKT system.

The force stage solves its LPs over the command eta_af only, with the free
forces substituted as an affine function of the command.  This module keeps
the earlier formulation, where the LPs range over

    z = [f_free; f_dual; eta_af; s]      (margin)
    z = [f_free; f_dual; eta_af; t]      (least effort)

and carry the KKT system of the minimum-norm free forces as equality rows,
so tests can check that both give the same margin and that the solver's
command takes no more actuator effort.  It solves with
scipy.optimize.linprog (HiGHS), which shares no code with the solver's
simplex.

Instances given to this oracle must keep every nonzero matrix entry above
1e-9 in magnitude.  HiGHS drops entries below its small_matrix_value of
1e-9, so on smaller ones it answers a different LP: on G = [[1e-5, 1e-10]]
it returns a least effort of 0.499905 where the true optimum, which the
simplex finds, is 0.4998999995 (see
test_force_solver.test_simplex_keeps_entries_below_pivot_tolerance).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from hybridservo.errors import InfeasibleLP
from hybridservo.force_solver import assemble_newton, build_kkt
from hybridservo.model import GuardConditions, SystemInstance


def _kkt_rows(instance, guard, T, n_av, f_max):
    """Rows over [f_free; f_dual; eta_af] and the bounds on those columns.

    Returns (A_eq, b_eq, A_g, b_g, A_act, bounds): the KKT equalities, the
    rows whose worst slack is the margin (the guard rows, or the box rows
    |eta_af| <= f_max without guard rows), and the map to the actuated force
    in the original coordinates.
    """
    assembly = assemble_newton(instance, guard, T, n_av)
    K, rhs_const, rhs_map = build_kkt(assembly)
    r, m = assembly.M_free.shape
    n_phi, n_u, n_av, n_af, n = (
        assembly.n_phi, assembly.n_u, assembly.n_av, assembly.n_af, assembly.n
    )
    nz = m + r + n_af
    af = slice(m + r, nz)
    A_eq = np.zeros((m + r, nz))
    A_eq[:, : m + r] = K
    A_eq[:, af] = rhs_map

    # f = T_inv eta with eta = E_free @ f_free + E_af @ eta_af
    E_free = np.zeros((n, m))
    E_free[:n_u, n_phi : n_phi + n_u] = np.eye(n_u)
    E_free[n_u + n_af :, n_phi + n_u :] = np.eye(n_av)
    E_af = np.zeros((n, n_af))
    E_af[n_u : n_u + n_af] = np.eye(n_af)
    A_f = np.zeros((n, nz))
    A_f[:, :m] = assembly.T_inv @ E_free
    A_f[:, af] = assembly.T_inv @ E_af

    if guard.n_ineq:
        A_g = guard.Lambda[:, n_phi:] @ A_f
        A_g[:, :n_phi] += guard.Lambda[:, :n_phi]
        b_g = guard.b_Lambda
    else:
        # No guard rows: the box rows |eta_af| <= f_max set the margin.
        A_g = np.zeros((2 * n_af, nz))
        A_g[:n_af, af] = np.eye(n_af)
        A_g[n_af:, af] = -np.eye(n_af)
        b_g = np.full(2 * n_af, f_max)
    bounds = [(None, None)] * (m + r) + [(-f_max, f_max)] * n_af
    return A_eq, rhs_const, A_g, b_g, A_f[n_u:], bounds


def full_kkt_margin(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    n_av: int,
    f_max: float = 50.0,
    feasibility_tol: float = 1e-9,
) -> float:
    """Best worst guard margin; raises InfeasibleLP(margin=s) when s < -tol."""
    A_eq, b_eq, A_g, b_g, _, bounds = _kkt_rows(instance, guard, T, n_av, f_max)
    if not b_g.size:
        # Nothing to hold a margin: one dummy row s <= f_max.
        A_g, b_g = np.zeros((1, A_eq.shape[1])), np.array([f_max])
    A_ub = np.hstack([A_g, np.ones((A_g.shape[0], 1))])
    c = np.zeros(A_ub.shape[1])
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_g,
        A_eq=np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))]),
        b_eq=b_eq,
        bounds=bounds + [(None, None)],
        method="highs",
    )
    if res.status == 2:
        raise InfeasibleLP("no force command satisfies the guard conditions")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    s = float(res.x[-1])
    if s < -feasibility_tol:
        raise InfeasibleLP(f"best achievable guard margin is {s:.6e}", margin=s)
    return s


def full_kkt_least_effort(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    n_av: int,
    f_max: float = 50.0,
) -> float:
    """Least l1 norm of the actuated force among margin-maximal commands.

    The margin is pinned as the solver pins it, s_target = s* -
    1e-9 (1 + |s*|), with s* from full_kkt_margin; raises InfeasibleLP as
    that does.
    """
    s_star = full_kkt_margin(instance, guard, T, n_av, f_max)
    s_target = s_star - 1e-9 * (1.0 + abs(s_star))
    A_eq, b_eq, A_g, b_g, A_act, bounds = _kkt_rows(instance, guard, T, n_av, f_max)
    n_act = A_act.shape[0]
    eye = np.eye(n_act)
    A_ub = np.block(
        [[A_g, np.zeros((A_g.shape[0], n_act))], [A_act, -eye], [-A_act, -eye]]
    )
    b_ub = np.concatenate([b_g - s_target, np.zeros(2 * n_act)])
    c = np.concatenate([np.zeros(A_eq.shape[1]), np.ones(n_act)])
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=np.hstack([A_eq, np.zeros((A_eq.shape[0], n_act))]),
        b_eq=b_eq,
        bounds=bounds + [(0.0, None)] * n_act,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)
