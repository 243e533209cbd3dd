"""Reference for the force stage: the margin LP over the whole KKT system.

The force stage solves its margin LP over [eta_af; s] only, with the free
forces substituted as an affine function of the command.  This module keeps
the earlier formulation, where the LP ranges over

    z = [f_free; f_dual; eta_af; s]

and carries the KKT system of the minimum-norm free forces as equality
rows, so tests can check that both give the same margin.  It solves with
scipy.optimize.linprog, a different HiGHS entry point from the solver's.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from hybridservo.errors import InfeasibleLP
from hybridservo.force_solver import assemble_newton, build_kkt
from hybridservo.model import GuardConditions, SystemInstance


def full_kkt_margin(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    n_av: int,
    f_max: float = 50.0,
    feasibility_tol: float = 1e-9,
) -> float:
    """Best worst guard margin; raises InfeasibleLP(margin=s) when s < -tol."""
    assembly = assemble_newton(instance, guard, T, n_av)
    K, rhs_const, rhs_map = build_kkt(assembly)
    r, m = assembly.M_free.shape
    n_phi, n_u, n_av, n_af, n = (
        assembly.n_phi, assembly.n_u, assembly.n_av, assembly.n_af, assembly.n
    )
    nz = m + r + n_af + 1
    af = slice(m + r, m + r + n_af)
    A_eq = np.zeros((m + r, nz))
    A_eq[:, : m + r] = K
    A_eq[:, af] = rhs_map

    # eta = E_free @ f_free + E_af @ eta_af
    E_free = np.zeros((n, m))
    E_free[:n_u, n_phi : n_phi + n_u] = np.eye(n_u)
    E_free[n_u + n_af :, n_phi + n_u :] = np.eye(n_av)
    E_af = np.zeros((n, n_af))
    E_af[n_u : n_u + n_af] = np.eye(n_af)

    if guard.n_ineq:
        f_rows = guard.Lambda[:, n_phi:] @ assembly.T_inv
        A_ub = np.zeros((guard.n_ineq, nz))
        A_ub[:, :n_phi] = guard.Lambda[:, :n_phi]
        A_ub[:, :m] += f_rows @ E_free
        A_ub[:, af] = f_rows @ E_af
        b_ub = guard.b_Lambda
    elif n_af:
        # No guard rows: the box rows |eta_af| <= f_max set the margin.
        A_ub = np.zeros((2 * n_af, nz))
        A_ub[:n_af, af] = np.eye(n_af)
        A_ub[n_af:, af] = -np.eye(n_af)
        b_ub = np.full(2 * n_af, f_max)
    else:
        A_ub = np.zeros((1, nz))
        b_ub = np.array([f_max])
    A_ub[:, -1] = 1.0

    bounds = [(None, None)] * (m + r) + [(-f_max, f_max)] * n_af + [(None, None)]
    c = np.zeros(nz)
    c[-1] = -1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=rhs_const, bounds=bounds, method="highs")
    if res.status == 2:
        raise InfeasibleLP("no force command satisfies the guard conditions")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    s = float(res.x[-1])
    if s < -feasibility_tol:
        raise InfeasibleLP(f"best achievable guard margin is {s:.6e}", margin=s)
    return s
