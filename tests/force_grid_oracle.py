"""Brute-force reference for the force stage's margin: a grid over the command.

brute_force_force_oracle evaluates the worst guard margin at every point of
a grid over |eta_af| <= f_max and keeps the best.  The free forces come from
the pseudoinverse of kkt_reference's full-layout equalities, which shares no
code with the solver's single-SVD map, and no LP is solved, so acceptance
criterion 6 checks the LP margin against it.
"""

from __future__ import annotations

import numpy as np

from hybridservo.model import GuardConditions, SystemInstance

from kkt_reference import force_equalities


def brute_force_force_oracle(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    n_av: int,
    grid_resolution: float = 0.25,
    f_max: float = 50.0,
):
    """Best worst-case guard margin over a grid of force commands.

    For each grid point eta_af the free forces are resolved with the
    pseudoinverse projection (independent of the solver's KKT route); the
    margins are affine in eta_af so the whole grid is evaluated at once.
    Returns (best_margin, best_eta_af).
    """
    n_af = instance.n_a - n_av
    M_free, M_eta_f, rhs = force_equalities(instance, guard, T, n_av)
    if n_af > 3:
        raise ValueError("grid oracle supports at most three force command axes")
    pinv = np.linalg.pinv(M_free)
    f0 = pinv @ rhs
    W = -pinv @ M_eta_f

    n, n_u, n_phi = instance.n, instance.n_u, instance.n_phi
    T_inv = np.linalg.inv(np.asarray(T, dtype=float))

    # Margins as affine functions of eta_af through [lambda; T^-1 eta].
    m_free = n_phi + n_u + n_av
    E_free = np.zeros((n, m_free))
    E_free[:n_u, n_phi : n_phi + n_u] = np.eye(n_u)
    E_free[n_u + n_af :, n_phi + n_u :] = np.eye(n_av)
    E_af = np.zeros((n, n_af))
    E_af[n_u : n_u + n_af, :] = np.eye(n_af)
    S_lam = np.zeros((n_phi, m_free))
    S_lam[:, :n_phi] = np.eye(n_phi)

    stack_const = np.concatenate([S_lam @ f0, T_inv @ E_free @ f0])
    stack_lin = np.vstack([S_lam @ W, T_inv @ (E_free @ W + E_af)])

    if n_af == 0:
        grid = np.zeros((1, 0))
    else:
        axis = np.arange(-f_max, f_max + 0.5 * grid_resolution, grid_resolution)
        mesh = np.meshgrid(*([axis] * n_af), indexing="ij")
        grid = np.stack([m.reshape(-1) for m in mesh], axis=1)

    if guard.n_ineq:
        margin_const = guard.b_Lambda - guard.Lambda @ stack_const
        margin_lin = -guard.Lambda @ stack_lin
        margins = margin_const[None, :] + grid @ margin_lin.T
        worst = margins.min(axis=1)
    else:
        # Match the solver's convention: the box bound defines the margin.
        worst = f_max - (np.abs(grid).max(axis=1) if n_af else np.zeros(1))
    best = int(np.argmax(worst))
    return float(worst[best]), grid[best]
