"""The force stage's KKT system solved by LU, kept as a test reference.

force_solver resolves the free forces from one thin SVD of M_free and never
builds the KKT system of min ||f_free||^2 s.t. M_free f_free = rhs -
M_eta_f eta_af.  This module builds that system and solves it with
np.linalg.solve, a route that shares no factorization with the solver, so
tests can check the SVD route against it.  Both take the rows (M_free,
M_eta_f, rhs): the solver's over [lambda; eta_av], given as (M_free,
-B[:, 1:], B[:, 0]) from its (M_free, B), or those of force_equalities,
which rebuilds the force balance on its own in the full layout
[lambda; eta_u; eta_av] and which force_lp_oracle.py carries as equality
rows and force_grid_oracle.py resolves by pseudoinverse.
"""

from __future__ import annotations

import numpy as np

from hybridservo.errors import SingularSystem
from hybridservo.model import GuardConditions, SystemInstance
from hybridservo.subspace_linalg import RESIDUAL_TOL

# Condition-number ceiling of the LU reference solve.
MAX_CONDITION = 1e12


def solve_square(A, b) -> np.ndarray:
    """Solve a square nonsingular system A v = b.

    b is a vector (n,) or a matrix (n, k) of k right-hand sides; the result
    has the shape of b.  One condition estimate and one LU factorization
    serve every column, and each column gets its own residual check.
    Raises SingularSystem when A is not square-solvable within a condition
    number of MAX_CONDITION or a column's residual exceeds
    RESIDUAL_TOL * (1 + ||b_j||).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.shape[0] == 0:
        return np.zeros(b.shape)
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond >= MAX_CONDITION:
        raise SingularSystem(f"matrix is singular or ill-conditioned (cond {cond:.3e})")
    try:
        v = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    residual = np.linalg.norm(A @ v - b, axis=0)
    limit = RESIDUAL_TOL * (1.0 + np.linalg.norm(b, axis=0))
    if np.any(residual > limit):
        raise SingularSystem(
            f"solution residual {np.max(residual):.3e} exceeds tolerance; matrix nearly singular"
        )
    return v


def build_kkt(M_free, M_eta_f, rhs):
    """KKT system for min ||f_free||^2 s.t. M_free f_free = rhs - M_eta_f eta_af.

    Returns (K, kkt_rhs_const, kkt_rhs_eta_map) with
    K @ [f_free; f_dual] = kkt_rhs_const - kkt_rhs_eta_map @ eta_af.
    """
    r, m = M_free.shape
    K = np.zeros((m + r, m + r))
    K[:m, :m] = 2.0 * np.eye(m)
    K[:m, m:] = M_free.T
    K[m:, :m] = M_free
    kkt_rhs_const = np.concatenate([np.zeros(m), rhs])
    kkt_rhs_eta_map = np.vstack([np.zeros((m, M_eta_f.shape[1])), M_eta_f])
    return K, kkt_rhs_const, kkt_rhs_eta_map


def solve_kkt(M_free, M_eta_f, rhs, eta_af: np.ndarray) -> np.ndarray:
    """Free forces for a fixed force command (minimum-norm resolution)."""
    K, rhs_const, rhs_map = build_kkt(M_free, M_eta_f, rhs)
    x = solve_square(K, rhs_const - rhs_map @ np.asarray(eta_af, dtype=float))
    return x[: M_free.shape[1]]


def force_equalities(instance: SystemInstance, guard: GuardConditions, T: np.ndarray, n_av: int):
    """Independent reconstruction of the force-stage equality system.

    Returns (M_free, M_eta_f, rhs) over the unknowns [lambda; eta_u;
    eta_av] and eta_af, mirroring the physics without importing the solver
    assembly.  It takes any invertible T and pins eta_u = 0 with rows of
    its own, where the solver assumes T^-1 = T^T and drops eta_u, so the
    oracles built on it also check that elimination.
    """
    n, n_u, n_phi = instance.n, instance.n_u, instance.n_phi
    n_af = instance.n_a - n_av
    T = np.asarray(T, dtype=float)
    T_inv = np.linalg.inv(T)
    stacked = np.vstack(
        [
            np.hstack([np.zeros((n_u, n_phi)), T_inv[:n_u]]),
            np.hstack([T @ instance.N.T, np.eye(n)]),
            np.hstack([guard.Gamma[:, :n_phi], guard.Gamma[:, n_phi:] @ T_inv]),
        ]
    )
    rhs = np.concatenate([np.zeros(n_u), -T @ instance.F, guard.b_Gamma])
    free = list(range(n_phi + n_u)) + list(range(n_phi + n_u + n_af, n_phi + n))
    af = list(range(n_phi + n_u, n_phi + n_u + n_af))
    return stacked[:, free], stacked[:, af], rhs
