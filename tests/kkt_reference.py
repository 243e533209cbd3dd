"""The force stage's KKT system solved by LU, kept as a test reference.

force_solver resolves the free forces from one thin SVD of M_free and never
builds the KKT system of min ||f_free||^2 s.t. M_free f_free = rhs -
M_eta_f eta_af.  This module builds that system and solves it with
np.linalg.solve, a route that shares no factorization with the solver, so
tests can check the SVD route against it.  Both take the rows (M_free,
M_eta_f, rhs): the solver's over [lambda; eta_av], given as (M_free,
-B[:, 1:], B[:, 0]) from its (M_free, B), or the verifier's full layout
over [lambda; eta_u; eta_av], which force_lp_oracle.py carries as
equality rows.
"""

from __future__ import annotations

import numpy as np

from hybridservo.errors import SingularSystem
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
