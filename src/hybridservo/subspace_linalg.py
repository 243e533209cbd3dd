"""SVD-backed rank, null-space and least-squares primitives.

Every rank decision in this package goes through :func:`numerical_rank` so a
single relative-tolerance convention applies throughout.  Bases returned here
are always orthonormal, and zero-row or zero-column matrices are legal inputs
(rank 0, full null space).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentSystem, SingularSystem

DEFAULT_RANK_TOL = 1e-8

# Residual acceptance for linear solves, relative to 1 + ||b||.
RESIDUAL_TOL = 1e-8

# Condition-number ceiling for square solves.
MAX_CONDITION = 1e12


def _as_matrix(M, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {M.shape}")
    if M.size and not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _as_vector(b, name: str = "vector") -> np.ndarray:
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.size and not np.all(np.isfinite(b)):
        raise ValueError(f"{name} contains non-finite entries")
    return b


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis (as columns) for the null space of a source matrix."""

    basis: np.ndarray
    source_rank: int
    tolerance_used: float

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def numerical_rank(M, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above rel_tol times the largest singular value.

    A matrix of zeros (or with a zero dimension) has rank 0.
    """
    M = _as_matrix(M)
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def null_space_basis(M, rel_tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of {v : M v = 0}.

    The basis has cols(M) - rank(M) columns; for a full-column-rank input it
    is empty.  Right singular vectors below the rank cutoff are returned, so
    ||M @ basis|| is at machine-precision level relative to the largest
    singular value of M.
    """
    M = _as_matrix(M)
    n = M.shape[1]
    if M.size == 0:
        return SubspaceBasis(np.eye(n), 0, rel_tol)
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > rel_tol * s[0]))
    return SubspaceBasis(np.ascontiguousarray(vh[rank:].T), rank, rel_tol)


def min_norm_solution(A, b) -> np.ndarray:
    """Minimum-norm solution of A v = b.

    Raises InconsistentSystem when the residual exceeds
    RESIDUAL_TOL * (1 + ||b||).  The returned vector is orthogonal to the
    null space of A.
    """
    A = _as_matrix(A, "A")
    b = _as_vector(b, "b")
    if A.shape[0] != b.size:
        raise ValueError(f"A has {A.shape[0]} rows but b has {b.size} entries")
    if A.shape[0] == 0:
        return np.zeros(A.shape[1])
    v, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = np.linalg.norm(A @ v - b)
    if residual > RESIDUAL_TOL * (1.0 + np.linalg.norm(b)):
        raise InconsistentSystem(
            f"system has no solution: residual {residual:.3e} exceeds tolerance"
        )
    return v


def solve_square(A, b) -> np.ndarray:
    """Solve a square nonsingular system A v = b.

    b is a vector (n,) or a matrix (n, k) of k right-hand sides; the result
    has the shape of b.  One condition estimate and one LU factorization
    serve every column, and each column gets its own residual check.
    Raises SingularSystem when A is not square-solvable within a condition
    number of MAX_CONDITION or a column's residual exceeds
    RESIDUAL_TOL * (1 + ||b_j||).
    """
    A = _as_matrix(A, "A")
    b = _as_matrix(b, "b") if np.ndim(b) == 2 else _as_vector(b, "b")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"A has {A.shape[0]} rows but b has {b.shape[0]}")
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
