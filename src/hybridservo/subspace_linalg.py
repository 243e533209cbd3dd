"""SVD-backed rank, null-space and least-squares primitives.

Every rank decision in this package applies one rule, singular values above
rel_tol times the largest, through :func:`factor` or :func:`numerical_rank`,
so a single relative-tolerance convention applies throughout.  A
:class:`Factorization` serves the rank, the null space and the minimum-norm
map of a matrix from one SVD.  Bases returned here are always orthonormal,
and zero-row or zero-column matrices are legal inputs (rank 0, full null
space).
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
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _as_vector(b, name: str = "vector") -> np.ndarray:
    b = np.asarray(b, dtype=float).reshape(-1)
    if not np.isfinite(b).all():
        raise ValueError(f"{name} contains non-finite entries")
    return b


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis (as columns) for the null space of a source matrix."""

    basis: np.ndarray
    source_rank: int

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _rank(s: np.ndarray, rel_tol: float) -> int:
    """The package's rank rule: count singular values above rel_tol * s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


@dataclass(frozen=True)
class Factorization:
    """SVD M = u @ diag(s) @ vh of a source matrix and its numerical rank.

    One factorization serves the rank, the null space and the minimum-norm
    map V S^-1 U^T over the kept singular values.
    """

    matrix: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    rank: int

    def null_space(self) -> SubspaceBasis:
        """Orthonormal basis of {v : M v = 0}; needs full_matrices=True."""
        basis = np.ascontiguousarray(self.vh[self.rank :].T)
        return SubspaceBasis(basis, self.rank)

    def min_norm(self, B) -> np.ndarray:
        """Minimum-norm solution X of M X = B over the kept singular values.

        B is a vector (m,) or a matrix (m, k) of k right-hand sides; X has
        the matching shape.  Raises InconsistentSystem when a column's
        residual exceeds RESIDUAL_TOL * (1 + ||b_j||), or is not finite.
        """
        B = np.asarray(B, dtype=float)
        if B.ndim not in (1, 2) or B.shape[0] != self.matrix.shape[0]:
            raise ValueError(f"M has {self.matrix.shape[0]} rows but B has shape {B.shape}")
        k = self.rank
        X = (self.vh[:k].T / self.s[:k]) @ (self.u[:, :k].T @ B)
        R = self.matrix @ X - B
        residual = np.sqrt((R * R).sum(axis=0))
        limit = RESIDUAL_TOL * (1.0 + np.sqrt((B * B).sum(axis=0)))
        if not np.all(residual <= limit):
            raise InconsistentSystem(
                f"system has no solution: residual {np.max(residual):.3e} exceeds tolerance"
            )
        return X


def factor(M, rel_tol: float = DEFAULT_RANK_TOL, full_matrices: bool = True) -> Factorization:
    """One SVD of M with the package's rank rule applied.

    full_matrices=True keeps every right singular vector, as the null space
    needs; the thin form suffices for the minimum-norm map.  A matrix with a
    zero dimension has rank 0 and a full null space.
    """
    M = _as_matrix(M)
    r, c = M.shape
    if M.size == 0:
        u = np.eye(r) if full_matrices else np.zeros((r, 0))
        vh = np.eye(c) if full_matrices else np.zeros((0, c))
        return Factorization(M, u, np.zeros(0), vh, 0)
    u, s, vh = np.linalg.svd(M, full_matrices=full_matrices)
    return Factorization(M, u, s, vh, _rank(s, rel_tol))


def numerical_rank(M, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above rel_tol times the largest singular value.

    The same rule as factor's, without the singular vectors.  A matrix of
    zeros (or with a zero dimension) has rank 0.
    """
    M = _as_matrix(M)
    if M.size == 0:
        return 0
    return _rank(np.linalg.svd(M, compute_uv=False), rel_tol)


def null_space_basis(M, rel_tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Orthonormal basis of {v : M v = 0}.

    The basis has cols(M) - rank(M) columns; for a full-column-rank input it
    is empty.  Right singular vectors below the rank cutoff are returned, so
    ||M @ basis|| is at machine-precision level relative to the largest
    singular value of M.
    """
    return factor(M, rel_tol).null_space()


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
