"""SVD-backed rank, null-space and minimum-norm primitives of the solve path.

Every rank decision of the two solver stages applies one rule, singular
values above RANK_TOL times a reference size, by default the largest
singular value.  A :class:`Factorization`, made by :func:`factor`, serves
the rank, the null space and the minimum-norm map of a matrix from one
SVD.  Null-space bases are orthonormal, and zero-row or zero-column
matrices are legal inputs (rank 0, full null space).  The verifier takes
only constants from here.  It scales each row of its stacks to unit norm,
takes its own SVD on np.linalg and ranks at the same RANK_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentSystem

# Relative rank tolerance of every rank decision, the solver's and the verifier's.
RANK_TOL = 1e-8

# Residual acceptance for linear solves, relative to 1 + ||b||.
RESIDUAL_TOL = 1e-8

# Condition-number ceiling for the force stage's KKT system.
MAX_CONDITION = 1e12


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"matrix must be two-dimensional, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    return M


def _rank(s: np.ndarray, scale: float | None) -> int:
    """The package's rank rule: count singular values above RANK_TOL * scale."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * (s[0] if scale is None else scale)))


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

    def null_space(self) -> np.ndarray:
        """Orthonormal columns spanning {v : M v = 0}; needs full_matrices=True."""
        return np.ascontiguousarray(self.vh[self.rank :].T)

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
        # A residual of inf passes "<= limit" when the limit overflows too.
        if not (np.isfinite(residual).all() and np.all(residual <= limit)):
            raise InconsistentSystem(
                f"system has no solution: residual {np.max(residual):.3e} exceeds tolerance"
            )
        return X


def factor(M, *, full_matrices: bool = True, scale: float | None = None) -> Factorization:
    """One SVD of M with the rank cutoff relative to scale (default: M's
    largest singular value).  full_matrices=True keeps every right singular
    vector, as the null space needs; the thin form suffices for the
    minimum-norm map.  A matrix with a zero dimension has rank 0 and a full
    null space.
    """
    M = _as_matrix(M)
    r, c = M.shape
    if M.size == 0:
        u = np.eye(r) if full_matrices else np.zeros((r, 0))
        vh = np.eye(c) if full_matrices else np.zeros((0, c))
        return Factorization(M, u, np.zeros(0), vh, 0)
    u, s, vh = np.linalg.svd(M, full_matrices=full_matrices)
    return Factorization(M, u, s, vh, _rank(s, scale))

