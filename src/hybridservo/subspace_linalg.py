"""SVD-backed rank, null-space and minimum-norm primitives of the solve path.

Every rank decision of the two solver stages applies one rule, singular
values above RANK_TOL times a reference size, by default the largest
singular value.  A :class:`Factorization`, made by :func:`factor`, serves
the rank, the null space and the minimum-norm map of a matrix from one
SVD.  The rank also decides consistency: with full row rank every
right-hand side has a solution, so only a rank-deficient solve tests its
residual, against RESIDUAL_TOL.  Null-space bases are orthonormal, and
zero-row or zero-column matrices are legal inputs (rank 0, full null
space).  The complement of a single row needs no SVD: :func:`row_complement`
builds it from one Householder reflector.  The verifier takes only
constants from here.  It scales each row of its stacks to unit norm,
takes its own SVD on np.linalg and ranks at the same RANK_TOL.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InconsistentSystem

# Relative rank tolerance of every rank decision, the solver's and the verifier's.
RANK_TOL = 1e-8

# Residual acceptance for rank-deficient linear solves, relative to 1 + ||b||.
RESIDUAL_TOL = 1e-8


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


class Factorization(NamedTuple):
    """SVD M = u @ diag(s) @ vh of a source matrix and its numerical rank.

    One factorization serves the rank, the null space and the minimum-norm
    map V S^-1 U^T over the kept singular values.  It is immutable.
    """

    matrix: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    rank: int

    def null_space(self) -> np.ndarray:
        """Orthonormal columns spanning {v : M v = 0}."""
        return np.ascontiguousarray(self.vh[self.rank :].T)

    def min_norm(self, B) -> np.ndarray:
        """Minimum-norm solution X of M X = B over the kept singular values.

        B is a vector (m,) or a matrix (m, k) of k right-hand sides; X has
        the matching shape.  With full row rank (rank = m) the system is
        consistent for every B, so no residual is formed: only a non-finite
        X raises InconsistentSystem.  With rows dropped, InconsistentSystem
        is raised when a column's residual exceeds RESIDUAL_TOL * (1 +
        ||b_j||), or is not finite.
        """
        B = np.asarray(B, dtype=float)
        if B.ndim not in (1, 2) or B.shape[0] != self.matrix.shape[0]:
            raise ValueError(f"M has {self.matrix.shape[0]} rows but B has shape {B.shape}")
        k = self.rank
        X = (self.vh[:k].T / self.s[:k]) @ (self.u[:, :k].T @ B)
        if k == B.shape[0]:
            if not np.isfinite(X).all():
                raise InconsistentSystem("system has no finite solution: the solve overflows")
            return X
        R = self.matrix @ X - B
        residual = np.sqrt((R * R).sum(axis=0))
        limit = RESIDUAL_TOL * (1.0 + np.sqrt((B * B).sum(axis=0)))
        # A residual of inf passes "<= limit" when the limit overflows too.
        if not (np.isfinite(residual).all() and (residual <= limit).all()):
            raise InconsistentSystem(
                f"system has no solution: residual {np.max(residual):.3e} exceeds tolerance"
            )
        return X


def factor(M, *, scale: float | None = None) -> Factorization:
    """One full SVD of M with the rank cutoff relative to scale (default:
    M's largest singular value).  It keeps every right singular vector, so
    the null space is the rows of vh past the rank.  A matrix with a zero
    dimension has rank 0 and a full null space.
    """
    M = _as_matrix(M)
    if M.size == 0:
        r, c = M.shape
        return Factorization(M, np.eye(r), np.zeros(0), np.eye(c), 0)
    u, s, vh = np.linalg.svd(M)
    return Factorization(M, u, s, vh, _rank(s, scale))


def row_complement(k: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the complement of the nonzero row k.

    They are rows 2..n of the Householder reflector H = I - tau v v^T with
    H k = beta e_1, beta = -sign(k_0) ||k||, tau = (beta - k_0) / beta and
    v = [1; k_{1:} / (k_0 - beta)] (Golub & Van Loan, Matrix Computations,
    5.1; LAPACK's dlarfg, k_0 = -0.0 counting as negative).  That is the
    reflector LAPACK reduces a 1 x n matrix with, so the rows match the
    trailing rows of np.linalg.svd(k[None])[2] to round-off, without an SVD.
    k_0 - beta = sign(k_0) (|k_0| + ||k||) does not cancel, and math.hypot
    neither overflows nor underflows.  When k_{1:} = 0, H = I (dlarfg's
    tau = 0) and the rows are e_2..e_n.
    """
    k0, *rest = k.tolist()
    if any(rest):
        beta = -math.copysign(math.hypot(k0, *rest), k0)
        v = k / (k0 - beta)
        v[0] = 1.0
        H = np.multiply.outer(v[1:], v * ((k0 - beta) / beta))  # -tau v_i v_j
    else:
        H = np.zeros((k.size - 1, k.size))
    H.ravel()[1 :: k.size + 1] += 1.0
    return H
