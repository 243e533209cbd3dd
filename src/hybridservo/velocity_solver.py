"""Velocity stage: decide which actuated directions to velocity-control.

Given N v = 0 and the goal G v = b_G, the solver picks the smallest number
of velocity commands that still pins the goal down, then chooses the
command directions.  Each command row c lives in the actuated coordinates
(zero unactuated prefix) and must annihilate null([N; G]) so that the
commanded value C v is the same for every velocity compatible with the
constraints and the goal.  Among those candidates we prefer rows that are
mutually independent and as close to null(N) as possible, so commanding
them fights the constraints as little as possible:

    cost(C) = sum_{i != j} |c_i . c_j| - sum_i ||NullN^T c_i||

The minimum has a closed form (see optimal_directions), so the rows come
from one SVD and at most n_av - 1 plane rotations, with no search.

Each matrix is factored once per solve, by the null-space method (Nocedal
& Wright, Numerical Optimization, 2nd ed., 16.2).  One SVD of N gives
rank(N) and the orthonormal NullN, so one SVD of the small G NullN gives
n_av = rank(G NullN), null([N; G]) = NullN null(G NullN) for the candidate
basis and the minimum-norm velocity v_star = NullN (G NullN)^+ b_G that
fixes the command magnitudes b_C = C v_star.  The only other
factorizations are the candidate basis, the direction SVD (whose singular
values also decide that the rows pin the goal down) and null(R_C) for the
action frame.  Every cutoff is the fixed relative tolerance sla.RANK_TOL,
the one the verifier ranks at.  No rank cutoff compares N's units with
G's: G NullN is ranked against ||G||_F (a goal repeating a constraint adds
no rank), the candidate basis's and the direction SVD's cosines against 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import subspace_linalg as sla
from .errors import (
    EmptyBasis,
    InconsistentGoal,
    InconsistentSystem,
    InfeasibleDimensions,
    NumericOverflow,
    SingularTransform,
)
from .model import SystemInstance


@dataclass
class VelocitySolution:
    """Velocity commands plus the action-frame transform they induce.

    C stacks the command rows (n_av x n), b_C their magnitudes.  R_a is the
    actuated-frame rotation whose last n_av rows are the velocity-controlled
    axes, and T = diag(I_{n_u}, R_a).
    """

    C: np.ndarray
    b_C: np.ndarray
    T: np.ndarray
    R_a: np.ndarray
    n_av: int
    cost: float


def candidate_basis(null_ng: np.ndarray, n_u: int, n_av: int) -> np.ndarray:
    """Orthonormal columns spanning the admissible command rows.

    A command row c must have zero unactuated prefix and annihilate every
    column of null_ng, an orthonormal basis of null([N; G]).  The basis is
    built in the actuated coordinates, so the prefix is exactly zero.
    Raises EmptyBasis when fewer candidate directions exist than velocity
    commands are needed; that takes round-off, because in exact arithmetic
    there are at least r_NG + n_a - n >= n_av of them once r_N + n_a >= n.
    """
    # Actuated part only, sigma_a^T c_a = 0; sigma_a's singular values are cosines (<= 1).
    basis_a = sla.factor(null_ng[n_u:, :].T, scale=1.0).null_space()
    n_c = basis_a.shape[1]
    if n_c < n_av:
        raise EmptyBasis(
            f"candidate space has {n_c} directions but {n_av} velocity commands are needed"
        )
    B_c = np.zeros((null_ng.shape[0], n_c))
    B_c[n_u:, :] = basis_a
    return B_c


def direction_cost(k: np.ndarray, A: np.ndarray) -> float:
    """Cost of the command rows C = (B_c k)^T, from k and A = NullN^T B_c.

    B_c has orthonormal columns, so C C^T = k^T k and NullN^T C^T = A k:
    neither C nor its projection needs forming.
    """
    gram = k.T @ k
    cross = float(np.abs(gram).sum() - np.abs(np.diag(gram)).sum())
    proj = A @ k
    return cross - float(np.sqrt((proj * proj).sum(axis=0)).sum())


def optimal_directions(A: np.ndarray, n_av: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimizer k (n_c x n_av, orthonormal columns) of the direction cost,
    and the singular values sigma of A; A k has the top n_av of them.

    With A = NullN^T B_c and both bases orthonormal, c_i = B_c k_i is unit
    exactly when k_i is, and the cost reads

        cost(K) = x - sum_i ||A k_i||,   x = sum_{i != j} |H_ij|,  H = K^T K.

    The columns are the top n_av right singular vectors of A, rotated by
    n_av - 1 Givens rotations (the Schur-Horn construction) so that every
    ||A k_i||^2 equals their mean S / n_av, S = sum_{i <= n_av} sigma_i^2.
    They stay orthonormal, so x = 0 and cost = -sqrt(n_av * S); for
    n_av = 1 that is -sigma_1 at the top right singular vector.

    No set of unit rows does better when n_av <= 16.  Write n = n_av and
    let lambda_1 >= ... >= lambda_n be the eigenvalues of H.  Cauchy-Schwarz
    and von Neumann's trace inequality give

        sum_i ||A k_i|| <= sqrt(n * tr(A^T A K K^T))
                        <= sqrt(n * sum_i lambda_i sigma_i^2).

    With lambda_i = 1 + e_i and sum_i e_i = tr(H) - n = 0, the positive
    parts of e sum to ||H - I||_* / 2 <= x / 2 (H - I has a zero diagonal,
    and each pair (i, j) adds a rank-2 piece of nuclear norm 2 |H_ij|).  So
    sum_i lambda_i sigma_i^2 <= S + sigma_1^2 x / 2.  If S = 0 the cost is
    x >= 0; otherwise concavity of the square root, sigma_1^2 <= S and
    sigma_1 <= 1 (A is a product of orthonormal bases) give

        sum_i ||A k_i|| <= sqrt(nS) + x sqrt(n) sigma_1^2 / (4 sqrt(S))
                        <= sqrt(nS) + x sqrt(n) / 4,

    hence cost >= -sqrt(nS) + x (1 - sqrt(n) / 4) >= -sqrt(nS) for n <= 16.
    Ties between repeated singular values are broken by the SVD itself,
    which is deterministic for a given A.
    """
    _, sigma, vh = np.linalg.svd(A, full_matrices=False)
    K = vh[:n_av].T.copy()
    d = sigma[:n_av] ** 2
    mean = float(d.sum()) / n_av
    # Column `carry` holds the surplus; the other untouched columns keep
    # their descending d.  Rotating carry with one of them sets one column
    # to the mean, and the pair's A-images stay orthogonal to every other
    # untouched column, so each rotation is a plain 2 x 2 diagonal case.
    carry = 0
    untouched = list(range(1, n_av))
    while untouched:
        j = untouched.pop(-1 if d[carry] >= mean else 0)
        gap = d[carry] - d[j]
        cos2 = min(max((mean - d[j]) / gap, 0.0), 1.0) if gap != 0.0 else 1.0
        c, s = np.sqrt(cos2), np.sqrt(1.0 - cos2)
        K[:, carry], K[:, j] = c * K[:, carry] + s * K[:, j], c * K[:, j] - s * K[:, carry]
        d[j] = d[carry] + d[j] - mean
        d[carry] = mean
        carry = j
    return K, sigma


def solve_velocity(instance: SystemInstance) -> VelocitySolution:
    """Pick velocity-controlled directions and magnitudes for one instance.

    Each row of C is signed so that its command value b_C_i is >= 0; a
    row with b_C_i == 0 gets a positive first nonzero entry.  Raises
    SingularTransform when the rows do not pin the goal down:
    rank [N; C] = r_N + rank(A k) must equal rank [N; G] = r_N + n_av.
    Raises NumericOverflow when ||G||_F or ||b_G|| overflows, which would
    otherwise rank G NullN at 0 and report a conflicting goal.
    """
    n, n_u, n_a = instance.n, instance.n_u, instance.n_a
    f_N = sla.factor(instance.N)
    r_N = f_N.rank
    if r_N + n_a < n:
        raise InfeasibleDimensions(
            f"rank(N) = {r_N} with n_a = {n_a} cannot determine all {n} velocities"
        )
    NullN = f_N.null_space()
    # np.linalg.norm(b_G) is the square root of b_G @ b_G: inf exactly when that is.
    g_scale = float(np.linalg.norm(instance.G))
    if not math.isfinite(g_scale + float(instance.b_G @ instance.b_G)):
        raise NumericOverflow(
            "velocity stage: overflow in the goal scale; the input is out of range"
        )
    f_GN = sla.factor(instance.G @ NullN, scale=g_scale)
    n_av = f_GN.rank
    try:
        v_star = NullN @ f_GN.min_norm(instance.b_G)
    except InconsistentSystem as exc:
        raise InconsistentGoal(
            "goal velocity conflicts with the holonomic constraints"
        ) from exc

    if n_av == 0:
        return VelocitySolution(
            C=np.zeros((0, n)),
            b_C=np.zeros(0),
            T=np.eye(n),
            R_a=np.eye(n_a),
            n_av=0,
            cost=0.0,
        )

    B_c = candidate_basis(NullN @ f_GN.null_space(), n_u, n_av)
    A = NullN.T @ B_c
    k, sigma = optimal_directions(A, n_av)
    if not sigma[n_av - 1] > sla.RANK_TOL:
        raise SingularTransform("command rows are not independent modulo the constraints")
    C = (B_c @ k).T
    b_C = C @ v_star
    for i in range(n_av):
        lead = b_C[i] if b_C[i] != 0.0 else C[i, np.flatnonzero(C[i])[0]]
        if lead < 0.0:
            C[i], b_C[i] = -C[i], -b_C[i]
    R_C = C[:, n_u:]
    R_a = np.concatenate([sla.factor(R_C).null_space().T, R_C])
    T = np.eye(n)
    T[n_u:, n_u:] = R_a
    return VelocitySolution(
        C=C,
        b_C=b_C,
        T=T,
        R_a=R_a,
        n_av=n_av,
        cost=direction_cost(k, A),
    )
