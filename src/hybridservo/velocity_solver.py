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

The minimum has a closed form (see optimal_directions and, at n_av = 1,
solve_velocity): at most one SVD and n_av - 1 plane rotations, no search.

Each matrix is factored at most once per solve, by the null-space method
(Nocedal & Wright, Numerical Optimization, 2nd ed., 16.2).  One SVD of N
gives rank(N) and the orthonormal NullN; one SVD of the small G NullN gives
n_av = rank(G NullN), null([N; G]) = NullN null(G NullN) for the candidate
basis and the minimum-norm v_star = NullN (G NullN)^+ b_G that fixes the
magnitudes b_C = C v_star.  The others are the candidate basis, the
direction SVD at n_av >= 2 and null(R_C).  A single column or row needs no
SVD (Golub & Van Loan, Matrix Computations, 5.1): its singular value is its
norm, its singular vector its direction, and the complement of the one
command row R_C at n_av = 1 is a Householder reflector
(sla.row_complement).  With one free motion z in null(N), as on every
tilting step, G NullN is the column G z and B_c the actuated identity: only
N is factored.  With one goal row, G NullN is a row g and null(g) is
spanned by the columns of I - vh_0 vh_0^T, vh_0 = g / ||g||: N and the
candidate basis are factored.  Every cutoff is the verifier's relative
tolerance sla.RANK_TOL.  No rank cutoff compares N's
units with G's, or one goal row's with another's: each row of G is scaled
to unit norm with its b_G entry, and G NullN is ranked against ||G||_F (a
goal repeating a constraint adds no rank), the other SVDs' cosines against 1.
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

    C stacks the command rows (n_av x n), b_C their magnitudes.  T =
    diag(I_{n_u}, R_a), where the actuated-frame rotation R_a has the
    velocity-controlled axes as its last n_av rows and the force axes as its
    first n_a - n_av.  At n_av = 1 the force axes are the Householder
    complement of the command row (sla.row_complement), a function of that
    row alone; at n_av >= 2 they are the null-space basis that LAPACK's SVD
    of the command rows returns.
    """

    C: np.ndarray
    b_C: np.ndarray
    T: np.ndarray
    cost: float

    @property
    def n_av(self) -> int:
        return self.C.shape[0]


def candidate_basis(null_ng: np.ndarray, n_u: int, n_av: int) -> np.ndarray:
    """Orthonormal columns spanning the admissible command rows.

    A command row c must have zero unactuated prefix and annihilate every
    column of null_ng, whose columns span null([N; G]) with singular values
    1 and 0: an orthonormal basis, or NullN times an orthogonal projector.
    The basis is built in the actuated coordinates, so the prefix is
    exactly zero.
    Raises EmptyBasis when fewer candidate directions exist than velocity
    commands are needed; that takes round-off, because in exact arithmetic
    there are at least r_NG + n_a - n >= n_av of them once r_N + n_a >= n.
    """
    n, basis_a = null_ng.shape[0], None
    n_c = n - n_u
    if null_ng.shape[1]:
        # Actuated part only, sigma_a^T c_a = 0; sigma_a's singular values are cosines (<= 1).
        basis_a = sla.factor(null_ng[n_u:, :].T, scale=1.0).null_space()
        n_c = basis_a.shape[1]
    if n_c < n_av:
        raise EmptyBasis(
            f"candidate space has {n_c} directions but {n_av} velocity commands are needed"
        )
    B_c = np.zeros((n, n_c))
    if basis_a is None:  # nothing to annihilate: the actuated unit vectors
        B_c.ravel()[n_u * n_c :: n_c + 1] = 1.0
    else:
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
    They stay orthonormal, so x = 0 and cost = -sqrt(n_av * S).  (At
    n_av = 1 that is -sigma_1, which solve_velocity takes in closed form.)

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

    The rotations mix the columns, so each column's sign must be fixed
    first, and not by LAPACK: v_i is signed so that the largest-magnitude
    entry of u_i = A v_i / sigma_i is positive, the first on ties.  u_i is
    the direction c_i = B_c v_i seen through NullN^T, a basis that depends on
    N alone, so another orthonormal basis B_c Q of the same candidate space,
    as a rescaled or reordered goal gives, yields the same rows wherever the
    top n_av singular values are distinct.
    """
    u, sigma, vh = np.linalg.svd(A, full_matrices=False)
    u = u[:, :n_av]
    lead = u[np.abs(u).argmax(axis=0), np.arange(n_av)]
    K = vh[:n_av].T * np.where(lead < 0.0, -1.0, 1.0)
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

    At n_av = 1, null(N) = null([N; G]) + span(NullN vh_0), vh_0 the top right
    singular vector of G NullN.  B_c is orthogonal to null([N; G]), so A =
    vh_0 a^T, a = A^T vh_0: sigma_1 = ||a||, k = a / ||a|| and the cost is
    -sigma_1 (Golub & Van Loan, 2.4).
    C, b_C, T and cost then depend on the candidate space, not on the basis
    B_c of it that an SVD returns.

    Each row of C is signed so that its command value b_C_i is >= 0; a
    row with b_C_i == 0 gets a positive first nonzero entry.  Raises
    SingularTransform when the rows do not pin the goal down:
    rank [N; C] = r_N + rank(A k) must equal rank [N; G] = r_N + n_av.
    Raises NumericOverflow when ||G||_F, or ||b_G|| on the unit goal rows,
    overflows.
    """
    n, n_u, n_a = instance.n, instance.n_u, instance.n_a
    f_N = sla.factor(instance.N)
    r_N = f_N.rank
    if r_N + n_a < n:
        raise InfeasibleDimensions(
            f"rank(N) = {r_N} with n_a = {n_a} cannot determine all {n} velocities"
        )
    NullN = f_N.null_space()
    # Goal rows to unit norm with their b_G entries, so each is ranked in its
    # own units; np.hypot's reduction neither overflows nor underflows.
    norms = np.hypot.reduce(instance.G, axis=1)
    g_scale = math.sqrt(np.count_nonzero(norms))  # ||G||_F of the unit rows
    norms[norms == 0.0] = 1.0
    G, b_G = instance.G / norms[:, None], instance.b_G / norms
    if not math.isfinite(float(np.linalg.norm(instance.G)) + float(b_G @ b_G)):
        raise NumericOverflow(
            "velocity stage: overflow in the goal scale; the input is out of range"
        )
    GN = G @ NullN
    if min(GN.shape) == 1:
        # One free motion (GN a column) or one goal row (GN a row): the SVD is
        # s = ||GN|| and the direction GN / s, so y = (GN / s)^T b_G / s,
        # in that order so that nothing overflows.
        s = math.sqrt((GN * GN).sum())
        n_av = int(s > sla.RANK_TOL * g_scale)
        y = (GN / s).T @ b_G / s if n_av else np.zeros(GN.shape[1])
        r = GN @ y - b_G
        consistent = math.sqrt(r @ r) <= sla.RESIDUAL_TOL * (1.0 + math.sqrt(b_G @ b_G))
        v_star = NullN @ y
    else:
        f_GN = sla.factor(GN, scale=g_scale)
        n_av = f_GN.rank
        try:
            v_star, consistent = NullN @ f_GN.min_norm(b_G), True
        except InconsistentSystem:
            consistent = False
    if not consistent:
        raise InconsistentGoal("goal velocity conflicts with the holonomic constraints")

    if n_av == 0:
        return VelocitySolution(C=np.zeros((0, n)), b_C=np.zeros(0), T=np.eye(n), cost=0.0)

    if NullN.shape[1] == 1:  # B_c is the actuated identity (not formed) and vh_0 = [1]
        B_c, a = None, NullN[n_u:, 0]
    else:
        if GN.shape[0] == 1:  # null(GN) is spanned by the columns of I - vh_0 vh_0^T
            vh_0 = GN[0] / s
            null_NG = NullN - np.multiply.outer(NullN @ vh_0, vh_0)
        else:
            vh_0, null_NG = f_GN.vh[0], NullN @ f_GN.null_space()
        B_c = candidate_basis(null_NG, n_u, n_av)
        A = NullN.T @ B_c
        a = vh_0 @ A if n_av == 1 else None
    if n_av > 1:
        k, sigma = optimal_directions(A, n_av)
        cost = direction_cost(k, A)
    else:  # A = vh_0 a^T has rank one (see above), and the cost is -sigma_1
        sigma = [math.sqrt(a @ a)]
        k = a[:, None] / (sigma[0] or 1.0)  # a zero a stays zero and fails the check below
        cost = -sigma[0]
    C = np.zeros((1, n)) if B_c is None else (B_c @ k).T
    if B_c is None:
        C[0, n_u:] = k[:, 0]
    if not sigma[n_av - 1] > sla.RANK_TOL:
        raise SingularTransform("command rows are not independent modulo the constraints")
    b_C = C @ v_star
    for i in range(n_av):
        lead = b_C[i] if b_C[i] != 0.0 else C[i, np.flatnonzero(C[i])[0]]
        if lead < 0.0:
            C[i], b_C[i] = -C[i], -b_C[i]
    R_C = C[:, n_u:]
    T = np.zeros((n, n))
    T.ravel()[: n_u * (n + 1) : n + 1] = 1.0
    if n_av == 1:
        T[n_u : n - 1, n_u:] = sla.row_complement(R_C[0])
    else:
        T[n_u : n - n_av, n_u:] = sla.factor(R_C).null_space().T
    T[n - n_av :, n_u:] = R_C
    return VelocitySolution(C=C, b_C=b_C, T=T, cost=cost)
