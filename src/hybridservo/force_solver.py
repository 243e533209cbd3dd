"""Force stage: solve for contact reactions and the force command.

In the action frame the quasi-static force balance reads

    T N^T lambda + eta + T F = 0,        eta = T f,

where T = diag(I, R_a) with R_a orthonormal, the frame the velocity stage
builds, so T^-1 = T^T.  The frame is checked in block form: the identity
and zero blocks exactly, and then T T^T - I = diag(0, R_a R_a^T - I), so
only the n_a x n_a block R_a R_a^T - I is formed and held to FRAME_TOL.
The unactuated block eta_u = f_u is zero (nothing actuates those
coordinates), so it is no unknown, and any guard equalities
Gamma [lambda; f] = b_Gamma are appended.  Everything except the force
command eta_af is a "free" force the physics determines: f_free =
[lambda; eta_av].  Given eta_af, the free forces are the minimum-norm
solution of the stacked equality system M_free f_free = rhs - M_eta_f
eta_af = B [1; eta_af], B = [rhs, -M_eta_f].  One SVD M_free = U S V^T
gives it for every command at once: f_free = F [1; eta_af] with F =
[f0, W] = V S^-1 U^T B over the singular values kept by the package's
rank rule (Golub & Van Loan, Matrix Computations, 5.5), so the map
applied has condition at most 1 / RANK_TOL whatever the units of N.
Consistent redundant equality rows (for example a duplicated Gamma row)
are harmless; each column's residual check raises SingularSystem when
the rows are inconsistent or pin the command itself.  The guard margins
b_Lambda - Lambda [lambda; f] = h - G eta_af are affine as well.  Every
margin the LP forms is bounded by f_max sum|G| + sum|h|; when that leaves
the float range, inputs so large that the LP's sums would overflow and
its inf - inf would give a wrong or nan margin, NumericOverflow is raised
before any LP.

The command therefore comes from two small LPs over the real decision
variables only.  Phase 1 maximizes the worst guard margin s over
[eta_af; s] subject to G eta_af + s <= h and |eta_af| <= f_max, which is
bounded because eta_af is boxed.  Three cases need no LP and a fourth no
second one.  With no force-controlled direction (n_af = 0) there is
nothing to choose and the margin is min(h).  With no guard rows the
margin is the box's own slack,
max s subject to +-eta_i + s <= f_max: adding the two rows of any i gives
s <= f_max, with equality only at eta_i = 0, so eta_af = 0 and s = f_max
is the unique optimum and the margin LP only ever sees real guard rows.
With one force-controlled direction (n_af = 1) both LPs have one variable,
and _one_axis solves them in closed form: a basic dual optimum has at most
two nonzero multipliers, so at most two rows fix the margin (Bertsimas &
Tsitsiklis 1997, ch. 4), and the effort is least at an end or a kink of
the margin-optimal interval.  effort_pass is then "unique" when that
interval is a point up to round-off and "refined" otherwise.  The same
closed form (_least_on_segment) gives phase 2 on an edge: a phase-1
optimal face with one direction (see _least_effort).  f_max itself must
be finite and > 0 (check_f_max).

The margin optimum can be degenerate (several commands achieve the same
worst margin), so phase 2 picks, among the margin-maximal commands, the one
of least actuator effort sum |f_act(eta_af)| for the actuated force in the
original coordinates, written as sum(p + q) with f_act = p - q, p, q >= 0:
the exact lexicographic optimum (Isermann, Linear lexicographic
optimization, OR Spektrum 4, 1982), which is deterministic and free of
gratuitous force components.  effort_pass records whether phase 2 was
skipped (n_af = 0), found the optimum unique (no LP), refined the command
(in closed form on an edge, by an LP on a larger face) or fell back to the
phase-1 vertex.

Both LPs are tiny (on tilting, 5 variables besides the slacks in phase 1),
so they are solved on one dense tableau in numpy (Bertsimas & Tsitsiklis,
Introduction to Linear Optimization, 1997, ch. 3).  The most negative
reduced cost enters until the first degenerate pivot, and the lowest-index
improving one from then on (Bland, New finite pivoting rules for the simplex
method, Math. Oper. Res. 2, 1977).  The pivots before the switch strictly
improve the objective and Bland's rule cannot cycle, so degenerate vertices
cannot cycle either, and every run takes the same pivots.  Neither phase
needs artificial variables.  Phase 1 splits the free command as eta_af =
x+ - x- (Bertsimas & Tsitsiklis 1997, 1.3) with two box rows per
coordinate, so the slack basis at the box centre eta_af = 0 is feasible
with nothing shifted, and its first pivot is the same forced, degenerate
one on every LP.  _simplex refines the final tableau of either phase once
against the one it was given: at the centre every guard row with h_i =
min(h) is tight, and the degenerate pivots there can divide by small
entries.  Phase 2 appends one effort row per actuated coordinate to phase
1's final tableau, signed so that p_j or q_j is basic and feasible, and
gives the columns off the margin-optimal face an infinite reduced cost, so
it starts without a pivot.  An LP that fails (unbounded, or no optimum
within MAX_PIVOTS pivots) raises SingularSystem in phase 1 and keeps the
phase-1 vertex in phase 2.  A phase whose vertex is not finite, an overflow
in its pivots, raises NumericOverflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import subspace_linalg as sla
from .errors import (
    InconsistentSystem,
    InfeasibleLP,
    NumericOverflow,
    SingularSystem,
    SingularTransform,
)
from .model import GuardConditions, SystemInstance

# Largest entry of T T^T - I accepted for the action frame.
FRAME_TOL = 1e-10

# Default bound |eta_af| <= f_max on the force command [N].
DEFAULT_F_MAX = 50.0

# Margins down to -FEASIBILITY_TOL still count as feasible.
FEASIBILITY_TOL = 1e-9


def _put_identity(a: np.ndarray, row: int, col: int, k: int, value: float = 1.0) -> None:
    """Write value on the diagonal of a's k x k block at (row, col); a is C-contiguous."""
    a.ravel()[row * a.shape[1] + col :: a.shape[1] + 1][:k] = value


@dataclass
class ForceSolution:
    eta_af: np.ndarray
    lam: np.ndarray
    eta: np.ndarray
    guard_margins: np.ndarray
    objective_margin: float
    effort_pass: str  # "skipped", "unique", "refined" or "fell_back"


def _check_transform(T: np.ndarray, n: int, n_u: int) -> np.ndarray:
    """T as an array, checked to be an action frame diag(I, R_a), R_a orthonormal.

    The identity and zero blocks must be exact, as the velocity stage writes
    them, and max|T T^T - I| at most FRAME_TOL, so that T^-1 = T^T.  With
    those blocks exact, T T^T - I = diag(0, R_a R_a^T - I), so only the
    n_a x n_a block is formed.
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (n, n):
        raise ValueError(f"T must be {n} x {n}, got {T.shape}")
    if not np.isfinite(T).all():
        raise ValueError("T contains non-finite entries")
    R_a = T[n_u:, n_u:]
    gram = R_a @ R_a.T
    gram.ravel()[:: n - n_u + 1] -= 1.0
    np.abs(gram, out=gram)
    error = float(gram.flat[gram.argmax()]) if gram.size else 0.0
    # The first n_u rows and columns hold exactly n_u nonzeros, all ones on
    # the diagonal.
    if (
        np.count_nonzero(T.diagonal()[:n_u] != 1.0)
        or np.count_nonzero(T[:n_u]) + np.count_nonzero(T[n_u:, :n_u]) != n_u
        or error > FRAME_TOL
    ):
        raise SingularTransform(
            f"T is not an action frame diag(I, R_a) with R_a orthonormal "
            f"(max |R_a R_a^T - I| {error:.3e})"
        )
    return T


def assemble_newton(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    n_av: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack the force-balance and guard-equality rows: (M_free, B).

    Over [lambda; eta] the rows read [T N^T, I] and [Gamma_lambda,
    Gamma_f T^T].  eta_u = 0 drops its columns; the actuated columns
    [eta_af; eta_av] are split, so M_free multiplies f_free = [lambda;
    eta_av] and M_eta_f the command eta_af.  B = [rhs | -M_eta_f], rhs =
    [-T F; b_Gamma], so that M_free f_free = B [1; eta_af].
    """
    n, n_u, n_phi = instance.n, instance.n_u, instance.n_phi
    n_af = instance.n_a - n_av
    if not 0 <= n_av <= instance.n_a:
        raise ValueError(f"n_av = {n_av} must lie in [0, n_a] = [0, {instance.n_a}]")
    T = _check_transform(T, n, n_u)

    rows = n + guard.n_eq
    M_free, B = np.zeros((rows, n_phi + n_av)), np.zeros((rows, 1 + n_af))
    M_free[:n, :n_phi], B[:n, 0] = T @ instance.N.T, -T @ instance.F
    _put_identity(B, n_u, 1, n_af, -1.0)
    _put_identity(M_free, n_u + n_af, n_phi, n_av)
    eta_rows = guard.Gamma[:, n_phi:] @ T[n_u:].T
    M_free[n:, :n_phi], M_free[n:, n_phi:] = guard.Gamma[:, :n_phi], eta_rows[:, n_af:]
    B[n:, 0], B[n:, 1:] = guard.b_Gamma, -eta_rows[:, :n_af]
    return M_free, B


def _free_force_map(M_free: np.ndarray, B: np.ndarray) -> np.ndarray:
    """F = [f0 | W] with f_free = F @ [1; eta_af] = f0 + W eta_af, from one SVD of M_free.

    F = V S^-1 U^T B over the kept singular values is the minimum-norm
    solution.  Raises SingularSystem when a column leaves a residual: the
    rows are inconsistent or pin the command.
    """
    try:
        return sla.factor(M_free).min_norm(B)
    except InconsistentSystem as exc:
        raise SingularSystem(
            f"equality rows are inconsistent or pin the force command ({exc})"
        ) from exc


# Simplex tolerances: a reduced cost below -OPT_TOL still improves the
# objective, only column entries above PIVOT_TOL are pivoted on, and ratio
# test rows that would leave each other at most TIE_TOL infeasible tie.
OPT_TOL = 1e-11
PIVOT_TOL = 1e-9
TIE_TOL = 1e-12
# Pivots allowed per LP.  Neither pricing rule can cycle (see _simplex), so
# an LP that reaches the cap is numerically broken; on tilting an LP takes a
# handful.
MAX_PIVOTS = 500


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Make variable col basic in row: one Gauss-Jordan step, in place."""
    pivot_row = tab[row]
    pivot_row /= pivot_row[col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= factors[:, None] * pivot_row
    basis[row] = col


def _no_optimum() -> SingularSystem:
    return SingularSystem(f"force LP failed: no optimum after {MAX_PIVOTS} pivots")


def _simplex(tab: np.ndarray, basis: np.ndarray, pivots: int = 0) -> np.ndarray:
    """Minimize c.z s.t. A z <= b, z >= 0 from a feasible basis; return z.

    tab holds [A I | b] in canonical form for the basis, one row per
    constraint, with the reduced costs [c | -c.z] as its last row; basis[i]
    is the variable basic in row i, every b >= 0, and pivots counts the
    pivots already taken on tab.  The most negative reduced cost enters
    (Dantzig's rule) until the first degenerate pivot, one that moves no
    basic variable by more than TIE_TOL; from then on the lowest-index
    improving variable enters (Bland's rule).  Every pivot before the switch
    strictly improves the objective, so no basis repeats, and Bland's rule
    cannot cycle after it.  Among rows tied in the ratio test the
    lowest-index basic variable leaves, and equal reduced costs go to the
    lowest index, so every run takes the same pivots.  The final tableau,
    reduced costs included, takes one step of iterative refinement against
    the tableau given, and tab and basis are left at the final vertex.
    Raises SingularSystem when the objective is unbounded or MAX_PIVOTS
    pivots do not reach an optimum.
    """
    start, start_basis = tab.copy(), basis.copy()
    cost, rhs = tab[-1, :-1], tab[:-1, -1]
    ratios = np.empty(rhs.size)
    bland = False
    while True:
        col = (cost < -OPT_TOL).argmax() if bland else cost.argmin()
        if not cost[col] < -OPT_TOL:
            # start is canonical for start_basis, so tab[:-1, start_basis] is
            # the inverse of the final basis in start's columns.
            tab[:-1] += tab[:-1, start_basis] @ (start[:-1] - start[:-1, basis] @ tab[:-1])
            tab[-1] = start[-1] - start[-1, basis] @ tab[:-1]
            z = np.zeros(cost.size)
            z[basis] = np.maximum(rhs, 0.0, out=rhs)
            return z
        if pivots >= MAX_PIVOTS:
            raise _no_optimum()
        column = tab[:-1, col]
        # The largest entry is the largest eligible one: every entry above
        # PIVOT_TOL is above every entry that is not.
        top = column[column.argmax()]
        if not top > PIVOT_TOL:
            raise SingularSystem("force LP failed: the objective is unbounded")
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=column > PIVOT_TOL)
        step = ratios[ratios.argmin()]
        # Rows whose ratios differ by round-off are ties: taking any of them
        # leaves the others at most TIE_TOL below zero, and the clip below
        # puts them back on zero.  In place, the ratios become (ratio - step) * top.
        ratios -= step
        ratios *= top
        _pivot(tab, basis, np.where(ratios <= TIE_TOL, basis, cost.size).argmin(), col)
        np.maximum(rhs, 0.0, out=rhs)
        bland = bland or step * top <= TIE_TOL
        pivots += 1


def _max_margin(G, h, f_max):
    """Phase 1: max s over [eta_af; s] s.t. G eta_af + s <= h, |eta_af| <= f_max.

    The free command is split as eta_af = x+ - x- with x+, x- >= 0
    (Bertsimas & Tsitsiklis 1997, 1.3), each coordinate boxed by the two rows
    +-(x+_j - x-_j) <= f_max, and s = min(h) + t with t >= 0.  That gives
    max t subject to G (x+ - x-) + t <= h - min(h) and the box rows, whose
    right-hand sides are h - min(h) and f_max, so the slack basis is feasible
    at the box centre eta_af = 0 and nothing is shifted.  Columns are [x+,
    x-, t, slacks]; x-_j's column stays the exact negative of x+_j's through
    every pivot.  The first pivot is forced and degenerate: t is the only
    improving variable, and it enters in the row argmin h, whose right-hand
    side is 0; _simplex takes the rest.  Returns (eta_af, s, tab, basis) with
    the final tableau and basis.
    """
    if MAX_PIVOTS < 1:  # the forced first pivot counts against the cap too
        raise _no_optimum()
    n_rows, n_af = G.shape
    k = 2 * n_af
    m = n_rows + k
    r = int(h.argmin())
    tab = np.zeros((m + 1, k + m + 2))
    tab[:n_rows, :n_af], tab[:n_rows, n_af:k], tab[:n_rows, k] = G, -G, 1.0
    _put_identity(tab, n_rows, 0, k)
    _put_identity(tab, n_rows, n_af, n_af, -1.0)
    _put_identity(tab, n_rows + n_af, 0, n_af, -1.0)
    _put_identity(tab, 0, k + 1, m)
    tab[:n_rows, -1], tab[n_rows:m, -1], tab[m, k] = h - h[r], f_max, -1.0
    basis = np.arange(k + 1, k + 1 + m)
    _pivot(tab, basis, r, k)
    z = _simplex(tab, basis, 1)
    eta_af, s = z[:n_af] - z[n_af:k], h[r] + z[k]
    if not (np.isfinite(eta_af).all() and math.isfinite(s)):
        raise NumericOverflow("force stage: overflow in the margin LP")
    return eta_af, float(s), tab, basis


def _least_effort(tab, basis, a0, A1, x_star):
    """Phase 2: min sum(p + q) s.t. a0 + A1 eta_af = p - q on the margin-optimal face.

    With p, q >= 0 the optimal sum(p + q) is the l1 effort |a0 + A1 eta_af|_1
    (Bertsimas & Tsitsiklis 1997, 1.3).  Every margin-optimal point has the
    nonbasic columns of positive phase-1 reduced cost at zero, so an
    infinite reduced cost, which keeps those columns out of the basis, holds
    the margin exactly.  The face's directions are the other nonbasic
    columns, with two exceptions from the split eta_af = x+ - x-: the
    partner of a basic x+_j or x-_j moves both by the same amount and the
    command not at all, so it is no direction; and a nonbasic pair (x+_j,
    x-_j), whose reduced costs are opposite and so at an optimum both within
    OPT_TOL of 0, is one two-sided direction, eta_j up or down.  With no direction x_star is the
    only margin-optimal command.  With one, the face is the edge x_star +
    tau d, lo <= tau <= hi (lo = 0 unless the direction is a pair), with d
    read off the direction's column and lo, hi from its ratio test, and
    _least_on_segment takes the effort's minimum on it without an LP.  That
    ratio test skips rows whose basic variable is an x+_j or x-_j: eta_j is
    free, and only its box rows bound it.  Otherwise the rows A1 (x+ - x-) -
    p + q = -a0 are appended in canonical form for the phase-1 basis and
    negated where their right-hand side is <= 0, so p_j (where a0_j + A1_j
    x_star >= 0) or q_j starts basic at |a0_j + A1_j x_star|: a feasible
    start.  Returns (command, effort_pass): x_star with "unique" or
    "fell_back", or the new command with "refined".
    """
    n_act, n_af = A1.shape
    k = 2 * n_af
    m, n_cols = basis.size, tab.shape[1] - 1
    face = tab[-1, :-1] <= OPT_TOL
    face[basis] = False
    # x+_j and x-_j are one direction when both are nonbasic, none otherwise.
    pairs = face[:n_af] & face[n_af:k]
    n_dirs = np.count_nonzero(face[k:]) + np.count_nonzero(pairs)
    if n_dirs == 0:
        return x_star, "unique"
    command = None
    if n_dirs == 1:
        two_sided = pairs.any()
        j = pairs.argmax() if two_sided else k + face[k:].argmax()
        column, rhs = tab[:-1, j], tab[:-1, -1]
        bounded = basis >= k
        ratios = np.full(m, np.inf)
        np.divide(rhs, column, out=ratios, where=(column > PIVOT_TOL) & bounded)
        hi, lo = ratios.min(), 0.0
        if two_sided:
            ratios.fill(np.inf)
            np.divide(rhs, -column, out=ratios, where=(column < -PIVOT_TOL) & bounded)
            lo = -ratios.min()
        if math.isfinite(hi - lo):
            # Raising z_j by tau moves the basic variables by -tau column.
            dz = np.zeros(n_cols)
            dz[basis], dz[j] = -column, 1.0
            d = dz[:n_af] - dz[n_af:k]
            tau = _least_on_segment(a0 + A1 @ x_star, A1 @ d, lo, hi, max(hi, -lo))
            command = x_star + tau * d
    if command is None:
        rows = m + n_act
        eff = np.zeros((rows + 1, n_cols + 2 * n_act + 1))
        eff[:m, :n_cols], eff[:m, -1] = tab[:-1, :-1], tab[:-1, -1]
        E = eff[m:rows]
        E[:, :n_af], E[:, n_af:k], E[:, -1] = A1, -A1, -a0
        _put_identity(eff, m, n_cols, n_act, -1.0)
        _put_identity(eff, m, n_cols + n_act, n_act)
        E -= E[:, basis] @ eff[:m]
        flip = E[:, -1] <= 0.0
        E[flip] *= -1.0
        eff[-1, n_cols:-1] = 1.0
        eff[-1] -= E.sum(axis=0)
        eff[-1, : n_cols][tab[-1, :-1] > OPT_TOL] = np.inf
        # The phase-1 basis, then p_j where the row was negated and q_j elsewhere.
        face_basis = np.arange(n_cols - m, n_cols + n_act)
        face_basis[:m] = basis
        face_basis[m:][~flip] += n_act
        try:
            z = _simplex(eff, face_basis)
        except SingularSystem:
            return x_star, "fell_back"
        command = z[:n_af] - z[n_af:k]
    if not np.isfinite(command).all():
        raise NumericOverflow("force stage: overflow in the least-effort LP")
    return command, "refined"


def _least_on_segment(a, b, lo, hi, reach):
    """The t in [lo, hi] of least effort sum|a + t b|: lo, hi or a kink -a_k / b_k.

    Only kinks with |a_k| <= reach |b_k|, reach >= |lo|, |hi|, are divided;
    the others are clipped first, so nothing overflows.  Ties go to the first
    in that order; an effort that is not finite raises NumericOverflow.
    """
    t = np.full(a.size + 2, lo)
    t[1] = hi
    box = reach * np.abs(b)
    np.divide(np.minimum(np.maximum(-a, -box), box), b, out=t[2:], where=b != 0.0)
    np.minimum(np.maximum(t, lo, out=t), hi, out=t)
    effort = np.abs(a + t[:, None] * b).sum(axis=1)
    if not np.isfinite(effort).all():
        raise NumericOverflow("force stage: overflow in the least-effort LP")
    return t[effort.argmin()]


def _one_axis(g, h, a0, a1, f_max):
    """Both LPs for one command axis, in closed form: (eta_af, s, effort_pass).

    The margin min(h - g x) is best at +-f_max or where a falling row
    (g_i > 0) crosses a rising one (g_j < 0), at (h_i - h_j) / (|g_i| +
    |g_j|).  Only crossings and face ends inside the box are divided, so
    nothing overflows.  The optimal face [lo, hi] is a point when hi - lo <=
    1e-12 f_max; otherwise the effort sum|a0 + a1 x| is least at lo, hi or a
    kink -a0_k / a1_k between them, the first in that order on ties.
    """
    dec, inc = g > 0.0, g < 0.0
    num, den = h[dec][:, None] - h[inc], g[dec][:, None] - g[inc]
    inside = np.abs(num) <= f_max * den
    x = np.empty(2 + np.count_nonzero(inside))
    x[0], x[1], x[2:] = -f_max, f_max, num[inside] / den[inside]
    worst = (h - x[:, None] * g).min(axis=1)
    best = worst.argmax()
    s = worst[best]
    box = f_max * np.abs(g)
    bound = np.minimum(np.maximum(h - s, -box), box)
    np.divide(bound, g, out=bound, where=dec | inc)
    lo, hi = bound.max(where=inc, initial=-f_max), bound.min(where=dec, initial=f_max)
    if hi - lo <= 1e-12 * f_max:
        return x[best : best + 1], float(s), "unique"
    x = _least_on_segment(a0, a1, lo, hi, f_max)
    return np.array([x]), float((h - g * x).min()), "refined"


def check_f_max(f_max: float) -> None:
    """Raise ValueError unless the command bound f_max is finite and > 0."""
    if not (math.isfinite(f_max) and f_max > 0.0):
        raise ValueError(f"f_max {f_max} must be finite and > 0")


def solve_force(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    n_av: int,
    f_max: float = DEFAULT_F_MAX,
) -> ForceSolution:
    """Maximize the worst guard margin over the force command |eta_af| <= f_max.

    Each affine map of the command is one array over u = [1; eta_af]: E for
    eta, X for [lambda; f] and L = Lambda X, so each output is one product.
    """
    check_f_max(f_max)
    T = np.asarray(T, dtype=float)
    M_free, B = assemble_newton(instance, guard, T, n_av)
    n, n_phi, n_u, n_af = instance.n, instance.n_phi, instance.n_u, B.shape[1] - 1
    F = _free_force_map(M_free, B)
    # eta = [eta_u; eta_af; eta_av] = E [1; eta_af]: eta_u = 0, eta_av from F.
    E = np.zeros((n, 1 + n_af))
    E[n_u + n_af :] = F[n_phi:]
    _put_identity(E, n_u, 1, n_af)
    # The stacked force [lambda; f], f = T^T eta, is X [1; eta_af].
    X = np.empty((n_phi + n, 1 + n_af))
    X[:n_phi], X[n_phi:] = F[:n_phi], T.T @ E
    L = guard.Lambda @ X
    G, h = L[:, 1:], guard.b_Lambda - L[:, 0]
    # Every margin the LP forms is bounded by this sum; past the float range
    # its sums overflow, and inf - inf gives a wrong or nan margin (at
    # mu = 1e308 a margin of 0 for a command that breaks a row by 0.5).
    if not math.isfinite(f_max * float(np.abs(G).sum()) + float(np.abs(h).sum())):
        raise NumericOverflow(
            "force stage: overflow in the guard margin map; the input is out of range"
        )

    # Without guard rows the box alone sets the margin, at its unique
    # optimum (see the module notes).
    eta_af, s = np.zeros(n_af), f_max
    effort_pass = "unique" if n_af else "skipped"
    if guard.n_ineq:
        act = slice(n_phi + n_u, None)
        a0, A1 = X[act, 0], X[act, 1:]
        if n_af == 1:
            eta_af, s, effort_pass = _one_axis(G[:, 0], h, a0, A1[:, 0], f_max)
        elif n_af:
            eta_af, s, tab, basis = _max_margin(G, h, f_max)
        else:
            s = float(h[h.argmin()])
        if s < -FEASIBILITY_TOL:
            raise InfeasibleLP(f"best achievable guard margin is {s:.6e}", margin=s)
        if n_af > 1:
            eta_af, effort_pass = _least_effort(tab, basis, a0, A1, eta_af)
    u = np.empty(1 + n_af)
    u[0], u[1:] = 1.0, eta_af
    return ForceSolution(
        eta_af=eta_af,
        lam=X[:n_phi] @ u,
        eta=E @ u,
        guard_margins=guard.b_Lambda - L @ u,
        objective_margin=s,
        effort_pass=effort_pass,
    )
