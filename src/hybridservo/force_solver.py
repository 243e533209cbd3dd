"""Force stage: solve for contact reactions and the force command.

In the action frame the quasi-static force balance reads

    T N^T lambda + eta + T F = 0,        eta = T f,

with the unactuated block of eta forced to zero (nothing actuates those
coordinates) and any guard equalities Gamma [lambda; f] = b_Gamma appended.
Everything except the force command eta_af is a "free" force the physics
determines: f_free = [lambda; eta_u; eta_av].  Given eta_af, the free
forces are resolved as the minimum-norm solution of the stacked equality
system M_free f_free = rhs - M_eta_f eta_af.  That solution is affine in
the command, f_free = f0 + W eta_af, and one thin SVD M_free = U S V^T
gives it for every command at once: [f0, W] = V S^-1 U^T [rhs, -M_eta_f]
over the singular values kept by the package's rank rule (Golub & Van
Loan, Matrix Computations, 5.5).  The same SVD gives the condition of the
KKT system [[2I, M_free^T], [M_free, 0]] in closed form, so that system is
never built on this path; build_kkt and solve_kkt keep it as an
independent LU reference.  Consistent redundant equality rows (for example
a duplicated Gamma row) are harmless; each column's residual check raises
SingularSystem when the rows are inconsistent or pin the command itself.
The guard margins are affine as well: b_Lambda - Lambda [lambda; f] =
h - G eta_af.

The command therefore comes from two small LPs over the real decision
variables only.  Phase 1 maximizes the worst guard margin s over
[eta_af; s] subject to G eta_af + s <= h and |eta_af| <= f_max.  With at
least one guard row the margin is bounded because eta_af is boxed; with no
guard rows the box rows take the place of the guard rows and the margin
sits at the box bound.  With no force-controlled direction (n_af = 0)
there is nothing to choose and no LP is solved: the margin is min(h), or
f_max without guard rows.

The margin optimum can be degenerate (several commands achieve the same
worst margin), so phase 2 picks, among the margin-maximal commands, the one
of least actuator effort: it minimizes sum t over [eta_af; t] with the
margin pinned on the right-hand side, G eta_af <= h - s_target, and
-t <= f_act(eta_af) <= t for the actuated force in the original
coordinates.  That keeps the result deterministic and free of gratuitous
force components.  ForceSolution.effort_pass records whether phase 2 was
skipped (n_af = 0), refined the command, or fell back to the phase-1
vertex because it did not succeed.

Both LPs are tiny (3 and 7 variables besides the slacks on tilting), so
they are solved here by a dense tableau simplex in numpy (Bertsimas &
Tsitsiklis, Introduction to Linear Optimization, 1997, ch. 3).  Bland's
rule keeps degenerate vertices from cycling and makes every run take the
same pivots.  Neither phase needs artificial variables: phase 1 is shifted
so that the slack basis is feasible, and phase 2 starts from the phase-1
command and makes its effort rows feasible with one pivot per actuated
coordinate.  An LP that fails (unbounded, or no optimum within MAX_PIVOTS
pivots) raises SingularSystem in phase 1 and keeps the phase-1 vertex in
phase 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import subspace_linalg as sla
from .errors import InconsistentSystem, InfeasibleLP, SingularSystem, SingularTransform
from .model import GuardConditions, SystemInstance

# Condition ceiling for the action-frame transform.
MAX_T_CONDITION = 1e10

# Default bound |eta_af| <= f_max on the force command [N].
DEFAULT_F_MAX = 50.0

# Margins down to -FEASIBILITY_TOL still count as feasible.
FEASIBILITY_TOL = 1e-9


@dataclass
class NewtonAssembly:
    """Stacked force-balance equalities split by decision role.

    M_free multiplies f_free = [lambda; eta_u; eta_av], M_eta_f multiplies
    the force command eta_af, and rhs collects the constant side
    [0; -T F; b_Gamma].
    """

    M_free: np.ndarray
    M_eta_f: np.ndarray
    rhs: np.ndarray
    free_force_layout: list[str]
    T: np.ndarray
    T_inv: np.ndarray
    n_phi: int
    n_u: int
    n_av: int
    n_af: int
    n: int


@dataclass
class ForceSolution:
    eta_af: np.ndarray
    lam: np.ndarray
    eta: np.ndarray
    guard_margins: np.ndarray
    objective_margin: float
    effort_pass: str  # "skipped", "refined" or "fell_back"


def _check_transform(T: np.ndarray, n: int) -> np.ndarray:
    """T^-1 = V S^-1 U^T from one SVD of T, which also gives cond(T)."""
    T = np.asarray(T, dtype=float)
    if T.shape != (n, n):
        raise ValueError(f"T must be {n} x {n}, got {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ValueError("T contains non-finite entries")
    u, s, vh = np.linalg.svd(T)
    cond = s[0] / s[-1] if s[-1] > 0.0 else np.inf
    if not np.isfinite(cond) or cond >= MAX_T_CONDITION:
        raise SingularTransform(f"transform T is not invertible (cond {cond:.3e})")
    return (vh.T / s) @ u.T


def assemble_newton(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    n_av: int,
) -> NewtonAssembly:
    """Stack the unactuated-zero, force-balance and guard-equality rows.

    Over [lambda; eta] the rows read [0, T_inv[:n_u]], [T N^T, I] and
    [Gamma_lambda, Gamma_f T_inv]; the eta columns are ordered
    [eta_u; eta_af; eta_av] and split into M_free and M_eta_f by slicing.
    """
    n, n_u = instance.n, instance.n_u
    n_phi = instance.n_phi
    n_af = instance.n_a - n_av
    if n_af < 0:
        raise ValueError("n_av exceeds the number of actuated dimensions")
    T = np.asarray(T, dtype=float)
    T_inv = _check_transform(T, n)

    eta_rows = np.concatenate([T_inv[:n_u], np.eye(n), guard.Gamma[:, n_phi:] @ T_inv])
    M_free = np.zeros((eta_rows.shape[0], n_phi + n_u + n_av))
    M_free[n_u : n_u + n, :n_phi] = T @ instance.N.T
    M_free[n_u + n :, :n_phi] = guard.Gamma[:, :n_phi]
    M_free[:, n_phi : n_phi + n_u] = eta_rows[:, :n_u]
    M_free[:, n_phi + n_u :] = eta_rows[:, n_u + n_af :]
    rhs = np.concatenate([np.zeros(n_u), -T @ instance.F, guard.b_Gamma])
    layout = (
        [f"lambda[{i}]" for i in range(n_phi)]
        + [f"eta_u[{i}]" for i in range(n_u)]
        + [f"eta_av[{i}]" for i in range(n_av)]
    )
    return NewtonAssembly(
        M_free=M_free,
        M_eta_f=eta_rows[:, n_u : n_u + n_af],
        rhs=rhs,
        free_force_layout=layout,
        T=T,
        T_inv=T_inv,
        n_phi=n_phi,
        n_u=n_u,
        n_av=n_av,
        n_af=n_af,
        n=n,
    )


def build_kkt(assembly: NewtonAssembly):
    """KKT system for min ||f_free||^2 s.t. M_free f_free = rhs - M_eta_f eta_af.

    Returns (K, kkt_rhs_const, kkt_rhs_eta_map) with
    K @ [f_free; f_dual] = kkt_rhs_const - kkt_rhs_eta_map @ eta_af.
    """
    m = assembly.M_free.shape[1]
    r = assembly.M_free.shape[0]
    K = np.zeros((m + r, m + r))
    K[:m, :m] = 2.0 * np.eye(m)
    K[:m, m:] = assembly.M_free.T
    K[m:, :m] = assembly.M_free
    kkt_rhs_const = np.concatenate([np.zeros(m), assembly.rhs])
    kkt_rhs_eta_map = np.vstack([np.zeros((m, assembly.n_af)), assembly.M_eta_f])
    return K, kkt_rhs_const, kkt_rhs_eta_map


def solve_kkt(assembly: NewtonAssembly, eta_af: np.ndarray) -> np.ndarray:
    """Free forces for a fixed force command (minimum-norm resolution)."""
    K, rhs_const, rhs_map = build_kkt(assembly)
    x = sla.solve_square(K, rhs_const - rhs_map @ np.asarray(eta_af, dtype=float))
    return x[: assembly.M_free.shape[1]]


def _kkt_condition(f_free: sla.Factorization) -> float:
    """cond(K) of the KKT system of min ||x||^2 s.t. M x = b, from M's SVD.

    K = [[2I, M^T], [M, 0]] over the kept rank has the eigenvalues
    1 +- sqrt(1 + sigma_i^2) for each kept singular value and 2 once for
    each column of M beyond the rank, so no factorization of K is needed.
    sqrt(1 + sigma^2) - 1 is evaluated as sigma^2 / (1 + sqrt(1 + sigma^2))
    so that it does not cancel.
    """
    sigma2 = f_free.s[: f_free.rank] ** 2
    root = np.sqrt(1.0 + sigma2)
    extra = f_free.vh.shape[1] - f_free.rank
    eig = np.concatenate([1.0 + root, sigma2 / (1.0 + root), np.full(extra, 2.0)])
    if not eig.size:
        return 1.0
    return float(eig.max() / eig.min()) if eig.min() > 0.0 else np.inf


def _free_force_map(assembly: NewtonAssembly):
    """(f0, W) with f_free = f0 + W @ eta_af, from one thin SVD of M_free.

    f0 and W are the minimum-norm solutions V S^-1 U^T [rhs, -M_eta_f] over
    the kept singular values, which is what the KKT system gives when it is
    solvable.  Raises SingularSystem when that KKT system is too
    ill-conditioned, or when a column leaves a residual: the equality rows
    are then inconsistent or pin the force command.
    """
    f_free = sla.factor(assembly.M_free, full_matrices=False)
    cond = _kkt_condition(f_free)
    if not np.isfinite(cond) or cond >= sla.MAX_CONDITION:
        raise SingularSystem(
            f"force balance is singular or ill-conditioned (KKT cond {cond:.3e})"
        )
    try:
        F = f_free.min_norm(np.column_stack([assembly.rhs, -assembly.M_eta_f]))
    except InconsistentSystem as exc:
        raise SingularSystem(
            f"equality rows are inconsistent or pin the force command ({exc})"
        ) from exc
    return F[:, 0], F[:, 1:]


# Simplex tolerances: a reduced cost below -OPT_TOL still improves the
# objective, only column entries above PIVOT_TOL are pivoted on, and ratio
# test rows that would leave each other at most TIE_TOL infeasible tie.
OPT_TOL = 1e-11
PIVOT_TOL = 1e-9
TIE_TOL = 1e-12
# Pivots allowed per LP.  Bland's rule cannot cycle, so an LP that reaches
# the cap is numerically broken; on tilting an LP takes a handful.
MAX_PIVOTS = 500


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Make variable col basic in row: one Gauss-Jordan step, in place."""
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    basis[row] = col


def _simplex(tab: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Minimize c.z s.t. A z <= b, z >= 0 from a feasible basis; return z.

    tab holds [A I | b] in canonical form for the basis, one row per
    constraint, with the reduced costs [c | -c.z] as its last row; basis[i]
    is the variable basic in row i, and every b >= 0.  Bland's rule enters
    the lowest-index improving variable and, among rows tied in the ratio
    test, pivots out the lowest-index basic variable, so no degenerate vertex
    can cycle and every run takes the same pivots.  Raises SingularSystem
    when the objective is unbounded or MAX_PIVOTS pivots do not reach an
    optimum.
    """
    pivots = 0
    while True:
        improving = np.flatnonzero(tab[-1, :-1] < -OPT_TOL)
        if not improving.size:
            z = np.zeros(tab.shape[1] - 1)
            z[basis] = tab[:-1, -1]
            return z
        if pivots == MAX_PIVOTS:
            raise SingularSystem(f"force LP failed: no optimum after {MAX_PIVOTS} pivots")
        col = improving[0]
        column = tab[:-1, col]
        rows = np.flatnonzero(column > PIVOT_TOL)
        if not rows.size:
            raise SingularSystem("force LP failed: the objective is unbounded")
        ratios = tab[rows, -1] / column[rows]
        # Rows whose ratios differ by round-off are ties: taking any of them
        # leaves the others at most TIE_TOL below zero, and the clip below
        # puts them back on zero.
        ties = rows[(ratios - ratios.min()) * column[rows].max() <= TIE_TOL]
        _pivot(tab, basis, ties[np.argmin(basis[ties])], col)
        np.maximum(tab[:-1, -1], 0.0, out=tab[:-1, -1])
        pivots += 1


def _tableau(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Tableau [A I | b; c 0 | 0] of A z <= b and its slack basis."""
    m, n = A.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[-1, :n] = c
    return tab, np.arange(n, n + m)


def _max_margin(G, h, f_max):
    """Phase 1: max s over [eta_af; s] s.t. G eta_af + s <= h, |eta_af| <= f_max.

    Shifting to eta_af = y - f_max and s = s0 + t, where s0 is the worst
    margin at the corner eta_af = -f_max, gives max t over y, t >= 0 subject
    to G y + t <= h + f_max G 1 - s0 and y <= 2 f_max.  Every right-hand
    side is non-negative, so the slack basis is feasible.
    """
    n_rows, n_af = G.shape
    corner = h + f_max * G.sum(axis=1)
    s0 = float(corner.min())
    A = np.zeros((n_rows + n_af, n_af + 1))
    A[:n_rows, :n_af] = G
    A[:n_rows, n_af] = 1.0
    A[n_rows:, :n_af] = np.eye(n_af)
    b = np.concatenate([corner - s0, np.full(n_af, 2.0 * f_max)])
    c = np.zeros(n_af + 1)
    c[-1] = -1.0
    z = _simplex(*_tableau(A, b, c))
    return z[:n_af] - f_max, s0 + float(z[n_af])


def _least_effort_at_margin(G, h, a0, A1, x_star, s_star, f_max):
    """Among commands achieving the optimal margin, minimize actuator effort.

    The margin maximum is often degenerate: a whole face of commands can
    achieve the same worst margin, and the vertex phase one happens to
    return may carry force components the guards never asked for.  This
    second pass pins the margin just below the phase-one optimum and
    minimizes sum t, with -t <= f_act <= t for the actuated generalized
    force f_act = a0 + A1 eta_af in the original coordinates, zeroing
    anything the guard rows do not demand.

    It starts from the phase-one command x_star: eta_af = x_star + d+ - d-
    with d+, d- >= 0 keeps the margin and box rows feasible at d = 0, and one
    crash pivot per actuated coordinate, t_j into whichever effort row has a
    negative right-hand side, makes the effort rows feasible too.  Returns
    the refined command, or None when the refinement fails numerically (the
    phase-one vertex is then kept).
    """
    n_rows, n_af = G.shape
    n_act = A1.shape[0]
    s_target = s_star - 1e-9 * (1.0 + abs(s_star))
    # Rows R x <= r: the pinned margin, the box, then -t <= a0 + A1 x <= t
    # without t.  Over [d+; d-; t] they read R d+ - R d- (- t) <= r - R x_star.
    eye = np.eye(n_af)
    R = np.vstack([G, eye, -eye, A1, -A1])
    r = np.concatenate([h - s_target, np.full(2 * n_af, f_max), -a0, a0])
    A = np.zeros((R.shape[0], 2 * n_af + n_act))
    A[:, :n_af] = R
    A[:, n_af : 2 * n_af] = -R
    up, down = n_rows + 2 * n_af, n_rows + 2 * n_af + n_act
    A[up:down, 2 * n_af :] = -np.eye(n_act)
    A[down:, 2 * n_af :] = -np.eye(n_act)
    b = r - R @ x_star
    # Round-off can put x_star a hair outside the pinned margin or the box.
    np.maximum(b[:up], 0.0, out=b[:up])
    c = np.concatenate([np.zeros(2 * n_af), np.ones(n_act)])
    tab, basis = _tableau(A, b, c)
    for j in range(n_act):
        _pivot(tab, basis, up + j if b[up + j] < 0.0 else down + j, 2 * n_af + j)
    try:
        z = _simplex(tab, basis)
    except SingularSystem:
        return None
    return x_star + z[:n_af] - z[n_af : 2 * n_af]


def solve_force(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    n_av: int,
    f_max: float = DEFAULT_F_MAX,
) -> ForceSolution:
    """Maximize the worst guard margin over the force command |eta_af| <= f_max."""
    assembly = assemble_newton(instance, guard, T, n_av)
    n_af, n_phi, n_u = assembly.n_af, assembly.n_phi, assembly.n_u
    f0, W = _free_force_map(assembly)
    # eta = [eta_u; eta_af; eta_av]: the free parts come from f_free.
    eta0 = np.concatenate([f0[n_phi : n_phi + n_u], np.zeros(n_af), f0[n_phi + n_u :]])
    eta_map = np.concatenate([W[n_phi : n_phi + n_u], np.eye(n_af), W[n_phi + n_u :]])
    # The stacked force [lambda; f], f = T_inv eta, is x0 + X @ eta_af.
    x0 = np.concatenate([f0[:n_phi], assembly.T_inv @ eta0])
    X = np.concatenate([W[:n_phi], assembly.T_inv @ eta_map])
    G = guard.Lambda @ X
    h = guard.b_Lambda - guard.Lambda @ x0
    if guard.n_ineq:
        G_lp, h_lp = G, h
    else:
        # No guard rows: let the box bounds define the margin.
        G_lp = np.vstack([np.eye(n_af), -np.eye(n_af)])
        h_lp = np.full(2 * n_af, f_max)

    if n_af:
        eta_af, s = _max_margin(G_lp, h_lp, f_max)
    else:
        eta_af = np.zeros(0)
        s = float(h_lp.min()) if h_lp.size else f_max
    if s < -FEASIBILITY_TOL:
        raise InfeasibleLP(
            f"best achievable guard margin is {s:.6e}", margin=s
        )
    effort_pass = "skipped"
    if n_af:
        act = slice(n_phi + n_u, None)
        refined = _least_effort_at_margin(G_lp, h_lp, x0[act], X[act], eta_af, s, f_max)
        if refined is None:
            effort_pass = "fell_back"
        else:
            eta_af, effort_pass = refined, "refined"
    return ForceSolution(
        eta_af=eta_af,
        lam=x0[:n_phi] + X[:n_phi] @ eta_af,
        eta=eta0 + eta_map @ eta_af,
        guard_margins=h - G @ eta_af,
        objective_margin=s,
        effort_pass=effort_pass,
    )
