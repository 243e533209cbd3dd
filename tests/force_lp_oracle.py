"""Reference for the force stage: both LPs over the whole KKT system.

The force stage solves its LPs over the command eta_af only, with the free
forces substituted as an affine function of the command.  This module keeps
the earlier formulation, where the LPs range over

    z = [f_free; f_dual; eta_af; s]      (margin)
    z = [f_free; f_dual; eta_af; t]      (least effort)

and carry the KKT system of the minimum-norm free forces as equality rows,
so tests can check that both give the same margin and that the solver's
command takes no more actuator effort.  It solves with
scipy.optimize.linprog (HiGHS), which shares no code with the solver's
simplex.

Instances given to this oracle must keep every nonzero matrix entry above
1e-9 in magnitude.  HiGHS drops entries below its small_matrix_value of
1e-9, so on smaller ones it answers a different LP: on G = [[1e-5, 1e-10]]
it returns the margin 5e-6 where the true optimum, which the simplex finds,
is 5.00005e-6, and it reports the least-effort LP pinned there infeasible
(see test_force_solver.test_simplex_keeps_entries_below_pivot_tolerance).

exact_lexicographic solves the two LPs over the command alone in exact
arithmetic, for the small LPs where a reference must not carry HiGHS's
feasibility tolerance into the least effort.  slack_tableau is the starting
tableau the simplex tests hand to force_solver._simplex.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np
from scipy.optimize import linprog

from hybridservo.errors import InfeasibleLP
from hybridservo.model import GuardConditions, SystemInstance
from kkt_reference import build_kkt, force_equalities


def _kkt_rows(instance, guard, T, n_av, f_max):
    """Rows over [f_free; f_dual; eta_af] and the bounds on those columns.

    Returns (A_eq, b_eq, A_g, b_g, A_act, bounds): the KKT equalities, the
    rows whose worst slack is the margin (the guard rows, or the box rows
    |eta_af| <= f_max without guard rows), and the map to the actuated force
    in the original coordinates, over force_equalities' full layout f_free =
    [lambda; eta_u; eta_av].
    """
    equalities = force_equalities(instance, guard, T, n_av)
    K, rhs_const, rhs_map = build_kkt(*equalities)
    r, m = equalities[0].shape
    n_phi, n_u, n = instance.n_phi, instance.n_u, instance.n
    n_af = instance.n_a - n_av
    T_inv = np.linalg.inv(T)
    nz = m + r + n_af
    af = slice(m + r, nz)
    A_eq = np.zeros((m + r, nz))
    A_eq[:, : m + r] = K
    A_eq[:, af] = rhs_map

    # f = T_inv eta with eta = E_free @ f_free + E_af @ eta_af
    E_free = np.zeros((n, m))
    E_free[:n_u, n_phi : n_phi + n_u] = np.eye(n_u)
    E_free[n_u + n_af :, n_phi + n_u :] = np.eye(n_av)
    E_af = np.zeros((n, n_af))
    E_af[n_u : n_u + n_af] = np.eye(n_af)
    A_f = np.zeros((n, nz))
    A_f[:, :m] = T_inv @ E_free
    A_f[:, af] = T_inv @ E_af

    if guard.n_ineq:
        A_g = guard.Lambda[:, n_phi:] @ A_f
        A_g[:, :n_phi] += guard.Lambda[:, :n_phi]
        b_g = guard.b_Lambda
    else:
        # No guard rows: the box rows |eta_af| <= f_max set the margin.
        A_g = np.zeros((2 * n_af, nz))
        A_g[:n_af, af] = np.eye(n_af)
        A_g[n_af:, af] = -np.eye(n_af)
        b_g = np.full(2 * n_af, f_max)
    bounds = [(None, None)] * (m + r) + [(-f_max, f_max)] * n_af
    return A_eq, rhs_const, A_g, b_g, A_f[n_u:], bounds


def full_kkt_margin(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    n_av: int,
    f_max: float = 50.0,
    feasibility_tol: float = 1e-9,
) -> float:
    """Best worst guard margin; raises InfeasibleLP(margin=s) when s < -tol."""
    A_eq, b_eq, A_g, b_g, _, bounds = _kkt_rows(instance, guard, T, n_av, f_max)
    if not b_g.size:
        # Nothing to hold a margin: one dummy row s <= f_max.
        A_g, b_g = np.zeros((1, A_eq.shape[1])), np.array([f_max])
    A_ub = np.hstack([A_g, np.ones((A_g.shape[0], 1))])
    c = np.zeros(A_ub.shape[1])
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_g,
        A_eq=np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))]),
        b_eq=b_eq,
        bounds=bounds + [(None, None)],
        method="highs",
    )
    if res.status == 2:
        raise InfeasibleLP("no force command satisfies the guard conditions")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    s = float(res.x[-1])
    if s < -feasibility_tol:
        raise InfeasibleLP(f"best achievable guard margin is {s:.6e}", margin=s)
    return s


def full_kkt_least_effort(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    n_av: int,
    f_max: float = 50.0,
) -> float:
    """Least l1 norm of the actuated force among margin-maximal commands.

    The margin is pinned at s* from full_kkt_margin, the exact lexicographic
    problem the solver solves; raises InfeasibleLP as full_kkt_margin does.
    """
    s_star = full_kkt_margin(instance, guard, T, n_av, f_max)
    A_eq, b_eq, A_g, b_g, A_act, bounds = _kkt_rows(instance, guard, T, n_av, f_max)
    n_act = A_act.shape[0]
    eye = np.eye(n_act)
    A_ub = np.block(
        [[A_g, np.zeros((A_g.shape[0], n_act))], [A_act, -eye], [-A_act, -eye]]
    )
    b_ub = np.concatenate([b_g - s_star, np.zeros(2 * n_act)])
    c = np.concatenate([np.zeros(A_eq.shape[1]), np.ones(n_act)])
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=np.hstack([A_eq, np.zeros((A_eq.shape[0], n_act))]),
        b_eq=b_eq,
        bounds=bounds + [(0.0, None)] * n_act,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def _solve_exact(A, b):
    """(num, den) with A num = den b and den > 0 for integer A, b; None if singular.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968):
    every division by the previous pivot is exact, and the last pivot is
    +-det(A), the common denominator of the solution.
    """
    M = [list(row) + [v] for row, v in zip(A, b)]
    n, prev = len(M), 1
    for k in range(n):
        p = next((r for r in range(k, n) if M[r][k]), None)
        if p is None:
            return None
        M[k], M[p] = M[p], M[k]
        pivot = M[k]
        for i in range(n):
            if i != k:
                f = M[i][k]
                M[i] = [(pivot[k] * a - f * c) // prev for a, c in zip(M[i], pivot)]
        prev = pivot[k]
    sign = 1 if prev > 0 else -1
    num, den = [sign * row[n] for row in M], sign * prev
    assert all(_dot(row, num) == den * v for row, v in zip(A, b))
    return num, den


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _vertices(planes, rows, n):
    """Points (num, den) where n of the planes a.x = b meet and every row a.x <= b holds."""
    for combo in combinations(planes, n):
        point = _solve_exact([a for a, _ in combo], [b for _, b in combo])
        if point is not None and all(_dot(a, point[0]) <= b * point[1] for a, b in rows):
            yield point


def exact_lexicographic(G, h, a0, A1, f_max):
    """(s*, least effort) of the two force LPs over the command, as Fractions.

    s* = max s over [x; s] s.t. G x + s <= h and |x| <= f_max; the least
    effort is min sum |a0 + A1 x| over the commands x that reach s*.  The
    margin region is a pointed polyhedron, so s* is attained at one of its
    vertices.  The effort is convex and piecewise linear, so its minimum
    over the polytope G x <= h - s*, |x| <= f_max is attained where n_af of
    the polytope's rows and the kinks a0 + A1 x = 0 meet.  Both are found by
    enumerating those intersections.  Every float is a dyadic rational, so
    after scaling by one power of two the rows have integer entries and
    nothing is rounded.  The enumeration grows combinatorially with the
    rows; it serves LPs with a few rows and at most three command axes.
    """
    G, h, a0, A1 = (np.asarray(v, dtype=float) for v in (G, h, a0, A1))
    n_af = G.shape[1]
    data = np.concatenate([G.ravel(), h, a0, A1.ravel(), [f_max]])
    d = lcm(*(Fraction(v).denominator for v in data.tolist()))

    def ints(values):
        return [int(Fraction(v) * d) for v in np.ravel(values).tolist()]

    g, hd, f = [ints(row) for row in G], ints(h), ints([f_max])[0]
    unit = [[d * (i == j) for i in range(n_af)] for j in range(n_af)]
    box = [(u, f) for u in unit] + [([-v for v in u], f) for u in unit]
    margin_rows = [(gi + [d], hi) for gi, hi in zip(g, hd)] + [(u + [0], b) for u, b in box]
    s = max(Fraction(num[-1], den) for num, den in _vertices(margin_rows, margin_rows, n_af + 1))
    p, q = s.numerator, s.denominator
    face = [([q * v for v in gi], q * hi - d * p) for gi, hi in zip(g, hd)] + box
    kinks = [(ints(row), -c) for row, c in zip(A1, ints(a0))]
    least = min(
        Fraction(sum(abs(_dot(a, num) - c * den) for a, c in kinks), den * d)
        for num, den in _vertices(face + kinks, face, n_af)
    )
    return s, least


def slack_tableau(A, b, c):
    """Tableau [A I | b; c 0 | 0] of A z <= b and its slack basis, as force_solver reads it."""
    m, n = A.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n], tab[:m, n : n + m], tab[:m, -1], tab[-1, :n] = A, np.eye(m), b, c
    return tab, np.arange(n, n + m)
