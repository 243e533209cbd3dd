"""Independent checks of solver outputs.

Everything here re-derives its reference quantities from the raw problem
data with its own few lines of linear algebra on np.linalg, so no check
shares code with the solver path it checks.  The velocity check scales
every row of [N; G] and of [N; C] to unit norm and takes one full SVD of
each stack for its rank, null space and minimum-norm solution.  It ranks
at the solver's fixed RANK_TOL, by its own rule on the unit rows, and it
checks that T is the action frame diag(I, R_a) whose last rows are C,
which the force stage and the force check take on trust.  Norms
and maxima take the reductions numpy's wrappers run, without the wrappers:
a row norm is sqrt((M * M).sum(axis=1)) and a vector norm sqrt(r . r) (r
scaled where r . r overflows), as in np.linalg.norm, so each check costs
its factorizations plus a few products and reports the same bits.
_force_equalities rebuilds the force-balance equalities on their own, in
the full layout [lambda; eta_u; eta_av], for the test oracles that resolve
the free forces by pseudoinverse projection rather than the solver's
single-SVD map.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .force_solver import DEFAULT_F_MAX, ForceSolution
from .model import GuardConditions, SystemInstance
from .subspace_linalg import RANK_TOL, RESIDUAL_TOL
from .velocity_solver import VelocitySolution

VELOCITY_TOL = 1e-6


class _UnitRowSVD(NamedTuple):
    M: np.ndarray  # the rows, each nonzero one scaled to unit norm
    b: np.ndarray  # the right-hand side, scaled with its row
    rank: int
    null_space: np.ndarray  # orthonormal columns spanning {v : M v = 0}
    v: np.ndarray | None  # minimum-norm solution, None when inconsistent


def _norm(r: np.ndarray) -> float:
    """||r|| for a vector, by the reduction np.linalg.norm runs, without its wrapper.

    np.vdot is r.dot(r) without the overflow warning; where r . r overflows
    but r is finite, r is scaled by 1 / max|r| first.
    """
    square = np.vdot(r, r)
    if square == math.inf and np.isfinite(r).all():
        top = float(np.abs(r).max())
        return top * _norm(r / top)
    return math.sqrt(square)


def _unit_row_svd(M: np.ndarray, b: np.ndarray) -> _UnitRowSVD:
    """Rank, null space and minimum-norm solution of M v = b from one full SVD.

    Each nonzero row of M and its entry of b are first divided by the row's
    norm, so positive row scaling changes nothing.  The rank counts the
    singular values above RANK_TOL times the largest; v is None when
    its residual exceeds RESIDUAL_TOL * (1 + ||b||) on the unit rows.
    """
    norms = np.sqrt((M * M).sum(axis=1))
    norms[norms == 0.0] = 1.0
    M, b = M / norms[:, None], b / norms
    u, s, vh = np.linalg.svd(M)
    rank = int(np.count_nonzero(s > RANK_TOL * s.max(initial=0.0)))
    v = vh[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    if _norm(M @ v - b) > RESIDUAL_TOL * (1.0 + _norm(b)):
        v = None
    return _UnitRowSVD(M, b, rank, vh[rank:].T, v)


@dataclass
class VelocityCheck:
    passed: bool
    rank_nc: int
    rank_ng: int
    null_goal_residual: float
    cross_residual_goal: float | None  # None when the command system is inconsistent
    cross_residual_command: float | None  # None when the goal system is inconsistent
    command_variation: float
    notes: list[str] = field(default_factory=list)

    def to_dict(self):
        return asdict(self)


@dataclass
class ForceCheck:
    passed: bool
    newton_residual: float
    unactuated_residual: float
    gamma_residual: float
    min_guard_margin: float | None  # None without guard rows
    guard_margins: np.ndarray
    notes: list[str] = field(default_factory=list)

    def to_dict(self):
        return {**asdict(self), "guard_margins": self.guard_margins.tolist()}


def _frame_notes(T: np.ndarray, C: np.ndarray, n_u: int) -> list[str]:
    """Notes on T unless it is the action frame diag(I, R_a) that ends in C.

    The first n_u rows and columns must be those of the identity exactly,
    max|R_a R_a^T - I| at most 1e-9, and the last n_av rows of T must
    equal C, its zero prefix included, within 1e-9 max(1, |C|).
    """
    n_av, n = C.shape
    T = np.asarray(T, dtype=float)
    if T.shape != (n, n):
        return [f"T has shape {T.shape}, not ({n}, {n})"]
    notes = []
    # T - diag(I, R_a) must be exactly zero (nan is nonzero).
    off_frame = T.copy()
    off_frame[n_u:, n_u:] = 0.0
    off_frame.ravel()[: n_u * (n + 1) : n + 1] -= 1.0
    if off_frame.any():
        notes.append("T is not block diagonal diag(I, R_a)")
    R_a = T[n_u:, n_u:]
    gram = R_a @ R_a.T
    gram.ravel()[:: n - n_u + 1] -= 1.0
    error = float(abs(gram).max(initial=0.0))
    if not error <= 1e-9:
        notes.append(f"R_a is not orthonormal (max |R_a R_a^T - I| = {error:.3e})")
    if not _matches(T[n - n_av :], C):
        notes.append("the last n_av rows of T are not C")
    return notes


def check_velocity_solution(instance: SystemInstance, solution: VelocitySolution) -> VelocityCheck:
    """Confirm that commanding C v = b_C pins exactly the goal down in the frame T.

    On unit rows of [N; G] and [N; C], one SVD each: the two stacks have
    the same rank, every velocity that keeps the constraints and the command
    keeps the goal, each system's minimum-norm solution satisfies the other's
    rows, and C v is constant over the whole null space of [N; G].  T must
    be the action frame that the force stage reads (see _frame_notes).
    Each failed condition adds a note, so the check passes exactly when
    there is none.
    """
    n_phi = instance.N.shape[0]
    zeros = np.zeros(n_phi)
    goal = _unit_row_svd(np.concatenate([instance.N, instance.G]), np.concatenate([zeros, instance.b_G]))
    cmd = _unit_row_svd(np.concatenate([instance.N, solution.C]), np.concatenate([zeros, solution.b_C]))
    G, b_G = goal.M[n_phi:], goal.b[n_phi:]
    C, b_C = cmd.M[n_phi:], cmd.b[n_phi:]
    notes: list[str] = []

    # Every velocity that satisfies constraints plus command must move the goal.
    null_goal_residual = float(abs(G @ cmd.null_space).max(initial=0.0))
    cross_goal = cross_cmd = None
    if cmd.v is None:
        notes.append("command system inconsistent")
    else:
        cross_goal = _norm(G @ cmd.v - b_G)
    if goal.v is None:
        notes.append("goal system inconsistent")
    else:
        cross_cmd = _norm(C @ goal.v - b_C)
    # C v must be the same for every velocity compatible with the goal.
    variation = float(abs(C @ goal.null_space).max(initial=0.0))

    if cmd.rank != goal.rank:
        notes.append(f"rank [N; C] = {cmd.rank} != rank [N; G] = {goal.rank}")
    names = ("null_goal_residual", "cross_residual_goal", "cross_residual_command", "command_variation")
    for name, r in zip(names, (null_goal_residual, cross_goal, cross_cmd, variation)):
        if r is not None and not r <= VELOCITY_TOL:
            notes.append(f"{name} = {r:.3e} exceeds {VELOCITY_TOL:g}")
    notes += _frame_notes(solution.T, solution.C, instance.n_u)
    return VelocityCheck(
        passed=not notes,
        rank_nc=cmd.rank,
        rank_ng=goal.rank,
        null_goal_residual=null_goal_residual,
        cross_residual_goal=cross_goal,
        cross_residual_command=cross_cmd,
        command_variation=variation,
        notes=notes,
    )


def _force_equalities(instance: SystemInstance, guard: GuardConditions, T: np.ndarray, n_av: int):
    """Independent reconstruction of the force-stage equality system.

    Returns (M_free, M_eta_f, rhs) over the unknowns [lambda; eta_u;
    eta_av] and eta_af, mirroring the physics without importing the solver
    assembly.  It takes any invertible T and pins eta_u = 0 with rows of
    its own, where the solver assumes T^-1 = T^T and drops eta_u, so the
    oracles built on it also check that elimination.
    """
    n, n_u, n_phi = instance.n, instance.n_u, instance.n_phi
    n_af = instance.n_a - n_av
    T = np.asarray(T, dtype=float)
    T_inv = np.linalg.inv(T)
    stacked = np.vstack(
        [
            np.hstack([np.zeros((n_u, n_phi)), T_inv[:n_u]]),
            np.hstack([T @ instance.N.T, np.eye(n)]),
            np.hstack([guard.Gamma[:, :n_phi], guard.Gamma[:, n_phi:] @ T_inv]),
        ]
    )
    rhs = np.concatenate([np.zeros(n_u), -T @ instance.F, guard.b_Gamma])
    free = list(range(n_phi + n_u)) + list(range(n_phi + n_u + n_af, n_phi + n))
    af = list(range(n_phi + n_u, n_phi + n_u + n_af))
    return stacked[:, free], stacked[:, af], rhs


def _matches(reported: np.ndarray, recomputed: np.ndarray) -> bool:
    """Same shape, and every entry within 1e-9 max(1, |recomputed|)."""
    reported = np.asarray(reported, dtype=float)
    return reported.shape == recomputed.shape and bool(
        (abs(reported - recomputed) <= 1e-9 * np.maximum(1.0, abs(recomputed))).all()
    )


def check_force_solution(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    solution: ForceSolution,
    *,
    f_max: float = DEFAULT_F_MAX,
) -> ForceCheck:
    """Recompute force balance residuals and guard margins from raw data.

    The check also fails when a number the solution reports disagrees with
    its recomputation: objective_margin with the smallest guard margin (when
    guard rows exist), guard_margins with the margins, and eta_af with eta's
    force-controlled block.  It fails, with a note, when max|eta_af| exceeds
    f_max by more than 1e-9 max(1, f_max), and when effort_pass is not one
    the solver reports for the command's size.
    """
    T = np.asarray(T, dtype=float)
    lam, eta = solution.lam, solution.eta
    TF = T @ instance.F
    newton_residual = _norm(T @ instance.N.T @ lam + eta + TF)
    scale = 1.0 + _norm(TF)
    unactuated_residual = _norm(eta[: instance.n_u])
    f_gen = np.linalg.solve(T, eta)
    stacked_force = np.concatenate([lam, f_gen])
    gamma_residual = _norm(guard.Gamma @ stacked_force - guard.b_Gamma) if guard.n_eq else 0.0
    margins = guard.b_Lambda - guard.Lambda @ stacked_force
    min_margin = float(margins.min()) if margins.size else None
    n_u, n_af = instance.n_u, solution.eta_af.size
    reported = {
        "objective_margin": min_margin is None
        or abs(solution.objective_margin - min_margin) <= 1e-9 * max(1.0, abs(min_margin)),
        "guard_margins": _matches(solution.guard_margins, margins),
        "eta_af": _matches(solution.eta_af, eta[n_u : n_u + n_af]),
    }
    notes = [f"reported {name} disagrees with its recomputation" for name, ok in reported.items() if not ok]
    command = float(abs(solution.eta_af).max(initial=0.0))
    if not command <= f_max + 1e-9 * max(1.0, f_max):
        notes.append(f"force command max|eta_af| = {command:.6g} exceeds f_max = {f_max:g}")
    # The least-effort pass is skipped exactly when there is no force
    # command, and cannot fall back in the closed form at n_af = 1.
    passes = (("skipped",), ("unique", "refined"), ("unique", "refined", "fell_back"))[min(n_af, 2)]
    if solution.effort_pass not in passes:
        notes.append(f"effort_pass {solution.effort_pass!r} at n_af = {n_af} is not one of {passes}")
    ok = (
        newton_residual <= 1e-6 * scale
        and unactuated_residual <= 1e-8
        and gamma_residual <= 1e-6
        and (min_margin is None or min_margin >= -1e-8)
        and not notes
    )
    return ForceCheck(
        passed=bool(ok),
        newton_residual=newton_residual,
        unactuated_residual=unactuated_residual,
        gamma_residual=gamma_residual,
        min_guard_margin=min_margin,
        guard_margins=margins,
        notes=notes,
    )
