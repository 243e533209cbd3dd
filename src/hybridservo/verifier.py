"""Independent checks of solver outputs.

Everything here re-derives its reference quantities from the raw problem
data with its own few lines of linear algebra on np.linalg, so no check
shares code with the solver path it checks.  The velocity check scales
every row of [N; G] and of [N; C] to unit norm and takes one full SVD of
each stack for its rank, null space and minimum-norm solution.  It ranks
at the solver's fixed RANK_TOL, by its own rule on the unit rows.
_force_equalities rebuilds the force-balance equalities on their own, in
the full layout [lambda; eta_u; eta_av], for the test oracles that resolve
the free forces by pseudoinverse projection rather than the solver's
single-SVD map.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .force_solver import ForceSolution
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


def _unit_row_svd(M: np.ndarray, b: np.ndarray) -> _UnitRowSVD:
    """Rank, null space and minimum-norm solution of M v = b from one full SVD.

    Each nonzero row of M and its entry of b are first divided by the row's
    norm, so positive row scaling changes nothing.  The rank counts the
    singular values above RANK_TOL times the largest; v is None when
    its residual exceeds RESIDUAL_TOL * (1 + ||b||) on the unit rows.
    """
    norms = np.linalg.norm(M, axis=1)
    norms[norms == 0.0] = 1.0
    M, b = M / norms[:, None], b / norms
    u, s, vh = np.linalg.svd(M)
    rank = int(np.count_nonzero(s > RANK_TOL * s.max(initial=0.0)))
    v = vh[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    if np.linalg.norm(M @ v - b) > RESIDUAL_TOL * (1.0 + np.linalg.norm(b)):
        v = None
    return _UnitRowSVD(M, b, rank, vh[rank:].T, v)


@dataclass
class VelocityCheck:
    passed: bool
    rank_nc: int
    rank_ng: int
    null_goal_residual: float
    cross_residual_goal: float
    cross_residual_command: float
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
    min_guard_margin: float
    guard_margins: np.ndarray
    notes: list[str] = field(default_factory=list)

    def to_dict(self):
        return {**asdict(self), "guard_margins": self.guard_margins.tolist()}


def check_velocity_solution(instance: SystemInstance, solution: VelocitySolution) -> VelocityCheck:
    """Confirm that commanding C v = b_C pins exactly the goal down.

    On unit rows of [N; G] and [N; C], one SVD each: the two stacks have
    the same rank, every velocity that keeps the constraints and the command
    keeps the goal, each system's minimum-norm solution satisfies the other's
    rows, and C v is constant over the whole null space of [N; G].
    """
    n_phi = instance.N.shape[0]
    zeros = np.zeros(n_phi)
    goal = _unit_row_svd(np.vstack([instance.N, instance.G]), np.concatenate([zeros, instance.b_G]))
    cmd = _unit_row_svd(np.vstack([instance.N, solution.C]), np.concatenate([zeros, solution.b_C]))
    G, b_G = goal.M[n_phi:], goal.b[n_phi:]
    C, b_C = cmd.M[n_phi:], cmd.b[n_phi:]
    notes: list[str] = []

    # Every velocity that satisfies constraints plus command must move the goal.
    null_goal_residual = float(np.max(np.abs(G @ cmd.null_space), initial=0.0))
    cross_goal = cross_cmd = np.inf
    if cmd.v is None:
        notes.append("command system inconsistent")
    else:
        cross_goal = float(np.linalg.norm(G @ cmd.v - b_G))
    if goal.v is None:
        notes.append("goal system inconsistent")
    else:
        cross_cmd = float(np.linalg.norm(C @ goal.v - b_C))
    # C v must be the same for every velocity compatible with the goal.
    variation = float(np.max(np.abs(C @ goal.null_space), initial=0.0))

    residuals = (null_goal_residual, cross_goal, cross_cmd, variation)
    ok = cmd.rank == goal.rank and all(r <= VELOCITY_TOL for r in residuals)
    return VelocityCheck(
        passed=bool(ok),
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


def check_force_solution(
    instance: SystemInstance,
    guard: GuardConditions,
    T: np.ndarray,
    solution: ForceSolution,
) -> ForceCheck:
    """Recompute force balance residuals and guard margins from raw data."""
    T = np.asarray(T, dtype=float)
    lam, eta = solution.lam, solution.eta
    newton = T @ instance.N.T @ lam + eta + T @ instance.F
    newton_residual = float(np.linalg.norm(newton))
    scale = 1.0 + float(np.linalg.norm(T @ instance.F))
    unactuated_residual = float(np.linalg.norm(eta[: instance.n_u]))
    f_gen = np.linalg.solve(T, eta)
    stacked_force = np.concatenate([lam, f_gen])
    gamma_residual = (
        float(np.linalg.norm(guard.Gamma @ stacked_force - guard.b_Gamma))
        if guard.n_eq
        else 0.0
    )
    margins = guard.b_Lambda - guard.Lambda @ stacked_force
    min_margin = float(np.min(margins)) if margins.size else np.inf
    ok = (
        newton_residual <= 1e-6 * scale
        and unactuated_residual <= 1e-8
        and gamma_residual <= 1e-6
        and (not margins.size or min_margin >= -1e-8)
    )
    return ForceCheck(
        passed=bool(ok),
        newton_residual=newton_residual,
        unactuated_residual=unactuated_residual,
        gamma_residual=gamma_residual,
        min_guard_margin=min_margin,
        guard_margins=margins,
    )
