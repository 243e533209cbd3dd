"""Problem data for one control synthesis step.

A system instance collects, for a single time step, the velocity-space
constraint matrix N (holonomic constraints mapped through the kinematics),
the goal specification G v = b_G, and the non-contact generalized force F.
Generalized velocities are ordered unactuated first: v = [v_u; v_a].

Guard conditions restrict the contact reaction forces lambda and the
generalized force f through Lambda @ [lambda; f] <= b_Lambda and
Gamma @ [lambda; f] = b_Gamma.  The sign convention for each lambda block is
owned by whichever scenario builder produced the guard rows.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SystemInstance:
    """One time step of the constrained quasi-static system.

    N has one row per holonomic constraint (n_phi rows, n columns) and may
    be given directly or assembled from J_phi and Omega.  When J_phi and
    Omega are both present they must reproduce N.
    """

    n_u: int
    n_a: int
    N: np.ndarray
    G: np.ndarray
    b_G: np.ndarray
    F: np.ndarray
    J_phi: np.ndarray | None = None
    Omega: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.n_u + self.n_a

    @property
    def n_phi(self) -> int:
        return self.N.shape[0]


@dataclass(frozen=True)
class GuardConditions:
    """Linear guard rows over the stacked force vector [lambda; f]."""

    Lambda: np.ndarray
    b_Lambda: np.ndarray
    Gamma: np.ndarray
    b_Gamma: np.ndarray

    @classmethod
    def empty(cls, n_phi: int, n: int) -> "GuardConditions":
        w = n_phi + n
        return cls(np.zeros((0, w)), np.zeros(0), np.zeros((0, w)), np.zeros(0))

    @property
    def n_ineq(self) -> int:
        return self.Lambda.shape[0]

    @property
    def n_eq(self) -> int:
        return self.Gamma.shape[0]


def make_instance(n_u, N, G, b_G, F, J_phi=None, Omega=None) -> SystemInstance:
    """Build a SystemInstance from array-likes, deriving n_a from F."""
    N = np.asarray(N, dtype=float)
    G = np.asarray(G, dtype=float)
    b_G = np.asarray(b_G, dtype=float).reshape(-1)
    F = np.asarray(F, dtype=float).reshape(-1)
    n = F.size
    return SystemInstance(
        n_u=int(n_u),
        n_a=n - int(n_u),
        N=N,
        G=G,
        b_G=b_G,
        F=F,
        J_phi=None if J_phi is None else np.asarray(J_phi, dtype=float),
        Omega=None if Omega is None else np.asarray(Omega, dtype=float),
    )


def real_array(name: str, value) -> np.ndarray:
    """value as a float array of its own shape, entry by entry a real number.

    Booleans, strings and nulls are refused, although np.asarray(value,
    dtype=float) would quietly turn them into numbers or nan.
    """
    items = np.asarray(value, dtype=object)
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in items.flat):
        raise ValueError(f"{name} must hold real numbers, got {value!r}")
    return items.astype(float)


def assemble_N(J_phi, Omega) -> np.ndarray:
    """Map constraint Jacobian rows into velocity space: N = J_phi @ Omega."""
    J_phi = np.asarray(J_phi, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    if J_phi.ndim != 2 or Omega.ndim != 2:
        raise ValueError("J_phi and Omega must be matrices")
    if J_phi.shape[1] != Omega.shape[0]:
        raise ValueError(
            f"J_phi has {J_phi.shape[1]} columns but Omega has {Omega.shape[0]} rows"
        )
    return J_phi @ Omega


def _finite(name, arr, problems):
    if arr.size and not np.all(np.isfinite(arr)):
        problems.append(f"{name} contains non-finite entries")


def validate(instance: SystemInstance, guard: GuardConditions) -> list[str]:
    """Check shapes, finiteness and N = J_phi @ Omega; return found problems."""
    problems: list[str] = []
    n = instance.n
    if instance.n_u < 0 or instance.n_a < 0:
        problems.append("n_u and n_a must be nonnegative")
    if instance.N.ndim != 2 or instance.N.shape[1] != n:
        problems.append(f"N must have {n} columns, got shape {instance.N.shape}")
    if instance.G.ndim != 2 or instance.G.shape[1] != n:
        problems.append(f"G must have {n} columns, got shape {instance.G.shape}")
    if instance.b_G.shape != (instance.G.shape[0],):
        problems.append("b_G length must match the number of goal rows")
    if instance.F.shape != (n,):
        problems.append(f"F must have length {n}")
    for name in ("N", "G", "b_G", "F"):
        _finite(name, getattr(instance, name), problems)
    if (instance.J_phi is None) != (instance.Omega is None):
        problems.append("J_phi and Omega must be given together")
    if instance.J_phi is not None and instance.Omega is not None:
        _finite("J_phi", instance.J_phi, problems)
        _finite("Omega", instance.Omega, problems)
        if instance.Omega.shape[1] != n:
            problems.append(f"Omega must have {n} columns")
        elif instance.J_phi.shape[1] != instance.Omega.shape[0]:
            problems.append("J_phi columns must match Omega rows")
        elif instance.J_phi.shape[0] != instance.n_phi:
            problems.append("J_phi rows must match N rows")
        else:
            scale = max(1.0, float(np.max(np.abs(instance.N))) if instance.N.size else 1.0)
            err = float(np.max(np.abs(instance.J_phi @ instance.Omega - instance.N))) if instance.N.size else 0.0
            if err > 1e-10 * scale:
                problems.append(f"N does not match J_phi @ Omega (max deviation {err:.3e})")
    w = instance.n_phi + n
    if guard.Lambda.ndim != 2 or (guard.Lambda.size and guard.Lambda.shape[1] != w):
        problems.append(f"Lambda must have {w} columns")
    if guard.b_Lambda.shape != (guard.Lambda.shape[0],):
        problems.append("b_Lambda length must match Lambda rows")
    if guard.Gamma.ndim != 2 or (guard.Gamma.size and guard.Gamma.shape[1] != w):
        problems.append(f"Gamma must have {w} columns")
    if guard.b_Gamma.shape != (guard.Gamma.shape[0],):
        problems.append("b_Gamma length must match Gamma rows")
    for name in ("Lambda", "b_Lambda", "Gamma", "b_Gamma"):
        _finite(name, getattr(guard, name), problems)
    return problems
