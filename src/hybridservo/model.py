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

    N has one row per holonomic constraint (n_phi rows, n columns), already
    in velocity coordinates: a raw scenario given in factored form is
    multiplied out by the CLI.  F has one entry per generalized velocity,
    so it fixes n, and n_a = n - n_u.
    """

    n_u: int
    N: np.ndarray
    G: np.ndarray
    b_G: np.ndarray
    F: np.ndarray

    @property
    def n(self) -> int:
        return self.F.size

    @property
    def n_a(self) -> int:
        return self.n - self.n_u

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


def make_instance(n_u, N, G, b_G, F) -> SystemInstance:
    """Build a SystemInstance from array-likes, b_G and F flattened."""
    N = np.asarray(N, dtype=float)
    G = np.asarray(G, dtype=float)
    b_G = np.asarray(b_G, dtype=float).reshape(-1)
    F = np.asarray(F, dtype=float).reshape(-1)
    return SystemInstance(n_u=int(n_u), N=N, G=G, b_G=b_G, F=F)


def real_array(name: str, value) -> np.ndarray:
    """value as a float array of its own shape, entry by entry a real number.

    Booleans, strings and nulls are refused, although np.asarray(value,
    dtype=float) would quietly turn them into numbers or nan.
    """
    items = np.asarray(value, dtype=object)
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in items.flat):
        raise ValueError(f"{name} must hold real numbers, got {value!r}")
    return items.astype(float)


def _finite(name, arr, problems):
    if arr.size and not np.all(np.isfinite(arr)):
        problems.append(f"{name} contains non-finite entries")


def validate(instance: SystemInstance, guard: GuardConditions) -> list[str]:
    """Check shapes and finiteness; return found problems."""
    problems: list[str] = []
    n = instance.n
    if not 0 <= instance.n_u <= n:
        problems.append(f"n_u must lie in [0, {n}], got {instance.n_u}")
    if instance.N.ndim != 2 or instance.N.shape[1] != n:
        problems.append(f"N must have {n} columns, got shape {instance.N.shape}")
    if instance.G.ndim != 2 or instance.G.shape[1] != n:
        problems.append(f"G must have {n} columns, got shape {instance.G.shape}")
    if instance.b_G.shape != (instance.G.shape[0],):
        problems.append("b_G length must match the number of goal rows")
    for name in ("N", "G", "b_G", "F"):
        _finite(name, getattr(instance, name), problems)
    w = instance.n_phi + n
    if guard.Lambda.ndim != 2 or guard.Lambda.shape[1] != w:
        problems.append(f"Lambda must have {w} columns")
    if guard.b_Lambda.shape != (guard.Lambda.shape[0],):
        problems.append("b_Lambda length must match Lambda rows")
    if guard.Gamma.ndim != 2 or guard.Gamma.shape[1] != w:
        problems.append(f"Gamma must have {w} columns")
    if guard.b_Gamma.shape != (guard.Gamma.shape[0],):
        problems.append("b_Gamma length must match Gamma rows")
    for name in ("Lambda", "b_Lambda", "Gamma", "b_Gamma"):
        _finite(name, getattr(guard, name), problems)
    return problems
