"""Hybrid force-velocity control synthesis for quasi-static contact tasks.

Per time step the solver decides how many actuated directions to velocity
control, which directions those are, the velocity magnitudes, and the force
command in the remaining directions, such that the goal motion is enforced
and all contact guard conditions hold with the largest possible margin.
synthesize runs both stages for one step.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflow
from .force_solver import DEFAULT_F_MAX, ForceSolution, solve_force
from .velocity_solver import VelocitySolution, solve_velocity

__version__ = "0.1.0"


@dataclass(frozen=True)
class Step:
    """Both stages' solutions for one step and their wall times in ms."""

    velocity: VelocitySolution
    force: ForceSolution
    ms_velocity: float
    ms_force: float


def synthesize(instance, guard, *, f_max=DEFAULT_F_MAX) -> Step:
    """One hybrid action: the velocity stage, then the force stage in its frame.

    Raises the stages' SolverErrors, and NumericOverflow when a product of
    the step's numbers overflows double precision inside either stage.
    """
    stage = "velocity"
    try:
        with np.errstate(over="raise"):
            t0 = time.perf_counter()
            vel = solve_velocity(instance)
            t1 = time.perf_counter()
            stage = "force"
            force = solve_force(instance, guard, vel.T, vel.n_av, f_max)
            t2 = time.perf_counter()
    except FloatingPointError as exc:
        raise NumericOverflow(f"{stage} stage: {exc}; the input is out of range") from exc
    return Step(vel, force, (t1 - t0) * 1e3, (t2 - t1) * 1e3)
