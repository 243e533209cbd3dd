"""Hybrid force-velocity control synthesis for quasi-static contact tasks.

Per time step the solver decides how many actuated directions to velocity
control, which directions those are, the velocity magnitudes, and the force
command in the remaining directions, such that the goal motion is enforced
and all contact guard conditions hold with the largest possible margin.
"""

from .errors import (
    EmptyBasis,
    InconsistentGoal,
    InconsistentSystem,
    InfeasibleDimensions,
    InfeasibleLP,
    SingularSystem,
    SingularTransform,
    SolverError,
)
from .force_solver import (
    ForceSolution,
    ForceSolverConfig,
    NewtonAssembly,
    assemble_newton,
    build_kkt,
    solve_force,
    solve_kkt,
)
from .model import (
    GuardConditions,
    HybridAction,
    SystemInstance,
    assemble_N,
    check_action,
    make_instance,
    unactuated_selector,
    validate,
)
from .subspace_linalg import (
    SubspaceBasis,
    min_norm_solution,
    null_space_basis,
    numerical_rank,
    solve_square,
)
from .velocity_solver import (
    VelocitySolution,
    VelocitySolverConfig,
    candidate_basis,
    check_feasibility,
    compute_dimensions,
    direction_cost,
    solve_velocity,
)
from .verifier import (
    VerificationReport,
    brute_force_force_oracle,
    check_force_solution,
    check_velocity_solution,
    min_norm_projection,
)

__all__ = [
    "EmptyBasis",
    "ForceSolution",
    "ForceSolverConfig",
    "GuardConditions",
    "HybridAction",
    "InconsistentGoal",
    "InconsistentSystem",
    "InfeasibleDimensions",
    "InfeasibleLP",
    "NewtonAssembly",
    "SingularSystem",
    "SingularTransform",
    "SolverError",
    "SubspaceBasis",
    "SystemInstance",
    "VelocitySolution",
    "VelocitySolverConfig",
    "VerificationReport",
    "assemble_N",
    "assemble_newton",
    "brute_force_force_oracle",
    "build_kkt",
    "candidate_basis",
    "check_action",
    "check_feasibility",
    "check_force_solution",
    "check_velocity_solution",
    "compute_dimensions",
    "direction_cost",
    "make_instance",
    "min_norm_projection",
    "min_norm_solution",
    "null_space_basis",
    "numerical_rank",
    "solve_force",
    "solve_kkt",
    "solve_square",
    "solve_velocity",
    "unactuated_selector",
    "validate",
]

__version__ = "0.1.0"
