"""Exception types raised by the solvers in this package."""


class SolverError(Exception):
    """Base class for all solver failures."""


class InconsistentSystem(SolverError):
    """A linear system that must be consistent has no solution within tolerance."""


class SingularSystem(SolverError):
    """The force stage's equality rows are too ill-conditioned, inconsistent
    or pin the force command, or its margin LP fails."""


class SingularTransform(SolverError):
    """The command rows are not independent modulo the constraints (velocity
    stage), or the action frame T is not diag(I, R_a) with R_a orthonormal
    (force stage)."""


class InfeasibleDimensions(SolverError):
    """Too few actuated dimensions: rank(N) + n_a < n, the task cannot be pinned down."""


class InconsistentGoal(SolverError):
    """No generalized velocity satisfies both N v = 0 and G v = b_G."""


class EmptyBasis(SolverError):
    """The candidate direction space is smaller than the number of velocity commands."""


class InfeasibleLP(SolverError):
    """No force command satisfies the guard conditions under the given transform.

    ``margin`` carries the best achievable guard margin when the solve ran far
    enough to measure one, else None.
    """

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin
