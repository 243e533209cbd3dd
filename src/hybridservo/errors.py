"""Exception types raised by the solvers; each error a step can end with carries exit_code."""


class SolverError(Exception):
    """Base class for all solver failures."""


class InconsistentSystem(SolverError):
    """A linear system that must be consistent has no solution within tolerance."""


class SingularSystem(SolverError):
    """The force stage's equality rows are inconsistent or pin the force
    command, or its margin LP fails.  exit_code 3."""
    exit_code = 3


class SingularTransform(SolverError):
    """The command rows are not independent modulo the constraints (velocity
    stage), or the action frame T is not diag(I, R_a) with R_a orthonormal
    (force stage).  exit_code 2."""
    exit_code = 2


class InfeasibleDimensions(SolverError):
    """Too few actuated dimensions: rank(N) + n_a < n, the task cannot be
    pinned down.  exit_code 2."""
    exit_code = 2


class InconsistentGoal(SolverError):
    """No generalized velocity satisfies both N v = 0 and G v = b_G.  exit_code 2."""
    exit_code = 2


class EmptyBasis(SolverError):
    """Fewer candidate directions exist than velocity commands.  exit_code 2."""
    exit_code = 2


class InfeasibleLP(SolverError):
    """No force command satisfies the guard conditions under the given transform.

    ``margin`` carries the best achievable guard margin when the solve ran far
    enough to measure one, else None.  exit_code 3.
    """
    exit_code = 3

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class NumericOverflow(SolverError):
    """A product of the step's numbers overflows double precision inside a
    stage: the input is out of the range the solve can take.  exit_code 4."""
    exit_code = 4
