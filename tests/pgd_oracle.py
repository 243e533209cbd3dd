"""Reference solver for the direction problem: the paper's multi-start PGD.

The velocity stage solves its direction problem in closed form.  This module
keeps the paper's iterative method, projected gradient descent on the unit
sphere of each command row from random starts, so tests can check that the
closed form is never beaten by it:

    cost(C) = sum_{i != j} |c_i . c_j| - sum_i ||NullN^T c_i||

Each start draws k from default_rng(seed + start) and descends with a
backtracking line search that never lets the cost increase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Two candidate minima closer than this are treated as a tie; a trial step
# within it of the current cost is accepted.
TIE_EPS = 1e-12

# Norms below this are treated as sitting on the kink of the cost; the
# corresponding gradient contribution is zero there.
KINK_EPS = 1e-12

# The stacked line-search costs differ from the per-step evaluation by
# round-off (at most 2.2e-15 relative on criterion-4 instances); a step whose
# stacked cost passes the descent test within this relative slack is
# re-evaluated exactly.
SCREEN_SLACK = 1e-12


@dataclass
class PgdConfig:
    step_length: float = 10.0
    max_iters: int = 200
    convergence_tol: float = 1e-8


@dataclass
class PgdResult:
    k: np.ndarray
    cost: float
    iterations: int
    converged: bool


def _column_norms(M):
    """np.linalg.norm(M, axis=-2), with the same arithmetic and less overhead."""
    return np.sqrt((M * M).sum(axis=-2))


def _cost_and_grad(k, B_c, null_basis):
    """Cost and gradient at k, shape (n_c, n_av), or at each k of a stack
    of them, shape (m, n_c, n_av)."""
    C = B_c @ k
    gram = np.swapaxes(C, -1, -2) @ C
    abs_gram = np.abs(gram)
    cross = abs_gram.sum(axis=(-2, -1)) - np.trace(abs_gram, axis1=-2, axis2=-1)
    proj = null_basis.T @ C
    norms = _column_norms(proj)
    cost = cross - norms.sum(axis=-1)
    sign = np.sign(gram)
    diagonal = np.arange(k.shape[-1])
    sign[..., diagonal, diagonal] = 0.0
    grad_c = 2.0 * (C @ sign)
    # Direct gradient of the 2-norm term, zeroed at the kink.
    safe = np.where(norms > KINK_EPS, norms, 1.0)
    scale = np.where(norms > KINK_EPS, 1.0 / safe, 0.0)
    grad_c -= null_basis @ (proj * scale[..., None, :])
    return cost, B_c.T @ grad_c


def direction_cost(k, B_c, null_basis):
    """The cost of the command rows C = (B_c k)^T in its defining form."""
    return _cost_and_grad(k, B_c, null_basis)[0]


def _project(k, B_c):
    """Rescale each column so the corresponding command row has unit norm."""
    norms = _column_norms(B_c @ k)
    if (norms < KINK_EPS).any():
        return None
    return k / norms


def _batch_costs(trials, B_c, null_basis):
    """Direction cost of a stack of unprojected iterates, shape (..., n_c, n_av).

    Returns the costs after unit-norm projection, with +inf where _project
    would refuse the iterate.
    """
    C = B_c @ trials
    norms = np.linalg.norm(C, axis=-2)
    valid = np.all(norms >= KINK_EPS, axis=-1)
    C = C / np.where(norms >= KINK_EPS, norms, 1.0)[..., None, :]
    gram = np.abs(np.swapaxes(C, -1, -2) @ C)
    cross = gram.sum(axis=(-2, -1)) - np.trace(gram, axis1=-2, axis2=-1)
    costs = cross - np.linalg.norm(null_basis.T @ C, axis=-2).sum(axis=-1)
    return np.where(valid, costs, np.inf)


def _start(B_c, n_av, rng):
    """The projected random start k of one PGD run."""
    k = _project(rng.standard_normal((B_c.shape[1], n_av)), B_c)
    while k is None:  # vanishing draw, essentially measure zero
        k = _project(rng.standard_normal((B_c.shape[1], n_av)), B_c)
    return k


def _line_search(k, cost, grad, B_c, null_basis, step_length):
    """Backtracking search: the first of 40 halvings whose cost is no worse.

    The full step is tried alone first.  When it is rejected, the other 39
    halvings are costed in one stacked evaluation, which only screens them:
    the screened steps are re-evaluated with _project and _cost_and_grad in
    halving order, so the accepted step is the one a step-by-step search
    accepts, whatever the round-off of the stacked arithmetic.  Returns
    (k, cost, grad) of the accepted step, or None when every step fails.
    """

    def accept(step):
        trial = _project(k - step * grad, B_c)
        if trial is None:
            return None
        trial_cost, trial_grad = _cost_and_grad(trial, B_c, null_basis)
        if trial_cost <= cost + TIE_EPS:
            return trial, trial_cost, trial_grad
        return None

    accepted = accept(step_length)
    if accepted is not None:
        return accepted
    steps = step_length * 0.5 ** np.arange(1, 40)
    screen = _batch_costs(k - steps[:, None, None] * grad, B_c, null_basis)
    slack = SCREEN_SLACK * (1.0 + abs(cost))
    for step in steps[screen <= cost + TIE_EPS + slack]:
        accepted = accept(step)
        if accepted is not None:
            return accepted
    return None


def projected_gradient_descent(
    B_c: np.ndarray,
    NullN: np.ndarray,
    n_av: int,
    seed: int,
    start: int,
    config: PgdConfig | None = None,
) -> PgdResult:
    """Minimize the direction cost from the random start default_rng(seed + start).

    Gradient steps use the configured step length; a step that would
    increase the cost is retried with a halved step so the recorded cost
    sequence never increases.  Converges when the projected iterate moves
    less than convergence_tol or no descent step can be found.
    """
    cfg = config or PgdConfig()
    k = _start(B_c, n_av, np.random.default_rng(seed + start))
    cost, grad = _cost_and_grad(k, B_c, NullN)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        accepted = _line_search(k, cost, grad, B_c, NullN, cfg.step_length)
        if accepted is None:
            converged = True
            break
        moved = float(np.linalg.norm(accepted[0] - k))
        k, cost, grad = accepted
        if moved < cfg.convergence_tol:
            converged = True
            break
    return PgdResult(k=k, cost=cost, iterations=iterations, converged=converged)


def pgd_costs(
    B_c: np.ndarray,
    NullN: np.ndarray,
    n_av: int,
    starts: int,
    seed: int = 0,
    config: PgdConfig | None = None,
) -> np.ndarray:
    """Final direction cost of PGD from each of starts 0 .. starts - 1.

    The starts descend together as one stack, each from the start and with
    the stopping tests of projected_gradient_descent.  A line search costs
    all 40 halvings of every live start at once and takes the first that
    passes the descent test, so a step is the serial one up to the round-off
    of the stacked arithmetic.
    """
    cfg = config or PgdConfig()
    k = np.stack([_start(B_c, n_av, np.random.default_rng(seed + s)) for s in range(starts)])
    cost, grad = _cost_and_grad(k, B_c, NullN)
    steps = cfg.step_length * 0.5 ** np.arange(40)
    live = np.arange(starts)
    for _ in range(cfg.max_iters):
        if not live.size:
            break
        trials = k[live, None] - steps[:, None, None] * grad[live, None]
        ok = _batch_costs(trials, B_c, NullN) <= cost[live, None] + TIE_EPS
        found = ok.any(axis=1)  # a start with no descent step has converged
        live, trials, ok = live[found], trials[found], ok[found]
        new = trials[np.arange(live.size), ok.argmax(axis=1)]
        new /= _column_norms(B_c @ new)[:, None, :]
        moved = np.sqrt(((new - k[live]) ** 2).sum(axis=(1, 2)))
        k[live] = new
        cost[live], grad[live] = _cost_and_grad(new, B_c, NullN)
        live = live[moved >= cfg.convergence_tol]
    return cost


def best_pgd_cost(B_c: np.ndarray, NullN: np.ndarray, n_av: int, starts: int, seed: int = 0) -> float:
    """Lowest direction cost reached by PGD over starts 0 .. starts - 1."""
    return float(pgd_costs(B_c, NullN, n_av, starts, seed).min())
