"""Seeded input generators for the benchmark workloads.

This module depends on numpy alone.  It must not import hybridservo or the
test helpers: the inputs a seed produces may not change when the solver code
changes, so two commits can be shown to have run identical inputs (compare
the digests).  Every generator returns plain dicts of numbers and arrays.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Relative rank cutoff used to read off the constructed null spaces; the same
# convention (singular values above RANK_TOL * the largest) as the package.
RANK_TOL = 1e-8

# Force assemblies above this condition number are redrawn (as in the
# criterion-5 construction), so the free forces are well determined.
MAX_ASSEMBLY_CONDITION = 1e3

# Range of each constructed force command component, well inside the force
# stage's default box |eta_af| <= 50.
COMMAND_RANGE = 5.0

TILT_SCENARIOS = 64
VELOCITY_BLOCKS = 9
# Instances per goal rank k_goal = 1, 2 in each block of 171: the mix the
# criterion-4 construction gives at seed 2024 (118/53/29 of 200 for
# k_goal = 1/2/3), without k_goal = 3.  The minimal number of velocity
# commands is k_goal and it sets the op's cost: a median op costs about 3 ms
# at k_goal = 1 and 60 ms at k_goal = 2, so an unfixed mix would move the
# median from seed to seed.  k_goal = 3 is left out because the default
# three-start PGD fails check_velocity_solution on about 3 in 1000 of those
# instances (rows dependent modulo N; up to 8 in 1000 on some seeds), and a
# workload must be one on which every op succeeds.  Put it back once the
# velocity stage solves every instance.
VELOCITY_QUOTAS = {1: 118, 2: 53}
FORCE_BLOCKS = 10
# Every INFEASIBLE_EVERY-th force instance is infeasible by construction.
INFEASIBLE_EVERY = 5
# Feasible instances per command dimension n_af = 0..3 in each block of 100:
# the construction's expected mix (13/36, 13/36, 7/36, 3/36 of 80).  With
# n_af = 0 the least-effort LP is skipped, which halves the op, and ops with
# one LP (n_af = 0 or infeasible) are about half of all, so an unfixed mix
# would move the median from seed to seed.
FORCE_QUOTAS = {0: 29, 1: 29, 2: 15, 3: 7}
# A contradictory row pair a x <= b1, -a x <= b2 with b1 + b2 = PAIR_SUM caps
# every command's worst margin at PAIR_SUM / 2.
PAIR_SUM = -0.5


def null_space(M: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis as columns, laid out as the package lays
    it out (contiguous), so products with it round the same way."""
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    return np.ascontiguousarray(vh[rank:].T)


def tilt_plan(seed: int) -> list[dict]:
    """Tilting scenario params: the default scenario, then seeded variations.

    The ranges are those of acceptance criterion 6: edge 0.05-0.12 m,
    friction 0.6-1.2 at both contacts, object weight 1-5 N.
    """
    rng = np.random.default_rng(seed)
    scenarios = [{}]
    for _ in range(TILT_SCENARIOS - 1):
        scenarios.append(
            {
                "edge_length": float(rng.uniform(0.05, 0.12)),
                "mu_hand": float(rng.uniform(0.6, 1.2)),
                "mu_table": float(rng.uniform(0.6, 1.2)),
                "gravity_object": [0.0, 0.0, -float(rng.uniform(1.0, 5.0))],
            }
        )
    return scenarios


def velocity_instance(rng: np.random.Generator) -> dict:
    """One instance of the criterion-4 construction (same draws, same order).

    N gets a chosen rank r_N with r_N + n_a >= n, plus up to two redundant
    rows; the k_goal goal rows add rank on top of N, and b_G comes from a
    velocity inside null(N).  The minimal number of velocity commands is
    therefore k_goal, recorded as expected_n_av.
    """
    n = int(rng.integers(4, 13))
    n_u = int(rng.integers(1, n - 1))
    n_a = n - n_u
    r_N = int(rng.integers(max(1, n - n_a), n))
    N = rng.standard_normal((r_N, r_N)) @ rng.standard_normal((r_N, n))
    redundant = int(rng.integers(0, 3))
    if redundant:
        N = np.vstack([N, rng.standard_normal((redundant, r_N)) @ N])
    k_goal = int(rng.integers(1, min(3, n - r_N) + 1))
    G = rng.standard_normal((k_goal, n))
    null_n = null_space(N)
    b_G = G @ (null_n @ rng.standard_normal(null_n.shape[1]))
    F = rng.standard_normal(n)
    return {"n_u": n_u, "N": N, "G": G, "b_G": b_G, "F": F, "expected_n_av": k_goal}


def _interleave(buckets: dict, quotas: dict) -> list:
    """Merge the buckets so that any prefix has close to the quota mix."""
    total = sum(quotas.values())
    taken = dict.fromkeys(quotas, 0)
    merged = []
    for position in range(1, total + 1):
        key = max(quotas, key=lambda k: quotas[k] * position / total - taken[k])
        merged.append(buckets[key][taken[key]])
        taken[key] += 1
    return merged


def _fill(draw, key, quotas: dict) -> dict:
    """Draw until every bucket holds its quota; draws for a full bucket or
    for a key without a quota are skipped."""
    buckets = {k: [] for k in quotas}
    while any(len(buckets[k]) < q for k, q in quotas.items()):
        item = draw()
        bucket = buckets.get(key(item))
        if bucket is not None and len(bucket) < quotas[key(item)]:
            bucket.append(item)
    return buckets


def random_velocity(seed: int) -> list[dict]:
    """Blocks of criterion-4 instances with a fixed k_goal mix, interleaved.

    Draws whose k_goal bucket is full or absent are skipped, so each bucket
    holds instances of the unchanged construction.  Within a block the ranks
    are interleaved so that any prefix has close to the block's mix.  At seed
    2024 the first block is the criterion-4 instance set without its k_goal = 3
    instances, reordered.
    """
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(VELOCITY_BLOCKS):
        buckets = _fill(lambda: velocity_instance(rng), lambda d: d["expected_n_av"], VELOCITY_QUOTAS)
        instances.extend(_interleave(buckets, VELOCITY_QUOTAS))
    return instances


def _force_equalities(N, F, Gamma, b_Gamma, T, n_u, n_av):
    """Force-balance, unactuated-zero and guard-equality rows.

    Returns (M_free, M_eta_f, rhs) over f_free = [lambda; eta_u; eta_av] and
    the command eta_af, written out here from the physics so the generator
    shares no code with the solver.
    """
    n_phi, n = N.shape
    n_af = n - n_u - n_av
    T_inv = T.T
    stacked = np.vstack(
        [
            np.hstack([np.zeros((n_u, n_phi)), T_inv[:n_u]]),
            np.hstack([T @ N.T, np.eye(n)]),
            np.hstack([Gamma[:, :n_phi], Gamma[:, n_phi:] @ T_inv]),
        ]
    )
    rhs = np.concatenate([np.zeros(n_u), -T @ F, b_Gamma])
    free = list(range(n_phi + n_u)) + list(range(n_phi + n_u + n_af, n_phi + n))
    af = list(range(n_phi + n_u, n_phi + n_u + n_af))
    return stacked[:, free], stacked[:, af], rhs


def force_instance(rng: np.random.Generator, infeasible: bool, max_free: int = 12) -> dict:
    """A criterion-5 assembly plus guard rows around a known command.

    The assembly (n <= 5, n_af = 0..3, up to one Gamma equality) has full
    row rank and condition below MAX_ASSEMBLY_CONDITION.  A command eta_af
    is drawn inside the box and its minimum-norm free forces give the force
    vector x = [lambda; f].  Every guard row has margin at least `slack` at
    x, and one row has exactly `slack`, so the best margin is >= slack.  An
    infeasible instance adds a contradictory row pair whose margins sum to
    PAIR_SUM, so no command has a margin above PAIR_SUM / 2.
    """
    while True:
        n_u = int(rng.integers(0, 3))
        n_a = int(rng.integers(1, 4))
        n = n_u + n_a
        n_av = int(rng.integers(0, n_a + 1))
        n_eq = int(rng.integers(0, 2))
        n_phi = max(1, n + n_eq - n_av) + int(rng.integers(0, 3))
        if n_phi + n_u + n_av > max_free:
            continue
        N = rng.standard_normal((n_phi, n))
        F = rng.standard_normal(n)
        w = n_phi + n
        Gamma = rng.standard_normal((n_eq, w))
        b_Gamma = rng.standard_normal(n_eq)
        q, _ = np.linalg.qr(rng.standard_normal((n_a, n_a)))
        T = np.eye(n)
        T[n_u:, n_u:] = q
        M_free, M_eta_f, rhs = _force_equalities(N, F, Gamma, b_Gamma, T, n_u, n_av)
        s = np.linalg.svd(M_free, compute_uv=False)
        full_rank = s.size == M_free.shape[0] and s[-1] > RANK_TOL * s[0]
        if full_rank and s[0] / s[-1] < MAX_ASSEMBLY_CONDITION:
            break

    n_af = n_a - n_av
    eta_af = rng.uniform(-COMMAND_RANGE, COMMAND_RANGE, n_af)
    f_free = np.linalg.pinv(M_free) @ (rhs - M_eta_f @ eta_af)
    eta = np.concatenate([f_free[n_phi : n_phi + n_u], eta_af, f_free[n_phi + n_u :]])
    x = np.concatenate([f_free[:n_phi], T.T @ eta])

    n_rows = int(rng.integers(2, 9))
    Lambda = rng.standard_normal((n_rows, w))
    slack = float(rng.uniform(0.1, 1.0))
    extra = rng.uniform(0.0, 1.0, n_rows)
    extra[int(rng.integers(n_rows))] = 0.0
    b_Lambda = Lambda @ x + slack + extra
    if infeasible:
        a = rng.standard_normal(w)
        shift = float(rng.uniform(-0.2, 0.2))
        b_pair = a @ x + shift
        Lambda = np.vstack([Lambda, a, -a])
        b_Lambda = np.concatenate([b_Lambda, [b_pair, PAIR_SUM - b_pair]])
    return {
        "n_u": n_u,
        "N": N,
        "F": F,
        "Gamma": Gamma,
        "b_Gamma": b_Gamma,
        "Lambda": Lambda,
        "b_Lambda": b_Lambda,
        "T": T,
        "n_av": n_av,
        "slack": slack,
        "infeasible": infeasible,
    }


def random_force(seed: int) -> list[dict]:
    """Blocks of force instances: every fifth infeasible, the rest with a
    fixed n_af mix, interleaved (see FORCE_QUOTAS)."""
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(FORCE_BLOCKS):
        buckets = _fill(
            lambda: force_instance(rng, False),
            lambda d: d["F"].size - d["n_u"] - d["n_av"],
            FORCE_QUOTAS,
        )
        feasible = iter(_interleave(buckets, FORCE_QUOTAS))
        per_block = sum(FORCE_QUOTAS.values()) * INFEASIBLE_EVERY // (INFEASIBLE_EVERY - 1)
        for index in range(per_block):
            infeasible = index % INFEASIBLE_EVERY == INFEASIBLE_EVERY - 1
            instances.append(force_instance(rng, True) if infeasible else next(feasible))
    return instances


GENERATORS = {
    "tilt_plan": tilt_plan,
    "random_velocity": random_velocity,
    "random_force": random_force,
}


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.shape, obj.dtype.str)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        h.update(repr(obj).encode())


def digest(inputs) -> str:
    """SHA-256 of the inputs, bit-exact for arrays and floats."""
    h = hashlib.sha256()
    _feed(h, inputs)
    return h.hexdigest()
