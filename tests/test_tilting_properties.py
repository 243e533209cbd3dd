"""Whole-pipeline properties over tilting steps: row order and scale, a long sweep, synthesize."""

from __future__ import annotations

import ast
import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hybridservo
from force_lp_oracle import full_kkt_margin
from hybridservo import block_tilting as tilting
from hybridservo.errors import InfeasibleLP, SolverError
from hybridservo.force_solver import solve_force
from hybridservo.velocity_solver import solve_velocity
from hybridservo.verifier import check_force_solution, check_velocity_solution


def _outcome(instance, guard):
    """(n_av, margin, verifier verdicts), verdicts None when the force LP is infeasible."""
    vel = solve_velocity(instance)
    try:
        force = solve_force(instance, guard, vel.T, vel.n_av)
    except InfeasibleLP as exc:
        return vel.n_av, exc.margin, None
    verdicts = (
        check_velocity_solution(instance, vel).passed,
        check_force_solution(instance, guard, vel.T, force).passed,
    )
    return vel.n_av, force.objective_margin, verdicts


def _permuted(instance, guard, rng):
    """Reorder the rows of N (with the lambda columns), G and Lambda."""
    n_phi = instance.n_phi
    p_n = rng.permutation(n_phi)
    p_g = rng.permutation(instance.G.shape[0])
    p_l = rng.permutation(guard.n_ineq)
    cols = np.concatenate([p_n, n_phi + np.arange(instance.n)])
    instance = dataclasses.replace(
        instance,
        N=instance.N[p_n],
        G=instance.G[p_g],
        b_G=instance.b_G[p_g],
    )
    guard = dataclasses.replace(
        guard,
        Lambda=guard.Lambda[p_l][:, cols],
        b_Lambda=guard.b_Lambda[p_l],
        Gamma=guard.Gamma[:, cols],
    )
    return instance, guard


@settings(max_examples=40, deadline=None)
@given(
    mu_hand=st.floats(0.4, 1.2),
    mu_table=st.floats(0.4, 1.2),
    step=st.integers(0, 14),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_order_does_not_change_the_step(mu_hand, mu_table, step, seed):
    scenario = tilting.TiltingScenario(mu_hand=mu_hand, mu_table=mu_table)
    instance, guard = tilting.build_instance(tilting.rollout_states(scenario)[step], scenario)
    n_av, margin, verdicts = _outcome(instance, guard)
    permuted = _permuted(instance, guard, np.random.default_rng(seed))
    n_av_p, margin_p, verdicts_p = _outcome(*permuted)
    assert n_av_p == n_av
    assert verdicts_p == verdicts  # also: both solved, or both infeasible
    assert abs(margin_p - margin) <= 1e-9 * max(1.0, abs(margin))


LATERAL_LOAD = [0.0, 0.6, -2.45]


@settings(max_examples=60, deadline=None)
@given(
    lateral=st.booleans(),
    step=st.integers(0, 14),
    log_scales=st.lists(st.floats(-3.0, 3.0), min_size=7, max_size=7),
    repeated=st.integers(0, 5),
)
def test_goal_row_scale_and_a_repeated_goal_row_do_not_change_the_step(
    lateral, step, log_scales, repeated
):
    # Each row of G, with its b_G entry, times a factor in [1e-3, 1e3], plus
    # one more copy of a goal row: the same goal in other units.
    scenario = tilting.TiltingScenario(gravity_object=LATERAL_LOAD if lateral else None)
    instance, guard = tilting.build_instance(tilting.rollout_states(scenario)[step], scenario)
    scales = 10.0 ** np.array(log_scales)
    rows = np.append(np.arange(6), repeated)
    scaled = dataclasses.replace(
        instance, G=scales[:, None] * instance.G[rows], b_G=scales * instance.b_G[rows]
    )
    ref, got = hybridservo.synthesize(instance, guard), hybridservo.synthesize(scaled, guard)
    assert got.velocity.n_av == ref.velocity.n_av
    assert got.force.effort_pass == ref.force.effort_pass
    for a, b in [
        (got.velocity.C, ref.velocity.C),
        (got.velocity.b_C, ref.velocity.b_C),
        (got.force.objective_margin, ref.force.objective_margin),
    ]:
        assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b)))


@functools.cache
def _plan_steps(lateral):
    """Every step of the default or the lateral-load plan, with its outcome."""
    scenario = tilting.TiltingScenario(gravity_object=LATERAL_LOAD if lateral else None)
    steps = [tilting.build_instance(s, scenario) for s in tilting.rollout_states(scenario)]
    return [(instance, guard, _outcome(instance, guard)) for instance, guard in steps]


@settings(max_examples=40, deadline=None)
@given(k=st.floats(-6.0, 6.0))
@example(k=-6.0)
@example(k=6.0)
def test_uniform_unit_scaling_of_the_contact_forces_does_not_change_the_step(k):
    # N, and the lambda columns of Lambda and Gamma, times 10^k: the same
    # contacts with lambda in other units, so lambda scales by 10^-k and
    # nothing else moves.
    c = 10.0**k
    for lateral in (False, True):
        for instance, guard, (n_av, margin, verdicts) in _plan_steps(lateral):
            n_phi = instance.n_phi
            Lambda, Gamma = guard.Lambda.copy(), guard.Gamma.copy()
            Lambda[:, :n_phi] *= c
            Gamma[:, :n_phi] *= c
            scaled = (
                dataclasses.replace(instance, N=c * instance.N),
                dataclasses.replace(guard, Lambda=Lambda, Gamma=Gamma),
            )
            n_av_s, margin_s, verdicts_s = _outcome(*scaled)
            assert verdicts == (True, True)
            assert (n_av_s, verdicts_s) == (n_av, verdicts)
            assert abs(margin_s - margin) <= 1e-8 * max(1.0, abs(margin))


def test_ninety_step_sweep_solves_or_reports_a_negative_margin():
    # One degree per step through a quarter turn.  Each step solves and
    # verifies, or its force LP is infeasible with a finite negative margin.
    splits = {}
    for mu in (0.3, 0.5, 0.8, 1.2, 1.5):
        scenario = tilting.TiltingScenario(
            mu_hand=mu, mu_table=mu, num_steps=90, tilt_rate=math.pi / 180.0
        )
        solved = 0
        for state in tilting.rollout_states(scenario):
            _, margin, verdicts = _outcome(*tilting.build_instance(state, scenario))
            if verdicts is None:
                assert math.isfinite(margin) and margin < 0.0
            else:
                assert verdicts == (True, True)
                solved += 1
        splits[mu] = (solved, 90 - solved)
    print(f"90-step sweep (solved, infeasible) per mu: {splits}")
    # With enough friction the whole quarter turn is feasible.
    assert splits[0.8] == splits[1.2] == splits[1.5] == (90, 0)


@pytest.mark.parametrize("gravity", [None, [0.0, 0.6, -2.45]], ids=["default", "lateral-load"])
def test_synthesize_matches_the_stages_wired_by_hand(gravity):
    def bits(solution):
        return [np.asarray(value).tobytes() for value in vars(solution).values()]

    scenario = tilting.TiltingScenario(gravity_object=gravity)
    for state in tilting.rollout_states(scenario):
        instance, guard = tilting.build_instance(state, scenario)
        step = hybridservo.synthesize(instance, guard)
        vel = solve_velocity(instance)
        assert bits(step.velocity) == bits(vel)
        assert bits(step.force) == bits(solve_force(instance, guard, vel.T, vel.n_av))
        assert step.ms_velocity > 0.0 and step.ms_force > 0.0


def test_only_synthesize_calls_both_stages():
    def callees(path):
        calls = [n.func for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]
        return {getattr(f, "id", None) or getattr(f, "attr", None) for f in calls}

    modules = sorted(Path(hybridservo.__file__).parent.glob("*.py"))
    both = [p.name for p in modules if {"solve_velocity", "solve_force"} <= callees(p)]
    assert both == ["__init__.py"]


def _random_tilting_params(rng):
    """A tilting task far from the default: edge 0.003-3 m, mu 0-2, n_min
    0-3 N, gravity with lateral parts on object and hand, tilt rate +-0.3
    rad/s and, in 30% of the draws, a random hand contact on the top face."""
    edge = float(np.exp(rng.uniform(np.log(0.003), np.log(3.0))))
    params = {
        "edge_length": edge,
        "mu_hand": float(rng.uniform(0.0, 2.0)),
        "mu_table": float(rng.uniform(0.0, 2.0)),
        "n_min": float(rng.uniform(0.0, 3.0)),
        "gravity_object": rng.uniform(-5.0, 5.0, 3).tolist(),
        "gravity_hand": rng.uniform(-2.0, 2.0, 3).tolist(),
        "tilt_rate": float(rng.uniform(-0.3, 0.3)),
        "num_steps": 8,
    }
    if rng.uniform() < 0.3:
        params["hand_contact_obj"] = [*rng.uniform(-edge / 2, edge / 2, 2).tolist(), edge / 2]
    return params


def test_random_tilting_steps_solve_and_verify_or_raise_a_documented_error():
    # Every step ends in a documented SolverError (exit 2, 3 or 4), or it
    # passes both verifier checks with the margin of the full-KKT HiGHS
    # reference to 1e-9 relative.
    rng = np.random.default_rng(6)
    outcomes = {}
    for _ in range(100):
        scenario = tilting.TiltingScenario(**_random_tilting_params(rng))
        for state in tilting.rollout_states(scenario):
            instance, guard = tilting.build_instance(state, scenario)
            try:
                step = hybridservo.synthesize(instance, guard)
            except SolverError as exc:
                assert exc.exit_code in (2, 3, 4)
                kind = type(exc).__name__
                outcomes[kind] = outcomes.get(kind, 0) + 1
                continue
            vel, force = step.velocity, step.force
            assert check_velocity_solution(instance, vel).passed
            assert check_force_solution(instance, guard, vel.T, force).passed
            want = full_kkt_margin(instance, guard, vel.T, vel.n_av)
            assert abs(force.objective_margin - want) <= 1e-9 * max(1.0, abs(want))
            outcomes["solved"] = outcomes.get("solved", 0) + 1
    print(f"random tilting steps: {outcomes}")
    assert outcomes["solved"] > 0
