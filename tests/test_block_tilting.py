from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

import tilting_reference
from hybridservo import block_tilting as tilting
from hybridservo.block_tilting import (
    RIDGE_DIRECTIONS,
    Z_AXIS,
    TiltingScenario,
    TiltingState,
    build_instance,
    goal_twist,
    guard_conditions,
    initial_state,
    rollout_states,
)
from hybridservo.force_solver import solve_force
from hybridservo.model import validate
from hybridservo.subspace_linalg import factor
from hybridservo.velocity_solver import solve_velocity
from tilting_reference import advance_state, quat_from_axis_angle, quat_multiply, quat_to_rotation


def test_quat_multiply_identity_and_norm():
    rng = np.random.default_rng(0)
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    q = rng.standard_normal(4)
    assert np.allclose(quat_multiply(identity, q), q)
    assert np.allclose(quat_multiply(q, identity), q)
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    assert np.linalg.norm(quat_multiply(a, b)) == pytest.approx(
        np.linalg.norm(a) * np.linalg.norm(b)
    )


def test_quat_from_axis_angle_known_rotation():
    q = quat_from_axis_angle([1.0, 0.0, 0.0], np.pi / 2.0)
    R = quat_to_rotation(q)
    assert np.allclose(R @ [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(R @ [0.0, 0.0, 1.0], [0.0, -1.0, 0.0], atol=1e-12)


def test_quat_to_rotation_is_rotation_for_unit_quats():
    rng = np.random.default_rng(1)
    for _ in range(10):
        q = rng.standard_normal(4)
        q = q / np.linalg.norm(q)
        R = quat_to_rotation(q)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0)


def test_quat_to_rotation_homogeneous_degree_two():
    rng = np.random.default_rng(2)
    q = rng.standard_normal(4)
    assert np.allclose(quat_to_rotation(2.0 * q), 4.0 * quat_to_rotation(q), atol=1e-12)


def test_initial_state_geometry():
    sc = TiltingScenario()
    st = initial_state(sc)
    half = 0.5 * sc.edge_length
    assert np.allclose(st.p, [half, 0.0, half])
    assert np.array_equal(st.R, np.eye(3))
    assert np.allclose(st.hand_position, [half, 0.0, sc.edge_length])
    # Table contact material points start exactly at their world anchors.
    contacts_obj = sc.table_contacts_obj
    world = contacts_obj + st.p
    assert np.allclose(world, sc.table_contacts)
    assert np.allclose(np.abs(contacts_obj), half)


def test_initial_state_rejects_vertical_axis():
    with pytest.raises(ValueError):
        initial_state(TiltingScenario(rotation_axis=[0.0, 0.0, 1.0]))


def test_constraints_hold_along_rollout():
    sc = TiltingScenario()
    for st in rollout_states(sc):
        R = st.R
        phi = np.concatenate(
            [st.hand_position - (R @ sc.hand_contact_obj + st.p)]
            + [R @ c + st.p - w for c, w in zip(sc.table_contacts_obj, sc.table_contacts)]
        )
        assert np.max(np.abs(phi)) < 1e-9
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-15
        assert abs(np.linalg.det(R) - 1.0) < 1e-15


def _constraint_value(st, sc):
    q = tilting_reference.state_vector(st)
    return tilting_reference.constraint_value(
        q, sc.hand_contact_obj, sc.table_contacts_obj, sc.table_contacts
    )


def _moved(st, v, eps):
    """The state after moving along v = [v_b; omega_b; v_H] for time eps."""
    turn = quat_from_axis_angle(v[3:6], eps * np.linalg.norm(v[3:6]))
    p = st.p + eps * st.R @ v[:3]
    return tilting_reference.QuatState(
        p, quat_multiply(st.quat, turn), st.hand_position + eps * v[6:]
    )


def test_constraint_matrix_matches_finite_differences_along_body_twists():
    sc = TiltingScenario()
    base = tilting_reference.rollout_states(sc)[7]
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(100):
        quat = base.quat + rng.uniform(-0.05, 0.05, 4)
        st = tilting_reference.QuatState(
            base.p + rng.uniform(-0.05, 0.05, 3),
            quat / np.linalg.norm(quat),
            base.hand_position + rng.uniform(-0.05, 0.05, 3),
        )
        v = rng.standard_normal(9)
        plus, minus = (_constraint_value(_moved(st, v, e), sc) for e in (h, -h))
        inst = build_instance(TiltingState(st.R, st.p, st.hand_position), sc)[0]
        assert np.max(np.abs(inst.N @ v - (plus - minus) / (2.0 * h))) < 1e-5


def test_goal_twist_matches_numerical_plan_derivative():
    # Differentiate the quaternion plan propagation and compare against the
    # analytic goal rows: body twist from q_dot, hand velocity directly.
    sc = TiltingScenario()
    h = 1e-4
    pairs = zip(rollout_states(sc), tilting_reference.rollout_states(sc))
    for st, ref in list(pairs)[::4]:
        G, b_G = goal_twist(st, sc)
        assert G.shape == (6, 9)
        assert np.allclose(G, np.hstack([np.eye(6), np.zeros((6, 3))]))
        plus = advance_state(ref, sc, h)
        minus = advance_state(ref, sc, -h)
        p_dot = (plus.p - minus.p) / (2.0 * h)
        q_dot = (plus.quat - minus.quat) / (2.0 * h)
        R = st.R
        E = tilting_reference.quat_rate_map(ref.quat)
        v_b = R.T @ p_dot
        omega_b = 4.0 * E.T @ q_dot
        assert np.allclose(b_G, np.concatenate([v_b, omega_b]), atol=1e-8)
        hand_dot = (plus.hand_position - minus.hand_position) / (2.0 * h)
        assert np.allclose(tilting_reference.hand_arc_velocity(st, sc), hand_dot, atol=1e-8)


def test_hand_arc_velocity_geometry():
    sc = TiltingScenario()
    st = rollout_states(sc)[6]
    v = tilting_reference.hand_arc_velocity(st, sc)
    r = st.hand_position - sc.table_contacts[0]
    radial = r - (r @ sc.rotation_axis) * sc.rotation_axis
    assert np.linalg.norm(v) == pytest.approx(sc.tilt_rate * np.linalg.norm(radial))
    assert v @ sc.rotation_axis == pytest.approx(0.0, abs=1e-12)
    assert v @ radial == pytest.approx(0.0, abs=1e-12)


def test_advance_state_rotates_about_the_edge():
    # The quaternion step of the reference rollout.
    sc = TiltingScenario()
    st = tilting_reference.initial_state(sc)
    contacts_obj = sc.table_contacts_obj
    nxt = advance_state(st, sc, sc.step_duration)
    # Both edge contacts lie on the rotation axis and must stay put.
    for c_obj in contacts_obj:
        before = st.R @ c_obj + st.p
        after = nxt.R @ c_obj + nxt.p
        assert np.allclose(before, after, atol=1e-12)
    # Relative rotation angle equals tilt_rate * dt.
    q_rel = quat_multiply(nxt.quat, st.quat * np.array([1.0, -1.0, -1.0, -1.0]))
    angle = 2.0 * np.arccos(np.clip(q_rel[0], -1.0, 1.0))
    assert angle == pytest.approx(sc.tilt_rate * sc.step_duration, abs=1e-12)


def test_rollout_has_num_steps_states():
    sc = TiltingScenario(num_steps=7)
    states = rollout_states(sc)
    assert len(states) == 7
    total = np.arccos(np.clip((np.trace(states[-1].R) - 1.0) / 2.0, -1.0, 1.0))
    assert total == pytest.approx(6.0 * sc.tilt_rate * sc.step_duration, abs=1e-9)


def _hand_world_force_margins(state, scenario, force_obj):
    """Margins when the hand reaction equals R_wo @ force_obj, tables idle."""
    R = state.R
    guard = guard_conditions(scenario, R)
    lam = np.concatenate([R @ force_obj, [0, 0, 10.0], [0, 0, 10.0]])
    stacked = np.concatenate([lam, np.zeros(9)])
    return guard.b_Lambda - guard.Lambda @ stacked


def test_guard_conditions_shapes_and_pressing_force():
    sc = TiltingScenario()
    st = rollout_states(sc)[5]
    guard = guard_conditions(sc, st.R)
    assert guard.Lambda.shape == (27, 18)
    assert guard.b_Lambda.shape == (27,)
    assert guard.n_eq == 0
    # Pure normal force, comfortably above n_min: every margin positive.
    margins = _hand_world_force_margins(st, sc, np.array([0.0, 0.0, 10.0]))
    assert np.all(margins > 0.0)


def test_guard_cone_is_tight_along_ridges():
    sc = TiltingScenario()
    st = rollout_states(sc)[5]
    normal = 10.0
    for ridge in (RIDGE_DIRECTIONS[0], RIDGE_DIRECTIONS[3]):
        inside = normal * Z_AXIS + 0.99 * sc.mu_hand * normal * ridge
        outside = normal * Z_AXIS + 1.01 * sc.mu_hand * normal * ridge
        assert np.min(_hand_world_force_margins(st, sc, inside)) >= 0.0
        assert np.min(_hand_world_force_margins(st, sc, outside)) < 0.0


def test_guard_cone_octagonal_symmetry():
    sc = TiltingScenario()
    st = rollout_states(sc)[5]
    normal = 10.0
    tangential = 0.5 * sc.mu_hand * normal
    mins = [
        np.min(_hand_world_force_margins(st, sc, normal * Z_AXIS + tangential * d))
        for d in RIDGE_DIRECTIONS
    ]
    assert np.allclose(mins, mins[0], atol=1e-9)


def test_guard_minimum_normal_rows():
    sc = TiltingScenario()
    st = initial_state(sc)
    margins = _hand_world_force_margins(st, sc, np.array([0.0, 0.0, sc.n_min / 2.0]))
    # The hand normal row must be violated at half the minimum force.
    assert margins[24] < 0.0
    assert np.all(margins[25:] > 0.0)


def test_build_instance_is_valid_and_well_posed():
    sc = TiltingScenario()
    for st in (initial_state(sc), rollout_states(sc)[9]):
        inst, guard = build_instance(st, sc)
        assert validate(inst, guard) == []
        assert (inst.n_u, inst.n_a, inst.n, inst.n_phi) == (6, 3, 9, 9)
        r_N, r_NG = factor(inst.N).rank, factor(np.vstack([inst.N, inst.G])).rank
        assert (r_NG - r_N, r_N, r_NG) == (1, 8, 9)
        assert r_N + inst.n_a >= inst.n


def test_gravity_wrench_in_body_frame():
    sc = TiltingScenario()
    st = rollout_states(sc)[8]
    inst, _ = build_instance(st, sc)
    assert np.allclose(inst.F[:3], st.R.T @ sc.gravity_object)
    assert np.allclose(inst.F[3:6], 0.0)
    assert np.allclose(inst.F[6:], sc.gravity_hand)


INSTANCE_ARRAYS = ("N", "G", "b_G", "F")
GUARD_ARRAYS = ("Lambda", "b_Lambda", "Gamma", "b_Gamma")


def _criterion_6_scenarios():
    """The default scenario and 20 drawn from the ranges of acceptance criterion 6."""
    rng = np.random.default_rng(12)
    return [TiltingScenario()] + [
        TiltingScenario(
            edge_length=float(rng.uniform(0.05, 0.12)),
            mu_hand=float(rng.uniform(0.6, 1.2)),
            mu_table=float(rng.uniform(0.6, 1.2)),
            gravity_object=np.array([0.0, 0.0, -float(rng.uniform(1.0, 5.0))]),
        )
        for _ in range(20)
    ]


def _worst_relative(pairs) -> float:
    """Largest |got - ref| / max(1, |ref|) over pairs of equal-shape arrays."""
    worst = 0.0
    for got, ref in pairs:
        assert got.shape == ref.shape
        if got.size:
            worst = max(worst, float((np.abs(got - ref) / np.maximum(1.0, np.abs(ref))).max()))
    return worst


def test_rollout_matches_the_quaternion_reference():
    # The closed-form states against the step-by-step quaternion rollout, on a
    # 90-step plan, the default 15-step plan and the criterion-6 scenarios.
    worst = 0.0
    for sc in [TiltingScenario(num_steps=90)] + _criterion_6_scenarios():
        states, ref_states = rollout_states(sc), tilting_reference.rollout_states(sc)
        assert len(states) == len(ref_states) == sc.num_steps
        for st, ref in zip(states, ref_states):
            pairs = [(st.R, ref.R), (st.p, ref.p), (st.hand_position, ref.hand_position)]
            worst = max(worst, _worst_relative(pairs))
    print(f"worst state difference from the quaternion rollout: {worst:.1e} max(1, |x|)")
    assert worst <= 2e-15


def test_build_instance_matches_the_cross_product_reference():
    # N against the quaternion chain J_phi @ Omega, each step built from the
    # reference's quaternion rollout, on the criterion-6 scenarios.
    worst = 0.0
    for sc in _criterion_6_scenarios():
        for st, ref_st in zip(rollout_states(sc), tilting_reference.rollout_states(sc)):
            inst, guard = build_instance(st, sc)
            ref_inst, ref_guard = tilting_reference.build_instance(ref_st, sc)
            assert (inst.n_u, inst.n_a) == (ref_inst.n_u, ref_inst.n_a)
            pairs = [(getattr(inst, k), getattr(ref_inst, k)) for k in INSTANCE_ARRAYS]
            pairs += [(getattr(guard, k), getattr(ref_guard, k)) for k in GUARD_ARRAYS]
            worst = max(worst, _worst_relative(pairs))
    print(f"worst difference from the reference: {worst:.1e} max(1, |x|)")
    assert worst <= 1e-15


def test_build_instance_does_no_cross_products_or_initial_state(monkeypatch):
    sc = TiltingScenario()
    st = rollout_states(sc)[3]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np, "cross", counted("np.cross", np.cross))
    monkeypatch.setattr(tilting, "initial_state", counted("initial_state", tilting.initial_state))
    # The contact skews are per-scenario blocks, built with the scenario.
    monkeypatch.setattr(tilting, "skew", counted("skew", tilting.skew))
    build_instance(st, sc)
    assert calls == {}


def test_a_default_step_takes_two_svds(monkeypatch):
    # One in the velocity stage (N: null(N) is one free motion, so G NullN
    # and the directions are a column and a row in closed form, and the
    # complement of the command row is a Householder reflector) and one in
    # the force stage (M_free).
    sc = TiltingScenario()
    st = rollout_states(sc)[3]
    svd, calls = np.linalg.svd, Counter()
    stage = "build"

    def counted_svd(*args, **kwargs):
        calls[stage] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    instance, guard = build_instance(st, sc)
    stage = "velocity"
    vel = solve_velocity(instance)
    stage = "force"
    solve_force(instance, guard, vel.T, vel.n_av)
    assert calls == {"velocity": 1, "force": 1}


@pytest.mark.parametrize("step", [1, 4, 15])
def test_a_default_step_builds_no_scaffolding_arrays(monkeypatch, step):
    # Both stages allocate each array at its final shape and fill it in
    # place: no identity to slice or tile, and nothing to stack.  With
    # null([N; G]) empty, the candidate basis writes its identity block as the
    # diagonal of its zero fill.  The build's one concatenate stacks the
    # generalized force F.
    sc = TiltingScenario()
    st = rollout_states(sc)[step - 1]
    calls, stage = Counter(), "build"
    for name in ("eye", "tile", "column_stack", "concatenate"):

        def counted(*args, _make=getattr(np, name), _name=name, **kwargs):
            calls[stage, _name] += 1
            return _make(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    instance, guard = build_instance(st, sc)
    stage = "velocity"
    vel = solve_velocity(instance)
    stage = "force"
    solve_force(instance, guard, vel.T, vel.n_av)
    assert calls == {("build", "concatenate"): 1}


def test_scenario_is_immutable_and_replace_rebuilds_its_blocks():
    sc = TiltingScenario()
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.mu_hand = 1.0
    with pytest.raises(ValueError):
        sc.contact_skews[0, 0, 0] = 1.0
    changed, fresh = dataclasses.replace(sc, mu_hand=1.0), TiltingScenario(mu_hand=1.0)
    for a, b in zip(rollout_states(changed), rollout_states(fresh)):
        built, ref = build_instance(a, changed), build_instance(b, fresh)
        pairs = [(getattr(built[0], k), getattr(ref[0], k)) for k in INSTANCE_ARRAYS]
        pairs += [(getattr(built[1], k), getattr(ref[1], k)) for k in GUARD_ARRAYS]
        assert all(np.array_equal(x, y) for x, y in pairs)
