from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import tilting_reference
from hybridservo import block_tilting as tilting
from hybridservo.block_tilting import (
    RIDGE_DIRECTIONS,
    Z_AXIS,
    Pose,
    TiltingScenario,
    TiltingState,
    advance_state,
    build_instance,
    goal_twist,
    guard_conditions,
    initial_state,
    quat_from_axis_angle,
    quat_multiply,
    quat_to_rotation,
    rollout_states,
)
from hybridservo.model import validate
from hybridservo.subspace_linalg import factor


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
    assert np.allclose(st.object_pose.p, [half, 0.0, half])
    assert np.allclose(st.object_pose.quat, [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(st.hand_position, [half, 0.0, sc.edge_length])
    # Table contact material points start exactly at their world anchors.
    contacts_obj = sc.table_contacts_obj
    world = contacts_obj + st.object_pose.p
    assert np.allclose(world, sc.table_contacts)
    assert np.allclose(np.abs(contacts_obj), half)


def test_initial_state_rejects_vertical_axis():
    with pytest.raises(ValueError):
        initial_state(TiltingScenario(rotation_axis=[0.0, 0.0, 1.0]))


def test_constraints_hold_along_rollout():
    sc = TiltingScenario()
    for st in rollout_states(sc):
        phi = _constraint_value(st, sc)
        assert np.max(np.abs(phi)) < 1e-9
        assert abs(np.linalg.norm(st.object_pose.quat) - 1.0) < 1e-12


def _constraint_value(st, sc):
    q = tilting_reference.state_vector(st)
    return tilting_reference.constraint_value(
        q, sc.hand_contact_obj, sc.table_contacts_obj, sc.table_contacts
    )


def _moved(st, v, eps):
    """The state after moving along v = [v_b; omega_b; v_H] for time eps."""
    quat = st.object_pose.quat
    turn = quat_from_axis_angle(v[3:6], eps * np.linalg.norm(v[3:6]))
    p = st.object_pose.p + eps * quat_to_rotation(quat) @ v[:3]
    return TiltingState(Pose(p, quat_multiply(quat, turn)), st.hand_position + eps * v[6:])


def test_constraint_matrix_matches_finite_differences_along_body_twists():
    sc = TiltingScenario()
    base = rollout_states(sc)[7]
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(100):
        quat = base.object_pose.quat + rng.uniform(-0.05, 0.05, 4)
        st = TiltingState(
            Pose(base.object_pose.p + rng.uniform(-0.05, 0.05, 3), quat / np.linalg.norm(quat)),
            base.hand_position + rng.uniform(-0.05, 0.05, 3),
        )
        v = rng.standard_normal(9)
        plus, minus = (_constraint_value(_moved(st, v, e), sc) for e in (h, -h))
        assert np.max(np.abs(build_instance(st, sc)[0].N @ v - (plus - minus) / (2.0 * h))) < 1e-5


def test_goal_twist_matches_numerical_plan_derivative():
    # Differentiate the exact plan propagation and compare against the
    # analytic goal rows: body twist from q_dot, hand velocity directly.
    sc = TiltingScenario()
    h = 1e-4
    for st in rollout_states(sc)[::4]:
        G, b_G = goal_twist(st, sc, quat_to_rotation(st.object_pose.quat))
        assert G.shape == (6, 9)
        assert np.allclose(G, np.hstack([np.eye(6), np.zeros((6, 3))]))
        plus = advance_state(st, sc, h)
        minus = advance_state(st, sc, -h)
        p_dot = (plus.object_pose.p - minus.object_pose.p) / (2.0 * h)
        q_dot = (plus.object_pose.quat - minus.object_pose.quat) / (2.0 * h)
        R = quat_to_rotation(st.object_pose.quat)
        E = tilting_reference.quat_rate_map(st.object_pose.quat)
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
    sc = TiltingScenario()
    st = initial_state(sc)
    contacts_obj = sc.table_contacts_obj
    nxt = advance_state(st, sc, sc.step_duration)
    # Both edge contacts lie on the rotation axis and must stay put.
    R0 = quat_to_rotation(st.object_pose.quat)
    R1 = quat_to_rotation(nxt.object_pose.quat)
    for c_obj in contacts_obj:
        before = R0 @ c_obj + st.object_pose.p
        after = R1 @ c_obj + nxt.object_pose.p
        assert np.allclose(before, after, atol=1e-12)
    # Relative rotation angle equals tilt_rate * dt.
    q_rel = quat_multiply(
        nxt.object_pose.quat,
        st.object_pose.quat * np.array([1.0, -1.0, -1.0, -1.0]),
    )
    angle = 2.0 * np.arccos(np.clip(q_rel[0], -1.0, 1.0))
    assert angle == pytest.approx(sc.tilt_rate * sc.step_duration, abs=1e-12)


def test_rollout_has_num_steps_states():
    sc = TiltingScenario(num_steps=7)
    states = rollout_states(sc)
    assert len(states) == 7
    total = 2.0 * np.arccos(np.clip(states[-1].object_pose.quat[0], -1.0, 1.0))
    assert total == pytest.approx(6.0 * sc.tilt_rate * sc.step_duration, abs=1e-9)


def _hand_world_force_margins(state, scenario, force_obj):
    """Margins when the hand reaction equals R_wo @ force_obj, tables idle."""
    R = quat_to_rotation(state.object_pose.quat)
    guard = guard_conditions(scenario, R)
    lam = np.concatenate([R @ force_obj, [0, 0, 10.0], [0, 0, 10.0]])
    stacked = np.concatenate([lam, np.zeros(9)])
    return guard.b_Lambda - guard.Lambda @ stacked


def test_guard_conditions_shapes_and_pressing_force():
    sc = TiltingScenario()
    st = rollout_states(sc)[5]
    guard = guard_conditions(sc, quat_to_rotation(st.object_pose.quat))
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
        assert inst.J_phi is None and inst.Omega is None
        r_N, r_NG = factor(inst.N).rank, factor(np.vstack([inst.N, inst.G])).rank
        assert (r_NG - r_N, r_N, r_NG) == (1, 8, 9)
        assert r_N + inst.n_a >= inst.n


def test_gravity_wrench_in_body_frame():
    sc = TiltingScenario()
    st = rollout_states(sc)[8]
    inst, _ = build_instance(st, sc)
    R = quat_to_rotation(st.object_pose.quat)
    assert np.allclose(inst.F[:3], R.T @ sc.gravity_object)
    assert np.allclose(inst.F[3:6], 0.0)
    assert np.allclose(inst.F[6:], sc.gravity_hand)


INSTANCE_ARRAYS = ("N", "G", "b_G", "F")
GUARD_ARRAYS = ("Lambda", "b_Lambda", "Gamma", "b_Gamma")


def test_build_instance_matches_the_cross_product_reference():
    # N against the quaternion chain J_phi @ Omega, on every step of the default
    # scenario and of 20 scenarios drawn from the ranges of acceptance criterion 6.
    rng = np.random.default_rng(12)
    scenarios = [TiltingScenario()] + [
        TiltingScenario(
            edge_length=float(rng.uniform(0.05, 0.12)),
            mu_hand=float(rng.uniform(0.6, 1.2)),
            mu_table=float(rng.uniform(0.6, 1.2)),
            gravity_object=np.array([0.0, 0.0, -float(rng.uniform(1.0, 5.0))]),
        )
        for _ in range(20)
    ]
    worst = 0.0
    for sc in scenarios:
        for st in rollout_states(sc):
            inst, guard = build_instance(st, sc)
            ref_inst, ref_guard = tilting_reference.build_instance(st, sc)
            assert (inst.n_u, inst.n_a) == (ref_inst.n_u, ref_inst.n_a)
            pairs = [(getattr(inst, k), getattr(ref_inst, k)) for k in INSTANCE_ARRAYS]
            pairs += [(getattr(guard, k), getattr(ref_guard, k)) for k in GUARD_ARRAYS]
            for got, ref in pairs:
                assert got.shape == ref.shape
                if got.size:
                    diff = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
                    worst = max(worst, float(diff.max()))
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
    for name in ("initial_state", "quat_to_rotation"):
        monkeypatch.setattr(tilting, name, counted(name, getattr(tilting, name)))
    build_instance(st, sc)
    assert calls == {"quat_to_rotation": 1}
