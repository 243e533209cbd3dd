"""The tilting plan and step build in quaternion coordinates, kept as a test reference.

block_tilting writes each state of the plan in closed form by Rodrigues'
formula and N in body-twist coordinates.  This reference reaches both the
long way.  rollout_states advances a unit quaternion (scalar first, w x y
z, Hamilton convention) step by step, composing one turn about the contact
edge at a time.  build_instance forms N as J_phi @ Omega: J_phi is the
partial derivative of constraint_value in all ten coordinates q = [p_WO;
q_WO; p_WH] (quat_to_rotation is homogeneous of degree two in q_WO, so the
derivative is smooth off the unit sphere), and Omega maps the body twist
to q_dot.  It also uses np.cross, np.outer and np.eye, places the table
contacts in O from the initial pose on every build and computes a rotation
matrix per piece.  hand_arc_velocity is the planned hand velocity the tests
compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hybridservo import block_tilting as tilting
from hybridservo.model import SystemInstance


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, av = a[0], a[1:]
    bw, bv = b[0], b[1:]
    return np.concatenate([[aw * bw - av @ bv], aw * bv + bw * av + np.cross(av, bv)])


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.concatenate([[math.cos(half)], math.sin(half) * axis])


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion."""
    w, x, y, z = q
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), w * w - x * x + y * y - z * z, 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )


@dataclass(frozen=True)
class QuatState:
    """Object position and orientation quaternion q_WO, and the hand position.

    R reads the rotation off the quaternion, so a QuatState can stand in for
    a block_tilting.TiltingState.
    """

    p: np.ndarray
    quat: np.ndarray
    hand_position: np.ndarray

    @property
    def R(self) -> np.ndarray:
        return quat_to_rotation(self.quat)


def initial_state(scenario) -> QuatState:
    block_dir = np.cross(tilting.Z_AXIS, scenario.rotation_axis)
    block_dir = block_dir / np.linalg.norm(block_dir)
    half = 0.5 * scenario.edge_length
    p0 = scenario.table_contacts.mean(axis=0) + half * block_dir + half * tilting.Z_AXIS
    return QuatState(p0, np.array([1.0, 0.0, 0.0, 0.0]), p0 + scenario.hand_contact_obj)


def advance_state(state: QuatState, scenario, dt: float) -> QuatState:
    """Rotate object and hand about the contact edge by tilt_rate * dt."""
    dq = quat_from_axis_angle(scenario.rotation_axis, scenario.tilt_rate * dt)
    R = quat_to_rotation(dq)
    pivot = scenario.table_contacts[0]
    quat = quat_multiply(dq, state.quat)
    return QuatState(
        pivot + R @ (state.p - pivot),
        quat / np.linalg.norm(quat),
        pivot + R @ (state.hand_position - pivot),
    )


def rollout_states(scenario) -> list[QuatState]:
    states = [initial_state(scenario)]
    for _ in range(scenario.num_steps - 1):
        states.append(advance_state(states[-1], scenario, scenario.step_duration))
    return states


def rotation_point_derivative(q, p):
    w, v = q[0], q[1:]
    p = np.asarray(p, dtype=float)
    col0 = 2.0 * (w * p + np.cross(v, p))
    block = 2.0 * ((v @ p) * np.eye(3) + np.outer(v, p) - np.outer(p, v) - w * tilting.skew(p))
    return np.hstack([col0[:, None], block])


def quat_rate_map(q):
    """Map body angular velocity to quaternion rate: q_dot = E(q) omega."""
    if abs(np.linalg.norm(q) - 1.0) > 1e-9:
        raise ValueError("quaternion must be unit length")
    q0, q1, q2, q3 = q
    return 0.5 * np.array([[-q1, -q2, -q3], [q0, -q3, q2], [q3, q0, -q1], [-q2, q1, q0]])


def state_vector(state: QuatState):
    return np.concatenate([state.p, state.quat, state.hand_position])


def omega_map(state: QuatState, R):
    """Map v = [xi_O; v_H] to q_dot: block diag of R = R_WO, E(q), identity."""
    Omega = np.zeros((10, 9))
    Omega[:3, :3] = R
    Omega[3:7, 3:6] = quat_rate_map(state.quat)
    Omega[7:, 6:] = np.eye(3)
    return Omega


def constraint_value(q, hand_contact_obj, table_contacts_obj, table_contacts_world):
    """Sticking-contact residuals: hand rows, then the two table contacts."""
    p_o, R, p_h = q[:3], quat_to_rotation(q[3:7]), q[7:]
    rows = [p_h - (R @ hand_contact_obj + p_o)]
    rows += [R @ p + p_o - w for p, w in zip(table_contacts_obj, table_contacts_world)]
    return np.concatenate(rows)


def table_contacts_object_frame(scenario):
    return scenario.table_contacts - initial_state(scenario).p


def constraint_jacobian(q, hand_contact_obj, table_contacts_obj):
    quat = q[3:7]
    J = np.zeros((9, 10))
    J[:3, :3] = -np.eye(3)
    J[:3, 3:7] = -rotation_point_derivative(quat, hand_contact_obj)
    J[:3, 7:] = np.eye(3)
    for i, p_obj in enumerate(table_contacts_obj):
        r = slice(3 + 3 * i, 6 + 3 * i)
        J[r, :3] = np.eye(3)
        J[r, 3:7] = rotation_point_derivative(quat, p_obj)
    return J


def goal_twist(state: QuatState, scenario):
    R = quat_to_rotation(state.quat)
    omega_s = scenario.rotation_axis * scenario.tilt_rate
    v_s = -np.cross(scenario.rotation_axis, scenario.table_contacts[0]) * scenario.tilt_rate
    v_b = R.T @ v_s - R.T @ tilting.skew(state.p) @ omega_s
    omega_b = R.T @ omega_s
    G = np.hstack([np.eye(6), np.zeros((6, 3))])
    return G, np.concatenate([v_b, omega_b])


def build_instance(state: QuatState, scenario):
    contacts_obj = table_contacts_object_frame(scenario)
    q = state_vector(state)
    J_phi = constraint_jacobian(q, scenario.hand_contact_obj, contacts_obj)
    R_wo = quat_to_rotation(state.quat)
    N = J_phi @ omega_map(state, R_wo)
    G, b_G = goal_twist(state, scenario)
    F = np.concatenate([R_wo.T @ scenario.gravity_object, np.zeros(3), scenario.gravity_hand])
    instance = SystemInstance(n_u=6, N=N, G=G, b_G=b_G, F=F)
    return instance, tilting.guard_conditions(scenario, R_wo)


def hand_arc_velocity(state, scenario):
    """Planned world-frame hand velocity: circular arc about the contact edge."""
    r = state.hand_position - scenario.table_contacts[0]
    return scenario.tilt_rate * tilting.cross(scenario.rotation_axis, r)
