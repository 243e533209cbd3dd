"""The tilting step build in its earlier form, kept as a test reference.

block_tilting.build_instance writes d(R(q) p)/dq out entry by entry, takes
cross products on scalars, reads the table contacts in the object frame from
the scenario and computes one rotation matrix per state.  This reference
builds the same instance the earlier way: np.cross, np.outer and np.eye for
the derivative and the goal twist, the initial pose recomputed on every
build to place the table contacts in O, and a rotation matrix per piece.
hand_arc_velocity is the planned hand velocity the tests compare against.
"""

from __future__ import annotations

import numpy as np

from hybridservo import block_tilting as tilting
from hybridservo.model import SystemInstance, assemble_N


def rotation_point_derivative(q, p):
    w, v = q[0], q[1:]
    p = np.asarray(p, dtype=float)
    col0 = 2.0 * (w * p + np.cross(v, p))
    block = 2.0 * ((v @ p) * np.eye(3) + np.outer(v, p) - np.outer(p, v) - w * tilting.skew(p))
    return np.hstack([col0[:, None], block])


def table_contacts_object_frame(scenario):
    block_dir = np.cross(tilting.Z_AXIS, scenario.rotation_axis)
    block_dir = block_dir / np.linalg.norm(block_dir)
    half = 0.5 * scenario.edge_length
    p0 = scenario.table_contacts.mean(axis=0) + half * block_dir + half * tilting.Z_AXIS
    return scenario.table_contacts - p0


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


def goal_twist(state, scenario):
    R = tilting.quat_to_rotation(state.object_pose.quat)
    p = state.object_pose.p
    omega_s = scenario.rotation_axis * scenario.tilt_rate
    v_s = -np.cross(scenario.rotation_axis, scenario.table_contacts[0]) * scenario.tilt_rate
    v_b = R.T @ v_s - R.T @ tilting.skew(p) @ omega_s
    omega_b = R.T @ omega_s
    G = np.hstack([np.eye(6), np.zeros((6, 3))])
    return G, np.concatenate([v_b, omega_b])


def build_instance(state, scenario):
    contacts_obj = table_contacts_object_frame(scenario)
    q = tilting.state_vector(state)
    J_phi = constraint_jacobian(q, scenario.hand_contact_obj, contacts_obj)
    R_wo = tilting.quat_to_rotation(state.object_pose.quat)
    Omega = tilting.omega_map(state, R_wo)
    N = assemble_N(J_phi, Omega)
    G, b_G = goal_twist(state, scenario)
    F = np.concatenate([R_wo.T @ scenario.gravity_object, np.zeros(3), scenario.gravity_hand])
    instance = SystemInstance(n_u=6, n_a=3, N=N, G=G, b_G=b_G, F=F, J_phi=J_phi, Omega=Omega)
    return instance, tilting.guard_conditions(scenario, R_wo)


def hand_arc_velocity(state, scenario):
    """Planned world-frame hand velocity: circular arc about the contact edge."""
    r = state.hand_position - scenario.table_contacts[0]
    return scenario.tilt_rate * tilting.cross(scenario.rotation_axis, r)
