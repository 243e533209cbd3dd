"""Block tilting scenario: a palm pivots a cube over one table edge.

Frames and coordinates
----------------------
World frame W has z up.  The object frame O sits at the cube center, world
aligned at the start.  A state is the object pose (R = R_WO, p_WO) and the
hand position p_WH; the generalized velocity is v = [xi_O (6, body twist of
the object, linear part first); v_H (3, hand velocity in W)].  The object
twist is unactuated (n_u = 6) and the hand velocity actuated (n_a = 3).

The plan turns object and hand about the fixed contact edge at a constant
rate, so state k has a closed form: with the angle a_k = k * tilt_rate *
step_duration and K = [axis]_x, Rodrigues' formula gives R_k = I +
sin(a_k) K + (1 - cos(a_k)) K^2, and every point x moves to pivot + R_k
(x - pivot) (Murray, Li & Sastry 1994, ch. 2).

Contacts and reaction sign convention
-------------------------------------
Three point contacts stick: hand on the top face, and the two ends of the
tilting edge on the table.  The table rows of the constraint are written as
(object point) - (table anchor), so their reactions are the forces the
table applies to the object, compressive along +z in W.  The hand row is
written as (hand point) - (object point), so its reaction is the force the
object applies to the hand; that force points along the outward normal of
the top face, which is +z in O.  With these choices every contact normal
must simply stay positive, and the friction cones read

    mu * (normal component) >= d_i . (tangential component)

for eight unit ridge directions d_i in the plane of the contact.  The hand
cone is fixed in the object frame (the face normal tilts with the object),
so the hand reaction is rotated into O before the cone rows apply; the
table cones live directly in W.

Per scenario and per step
-------------------------
All steps of a plan share one scenario, and everything a step needs except
R = R_WO is fixed by it.  TiltingScenario computes those blocks once, at
construction: the table contact points in O (material points of the
object, placed by the initial pose), the 3 x 3 x 3 stack of the contacts'
skew blocks below, the hand's cone and normal rows in O, the table's cone
rows and the spatial goal twist.  A step then only applies R to them: one
product for the three skew blocks of N, one for the goal twist and one for
the hand's guard rows.  Blocks that no scenario changes (the hand
identity columns of N, the goal selector, the empty Gamma) are module
constants.  A scenario is therefore immutable: its fields are frozen and
its arrays read-only, since a change made after construction would not
reach the precomputed blocks.

Constraint matrix
-----------------
A material point p (in O) of the object moves at R v_b - R [p]_x omega_b in
W, with R = R_WO and xi_O = [v_b; omega_b] (Murray, Li & Sastry 1994,
ch. 2).  Sticking therefore reads N v = 0 with

    hand rows:       [-R,  R [p_H]_x,  I]
    each table row:  [ R, -R [p]_x,    0]

for the hand contact p_H and the table contacts p, all in O, so columns
3:6 are R times the per-scenario blocks [p_H]_x and -[p]_x.  The columns
0:3 are -R and R themselves: written as R times -I they would carry zeros
of the other sign, and the SVD of N, whose Householder reflections follow
the sign of a zero, would then differ in round-off.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .model import GuardConditions, SystemInstance, real_array

Z_AXIS = np.array([0.0, 0.0, 1.0])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# Constant blocks of every step's matrices, built once and shared read-only.
_EYE3 = _read_only(np.eye(3))
# N's hand-velocity columns: the hand rows read +v_H, the table rows nothing.
_HAND_COLUMNS = _read_only(np.vstack([np.eye(3), np.zeros((6, 3))]))
# The goal rows select the object twist from v = [xi_O; v_H].
_GOAL_SELECTOR = _read_only(np.hstack([np.eye(6), np.zeros((6, 3))]))
# No guard equalities over [lambda; f] (9 reactions, 9 velocities).
_NO_GAMMA = _read_only(np.zeros((0, 18)))
_NO_B_GAMMA = _read_only(np.zeros(0))

# Unit ridge directions of the eight-sided friction pyramids.
RIDGE_DIRECTIONS = np.array(
    [[math.sin(math.pi * i / 4.0), math.cos(math.pi * i / 4.0), 0.0] for i in range(1, 9)]
)


def skew(p: np.ndarray) -> np.ndarray:
    x, y, z = p
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def cross(a, b) -> np.ndarray:
    """a x b for two 3-vectors: np.cross's arithmetic without its axis handling."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


# ---------------------------------------------------------------------------
# Scenario and state.


@dataclass(frozen=True)
class TiltingScenario:
    """Geometry, friction and motion plan for one tilting task; immutable.

    Vector defaults depend on edge_length, so they are resolved after
    construction: hand contact at the center of the top face, table contacts
    at the ends of an edge centered on the world origin, rotation axis along
    that edge pointing so positive tilt lifts the far side of the block.
    Once the inputs are checked, the per-scenario blocks of the module notes
    are computed: table_contacts_obj (the table contact points in O, fixed
    by the initial pose), contact_skews (3 x 3 x 3: [p_H]_x, -[p_1]_x,
    -[p_2]_x), hand_rows (9 x 3: the hand's cone rows and normal row in O),
    table_rows (8 x 3: the table's cone rows) and spatial_twist (2 x 3: the
    plan's spatial velocity v_s and angular velocity omega_s).  Every array
    is read-only; dataclasses.replace builds a changed scenario.
    """

    edge_length: float = 0.075
    mu_hand: float = 0.8
    mu_table: float = 0.8
    n_min: float = 0.5
    gravity_object: np.ndarray = None
    gravity_hand: np.ndarray = None
    hand_contact_obj: np.ndarray = None
    table_contacts: np.ndarray = None
    rotation_axis: np.ndarray = None
    tilt_rate: float = math.pi / 30.0
    num_steps: int = 15
    step_duration: float = 1.0
    table_contacts_obj: np.ndarray = field(init=False, repr=False)
    contact_skews: np.ndarray = field(init=False, repr=False)
    hand_rows: np.ndarray = field(init=False, repr=False)
    table_rows: np.ndarray = field(init=False, repr=False)
    spatial_twist: np.ndarray = field(init=False, repr=False)

    def _set(self, name: str, value) -> None:
        """Write a field during construction; the dataclass is frozen."""
        if isinstance(value, np.ndarray):
            _read_only(value)
        object.__setattr__(self, name, value)

    def __post_init__(self):
        for name in ("edge_length", "mu_hand", "mu_table", "n_min", "tilt_rate", "step_duration"):
            self._set(name, _finite_reals(name, getattr(self, name)))
        for name in ("edge_length", "step_duration"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("mu_hand", "mu_table", "n_min"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        steps = self.num_steps
        if not isinstance(steps, numbers.Integral) or isinstance(steps, bool) or steps < 1:
            raise ValueError(f"num_steps must be an integer >= 1, got {steps!r}")
        self._set("num_steps", int(steps))
        final_angle = (self.num_steps - 1) * self.tilt_rate * self.step_duration
        if not math.isfinite(final_angle):
            raise ValueError(f"the plan's final tilt angle {final_angle} is not finite")
        half = 0.5 * self.edge_length
        defaults = {
            "gravity_object": ([0.0, 0.0, -2.45], 3),
            "gravity_hand": ([0.0, 0.0, 0.0], 3),
            "hand_contact_obj": ([0.0, 0.0, half], 3),
            "table_contacts": ([[0.0, -half, 0.0], [0.0, half, 0.0]], (2, 3)),
        }
        for name, (default, shape) in defaults.items():
            value = getattr(self, name)
            self._set(name, _finite_reals(name, default if value is None else value, shape))
        axis = self.rotation_axis
        axis = _finite_reals("rotation_axis", [0.0, -1.0, 0.0] if axis is None else axis, 3)
        # Scaled by its largest entry first, so that the norm cannot overflow.
        top = float(np.abs(axis).max())
        unit = axis / top if top > 0.0 else axis
        norm = np.linalg.norm(unit)
        # The axis runs along a table edge, so it must lie in the table plane.
        if not norm > 0.0 or abs(unit[2]) > 1e-9 * norm:
            raise ValueError(f"rotation_axis must be horizontal and nonzero, got {axis.tolist()}")
        self._set("rotation_axis", unit / norm)
        contacts_obj = self.table_contacts - initial_state(self).p
        self._set("table_contacts_obj", contacts_obj)
        skews = [skew(self.hand_contact_obj)] + [-skew(p) for p in contacts_obj]
        self._set("contact_skews", np.array(skews))
        self._set("hand_rows", np.vstack([RIDGE_DIRECTIONS - self.mu_hand * Z_AXIS, -Z_AXIS]))
        self._set("table_rows", RIDGE_DIRECTIONS - self.mu_table * Z_AXIS)
        omega_s = self.rotation_axis * self.tilt_rate
        v_s = -cross(self.rotation_axis, self.table_contacts[0]) * self.tilt_rate
        self._set("spatial_twist", np.array([v_s, omega_s]))


def _finite_reals(name: str, value, shape=None):
    """value as a finite float (shape None) or a float array of that shape."""
    out = real_array(name, value)
    if shape is None and out.ndim:
        raise ValueError(f"{name} must be a number, got {value!r}")
    out = float(out) if shape is None else out.reshape(shape)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class TiltingState:
    R: np.ndarray  # R_WO
    p: np.ndarray  # p_WO
    hand_position: np.ndarray


def initial_state(scenario: TiltingScenario) -> TiltingState:
    """Block resting flat against the contact edge, object frame world aligned."""
    block_dir = cross(Z_AXIS, scenario.rotation_axis)
    block_dir = block_dir / np.linalg.norm(block_dir)
    half = 0.5 * scenario.edge_length
    edge_mid = scenario.table_contacts.mean(axis=0)
    p0 = edge_mid + half * block_dir + half * Z_AXIS
    return TiltingState(_EYE3, p0, p0 + scenario.hand_contact_obj)


def goal_twist(state: TiltingState, scenario: TiltingScenario):
    """Goal rows pinning the object body twist to the planned tilt.

    The plan rotates the object about the contact edge at the scenario tilt
    rate, with the spatial twist (v_s, omega_s) of the scenario.  Its body
    twist at the current pose (R = R_WO, p = p_WO) is R^T [v_s - p x
    omega_s; omega_s], and G selects the (unactuated) object twist.
    """
    v_s, omega_s = scenario.spatial_twist
    twist = np.array([v_s - cross(state.p, omega_s), omega_s])
    return _GOAL_SELECTOR, (twist @ state.R).ravel()


# ---------------------------------------------------------------------------
# Holonomic constraints.


def constraint_matrix(scenario: TiltingScenario, R: np.ndarray) -> np.ndarray:
    """N of the three sticking contacts in body-twist coordinates.

    Rows 0:3 the hand contact (hand point minus object material point),
    rows 3:9 the two table contacts (object material point minus world
    anchor); R = R_WO turns the scenario's skew blocks into columns 3:6.
    """
    N = np.empty((9, 9))
    N[:3, :3] = -R
    N[3:6, :3] = N[6:, :3] = R
    N[:, 3:6] = (R @ scenario.contact_skews).reshape(9, 3)
    N[:, 6:] = _HAND_COLUMNS
    return N


# ---------------------------------------------------------------------------
# Guard conditions.


def guard_conditions(scenario: TiltingScenario, R_wo: np.ndarray) -> GuardConditions:
    """Friction cones and minimum normal forces for the three contacts.

    Reactions stack as lambda = [hand (on hand, W); table 1; table 2 (on
    object, W)].  24 cone rows come first (8 ridges per contact), then the
    three normal lower bounds; the hand rows turn with the object's
    rotation R_wo.  No guard equalities.
    """
    hand = scenario.hand_rows @ R_wo.T
    Lambda = np.zeros((27, 18))
    Lambda[0:8, 0:3] = hand[:8]
    Lambda[8:16, 3:6] = scenario.table_rows
    Lambda[16:24, 6:9] = scenario.table_rows
    Lambda[24, 0:3] = hand[8]
    Lambda[25, 3:6] = Lambda[26, 6:9] = -Z_AXIS
    b_Lambda = np.zeros(27)
    b_Lambda[24:] = -scenario.n_min
    return GuardConditions(Lambda, b_Lambda, _NO_GAMMA, _NO_B_GAMMA)


# ---------------------------------------------------------------------------
# Instance assembly and the plan.


def build_instance(state: TiltingState, scenario: TiltingScenario):
    """System instance plus guard conditions for one step of the plan.

    The constraint residual is zero on the plan, so only its derivative N
    is built.
    """
    R_wo = state.R
    N = constraint_matrix(scenario, R_wo)
    G, b_G = goal_twist(state, scenario)
    # Object gravity as a body wrench; the object frame sits at the center
    # of mass, so the torque part vanishes.
    F = np.concatenate([R_wo.T @ scenario.gravity_object, np.zeros(3), scenario.gravity_hand])
    instance = SystemInstance(n_u=6, N=N, G=G, b_G=b_G, F=F)
    return instance, guard_conditions(scenario, R_wo)


def rollout_states(scenario: TiltingScenario) -> list[TiltingState]:
    """The num_steps states at which actions are synthesized, plan order.

    State k is the initial state turned about the contact edge by a_k =
    k * tilt_rate * step_duration, in the closed form of the module notes.
    """
    start = initial_state(scenario)
    K = skew(scenario.rotation_axis)
    K2 = K @ K
    pivot = scenario.table_contacts[0]
    states = []
    for k in range(scenario.num_steps):
        angle = k * scenario.tilt_rate * scenario.step_duration
        R = _EYE3 + math.sin(angle) * K + (1.0 - math.cos(angle)) * K2
        p = pivot + R @ (start.p - pivot)
        states.append(TiltingState(R, p, pivot + R @ (start.hand_position - pivot)))
    return states
