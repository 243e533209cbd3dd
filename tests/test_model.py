from __future__ import annotations

import numpy as np

from hybridservo.model import GuardConditions, make_instance, validate


def _small_instance():
    N = np.array([[1.0, -1.0, 0.0]])
    G = np.array([[1.0, 0.0, 0.0]])
    return make_instance(1, N, G, [0.2], [0.0, 0.0, 0.0])


def test_make_instance_derives_counts():
    inst = _small_instance()
    assert inst.n == 3
    assert inst.n_u == 1
    assert inst.n_a == 2
    assert inst.n_phi == 1


def test_validate_clean_instance():
    inst = _small_instance()
    guard = GuardConditions.empty(inst.n_phi, inst.n)
    assert validate(inst, guard) == []


def test_validate_catches_shape_and_finiteness():
    inst = make_instance(1, np.ones((1, 2)), np.ones((2, 3)), [1.0], [0.0, 0.0, np.nan])
    guard = GuardConditions.empty(1, 3)
    problems = validate(inst, guard)
    assert any("N" in p for p in problems)
    assert any("b_G" in p for p in problems)
    assert any("non-finite" in p for p in problems)


def test_guard_conditions_empty_counts():
    guard = GuardConditions.empty(2, 3)
    assert guard.n_ineq == 0
    assert guard.n_eq == 0
    assert guard.Lambda.shape == (0, 5)
    assert guard.Gamma.shape == (0, 5)
