from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import empty_guard
from hybridservo.model import SystemInstance, make_instance, validate


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


def test_instance_stores_n_u_and_derives_n_and_n_a_from_f():
    assert [f.name for f in dataclasses.fields(SystemInstance)] == ["n_u", "N", "G", "b_G", "F"]
    N, G = np.zeros((9, 9)), np.zeros((6, 9))
    inst = SystemInstance(n_u=6, N=N, G=G, b_G=np.zeros(6), F=np.zeros(9))
    assert (inst.n, inst.n_a) == (9, 3)
    with pytest.raises(TypeError):
        SystemInstance(n_u=6, n_a=4, N=inst.N, G=inst.G, b_G=inst.b_G, F=inst.F)


@pytest.mark.parametrize("n_u", [-1, 4])
def test_validate_keeps_n_u_within_the_velocity_count(n_u):
    inst = dataclasses.replace(_small_instance(), n_u=n_u)
    problems = validate(inst, empty_guard(1, 3))
    assert problems == [f"n_u must lie in [0, 3], got {n_u}"]


def test_validate_clean_instance():
    inst = _small_instance()
    guard = empty_guard(inst.n_phi, inst.n)
    assert validate(inst, guard) == []


def test_validate_catches_shape_and_finiteness():
    inst = make_instance(1, np.ones((1, 2)), np.ones((2, 3)), [1.0], [0.0, 0.0, np.nan])
    guard = empty_guard(1, 3)
    problems = validate(inst, guard)
    assert any("N" in p for p in problems)
    assert any("b_G" in p for p in problems)
    assert any("non-finite" in p for p in problems)


@pytest.mark.parametrize("shape", [(1, 0), (0, 0)], ids=["row-without-columns", "no-rows-no-columns"])
def test_validate_checks_guard_width_with_or_without_rows(shape):
    # The force stage multiplies Lambda and Gamma into [lambda; f] even
    # without rows, so a wrong width is a problem either way.
    inst = _small_instance()
    w = inst.n_phi + inst.n
    for name in ("Lambda", "Gamma"):
        guard = dataclasses.replace(
            empty_guard(inst.n_phi, inst.n),
            **{name: np.zeros(shape), f"b_{name}": np.ones(shape[0])},
        )
        assert validate(inst, guard) == [f"{name} must have {w} columns"]


def test_guard_conditions_empty_counts():
    guard = empty_guard(2, 3)
    assert guard.n_ineq == 0
    assert guard.n_eq == 0
    assert guard.Lambda.shape == (0, 5)
    assert guard.Gamma.shape == (0, 5)
