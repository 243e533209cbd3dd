from __future__ import annotations

import numpy as np
import pytest

from hybridservo import subspace_linalg as sla
from hybridservo.errors import InconsistentSystem, SingularSystem


def test_numerical_rank_known_values():
    assert sla.numerical_rank(np.eye(4)) == 4
    outer = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    assert sla.numerical_rank(outer) == 1
    assert sla.numerical_rank(np.zeros((3, 5))) == 0
    assert sla.numerical_rank(np.zeros((0, 5))) == 0


def test_numerical_rank_relative_tolerance():
    # Singular values 1 and 1e-12: the small one falls below 1e-8 * 1.
    assert sla.numerical_rank(np.diag([1.0, 1e-12])) == 1
    # Scaling the matrix must not change the decision.
    assert sla.numerical_rank(1e6 * np.diag([1.0, 1e-12])) == 1
    assert sla.numerical_rank(np.diag([1.0, 1e-5])) == 2


def test_null_space_basis_properties():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 6))
    nb = sla.null_space_basis(M)
    assert nb.basis.shape == (6, 3)
    assert nb.dim == 3
    assert nb.source_rank == 3
    assert np.allclose(nb.basis.T @ nb.basis, np.eye(3), atol=1e-12)
    assert np.max(np.abs(M @ nb.basis)) < 1e-12 * np.max(np.abs(M))


def test_null_space_basis_empty_matrix_is_identity():
    nb = sla.null_space_basis(np.zeros((0, 4)))
    assert nb.basis.shape == (4, 4)
    assert np.allclose(nb.basis, np.eye(4))
    assert nb.source_rank == 0


def test_null_space_basis_full_rank_has_no_columns():
    nb = sla.null_space_basis(np.eye(3))
    assert nb.basis.shape == (3, 0)
    assert nb.dim == 0


def test_min_norm_solution_matches_pinv():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((2, 5))
    b = rng.standard_normal(2)
    x = sla.min_norm_solution(A, b)
    assert np.allclose(A @ x, b, atol=1e-10)
    assert np.allclose(x, np.linalg.pinv(A) @ b, atol=1e-10)


def test_min_norm_solution_is_minimal():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((2, 5))
    b = rng.standard_normal(2)
    x = sla.min_norm_solution(A, b)
    null = sla.null_space_basis(A).basis
    for _ in range(10):
        other = x + null @ rng.standard_normal(null.shape[1])
        assert np.linalg.norm(x) <= np.linalg.norm(other) + 1e-12


def test_min_norm_solution_inconsistent_raises():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    b = np.array([0.0, 1.0])
    with pytest.raises(InconsistentSystem):
        sla.min_norm_solution(A, b)


def test_min_norm_solution_no_rows_gives_zero():
    x = sla.min_norm_solution(np.zeros((0, 3)), np.zeros(0))
    assert np.allclose(x, np.zeros(3))


def test_solve_square_roundtrip():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    b = rng.standard_normal(4)
    x = sla.solve_square(A, b)
    assert np.allclose(A @ x, b, atol=1e-10)


def test_solve_square_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystem):
        sla.solve_square(A, np.array([1.0, 1.0]))


def test_solve_square_matrix_rhs_roundtrip():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    B = rng.standard_normal((5, 3))
    X = sla.solve_square(A, B)
    assert X.shape == (5, 3)
    assert np.allclose(A @ X, B, atol=1e-10)
    for j in range(3):
        assert np.allclose(X[:, j], sla.solve_square(A, B[:, j]), atol=1e-12)
    assert sla.solve_square(A, np.zeros((5, 0))).shape == (5, 0)


def test_solve_square_matrix_rhs_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystem):
        sla.solve_square(A, np.eye(2))


def _factor_cases():
    rng = np.random.default_rng(17)
    return [
        np.zeros((0, 4)),
        np.zeros((3, 0)),
        np.zeros((3, 5)),
        np.outer([1.0, 2.0, 3.0], [4.0, 5.0]),
        rng.standard_normal((4, 3)) @ rng.standard_normal((3, 6)),
        np.diag([1.0, 1e-12]),
        rng.standard_normal((3, 6)),
        rng.standard_normal((6, 3)),
    ]


@pytest.mark.parametrize("M", _factor_cases(), ids=lambda M: "x".join(map(str, M.shape)))
def test_factor_agrees_with_rank_and_null_space(M):
    full = sla.factor(M)
    thin = sla.factor(M, full_matrices=False)
    assert full.rank == thin.rank == sla.numerical_rank(M)
    nb = sla.null_space_basis(M)
    assert full.null_space().basis.shape == nb.basis.shape == (M.shape[1], M.shape[1] - full.rank)
    assert np.array_equal(full.null_space().basis, nb.basis)
    assert full.null_space().source_rank == nb.source_rank == full.rank


def test_factor_min_norm_matches_pinv_per_column():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 5))  # rank 2
    B = A @ rng.standard_normal((5, 4))
    X = sla.factor(A, full_matrices=False).min_norm(B)
    assert X.shape == (5, 4)
    assert np.allclose(X, np.linalg.pinv(A) @ B, atol=1e-10)
    assert np.allclose(sla.factor(A).min_norm(B[:, 1]), X[:, 1], atol=1e-12)
    assert sla.factor(np.zeros((0, 3))).min_norm(np.zeros(0)).shape == (3,)


def test_factor_min_norm_checks_each_column():
    A = np.array([[1.0, 0.0], [2.0, 0.0]])
    # The first column is consistent, the second is not.
    B = np.array([[1.0, 1.0], [2.0, 0.0]])
    with pytest.raises(InconsistentSystem):
        sla.factor(A).min_norm(B)
    assert np.allclose(sla.factor(A).min_norm(B[:, :1]), [[1.0], [0.0]])
