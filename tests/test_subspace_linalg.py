"""Linear-algebra primitives: subspace_linalg and the LU solve of the KKT
test reference."""

from __future__ import annotations

import numpy as np
import pytest

from hybridservo import subspace_linalg as sla
from hybridservo.errors import InconsistentSystem, SingularSystem
from kkt_reference import solve_square


def test_rank_rule_known_values():
    assert sla.factor(np.eye(4)).rank == 4
    outer = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
    assert sla.factor(outer).rank == 1
    assert sla.factor(np.zeros((3, 5))).rank == 0
    assert sla.factor(np.zeros((0, 5))).rank == 0


def test_rank_rule_relative_tolerance():
    # Singular values 1 and 1e-12: the small one falls below 1e-8 * 1.
    assert sla.factor(np.diag([1.0, 1e-12])).rank == 1
    # Scaling the matrix must not change the decision.
    assert sla.factor(1e6 * np.diag([1.0, 1e-12])).rank == 1
    assert sla.factor(np.diag([1.0, 1e-5])).rank == 2
    # Against a given scale instead: round-off in a matrix far smaller than
    # its source has rank 0, and scaling both keeps the decision.
    assert sla.factor(np.diag([1e-12, 1e-16]), scale=1.0).rank == 0
    assert sla.factor(np.diag([1e-4, 1e-12]), scale=1.0).rank == 1
    assert sla.factor(1e6 * np.diag([1e-4, 1e-12]), scale=1e6).rank == 1


def test_factor_takes_no_tolerance():
    # The cutoff is RANK_TOL: a tolerance passed in its old place must not
    # bind to a keyword.
    with pytest.raises(TypeError):
        sla.factor(np.eye(2), 1e-8)


def test_factor_null_space_properties():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((3, 6))
    f = sla.factor(M)
    basis = f.null_space()
    assert basis.shape == (6, 3)
    assert f.rank == 3
    assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)
    assert np.max(np.abs(M @ basis)) < 1e-12 * np.max(np.abs(M))


def test_factor_null_space_of_empty_matrix_is_identity():
    f = sla.factor(np.zeros((0, 4)))
    assert f.null_space().shape == (4, 4)
    assert np.allclose(f.null_space(), np.eye(4))
    assert f.rank == 0


def test_factor_null_space_of_full_rank_has_no_columns():
    assert sla.factor(np.eye(3)).null_space().shape == (3, 0)


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
    basis = full.null_space()
    assert basis.shape == (M.shape[1], M.shape[1] - full.rank)
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    assert np.allclose(M @ basis, 0.0, atol=1e-12 * np.abs(M).max(initial=1.0))


def test_factor_min_norm_matches_pinv_per_column():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 5))  # rank 2
    B = A @ rng.standard_normal((5, 4))
    X = sla.factor(A).min_norm(B)
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


def test_factor_min_norm_rejects_a_residual_that_overflows():
    # ||b|| overflows as well, so the bound alone would read inf <= inf.
    with np.errstate(over="ignore"), pytest.raises(InconsistentSystem):
        sla.factor([[1.0, 0.0], [1.0, 0.0]]).min_norm([1e308, -1e308])


# The LU square solve of the KKT test reference (tests/kkt_reference.py).


def test_solve_square_roundtrip():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    b = rng.standard_normal(4)
    x = solve_square(A, b)
    assert np.allclose(A @ x, b, atol=1e-10)


def test_solve_square_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystem):
        solve_square(A, np.array([1.0, 1.0]))


def test_solve_square_matrix_rhs_roundtrip():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    B = rng.standard_normal((5, 3))
    X = solve_square(A, B)
    assert X.shape == (5, 3)
    assert np.allclose(A @ X, B, atol=1e-10)
    for j in range(3):
        assert np.allclose(X[:, j], solve_square(A, B[:, j]), atol=1e-12)
    assert solve_square(A, np.zeros((5, 0))).shape == (5, 0)


def test_solve_square_matrix_rhs_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystem):
        solve_square(A, np.eye(2))


def test_row_complement_is_the_svd_complement_of_the_row():
    # Rows orthonormal and orthogonal to k, equal to the trailing rows of
    # LAPACK's SVD of k to round-off, for n = 2..12; k = +-e_1, k_0 = +-0.0
    # (LAPACK counts -0.0 as negative) and rows scaled by 1e+-150 included.
    rng = np.random.default_rng(36)
    worst = 0.0
    for n in range(2, 13):
        ks = [rng.standard_normal(n) for _ in range(40)]
        for sign in (1.0, -1.0):
            ks.append(sign * np.eye(n)[0])
            k = rng.standard_normal(n)
            k[0] = sign * 0.0
            ks.append(k)
        ks += [10.0 ** e * rng.standard_normal(n) for e in (150, -150) for _ in range(5)]
        for k in ks:
            H = sla.row_complement(k)
            assert H.shape == (n - 1, n)
            assert np.abs(H @ H.T - np.eye(n - 1)).max() <= 1e-15
            assert np.abs(H @ (k / np.linalg.norm(k))).max() <= 1e-15
            worst = max(worst, np.abs(H - np.linalg.svd(k[None])[2][1:]).max())
        for k in (np.eye(n)[0], -np.eye(n)[0]):  # LAPACK's H = I, with no -0.0
            H = sla.row_complement(k)
            assert np.array_equal(H, np.eye(n)[1:]) and not np.signbit(H).any()
    assert worst <= 1e-15
