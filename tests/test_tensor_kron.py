import numpy as np
import pytest

from qbmor.tensor_kron import (
    HessianTensor,
    apply_hessian,
    hessian_congruence,
    kron,
    matricize,
    quadratic_jacobian,
    symmetrize,
    vec,
)

from helpers import random_tensor


def counting_tensor(n):
    """t[i,j,k] = 100 (i+1) + 10 (j+1) + (k+1), all entries set."""
    T = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                T[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
    return HessianTensor.from_dense(T)


def test_vec_column_stacking():
    assert np.array_equal(vec(np.array([[1, 3], [2, 4]])), [1, 2, 3, 4])
    assert np.array_equal(vec(np.eye(2)), [1, 0, 0, 1])
    M = np.array([[11, 12], [21, 22], [31, 32]])
    assert np.array_equal(vec(M), [11, 21, 31, 12, 22, 32])


def test_kron_identity_cases():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.array_equal(kron(np.array([[2.0]]), np.eye(2)), 2.0 * np.eye(2))


def test_vec_kron_identity_seeded():
    rng = np.random.default_rng(42)
    for _ in range(10):
        X, Y, Z = (rng.standard_normal((3, 3)) for _ in range(3))
        lhs = vec(X @ Y @ Z)
        rhs = kron(Z.T, X) @ vec(Y)
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(lhs)


def brute_force_unfolding(T, mode):
    """Independent oracle: place every entry by the index map definition."""
    n = T.shape[0]
    M = np.zeros((n, n * n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mode == 1:
                    M[i, j * n + k] = T[i, j, k]
                elif mode == 2:
                    M[j, k * n + i] = T[i, j, k]
                else:
                    M[k, j * n + i] = T[i, j, k]
    return M


@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_matricize_brute_force(mode, n):
    t = counting_tensor(n)
    expected = brute_force_unfolding(t.to_dense(), mode)
    assert np.array_equal(matricize(t, mode).toarray(), expected)


def test_matricize_counting_rows_n2():
    t = counting_tensor(2)
    assert np.array_equal(matricize(t, 1).toarray()[0], [111, 112, 121, 122])
    # mode-2 columns are ordered (k, i) with i fastest
    assert np.array_equal(matricize(t, 2).toarray()[0], [111, 211, 112, 212])


def test_matricize_single_entry_mode3():
    t = HessianTensor(2, [0], [1], [0], [5.0])
    M = matricize(t, 3).toarray()
    expected = np.zeros((2, 4))
    expected[0, 1 * 2 + 0] = 5.0  # row k=1, column (j-1)*n + i = 3 (1-based)
    assert np.array_equal(M, expected)


def test_matricize_invalid_mode():
    t = counting_tensor(2)
    with pytest.raises(ValueError):
        matricize(t, 4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matricize_bijection_roundtrip(n):
    t = random_tensor(n, n)
    m1 = matricize(t, 1).toarray()
    for mode in (2, 3):
        M = matricize(t, mode).toarray()
        rebuilt = np.zeros((n, n * n))
        for r in range(n):
            for c in range(n * n):
                slow, fast = divmod(c, n)
                if mode == 2:
                    i, j, k = fast, r, slow
                else:
                    i, j, k = fast, slow, r
                rebuilt[i, j * n + k] = M[r, c]
        assert np.array_equal(rebuilt, m1)


def test_symmetrize_fixed_point():
    t = symmetrize(random_tensor(3, 4))
    t2 = symmetrize(t)
    assert t2 is t
    # explicit re-symmetrization of symmetric values is entry-wise exact
    t3 = symmetrize(HessianTensor(t.n, t._i, t._j, t._k, t._v))
    assert (matricize(t3, 1) - matricize(t, 1)).nnz == 0


def test_symmetrize_single_entry():
    t = HessianTensor(2, [0], [0], [1], [4.0])
    ts = symmetrize(t)
    M = matricize(ts, 1).toarray()
    assert M[0, 0 * 2 + 1] == 2.0
    assert M[0, 1 * 2 + 0] == 2.0
    assert ts.symmetric


def test_symmetrize_preserves_quadratic_form():
    rng = np.random.default_rng(5)
    t = random_tensor(11, 6)
    ts = symmetrize(t)
    for _ in range(5):
        x = rng.standard_normal(6)
        a = apply_hessian(t, x, x)
        b = apply_hessian(ts, x, x)
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(a)
    # swapped arguments agree exactly after symmetrization
    a, b = rng.standard_normal(6), rng.standard_normal(6)
    assert np.allclose(apply_hessian(ts, a, b), apply_hessian(ts, b, a),
                       rtol=0, atol=1e-14)


def test_apply_hessian_zero_and_single_entry():
    assert np.array_equal(apply_hessian(HessianTensor.zero(3),
                                        np.ones(3), np.ones(3)), np.zeros(3))
    t = HessianTensor(2, [0], [0], [0], [1.0])
    assert np.array_equal(apply_hessian(t, [3.0, 0.0], [3.0, 0.0]), [9.0, 0.0])


def test_apply_hessian_dense_oracle():
    rng = np.random.default_rng(9)
    t = random_tensor(2, 7)
    a, b = rng.standard_normal(7), rng.standard_normal(7)
    dense = matricize(t, 1).toarray() @ np.kron(a, b)
    got = apply_hessian(t, a, b)
    assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense)


def test_apply_hessian_bilinear():
    rng = np.random.default_rng(12)
    t = random_tensor(3, 5)
    a, a2, b = (rng.standard_normal(5) for _ in range(3))
    lhs = apply_hessian(t, 2.0 * a + a2, b)
    rhs = 2.0 * apply_hessian(t, a, b) + apply_hessian(t, a2, b)
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-14)


def test_apply_hessian_dimension_mismatch():
    t = random_tensor(0, 4)
    with pytest.raises(ValueError):
        apply_hessian(t, np.ones(3), np.ones(4))


@pytest.mark.parametrize("mode", [1, 2])
def test_congruence_identity_returns_unfolding(mode):
    t = random_tensor(21, 5)
    got = hessian_congruence(t, mode, np.eye(5), np.eye(5))
    assert np.allclose(got, matricize(t, mode).toarray(), rtol=0, atol=1e-15)


def test_congruence_single_column():
    rng = np.random.default_rng(3)
    t = random_tensor(8, 6)
    L = rng.standard_normal((6, 1))
    R = rng.standard_normal((6, 1))
    got = hessian_congruence(t, 1, L, R)
    expect = apply_hessian(t, L[:, 0], R[:, 0])
    assert np.allclose(got[:, 0], expect, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("mode", [1, 2])
def test_congruence_dense_oracle(mode):
    rng = np.random.default_rng(mode)
    t = random_tensor(31, 6)
    L = rng.standard_normal((6, 3))
    R = rng.standard_normal((6, 2))
    got = hessian_congruence(t, mode, L, R)
    dense = matricize(t, mode).toarray() @ np.kron(L, R)
    assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)


def test_congruence_errors():
    t = random_tensor(1, 4)
    with pytest.raises(ValueError):
        hessian_congruence(t, 3, np.eye(4), np.eye(4))
    with pytest.raises(ValueError):
        hessian_congruence(t, 1, np.eye(5), np.eye(4))


def test_quadratic_jacobian_matches_directional_derivative():
    rng = np.random.default_rng(4)
    t = symmetrize(random_tensor(40, 6))
    x = rng.standard_normal(6)
    J = quadratic_jacobian(t, x)
    y = rng.standard_normal(6)
    expect = apply_hessian(t, x, y) + apply_hessian(t, y, x)
    assert np.allclose(J @ y, expect, rtol=1e-13, atol=1e-14)
