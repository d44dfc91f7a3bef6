import gc
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbmor.tensor_kron import (
    HessianTensor,
    apply_hessian,
    apply_unfolded,
    hessian_congruence,
    hessian_gram,
    quadratic_jacobian,
    symmetrize,
)

from helpers import random_tensor, vec


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


def test_vec_kron_identity_seeded():
    rng = np.random.default_rng(42)
    for _ in range(10):
        X, Y, Z = (rng.standard_normal((3, 3)) for _ in range(3))
        lhs = vec(X @ Y @ Z)
        rhs = np.kron(Z.T, X) @ vec(Y)
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
    assert np.array_equal(t.mode(mode).toarray(), expected)


def test_matricize_counting_rows_n2():
    t = counting_tensor(2)
    assert np.array_equal(t.mode(1).toarray()[0], [111, 112, 121, 122])
    # mode-2 columns are ordered (k, i) with i fastest
    assert np.array_equal(t.mode(2).toarray()[0], [111, 211, 112, 212])


def test_matricize_single_entry_mode3():
    t = HessianTensor(2, [0], [1], [0], [5.0])
    M = t.mode(3).toarray()
    expected = np.zeros((2, 4))
    expected[0, 1 * 2 + 0] = 5.0  # row k=1, column (j-1)*n + i = 3 (1-based)
    assert np.array_equal(M, expected)


@pytest.mark.parametrize("build, message", [
    (lambda: HessianTensor(0, [], [], [], []), "tensor dimension must be positive, got 0"),
    (lambda: HessianTensor(2, [0, 1], [0], [0], [1.0]),
     "index and value arrays must have equal length"),
    (lambda: HessianTensor(2, [0], [2], [0], [1.0]), "tensor indices out of range"),
    (lambda: HessianTensor(2, [0], [0], [-1], [1.0]), "tensor indices out of range"),
    (lambda: HessianTensor(2, [0], [0], [0], [np.nan]), "tensor values must be finite"),
    (lambda: HessianTensor(2, [0, 1], [0, 1], [1, 0], [1.0, -np.inf]),
     "tensor values must be finite"),
    (lambda: HessianTensor.from_mode1(np.ones((2, 3))),
     "mode-1 unfolding must be n-by-n^2, got (2, 3)"),
    (lambda: HessianTensor.from_dense(np.ones((2, 2, 3))),
     "expected a cubic third-order array, got (2, 2, 3)"),
    (lambda: HessianTensor.from_dense(np.ones((2, 2))), "expected a cubic third-order array"),
], ids=["dimension", "lengths", "index-high", "index-negative", "nan", "inf", "mode1-shape",
        "dense-shape", "dense-ndim"])
def test_tensor_construction_rejections(build, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        build()


def test_matricize_invalid_mode():
    t = counting_tensor(2)
    with pytest.raises(ValueError):
        t.mode(4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matricize_bijection_roundtrip(n):
    t = random_tensor(n, n)
    m1 = t.mode(1).toarray()
    for mode in (2, 3):
        M = t.mode(mode).toarray()
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
    assert (t3.mode(1) - t.mode(1)).nnz == 0


def test_symmetric_flag_averages_the_triplets():
    rng = np.random.default_rng(0)
    i, j, k = rng.integers(0, 5, (3, 20))
    v = rng.standard_normal(20)
    t = HessianTensor(5, i, j, k, v, symmetric=True)
    T = t.to_dense()
    assert t.symmetric and np.array_equal(T, np.transpose(T, (0, 2, 1)))
    assert (t.mode(1) - symmetrize(HessianTensor(5, i, j, k, v)).mode(1)).nnz == 0
    # data that is already symmetric comes out bit for bit
    again = HessianTensor(5, t._i, t._j, t._k, t._v, symmetric=True)
    assert all(np.array_equal(a, b) for a, b in
               ((again._i, t._i), (again._j, t._j), (again._k, t._k), (again._v, t._v)))


def test_symmetrize_single_entry():
    t = HessianTensor(2, [0], [0], [1], [4.0])
    ts = symmetrize(t)
    M = ts.mode(1).toarray()
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
    dense = t.mode(1).toarray() @ np.kron(a, b)
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


def test_quadratic_jacobian_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^operand shape \(3,\) does not match n=4$"):
        quadratic_jacobian(random_tensor(0, 4), np.ones(3))


@pytest.mark.parametrize("mode", [1, 2])
def test_congruence_identity_returns_unfolding(mode):
    t = random_tensor(21, 5)
    got = hessian_congruence(t, mode, np.eye(5), np.eye(5))
    assert np.allclose(got, t.mode(mode).toarray(), rtol=0, atol=1e-15)


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
    dense = t.mode(mode).toarray() @ np.kron(L, R)
    assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)


def test_congruence_errors():
    t = random_tensor(1, 4)
    with pytest.raises(ValueError):
        hessian_congruence(t, 3, np.eye(4), np.eye(4))
    with pytest.raises(ValueError):
        hessian_congruence(t, 1, np.eye(5), np.eye(4))
    with pytest.raises(ValueError, match="^L and R must be matrices$"):
        apply_unfolded(t.mode(1), np.ones(4), np.eye(4))


def test_quadratic_jacobian_matches_directional_derivative():
    rng = np.random.default_rng(4)
    t = symmetrize(random_tensor(40, 6))
    x = rng.standard_normal(6)
    J = quadratic_jacobian(t, x)
    y = rng.standard_normal(6)
    expect = apply_hessian(t, x, y) + apply_hessian(t, y, x)
    assert np.allclose(J @ y, expect, rtol=1e-13, atol=1e-14)


def scatter_sums(t, a, b):
    """``H (a kron b)`` and ``quadratic_jacobian(t, a)`` summed triplet by triplet."""
    h = np.zeros(t.n, dtype=np.result_type(a, b))
    J = np.zeros((t.n, t.n), dtype=a.dtype)
    np.add.at(h, t._i, t._v * a[t._j] * b[t._k])
    np.add.at(J, (t._i, t._j), t._v * a[t._k])
    np.add.at(J, (t._i, t._k), t._v * a[t._j])
    return h, J


@pytest.mark.parametrize("complex_operands", [False, True])
def test_dense_forms_match_triplet_sums(complex_operands):
    rng = np.random.default_rng(7)
    t = random_tensor(8, 10, symmetric=True)
    a, b = rng.standard_normal((2, 10))
    if complex_operands:
        a, b = a + 1j * rng.standard_normal(10), b - 1j * rng.standard_normal(10)
    assert t._dense_forms() is not None
    h, J = scatter_sums(t, a, b)
    got_h, got_J = apply_hessian(t, a, b), quadratic_jacobian(t, a)
    assert got_h.dtype == h.dtype and got_J.dtype == J.dtype
    assert np.linalg.norm(got_h - h) <= 1e-14 * np.linalg.norm(h)
    assert np.linalg.norm(got_J - J) <= 1e-14 * np.linalg.norm(J)
    assert got_J.flags.f_contiguous


def test_sparse_tensor_has_no_dense_forms():
    n = 12
    i = np.arange(1, n - 1)
    t = HessianTensor(n, np.r_[i, i], np.r_[i - 1, i + 1], np.r_[i, i], np.ones(2 * i.size))
    assert t._dense_forms() is None
    assert HessianTensor.zero(3)._dense_forms() is None


def test_dense_forms_are_freed_with_the_tensor():
    t = random_tensor(9, 6)
    H1, G = t._dense_forms()
    refs = [weakref.ref(H1), weakref.ref(G)]
    del H1, G
    assert all(r() is not None for r in refs)
    del t
    gc.collect()
    assert all(r() is None for r in refs)


def jacobian_positions(t, ld=None):
    """Flat positions of ``t``'s Jacobian cells in Fortran storage of leading dimension
    ``ld``, or with ``ld=None`` in (3, n) tridiagonal storage, entry (i, j) at row 1 + i - j."""
    col, row = np.divmod(t._jacobian_pattern()[0], t.n)
    if ld is None:
        row, ld = 1 + row - col, 3
    return col * ld + row


def test_banded_quadratic_jacobian_holds_the_band_of_the_dense_one():
    rng = np.random.default_rng(2)
    n = 9
    i = np.arange(1, n - 1)
    t = HessianTensor(n, np.r_[i, i, i], np.r_[i - 1, i + 1, i], np.r_[i, i - 1, i + 1],
                      rng.standard_normal(3 * i.size))
    x = rng.standard_normal(n)
    J = quadratic_jacobian(t, x)
    Jb = np.zeros((3, n), order="F")
    assert quadratic_jacobian(t, x, out=Jb, at=jacobian_positions(t)) is Jb
    r, c = np.indices((n, n))
    inside = abs(r - c) <= 1
    assert J.any() and not J[~inside].any()
    expect = np.zeros_like(Jb)
    expect[(1 + r - c)[inside], c[inside]] = J[inside]
    assert np.array_equal(Jb, expect)


@pytest.mark.parametrize("case", ["band", "band-tridiagonal", "full"])
def test_quadratic_jacobian_adds_into_a_given_storage(case):
    # into the leading n-by-n block of a larger Fortran-ordered storage, in place,
    # at the positions the caller gives for the cells, as the default return holds them
    rng = np.random.default_rng(5)
    n, tri = 9, case == "band-tridiagonal"
    i = np.arange(1, n - 1)
    t = (counting_tensor(n) if case == "full" else
         HessianTensor(n, np.r_[i, i, i], np.r_[i - 1, i + 1, i], np.r_[i, i, i - 1],
                       rng.standard_normal(3 * i.size)))
    cells, terms = t._jacobian_pattern()
    assert (t._dense_forms() is not None) == (case == "full") == (terms is None)
    if case == "full":
        assert np.array_equal(cells, np.arange(n * n))
    x = rng.standard_normal(n)
    base = np.asfortranarray(rng.standard_normal((3 if tri else n + 2, n + 2)))
    at = jacobian_positions(t, None if tri else n + 2)
    out = base.copy(order="F")
    assert quadratic_jacobian(t, x, out=out, at=at) is out
    expect = base.copy(order="F")
    J = quadratic_jacobian(t, x)
    if tri:
        c, r = np.divmod(cells, n)
        expect[1 + r - c, c] += J[r, c]
    else:
        expect[:n, :n] += J
    assert np.array_equal(out, expect)
    # C-ordered; positions of the wrong count; no positions
    for bad, bad_at in ((np.ascontiguousarray(base), at), (base, at[:-1]), (base, None)):
        with pytest.raises(ValueError, match=r"^out of shape .* is not Fortran storage with at"):
            quadratic_jacobian(t, x, out=bad, at=bad_at)


_VALUES = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False,
                    allow_subnormal=False)


@st.composite
def tensor_and_operands(draw):
    """A random sparse tensor (possibly empty) and two real or complex operands."""
    n = draw(st.integers(1, 5))
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index, index, _VALUES), max_size=2 * n ** 3))
    t = HessianTensor(n, *zip(*entries)) if entries else HessianTensor.zero(n)
    vector = st.lists(_VALUES, min_size=n, max_size=n).map(np.array)
    if draw(st.booleans()):
        return t, draw(vector) + 1j * draw(vector), draw(vector) + 1j * draw(vector)
    return t, draw(vector), draw(vector)


@settings(max_examples=150, deadline=None)
@given(tensor_and_operands())
@example((HessianTensor.zero(3), np.ones(3), np.ones(3)))
@example((HessianTensor(1, [0], [0], [0], [2.5]), np.array([1.0 + 2.0j]),
          np.array([3.0 - 1.0j])))
# a product that underflows to a subnormal, which the two contractions
# round one unit apart
@example((HessianTensor(1, [0], [0], [0], [1.1305]), np.array([1.22180796e-159]),
          np.array([1.22180796e-159])))
# the dense route rounds the subnormal a b and then scales it by |t| ~ 9
@example((HessianTensor(1, [0], [0], [0], [-8.99302148252577]),
          np.array([9.213088809111633e-10]), np.array([2.2720106569507715e-306])))
# the oracle rounds the subnormal t a and then scales it by |b| ~ 9
@example((HessianTensor(1, [0], [0], [0], [1.634737705027863e-296]),
          np.array([3.174087073657099e-20]), np.array([8.86852936016746])))
def test_kernels_match_dense_oracle(case):
    t, a, b = case
    T = t.to_dense()
    # relative to the summed magnitudes, plus a few subnormal units per summed term:
    # the dense route forms t[i,j,k] a[j] b[k] as (a b) t, the oracle as (t a) b, so a
    # product rounded to a subnormal unit is then scaled by |t| or by |b|; a Jacobian
    # term t[i,j,k] a[k] is one rounded product in both, well inside its (1 + |t|) units
    unit, W = 4 * np.finfo(float).smallest_subnormal, 1.0 + np.abs(T)
    dtype = np.result_type(T, a, b)
    got = apply_hessian(t, a, b)
    expect = np.einsum("ijk,j,k->i", T, a, b)
    bound = (1e-13 * np.einsum("ijk,j,k->i", np.abs(T), np.abs(a), np.abs(b))
             + unit * (np.einsum("ijk->i", W) + t.n * np.abs(b).sum()))
    assert got.dtype == dtype and got.shape == (t.n,)
    assert np.all(np.abs(got - expect) <= bound)
    J = quadratic_jacobian(t, a)
    expect = np.einsum("ijk,k->ij", T, a) + np.einsum("ijk,j->ik", T, a)
    bound = (1e-13 * (np.einsum("ijk,k->ij", np.abs(T), np.abs(a))
                      + np.einsum("ijk,j->ik", np.abs(T), np.abs(a)))
             + unit * (np.einsum("ijk->ij", W) + np.einsum("ijk->ik", W)))
    assert J.dtype == np.result_type(T, a) and J.shape == (t.n, t.n)
    assert np.all(np.abs(J - expect) <= bound)


def test_congruence_memory_stays_below_n_squared():
    # one dense (n^2 x 4) block of L kron L would take 128 MB at n = 2000
    import tracemalloc
    rng = np.random.default_rng(17)
    n, nnz = 2000, 8000
    t = HessianTensor(n, *rng.integers(0, n, (3, nnz)), rng.standard_normal(nnz))
    L = rng.standard_normal((n, 4))
    tracemalloc.start()
    try:
        got = hessian_congruence(t, 1, L, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    cols = [0, 5, 15]
    a, b = np.divmod(cols, 4)
    expect = np.stack([apply_hessian(t, L[:, p], L[:, q]) for p, q in zip(a, b)], 1)
    assert np.allclose(got[:, cols], expect, rtol=1e-12, atol=1e-12)


@st.composite
def tensor_and_gram_operands(draw):
    """A random sparse tensor (possibly empty), a mode and unsymmetric L != R."""
    n = draw(st.integers(1, 6))
    index = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(index, index, index, _VALUES), max_size=2 * n ** 3))
    t = HessianTensor(n, *zip(*entries)) if entries else HessianTensor.zero(n)
    square = st.lists(_VALUES, min_size=n * n, max_size=n * n).map(
        lambda v: np.reshape(v, (n, n)))
    return t, draw(st.sampled_from([1, 2])), draw(square), draw(square)


@settings(max_examples=150, deadline=None)
@given(tensor_and_gram_operands())
@example((HessianTensor.zero(3), 1, np.eye(3), np.ones((3, 3))))
@example((HessianTensor.zero(1), 2, np.ones((1, 1)), np.ones((1, 1))))
@example((HessianTensor(1, [0], [0], [0], [2.5]), 2, np.array([[-1.5]]),
          np.array([[3.0]])))
def test_hessian_gram_matches_congruence_route(case):
    t, mode, L, R = case
    M = t.mode(mode)
    got = hessian_gram(t, mode, L, R)
    expect = hessian_congruence(t, mode, L, R) @ M.T
    # entry-wise bound from the same sums taken over absolute values; the
    # floor covers products that underflow to subnormals
    absM = abs(M)
    bound = (1e-12 * (apply_unfolded(absM, np.abs(L), np.abs(R)) @ absM.T)
             + np.finfo(float).tiny)
    assert got.shape == (t.n, t.n) and got.dtype == expect.dtype
    assert np.all(np.abs(got - expect) <= bound)


@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("n, nnz", [(150, 1500), (30, None)])
def test_hessian_gram_across_column_windows(n, nnz, mode):
    # sparse n = 150: more stored columns than _GRAM_BLOCK, so Z is formed
    # in several windows, the last one partial; full-fill n = 30: dense forms
    rng = np.random.default_rng(n)
    if nnz is None:
        t = random_tensor(n, n, symmetric=True)
    else:
        t = HessianTensor(n, *rng.integers(0, n, (3, nnz)), rng.standard_normal(nnz))
    L = rng.standard_normal((n, n))
    R = rng.standard_normal((n, n))
    got = hessian_gram(t, mode, L, R)
    expect = hessian_congruence(t, mode, L, R) @ t.mode(mode).T
    assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)


@pytest.mark.parametrize("mode", [1, 2])
def test_hessian_gram_dense_route_matches_sparse_route(mode, monkeypatch):
    import qbmor.tensor_kron as tk

    rng = np.random.default_rng(10 + mode)
    T = rng.standard_normal((10, 10, 10))
    L, R = rng.standard_normal((2, 10, 10))
    full = HessianTensor.from_dense(T)
    assert full._dense_forms() is not None
    got = hessian_gram(full, mode, L, R)
    # the same entries with no dense forms take the sparse congruence
    monkeypatch.setattr(tk, "_DENSE_FILL", 2.0)
    sparse = HessianTensor.from_dense(T)
    assert sparse._dense_forms() is None
    expect = hessian_gram(sparse, mode, L, R)
    assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)


def test_hessian_gram_errors():
    t = random_tensor(1, 4)
    with pytest.raises(ValueError):
        hessian_gram(t, 3, np.eye(4), np.eye(4))
    with pytest.raises(ValueError):
        hessian_gram(t, 1, np.eye(5), np.eye(4))
    with pytest.raises(ValueError):
        hessian_gram(t, 2, np.eye(4), np.ones((4, 3)))


def test_hessian_gram_memory_stays_below_n_cubed():
    # the congruence route's dense n x n^2 block would take 1.7 GB here
    import tracemalloc
    rng = np.random.default_rng(600)
    n, nnz = 600, 2400
    t = HessianTensor(n, *rng.integers(0, n, (3, nnz)), rng.standard_normal(nnz))
    L = rng.standard_normal((n, n))
    R = rng.standard_normal((n, n))
    tracemalloc.start()
    try:
        got = hessian_gram(t, 2, L, R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    # spot-check three entries against the definition sum over stored entries
    M = t.mode(2).tocoo()
    a, b = np.divmod(M.col, n)
    for i, j in ((0, 0), (17, 403), (599, 1)):
        ri, rj = M.row == i, M.row == j
        left = M.data[ri][:, None] * L[a[ri]][:, a[rj]] * R[b[ri]][:, b[rj]]
        assert np.isclose(got[i, j], (left @ M.data[rj]).sum(), rtol=1e-12, atol=1e-12)


def _unfolded_case(name, rng):
    n = 5
    if name == "sparse-wide-empty-rows":
        # p != n rows, two of them empty
        D = rng.standard_normal((7, n * n)) * (rng.random((7, n * n)) < 0.3)
        D[[1, 4]] = 0.0
        M = sp.csr_matrix(D)
    elif name == "non-canonical-csr":
        # unsorted indices, (0, 7) stored twice, an explicit zero at (0, 3)
        # and an empty row
        M = sp.csr_matrix((np.array([1.5, -2.0, 0.0, 0.7, 3.0, -1.0]),
                           np.array([7, 7, 3, 24, 0, 12]), np.array([0, 3, 3, 6])),
                          shape=(3, n * n))
        assert not M.has_canonical_format
    elif name == "shared-columns":
        # q != n rows, every row stored at the same three columns
        D = np.zeros((6, n * n))
        D[:, [2, 9, 17]] = rng.standard_normal((6, 3))
        M = sp.csr_matrix(D)
    elif name == "dense":
        M = rng.standard_normal((3, n * n))
    elif name == "zero-tensor":
        M = HessianTensor.zero(n).mode(1)
    else:
        M = random_tensor(8, n).mode(2)
    L = rng.standard_normal((n, 3))
    R = rng.standard_normal((n, 2))
    if name == "complex":
        L = L + 1j * rng.standard_normal((n, 3))
        R = R - 2j * rng.standard_normal((n, 2))
    return M, L, R


@pytest.mark.parametrize(
    "name", ["sparse-wide-empty-rows", "non-canonical-csr", "shared-columns", "dense",
             "zero-tensor", "complex"])
def test_apply_unfolded_dense_oracle(name):
    M, L, R = _unfolded_case(name, np.random.default_rng(23))
    got = apply_unfolded(M, L, R)
    dense = (M.toarray() if sp.issparse(M) else M) @ np.kron(L, R)
    assert got.shape == dense.shape
    assert got.dtype == np.result_type(M.dtype, L.dtype, R.dtype)
    assert np.linalg.norm(got - dense) <= 1e-12 * max(np.linalg.norm(dense), 1.0)


def test_apply_unfolded_and_hessian_gram_share_one_restriction(monkeypatch):
    import qbmor.tensor_kron as tk
    restrict, calls = tk._stored_columns, []

    def counted(M, n):
        calls.append(M.shape)
        return restrict(M, n)

    monkeypatch.setattr(tk, "_stored_columns", counted)
    # no dense forms, so that hessian_gram takes the sparse route
    monkeypatch.setattr(tk, "_DENSE_FILL", 2.0)
    t = random_tensor(6, 4)
    L = np.random.default_rng(3).standard_normal((4, 4))
    apply_unfolded(t.mode(1), L[:, :2], L)
    assert calls == [(4, 16)]
    hessian_congruence(t, 2, L, L[:, :3])
    assert len(calls) == 2
    hessian_gram(t, 1, L, L.T)
    assert len(calls) == 3


def test_stored_column_restriction_is_kept_per_mode(monkeypatch):
    import qbmor.tensor_kron as tk
    restrict, calls = tk._stored_columns, []

    def counted(M, n):
        calls.append(M.shape)
        return restrict(M, n)

    monkeypatch.setattr(tk, "_stored_columns", counted)
    t = random_tensor(7, 4)
    L = np.random.default_rng(4).standard_normal((4, 3))
    first = hessian_congruence(t, 1, L, L)
    for _ in range(3):
        assert np.array_equal(hessian_congruence(t, 1, L, L), first)
    hessian_gram(t, 1, np.eye(4), np.eye(4))
    hessian_congruence(t, 2, L, L)
    hessian_gram(t, 2, np.eye(4), np.eye(4))
    assert calls == [(4, 16), (4, 16)]


def test_cached_forms_are_read_only():
    from qbmor.problems import gen_burgers

    burgers = gen_burgers(12, 0.01).H
    x = np.linspace(-1.0, 1.0, 12)
    before = (apply_hessian(burgers, x, x), hessian_congruence(burgers, 1, x[:, None], x[:, None]))
    full = counting_tensor(4)
    assert burgers._dense_forms() is None and full._dense_forms() is not None
    cached = []
    for t in (burgers, full):
        for mode in (1, 2, 3):
            M = t.mode(mode)
            cached += [M.data, M.indices, M.indptr]
        for mode in (1, 2):
            Hc, a, b, _ = t._restriction(mode)
            cached += [Hc.data, Hc.indices, Hc.indptr, a, b]
        cells, terms = t._jacobian_pattern()
        cached += [cells, *(terms or ())]
    H1, G = full._dense_forms()
    cached += [H1, H1.base, G]
    for arr in cached:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    with pytest.raises(ValueError, match="read-only"):
        burgers.mode(1).data *= 2.0
    # both kernels still read the same tensor
    after = (apply_hessian(burgers, x, x), hessian_congruence(burgers, 1, x[:, None], x[:, None]))
    assert all(np.array_equal(p, q) for p, q in zip(before, after))
    assert np.allclose(after[0], after[1][:, 0], rtol=1e-14, atol=1e-15)
