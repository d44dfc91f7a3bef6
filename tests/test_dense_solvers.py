import warnings

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmor.dae_transform import build_projectors
from qbmor.dense_solvers import (
    LYAPUNOV_TOL,
    PENCIL_TOL,
    SADDLE_TOL,
    ResidualError,
    SolverError,
    _realify,
    _ShiftPencil,
    pencil_eig,
    record_residuals,
    solve_lyapunov,
    solve_saddle,
    solve_saddle_adjoint,
    solve_shifted,
)
from qbmor.problems import gen_synthetic_dae

from helpers import conjugate_pairs, random_stable_ode


def stable_pencil(seed, r):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((r, r))
    A = -(M @ M.T) / r - np.eye(r) + 0.7 * (M - M.T)
    G = rng.standard_normal((r, r))
    E = np.eye(r) + (G @ G.T) / (4 * r)
    return E, A


# -- pencil_eig --------------------------------------------------------------


def test_pencil_eig_diagonal():
    fact = pencil_eig(np.eye(2), np.diag([-1.0, -2.0]))
    assert np.allclose(fact.eigenvalues, [-2.0, -1.0])
    assert np.allclose(fact.X @ np.eye(2) @ fact.Y, np.eye(2), atol=1e-12)


def test_pencil_eig_scalar_generalized():
    fact = pencil_eig(np.array([[2.0]]), np.array([[-4.0]]))
    assert np.allclose(fact.eigenvalues, [-2.0])


def test_pencil_eig_residuals_seeded():
    E, A = stable_pencil(1, 6)
    fact = pencil_eig(E, A)
    res_a = np.linalg.norm(fact.X @ A @ fact.Y - np.diag(fact.eigenvalues))
    res_e = np.linalg.norm(fact.X @ E @ fact.Y - np.eye(6))
    assert res_a <= 1e-10 * np.linalg.norm(A)
    assert res_e <= 1e-10
    # the basis condition that scales the accepted residual is kept
    assert fact.kappa == pytest.approx(
        np.linalg.norm(fact.X) * np.linalg.norm(E @ fact.Y), rel=1e-12)
    assert fact.kappa >= 6.0


def test_pencil_eig_conjugate_closed():
    E, A = stable_pencil(2, 7)
    fact = pencil_eig(E, A)
    lam = fact.eigenvalues
    assert conjugate_pairs(lam) is not None
    # eigenvalues sorted ascending by (real, imag)
    order = np.lexsort((lam.imag, lam.real))
    assert np.array_equal(order, np.arange(lam.size))
    # paired eigenvector columns are exact conjugates
    _, pairs = conjugate_pairs(lam)
    for neg, pos in pairs:
        assert np.array_equal(fact.Y[:, pos], fact.Y[:, neg].conjugate())


@pytest.mark.parametrize("seed", [14, 26, 41])
def test_pencil_eig_sorts_after_pairing(seed):
    # pair members whose computed real parts differ by roundoff end up
    # out of (real, imag) order unless the pairs are snapped before sorting
    A = np.random.default_rng(seed).standard_normal((4, 4))
    lam = pencil_eig(np.eye(4), A).eigenvalues
    assert conjugate_pairs(lam) is not None
    assert np.array_equal(np.lexsort((lam.imag, lam.real)), np.arange(4))


@pytest.mark.parametrize("eps", [1e-9, 1e-11])
def test_near_real_pair_stays_a_pair(eps):
    # a conjugate pair this close to the real axis is still a pair: snapping
    # it to two real eigenvalues would give two identical eigenvectors
    A = np.array([[-1.0, eps, 0.0], [-eps, -1.0, 0.0], [0.0, 0.0, -3.0]])
    fact = pencil_eig(np.eye(3), A)
    assert np.array_equal(fact.eigenvalues, [-3.0, complex(-1.0, -eps), complex(-1.0, eps)])
    assert fact.split == ([0], [(1, 2)])
    assert np.linalg.norm(fact.X @ fact.Y - np.eye(3)) <= 1e-10


@pytest.mark.parametrize("case", [("stable", 1, 6), ("stable", 2, 7), ("stable", 4, 9),
                                  ("standard", 14, 4), ("standard", 26, 4),
                                  ("standard", 41, 4), ("real", 0, 5)])
def test_split_is_the_matched_pairing(case):
    kind, seed, r = case
    if kind == "stable":
        E, A = stable_pencil(seed, r)
    elif kind == "standard":
        E, A = np.eye(r), np.random.default_rng(seed).standard_normal((r, r))
    else:
        E, A = np.eye(r), -np.diag(np.arange(1.0, r + 1))
    fact = pencil_eig(E, A)
    assert fact.split == conjugate_pairs(fact.eigenvalues)
    real_idx, pairs = fact.split
    expect = np.empty(fact.Y.shape)
    for idx in real_idx:
        expect[:, idx] = fact.Y[:, idx].real
    for neg, pos in pairs:
        expect[:, neg], expect[:, pos] = fact.Y[:, neg].real, fact.Y[:, neg].imag
    assert np.array_equal(_realify(fact.split, fact.Y), expect)


def test_pencil_eig_singular_mass():
    with pytest.raises(SolverError, match="singular"):
        pencil_eig(np.zeros((2, 2)), np.eye(2))


@pytest.mark.parametrize("seed, r", [(1, 6), (2, 7), (4, 9)])
def test_pencil_eig_basis_matches_the_per_column_reference(seed, r):
    # the per-column construction from scipy's complex eigenvectors: each
    # column divided by its largest entry, then scaled to unit norm
    E, A = stable_pencil(seed, r)
    w, Y = la.eig(A, E)
    for j in range(r):
        y = Y[:, j] / Y[np.argmax(np.abs(Y[:, j])), j]
        Y[:, j] = y / np.linalg.norm(y)
    order = np.lexsort((w.imag, np.round(w.real, 8)))
    fact = pencil_eig(E, A)
    assert fact.split[1]
    assert np.abs(fact.eigenvalues - w[order]).max() <= 1e-12 * np.abs(w).max()
    assert np.abs(fact.Y - Y[:, order]).max() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pairs=st.integers(0, 3), reals=st.integers(0, 3))
def test_pencil_eig_on_real_pencils_with_forced_pairs(seed, pairs, reals):
    # (P J Q, P Q) with J block diagonal: 2x2 blocks [[a, b], [-b, a]] force
    # the conjugate pairs a -+ bi, 1x1 blocks the real eigenvalues; the real
    # parts of different blocks lie on a grid of step 1/4, so the order is robust
    rng = np.random.default_rng(seed)
    r = max(2 * pairs + reals, 1)
    re = -0.25 * rng.choice(np.arange(1, 40), pairs + max(reals, r - 2 * pairs), replace=False)
    blocks = [np.array([[a, b], [-b, a]]) for a, b in zip(re, rng.uniform(0.2, 3.0, pairs))]
    J = la.block_diag(*blocks, *[[[c]] for c in re[pairs:]])
    P, Q = (np.eye(r) + 0.3 * rng.standard_normal((r, r)) / np.sqrt(r) for _ in range(2))
    A, E = P @ J @ Q, P @ Q
    fact = pencil_eig(E, A)
    lam, X, Y = fact.eigenvalues, fact.X, fact.Y
    ref = la.eigvals(A, E)
    ref = ref[np.lexsort((ref.imag, np.round(ref.real, 8)))]
    assert np.abs(lam - ref).max() <= 1e-9 * np.abs(ref).max()
    assert np.array_equal(np.lexsort((lam.imag, lam.real)), np.arange(r))
    assert fact.split == conjugate_pairs(lam) and len(fact.split[1]) == pairs
    real_idx, pair_idx = fact.split
    assert not lam[real_idx].imag.any() and not Y[:, real_idx].imag.any()
    for neg, pos in pair_idx:
        assert lam[pos] == lam[neg].conjugate()
        assert np.array_equal(Y[:, pos], Y[:, neg].conjugate())
    assert np.linalg.norm(X @ A @ Y - np.diag(lam)) <= PENCIL_TOL * np.linalg.norm(A)
    assert np.linalg.norm(X @ E @ Y - np.eye(r)) <= PENCIL_TOL


# -- solve_shifted -----------------------------------------------------------


def test_solve_shifted_scalar():
    Z = solve_shifted(np.eye(2), -3.0 * np.eye(2), -2.0,
                      5.0 * np.eye(2)[:, :1])
    assert np.allclose(Z, np.array([[1.0], [0.0]]))


def test_solve_shifted_zero_rhs():
    E, A = stable_pencil(3, 5)
    Z = solve_shifted(E, A, 1.0 + 2.0j, np.zeros((5, 2)))
    assert np.array_equal(Z, np.zeros((5, 2)))


def test_solve_shifted_residual_seeded():
    rng = np.random.default_rng(4)
    E, A = stable_pencil(4, 9)
    rhs = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
    with record_residuals() as log:
        Z = solve_shifted(E, A, 0.5 - 1.3j, rhs)
    res = np.linalg.norm((-(0.5 - 1.3j) * E - A) @ Z - rhs)
    assert res <= 1e-10 * np.linalg.norm(rhs)
    assert log and all(v <= 1e-10 for _, v in log)


@pytest.mark.parametrize("sigma", [-0.5 + 0j, -0.5 + 0.75j])
def test_shift_factor_real_arithmetic_for_real_shift(sigma):
    E, A = stable_pencil(31, 6)
    rng = np.random.default_rng(31)
    fact = solve_shifted(E, A, np.complex128(sigma), None)
    assert fact.lu[0].dtype == (np.complex128 if sigma.imag else np.float64)
    rhs = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    M = -complex(sigma) * E - A
    for trans, oracle in ((False, M), (True, M.T)):
        expect = la.solve(oracle, rhs)
        got = fact.solve(rhs, trans)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_solve_shifted_collision():
    # -sigma E - A is singular when sigma is the mirror of an eigenvalue
    A = np.diag([-1.0, -2.0])
    with pytest.raises(SolverError, match="collides"):
        solve_shifted(np.eye(2), A, 1.0, np.ones((2, 1)))


def shift_factor_case(kind, sigma):
    """``(factor, assembled matrix, n)`` for an ODE or a saddle factor."""
    if kind == "ode":
        E, A = stable_pencil(32, 7)
        return solve_shifted(E, A, sigma, None), -sigma * E - A, 7
    sys = gen_synthetic_dae(10, 3, m=2, p=2, seed=8, quad_scale=0.1)
    K = np.block([[-sigma * sys.E11 - sys.A11, sys.A12],
                  [sys.A21, np.zeros((3, 3))]])
    return solve_saddle(sys.E11, sys.A11, sys.A12, sys.A21, sigma, None), K, 10


@pytest.mark.parametrize("layout", ["1d", "C", "F", "column slice"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("kind, padded", [("ode", False), ("saddle", False),
                                          ("saddle", True)])
@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("sigma", [-0.4 + 0j, 0.3 - 1.1j])
def test_shift_factor_solve_matches_assembled_solve(sigma, trans, kind, padded,
                                                    dtype, layout):
    fact, M, n = shift_factor_case(kind, sigma)
    rows = M.shape[0] if padded else n
    rng = np.random.default_rng(33)
    RHS = rng.standard_normal((rows, 3)).astype(dtype)
    if dtype is complex:
        RHS += 1j * rng.standard_normal((rows, 3))
    rhs = {"1d": RHS[:, 0].copy(), "C": np.ascontiguousarray(RHS),
           "F": np.asfortranarray(RHS), "column slice": RHS[:, 1]}[layout]
    full = np.concatenate([rhs, np.zeros((M.shape[0] - rows,) + rhs.shape[1:])])
    expect = la.solve(M.T if trans else M, full)
    got = fact.solve(rhs, trans)
    assert got.shape == expect.shape
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


@pytest.mark.parametrize("kind, message", [
    ("ode", r"shift collides with spectrum \(sigma=.*\): relative residual "
            r"\S+ exceeds 1e-10"),
    ("saddle", r"saddle solve residual \S+ exceeds 1e-10 at sigma="),
])
def test_residual_gate_measures_the_matrix_not_its_factors(kind, message):
    # a residual formed from the factors would read roundoff here; against
    # the stored matrix, one refinement leaves about 2e-8 (at a 1e-6 scaling
    # it would leave about 2e-12, below the gate, so that cannot show it)
    fact, _, n = shift_factor_case(kind, -0.4 + 0j)
    fact.lu[0][...] *= 1 + 1e-4
    with pytest.raises(ResidualError, match=message):
        fact.solve(np.ones(n))


def test_complex_solve_with_real_factor_forms_no_matrix():
    import tracemalloc
    n = 300
    E, A = stable_pencil(34, n)
    fact = solve_shifted(E, A, -0.5, None)
    rng = np.random.default_rng(34)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tracemalloc.start()
    try:
        fact.solve(rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8


@pytest.mark.parametrize("kind, rows, expected", [
    ("ode", 6, "5 or 5"), ("saddle", 13, "10 or 12"), ("saddle", 5, "10 or 12")])
def test_wrong_size_right_hand_side_is_a_value_error(kind, rows, expected):
    if kind == "ode":
        fact = solve_shifted(np.eye(5), -np.eye(5), -1.0 + 0.5j, None)
    else:
        sys = gen_synthetic_dae(10, 2, seed=2)
        fact = solve_saddle(sys.E11, sys.A11, sys.A12, sys.A21, 1.0, None)
    with pytest.raises(ValueError, match=f"right-hand side has {rows} rows, "
                                         f"expected {expected}$"):
        fact.solve(np.ones(rows))


@pytest.mark.parametrize("sigma", [-0.4, 0.3 - 1.1j])
def test_dense_saddle_matrix_is_the_block_assembly(sigma):
    sys = gen_synthetic_dae(10, 3, m=2, p=2, seed=8, quad_scale=0.1)
    pencil = _ShiftPencil(sys.E11, sys.A11, sys.A12, sys.A21)
    K = np.block([[-sigma * sys.E11 - sys.A11, sys.A12],
                  [sys.A21, np.zeros((3, 3))]])
    assert pencil.band is None
    assert np.array_equal(pencil.matrix(sigma), K)


# -- solve_lyapunov ----------------------------------------------------------


def test_solve_lyapunov_closed_form():
    P = solve_lyapunov(-np.eye(3), np.eye(3), 2.0 * np.eye(3))
    assert np.allclose(P, np.eye(3), atol=1e-12)


def test_solve_lyapunov_zero_rhs():
    E, A = stable_pencil(9, 4)
    assert np.allclose(solve_lyapunov(A, E, np.zeros((4, 4))), 0.0)


@pytest.mark.parametrize("n", [10, 70])
def test_solve_lyapunov_residual(n):
    # a small and a mid-size order through the same Schur-based solve
    rng = np.random.default_rng(n)
    E, A = stable_pencil(n, n)
    B = rng.standard_normal((n, 2))
    RHS = B @ B.T
    P = solve_lyapunov(A, E, RHS)
    res = np.linalg.norm(A @ P @ E.T + E @ P @ A.T + RHS)
    assert res <= 1e-9 * np.linalg.norm(RHS)
    assert np.allclose(P, P.T, rtol=0, atol=1e-12 * np.linalg.norm(P))


def test_solve_lyapunov_general_mass_matrix():
    n = 80
    rng = np.random.default_rng(80)
    _, A = stable_pencil(80, n)
    G = rng.standard_normal((n, n))
    E = np.diag(np.linspace(0.5, 3.0, n)) + (G @ G.T) / n   # SPD, far from I
    B = rng.standard_normal((n, 3))
    RHS = B @ B.T
    P = solve_lyapunov(A, E, RHS)
    res = np.linalg.norm(A @ P @ E.T + E @ P @ A.T + RHS)
    assert res <= LYAPUNOV_TOL * np.linalg.norm(RHS)


def test_solve_lyapunov_memory_without_kronecker_operator():
    # the n^2-by-n^2 Kronecker operator alone would take 104 MB at n = 60
    import tracemalloc
    n = 60
    E, A = stable_pencil(60, n)
    B = np.random.default_rng(60).standard_normal((n, 2))
    tracemalloc.start()
    try:
        solve_lyapunov(A, E, B @ B.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_solve_lyapunov_unstable():
    with pytest.raises(SolverError, match="unstable"):
        solve_lyapunov(np.eye(2), np.eye(2), np.eye(2))


def test_solve_lyapunov_unstable_fails_at_factor_time():
    with pytest.raises(SolverError, match="unstable pencil: spectral abscissa"):
        solve_lyapunov(np.eye(2), np.eye(2), None)


def test_lyapunov_factor_dual_solve_matches_transposed_pencil():
    n = 12
    rng = np.random.default_rng(12)
    _, A = stable_pencil(12, n)
    E = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    assert np.linalg.norm(E - E.T) > 0.1
    C = rng.standard_normal((2, n))
    fact = solve_lyapunov(A, E, None)
    with record_residuals() as log:
        got = fact.solve(C.T @ C, trans=True)
    expect = solve_lyapunov(A.T, E.T, C.T @ C)
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
    assert [tag for tag, _ in log] == ["lyapunov"]


# -- saddle solves -----------------------------------------------------------


def test_solve_saddle_decoupled():
    E11, A11 = np.eye(2), -np.eye(2)
    A12 = np.array([[1.0], [0.0]])
    A21 = np.array([[1.0, 0.0]])
    vbar, xi = solve_saddle(E11, A11, A12, A21, 0.0, np.array([0.0, 3.0]))
    assert np.allclose(vbar, [0.0, 3.0])
    assert np.allclose(xi, [0.0])


def test_solve_saddle_zero_rhs():
    sys = gen_synthetic_dae(10, 2, seed=0)
    vbar, xi = solve_saddle(sys.E11, sys.A11, sys.A12, sys.A21, 1.0,
                            np.zeros(10))
    assert np.allclose(vbar, 0.0) and np.allclose(xi, 0.0)


def test_solve_saddle_explicit_projector_oracle():
    rng = np.random.default_rng(11)
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=5, quad_scale=0.1)
    proj = build_projectors(sys)
    for sigma in (-2.0 + 1.5j, 0.8 - 0.3j, -1.0):
        f = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        vbar, _ = solve_saddle(sys.E11, sys.A11, sys.A12, sys.A21, sigma, f)
        T = -sigma * sys.E11 - sys.A11
        Xs = proj.phi_l.T @ T @ proj.theta_r
        oracle = proj.theta_r @ la.solve(Xs, proj.phi_l.T @ f)
        assert np.linalg.norm(vbar - oracle) <= 1e-8 * np.linalg.norm(oracle)
        assert np.linalg.norm(sys.A21 @ vbar) <= 1e-10 * np.linalg.norm(vbar)


@pytest.mark.parametrize("sigma", [0.0, -0.7 + 2.2j])
def test_saddle_solves_whole_right_hand_side(sigma):
    # a right-hand side of n_v + n_p rows carries the constraint rows too
    rng = np.random.default_rng(16)
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=5, quad_scale=0.1)
    K = np.block([[-sigma * sys.E11 - sys.A11, sys.A12],
                   [sys.A21, np.zeros((3, 3))]])
    rhs = rng.standard_normal((15, 2))
    with record_residuals() as log:
        vbar, xi = solve_saddle(sys.E11, sys.A11, sys.A12, sys.A21, sigma, rhs)
        wbar, eta = solve_saddle_adjoint(sys.E11, sys.A11, sys.A12, sys.A21,
                                         sigma, rhs)
    for z, M in ((np.vstack([vbar, xi]), K), (np.vstack([wbar, eta]), K.T)):
        oracle = la.solve(M, rhs)
        assert np.linalg.norm(z - oracle) <= 1e-12 * np.linalg.norm(oracle)
    assert [tag for tag, _ in log] == ["saddle", "saddle"]
    assert all(v <= SADDLE_TOL for _, v in log)


def test_singular_saddle_matrix_is_a_solver_error():
    # zero constraint blocks leave the multiplier rows and columns empty
    sys = gen_synthetic_dae(10, 2, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match=r"^singular saddle matrix at sigma=0\.5$"):
            solve_saddle(sys.E11, sys.A11, np.zeros((10, 2)), np.zeros((2, 10)), 0.5,
                         np.ones(10))


def test_solve_saddle_adjoint_zero_rhs():
    sys = gen_synthetic_dae(10, 2, seed=1)
    wbar, xi = solve_saddle_adjoint(sys.E11, sys.A11, sys.A12, sys.A21, 0.5,
                                    np.zeros(10))
    assert np.allclose(wbar, 0.0)


def test_solve_saddle_adjoint_self_adjoint_case():
    # symmetric data: the adjoint system coincides with the direct one
    rng = np.random.default_rng(13)
    n_v, n_p = 8, 2
    M = rng.standard_normal((n_v, n_v))
    E11 = M @ M.T + n_v * np.eye(n_v)
    K = rng.standard_normal((n_v, n_v))
    A11 = -(K @ K.T) - np.eye(n_v)
    A12 = rng.standard_normal((n_v, n_p))
    A21 = A12.T.copy()
    g = rng.standard_normal(n_v)
    vbar, _ = solve_saddle(E11, A11, A12, A21, -1.5, g)
    wbar, _ = solve_saddle_adjoint(E11, A11, A12, A21, -1.5, g)
    assert np.allclose(vbar, wbar, rtol=1e-10, atol=1e-12)


def test_solve_saddle_adjoint_explicit_projector_oracle():
    rng = np.random.default_rng(14)
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=5, quad_scale=0.1)
    proj = build_projectors(sys)
    sigma = -0.7 + 2.2j
    g = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    wbar, _ = solve_saddle_adjoint(sys.E11, sys.A11, sys.A12, sys.A21, sigma, g)
    T = -sigma * sys.E11 - sys.A11
    Xs = proj.phi_l.T @ T @ proj.theta_r
    oracle = proj.phi_l @ la.solve(Xs.T, proj.theta_r.T @ g)
    assert np.linalg.norm(wbar - oracle) <= 1e-8 * np.linalg.norm(oracle)
    assert np.linalg.norm(sys.A12.T @ wbar) <= 1e-10 * np.linalg.norm(wbar)


def test_residual_recording_covers_all_solvers():
    sys = gen_synthetic_dae(10, 2, seed=2)
    E, A = stable_pencil(15, 5)
    rng = np.random.default_rng(15)
    with record_residuals() as log:
        pencil_eig(E, A)
        solve_shifted(E, A, -1.0, rng.standard_normal((5, 1)))
        solve_lyapunov(A, E, np.eye(5))
        solve_saddle(sys.E11, sys.A11, sys.A12, sys.A21, 1.0,
                     rng.standard_normal(10))
        solve_saddle_adjoint(sys.E11, sys.A11, sys.A12, sys.A21, 1.0,
                             rng.standard_normal(10))
    tags = {tag for tag, _ in log}
    assert {"pencil", "shifted", "lyapunov", "saddle"} <= tags
    assert all(v <= 1e-9 for _, v in log)


# -- band shift factorizations -------------------------------------------------


def tridiagonal_pencil(seed, n):
    """A stable, diagonally dominant tridiagonal pencil ``(E, A)``."""
    rng = np.random.default_rng(seed)

    def tri(diag, off):
        return (np.diag(diag + 0.1 * rng.standard_normal(n))
                + off * np.diag(rng.standard_normal(n - 1), 1)
                + off * np.diag(rng.standard_normal(n - 1), -1))

    return tri(1.0, 0.05), tri(-2.0, 0.5)


def narrow_saddle_blocks(n_v, seed=0):
    """Tridiagonal ``(E11, A11)`` with the last two velocities constrained: bandwidth 2."""
    E11, A11 = tridiagonal_pencil(seed, n_v)
    A12 = np.zeros((n_v, 2))
    A12[n_v - 2, 0] = A12[n_v - 1, 1] = 1.0
    return E11, A11, A12, A12.T.copy()


@pytest.fixture
def lapack_routines(monkeypatch):
    """Names of the LAPACK routines that shift factors call, one entry per call."""
    calls = []
    fetch = la.get_lapack_funcs

    def counted_fetch(names, arrays=(), dtype=None):
        def counted(f):
            def call(*args, **kwargs):
                calls.append(f.__name__.split()[-1][1:])  # "function dgbtrf"
                return f(*args, **kwargs)
            return call
        return [counted(f) for f in fetch(names, arrays, dtype)]

    monkeypatch.setattr(la, "get_lapack_funcs", counted_fetch)
    return calls


def band_factor_case(kind, sigma):
    """``(factor, assembled matrix, n)`` for a narrow ODE or saddle factor."""
    if kind == "ode":
        E, A = tridiagonal_pencil(35, 30)
        return solve_shifted(E, A, sigma, None), -sigma * E - A, 30
    E11, A11, A12, A21 = narrow_saddle_blocks(30, seed=36)
    K = np.block([[-sigma * E11 - A11, A12], [A21, np.zeros((2, 2))]])
    return solve_saddle(E11, A11, A12, A21, sigma, None), K, 30


@pytest.mark.parametrize("layout", ["1d", "C", "F", "column slice"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("kind, padded", [("ode", False), ("saddle", False),
                                          ("saddle", True)])
@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("sigma", [-0.4 + 0j, 0.3 - 1.1j])
def test_band_factor_solve_matches_assembled_solve(sigma, trans, kind, padded, dtype,
                                                   layout, lapack_routines):
    fact, M, n = band_factor_case(kind, sigma)
    assert (fact.band.kl, fact.band.ku) == ((1, 1) if kind == "ode" else (2, 2))
    assert fact.lu[0].dtype == (np.complex128 if sigma.imag else np.float64)
    rows = M.shape[0] if padded else n
    rng = np.random.default_rng(37)
    RHS = rng.standard_normal((rows, 3)).astype(dtype)
    if dtype is complex:
        RHS += 1j * rng.standard_normal((rows, 3))
    rhs = {"1d": RHS[:, 0].copy(), "C": np.ascontiguousarray(RHS),
           "F": np.asfortranarray(RHS), "column slice": RHS[:, 1]}[layout]
    full = np.concatenate([rhs, np.zeros((M.shape[0] - rows,) + rhs.shape[1:])])
    expect = la.solve(M.T if trans else M, full)
    with record_residuals() as log:
        got = fact.solve(rhs, trans)
    assert got.shape == expect.shape
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
    assert [tag for tag, _ in log] == ["shifted" if kind == "ode" else "saddle"]
    assert "getrf" not in lapack_routines
    assert lapack_routines[0] == "gbtrf" and set(lapack_routines[1:]) == {"gbtrs"}


def test_band_collision_raises_the_shift_collision_error(lapack_routines):
    # -sigma E - A = diag(0, 1, ..., 19): a zero pivot in the band LU
    with pytest.raises(SolverError, match=r"^shift collides with spectrum \(sigma=1\.0\)$"):
        solve_shifted(np.eye(20), -np.diag(np.arange(1.0, 21.0)), 1.0, np.ones(20))
    assert lapack_routines == ["gbtrf"]


def test_dense_collision_raises_before_any_solve(lapack_routines):
    # -sigma E - A has a zero column in a dense pattern: getrf's info refuses it
    rng = np.random.default_rng(42)
    A = rng.standard_normal((20, 20))
    A[:, 7] = 0.0
    A[7, 7] = -1.0
    fact = None
    with pytest.raises(SolverError, match=r"^shift collides with spectrum \(sigma=1\.0\)$"):
        fact = solve_shifted(np.eye(20), A, 1.0, None)
    assert fact is None and lapack_routines == ["getrf"]


def test_dense_singular_saddle_raises_before_any_solve(lapack_routines):
    # a zero column of A12 leaves a zero column in the dense saddle matrix
    rng = np.random.default_rng(43)
    E11, A11 = np.eye(10) + 0.1 * rng.standard_normal((10, 10)), rng.standard_normal((10, 10))
    A12, A21 = rng.standard_normal((10, 2)), rng.standard_normal((2, 10))
    A12[:, 1] = 0.0
    with pytest.raises(SolverError, match=r"^singular saddle matrix at sigma=0\.5$"):
        solve_saddle(E11, A11, A12, A21, 0.5, np.ones(10))
    assert lapack_routines == ["getrf"]


def test_lyapunov_with_singular_mass_matrix_is_an_unstable_pencil():
    with pytest.raises(SolverError, match=r"^unstable pencil: spectral abscissa inf >= 0$"):
        solve_lyapunov(-np.eye(3), np.diag([1.0, 0.0, 1.0]), None)


def test_lyapunov_gate_refuses_a_non_finite_residual():
    # the raw getrs checks no input for NaN: the residual gate must refuse it
    E, A = stable_pencil(46, 5)
    with pytest.raises(ResidualError, match=r"^lyapunov solve residual nan exceeds 1e-09$"):
        solve_lyapunov(A, E, np.full((5, 5), np.nan))


def test_sylvester_returns_the_residual_and_rhs_norms():
    E, A = stable_pencil(44, 8)
    Eh, Ah = stable_pencil(45, 3)
    fact, other = solve_lyapunov(A, E, None), solve_lyapunov(Ah, Eh, None)
    rng = np.random.default_rng(44)
    for RHS, lyap, (Ar, Er) in ((np.eye(8), None, (A, E)),
                                (rng.standard_normal((8, 3)), other, (Ah, Eh))):
        X, (res, rhs) = fact.sylvester(RHS, lyap)
        assert rhs == np.linalg.norm(RHS)
        assert res == np.linalg.norm(A @ X @ Er.T + E @ X @ Ar.T + RHS)
        assert res <= 1e-12 * rhs


@pytest.mark.parametrize("kind, message", [
    ("ode", r"shift collides with spectrum \(sigma=.*\): relative residual "
            r"\S+ exceeds 1e-10"),
    ("saddle", r"saddle solve residual \S+ exceeds 1e-10 at sigma="),
])
def test_band_residual_gate_measures_the_band_matrix(kind, message):
    # as for dense factors: a perturbed LU leaves a residual against the
    # stored band matrix that one refinement does not bring under the gate
    fact, _, n = band_factor_case(kind, -0.4 + 0j)
    fact.lu[0][...] *= 1 + 1e-3
    with pytest.raises(ResidualError, match=message):
        fact.solve(np.ones(n))


@pytest.mark.parametrize("n, tridiagonal", [(2, False), (5, False), (6, True), (8, True)])
def test_small_narrow_pencils_are_banded(n, tridiagonal, lapack_routines):
    # the band rule 2(kl + ku + 1) <= rows holds at any size, however small
    if tridiagonal:
        E, A = tridiagonal_pencil(40, n)
    else:
        E, A = np.eye(n), -np.diag(np.arange(1.0, n + 1))
    sigma = -0.4 + 0.9j
    fact = solve_shifted(E, A, sigma, None)
    rhs = np.arange(1.0, n + 1)
    z = fact.solve(rhs)
    assert fact.band is not None and lapack_routines[0] == "gbtrf"
    assert np.allclose(z, la.solve(-sigma * E - A, rhs), rtol=1e-12, atol=0)


def test_pencil_of_other_matrices_is_refused():
    E, A = tridiagonal_pencil(41, 12)
    pencil = _ShiftPencil(E, A)
    solve_shifted(E, A, -0.5, None, pencil)
    with pytest.raises(ValueError, match="pencil was measured from other matrices"):
        solve_shifted(E, 2.0 * A, -0.5, None, pencil)
    E11, A11, A12, A21 = narrow_saddle_blocks(12, seed=41)
    with pytest.raises(ValueError, match="pencil was measured from other matrices"):
        solve_saddle(E11, A11, A12, A21, -0.5, None, pencil)


@pytest.mark.parametrize("kind", ["random ode", "synthetic dae"])
def test_wide_patterns_factor_with_getrf(kind, lapack_routines):
    if kind == "random ode":
        sys = random_stable_ode(3, 20)
        fact = solve_shifted(sys.E, sys.A, -0.5 + 0.5j, None)
    else:
        sys = gen_synthetic_dae(30, 4, seed=3)
        fact = solve_saddle(sys.E11, sys.A11, sys.A12, sys.A21, -0.5 + 0.5j, None)
    fact.solve(np.ones(fact.n), trans=True)
    assert fact.band is None
    assert lapack_routines == ["getrf", "getrs", "getrs"]


@pytest.mark.parametrize("sigma", [-0.5 + 0j, -0.5 + 0.8j])
def test_band_factor_forms_no_square_matrix(sigma):
    import tracemalloc
    n = 300
    E, A = tridiagonal_pencil(39, n)
    rng = np.random.default_rng(39)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tracemalloc.start()
    try:
        fact = solve_shifted(E, A, sigma, None)
        fact.solve(rhs)
        fact.solve(rhs, trans=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fact.band is not None
    assert peak < n * n * 8


@pytest.mark.parametrize("kind", ["dense", "band", "saddle"])
def test_nan_residual_fails_the_gate(kind):
    # NaN compares false with any bound, so a gate written ``res > tol``
    # returned the solution and recorded the NaN residual
    if kind == "dense":
        fact, _, n = shift_factor_case("ode", -0.4 + 0j)
        assert fact.band is None
    elif kind == "band":
        fact, _, n = band_factor_case("ode", -0.4 + 0j)
        assert fact.band is not None
    else:
        fact, _, n = shift_factor_case("saddle", -0.4 + 0j)
    residual, calls = fact._residual, []

    def nan_on_final(b, z, t):
        # the first residual refines the solution, the second is gated
        calls.append(t)
        r = residual(b, z, t)
        return r if len(calls) == 1 else np.full_like(r, np.nan)

    fact._residual = nan_on_final
    with record_residuals() as log, pytest.raises(ResidualError, match=r"residual nan exceeds"):
        fact.solve(np.ones(n))
    assert len(calls) == 2 and log == []
