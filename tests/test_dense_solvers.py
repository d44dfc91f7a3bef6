import numpy as np
import pytest
import scipy.linalg as la

from qbmor.dae_transform import build_projectors
from qbmor.dense_solvers import (
    LYAPUNOV_TOL,
    SADDLE_TOL,
    ResidualError,
    SolverError,
    conjugate_pairs,
    pencil_eig,
    realify_paired_columns,
    record_residuals,
    solve_lyapunov,
    solve_saddle,
    solve_saddle_adjoint,
    solve_shifted,
    solve_sylvester,
)
from qbmor.problems import gen_synthetic_dae


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


def test_pencil_eig_singular_mass():
    with pytest.raises(SolverError, match="singular"):
        pencil_eig(np.zeros((2, 2)), np.eye(2))


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


# -- solve_sylvester ---------------------------------------------------------


def test_solve_sylvester_scalar():
    V = solve_sylvester(np.eye(1), -3.0 * np.eye(1), np.array([-2.0]),
                        np.array([[5.0]]))
    assert np.allclose(V, [[1.0]])


def test_solve_sylvester_zero_rhs():
    E, A = stable_pencil(5, 6)
    lam = np.array([-1.0, -2.0 + 1j, -2.0 - 1j])
    V = solve_sylvester(E, A, lam, np.zeros((6, 3)))
    assert np.allclose(V, 0.0)


def test_solve_sylvester_kron_oracle():
    rng = np.random.default_rng(6)
    E, A = stable_pencil(6, 8)
    lam = np.array([-0.7, 1.2 - 0.8j, 1.2 + 0.8j])
    RHS = rng.standard_normal((8, 3)).astype(complex)
    RHS[:, 2] = RHS[:, 1].conjugate()
    V = solve_sylvester(E, A, lam, RHS, realify=False)
    K = -(np.kron(np.diag(lam), E) + np.kron(np.eye(3), A))
    res = K @ V.ravel(order="F") - RHS.ravel(order="F")
    assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(RHS)


def test_solve_sylvester_matches_dense_kron_solve():
    rng = np.random.default_rng(7)
    for n, r in [(5, 3), (12, 6), (20, 8)]:
        E, A = stable_pencil(n, n)
        lam = -rng.uniform(0.5, 3.0, r)
        RHS = rng.standard_normal((n, r))
        V = solve_sylvester(E, A, lam, RHS)
        K = -(np.kron(np.diag(lam), E) + np.kron(np.eye(r), A))
        V_dense = la.solve(K, RHS.ravel(order="F")).reshape((n, r), order="F")
        assert np.linalg.norm(V - V_dense) <= 1e-9 * np.linalg.norm(V_dense)


def test_solve_sylvester_realifies_paired_data():
    rng = np.random.default_rng(8)
    E, A = stable_pencil(8, 7)
    lam = np.array([-1.0, 0.4 - 2.0j, 0.4 + 2.0j])
    RHS = np.zeros((7, 3), dtype=complex)
    RHS[:, 0] = rng.standard_normal(7)
    RHS[:, 1] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    RHS[:, 2] = RHS[:, 1].conjugate()
    V = solve_sylvester(E, A, lam, RHS)
    assert V.dtype == float
    # realified columns span the complex solution pair
    Vc = solve_sylvester(E, A, lam, RHS, realify=False)
    assert np.allclose(V[:, 1], Vc[:, 1].real)
    assert np.allclose(V[:, 2], Vc[:, 1].imag)


def test_solve_sylvester_reports_failing_column():
    A = np.diag([-1.0, -2.0])
    lam = np.array([-3.0, 1.0])  # second shift mirrors an eigenvalue
    with pytest.raises(SolverError, match="column 1"):
        solve_sylvester(np.eye(2), A, lam, np.ones((2, 2)))


def test_realify_paired_columns_rejects_unpaired():
    with pytest.raises(ValueError):
        realify_paired_columns(np.array([1j]), np.ones((2, 1), dtype=complex))


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
        solve_sylvester(E, A, np.array([-1.0, -2.0]), rng.standard_normal((5, 2)))
        solve_lyapunov(A, E, np.eye(5))
        solve_saddle(sys.E11, sys.A11, sys.A12, sys.A21, 1.0,
                     rng.standard_normal(10))
        solve_saddle_adjoint(sys.E11, sys.A11, sys.A12, sys.A21, 1.0,
                             rng.standard_normal(10))
    tags = {tag for tag, _ in log}
    assert {"pencil", "shifted", "sylvester", "lyapunov", "saddle"} <= tags
    assert all(v <= 1e-9 for _, v in log)
