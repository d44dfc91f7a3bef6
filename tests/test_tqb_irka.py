import json
import os

import numpy as np
import pytest
import scipy.linalg as la

from qbmor.dae_transform import build_projectors, explicit_ode
from qbmor import dense_solvers, tqb_irka
from qbmor.dense_solvers import (
    SolverError,
    SpectralFactorization,
    pencil_eig,
    record_residuals,
    solve_shifted,
)
from qbmor.gramians_norms import error_system_norm
from qbmor.problems import gen_burgers, gen_synthetic_dae
from qbmor.system_model import QbOdeSystem, ReducedQbSystem
from qbmor.tensor_kron import HessianTensor
from qbmor.tqb_irka import (
    IrkaConfig,
    tqb_irka_dae_explicit,
    tqb_irka_dae_saddle,
    tqb_irka_ode,
)

from helpers import conjugate_pairs, random_stable_ode


def linear_siso(seed=5, n=12):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = -(M @ M.T) / n - 2.0 * np.eye(n) + 0.5 * (M - M.T)
    return QbOdeSystem(E=np.eye(n), A=A, H=HessianTensor.zero(n),
                       N=(np.zeros((n, n)),), B=rng.standard_normal((n, 1)),
                       C=rng.standard_normal((1, n)))


def test_config_validation():
    with pytest.raises(ValueError):
        IrkaConfig(r=0)
    with pytest.raises(ValueError):
        IrkaConfig(r=2, tol=0.0)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        IrkaConfig(r=2, tol=float("nan"))
    with pytest.raises(ValueError, match=r"\(1, 1, 4\), expected \(1, 1, 3\)"):
        tqb_irka_ode(linear_siso(), IrkaConfig(
            r=3, initial_model=user_model(np.diag([-1.0, -2.0, -3.0, -4.0]), 1, 1)))


def test_linear_fixed_point():
    sys = linear_siso()
    red, trace = tqb_irka_ode(sys, IrkaConfig(r=2, seed=0))
    assert trace.converged
    # the converged factorization satisfies its residual bounds
    fact = pencil_eig(red.Ehat, red.Ahat)
    res = np.linalg.norm(fact.X @ red.Ahat @ fact.Y - np.diag(fact.eigenvalues))
    assert res <= 1e-10 * np.linalg.norm(red.Ahat)
    # one further sweep moves the eigenvalues by less than tol
    _, again = tqb_irka_ode(sys, IrkaConfig(r=2, initial_model=red, max_iters=1))
    assert again.relative_changes[-1] < 1e-5


def test_linear_one_sweep_hermite_interpolation():
    # after one sweep the reduced transfer function matches the full one in
    # value and derivative at the mirror images of the starting shifts
    sys = linear_siso(seed=5)
    red, _ = tqb_irka_ode(sys, IrkaConfig(r=3, seed=0, max_iters=1, tol=1e-16))
    sig = -np.logspace(2.0, -1.0, 3)  # the deterministic starting spectrum

    def g_full(s):
        return (sys.C @ la.solve(s * sys.E - sys.A, sys.B))[0, 0]

    def g_red(s):
        return (red.Chat @ la.solve(s * red.Ehat - red.Ahat, red.Bhat))[0, 0]

    for s0 in -sig:
        assert abs(g_full(s0) - g_red(s0)) <= 1e-10 * abs(g_full(s0))
        h = 1e-6 * max(1.0, abs(s0))
        d_full = (g_full(s0 + h) - g_full(s0 - h)) / (2.0 * h)
        d_red = (g_red(s0 + h) - g_red(s0 - h)) / (2.0 * h)
        assert abs(d_full - d_red) <= 1e-6 * abs(d_full)


def test_linear_dae_fixed_point():
    sys = gen_synthetic_dae(16, 4, m=2, p=2, seed=7, quad_scale=0.0)
    red, trace = tqb_irka_dae_saddle(sys, IrkaConfig(r=3, seed=1))
    assert trace.converged
    _, again = tqb_irka_dae_saddle(sys, IrkaConfig(r=3, initial_model=red,
                                                   max_iters=1))
    assert again.relative_changes[-1] < 1e-5


def test_exact_reduction_r_equals_n():
    rng = np.random.default_rng(0)
    n = 4
    M = rng.standard_normal((n, n))
    A = -(M @ M.T) - 2.0 * np.eye(n) + 0.4 * (M - M.T)
    sys = QbOdeSystem(E=np.eye(n), A=A, H=HessianTensor.zero(n),
                      N=(np.zeros((n, n)),), B=rng.standard_normal((n, 1)),
                      C=rng.standard_normal((1, n)))
    red, trace = tqb_irka_ode(sys, IrkaConfig(r=n, seed=1, max_iters=5))
    assert trace.converged and trace.iterations == 2
    assert trace.relative_changes[-1] <= 1e-12
    lam_full = pencil_eig(np.eye(n), A).eigenvalues
    lam_red = pencil_eig(red.Ehat, red.Ahat).eigenvalues
    assert np.linalg.norm(lam_red - lam_full) <= 1e-8 * np.linalg.norm(lam_full)


def test_one_pencil_decomposition_per_sweep(monkeypatch):
    pencils, eigvals = [], []
    pencil_eig_, eigvals_ = tqb_irka.pencil_eig, la.eigvals

    def counted_pencil_eig(Ehat, Ahat):
        pencils.append(Ahat.shape)
        return pencil_eig_(Ehat, Ahat)

    def counted_eigvals(a, *args, **kwargs):
        eigvals.append(np.shape(a))
        return eigvals_(a, *args, **kwargs)

    monkeypatch.setattr(tqb_irka, "pencil_eig", counted_pencil_eig)
    monkeypatch.setattr(la, "eigvals", counted_eigvals)
    sys = gen_burgers(24, 0.05)
    _, trace = tqb_irka_ode(sys, IrkaConfig(r=4, seed=7, max_iters=3, tol=1e-14))
    assert trace.iterations == 3
    assert pencils == [(4, 4)] * (trace.iterations + 1)
    assert (4, 4) not in eigvals


def test_order_exceeding_dimension_rejected():
    sys = linear_siso(n=6)
    with pytest.raises(ValueError, match="exceeds"):
        tqb_irka_ode(sys, IrkaConfig(r=7))


def test_burgers_seeded_convergence():
    sys = gen_burgers(40, 0.05)
    red, trace = tqb_irka_ode(sys, IrkaConfig(r=6, seed=42, tol=1e-5,
                                              max_iters=50))
    assert trace.converged and trace.iterations <= 50
    assert max(trace.max_residuals) <= 1e-9
    assert np.linalg.norm(red.V.T @ red.V - np.eye(6)) <= 1e-10
    assert np.linalg.norm(red.W.T @ red.W - np.eye(6)) <= 1e-10


def test_quadratic_terms_enter_the_bases():
    # with H = 0 the correction family vanishes; with H != 0 it must not
    sys_q = random_stable_ode(3, 14, m=1, p=1, quad_scale=0.3,
                              bilinear_scale=0.0, general_e=False)
    sys_l = QbOdeSystem(E=sys_q.E, A=sys_q.A, H=HessianTensor.zero(14),
                        N=sys_q.N, B=sys_q.B, C=sys_q.C)
    # iteration 1 is a pure linear step (zero initial reduced Hessian); the
    # quadratic correction family enters from iteration 2
    cfg = IrkaConfig(r=3, seed=2, max_iters=2, tol=1e-14, record_bases=True)
    _, tq = tqb_irka_ode(sys_q, cfg)
    _, tl = tqb_irka_ode(sys_l, cfg)
    assert la.subspace_angles(tq.bases[0][0], tl.bases[0][0]).max() <= 1e-10
    assert la.subspace_angles(tq.bases[1][0], tl.bases[1][0]).max() > 1e-6


def test_trace_shapes_and_convergence_flag():
    sys = linear_siso(7)
    red, trace = tqb_irka_ode(sys, IrkaConfig(r=3, seed=1, max_iters=4,
                                              tol=1e-14))
    assert trace.iterations == 4 and not trace.converged
    assert len(trace.eigenvalues) == 4
    assert len(trace.relative_changes) == 4
    assert len(trace.max_residuals) == 4


def test_determinism_bit_identical():
    sys = gen_burgers(24, 0.05)
    _, t1 = tqb_irka_ode(sys, IrkaConfig(r=4, seed=7))
    _, t2 = tqb_irka_ode(sys, IrkaConfig(r=4, seed=7))
    assert (json.dumps(t1.to_json_dict(), sort_keys=True)
            == json.dumps(t2.to_json_dict(), sort_keys=True))


def test_burgers_start_that_broke_the_conjugate_pairing_converges():
    # this initial model once raised "real pencil produced a non-conjugate
    # spectrum" at sweep 8; with the pairing read off the eigensolver's
    # order it converges (in 20 sweeps when this test was written)
    _, trace = tqb_irka_ode(gen_burgers(150, 0.01),
                            IrkaConfig(r=10, tol=1e-5, max_iters=50, seed=1742692731))
    assert trace.converged


# -- descriptor variants -------------------------------------------------------


def test_dae_saddle_rejects_inhomogeneous():
    sys = gen_synthetic_dae(12, 3, seed=0, with_b2=True)
    with pytest.raises(ValueError, match="homogenize"):
        tqb_irka_dae_saddle(sys, IrkaConfig(r=2))


@pytest.mark.parametrize("driver", [tqb_irka_dae_saddle, tqb_irka_dae_explicit])
def test_dae_order_is_bounded_by_the_constraint_kernel(driver):
    # every V column lies in ker A21, of dimension n_v - n_p = 12: an order
    # above it once ran all sweeps and returned a basis outside that kernel
    sys = gen_synthetic_dae(20, 8, seed=0)
    with pytest.raises(ValueError, match="n_v - n_p = 12"):
        driver(sys, IrkaConfig(r=14))
    red, trace = driver(sys, IrkaConfig(r=12))
    assert trace.converged
    assert np.linalg.norm(sys.A21 @ red.V) <= 1e-10 * np.linalg.norm(sys.A21)


def test_dae_explicit_matches_bar_system_route():
    sys = gen_synthetic_dae(16, 4, m=2, p=2, seed=3, quad_scale=0.1)
    cfg = IrkaConfig(r=3, seed=4, tol=1e-9, max_iters=100)
    red2, tr2 = tqb_irka_dae_explicit(sys, cfg)
    ode, lift = explicit_ode(sys, build_projectors(sys))
    red1, tr1 = tqb_irka_ode(ode, cfg)
    assert tr2.converged and tr1.converged
    lam2 = tr2.eigenvalues[-1]
    lam1 = tr1.eigenvalues[-1]
    assert np.linalg.norm(lam2 - lam1) <= 1e-8 * np.linalg.norm(lam1)


def test_dae_saddle_matches_explicit():
    # fixed sweep count so both routes compare the same iterates
    sys = gen_synthetic_dae(18, 4, m=2, p=2, seed=6, quad_scale=0.1)
    cfg = IrkaConfig(r=3, seed=2, tol=1e-14, max_iters=8, record_bases=True)
    red3, tr3 = tqb_irka_dae_saddle(sys, cfg)
    red2, tr2 = tqb_irka_dae_explicit(sys, cfg)
    assert tr3.iterations == tr2.iterations == 8
    for (V3, W3), (V2, W2) in zip(tr3.bases, tr2.bases):
        assert la.subspace_angles(V3, V2).max() <= 1e-6
        assert la.subspace_angles(W3, W2).max() <= 1e-6
    assert np.allclose(tr3.eigenvalues[-1], tr2.eigenvalues[-1],
                       rtol=1e-8, atol=1e-12)


def test_dae_linear_corrections_vanish():
    sys = gen_synthetic_dae(14, 3, m=2, p=2, seed=8, quad_scale=0.0)
    red, trace = tqb_irka_dae_saddle(sys, IrkaConfig(r=3, seed=3))
    assert not red.CHhat.any() and not red.Dhat.any()


def test_dae_saddle_bases_live_in_constraint_kernels():
    sys = gen_synthetic_dae(20, 5, m=2, p=2, seed=10, quad_scale=0.1)
    red, trace = tqb_irka_dae_saddle(sys, IrkaConfig(r=4, seed=5))
    assert (np.linalg.norm(sys.A21 @ red.V)
            <= 1e-8 * np.linalg.norm(red.V))
    assert (np.linalg.norm(sys.A12.T @ red.W)
            <= 1e-8 * np.linalg.norm(red.W))


def test_dae_output_corrections_attached():
    sys = gen_synthetic_dae(16, 4, m=2, p=2, seed=12, quad_scale=0.1,
                            with_c2=True)
    red, _ = tqb_irka_dae_saddle(sys, IrkaConfig(r=3, seed=1))
    assert red.CHhat.any() and red.Dhat.any()


# -- one factorization per shift ----------------------------------------------


def user_model(Ahat, m, p, seed=0):
    """Linear initial model with reduced matrix ``Ahat`` and ``Ehat = I``."""
    r = Ahat.shape[0]
    rng = np.random.default_rng(seed)
    return ReducedQbSystem(Ehat=np.eye(r), Ahat=Ahat, Hhat=np.zeros((r, r * r)),
                           Nhat=tuple(np.zeros((r, r)) for _ in range(m)),
                           Bhat=rng.standard_normal((r, m)),
                           Chat=rng.standard_normal((p, r)),
                           V=np.eye(r), W=np.eye(r))


def count_full_order_factorizations(monkeypatch, n):
    """Record every LU factorization of an ``n``-row matrix in dense_solvers,
    dense (``getrf``) or banded (``gbtrf``, whose band has ``n`` columns)."""
    calls = []
    fetch = dense_solvers.la.get_lapack_funcs

    def counted(trf):
        def call(a, *args, **kwargs):
            if a.shape[1] == n:
                calls.append(a.shape)
            return trf(a, *args, **kwargs)
        return call

    def counted_fetch(names, *args, **kwargs):
        # a new list: scipy memoizes the one it returns
        funcs = fetch(names, *args, **kwargs)
        if isinstance(names, str):
            return funcs
        return [counted(f) if name in ("getrf", "gbtrf") else f
                for name, f in zip(names, funcs)]

    monkeypatch.setattr(dense_solvers.la, "get_lapack_funcs", counted_fetch)
    return calls


# one conjugate pair and two real shifts: three distinct shift factorizations
PAIR_AND_TWO_REAL = np.array([[-1.0, 2.0, 0.0, 0.0], [-2.0, -1.0, 0.0, 0.0],
                              [0.0, 0.0, -3.0, 0.0], [0.0, 0.0, 0.0, -0.5]])


def expected_factorizations(Ahat):
    real_idx, pairs = conjugate_pairs(pencil_eig(np.eye(len(Ahat)), Ahat).eigenvalues)
    return len(real_idx) + len(pairs)


def test_one_factorization_per_shift_ode(monkeypatch):
    sys = random_stable_ode(3, 14, m=2, p=2)
    calls = count_full_order_factorizations(monkeypatch, 14)
    cfg = IrkaConfig(r=4, max_iters=1,
                     initial_model=user_model(PAIR_AND_TWO_REAL, 2, 2))
    _, trace = tqb_irka_ode(sys, cfg)
    assert trace.iterations == 1
    assert len(calls) == expected_factorizations(PAIR_AND_TWO_REAL) == 3


def test_one_factorization_per_shift_saddle(monkeypatch):
    sys = gen_synthetic_dae(18, 4, m=2, p=2, seed=4, quad_scale=0.1)
    calls = count_full_order_factorizations(monkeypatch, 18 + 4)
    cfg = IrkaConfig(r=4, max_iters=1,
                     initial_model=user_model(PAIR_AND_TWO_REAL, 2, 2))
    _, trace = tqb_irka_dae_saddle(sys, cfg)
    assert trace.iterations == 1
    assert len(calls) == expected_factorizations(PAIR_AND_TWO_REAL) == 3


def test_singular_shift_is_nudged_once(monkeypatch):
    # reduced eigenvalue +1 makes -sigma E - A = diag(0, 1, ..., n-1) singular
    n = 8
    A = -np.diag(np.arange(1.0, n + 1))
    rng = np.random.default_rng(2)
    sys = QbOdeSystem(E=np.eye(n), A=A, H=HessianTensor.zero(n),
                      N=(np.zeros((n, n)),), B=rng.standard_normal((n, 1)),
                      C=rng.standard_normal((1, n)))
    with pytest.raises(SolverError, match="collides"):
        solve_shifted(sys.E, sys.A, 1.0, np.ones(n))
    Ahat = np.diag([1.0, -2.5, -0.5])
    calls = count_full_order_factorizations(monkeypatch, n)
    cfg = IrkaConfig(r=3, max_iters=1,
                     initial_model=user_model(Ahat, 1, 1))
    red, trace = tqb_irka_ode(sys, cfg)
    assert trace.iterations == 1
    assert np.all(np.isfinite(red.Ahat))
    # three shifts, and the singular one refactored once at its nudge
    assert len(calls) == 3 + 1


def test_nudged_shifts_are_counted_per_sweep():
    # the set-up of test_singular_shift_is_nudged_once
    n = 8
    rng = np.random.default_rng(2)
    sys = QbOdeSystem(E=np.eye(n), A=-np.diag(np.arange(1.0, n + 1)),
                      H=HessianTensor.zero(n), N=(np.zeros((n, n)),),
                      B=rng.standard_normal((n, 1)), C=rng.standard_normal((1, n)))
    cfg = IrkaConfig(r=3, max_iters=1,
                     initial_model=user_model(np.diag([1.0, -2.5, -0.5]), 1, 1))
    _, trace = tqb_irka_ode(sys, cfg)
    assert trace.nudged_shifts == [1]
    assert trace.to_json_dict()["nudged_shifts"] == [1]

    _, trace = tqb_irka_ode(gen_burgers(40, 0.05), IrkaConfig(r=6, seed=42))
    assert trace.converged
    assert trace.nudged_shifts == [0] * trace.iterations


def test_wrong_size_right_hand_side_is_not_nudged(monkeypatch):
    E, A = np.eye(5), -np.diag(np.arange(1.0, 6.0))
    calls = count_full_order_factorizations(monkeypatch, 5)
    nudged = set()
    solve = tqb_irka._shift_solver(lambda s: solve_shifted(E, A, s, None),
                                   np.array([-0.5]), 5, nudged)
    with pytest.raises(ValueError, match="right-hand side has 6 rows"):
        solve(0, np.ones(6), False)
    assert len(calls) == 1 and not nudged


def test_family_solver_matches_kronecker_oracle():
    # one real shift and one conjugate pair, conjugate-paired right-hand sides
    rng = np.random.default_rng(6)
    sys = random_stable_ode(6, 8)
    E, A = sys.E, sys.A
    lam = np.array([-0.7, 1.2 - 0.8j, 1.2 + 0.8j])
    RHS = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    RHS[:, 0] = RHS[:, 0].real
    RHS[:, 2] = RHS[:, 1].conjugate()
    split = conjugate_pairs(lam)
    assert split == ([0], [(1, 2)])
    solve = tqb_irka._shift_solver(lambda s: solve_shifted(E, A, s, None), lam, 8, set())
    for trans, (Eo, Ao) in ((False, (E, A)), (True, (E.T, A.T))):
        V = tqb_irka._solve_family(solve, RHS, split, trans)
        # -E V diag(lam) - A V = RHS, or its transpose, column-stacked
        K = -(np.kron(np.diag(lam), Eo) + np.kron(np.eye(3), Ao))
        res = K @ V.ravel(order="F") - RHS.ravel(order="F")
        assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(RHS)
        assert np.array_equal(V[:, 2], V[:, 1].conjugate())


def test_transposed_factor_solves_match_transposed_systems():
    rng = np.random.default_rng(21)
    sigma = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    sys = random_stable_ode(21, 11)
    rhs = rng.standard_normal((11, 2)) + 1j * rng.standard_normal((11, 2))
    fact = solve_shifted(sys.E, sys.A, sigma, None)
    oracle = solve_shifted(sys.E.T, sys.A.T, sigma, rhs)
    got = fact.solve(rhs, trans=True)
    assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle)

    dae = gen_synthetic_dae(15, 3, m=2, p=2, seed=9, quad_scale=0.1)
    blocks = (dae.E11, dae.A11, dae.A12, dae.A21)
    g = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    z = dense_solvers.solve_saddle(*blocks, sigma, None).solve(g, trans=True)
    w_adj, xi_adj = dense_solvers.solve_saddle_adjoint(*blocks, sigma, g)
    K_T = np.block([[(-sigma * dae.E11 - dae.A11).T, dae.A21.T],
                    [dae.A12.T, np.zeros((3, 3))]])
    oracle = la.solve(K_T, np.concatenate([g, np.zeros(3)]))
    for w in (z, np.concatenate([w_adj, xi_adj])):
        assert np.linalg.norm(w - oracle) <= 1e-10 * np.linalg.norm(oracle)


# -- pencil refinement stays real ------------------------------------------------


def test_pencil_refinement_keeps_conjugate_spectrum():
    # a reduced Burgers pencil whose first eigenbasis misses the strict
    # bound; refining in a complex basis split its conjugate pairs
    path = os.path.join(os.path.dirname(__file__), "data", "burgers_sweep8_pencil.txt")
    EA = np.loadtxt(path)
    Ehat, Ahat = EA[:10], EA[10:]
    with record_residuals() as log:
        fact = pencil_eig(Ehat, Ahat)
    lam = fact.eigenvalues
    assert conjugate_pairs(lam) is not None
    assert np.array_equal(np.lexsort((lam.imag, lam.real)), np.arange(10))
    assert [tag for tag, _ in log] == ["pencil"]
    assert np.linalg.norm(fact.X @ Ehat @ fact.Y - np.eye(10)) <= 1e-9
    # the refined pairing is read off the refining eigensolve
    assert fact.split == conjugate_pairs(lam) and fact.split[1]


def test_burgers_reproducer_converges():
    sys = gen_burgers(150, 0.01)
    cfg = IrkaConfig(r=10, tol=1e-5, max_iters=50, seed=1742692731)
    red, trace = tqb_irka_ode(sys, cfg)
    assert trace.converged
    assert max(trace.max_residuals) <= 1e-9


def test_order_one_start_converges():
    _, trace = tqb_irka_ode(gen_burgers(30, 0.05), IrkaConfig(r=1, seed=0))
    assert trace.converged and trace.iterations == 17
    _, trace = tqb_irka_dae_saddle(gen_synthetic_dae(20, 4, seed=1),
                                   IrkaConfig(r=1, max_iters=100))
    assert trace.converged and trace.iterations == 17


# -- Anderson-accelerated sweeps on gauged data -------------------------------------


def test_burgers_order_six_converges_in_few_sweeps():
    # the undamped fixed point alternated here for 140 sweeps
    _, trace = tqb_irka_ode(gen_burgers(400, 0.01), IrkaConfig(r=6, seed=0, max_iters=200))
    assert trace.converged and trace.iterations <= 40
    assert any(trace.accelerated)


def qb_model_with_pair(seed=3, m=2, p=2):
    """A reduced QB model with one conjugate pair and nonzero ``Hhat``, ``Nhat``."""
    rng = np.random.default_rng(seed)
    r = PAIR_AND_TWO_REAL.shape[0]
    return (np.eye(r), PAIR_AND_TWO_REAL, 0.3 * rng.standard_normal((r, r * r)),
            tuple(0.2 * rng.standard_normal((r, r)) for _ in range(m)),
            rng.standard_normal((r, m)), rng.standard_normal((p, r)))


def data_blocks(z, r, m, p):
    """``(lam, Bt, Ct, Ht, Nt)`` of an interpolation data vector."""
    lam, Bt, Ct, Ht, Nt = np.split(z, np.cumsum([r, r * m, p * r, r ** 3]))
    return lam, Bt.reshape(r, m), Ct.reshape(p, r), Ht.reshape(r, r * r), Nt.reshape(m, r, r)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_is_gauge_covariant(monkeypatch, seed):
    # scaling eigenvector i by d_i (row i of X by 1/d_i) only rescales
    # column i of every solve family, so the spans of V and W do not move
    sys = random_stable_ode(4, 14, m=2, p=2, quad_scale=0.2, bilinear_scale=0.2)
    data = (sys.E, sys.A, sys.H, sys.N, sys.B, sys.C)
    state = qb_model_with_pair()
    fact = pencil_eig(state[0], state[1])
    (neg, pos), = fact.split[1]
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.2, 5.0, 4) * rng.choice([-1.0, 1.0], 4) + 0j
    d[neg] = d[neg] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    d[pos] = d[neg].conjugate()
    scaled = SpectralFactorization(fact.X / d[:, None], fact.Y * d, fact.eigenvalues,
                                   fact.split, fact.kappa)
    gauged = tqb_irka._interpolation_data(state, fact)
    assert gauged.gauged
    assert np.allclose(data_blocks(gauged.z, 4, 2, 2)[1][:, 0], 1.0, rtol=0, atol=1e-12)
    monkeypatch.setattr(tqb_irka, "_GAUGE_FLOOR", np.inf)  # data as the factors give it
    runs = [tqb_irka._run_iteration(lambda s: solve_shifted(sys.E, sys.A, s, None), data,
                                    x, set())
            for x in (gauged, tqb_irka._interpolation_data(state, fact),
                      tqb_irka._interpolation_data(state, scaled))]
    for _, V, W in runs[1:]:
        assert la.subspace_angles(V, runs[0][1]).max() <= 1e-10
        assert la.subspace_angles(W, runs[0][2]).max() <= 1e-10


def test_mixed_data_keeps_conjugate_pairs_exact():
    # the data of four successive models, with the conjugate pairs of their
    # shifts and tangential directions made exact; real coefficients mix
    # them entry by entry
    sys = random_stable_ode(0, 14, m=2, p=2, quad_scale=0.2, bilinear_scale=0.2)
    data = (sys.E, sys.A, sys.H, sys.N, sys.B, sys.C)
    state = qb_model_with_pair()
    zs = []
    for _ in range(4):
        x = tqb_irka._interpolation_data(state, pencil_eig(state[0], state[1]))
        assert x.split == ([0, 3], [(1, 2)])
        z = x.z.copy()
        _, Bt, Ct, _, _ = data_blocks(z, 4, 2, 2)  # views into z
        Bt[2], Ct[:, 2] = Bt[1].conjugate(), Ct[:, 1].conjugate()
        Bt[[0, 3]], Ct[:, [0, 3]] = Bt[[0, 3]].real, Ct[:, [0, 3]].real
        zs.append(z)
        state, _, _ = tqb_irka._run_iteration(
            lambda s: solve_shifted(sys.E, sys.A, s, None), data, x, set())
    lam, Bt, Ct, _, _ = data_blocks(tqb_irka._anderson(list(zip(zs, zs[1:]))), 4, 2, 2)
    assert not np.array_equal(lam, data_blocks(zs[-1], 4, 2, 2)[0])
    assert lam[2] == lam[1].conjugate()
    assert np.array_equal(Bt[2], Bt[1].conjugate())
    assert np.array_equal(Ct[:, 2], Ct[:, 1].conjugate())
    assert not lam[[0, 3]].imag.any() and not Bt[[0, 3]].imag.any()
    assert not Ct[:, [0, 3]].imag.any()


def test_trace_records_contraction_and_pencil_condition():
    sys = gen_burgers(60, 0.05)
    red, trace = tqb_irka_ode(sys, IrkaConfig(r=6, seed=0))
    assert trace.converged
    k = trace.iterations
    changes, lam = trace.relative_changes, [pencil_eig(np.eye(6), np.diag(
        -np.logspace(2.0, -1.0, 6))).eigenvalues] + trace.eigenvalues
    assert trace.contraction[0] is None and trace.two_step_distances[0] is None
    for i in range(1, k):
        assert trace.contraction[i] == changes[i] / changes[i - 1]
        assert trace.two_step_distances[i] == pytest.approx(
            np.linalg.norm(lam[i + 1] - lam[i - 1]) / np.linalg.norm(lam[i + 1]), rel=1e-12)
    # the first sweeps change the spectrum by more than the mixing threshold
    assert not trace.accelerated[0] and any(trace.accelerated)
    assert trace.kappa[-1] == pencil_eig(red.Ehat, red.Ahat).kappa
    # a sweep's data restart the history, or the next sweep starts mixed
    assert trace.restarts[0] == "change" and trace.restarts[-1] is None
    assert trace.accelerated[1:] == [why is None for why in trace.restarts[:-1]]
    payload = json.loads(json.dumps(trace.to_json_dict()))
    assert [len(payload[key]) for key in ("accelerated", "contraction", "two_step_distances",
                                          "kappa", "restarts")] == [k] * 5
    assert payload["contraction"][0] is None
    assert payload["restarts"] == trace.restarts


def test_grown_data_residual_starts_no_mixed_step(monkeypatch):
    # the data residual |g - x| of each sweep, x the data it started from and
    # g the data of its model: where it grew, the next sweep is not mixed
    starts, ends = [], []
    run, data = tqb_irka._run_iteration, tqb_irka._interpolation_data

    def recorded_run(factor, data_, x, nudged):
        starts.append(x.z)
        return run(factor, data_, x, nudged)

    def recorded_data(state, fact):
        ends.append(data(state, fact))
        return ends[-1]

    monkeypatch.setattr(tqb_irka, "_run_iteration", recorded_run)
    monkeypatch.setattr(tqb_irka, "_interpolation_data", recorded_data)
    sys = gen_synthetic_dae(30, 6, m=2, p=2, quad_scale=0.1, seed=2, with_c2=True)
    _, trace = tqb_irka_dae_saddle(sys, IrkaConfig(r=6, seed=2, max_iters=200))
    assert trace.converged
    # ends[0] is the initial model's data; the converged last sweep takes none
    res = [np.linalg.norm(g.z - x) for g, x in zip(ends[1:], starts)]
    grew = [k for k in range(1, len(res)) if res[k] > res[k - 1]]
    residual = [k for k, why in enumerate(trace.restarts) if why == "residual"]
    assert residual and set(residual) <= set(grew)
    assert not any(trace.accelerated[k + 1] for k in grew)


@pytest.fixture(scope="module")
def dae_reduce_traces():
    """The traces of the benchmark's ``dae-reduce`` draws: draw s from init seed s."""
    return [tqb_irka_dae_saddle(gen_synthetic_dae(60, 12, m=2, p=2, quad_scale=0.1, seed=s,
                                                  with_c2=True),
                                IrkaConfig(r=8, tol=1e-5, max_iters=200, seed=s))[1]
            for s in range(12)]


def test_dae_reduce_sweep_ledger(dae_reduce_traces):
    # 324 sweeps with unchecked mixed steps, 281 with the residual restart
    assert all(trace.converged for trace in dae_reduce_traces)
    assert sum(trace.iterations for trace in dae_reduce_traces) <= 295


def test_dae_draw_that_mixing_slowed_converges_in_few_sweeps(dae_reduce_traces):
    # 63 sweeps without mixing, 75 with unchecked mixed steps, 41 with the restart
    trace = dae_reduce_traces[3]
    assert trace.converged and trace.iterations <= 50
    assert "residual" in trace.restarts


def test_failed_pencil_eigensolve_names_its_sweep(monkeypatch):
    # the second reduced pencil's QZ reports failure: sweep 1 formed it
    fetch, fetched = dense_solvers.la.get_lapack_funcs, []

    def failing_fetch(names, *args, **kwargs):
        funcs = fetch(names, *args, **kwargs)
        if names != ("ggev",):
            return funcs
        fetched.append(names)
        return funcs if len(fetched) < 2 else [lambda *a, **k: funcs[0](*a, **k)[:-1] + (3,)]

    monkeypatch.setattr(dense_solvers.la, "get_lapack_funcs", failing_fetch)
    with pytest.raises(SolverError,
                       match=r"^iteration 1: pencil eigensolve failed \(ggev info=3\)$"):
        tqb_irka_ode(linear_siso(), IrkaConfig(r=2, seed=0))


@pytest.mark.parametrize("gauged", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interpolation_data_matches_kronecker_oracle(monkeypatch, seed, gauged):
    rng = np.random.default_rng(seed)
    r, m, p = 6, 2, 2
    M, G = rng.standard_normal((r, r)), rng.standard_normal((r, r))
    state = (np.eye(r) + 0.1 * G, -(M @ M.T) / r - np.eye(r) + 0.7 * (M - M.T),
             rng.standard_normal((r, r * r)), tuple(rng.standard_normal((r, r)) for _ in range(m)),
             rng.standard_normal((r, m)), rng.standard_normal((p, r)))
    if not gauged:
        monkeypatch.setattr(tqb_irka, "_GAUGE_FLOOR", np.inf)
    fact = pencil_eig(state[0], state[1])
    assert fact.split[1]
    x = tqb_irka._interpolation_data(state, fact)
    assert x.gauged == gauged
    X, Y = fact.X, fact.Y
    if gauged:
        d = X @ state[4][:, 0]
        X, Y = X / d[:, None], Y * d
    oracle = X @ state[2] @ np.kron(Y, Y)
    Ht = data_blocks(x.z, r, m, p)[3]
    assert np.linalg.norm(Ht - oracle) <= 1e-12 * np.linalg.norm(oracle)


# -- band and dense shift storage agree --------------------------------------------


def permuted(sys, perm):
    """The system in the state coordinates ``P x``, ``(P x)[a] = x[perm[a]]``."""
    inv = np.argsort(perm)
    H = sys.H.mode1.tocoo()
    j, k = np.divmod(H.col, sys.n)
    ix = np.ix_(perm, perm)
    return QbOdeSystem(E=sys.E[ix], A=sys.A[ix],
                       H=HessianTensor(sys.n, inv[H.row], inv[j], inv[k], H.data),
                       N=tuple(Nk[ix] for Nk in sys.N), B=sys.B[perm], C=sys.C[:, perm])


@pytest.mark.parametrize("seed", [0, 1])
def test_band_and_dense_shift_storage_reduce_alike(seed):
    # Burgers is tridiagonal, so its shifts are factored banded; a random
    # symmetric permutation of it is wide and takes the dense route
    sys = gen_burgers(60, 0.05)
    perm = np.random.default_rng(seed).permutation(sys.n)
    twin = permuted(sys, perm)
    assert dense_solvers._ShiftPencil(sys.E, sys.A).band is not None
    assert dense_solvers._ShiftPencil(twin.E, twin.A).band is None
    cfg = IrkaConfig(r=6, seed=seed)
    norms = []
    for case in (sys, twin):
        with record_residuals() as log:
            red, trace = tqb_irka_ode(case, cfg)
        shifted = [v for tag, v in log if tag == "shifted"]
        assert trace.converged
        assert shifted and max(shifted) <= dense_solvers.SHIFTED_TOL
        norms.append(error_system_norm(case, red))
    # sweep counts and spectra follow the roundoff path, so only the
    # backend-independent error norm is compared
    assert abs(norms[1] - norms[0]) <= 1e-3 * norms[0]
