import numpy as np
import pytest
import scipy.linalg as la

from qbmor.dense_solvers import SolverError, record_residuals
from qbmor.gramians_norms import (
    _augmented_error_system,
    error_system_norm,
    full_gramians_fixed_point,
    linear_gramians,
    truncated_gramians,
    truncated_h2_norm,
)
from qbmor.system_model import QbOdeSystem, project_ode
from qbmor.tensor_kron import HessianTensor

from helpers import congruence_truncated_gramians, random_stable_ode


def scalar_system():
    return QbOdeSystem(E=np.eye(1), A=np.array([[-0.5]]), H=HessianTensor.zero(1),
                       N=(np.zeros((1, 1)),), B=np.ones((1, 1)), C=np.ones((1, 1)))


def linear_system(seed, n, m=1, p=1):
    return random_stable_ode(seed, n, m=m, p=p, quad_scale=0.0,
                             bilinear_scale=0.0)


def test_linear_gramian_scalar():
    g = linear_gramians(scalar_system())
    assert g.P[0, 0] == pytest.approx(1.0)
    assert g.Q[0, 0] == pytest.approx(1.0)


def test_linear_gramian_zero_input():
    sys = linear_system(0, 6)
    zeroed = QbOdeSystem(E=sys.E, A=sys.A, H=sys.H, N=sys.N,
                         B=np.zeros((6, 1)), C=sys.C)
    assert np.allclose(linear_gramians(zeroed).P, 0.0)


def test_linear_gramian_residual_seeded():
    sys = random_stable_ode(1, 10, m=2, p=2)
    g = linear_gramians(sys)
    res = np.linalg.norm(sys.A @ g.P @ sys.E.T + sys.E @ g.P @ sys.A.T
                         + sys.B @ sys.B.T)
    assert res <= 1e-9 * np.linalg.norm(sys.B @ sys.B.T)


def test_truncated_reduces_to_linear():
    sys = linear_system(2, 8, m=2, p=2)
    lin = linear_gramians(sys)
    tg = truncated_gramians(sys)
    assert np.array_equal(tg.P, lin.P)
    assert np.array_equal(tg.Q, lin.Q)


def test_truncated_zero_system():
    sys = linear_system(3, 5)
    zeroed = QbOdeSystem(E=sys.E, A=sys.A, H=sys.H, N=sys.N,
                         B=np.zeros((5, 1)), C=np.zeros((1, 5)))
    tg = truncated_gramians(zeroed)
    assert np.allclose(tg.P, 0.0) and np.allclose(tg.Q, 0.0)


def test_truncated_trace_identity_seeded():
    sys = random_stable_ode(4, 10, m=2, p=2, quad_scale=0.08)
    tg = truncated_gramians(sys)
    tc = np.trace(sys.C @ tg.P @ sys.C.T)
    tb = np.trace(sys.B.T @ tg.Q @ sys.B)
    assert abs(tc - tb) <= 1e-8 * max(abs(tc), abs(tb))


def test_truncated_dominates_linear_in_psd_order():
    sys = random_stable_ode(5, 9, m=2, p=2, quad_scale=0.1)
    lin = linear_gramians(sys)
    tg = truncated_gramians(sys)
    lo = np.linalg.eigvalsh(tg.P - lin.P).min()
    assert lo >= -1e-10 * max(np.linalg.norm(tg.P), 1.0)


def counted_schur(monkeypatch):
    calls = []
    schur = la.schur

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return schur(*args, **kwargs)

    monkeypatch.setattr(la, "schur", counting)
    return calls


def test_truncated_gramians_factor_the_pencil_once(monkeypatch):
    sys = random_stable_ode(13, 9, m=2, p=2, quad_scale=0.08)
    calls = counted_schur(monkeypatch)
    with record_residuals() as log:
        truncated_gramians(sys)
    assert calls == [(9, 9)]
    assert [tag for tag, _ in log] == ["lyapunov"] * 4


def test_fixed_point_factors_the_pencil_once(monkeypatch):
    sys = random_stable_ode(7, 8, m=1, p=1, quad_scale=1e-3)
    calls = counted_schur(monkeypatch)
    fp = full_gramians_fixed_point(sys, max_iters=200, tol=1e-12)
    assert fp.converged and fp.iterations > 1
    assert calls == [(8, 8)]


def test_truncated_gramians_match_congruence_oracle_on_burgers():
    from qbmor.problems import gen_burgers
    from qbmor.tqb_irka import IrkaConfig, tqb_irka_ode

    full = gen_burgers(100, 0.01)
    red, trace = tqb_irka_ode(full, IrkaConfig(r=10, seed=1, tol=1e-5, max_iters=50))
    assert trace.converged
    err = _augmented_error_system(full, red)
    P, Q = congruence_truncated_gramians(err)
    tg = truncated_gramians(err)
    assert np.linalg.norm(tg.P - P) <= 1e-11 * np.linalg.norm(P)
    assert np.linalg.norm(tg.Q - Q) <= 1e-11 * np.linalg.norm(Q)
    # the squared error norm cancels ||full||^2 down to ||full - red||^2, so
    # it is compared on the scale of the former
    oracle_sq = np.trace(err.C @ P @ err.C.T)
    assert abs(error_system_norm(full, red) ** 2 - oracle_sq) <= (
        1e-10 * truncated_h2_norm(full) ** 2)


def test_fixed_point_linear_converges_immediately():
    sys = linear_system(6, 7, m=2)
    fp = full_gramians_fixed_point(sys)
    assert fp.converged and fp.iterations == 1
    assert np.allclose(fp.P, linear_gramians(sys).P, rtol=1e-12, atol=1e-14)


def test_fixed_point_small_quadratic_converges():
    sys = random_stable_ode(7, 8, m=1, p=1, quad_scale=1e-3)
    fp = full_gramians_fixed_point(sys, max_iters=200, tol=1e-12)
    assert fp.converged
    assert fp.residual <= 1e-8


def test_fixed_point_large_quadratic_diverges():
    base = random_stable_ode(7, 8, m=1, p=1, quad_scale=1e-3)
    big = HessianTensor(8, base.H._i, base.H._j, base.H._k, base.H._v * 1e6,
                        symmetric=True)
    strong = QbOdeSystem(E=base.E, A=base.A, H=big, N=base.N, B=base.B, C=base.C)
    with pytest.raises(SolverError, match="diverged"):
        full_gramians_fixed_point(strong, max_iters=200)


def test_truncated_h2_norm_zero_output():
    sys = linear_system(8, 6)
    zeroed = QbOdeSystem(E=sys.E, A=sys.A, H=sys.H, N=sys.N, B=sys.B,
                         C=np.zeros((1, 6)))
    assert truncated_h2_norm(zeroed) == pytest.approx(0.0, abs=1e-12)


def test_truncated_h2_norm_scalar_closed_form():
    assert truncated_h2_norm(scalar_system()) == pytest.approx(1.0, abs=1e-10)


def test_truncated_h2_norm_dual_formula_seeded():
    sys = random_stable_ode(9, 12, m=2, p=3, quad_scale=0.05)
    value = truncated_h2_norm(sys)
    tg = truncated_gramians(sys)
    assert value == pytest.approx(
        np.sqrt(np.trace(sys.B.T @ tg.Q @ sys.B)), rel=1e-8)


def test_error_system_norm_exact_copy_is_zero():
    # the squared-trace route carries a sqrt(eps) cancellation floor, so the
    # "zero" norm of an exact copy comes out at ~1e-8, not below 1e-10
    sys = random_stable_ode(10, 6, m=1, p=1, quad_scale=0.05)
    red = project_ode(sys, np.eye(6), np.eye(6))
    scale = truncated_h2_norm(sys)
    assert error_system_norm(sys, red) <= 1e-7 * (1.0 + scale)


def test_error_system_norm_linear_two_lyapunov_oracle():
    rng = np.random.default_rng(11)
    sys = linear_system(11, 8, m=2, p=2)
    # one-sided Galerkin keeps the reduced pencil stable (definite field of values)
    V, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    W = V
    red = project_ode(sys, V, W)
    got = error_system_norm(sys, red)
    # independent route: trace(C P C^T) - 2 trace(C X Chat^T) + trace(Chat Phat Chat^T)
    Ai = la.solve(sys.E, sys.A)
    Bi = la.solve(sys.E, sys.B)
    Ari = la.solve(red.Ehat, red.Ahat)
    Bri = la.solve(red.Ehat, red.Bhat)
    P = la.solve_continuous_lyapunov(Ai, -Bi @ Bi.T)
    Pr = la.solve_continuous_lyapunov(Ari, -Bri @ Bri.T)
    X = la.solve_sylvester(Ai, Ari.T, -Bi @ Bri.T)
    val = (np.trace(sys.C @ P @ sys.C.T)
           - 2.0 * np.trace(sys.C @ X @ red.Chat.T)
           + np.trace(red.Chat @ Pr @ red.Chat.T))
    assert got == pytest.approx(np.sqrt(val), rel=1e-8)


def test_error_system_norm_burgers_reported_over_orders():
    # monotone decay over the order is observed empirically and reported, not
    # asserted as a theorem
    from qbmor.problems import gen_burgers
    from qbmor.tqb_irka import IrkaConfig, tqb_irka_ode

    sys = gen_burgers(40, 0.05)
    values = []
    for r in (2, 4, 6, 8):
        red, trace = tqb_irka_ode(sys, IrkaConfig(r=r, seed=42, tol=1e-5,
                                                  max_iters=50))
        assert trace.converged
        err = error_system_norm(sys, red)
        assert err > 0.0
        values.append((r, err))
    print("truncated-H2 error norms:",
          ", ".join(f"r={r}: {e:.3e}" for r, e in values))


def test_error_system_norm_dimension_checks():
    sys = random_stable_ode(12, 6, m=1, p=1)
    other = random_stable_ode(12, 6, m=2, p=1)
    red = project_ode(other, np.eye(6), np.eye(6))
    with pytest.raises(ValueError, match="input dimensions"):
        error_system_norm(sys, red)
