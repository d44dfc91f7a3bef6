import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.linalg as la

from qbmor import gramians_norms
from qbmor.dense_solvers import SolverError, record_residuals
from qbmor.gramians_norms import (
    GramianPair,
    _p_rhs,
    _q_rhs,
    error_system_norm,
    linear_gramians,
    truncated_gramians,
    truncated_h2_norm,
)
from qbmor.system_model import QbOdeSystem, project_ode
from qbmor.tensor_kron import HessianTensor

from helpers import (
    _augmented_error_system,
    assembled_error_norm,
    congruence_truncated_gramians,
    random_stable_ode,
)


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


def test_gramian_pair_residual_is_the_solves_residual():
    sys = random_stable_ode(6, 10, m=2, p=2, quad_scale=0.08)
    lin = linear_gramians(sys)
    tg = truncated_gramians(sys)

    def residual(A, E, X, RHS):
        return float(np.linalg.norm(A @ X @ E.T + E @ X @ A.T + RHS)
                     / np.linalg.norm(RHS))

    for pair, rhs_p, rhs_q in (
        (lin, sys.B @ sys.B.T, sys.C.T @ sys.C),
        (tg, _p_rhs(sys, lin.P), _q_rhs(sys, lin.P, lin.Q)),
    ):
        assert pair.residual == max(residual(sys.A, sys.E, pair.P, rhs_p),
                                    residual(sys.A.T, sys.E.T, pair.Q, rhs_q))


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
    red = project_ode(random_stable_ode(12, 6, m=1, p=2), np.eye(6), np.eye(6))
    with pytest.raises(ValueError, match="^output dimensions differ: full has 1, reduced has 2$"):
        error_system_norm(sys, red)


# -- the error norm by blocks against the assembled (n + r) oracle -----------


def galerkin(sys, r, seed):
    """One-sided projection onto a random basis, whose pencil stays stable
    because the random systems have a definite symmetric part."""
    V, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((sys.n, r)))
    return project_ode(sys, V, V)


def bench_model():
    from qbmor.problems import gen_burgers
    from qbmor.tqb_irka import IrkaConfig, tqb_irka_ode

    full = gen_burgers(100, 0.01)
    red, trace = tqb_irka_ode(full, IrkaConfig(r=10, seed=1, tol=1e-5, max_iters=50))
    assert trace.converged
    return full, red


def bilinear_model():
    full = random_stable_ode(15, 12, m=2, p=2, quad_scale=0.08, bilinear_scale=0.15)
    red = galerkin(full, 4, 15)
    assert all(Nk.any() for Nk in full.N) and all(Nk.any() for Nk in red.Nhat)
    return full, red


def order_one_model():
    full = random_stable_ode(16, 8, m=1, p=2, quad_scale=0.08)
    return full, galerkin(full, 1, 16)


def dae_model():
    from qbmor.dae_transform import build_projectors, explicit_ode
    from qbmor.problems import gen_synthetic_dae
    from qbmor.tqb_irka import IrkaConfig, tqb_irka_dae_saddle

    sys = gen_synthetic_dae(24, 5, m=2, p=2, seed=2, quad_scale=0.1)
    red, trace = tqb_irka_dae_saddle(sys, IrkaConfig(r=4, seed=2, max_iters=100))
    assert trace.converged
    return explicit_ode(sys, build_projectors(sys))[0], red


@pytest.mark.parametrize("model", [bench_model, bilinear_model, order_one_model, dae_model])
def test_error_norm_by_blocks_matches_the_assembled_oracle(model):
    full, red = model()
    err = error_system_norm(full, red)
    assert err > 0.0
    # the bound of the congruence test above, on the scale of ||full||^2
    assert abs(err ** 2 - assembled_error_norm(full, red) ** 2) <= (
        1e-10 * truncated_h2_norm(full) ** 2)


def test_error_norm_factors_the_full_pencil_once_per_system(monkeypatch):
    full, red = bilinear_model()
    calls = counted_schur(monkeypatch)
    with record_residuals() as log:
        first = error_system_norm(full, red)
    assert calls == [(12, 12), (4, 4)]
    # one gated residual per assembled equation, on every call
    assert [tag for tag, _ in log] == ["lyapunov"] * 4
    calls.clear()
    with record_residuals() as log:
        assert error_system_norm(full, red) == first
    assert calls == []
    assert [tag for tag, _ in log] == ["lyapunov"] * 4
    # the record belongs to the instance, not to equal arrays
    twin = QbOdeSystem(E=full.E.copy(), A=full.A.copy(), H=full.H,
                       N=tuple(Nk.copy() for Nk in full.N), B=full.B.copy(),
                       C=full.C.copy())
    calls.clear()
    assert error_system_norm(twin, red) == first
    assert calls == [(12, 12)]


def test_every_entry_point_reads_the_kept_record(monkeypatch):
    full, red = bilinear_model()
    error_system_norm(full, red)
    calls = counted_schur(monkeypatch)
    for system in (full, red):
        with record_residuals() as log:
            truncated_h2_norm(system)
            pairs = (linear_gramians(system), truncated_gramians(system))
        assert calls == []
        # each call still gates the residuals it reads, from the kept norms
        assert [tag for tag, _ in log] == ["lyapunov"] * 10
        assert all(np.array_equal(a, b) for a, b in zip(
            (pairs[0].P, pairs[0].Q, pairs[1].P, pairs[1].Q),
            gramians_norms._kept_gramians(system).gramians))
    twin = QbOdeSystem(E=full.E.copy(), A=full.A.copy(), H=full.H,
                       N=tuple(Nk.copy() for Nk in full.N), B=full.B.copy(),
                       C=full.C.copy())
    assert truncated_h2_norm(full) == truncated_h2_norm(twin)
    assert calls == [(12, 12)]


def test_reduced_models_read_as_the_realization_they_keep():
    full, red = bilinear_model()
    ode = QbOdeSystem(E=red.Ehat, A=red.Ahat, H=red.Hhat, N=red.Nhat, B=red.Bhat,
                      C=red.Chat)
    assert truncated_h2_norm(red) == truncated_h2_norm(ode)
    for entry in (linear_gramians, truncated_gramians):
        got, want = entry(red), entry(ode)
        assert np.array_equal(got.P, want.P) and np.array_equal(got.Q, want.Q)


def test_kept_gramian_pairs_are_checked_once(monkeypatch):
    # the symmetry and PSD checks run once per record; a repeat call reads
    # the checked pairs and only gates the kept residual norms again
    full, red = bilinear_model()
    error_system_norm(full, red)
    for system in (full, red):
        truncated_h2_norm(system)
    calls, eigs = [], []
    dpotrf, eigvalsh = gramians_norms.dpotrf, np.linalg.eigvalsh

    def counted(M, *args, **kwargs):
        calls.append(M.shape)
        return dpotrf(M, *args, **kwargs)

    def counted_eigs(M, *args, **kwargs):
        eigs.append(M.shape)
        return eigvalsh(M, *args, **kwargs)

    monkeypatch.setattr(gramians_norms, "dpotrf", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigs)
    for system in (full, red):
        with record_residuals() as log:
            truncated_h2_norm(system)
        assert calls == []
        assert [tag for tag, _ in log] == ["lyapunov"] * 4
        assert linear_gramians(system) is linear_gramians(system)
    # the error system's Gramians are assembled anew, and checked, on every
    # call: each by one Cholesky, and no eigensolve while it succeeds
    error_system_norm(full, red)
    assert calls == [(16, 16)] * 4 and eigs == []


def psd_bound_case(factor):
    """A symmetric 4x4 Gramian whose smallest eigenvalue is ``factor`` times
    the PSD bound ``-1e-10 max(|M|_F, 1)``, with that eigenvalue."""
    U, _ = np.linalg.qr(np.random.default_rng(12).standard_normal((4, 4)))
    e = np.array([2.0, 1.0, 0.5, 0.0])
    e[3] = -factor * 1e-10 * np.linalg.norm(e)
    M = U @ np.diag(e) @ U.T
    M = 0.5 * (M + M.T)
    return M, float(np.linalg.eigvalsh(M).min())


def test_gramian_just_beyond_the_psd_bound_is_indefinite():
    M, lo = psd_bound_case(1.01)
    with pytest.raises(SolverError, match=rf"^gramian Q indefinite \(min eig = {lo:.3e}\)$"):
        GramianPair(P=np.eye(4), Q=M, kind="linear", residual=0.0)


def test_gramian_that_is_not_symmetric_is_refused():
    P = np.eye(3)
    P[0, 2] = 1e-6
    with pytest.raises(SolverError,
                       match=r"^gramian P not symmetric \(\|M - M\^T\| = 1\.414e-06\)$"):
        GramianPair(P=P, Q=np.eye(3), kind="linear", residual=0.0)


def test_dual_traces_that_disagree_are_a_gramian_inconsistency(monkeypatch):
    # a dual right-hand side twice the true one doubles trace(B^T Q_T B) alone
    q_rhs = gramians_norms._q_rhs
    monkeypatch.setattr(gramians_norms, "_q_rhs", lambda sys, P, Q: 2.0 * q_rhs(sys, P, Q))
    with pytest.raises(SolverError, match=r"^Gramian inconsistency: trace\(C P C\^T\) = \S+ but "
                                          r"trace\(B\^T Q B\) = \S+$"):
        truncated_h2_norm(random_stable_ode(3, 6))


def test_gramian_just_inside_the_psd_bound_passes():
    M, _ = psd_bound_case(0.99)
    GramianPair(P=M, Q=M, kind="linear", residual=0.0)


def test_rank_deficient_psd_gramian_passes():
    v = np.random.default_rng(13).standard_normal((6, 1))
    GramianPair(P=v @ v.T, Q=np.zeros((6, 6)), kind="truncated", residual=0.0)


def test_returned_gramians_are_read_only():
    sys = random_stable_ode(17, 7, m=2, p=2, quad_scale=0.05)
    for pair in (linear_gramians(sys), truncated_gramians(sys)):
        for M in (pair.P, pair.Q):
            with pytest.raises(ValueError, match="read-only"):
                M[0, 0] = 0.0


def test_kept_gramians_are_read_only_and_freed_with_the_system():
    full, red = bilinear_model()
    error_system_norm(full, red)
    kept = gramians_norms._kept_gramians(full)
    arrays = kept.gramians + (*kept.lyap.lu, kept.lyap.T, kept.lyap.Z)
    assert not any(M.flags.writeable for M in arrays)
    with pytest.raises(ValueError, match="read-only"):
        kept.gramians[0][0, 0] = 0.0
    refs = [weakref.ref(M) for M in arrays]
    del kept, arrays
    assert all(r() is not None for r in refs)
    del full
    gc.collect()
    assert all(r() is None for r in refs)


def held_arrays(system):
    """Every array a system holds: its fields, per-input tuples and Hessian triplets."""
    for f in dataclasses.fields(system):
        value = getattr(system, f.name)
        for M in value if isinstance(value, tuple) else (value,):
            yield from ((M._i, M._j, M._k, M._v) if isinstance(M, HessianTensor) else (M,))


def test_systems_own_read_only_arrays(monkeypatch):
    from qbmor.problems import gen_synthetic_dae

    full, red = bilinear_model()
    for system in (full, red, gen_synthetic_dae(10, 2, m=2, p=2, seed=1, with_c2=True)):
        for M in held_arrays(system):
            with pytest.raises(ValueError, match="read-only"):
                M[...] = 0.0
    # a system built from the caller's arrays keeps none of them
    mine = {"E": full.E.copy(), "A": full.A.copy(), "B": full.B.copy(),
            "C": full.C.copy(), "N": [Nk.copy() for Nk in full.N]}
    own = QbOdeSystem(H=full.H, **mine)
    first = error_system_norm(own, red)
    calls = counted_schur(monkeypatch)
    for M in (mine["E"], mine["A"], mine["B"], mine["C"], *mine["N"]):
        M[0] += 1.0
    assert all(np.array_equal(M, M0) for M, M0 in zip(held_arrays(own), held_arrays(full)))
    assert error_system_norm(own, red) == first
    assert calls == []


def test_unstable_models_raise_on_every_call():
    full, red = bilinear_model()
    unstable_red = dataclasses.replace(red, Ahat=-red.Ahat)
    unstable_full = dataclasses.replace(full, A=-full.A)
    for _ in range(2):
        with pytest.raises(SolverError, match="unstable pencil"):
            error_system_norm(full, unstable_red)
        with pytest.raises(SolverError, match="unstable pencil"):
            error_system_norm(unstable_full, red)
    assert "_gramians" not in vars(unstable_full)
    assert error_system_norm(full, red) > 0.0
