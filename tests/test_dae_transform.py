import sys as _sys

import numpy as np
import pytest
import scipy.linalg as la

from qbmor import dae_transform, dense_solvers
from qbmor.dae_transform import (
    build_projectors,
    explicit_ode,
    homogenize_b2,
    homogenized_output_realization,
    output_realization,
    recover_pressure,
)
from qbmor.problems import gen_synthetic_dae
from qbmor.simulate import InputSignal, simulate_dae, simulate_ode
from qbmor.system_model import QbDaeSystem
from qbmor.tensor_kron import HessianTensor, apply_hessian


def tiny_dae():
    """n_v=2, n_p=1 with diagonal projector diag(0, 1)."""
    return QbDaeSystem(
        E11=np.eye(2), A11=-np.eye(2), A12=np.array([[1.0], [0.0]]),
        A21=np.array([[1.0, 0.0]]), H=HessianTensor.zero(2),
        N=(np.zeros((2, 2)),), B1=np.array([[0.0], [1.0]]),
        B2=np.zeros((1, 1)), C1=np.array([[0.0, 1.0]]), C2=np.zeros((1, 1)),
    )


def projector_invariant_violations(sys, proj):
    k = sys.n_v - sys.n_p
    eye = np.eye(sys.n_v)
    a21_ei = la.solve(sys.E11.T, sys.A21.T).T
    rel = lambda x, s: np.linalg.norm(x) / max(np.linalg.norm(s), 1.0)
    return {
        "factor_l": rel(proj.Pi_l - proj.theta_l @ proj.phi_l.T, proj.Pi_l),
        "factor_r": rel(proj.Pi_r - proj.theta_r @ proj.phi_r.T, proj.Pi_r),
        "biorth": max(np.linalg.norm(proj.theta_l.T @ proj.phi_l - np.eye(k)),
                      np.linalg.norm(proj.theta_r.T @ proj.phi_r - np.eye(k))),
        "idempotent": max(rel(proj.Pi_l @ proj.Pi_l - proj.Pi_l, proj.Pi_l),
                          rel(proj.Pi_r @ proj.Pi_r - proj.Pi_r, proj.Pi_r)),
        "commute": rel(proj.Pi_l @ sys.E11 - sys.E11 @ proj.Pi_r, sys.E11),
        "kernel": np.linalg.norm(proj.Pi_l @ sys.A12) / np.linalg.norm(sys.A12),
        "range": np.linalg.norm(a21_ei @ proj.Pi_l) / np.linalg.norm(a21_ei),
    }


def test_projectors_tiny_diagonal_case():
    proj = build_projectors(tiny_dae())
    assert np.allclose(proj.Pi_l, np.diag([0.0, 1.0]), atol=1e-14)
    assert np.allclose(proj.Pi_r, np.diag([0.0, 1.0]), atol=1e-14)


def test_projectors_symmetric_case_transpose_relation():
    sys = gen_synthetic_dae(16, 4, m=2, p=2, seed=2, symmetric=True)
    proj = build_projectors(sys)
    assert np.linalg.norm(proj.Pi_l - proj.Pi_r.T) <= 1e-10 * np.linalg.norm(proj.Pi_l)


def test_projector_invariants_seeded():
    sys = gen_synthetic_dae(20, 5, m=2, p=2, seed=7, quad_scale=0.1)
    proj = build_projectors(sys)
    for name, v in projector_invariant_violations(sys, proj).items():
        assert v <= 1e-10, f"{name}: {v:.3e}"


def rel_err(x, oracle):
    return np.linalg.norm(x - oracle) / np.linalg.norm(oracle)


def test_projectors_nonsymmetric_inverse_oracle():
    sys = gen_synthetic_dae(20, 5, m=2, p=2, seed=3, quad_scale=0.1)
    assert np.linalg.norm(sys.A12 - sys.A21.T) > 1e-3   # so Pi_l != Pi_r^T
    proj = build_projectors(sys)
    E11i = la.inv(sys.E11)
    Si = la.inv(sys.A21 @ E11i @ sys.A12)
    eye = np.eye(20)
    assert rel_err(proj.Pi_l, eye - sys.A12 @ Si @ sys.A21 @ E11i) <= 1e-12
    assert rel_err(proj.Pi_r, eye - E11i @ sys.A12 @ Si @ sys.A21) <= 1e-12


def test_projector_size_cap(monkeypatch):
    sys = gen_synthetic_dae(12, 3, seed=0)
    monkeypatch.setattr(dae_transform, "EXPLICIT_SIZE_CAP", 10)
    with pytest.raises(ValueError, match="cap"):
        build_projectors(sys)


@pytest.mark.parametrize("rank", [1, 3])
def test_projector_rank_defect_is_reported(rank):
    # a rank-2 matrix: a cut at 1 leaves a singular value above the cut,
    # a cut at 3 keeps a zero one
    with pytest.raises(ValueError, match=f"^projector rank defect: expected rank {rank}, "):
        dae_transform._rank_factor(np.diag([1.0, 1.0, 0.0]), rank)


def test_kernel_characterization():
    rng = np.random.default_rng(8)
    sys = gen_synthetic_dae(18, 4, m=2, p=2, seed=9)
    proj = build_projectors(sys)
    for _ in range(20):
        z = proj.Pi_r @ rng.standard_normal(18)   # a kernel vector of A21
        assert np.linalg.norm(sys.A21 @ z) <= 1e-10 * np.linalg.norm(z)
        assert np.linalg.norm(proj.Pi_r @ z - z) <= 1e-10 * np.linalg.norm(z)
    for _ in range(20):
        z = rng.standard_normal(18)
        if np.linalg.norm(sys.A21 @ z) > 1e-6 * np.linalg.norm(z):
            assert np.linalg.norm(proj.Pi_r @ z - z) > 1e-8 * np.linalg.norm(z)


# -- output realization -------------------------------------------------------


def test_output_realization_velocity_only():
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=1, quad_scale=0.1)
    out = output_realization(sys)
    assert np.array_equal(out.C, sys.C1)
    assert out.CH.nnz == 0 and not out.D.any()
    assert all(not M.any() for M in out.CN)


def test_output_realization_linear_feedthrough():
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=4, quad_scale=0.0,
                            with_c2=True)
    out = output_realization(sys)
    E11i = la.inv(sys.E11)
    S = sys.A21 @ E11i @ sys.A12
    D_oracle = -sys.C2 @ la.inv(S) @ sys.A21 @ E11i @ sys.B1
    assert np.linalg.norm(out.D - D_oracle) <= 1e-10 * np.linalg.norm(D_oracle)
    assert out.CH.nnz == 0


def test_output_realization_dense_inverse_oracle():
    sys = gen_synthetic_dae(14, 3, m=2, p=2, seed=5, quad_scale=0.2,
                            with_c2=True)
    out = output_realization(sys)
    E11i = la.inv(sys.E11)
    S = sys.A21 @ E11i @ sys.A12
    G = la.inv(S) @ sys.A21 @ E11i
    C_oracle = sys.C1 - sys.C2 @ G @ sys.A11
    assert np.linalg.norm(out.C - C_oracle) <= 1e-10 * np.linalg.norm(C_oracle)
    CH_oracle = -sys.C2 @ G @ sys.H.mode(1).toarray()
    assert np.linalg.norm(out.CH.toarray() - CH_oracle) <= 1e-10 * np.linalg.norm(CH_oracle)


# -- pressure recovery --------------------------------------------------------


def test_recover_pressure_zero():
    sys = gen_synthetic_dae(10, 2, m=2, seed=0)
    p = recover_pressure(sys, np.zeros(10), np.zeros(2))
    assert np.allclose(p, 0.0)


def test_recover_pressure_linear_formula():
    sys = gen_synthetic_dae(10, 2, m=2, p=2, seed=3, quad_scale=0.0)
    u = np.array([1.0, -2.0])
    p = recover_pressure(sys, np.zeros(10), u)
    E11i = la.inv(sys.E11)
    S = sys.A21 @ E11i @ sys.A12
    oracle = -la.inv(S) @ sys.A21 @ E11i @ sys.B1 @ u
    assert np.allclose(p, oracle, rtol=1e-10, atol=1e-12)


def test_recover_pressure_with_b2_inverse_oracle():
    rng = np.random.default_rng(4)
    sys = gen_synthetic_dae(14, 3, m=2, p=2, seed=9, quad_scale=0.2,
                            with_b2=True, with_c2=True)
    v, u, udot = rng.standard_normal(14), rng.standard_normal(2), rng.standard_normal(2)
    p = recover_pressure(sys, v, u, udot)
    f = (sys.A11 @ v + apply_hessian(sys.H, v, v) + sys.B1 @ u
         + sum((Nk @ v) * u[q] for q, Nk in enumerate(sys.N)))
    E11i = la.inv(sys.E11)
    S = sys.A21 @ E11i @ sys.A12
    assert rel_err(p, -la.inv(S) @ (sys.A21 @ E11i @ f + sys.B2 @ udot)) <= 1e-12
    with pytest.raises(ValueError, match="input derivative"):
        recover_pressure(sys, v, u)


def test_recover_pressure_consistency_on_manifold():
    # with the recovered multiplier, the velocity derivative stays in ker(A21)
    rng = np.random.default_rng(10)
    sys = gen_synthetic_dae(14, 3, m=2, p=2, seed=6, quad_scale=0.2)
    proj = build_projectors(sys)
    v = proj.Pi_r @ rng.standard_normal(14)
    u = rng.standard_normal(2)
    p = recover_pressure(sys, v, u)
    rhs = (sys.A11 @ v + sys.A12 @ p + apply_hessian(sys.H, v, v)
           + sum((Nk @ v) * u[q] for q, Nk in enumerate(sys.N)) + sys.B1 @ u)
    drift = sys.A21 @ la.solve(sys.E11, rhs)
    assert np.linalg.norm(drift) <= 1e-9 * max(np.linalg.norm(rhs), 1.0)


# -- explicit ODE form --------------------------------------------------------


def test_explicit_ode_tiny_case():
    sys = tiny_dae()
    ode, lift = explicit_ode(sys, build_projectors(sys))
    assert ode.n == 1
    assert ode.E[0, 0] == pytest.approx(1.0)
    assert ode.A[0, 0] == pytest.approx(-1.0)
    assert np.allclose(np.abs(lift.ravel()), [0.0, 1.0])


def test_explicit_ode_requires_homogeneous_constraint():
    sys = gen_synthetic_dae(14, 3, m=2, p=2, seed=9, with_b2=True)
    with pytest.raises(ValueError, match="^explicit ODE form requires B2 = 0; homogenize first$"):
        explicit_ode(sys, build_projectors(sys))


def test_explicit_ode_transfer_function_match():
    sys = gen_synthetic_dae(16, 4, m=2, p=2, seed=8, quad_scale=0.0,
                            with_c2=True)
    ode, _ = explicit_ode(sys, build_projectors(sys))
    out = output_realization(sys)
    n_v, n_p = 16, 4
    for w in [0.1, 0.7, 1.3, 3.0, 10.0]:
        s = 1j * w
        blk = np.block([
            [s * sys.E11 - sys.A11, -sys.A12],
            [-sys.A21, np.zeros((n_p, n_p))],
        ])
        rhs = np.vstack([sys.B1, sys.B2])
        sol = la.solve(blk, rhs)
        G_dae = np.hstack([sys.C1, sys.C2]) @ sol
        G_bar = ode.C @ la.solve(s * ode.E - ode.A, ode.B) + out.D
        assert np.linalg.norm(G_bar - G_dae) <= 1e-8 * np.linalg.norm(G_dae)


def test_explicit_ode_simulation_lift_oracle():
    sys = gen_synthetic_dae(20, 5, m=2, p=2, seed=4, quad_scale=0.1)
    ode, lift = explicit_ode(sys, build_projectors(sys))
    u = InputSignal.preset_cavity(2)
    td = simulate_dae(sys, u, 3.0, 0.01)
    to = simulate_ode(ode, u, 3.0, 0.01)
    v_dae = td.states[:, :20]
    v_ode = to.states @ lift.T
    err = np.linalg.norm(v_dae - v_ode) / np.linalg.norm(v_dae)
    assert err <= 1e-6


def test_bar_matrix_consistency():
    rng = np.random.default_rng(12)
    sys = gen_synthetic_dae(18, 4, m=2, p=2, seed=11, quad_scale=0.1)
    proj = build_projectors(sys)
    Ebar = proj.phi_l.T @ sys.E11 @ proj.theta_r
    k = 18 - 4
    Vbar = rng.standard_normal((k, 3))
    Wbar = rng.standard_normal((k, 3))
    V = proj.theta_r @ Vbar
    W = proj.phi_l @ Wbar
    lhs = Wbar.T @ Ebar @ Vbar
    rhs = W.T @ sys.E11 @ V
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


# -- homogenization -----------------------------------------------------------


def test_homogenize_rejects_homogeneous_input():
    sys = gen_synthetic_dae(10, 2, seed=0)
    with pytest.raises(ValueError, match="already homogeneous"):
        homogenize_b2(sys)


def test_homogenize_linear_case():
    sys = gen_synthetic_dae(10, 2, m=1, p=1, seed=5, quad_scale=0.0,
                            with_b2=True)
    hom = homogenize_b2(sys)
    # no quadratic term: the bilinear matrices are untouched and the
    # quadratic-input channel carries only the N Omega blocks (zero here
    # because N is small but nonzero in general) minus the H part (zero)
    m = sys.m
    for Nc, Nk in zip(hom.dae.N[:m], sys.N):
        assert np.array_equal(Nc, Nk)
    assert np.allclose(hom.dae.B1[:, m:m + m * m], np.hstack([Nk @ hom.Omega for Nk in sys.N]))
    assert np.allclose(hom.dae.B1[:, :m], sys.B1 + sys.A11 @ hom.Omega)
    # Omega maps the constraint right: A21 Omega = -B2
    assert np.allclose(sys.A21 @ hom.Omega, -sys.B2, atol=1e-12)


def test_homogenize_inverse_oracle():
    sys = gen_synthetic_dae(14, 3, m=2, p=2, seed=9, quad_scale=0.1,
                            with_b2=True, with_c2=True)
    hom = homogenize_b2(sys)
    E11i = la.inv(sys.E11)
    Si_B2 = la.inv(sys.A21 @ E11i @ sys.A12) @ sys.B2
    assert rel_err(hom.Omega, -E11i @ sys.A12 @ Si_B2) <= 1e-12
    assert rel_err(hom.du_feedthrough, -sys.C2 @ Si_B2) <= 1e-12


def test_homogenize_simulation_equivalence():
    sys = gen_synthetic_dae(14, 3, m=2, p=2, seed=9, quad_scale=0.1,
                            with_b2=True, with_c2=True)
    hom = homogenize_b2(sys)
    u = InputSignal.preset_cavity(2)
    dt = 0.01
    orig = simulate_dae(sys, u, 3.0, dt)

    def step_derivative(t):
        if t <= 0:
            return u.derivative(0.0)
        return (u.sample(t) - u.sample(t - dt)) / dt

    aug = u.augmented_for_homogenized(derivative=step_derivative)
    homtraj = simulate_dae(hom.dae, aug, 3.0, dt)
    y_rec = homtraj.outputs + homtraj.inputs[:, :2] @ (sys.C1 @ hom.Omega).T
    err = np.linalg.norm(y_rec - orig.outputs) / np.linalg.norm(orig.outputs)
    assert err <= 1e-6


def test_reduce_homogenized_reproduces_original_output():
    # the whole composite path: homogenize, saddle-reduce with the original
    # output realization, then simulate the reduced model with augmented
    # inputs and compare against the untouched descriptor system
    from qbmor.tqb_irka import IrkaConfig, tqb_irka_dae_saddle

    sys = gen_synthetic_dae(16, 3, m=2, p=2, seed=9, quad_scale=0.08,
                            with_b2=True, with_c2=True)
    hom = homogenize_b2(sys)
    corr = homogenized_output_realization(hom)
    red, trace = tqb_irka_dae_saddle(hom.dae,
                                     IrkaConfig(r=6, seed=5, tol=1e-7,
                                                max_iters=80),
                                     output_corr=corr)
    assert trace.converged
    u = InputSignal.preset_cavity(2)
    dt = 0.005
    orig = simulate_dae(sys, u, 3.0, dt)

    def step_derivative(t):
        if t <= 0:
            return u.derivative(0.0)
        return (u.sample(t) - u.sample(t - dt)) / dt

    aug = u.augmented_for_homogenized(derivative=step_derivative)
    redtraj = simulate_ode(red, aug, 3.0, dt)
    err = (np.linalg.norm(redtraj.outputs - orig.outputs)
           / np.linalg.norm(orig.outputs))
    assert err <= 5e-3  # observed 4.0e-4 on this instance


def test_homogenized_output_realization_feedthrough():
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=9, quad_scale=0.1,
                            with_b2=True, with_c2=True)
    hom = homogenize_b2(sys)
    base = output_realization(hom.dae)
    full = homogenized_output_realization(hom)
    assert np.allclose(full.D[:, :2] - base.D[:, :2], sys.C1 @ hom.Omega)
    assert np.array_equal(full.D[:, 2:], base.D[:, 2:])
    # the recorded input-derivative output coefficient
    S = sys.A21 @ la.solve(sys.E11, sys.A12)
    assert np.allclose(hom.du_feedthrough, -sys.C2 @ la.solve(S, sys.B2))


# -- one saddle factorization per elimination ---------------------------------


@pytest.mark.parametrize("name", ["build_projectors", "output_realization",
                                  "recover_pressure", "homogenize_b2"])
def test_elimination_factors_one_saddle_matrix_and_never_calls_solve(name, monkeypatch):
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=9, quad_scale=0.1,
                            with_b2=True, with_c2=True)
    args = {"recover_pressure": (np.ones(12), np.ones(2), np.ones(2))}.get(name, ())
    factors, solve_callers = [], []

    class CountedFactor(dense_solvers._ShiftFactor):
        def __init__(self, *a, **kw):
            factors.append(a[2])                # the shift
            super().__init__(*a, **kw)

    solve = la.solve

    def recorded_solve(*a, **kw):
        solve_callers.append(_sys._getframe(1).f_globals["__name__"])
        return solve(*a, **kw)

    monkeypatch.setattr(dense_solvers, "_ShiftFactor", CountedFactor)
    monkeypatch.setattr(la, "solve", recorded_solve)
    getattr(dae_transform, name)(sys, *args)
    assert factors == [0.0]
    # QbDaeSystem validation (run by homogenize_b2's result) may solve;
    # the elimination itself never does
    assert "qbmor.dae_transform" not in solve_callers
