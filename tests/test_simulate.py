import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la

import qbmor.simulate as simulate
from qbmor.dae_transform import recover_pressure
import qbmor.dense_solvers as dense_solvers
from qbmor.dense_solvers import SolverError, _ShiftPencil, solve_saddle, solve_shifted
from qbmor.gramians_norms import error_system_norm
from qbmor.problems import gen_burgers, gen_synthetic_dae
from qbmor.simulate import (
    NEWTON_MAX,
    NEWTON_TOL,
    InputSignal,
    Trajectory,
    compare,
    simulate_dae,
    simulate_ode,
)
from qbmor.system_model import QbDaeSystem, QbOdeSystem, project_ode
from qbmor.tensor_kron import HessianTensor, apply_hessian, quadratic_jacobian
from qbmor.tqb_irka import IrkaConfig, tqb_irka_ode

from helpers import random_stable_ode, skewed_band_pencil


@pytest.fixture
def lapack_calls(monkeypatch):
    """Names of the LAPACK solvers that Newton steps call, one entry per call."""
    calls = []

    def counted(name, kernel):
        def call(*args, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)
        return call

    for name in ("gesv", "gtsv"):
        monkeypatch.setattr(simulate, "d" + name, counted(name, getattr(simulate, "d" + name)))
    return calls


def tridiagonal(rng, n, diag, off):
    return (np.diag(diag + 0.1 * rng.standard_normal(n))
            + off * np.diag(rng.standard_normal(n - 1), 1)
            + off * np.diag(rng.standard_normal(n - 1), -1))


def narrow_ode(n, seed=0):
    """Tridiagonal system with bilinear terms and a Hessian coupling neighbours only."""
    rng = np.random.default_rng(seed)
    i = np.arange(1, n - 1)
    H = HessianTensor(n, np.r_[i, i], np.r_[i - 1, i + 1], np.r_[i, i],
                      0.1 * rng.standard_normal(2 * i.size))
    return QbOdeSystem(E=tridiagonal(rng, n, 1.0, 0.05), A=tridiagonal(rng, n, -2.0, 0.5),
                       H=H, N=tuple(tridiagonal(rng, n, 0.0, 0.1) for _ in range(2)),
                       B=rng.standard_normal((n, 2)), C=rng.standard_normal((2, n)))


def narrow_dae(n_v, seed=0):
    """``narrow_ode`` with the last two velocities constrained: a saddle of bandwidth 2,
    so stored dense."""
    rng = np.random.default_rng(seed)
    ode = narrow_ode(n_v, seed)
    A12 = np.zeros((n_v, 2))
    A12[n_v - 2, 0] = A12[n_v - 1, 1] = 1.0
    return QbDaeSystem(E11=ode.E, A11=ode.A, A12=A12, A21=A12.T.copy(), H=ode.H, N=ode.N,
                       B1=ode.B, B2=rng.standard_normal((2, 2)), C1=ode.C,
                       C2=rng.standard_normal((2, 2)))


def test_zero_input_zero_trajectory():
    sys = gen_burgers(8, 0.5)
    traj = simulate_ode(sys, InputSignal.zero(1), 1.0, 0.01)
    assert np.allclose(traj.states, 0.0) and np.allclose(traj.outputs, 0.0)


def test_scalar_linear_closed_form():
    # x' = -x + u with u = 1: x(t) = 1 - exp(-t)
    sys = QbOdeSystem(E=np.eye(1), A=-np.eye(1), H=HessianTensor.zero(1),
                      N=(np.zeros((1, 1)),), B=np.ones((1, 1)), C=np.ones((1, 1)))
    u = InputSignal(1, lambda t: 1.0, lambda t: 0.0)
    traj = simulate_ode(sys, u, 1.0, 1e-3)
    assert traj.outputs[-1, 0] == pytest.approx(1.0 - np.exp(-1.0), abs=5e-3)


def test_first_order_self_convergence():
    sys = gen_burgers(16, 0.1)
    u = InputSignal.preset_cavity(1)
    base = 0.01
    ref = simulate_ode(sys, u, 1.0, base / 64.0)
    errors = []
    for dt in (base, base / 2.0):
        traj = simulate_ode(sys, u, 1.0, dt)
        step = round(dt / (base / 64.0))
        diff = traj.outputs - ref.outputs[::step]
        errors.append(np.sqrt(dt) * np.linalg.norm(diff))  # discrete L2
    ratio = errors[0] / errors[1]
    assert 1.8 <= ratio <= 2.2


def test_first_order_self_convergence_dae():
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=2, quad_scale=0.1)
    u = InputSignal.preset_cavity(2)
    base = 0.01
    ref = simulate_dae(sys, u, 1.0, base / 64.0)
    errors = []
    for dt in (base, base / 2.0):
        traj = simulate_dae(sys, u, 1.0, dt)
        step = round(dt / (base / 64.0))
        diff = traj.outputs - ref.outputs[::step]
        errors.append(np.sqrt(dt) * np.linalg.norm(diff))
    ratio = errors[0] / errors[1]
    assert 1.8 <= ratio <= 2.2


@pytest.mark.parametrize("n", [12, 40])
def test_reduced_identity_projection_bit_identical(n):
    sys = gen_burgers(n, 0.2)
    red = project_ode(sys, np.eye(n), np.eye(n))
    u = InputSignal.preset_cavity(1)
    a = simulate_ode(sys, u, 1.0, 0.01)
    b = simulate_ode(red, u, 1.0, 0.01)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.outputs, b.outputs)


def count_calls(monkeypatch, module, name, calls):
    """Replace ``module.name`` by a wrapper that appends ``name`` to ``calls``."""
    kernel = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("kind", ["ode", "dae", "banded", "narrow-bilinear"])
def test_newton_counts_match_jacobian_calls(kind, monkeypatch):
    calls = []
    for name in ("apply_hessian", "quadratic_jacobian"):
        count_calls(monkeypatch, simulate, name, calls)
    if kind == "narrow-bilinear":
        # banded storage with nonzero N_k, rewritten in the band every step
        traj = simulate_ode(narrow_ode(30), InputSignal.preset_cavity(2), 1.0, 0.01)
        x = traj.states
    elif kind != "dae":
        n = 10 if kind == "ode" else 40
        traj = simulate_ode(gen_burgers(n, 0.1), InputSignal.preset_cavity(1), 1.0, 0.01)
        x = traj.states
    else:
        sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=4, quad_scale=0.1)
        traj = simulate_dae(sys, InputSignal.preset_cavity(2), 1.0, 0.01)
        x = traj.states[:, :12]
    assert traj.newton_iters.shape == traj.newton_residuals.shape == traj.t.shape
    assert traj.newton_iters[0] == 0
    assert calls.count("quadratic_jacobian") == traj.newton_iters.sum()
    # one residual per iterate: one per solve and the one that meets the tolerance
    assert calls.count("apply_hessian") == traj.newton_iters.sum() + traj.t.size - 1
    tol = NEWTON_TOL * np.maximum(1.0, np.linalg.norm(x[:-1], axis=1))
    assert np.all(traj.newton_residuals[1:] <= tol)


def test_singular_newton_matrix_names_step_and_time():
    # E - dt A = diag(1.5, 0) at dt = 0.5, and H = 0 keeps it singular
    sys = QbOdeSystem(E=np.eye(2), A=np.diag([-1.0, 2.0]), H=HessianTensor.zero(2),
                      N=(np.zeros((2, 2)),), B=np.ones((2, 1)), C=np.ones((1, 2)))
    u = InputSignal(1, lambda t: 1.0, lambda t: 0.0)
    with pytest.raises(SolverError, match=r"singular Newton matrix at step 1 \(t=0\.5\)"):
        simulate_ode(sys, u, 1.0, 0.5)


def test_singular_banded_newton_matrix_names_step_and_time(lapack_calls):
    # column 5 of E - dt A is zero at dt = 0.5, and H = 0 keeps it singular,
    # in a tridiagonal A and in one with a second superdiagonal, stored dense
    n = 40
    A = -np.eye(n) + 0.1 * (np.eye(n, k=1) + np.eye(n, k=-1))
    for A in (A, A + 0.1 * np.eye(n, k=2)):
        A[:, 5] = 0.0
        A[5, 5] = 2.0
        sys = QbOdeSystem(E=np.eye(n), A=A, H=HessianTensor.zero(n), N=(np.zeros((n, n)),),
                          B=np.ones((n, 1)), C=np.ones((1, n)))
        u = InputSignal(1, lambda t: 1.0, lambda t: 0.0)
        with pytest.raises(SolverError, match=r"singular Newton matrix at step 1 \(t=0\.5\): "
                                              r"zero pivot 6 in the LU factorization"):
            simulate_ode(sys, u, 1.0, 0.5)
    assert lapack_calls == ["gtsv", "gesv"]


def test_non_finite_input_fails_newton():
    u = InputSignal(1, lambda t: np.nan if t > 0.25 else 0.0, lambda t: 0.0)
    with pytest.raises(RuntimeError, match=r"Newton failed to converge at step 3 \(t=0\.3,"):
        simulate_ode(gen_burgers(8, 0.5), u, 1.0, 0.1)
    # a dense bilinear DAE, whose N_k carry the NaN into the Newton matrix too
    dae = gen_synthetic_dae(12, 3, m=2, p=2, seed=1, quad_scale=0.1)
    assert all(Nk.any() for Nk in dae.N)
    u = InputSignal(2, lambda t: np.nan if t > 0.25 else 0.0, lambda t: 0.0)
    with pytest.raises(RuntimeError, match=r"Newton failed to converge at step 3 \(t=0\.3,"):
        simulate_dae(dae, u, 1.0, 0.1)


@pytest.mark.parametrize("kind", ["dense-dae", "narrow-ode", "reduced"])
def test_newton_matrix_is_assembled_from_its_definition(kind, monkeypatch):
    # every matrix handed to the solver, copied before it is factored in place, is
    # [[E - dt A - dt sum_k u_k N_k - dt J_H(x), -dt A12], [A21, 0]] at its iterate x,
    # and off the pattern of the N_k and J_H it holds the constant blocks bit for bit
    dt, iterate, seen = 0.01, [], []
    if kind == "dense-dae":
        sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=1, quad_scale=0.1)
        E, A, N, A12, A21, H = sys.E11, sys.A11, sys.N, sys.A12, sys.A21, sys.H
        at = np.r_[H._i * 12 + H._j, H._i * 12 + H._k]
        assert np.unique(at).size < at.size  # stored entries share Jacobian positions
    elif kind == "narrow-ode":
        sys = narrow_ode(30)
        E, A, N, H = sys.E, sys.A, sys.N, sys.H
        A12, A21 = np.zeros((30, 0)), np.zeros((0, 30))
    else:
        # dense Hessian forms: the Jacobian is added at all n^2 cells
        Q = la.qr(np.random.default_rng(3).standard_normal((7, 4)), mode="economic")[0]
        sys = project_ode(random_stable_ode(3, 7, m=2, p=2), Q, Q)
        E, A, N, H = sys.Ehat, sys.Ahat, sys.Nhat, HessianTensor.from_mode1(sys.Hhat)
        A12, A21 = np.zeros((4, 0)), np.zeros((0, 4))
        assert H._dense_forms() is not None
    n, n_c = A12.shape
    assert all(Nk.any() for Nk in N)
    hess = simulate.apply_hessian

    def recorded_hess(t, a, b):
        iterate[:] = [b.copy()]  # the residual's iterate x, which a solve follows
        return hess(t, a, b)

    def recorded(name):
        kernel = getattr(simulate, name)

        def call(*args, **kwargs):
            # gesv reads the dense matrix, gtsv its sub-, main and superdiagonal
            if name == "dgesv":
                K = args[0].copy()
            else:
                dl, d, du = args[:3]
                K = np.diag(d) + np.diag(du, 1) + np.diag(dl, -1)
            seen.append((*iterate, K))
            return kernel(*args, **kwargs)
        return call

    monkeypatch.setattr(simulate, "apply_hessian", recorded_hess)
    for name in ("dgesv", "dgtsv"):
        monkeypatch.setattr(simulate, name, recorded(name))
    u = InputSignal.preset_cavity(2)
    traj = (simulate_dae(sys, u, 0.2, dt) if kind == "dense-dae" else
            simulate_ode(sys, u, 0.2, dt))
    steps = np.repeat(np.arange(traj.t.size), traj.newton_iters)
    assert len(seen) == steps.size and set(steps) == set(range(1, traj.t.size))
    K0 = np.block([[E - dt * A, -dt * A12], [A21, np.zeros((n_c, n_c))]])
    off = np.ones(K0.shape, dtype=bool)
    off[:n, :n] = ~np.any(N, axis=0)
    off[H._i, H._j] = off[H._i, H._k] = False
    for k, (x, K) in zip(steps, seen):
        Kv = dt * (A + sum(uq * Nq for uq, Nq in zip(traj.inputs[k], N))
                   + quadratic_jacobian(H, x))
        expect = np.block([[E - Kv, -dt * A12], [A21, np.zeros((n_c, n_c))]])
        assert np.linalg.norm(K - expect) <= 1e-14 * np.linalg.norm(expect)
        assert np.array_equal(K[off], K0[off])


def test_newton_step_allocates_no_matrix_sized_temporaries():
    # the bilinear and Jacobian terms go into the Newton matrix at their stored
    # entries only: no (size, size) product, sum or Jacobian is formed per step
    sys = gen_synthetic_dae(300, 60, m=2, p=2, seed=0, quad_scale=0.1)
    dt, size = 0.01, 360
    assert all(Nk.any() for Nk in sys.N) and sys.H._dense_forms() is None
    step = simulate._NewtonStep(sys.E11, sys.A11, sys.H, sys.N, sys.B1, dt,
                                sys.A12, sys.A21, sys.B2)
    t = dt * np.arange(6)
    U = InputSignal.preset_cavity(2).on_grid(t)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, iters, _ = step.run(np.zeros(size), U, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(iters[1:] >= 1)
    assert peak - start < 0.5 * size * size * 8


def extrapolated_start(Z):
    """Quadratic extrapolation of the states so far, linear after two and constant after one."""
    if len(Z) == 1:
        return Z[0].copy()
    if len(Z) == 2:
        return 2.0 * Z[1] - Z[0]
    return 3.0 * (Z[-1] - Z[-2]) + Z[-3]


def previous_start(Z):
    return Z[-1].copy()


def reference_euler(E, A, H, N, B, dt, U, z0, A12, A21, B2, start=extrapolated_start):
    """Implicit Euler written from the definition, one dense Newton solve at a time.

    Each step's Newton iteration starts from ``start(Z)``, the states so far.
    """
    n, n_c = A.shape[0], A12.shape[1]
    Z = [z0]
    for u in U[1:]:
        x_old, z = Z[-1][:n], start(Z)
        for _ in range(NEWTON_MAX):
            x, p = z[:n], z[n:]
            f = (A @ x + A12 @ p + apply_hessian(H, x, x) + B @ u
                 + sum((Nq @ x) * uq for uq, Nq in zip(u, N)))
            res = np.concatenate([E @ (x - x_old) - dt * f, A21 @ x + B2 @ u])
            if np.linalg.norm(res) <= NEWTON_TOL * max(1.0, np.linalg.norm(x_old)):
                break
            Jv = A + quadratic_jacobian(H, x) + sum(Nq * uq for uq, Nq in zip(u, N))
            J = np.block([[E - dt * Jv, -dt * A12], [A21, np.zeros((n_c, n_c))]])
            z = z - la.solve(J, res)
        Z.append(z)
    return np.array(Z)


@pytest.mark.parametrize("kind", ["ode", "dae", "reduced", "reduced-burgers", "burgers",
                                  "narrow-ode", "narrow-dae"])
def test_newton_step_matches_reference(kind, lapack_calls):
    # the tridiagonal ones solve from their three diagonals, the others (the
    # bandwidth-2 saddle too) dense
    solver = "gtsv" if kind in ("burgers", "narrow-ode") else "gesv"
    dt = 0.01
    if kind in ("dae", "narrow-dae"):
        sys = (narrow_dae(30) if kind == "narrow-dae" else
               gen_synthetic_dae(12, 3, m=2, p=2, seed=1, quad_scale=0.1,
                                 with_b2=True, with_c2=True))
        n, u = sys.n_v, InputSignal.preset_cavity(2)
        traj = simulate_dae(sys, u, 1.0, dt)
        z0 = np.concatenate([sys.v0, recover_pressure(sys, sys.v0, u.sample(0.0),
                                                      udot=u.derivative(0.0))])
        args = (sys.E11, sys.A11, sys.H, sys.N, sys.B1, dt, traj.inputs,
                z0, sys.A12, sys.A21, sys.B2)
        Z = reference_euler(*args)
        V, P = Z[:, :n], Z[:, n:]
        Y = V @ sys.C1.T + P @ sys.C2.T
        cres = np.linalg.norm(V @ sys.A21.T + traj.inputs @ sys.B2.T, axis=1)
        assert np.all(np.abs(traj.constraint_residual - cres) <= 1e-12 * np.abs(V).max())
    else:
        sys = {"ode": lambda: random_stable_ode(3, 7, m=2, p=2),
               "reduced": lambda: random_stable_ode(3, 7, m=2, p=2),
               "reduced-burgers": lambda: gen_burgers(40, 0.05),
               "burgers": lambda: gen_burgers(40, 0.05),
               "narrow-ode": lambda: narrow_ode(30)}[kind]()
        E, A, H, N, B, C = sys.E, sys.A, sys.H, sys.N, sys.B, sys.C
        if kind.startswith("reduced"):
            rng = np.random.default_rng(3)
            r = 4 if kind == "reduced" else 10
            Q = la.qr(rng.standard_normal((sys.n, r)), mode="economic")[0]
            sys = project_ode(sys, Q, Q)
            if kind == "reduced":
                sys = dataclasses.replace(
                    sys, CHhat=rng.standard_normal((2, 16)),
                    CNhat=tuple(rng.standard_normal((2, 4)) for _ in range(2)),
                    Dhat=rng.standard_normal((2, 2)))
            E, A, N, B, C = sys.Ehat, sys.Ahat, sys.Nhat, sys.Bhat, sys.Chat
            H = HessianTensor.from_mode1(sys.Hhat)
            assert H._dense_forms() is not None
        if kind == "reduced-burgers":
            # the benchmark's reduced path: no bilinear term, dense Hessian forms
            assert not any(Nk.any() for Nk in N)
        u = InputSignal.preset_cavity(B.shape[1])
        traj = simulate_ode(sys, u, 1.0, dt)
        args = (E, A, H, N, B, dt, traj.inputs, np.zeros(A.shape[0]),
                np.zeros((A.shape[0], 0)), np.zeros((0, A.shape[0])),
                np.zeros((0, B.shape[1])))
        Z = reference_euler(*args)
        Y = Z @ C.T
        if kind == "reduced":
            Y = Y + np.array([sys.CHhat @ np.kron(x, x) + sys.Dhat @ uk
                              + sum((M @ x) * uq for uq, M in zip(uk, sys.CNhat))
                              for x, uk in zip(Z, traj.inputs)])
    assert set(lapack_calls) == {solver}
    assert np.linalg.norm(traj.states - Z) <= 1e-12 * np.linalg.norm(Z)
    assert np.linalg.norm(traj.outputs - Y) <= 1e-12 * np.linalg.norm(Y)
    # the start moves the states by no more than the Newton tolerance allows
    Z_prev = reference_euler(*args, start=previous_start)
    assert np.linalg.norm(traj.states - Z_prev) <= 1e-8 * np.linalg.norm(Z_prev)


@pytest.mark.parametrize("kind", ["narrow-ode", "reduced", "dae"])
def test_back_to_back_simulations_are_bit_identical(kind):
    # no buffer of one run carries state into the next
    u = InputSignal.preset_cavity(2)
    if kind == "dae":
        sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=1, quad_scale=0.1, with_b2=True)
        first, second = (simulate_dae(sys, u, 1.0, 0.01) for _ in range(2))
    else:
        sys = narrow_ode(30)
        if kind == "reduced":
            Q = la.qr(np.random.default_rng(5).standard_normal((30, 6)), mode="economic")[0]
            sys = project_ode(sys, Q, Q)
        first, second = (simulate_ode(sys, u, 1.0, 0.01) for _ in range(2))
    for field in ("states", "outputs", "newton_iters", "newton_residuals"):
        assert np.array_equal(getattr(first, field), getattr(second, field))


def test_reduced_model_builds_one_tensor(monkeypatch):
    import qbmor.gramians_norms as gramians_norms

    full = gen_burgers(30, 0.05)
    Q = la.qr(np.random.default_rng(6).standard_normal((30, 6)), mode="economic")[0]
    red = project_ode(full, Q, Q)
    seen = []

    def recording(module, name):
        kernel = getattr(module, name)

        def call(t, *args, **kwargs):
            if t.n == red.r:
                seen.append(t)
            return kernel(t, *args, **kwargs)

        monkeypatch.setattr(module, name, call)

    recording(simulate, "apply_hessian")
    recording(gramians_norms, "hessian_gram")
    for _ in range(2):
        simulate_ode(red, InputSignal.preset_cavity(1), 0.5, 0.01)
        error_system_norm(full, red)
    assert len(seen) > 4 and all(t is seen[0] for t in seen)


def step_input(m):
    """Tabulated input on every channel: 0, then 1 from t = 0.5, then -0.5 from t = 1."""
    t = np.array([0.0, 0.5, 0.5 + 1e-9, 1.0, 1.0 + 1e-9, 2.0])
    return InputSignal.from_table(t, np.repeat([[0.0], [0.0], [1.0], [1.0], [-0.5], [-0.5]],
                                               m, axis=1))


@pytest.mark.parametrize("kind, dt", [("burgers", 0.01), ("burgers", 0.2),
                                      ("dae", 0.01), ("dae", 0.1)])
def test_step_inputs_converge_from_the_extrapolated_start(kind, dt):
    if kind == "burgers":
        sys = gen_burgers(100, 0.01)
        u = step_input(1)
        traj = simulate_ode(sys, u, 2.0, dt)
        n = sys.n
        args = (sys.E, sys.A, sys.H, sys.N, sys.B, dt, traj.inputs, np.zeros(n),
                np.zeros((n, 0)), np.zeros((0, n)), np.zeros((0, 1)))
    else:
        sys = gen_synthetic_dae(60, 12, with_b2=True)
        u = step_input(2)
        traj = simulate_dae(sys, u, 2.0, dt)
        n = sys.n_v
        z0 = np.concatenate([sys.v0, recover_pressure(sys, sys.v0, u.sample(0.0),
                                                      udot=u.derivative(0.0))])
        args = (sys.E11, sys.A11, sys.H, sys.N, sys.B1, dt, traj.inputs, z0,
                sys.A12, sys.A21, sys.B2)
    x_old = traj.states[:-1, :n]
    tol = NEWTON_TOL * np.maximum(1.0, np.linalg.norm(x_old, axis=1))
    assert np.all(traj.newton_residuals[1:] <= tol)
    Z_prev = reference_euler(*args, start=previous_start)
    assert np.linalg.norm(traj.states - Z_prev) <= 1e-8 * np.linalg.norm(Z_prev)


def test_smooth_input_takes_one_newton_solve_per_step():
    burgers = gen_burgers(100, 0.01)
    red, _ = tqb_irka_ode(burgers, IrkaConfig(r=10, tol=1e-5, max_iters=50, seed=0))
    cavity = InputSignal.preset_cavity
    for traj in (simulate_ode(burgers, cavity(1), 10.0, 0.01),
                 simulate_ode(red, cavity(1), 10.0, 0.01),
                 simulate_dae(gen_synthetic_dae(60, 12), cavity(2), 10.0, 0.01)):
        assert traj.newton_iters.sum() <= 1.05 * (traj.t.size - 1)


def test_input_channel_mismatch():
    sys = gen_burgers(8, 0.5)
    with pytest.raises(ValueError, match="channels"):
        simulate_ode(sys, InputSignal.zero(2), 1.0, 0.01)
    dae = gen_synthetic_dae(12, 3, m=2, p=2, seed=0)
    with pytest.raises(ValueError, match="^input has 1 channels, system expects 2$"):
        simulate_dae(dae, InputSignal.zero(1), 1.0, 0.01)


@pytest.mark.parametrize("t_final, dt", [(1.0, float("nan")), (float("nan"), 0.1),
                                         (1.0, 0.0), (-1.0, 0.1),
                                         (float("inf"), 0.1), (1.0, float("inf"))])
def test_bad_time_grid_is_rejected(t_final, dt):
    sys = gen_burgers(8, 0.5)
    with pytest.raises(ValueError, match="need t_final > 0 and dt > 0"):
        simulate_ode(sys, InputSignal.zero(1), t_final, dt)


@pytest.mark.parametrize("t_final, dt, ratio", [(1e300, 1e-300, "inf"), (1.0, 3.0, "0.333")])
def test_time_grid_needs_a_finite_number_of_steps(t_final, dt, ratio):
    sys = gen_burgers(8, 0.5)
    with pytest.raises(ValueError, match=rf"round\(t_final / dt\) < inf, got {ratio}"):
        simulate_ode(sys, InputSignal.zero(1), t_final, dt)


def test_time_grid_that_cannot_be_allocated_is_a_value_error(monkeypatch):
    # stands in for a count numpy tries to allocate but the host cannot hold
    # (1e10 steps ask for about 80 GB, too much to run)
    def arange(stop):
        raise MemoryError(f"Unable to allocate an array with shape ({stop},)")
    sys = gen_burgers(8, 0.5)
    monkeypatch.setattr(simulate.np, "arange", arange)
    with pytest.raises(ValueError, match=r"grid of 10000000000 steps \(t_final 1e\+10, dt 1\)"):
        simulate_ode(sys, InputSignal.zero(1), 1e10, 1.0)


def test_dae_zero_input():
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=0, quad_scale=0.1)
    traj = simulate_dae(sys, InputSignal.zero(2), 1.0, 0.01)
    assert np.allclose(traj.states, 0.0)
    assert np.allclose(traj.constraint_residual, 0.0)


def test_dae_constraint_residual_bound():
    sys = gen_synthetic_dae(16, 4, m=2, p=2, seed=5, quad_scale=0.1)
    traj = simulate_dae(sys, InputSignal.preset_cavity(2), 3.0, 0.01)
    v = traj.states[:, :16]
    assert traj.constraint_residual.max() <= 1e-8 * np.abs(v).max()


def test_dae_inconsistent_initial_velocity():
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=1)
    bad = np.ones(12)
    with pytest.raises(ValueError, match="inconsistent"):
        simulate_dae(sys, InputSignal.zero(2), 1.0, 0.01, v0=bad)


@pytest.mark.parametrize("length", [19, 21])
def test_dae_initial_velocity_of_the_wrong_length(length):
    sys = gen_synthetic_dae(20, 4, m=2, p=2, seed=0)
    with pytest.raises(ValueError, match=rf"^v0 must have shape \(20, 1\), got \({length}, 1\)$"):
        simulate_dae(sys, InputSignal.zero(2), 0.1, 0.01, v0=np.zeros(length))


def test_compare_identical():
    sys = gen_burgers(8, 0.5)
    traj = simulate_ode(sys, InputSignal.preset_cavity(1), 1.0, 0.01)
    rep = compare(traj, traj)
    assert rep["aggregate_relative_l2"] == 0.0
    assert rep["max_abs"] == 0.0


def test_compare_scaled():
    sys = gen_burgers(8, 0.5)
    traj = simulate_ode(sys, InputSignal.preset_cavity(1), 1.0, 0.01)
    scaled = Trajectory(t=traj.t, states=traj.states,
                        outputs=traj.outputs * (1.0 + 1e-3), inputs=traj.inputs)
    rep = compare(traj, scaled)
    assert rep["aggregate_relative_l2"] == pytest.approx(1e-3, rel=1e-10)


def test_compare_grid_mismatch():
    sys = gen_burgers(8, 0.5)
    a = simulate_ode(sys, InputSignal.zero(1), 1.0, 0.01)
    b = simulate_ode(sys, InputSignal.zero(1), 1.0, 0.02)
    with pytest.raises(ValueError, match="grid"):
        compare(a, b)


def test_compare_output_count_mismatch():
    t = np.linspace(0.0, 1.0, 5)
    one, two = (Trajectory(t=t, states=np.zeros((5, 0)), outputs=np.zeros((5, p)),
                           inputs=np.zeros((5, 1))) for p in (1, 2))
    with pytest.raises(ValueError, match="^output dimensions differ: 1 vs 2$"):
        compare(one, two)


def test_read_csv_rejects_a_table_without_a_time_column(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("x,u_1,y_1\n0,1,2\n")
    with pytest.raises(ValueError, match="not a trajectory CSV \\(header \\['x', 'u_1', 'y_1'\\]"):
        Trajectory.read_csv(path)


def test_trajectory_csv_roundtrip(tmp_path):
    sys = gen_synthetic_dae(10, 2, m=2, p=2, seed=3, quad_scale=0.1)
    traj = simulate_dae(sys, InputSignal.preset_cavity(2), 1.0, 0.01)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    t, u, y, cres = Trajectory.read_csv(path)
    assert np.array_equal(t, traj.t)
    assert np.array_equal(u, traj.inputs)
    assert np.array_equal(y, traj.outputs)
    assert np.array_equal(cres, traj.constraint_residual)


def test_trajectory_csv_bytes_match_per_value_formatting(tmp_path):
    vals = np.array([0.1, -0.0, 5e-324, 1e300, -1e-300, np.inf, 1.0 / 3.0])
    traj = Trajectory(t=np.arange(7.0), states=np.zeros((7, 0)),
                      outputs=np.column_stack([vals, -vals]), inputs=vals[::-1, None],
                      constraint_residual=np.abs(vals) / 7.0)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    rows = np.column_stack([traj.t, traj.inputs, traj.outputs, traj.constraint_residual])
    expect = "t,u_1,y_1,y_2,constraint_residual\n" + "".join(
        ",".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
    assert path.read_text() == expect


def test_preset_cavity_value_and_derivative():
    u = InputSignal.preset_cavity(2)
    assert np.allclose(u.sample(0.0), 0.0)
    t = 1.3
    w = 2.0 * np.pi / 5.0
    expect = 2.0 * t * t * np.exp(-t / 2.0) * np.sin(w * t)
    assert u.sample(t)[0] == pytest.approx(expect)
    h = 1e-6
    fd = (u.sample(t + h)[0] - u.sample(t - h)[0]) / (2.0 * h)
    assert u.derivative(t)[0] == pytest.approx(fd, abs=1e-8)


def test_table_input_interpolation_and_derivative():
    t = np.linspace(0.0, 2.0, 201)
    U = np.column_stack([np.sin(t), np.cos(t)])
    u = InputSignal.from_table(t, U)
    assert u.sample(0.505)[0] == pytest.approx(np.sin(0.505), abs=1e-4)
    assert u.derivative(1.0)[0] == pytest.approx(np.cos(1.0), abs=1e-3)


def test_library_signals_sample_the_grid_as_per_time_calls():
    t = np.linspace(0.0, 3.0, 301)
    table = InputSignal.from_table(t[::7], np.column_stack([np.sin(t[::7]), t[::7] ** 2]))
    cavity = InputSignal.preset_cavity(2)
    for u in (InputSignal.zero(3), cavity, table, cavity.augmented_for_homogenized(),
              table.augmented_for_homogenized(derivative=np.cos)):
        assert u._batch is not None, u.kind
        per_time = np.array([u.sample(tk) for tk in t])
        assert u.on_grid(t).shape == (t.size, u.m)
        assert np.array_equal(u.on_grid(t), per_time), u.kind
    aug = cavity.augmented_for_homogenized()
    base = cavity.on_grid(t)
    expect = np.column_stack([base, base[:, 0] * base[:, 0], base[:, 0] * base[:, 1],
                              base[:, 1] * base[:, 0], base[:, 1] * base[:, 1],
                              [cavity.derivative(tk) for tk in t]])
    assert np.array_equal(aug.on_grid(t), expect)
    assert np.array_equal(table.augmented_for_homogenized(derivative=np.cos).on_grid(t)[:, -2:],
                          np.column_stack([np.cos(t), np.cos(t)]))


def test_user_signal_is_sampled_once_per_time_and_a_batched_one_once():
    seen = []
    u = InputSignal(2, lambda tk: seen.append(tk) or [tk, 2.0 * tk], lambda tk: 0.0)
    t = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(u.on_grid(t), np.column_stack([t, 2.0 * t]))
    assert seen == list(t)
    seen.clear()

    def rows(tq):
        seen.append(tq.size)
        return np.column_stack([tq, 2.0 * tq])

    batched = InputSignal._batched(2, rows, rows, kind="test")
    assert np.array_equal(batched.on_grid(t), np.column_stack([t, 2.0 * t]))
    assert seen == [t.size]


def test_zero_bilinear_matrices_are_dropped_without_shifting_channels(lapack_calls):
    ode = narrow_ode(30)
    sys = dataclasses.replace(ode, N=(np.zeros((30, 30)), ode.N[1]))
    u = InputSignal(2, lambda t: [np.sin(3.0 * t), 1.0 - t], lambda t: 0.0)
    traj = simulate_ode(sys, u, 1.0, 0.01)
    Z = reference_euler(sys.E, sys.A, sys.H, sys.N, sys.B, 0.01, traj.inputs, np.zeros(30),
                        np.zeros((30, 0)), np.zeros((0, 30)), np.zeros((0, 2)))
    assert set(lapack_calls) == {"gtsv"}
    assert np.linalg.norm(traj.states - Z) <= 1e-12 * np.linalg.norm(Z)
    # the saddle of bandwidth 2, dense, with B2 = 0 so that the zero start is consistent
    dae = narrow_dae(30)
    dae = dataclasses.replace(dae, N=(np.zeros((30, 30)), dae.N[1]), B2=np.zeros((2, 2)))
    del lapack_calls[:]
    traj = simulate_dae(dae, u, 1.0, 0.01)
    z0 = np.concatenate([dae.v0, recover_pressure(dae, dae.v0, u.sample(0.0))])
    Z = reference_euler(dae.E11, dae.A11, dae.H, dae.N, dae.B1, 0.01, traj.inputs, z0,
                        dae.A12, dae.A21, dae.B2)
    assert set(lapack_calls) == {"gesv"}
    assert np.linalg.norm(traj.states - Z) <= 1e-12 * np.linalg.norm(Z)


@pytest.mark.parametrize("case", ["burgers", "narrow-dae", "skewed-band", "tridiagonal-2",
                                  "tridiagonal-3"])
def test_one_band_rule_routes_shift_factors_and_newton_steps(case, lapack_calls, monkeypatch):
    # one rule, diagonal offsets in {-1, 0, 1} on at least 3 rows, picks
    # tridiagonal storage for the shift factors and for the Newton steps of
    # the same system, and dense storage for any other pattern
    tri = case in ("burgers", "tridiagonal-3")
    fetched, fetch = [], dense_solvers.la.get_lapack_funcs

    def recorded_fetch(names, *args, **kwargs):
        fetched.extend([names] if isinstance(names, str) else names)
        return fetch(names, *args, **kwargs)

    monkeypatch.setattr(dense_solvers.la, "get_lapack_funcs", recorded_fetch)
    u = InputSignal.preset_cavity(2 if case == "narrow-dae" else 1)
    if case == "narrow-dae":
        sys = narrow_dae(30)
        blocks = (sys.E11, sys.A11, sys.A12, sys.A21)
        fact = solve_saddle(*blocks, np.array([-0.5, -1.5]), None)
        simulate_dae(sys, u, 0.1, 0.01)
    else:
        if case == "burgers":
            sys = gen_burgers(40, 0.05)
        else:
            rng = np.random.default_rng(7)
            n = int(case[-1]) if case.startswith("tridiagonal") else 30
            E, A = (skewed_band_pencil(7, n) if case == "skewed-band" else
                    (tridiagonal(rng, n, 1.0, 0.05), tridiagonal(rng, n, -2.0, 0.5)))
            sys = QbOdeSystem(E=E, A=A, H=HessianTensor.zero(n), N=(np.zeros((n, n)),),
                              B=rng.standard_normal((n, 1)), C=rng.standard_normal((1, n)))
        blocks = (sys.E, sys.A)
        fact = solve_shifted(*blocks, np.array([-0.5, -1.5]), None)
        simulate_ode(sys, u, 0.1, 0.01)
    assert _ShiftPencil(*blocks).tri == fact.tri == tri
    # a descriptor simulation adds the mass saddle solve of its initial multiplier
    assert set(fetched) == ({"gttrf", "gttrs"} if tri else {"getrf", "getrs"})
    assert set(lapack_calls) == {"gtsv" if tri else "gesv"}


def test_table_input_single_row_needs_two_samples():
    with pytest.raises(ValueError, match="at least two samples, got 1"):
        InputSignal.from_table([0.0], [[1.0]])


def test_table_input_rows_must_match_the_times():
    with pytest.raises(ValueError, match="^table rows must match the time samples$"):
        InputSignal.from_table([0.0, 1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]])


def test_table_input_times_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        InputSignal.from_table([0.0, 1.0, 1.0], [[1.0], [2.0], [3.0]])


@pytest.mark.parametrize("t, U, name", [([0.0, np.nan, 2.0], [0.0, 1.0, 2.0], "times"),
                                        ([0.0, 1.0, 2.0], [0.0, np.inf, 2.0], "samples")])
def test_table_input_must_be_finite(t, U, name):
    with pytest.raises(ValueError, match=f"^table {name} must be finite$"):
        InputSignal.from_table(t, U)
