import dataclasses

import numpy as np
import pytest
import scipy.linalg as la

import qbmor.simulate as simulate
from qbmor.dae_transform import recover_pressure
from qbmor.dense_solvers import SolverError
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
from qbmor.system_model import QbOdeSystem, project_ode
from qbmor.tensor_kron import HessianTensor, apply_hessian, quadratic_jacobian

from helpers import random_stable_ode


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


def test_reduced_identity_projection_bit_identical():
    sys = gen_burgers(12, 0.2)
    red = project_ode(sys, np.eye(12), np.eye(12))
    u = InputSignal.preset_cavity(1)
    a = simulate_ode(sys, u, 1.0, 0.01)
    b = simulate_ode(red, u, 1.0, 0.01)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.outputs, b.outputs)


@pytest.mark.parametrize("kind", ["ode", "dae"])
def test_newton_counts_match_jacobian_calls(kind, monkeypatch):
    calls = []
    kernel = simulate.quadratic_jacobian

    def counted(t, x):
        calls.append(1)
        return kernel(t, x)

    monkeypatch.setattr(simulate, "quadratic_jacobian", counted)
    if kind == "ode":
        traj = simulate_ode(gen_burgers(10, 0.1), InputSignal.preset_cavity(1), 1.0, 0.01)
        x = traj.states
    else:
        sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=4, quad_scale=0.1)
        traj = simulate_dae(sys, InputSignal.preset_cavity(2), 1.0, 0.01)
        x = traj.states[:, :12]
    assert traj.newton_iters.shape == traj.newton_residuals.shape == traj.t.shape
    assert traj.newton_iters[0] == 0
    assert len(calls) == traj.newton_iters.sum()
    tol = NEWTON_TOL * np.maximum(1.0, np.linalg.norm(x[:-1], axis=1))
    assert np.all(traj.newton_residuals[1:] <= tol)


def test_singular_newton_matrix_names_step_and_time():
    # E - dt A = diag(1.5, 0) at dt = 0.5, and H = 0 keeps it singular
    sys = QbOdeSystem(E=np.eye(2), A=np.diag([-1.0, 2.0]), H=HessianTensor.zero(2),
                      N=(np.zeros((2, 2)),), B=np.ones((2, 1)), C=np.ones((1, 2)))
    u = InputSignal(1, lambda t: 1.0, lambda t: 0.0)
    with pytest.raises(SolverError, match=r"singular Newton matrix at step 1 \(t=0\.5\)"):
        simulate_ode(sys, u, 1.0, 0.5)


def test_non_finite_input_fails_newton():
    u = InputSignal(1, lambda t: np.nan if t > 0.25 else 0.0, lambda t: 0.0)
    with pytest.raises(RuntimeError, match=r"Newton failed to converge at step 3 \(t=0\.3,"):
        simulate_ode(gen_burgers(8, 0.5), u, 1.0, 0.1)


def reference_euler(E, A, H, N, B, dt, U, z0, A12, A21, B2):
    """Implicit Euler written from the definition, one dense Newton solve at a time."""
    n, n_c = A.shape[0], A12.shape[1]
    Z = [z0]
    for u in U[1:]:
        x_old, z = Z[-1][:n], Z[-1].copy()
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


@pytest.mark.parametrize("kind", ["ode", "dae", "reduced"])
def test_newton_step_matches_reference(kind):
    dt, u = 0.01, InputSignal.preset_cavity(2)
    if kind == "dae":
        sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=1, quad_scale=0.1,
                                with_b2=True, with_c2=True)
        traj = simulate_dae(sys, u, 1.0, dt)
        z0 = np.concatenate([sys.v0, recover_pressure(sys, sys.v0, u.sample(0.0),
                                                      udot=u.derivative(0.0))])
        Z = reference_euler(sys.E11, sys.A11, sys.H, sys.N, sys.B1, dt, traj.inputs,
                            z0, sys.A12, sys.A21, sys.B2)
        V, P = Z[:, :12], Z[:, 12:]
        Y = V @ sys.C1.T + P @ sys.C2.T
        cres = np.linalg.norm(V @ sys.A21.T + traj.inputs @ sys.B2.T, axis=1)
        assert np.all(np.abs(traj.constraint_residual - cres) <= 1e-12 * np.abs(V).max())
    else:
        sys = random_stable_ode(3, 7, m=2, p=2)
        E, A, H, N, B, C = sys.E, sys.A, sys.H, sys.N, sys.B, sys.C
        if kind == "reduced":
            rng = np.random.default_rng(3)
            Q = la.qr(rng.standard_normal((7, 4)), mode="economic")[0]
            sys = dataclasses.replace(
                project_ode(sys, Q, Q), CHhat=rng.standard_normal((2, 16)),
                CNhat=tuple(rng.standard_normal((2, 4)) for _ in range(2)),
                Dhat=rng.standard_normal((2, 2)))
            E, A, N, B, C = sys.Ehat, sys.Ahat, sys.Nhat, sys.Bhat, sys.Chat
            H = HessianTensor.from_mode1(sys.Hhat)
        traj = simulate_ode(sys, u, 1.0, dt)
        Z = reference_euler(E, A, H, N, B, dt, traj.inputs, np.zeros(A.shape[0]),
                            np.zeros((A.shape[0], 0)), np.zeros((0, A.shape[0])),
                            np.zeros((0, 2)))
        Y = Z @ C.T
        if kind == "reduced":
            Y = Y + np.array([sys.CHhat @ np.kron(x, x) + sys.Dhat @ uk
                              + sum((M @ x) * uq for uq, M in zip(uk, sys.CNhat))
                              for x, uk in zip(Z, traj.inputs)])
    assert np.linalg.norm(traj.states - Z) <= 1e-12 * np.linalg.norm(Z)
    assert np.linalg.norm(traj.outputs - Y) <= 1e-12 * np.linalg.norm(Y)


def test_input_channel_mismatch():
    sys = gen_burgers(8, 0.5)
    with pytest.raises(ValueError, match="channels"):
        simulate_ode(sys, InputSignal.zero(2), 1.0, 0.01)


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


def test_table_input_single_row_needs_two_samples():
    with pytest.raises(ValueError, match="at least two samples, got 1"):
        InputSignal.from_table([0.0], [[1.0]])


def test_table_input_times_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        InputSignal.from_table([0.0, 1.0, 1.0], [[1.0], [2.0], [3.0]])
