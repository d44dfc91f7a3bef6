"""Time integration and trajectory comparison.

Fixed-step implicit Euler with a Newton corrector is used for both the
unconstrained and the descriptor form; the descriptor steps solve the coupled
velocity-multiplier saddle system including the constraint row.  Fixed steps
keep runs reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv

from .dae_transform import recover_pressure
from .dense_solvers import SolverError
from .mmio import _read_table, atomic_open
from .system_model import ReducedQbSystem
from .tensor_kron import HessianTensor, apply_hessian, quadratic_jacobian

__all__ = [
    "InputSignal",
    "Trajectory",
    "simulate_ode",
    "simulate_dae",
    "compare",
]

NEWTON_TOL = 1e-10
NEWTON_MAX = 25


class InputSignal:
    """Control input ``u(t)`` with ``m`` channels and a time derivative.

    Presets are analytic; tabulated inputs interpolate linearly and
    differentiate by central differences (one-sided at the ends).
    """

    def __init__(self, m, sample, derivative, kind="custom"):
        self.m = int(m)
        self._sample = sample
        self._derivative = derivative
        self.kind = kind

    def sample(self, t):
        return np.broadcast_to(
            np.asarray(self._sample(t), dtype=float), (self.m,)
        ).copy()

    def on_grid(self, t):
        """Samples at the times ``t`` as the rows of a (len(t), m) array."""
        t = np.asarray(t, dtype=float)
        return np.array([self.sample(tk) for tk in t]).reshape(t.size, self.m)

    def derivative(self, t):
        return np.broadcast_to(
            np.asarray(self._derivative(t), dtype=float), (self.m,)
        ).copy()

    @classmethod
    def zero(cls, m):
        z = np.zeros(m)
        return cls(m, lambda t: z, lambda t: z, kind="zero")

    @classmethod
    def preset_cavity(cls, m):
        """``u(t) = 2 t^2 exp(-t/2) sin(2 pi t / 5)`` on every channel."""
        w = 2.0 * np.pi / 5.0

        def u(t):
            return 2.0 * t * t * np.exp(-t / 2.0) * np.sin(w * t)

        def du(t):
            e = np.exp(-t / 2.0)
            return ((4.0 * t - t * t) * np.sin(w * t)
                    + 2.0 * t * t * w * np.cos(w * t)) * e

        return cls(m, u, du, kind="preset-cavity")

    @classmethod
    def from_table(cls, t, U):
        """Tabulated input: rows of ``U`` are samples at the times ``t``."""
        t = np.asarray(t, dtype=float)
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if U.shape[0] != t.size:
            U = U.T
        if U.shape[0] != t.size:
            raise ValueError("table rows must match the time samples")
        if t.size < 2:
            raise ValueError(
                f"input table needs at least two samples, got {t.size}")
        if np.any(np.diff(t) <= 0):
            raise ValueError("table times must be strictly increasing")
        dU = np.gradient(U, t, axis=0)
        m = U.shape[1]

        def u(tq):
            return np.array([np.interp(tq, t, U[:, c]) for c in range(m)])

        def du(tq):
            return np.array([np.interp(tq, t, dU[:, c]) for c in range(m)])

        return cls(m, u, du, kind="csv-table")

    def augmented_for_homogenized(self, derivative=None):
        """Signal ``(u, u kron u, u')`` for a homogenized descriptor system.

        ``derivative`` may override the derivative channel, e.g. with a step
        difference quotient so that a discrete integrator of the homogenized
        system reproduces the original one step-for-step.
        """
        m = self.m
        deriv = derivative if derivative is not None else self._derivative

        def u(t):
            base = self.sample(t)
            return np.concatenate([base, np.kron(base, base),
                                   np.broadcast_to(np.asarray(deriv(t), float), (m,))])

        def du(t, h=1e-6):
            return (u(t + h) - u(t - h)) / (2.0 * h)

        return InputSignal(2 * m + m * m, u, du, kind=f"augmented:{self.kind}")


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid trajectory with inputs, states and outputs per step.

    ``newton_iters[k]`` and ``newton_residuals[k]`` are the Newton
    iterations (linear solves) and the final residual norm of the step that
    reached ``t[k]``; entry 0 is zero.  Neither is written to CSV.
    """

    t: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    constraint_residual: np.ndarray = None
    newton_iters: np.ndarray = None
    newton_residuals: np.ndarray = None

    @property
    def dt(self):
        return float(self.t[1] - self.t[0])

    def to_csv(self, path):
        """Write the trajectory table atomically."""
        m, p = self.inputs.shape[1], self.outputs.shape[1]
        cols = (["t"] + [f"u_{k+1}" for k in range(m)]
                + [f"y_{k+1}" for k in range(p)])
        data = [self.t, *self.inputs.T, *self.outputs.T]
        if self.constraint_residual is not None:
            cols.append("constraint_residual")
            data.append(self.constraint_residual)
        body = np.column_stack(data)
        with atomic_open(path) as fh:
            fh.write(",".join(cols) + "\n")
            for row in body:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

    @staticmethod
    def read_csv(path):
        """Load ``(t, inputs, outputs, constraint_residual)`` from a trajectory CSV."""
        header, body = _read_table(path)
        if header[0] != "t":
            raise ValueError(f"{path}: not a trajectory CSV (header {header[:3]}...)")
        u_cols = [i for i, c in enumerate(header) if c.startswith("u_")]
        y_cols = [i for i, c in enumerate(header) if c.startswith("y_")]
        if not y_cols:
            raise ValueError(f"{path}: trajectory CSV has no output (y_*) columns")
        cres = None
        if header[-1] == "constraint_residual":
            cres = body[:, -1]
        return body[:, 0], body[:, u_cols], body[:, y_cols], cres


def _grid(t_final, dt):
    if dt <= 0 or t_final <= 0:
        raise ValueError(f"need t_final > 0 and dt > 0, got {t_final}, {dt}")
    steps = int(round(t_final / dt))
    return dt * np.arange(steps + 1), steps


class _NewtonStep:
    """Preassembled implicit-Euler Newton step shared by both integrators.

    The unknown ``z = (x, p)`` stacks the state and, for descriptor systems,
    the multiplier.  The step under input ``u`` solves

        K(u) z - dt [H (x kron x); 0] = [E x_old + dt B u; -B2 u],
        K(u) = [[E - dt A - dt sum_k u_k N_k, -dt A12], [A21, 0]],

    by Newton.  An ODE has no multiplier block.  ``E - dt A`` and the
    constraint blocks are written once per simulation, the bilinear term once
    per step, and each iteration evaluates ``quadratic_jacobian`` once,
    subtracts it from the velocity block of a copy of ``K(u)`` and solves
    with one LAPACK ``gesv``.
    """

    def __init__(self, E, A, H, N, B, dt, A12=None, A21=None, B2=None):
        n = A.shape[0]
        n_c = 0 if A12 is None else A12.shape[1]
        self.n, self.dt, self.H, self.E, self.B = n, dt, H, E, B
        self._S = np.asfortranarray(E - dt * A)
        self._N = tuple(np.asfortranarray(Nk) for Nk in N)
        self._mB2 = np.zeros((0, B.shape[1])) if B2 is None else -B2
        self._K = np.zeros((n + n_c, n + n_c), order="F")
        if n_c:
            self._K[:n, n:] = -dt * A12
            self._K[n:, :n] = A21
        self._J = np.empty_like(self._K)

    def run(self, z0, U, t):
        """States at every grid time with per-step Newton counts and residuals."""
        Z = np.empty((t.size, z0.size))
        iters = np.zeros(t.size, dtype=int)
        resid = np.zeros(t.size)
        Z[0] = z0
        for k in range(1, t.size):
            Z[k], iters[k], resid[k] = self._newton(Z[k - 1], U[k], k, t[k])
        return Z, iters, resid

    def _newton(self, z_old, u, k, tk):
        n, dt, H, K, J = self.n, self.dt, self.H, self._K, self._J
        Kv = K[:n, :n]
        np.copyto(Kv, self._S)
        for uq, Nq in zip(u, self._N):
            Kv -= (dt * uq) * Nq
        x_old = z_old[:n]
        c = np.concatenate([self.E @ x_old + dt * (self.B @ u), self._mB2 @ u])
        tol = NEWTON_TOL * max(1.0, float(np.linalg.norm(x_old)))
        z = z_old.copy()
        for it in range(NEWTON_MAX + 1):
            x = z[:n]
            res = K @ z - c
            res[:n] -= dt * apply_hessian(H, x, x)
            norm = math.sqrt(res @ res)
            if norm <= tol:
                return z, it, norm
            if it == NEWTON_MAX:
                raise RuntimeError(
                    f"Newton failed to converge at step {k} "
                    f"(t={tk:.6g}, residual={norm:.3e})"
                )
            np.copyto(J, K)
            J[:n, :n] -= dt * quadratic_jacobian(H, x)
            _, _, dz, info = dgesv(J, res, overwrite_a=True, overwrite_b=True)
            if info:
                raise SolverError(
                    f"singular Newton matrix at step {k} (t={tk:.6g}): "
                    f"zero pivot {info} in the LU factorization"
                )
            z -= dz


def simulate_ode(sys, u, t_final, dt):
    """Implicit-Euler integration from ``x(0) = 0``.

    Each step solves ``E (x_new - x_old) = dt * f(x_new, t_new)`` by Newton
    with the analytic Jacobian; outputs include the nonlinear corrections
    when the system carries them.  Full and reduced realizations take the
    same path.
    """
    red = sys if isinstance(sys, ReducedQbSystem) else None
    if red is not None:
        E, A, N, B, C = red.Ehat, red.Ahat, red.Nhat, red.Bhat, red.Chat
        H = HessianTensor.from_mode1(red.Hhat)
    else:
        E, A, H, N, B, C = sys.E, sys.A, sys.H, sys.N, sys.B, sys.C
    if u.m != B.shape[1]:
        raise ValueError(f"input has {u.m} channels, system expects {B.shape[1]}")
    t, _ = _grid(t_final, dt)
    U = u.on_grid(t)
    X, iters, resid = _NewtonStep(E, A, H, N, B, dt).run(np.zeros(A.shape[0]), U, t)
    Y = X @ C.T
    if red is not None and red.has_output_corrections():
        r = red.r
        Y += (X[:, :, None] * X[:, None, :]).reshape(t.size, r * r) @ red.CHhat.T
        Y += U @ red.Dhat.T
        for q, Mq in enumerate(red.CNhat):
            Y += (X @ Mq.T) * U[:, q, None]
    return Trajectory(t=t, states=X, outputs=Y, inputs=U,
                      newton_iters=iters, newton_residuals=resid)


def simulate_dae(sys, u, t_final, dt, v0=None):
    """Implicit-Euler integration of the coupled velocity-multiplier system.

    The Newton residual includes the constraint row ``A21 v + B2 u = 0`` at
    the new time level; the per-step constraint violation is recorded.  The
    initial velocity must be consistent with the constraint.
    """
    if u.m != sys.m:
        raise ValueError(f"input has {u.m} channels, system expects {sys.m}")
    n_v = sys.n_v
    v = (sys.v0 if v0 is None else np.asarray(v0, dtype=float).ravel()).copy()
    u0 = u.sample(0.0)
    c0 = np.linalg.norm(sys.A21 @ v + sys.B2 @ u0)
    if c0 > 1e-8 * (1.0 + np.linalg.norm(v)):
        raise ValueError(f"inconsistent initial velocity: |A21 v0 + B2 u(0)| = {c0:.3e}")
    t, _ = _grid(t_final, dt)
    U = u.on_grid(t)
    p0 = recover_pressure(sys, v, u0, udot=u.derivative(0.0) if sys.B2.any() else None)
    step = _NewtonStep(sys.E11, sys.A11, sys.H, sys.N, sys.B1, dt,
                       sys.A12, sys.A21, sys.B2)
    Z, iters, resid = step.run(np.concatenate([v, p0]), U, t)
    V, P = Z[:, :n_v], Z[:, n_v:]
    CR = np.linalg.norm(V @ sys.A21.T + U @ sys.B2.T, axis=1)
    return Trajectory(t=t, states=Z, outputs=V @ sys.C1.T + P @ sys.C2.T,
                      inputs=U, constraint_residual=CR,
                      newton_iters=iters, newton_residuals=resid)


def compare(full, red):
    """Per-output and aggregate relative L2 errors of two same-grid trajectories."""
    tf, tr = np.asarray(full.t), np.asarray(red.t)
    if tf.shape != tr.shape or np.max(np.abs(tf - tr)) > 1e-9 * max(tf[-1], 1.0):
        raise ValueError("trajectories are on different time grids")
    yf, yr = full.outputs, red.outputs
    if yf.shape != yr.shape:
        raise ValueError(
            f"output dimensions differ: {yf.shape[1]} vs {yr.shape[1]}"
        )
    tiny = np.finfo(float).tiny
    per_output = []
    for c in range(yf.shape[1]):
        diff = yr[:, c] - yf[:, c]
        per_output.append({
            "relative_l2": float(np.linalg.norm(diff)
                                 / max(np.linalg.norm(yf[:, c]), tiny)),
            "max_abs": float(np.max(np.abs(diff))),
        })
    diff = yr - yf
    return {
        "n_outputs": int(yf.shape[1]),
        "steps": int(tf.size - 1),
        "dt": float(tf[1] - tf[0]) if tf.size > 1 else 0.0,
        "per_output": per_output,
        "aggregate_relative_l2": float(np.linalg.norm(diff)
                                       / max(np.linalg.norm(yf), tiny)),
        "max_abs": float(np.max(np.abs(diff))),
    }
