"""Time integration and trajectory comparison.

Fixed-step implicit Euler with a Newton corrector is used for both the
unconstrained and the descriptor form; the descriptor steps solve the coupled
velocity-multiplier saddle system including the constraint row.  Fixed steps
keep runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .dae_transform import recover_pressure
from .mmio import atomic_open
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
        if t.size < 2 or np.any(np.diff(t) <= 0):
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
    """Uniform-grid trajectory with inputs, states and outputs per step."""

    t: np.ndarray
    states: np.ndarray
    outputs: np.ndarray
    inputs: np.ndarray
    constraint_residual: np.ndarray = None

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
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            body = np.array(
                [[float(x) for x in line.split(",")] for line in fh if line.strip()]
            )
        if not header or header[0] != "t":
            raise ValueError(f"{path}: not a trajectory CSV (header {header[:3]}...)")
        u_cols = [i for i, c in enumerate(header) if c.startswith("u_")]
        y_cols = [i for i, c in enumerate(header) if c.startswith("y_")]
        cres = None
        if header[-1] == "constraint_residual":
            cres = body[:, -1]
        return body[:, 0], body[:, u_cols], body[:, y_cols], cres


def _grid(t_final, dt):
    if dt <= 0 or t_final <= 0:
        raise ValueError(f"need t_final > 0 and dt > 0, got {t_final}, {dt}")
    steps = int(round(t_final / dt))
    return dt * np.arange(steps + 1), steps


class _OdeForm:
    """Uniform access to full and reduced realizations for the integrator."""

    def __init__(self, sys):
        if isinstance(sys, ReducedQbSystem):
            self.E, self.A = sys.Ehat, sys.Ahat
            self.H = HessianTensor.from_mode1(sys.Hhat)
            self.N, self.B = sys.Nhat, sys.Bhat
            self._C = sys.Chat
            self._corr = sys if sys.has_output_corrections() else None
        else:
            self.E, self.A = sys.E, sys.A
            self.H, self.N, self.B = sys.H, sys.N, sys.B
            self._C = sys.C
            self._corr = None
        self.n = self.A.shape[0]
        self.m = self.B.shape[1]

    def rhs(self, x, u):
        f = self.A @ x + apply_hessian(self.H, x, x) + self.B @ u
        for k, Nk in enumerate(self.N):
            f = f + (Nk @ x) * u[k]
        return f

    def jac(self, x, u):
        J = self.A + quadratic_jacobian(self.H, x)
        for k, Nk in enumerate(self.N):
            J = J + Nk * u[k]
        return J

    def output(self, x, u):
        y = self._C @ x
        red = self._corr
        if red is not None:
            y = y + red.CHhat @ np.kron(x, x) + red.Dhat @ u
            for k, Mk in enumerate(red.CNhat):
                y = y + (Mk @ x) * u[k]
        return y


def simulate_ode(sys, u, t_final, dt):
    """Implicit-Euler integration from ``x(0) = 0``.

    Each step solves ``E (x_new - x_old) = dt * f(x_new, t_new)`` by Newton
    with the analytic Jacobian; outputs include the nonlinear corrections
    when the system carries them.
    """
    form = _OdeForm(sys)
    if u.m != form.m:
        raise ValueError(f"input has {u.m} channels, system expects {form.m}")
    t, steps = _grid(t_final, dt)
    X = np.zeros((steps + 1, form.n))
    U = np.zeros((steps + 1, form.m))
    Y = np.zeros((steps + 1, len(form.output(X[0], u.sample(0.0)))))
    U[0] = u.sample(0.0)
    Y[0] = form.output(X[0], U[0])
    x = X[0].copy()
    for k in range(steps):
        tk1 = t[k + 1]
        uk1 = u.sample(tk1)
        x_new = x.copy()
        tol = NEWTON_TOL * max(1.0, float(np.linalg.norm(x)))
        for it in range(NEWTON_MAX + 1):
            res = form.E @ (x_new - x) - dt * form.rhs(x_new, uk1)
            if np.linalg.norm(res) <= tol:
                break
            if it == NEWTON_MAX:
                raise RuntimeError(
                    f"Newton failed to converge at step {k + 1} "
                    f"(t={tk1:.6g}, residual={np.linalg.norm(res):.3e})"
                )
            J = form.E - dt * form.jac(x_new, uk1)
            x_new = x_new + la.solve(J, -res)
        x = x_new
        X[k + 1], U[k + 1] = x, uk1
        Y[k + 1] = form.output(x, uk1)
    return Trajectory(t=t, states=X, outputs=Y, inputs=U)


def simulate_dae(sys, u, t_final, dt, v0=None):
    """Implicit-Euler integration of the coupled velocity-multiplier system.

    The Newton residual includes the constraint row ``A21 v + B2 u = 0`` at
    the new time level; the per-step constraint violation is recorded.  The
    initial velocity must be consistent with the constraint.
    """
    if u.m != sys.m:
        raise ValueError(f"input has {u.m} channels, system expects {sys.m}")
    n_v, n_p = sys.n_v, sys.n_p
    v = (sys.v0 if v0 is None else np.asarray(v0, dtype=float).ravel()).copy()
    u0 = u.sample(0.0)
    c0 = np.linalg.norm(sys.A21 @ v + sys.B2 @ u0)
    if c0 > 1e-8 * (1.0 + np.linalg.norm(v)):
        raise ValueError(f"inconsistent initial velocity: |A21 v0 + B2 u(0)| = {c0:.3e}")
    t, steps = _grid(t_final, dt)
    V = np.zeros((steps + 1, n_v))
    P = np.zeros((steps + 1, n_p))
    U = np.zeros((steps + 1, sys.m))
    Y = np.zeros((steps + 1, sys.p))
    CR = np.zeros(steps + 1)
    V[0], U[0] = v, u0
    P[0] = recover_pressure(sys, v, u0, udot=u.derivative(0.0) if sys.B2.any() else None)
    Y[0] = sys.C1 @ v + sys.C2 @ P[0]
    CR[0] = c0
    p = P[0].copy()

    def step_residual(vn, pn, vk, uk):
        rv = sys.E11 @ (vn - vk) - dt * (
            sys.A11 @ vn + sys.A12 @ pn + apply_hessian(sys.H, vn, vn)
            + sum((Nk @ vn) * uk[q] for q, Nk in enumerate(sys.N))
            + sys.B1 @ uk
        )
        rc = sys.A21 @ vn + sys.B2 @ uk
        return np.concatenate([rv, rc])

    for k in range(steps):
        uk1 = u.sample(t[k + 1])
        vn, pn = v.copy(), p.copy()
        tol = NEWTON_TOL * max(1.0, float(np.linalg.norm(v)))
        for it in range(NEWTON_MAX + 1):
            res = step_residual(vn, pn, v, uk1)
            if np.linalg.norm(res) <= tol:
                break
            if it == NEWTON_MAX:
                raise RuntimeError(
                    f"Newton failed to converge at step {k + 1} "
                    f"(t={t[k + 1]:.6g}, residual={np.linalg.norm(res):.3e})"
                )
            Jv = sys.A11 + quadratic_jacobian(sys.H, vn)
            for q, Nk in enumerate(sys.N):
                Jv = Jv + Nk * uk1[q]
            J = np.zeros((n_v + n_p, n_v + n_p))
            J[:n_v, :n_v] = sys.E11 - dt * Jv
            J[:n_v, n_v:] = -dt * sys.A12
            J[n_v:, :n_v] = sys.A21
            dz = la.solve(J, -res)
            vn = vn + dz[:n_v]
            pn = pn + dz[n_v:]
        v, p = vn, pn
        V[k + 1], P[k + 1], U[k + 1] = v, p, uk1
        Y[k + 1] = sys.C1 @ v + sys.C2 @ p
        CR[k + 1] = np.linalg.norm(sys.A21 @ v + sys.B2 @ uk1)
    states = np.hstack([V, P])
    return Trajectory(t=t, states=states, outputs=Y, inputs=U,
                      constraint_residual=CR)


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
