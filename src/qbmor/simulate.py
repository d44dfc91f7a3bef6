"""Time integration and trajectory comparison.

Fixed-step implicit Euler with an exact Newton corrector is used for both the
unconstrained and the descriptor form; the descriptor steps solve the coupled
velocity-multiplier saddle system including the constraint row.  Fixed steps
keep runs reproducible.  Each step's Newton iteration starts from the
quadratic extrapolation of the last three states (multipliers included), so
a smooth input takes one Newton solve per step.  Each simulation keeps a
tridiagonal system's Newton matrix in tridiagonal storage, solved by LAPACK's
``gtsv``, and any other dense (``gesv``), by the rule and layout shared with
the shift factorizations of :mod:`qbmor.dense_solvers`; the library's input
signals sample a whole grid.

The Newton matrix and every step's input terms are bound once per
simulation, ``E x_old`` and any bilinear terms once per step, and each
iteration forms only a fresh residual and the exact Jacobian with its one
factorization (:class:`_NewtonStep`), both terms written at their stored
entries only.  A reduced model is simulated through the
:class:`~qbmor.system_model.QbOdeSystem` of its matrices that it keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgesv, dgtsv

from .dae_transform import recover_pressure
from .dense_solvers import (SolverError, _is_tridiagonal, _offsets, _tri_index, _tri_store,
                            _tridiagonals)
from .mmio import _read_table, atomic_open
from .system_model import (QbDaeSystem, QbOdeSystem, ReducedQbSystem, _bilinear_terms, _coerce,
                           _expect, _reduced_ode)
from .tensor_kron import apply_hessian, quadratic_jacobian

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
    differentiate by central differences (one-sided at the ends).  A signal
    holds its value and derivative as grid functions from a (T,) time array
    to (T, m) rows: the library's own sample a whole grid in one call, user
    callables of one time are called once per time, and a single time is a
    one-point grid.
    """

    def __init__(self, m, sample, derivative, kind="custom"):
        self.m = int(m)
        self.kind = kind
        self._batch = (_rows(sample, self.m), _rows(derivative, self.m))

    @classmethod
    def _batched(cls, m, sample, derivative, kind):
        """Signal whose ``sample`` and ``derivative`` map a (T,) time array to (T, m) rows."""
        sig = cls(m, None, None, kind)
        sig._batch = (sample, derivative)
        return sig

    def sample(self, t):
        return self._batch[0](np.array([t], dtype=float))[0]

    def on_grid(self, t):
        """Samples at the times ``t`` as the rows of a (len(t), m) array."""
        return self._batch[0](np.asarray(t, dtype=float))

    def derivative(self, t):
        return self._batch[1](np.array([t], dtype=float))[0]

    @classmethod
    def zero(cls, m):
        def z(t):
            return np.zeros((t.size, m))

        return cls._batched(m, z, z, kind="zero")

    @classmethod
    def preset_cavity(cls, m):
        """``u(t) = 2 t^2 exp(-t/2) sin(2 pi t / 5)`` on every channel."""
        w = 2.0 * np.pi / 5.0

        def u(t):
            v = 2.0 * t * t * np.exp(-t / 2.0) * np.sin(w * t)
            return np.repeat(v[:, None], m, axis=1)

        def du(t):
            e = np.exp(-t / 2.0)
            dv = ((4.0 * t - t * t) * np.sin(w * t)
                  + 2.0 * t * t * w * np.cos(w * t)) * e
            return np.repeat(dv[:, None], m, axis=1)

        return cls._batched(m, u, du, kind="preset-cavity")

    @classmethod
    def from_table(cls, t, U):
        """Tabulated input: rows of ``U`` are samples at the times ``t``."""
        t = np.asarray(t, dtype=float)
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if U.shape[0] != t.size:
            U = U.T
        if U.shape[0] != t.size:
            raise ValueError("table rows must match the time samples")
        for name, X in (("times", t), ("samples", U)):
            if not np.isfinite(X).all():
                raise ValueError(f"table {name} must be finite")
        if t.size < 2:
            raise ValueError(
                f"input table needs at least two samples, got {t.size}")
        if np.any(np.diff(t) <= 0):
            raise ValueError("table times must be strictly increasing")
        dU = np.gradient(U, t, axis=0)
        m = U.shape[1]

        def u(tq):
            return np.column_stack([np.interp(tq, t, U[:, c]) for c in range(m)])

        def du(tq):
            return np.column_stack([np.interp(tq, t, dU[:, c]) for c in range(m)])

        return cls._batched(m, u, du, kind="csv-table")

    def augmented_for_homogenized(self, derivative=None):
        """Signal ``(u, u kron u, u')`` for a homogenized descriptor system.

        ``derivative`` may override the derivative channel, e.g. with a step
        difference quotient so that a discrete integrator of the homogenized
        system reproduces the original one step-for-step; it is called once
        per time.
        """
        m = self.m
        deriv = self._batch[1] if derivative is None else _rows(derivative, m)

        def u(t):
            base = self.on_grid(t)
            return np.hstack([base, (base[:, :, None] * base[:, None, :]).reshape(t.size, m * m),
                              deriv(t)])

        def du(t, h=1e-6):
            return (u(t + h) - u(t - h)) / (2.0 * h)

        return InputSignal._batched(2 * m + m * m, u, du, kind=f"augmented:{self.kind}")


def _rows(f, m):
    """Grid function calling ``f`` once per time, with its ``m`` values as (T, m) rows."""
    return lambda t: np.array([np.broadcast_to(np.asarray(f(tk), dtype=float), (m,))
                               for tk in t]).reshape(t.size, m)


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid trajectory with inputs, states and outputs per step.

    ``newton_iters[k]`` counts the Newton linear solves, and
    ``newton_residuals[k]`` is the final residual norm, of the step that
    reached ``t[k]``; entry 0 is zero.  Neither is written to the CSV;
    ``qbmor simulate`` writes both to a JSON file beside it.
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
        row = ",".join(["%.17g"] * body.shape[1]) + "\n"
        with atomic_open(path) as fh:
            fh.write(",".join(cols) + "\n" + (row * len(body)) % tuple(body.ravel().tolist()))

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
    if not (0 < t_final < np.inf and 0 < dt < np.inf):
        raise ValueError(f"need t_final > 0 and dt > 0, both finite, got {t_final}, {dt}")
    # at least one step (t_final / dt up to 0.5 rounds to 0) and finitely many
    if not 0.5 < t_final / dt < np.inf:
        raise ValueError(f"need 1 <= round(t_final / dt) < inf, got {t_final / dt:.3g}")
    steps = int(round(t_final / dt))
    try:
        return dt * np.arange(steps + 1), steps
    except (ValueError, MemoryError):
        # numpy refuses a size past its limit or fails to allocate it
        raise ValueError(f"cannot allocate a time grid of {steps} steps "
                         f"(t_final {t_final:g}, dt {dt:g})") from None


class _NewtonStep:
    """Preassembled implicit-Euler Newton step shared by both integrators.

    The unknown ``z = (x, p)`` stacks the state and, for descriptor systems,
    the multiplier.  The step under input ``u`` solves

        K(u) z - dt [H (x kron x); 0] = [E x_old + dt B u; -B2 u],
        K(u) = [[E - dt A - dt sum_k u_k N_k, -dt A12], [A21, 0]],

    by exact Newton.  An ODE has no multiplier block, and all-zero ``N_k``
    are dropped.  Step ``k`` starts from ``Z[0]`` at ``k = 1``, from
    ``2 Z[1] - Z[0]`` at ``k = 2`` and from the quadratic extrapolation
    ``3 (Z[k-1] - Z[k-2]) + Z[k-3]`` after that, whose error is O(dt^3) on a
    smooth trajectory, so one solve meets the tolerance; the right-hand
    side and the tolerance ``NEWTON_TOL * max(1, |x_old|)`` come from the
    previous state ``x_old``.

    What is fixed is bound once.  Per simulation: ``K`` with ``E - dt A``
    and the constraint blocks, written once; the input part of every step's
    right-hand side, ``[dt B; -B2] u``, in one product over the grid, staged
    in the rows of the state array; and the union pattern ``p`` of the
    nonzero ``N_k``, with ``S = K[p]`` and each ``N_k[p]``.  Per step:
    ``E x_old`` added to the staged row and ``K[p] = S - dt u_1 N_1[p] - ...``
    in input order; no other entry of ``K`` changes.  Per iteration:
    ``y = -dt x`` once, a residual from scratch with ``apply_hessian(H, y,
    x) = -dt H (x kron x)``, and ``quadratic_jacobian(H, y, out=J, at=at)``,
    which adds ``-dt J_H(x)`` to a copy ``J`` of ``K`` only at ``at``, the
    Jacobian's cells placed in ``K``'s storage once like ``p``, before ``J``
    is factored.  Both kernels are linear in ``y``, and no array of ``K``'s
    size is formed after the set-up.

    The storage is chosen once, from the union pattern of ``E``, ``A``, the
    ``N_k``, the Hessian's Jacobian and the constraint blocks, by the rule
    and tridiagonal layout that :mod:`qbmor.dense_solvers` also applies to
    the shift factorizations.  A tridiagonal pattern keeps ``K`` in that
    storage: residuals are band products (``gbmv``) and each iteration
    solves with ``gtsv``.  Any other pattern keeps dense storage and ``gesv``.
    """

    def __init__(self, E, A, H, N, B, dt, A12=None, A21=None, B2=None):
        n = A.shape[0]
        n_c = 0 if A12 is None else A12.shape[1]
        size = n + n_c
        self.n, self.dt, self.H = n, dt, H
        self._B = dt * B if B2 is None else np.vstack([dt * B, -B2])
        N = _bilinear_terms(N)
        self._q = [q for q, _ in N]
        K = np.zeros((size, size), order="F")
        K[:n, :n] = E - dt * A
        if n_c:
            K[:n, n:] = -dt * A12
            K[n:, :n] = A21
        hj, hi = np.divmod(H._jacobian_pattern()[0], n)
        tri = _is_tridiagonal(size, [*map(_offsets, (E, K, *(Nq for _, Nq in N))), hi - hj])
        i, j = np.nonzero(np.reshape([Nq for _, Nq in N], (-1, n, n)).any(axis=0))
        self._N = np.array([Nq[i, j] for _, Nq in N])
        if tri:
            self._E, self._K = _tri_store(E, n), _tri_store(K, size)
            self._J = np.empty_like(self._K)
            (i, j), (hi, hj) = _tri_index(i, j), _tri_index(hi, hj)
            self._mv = lambda M, x: dgbmv(M.shape[1], M.shape[1], 1, 1, 1.0, M, x)
            # gtsv reads views of J's diagonals, taken once (J is the one matrix it solves),
            # and returns (du2, d, du, x, info): without du2 it unpacks as gesv's
            diagonals = _tridiagonals(self._J)
            self._solve = lambda J, b: dgtsv(*diagonals, b, overwrite_b=True)[1:]
        else:
            self._E, self._K, self._J = E, K, np.empty_like(K)
            self._mv = np.ndarray.dot  # the gemv of matmul, with less call overhead
            self._solve = partial(dgesv, overwrite_a=True, overwrite_b=True)
        # the N_k's union pattern and the Jacobian cells as flat positions in K's storage
        ld = self._K.shape[0]
        self._p, self._at = j * ld + i, hj * ld + hi
        self._S = self._K.ravel("F")[self._p]

    def run(self, z0, U, t):
        """States at every grid time with per-step Newton counts and residuals.

        ``U`` holds the input at every grid time as rows.
        """
        n, dt, H, at = self.n, self.dt, self.H, self._at
        E, K, J, p, S, Ns = self._E, self._K, self._J, self._p, self._S, self._N
        Kf = K.ravel("F")  # a view, K being Fortran-ordered
        mv, solve = self._mv, self._solve
        hess, jac = apply_hessian, quadratic_jacobian
        Z = np.empty((t.size, z0.size))
        iters = np.zeros(t.size, dtype=int)
        resid = np.zeros(t.size)
        Z[0] = z0
        # row k holds the input part of step k's right-hand side until step k ends
        np.matmul(U[1:], self._B.T, out=Z[1:])
        W = dt * U[:, self._q]
        for k in range(1, t.size):
            if k == 1:
                z = Z[0].copy()
            elif k == 2:
                z = 2.0 * Z[1] - Z[0]
            else:
                z = 3.0 * (Z[k - 1] - Z[k - 2]) + Z[k - 3]
            if Ns.size:
                Kp = S.copy()
                for w, Nq in zip(W[k], Ns):
                    Kp -= w * Nq
                Kf[p] = Kp
            x_old, c = Z[k - 1, :n], Z[k]
            c[:n] += mv(E, x_old)
            tol = NEWTON_TOL * max(1.0, math.sqrt(x_old @ x_old))
            for it in range(NEWTON_MAX + 1):
                x = z[:n]
                y = -dt * x  # the kernels are linear in it: no scaling of their results
                res = mv(K, z)
                res -= c
                res[:n] += hess(H, y, x)
                norm = math.sqrt(res @ res)
                if norm <= tol:
                    break
                if it == NEWTON_MAX:
                    raise RuntimeError(
                        f"Newton failed to converge at step {k} "
                        f"(t={t[k]:.6g}, residual={norm:.3e})"
                    )
                np.copyto(J, K)
                jac(H, y, out=J, at=at)
                _, _, dz, info = solve(J, res)
                if info:
                    raise SolverError(
                        f"singular Newton matrix at step {k} (t={t[k]:.6g}): "
                        f"zero pivot {info} in the LU factorization"
                    )
                z -= dz
            Z[k], iters[k], resid[k] = z, it, norm
        return Z, iters, resid


def simulate_ode(sys, u, t_final, dt):
    """Implicit-Euler integration from ``x(0) = 0``.

    Each step solves ``E (x_new - x_old) = dt * f(x_new, t_new)`` by Newton
    with the analytic Jacobian; outputs include the nonlinear corrections
    when the system carries them.  Full and reduced realizations take the
    same path.
    """
    _expect(sys, (QbOdeSystem, ReducedQbSystem), "simulate_ode", "a QbDaeSystem: simulate_dae")
    red = sys if isinstance(sys, ReducedQbSystem) else None
    if red is not None:
        sys = _reduced_ode(red)
    if u.m != sys.m:
        raise ValueError(f"input has {u.m} channels, system expects {sys.m}")
    t, _ = _grid(t_final, dt)
    U = u.on_grid(t)
    X, iters, resid = _NewtonStep(sys.E, sys.A, sys.H, sys.N, sys.B, dt).run(
        np.zeros(sys.n), U, t)
    Y = X @ sys.C.T
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
    _expect(sys, (QbDaeSystem,), "simulate_dae", "an ODE or a reduced model: simulate_ode")
    if u.m != sys.m:
        raise ValueError(f"input has {u.m} channels, system expects {sys.m}")
    n_v = sys.n_v
    v = (sys.v0 if v0 is None else _coerce("v0", v0, ("n_v", 1), {"n_v": n_v})).copy()
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
