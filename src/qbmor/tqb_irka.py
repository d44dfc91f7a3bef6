"""Truncated-H2 iterative rational Krylov drivers for QB systems.

One iteration diagonalizes the current reduced pencil, transforms the
reduced data into interpolation form, solves two families of shifted linear
systems per side (a linear family and a quadratic/bilinear correction
family), sums and orthonormalizes the results, and projects the full-order
matrices.  Every distinct shift of a sweep is factored once, and that one
factorization serves all four families: plain solves for ``V`` and
transposed solves for ``W``.  The three entry points share this core and
differ only in the shift factorization they pass:

* :func:`tqb_irka_ode` factors ``-sigma E - A``,
* :func:`tqb_irka_dae_explicit` factors the projected pencil in explicit
  projector coordinates and lifts each solve back (small-scale oracle path),
* :func:`tqb_irka_dae_saddle` factors one saddle matrix in the original
  sparse blocks, whose transpose is the adjoint saddle matrix (production
  path).

Convergence is declared when the sorted reduced-pencil eigenvalues change by
less than ``tol`` (relative, 2-norm) between sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .dae_transform import build_projectors, output_realization
from .dense_solvers import (
    SolverError,
    conjugate_pairs,
    pencil_eig,
    realify_paired_columns,
    record_residuals,
    solve_saddle,
    solve_saddle_adjoint,  # noqa: F401  (bench/tracer.py wraps it by this name)
    solve_shifted,
)
from .system_model import ReducedQbSystem, project_dae_outputs, project_realization
from .tensor_kron import apply_unfolded, hessian_congruence

__all__ = [
    "IrkaConfig",
    "IrkaTrace",
    "tqb_irka_ode",
    "tqb_irka_dae_explicit",
    "tqb_irka_dae_saddle",
]


@dataclass(frozen=True)
class IrkaConfig:
    """Iteration parameters.

    ``init_mode`` is ``"random-linear"`` (seeded stable diagonal linear
    start, zero quadratic part) or ``"user"`` with ``initial_model`` set to a
    :class:`ReducedQbSystem` supplying the starting realization.
    ``record_bases`` stores the per-iteration projection bases in the trace.
    """

    r: int
    tol: float = 1e-5
    max_iters: int = 50
    seed: int = 0
    init_mode: str = "random-linear"
    initial_model: object = None
    record_bases: bool = False

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"reduced order must be >= 1, got {self.r}")
        if self.tol <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.init_mode not in ("random-linear", "user"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.init_mode == "user" and self.initial_model is None:
            raise ValueError("init_mode='user' needs initial_model")


@dataclass
class IrkaTrace:
    """Per-iteration convergence record."""

    converged: bool = False
    iterations: int = 0
    eigenvalues: list = field(default_factory=list)
    relative_changes: list = field(default_factory=list)
    max_residuals: list = field(default_factory=list)
    bases: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "eigenvalues": [
                [[float(z.real), float(z.imag)] for z in lam]
                for lam in self.eigenvalues
            ],
            "relative_changes": [float(x) for x in self.relative_changes],
            "max_residuals": [float(x) for x in self.max_residuals],
        }


def _sorted_eigvals(Ahat, Ehat):
    """Spectrum sorted by (real, imag) with conjugate pairs made exact.

    Pair members as computed can differ in their real parts by roundoff,
    which would make the sort order (and hence the eigenvalue-change metric)
    noise-driven; snapping each pair to exact conjugates first keeps the
    ordering deterministic.
    """
    w = la.eigvals(Ahat, Ehat)
    split = conjugate_pairs(w)
    if split is not None:
        w = w.copy()
        for neg, pos in split[1]:
            mid = 0.5 * (w[neg] + w[pos].conjugate())
            w[neg] = complex(mid.real, -abs(mid.imag))
            w[pos] = w[neg].conjugate()
        for idx in split[0]:
            w[idx] = complex(w[idx].real, 0.0)
    return w[np.lexsort((w.imag, w.real))]


def _initial_model(cfg, m, p):
    if cfg.init_mode == "user":
        g = cfg.initial_model
        if g.m != m or g.p != p:
            raise ValueError(
                f"initial model has ({g.m}, {g.p}) inputs/outputs, "
                f"expected ({m}, {p})"
            )
        return (g.Ehat.copy(), g.Ahat.copy(), g.Hhat.copy(),
                tuple(Nk.copy() for Nk in g.Nhat), g.Bhat.copy(), g.Chat.copy())
    r = cfg.r
    rng = np.random.default_rng(cfg.seed)
    Eh = np.eye(r)
    if r == 1:
        Ah = np.array([[-1.0]])
    else:
        Ah = np.diag(-np.logspace(2.0, -1.0, r))
    Hh = np.zeros((r, r * r))
    Nh = tuple(np.zeros((r, r)) for _ in range(m))
    Bh = rng.standard_normal((r, m))
    Ch = rng.standard_normal((p, r))
    return Eh, Ah, Hh, Nh, Bh, Ch


def _dense_mode2(Hm, r):
    T = Hm.reshape(r, r, r)
    return np.transpose(T, (1, 2, 0)).reshape(r, r * r)


def _shift_solver(factor, lam, n):
    """Solves at ``lam[idx]`` through one factorization per shift.

    A shift whose factorization or any solve raises :class:`SolverError` is
    refactored once at a deterministic nudge and keeps that factor for the
    rest of the sweep.
    """
    factors, nudged = {}, set()

    def solve(idx, rhs, trans):
        try:
            if idx not in factors:
                factors[idx] = factor(lam[idx])
            return factors[idx].solve(rhs, trans)[:n]
        except SolverError:
            if idx in nudged:
                raise
            nudged.add(idx)
            sigma = lam[idx]
            factors[idx] = factor(sigma + 1e-8 * (1.0 + abs(sigma)))
            return factors[idx].solve(rhs, trans)[:n]

    return solve


def _solve_family(solve, RHS, pairs_split, trans=False):
    """One column per shift, mirroring exact conjugate shift pairs."""
    V = np.zeros(RHS.shape, dtype=complex)
    real_idx, pairs = pairs_split
    for idx in real_idx:
        V[:, idx] = solve(idx, RHS[:, idx], trans)
    for neg, pos in pairs:
        V[:, neg] = solve(neg, RHS[:, neg], trans)
        V[:, pos] = V[:, neg].conjugate()
    return V


def _run_iteration(state, factor, data, lam_split, fact):
    """One sweep: interpolation data, four solve families, projection."""
    Eh, Ah, Hh, Nh, Bh, Ch = state
    E, A, H, N, B, C = data
    r = Ah.shape[0]
    X, Y, lam = fact.X, fact.Y, fact.eigenvalues
    Bt = X @ Bh                              # r x m
    Ct = Ch @ Y                              # p x r
    Nt = [X @ Nk @ Y for Nk in Nh]
    Ht = X @ apply_unfolded(Hh, Y, Y)        # r x r^2, complex
    Ht2 = _dense_mode2(Ht, r)
    solve = _shift_solver(factor, lam, B.shape[0])

    V1 = _solve_family(solve, (B @ Bt.T).astype(complex), lam_split)
    rhs_v2 = hessian_congruence(H, 1, V1, V1) @ Ht.T
    for Nk, Ntk in zip(N, Nt):
        rhs_v2 = rhs_v2 + Nk @ V1 @ Ntk.T
    V2 = _solve_family(solve, rhs_v2, lam_split)

    W1 = _solve_family(solve, (C.T @ Ct).astype(complex), lam_split, trans=True)
    rhs_w2 = 2.0 * hessian_congruence(H, 2, V1, W1) @ Ht2.T
    for Nk, Ntk in zip(N, Nt):
        rhs_w2 = rhs_w2 + Nk.T @ W1 @ Ntk
    W2 = _solve_family(solve, rhs_w2, lam_split, trans=True)

    V = realify_paired_columns(lam, V1 + V2)
    W = realify_paired_columns(lam, W1 + W2)
    V, _ = np.linalg.qr(V)
    W, _ = np.linalg.qr(W)
    return project_realization(*data, V, W), V, W


def _drive(factor, data, cfg):
    """Iterate with shift factorizations ``factor(sigma)`` and projection data.

    ``data`` is the realization ``(E, A, H, N, B, C)`` that every sweep
    projects; ``factor(sigma).solve(rhs, trans)`` must return a solution
    whose first ``n`` rows are the state block.
    """
    B, C = data[4], data[5]
    n, m = B.shape
    p = C.shape[0]
    if cfg.r > n:
        raise ValueError(f"reduced order {cfg.r} exceeds state dimension {n}")
    state = _initial_model(cfg, m, p)
    lam_prev = _sorted_eigvals(state[1], state[0])
    trace = IrkaTrace()
    V = W = None
    for it in range(1, cfg.max_iters + 1):
        try:
            with record_residuals() as rlog:
                fact = pencil_eig(state[0], state[1])
                split = conjugate_pairs(fact.eigenvalues)
                if split is None:
                    raise SolverError("reduced spectrum not conjugate-closed")
                state, V, W = _run_iteration(state, factor, data, split, fact)
        except SolverError as exc:
            raise SolverError(f"iteration {it}: {exc}") from exc
        lam_new = _sorted_eigvals(state[1], state[0])
        change = float(np.linalg.norm(lam_new - lam_prev)
                       / max(np.linalg.norm(lam_prev), np.finfo(float).tiny))
        trace.iterations = it
        trace.eigenvalues.append(lam_new.copy())
        trace.relative_changes.append(change)
        trace.max_residuals.append(max((v for _, v in rlog), default=0.0))
        if cfg.record_bases:
            trace.bases.append((V.copy(), W.copy()))
        lam_prev = lam_new
        if change < cfg.tol:
            trace.converged = True
            break
    return state, trace, V, W


def tqb_irka_ode(sys, cfg):
    """Iterative truncated-H2 reduction of an unconstrained QB system.

    Returns ``(reduced, trace)``; non-convergence within ``max_iters`` is
    reported through ``trace.converged``, not raised.
    """
    E, A = sys.E, sys.A
    state, trace, V, W = _drive(lambda s: solve_shifted(E, A, s, None),
                                (E, A, sys.H, sys.N, sys.B, sys.C), cfg)
    Eh, Ah, Hh, Nh, Bh, Ch = state
    red = ReducedQbSystem(Ehat=Eh, Ahat=Ah, Hhat=Hh, Nhat=Nh, Bhat=Bh,
                          Chat=Ch, V=V, W=W)
    return red, trace


def _finish_dae(state, trace, V, W, corr):
    Eh, Ah, Hh, Nh, Bh, Ch = state
    CHhat, CNhat, Dhat = project_dae_outputs(corr, V)
    red = ReducedQbSystem(Ehat=Eh, Ahat=Ah, Hhat=Hh, Nhat=Nh, Bhat=Bh,
                          Chat=Ch, V=V, W=W,
                          CHhat=CHhat, CNhat=CNhat, Dhat=Dhat)
    return red, trace


class _Lifted:
    """Factorization in explicit projector coordinates, lifted to ``n_v``."""

    def __init__(self, fact, theta_r, phi_l):
        self.fact, self.theta_r, self.phi_l = fact, theta_r, phi_l

    def solve(self, rhs, trans=False):
        if trans:
            return self.phi_l @ self.fact.solve(self.theta_r.T @ rhs, True)
        return self.theta_r @ self.fact.solve(self.phi_l.T @ rhs)


def tqb_irka_dae_explicit(sys, cfg, output_corr=None):
    """Oracle reduction path using explicit projector factorizations.

    Algebraically identical to :func:`tqb_irka_dae_saddle`; the projected
    shifted solves run in the (n_v - n_p)-dimensional coordinates and are
    lifted back, while the final projection applies the original matrices.
    Requires ``B2 = 0`` and desk-scale ``n_v``.
    """
    if sys.B2.any():
        raise ValueError("reduction requires B2 = 0; homogenize first")
    proj = build_projectors(sys)
    corr = output_corr if output_corr is not None else output_realization(sys)
    Ebar = proj.phi_l.T @ sys.E11 @ proj.theta_r
    Abar = proj.phi_l.T @ sys.A11 @ proj.theta_r

    def factor(s):
        return _Lifted(solve_shifted(Ebar, Abar, s, None), proj.theta_r, proj.phi_l)

    state, trace, V, W = _drive(
        factor, (sys.E11, sys.A11, sys.H, sys.N, sys.B1, corr.C), cfg)
    return _finish_dae(state, trace, V, W, corr)


def tqb_irka_dae_saddle(sys, cfg, output_corr=None):
    """Projector-free reduction: every projected solve is one saddle system.

    The saddle solves keep every ``V`` column in the kernel of ``A21`` and
    every ``W`` column in the kernel of ``A12^T`` without ever forming the
    projectors.  Requires ``B2 = 0`` (homogenize first).
    """
    if sys.B2.any():
        raise ValueError("reduction requires B2 = 0; homogenize first")
    corr = output_corr if output_corr is not None else output_realization(sys)
    E11, A11, A12, A21 = sys.E11, sys.A11, sys.A12, sys.A21
    state, trace, V, W = _drive(
        lambda s: solve_saddle(E11, A11, A12, A21, s, None),
        (E11, A11, sys.H, sys.N, sys.B1, corr.C), cfg)
    return _finish_dae(state, trace, V, W, corr)
