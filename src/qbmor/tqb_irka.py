"""Truncated-H2 iterative rational Krylov drivers for QB systems.

One iteration brings the reduced data into interpolation form with the
diagonalization of the current reduced pencil, solves two families of
shifted linear systems per side (a linear family and a quadratic/bilinear
correction family), sums and orthonormalizes the results, and projects the
full-order matrices.  Every distinct shift of a sweep is factored once, and that one
factorization serves all four families: plain solves for ``V`` and
transposed solves for ``W``.  The three entry points share this core and
differ only in the shift factorization they pass:

* :func:`tqb_irka_ode` factors ``-sigma E - A``,
* :func:`tqb_irka_dae_explicit` factors the projected pencil in explicit
  projector coordinates and lifts each solve back (small-scale oracle path),
* :func:`tqb_irka_dae_saddle` factors one saddle matrix in the original
  sparse blocks, whose transpose is the adjoint saddle matrix (production
  path).

Each reduced pencil is diagonalized once, by :func:`pencil_eig`: its sorted
spectrum is both the convergence spectrum of the sweep that produced it and
the source of the next sweep's shifts.  Convergence is declared when that
spectrum changes by less than ``tol`` (relative, 2-norm) between sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dae_transform import build_projectors, output_realization
from .dense_solvers import (
    SolverError,
    _solve_family,
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

    The iteration starts from ``initial_model``, a :class:`ReducedQbSystem`
    of order ``r``, when it is set, and otherwise from a linear model drawn
    from ``seed`` (stable diagonal ``Ahat``, zero quadratic and bilinear
    parts).  ``record_bases`` stores the per-iteration projection bases in
    the trace.
    """

    r: int
    tol: float = 1e-5
    max_iters: int = 50
    seed: int = 0
    initial_model: object = None
    record_bases: bool = False

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"reduced order must be >= 1, got {self.r}")
        if not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class IrkaTrace:
    """Per-sweep convergence record, with the count of nudged shifts."""

    converged: bool = False
    iterations: int = 0
    eigenvalues: list = field(default_factory=list)
    relative_changes: list = field(default_factory=list)
    max_residuals: list = field(default_factory=list)
    nudged_shifts: list = field(default_factory=list)
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
            "nudged_shifts": [int(k) for k in self.nudged_shifts],
        }


def _initial_model(cfg, m, p):
    g = cfg.initial_model
    if g is not None:
        if (g.m, g.p, g.r) != (m, p, cfg.r):
            raise ValueError(
                f"initial model has (inputs, outputs, order) = ({g.m}, {g.p}, "
                f"{g.r}), expected ({m}, {p}, {cfg.r})"
            )
        return g.Ehat, g.Ahat, g.Hhat, g.Nhat, g.Bhat, g.Chat
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


def _shift_solver(factor, lam, n, nudged):
    """Solves at ``lam[idx]`` through one factorization per shift.

    A shift whose factorization or any solve raises :class:`SolverError` is
    refactored once at a deterministic nudge, keeps that factor for the
    rest of the sweep, and has its index added to the set ``nudged``.
    """
    factors = {}

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


def _run_iteration(state, factor, data, fact, nudged):
    """One sweep: interpolation data, four solve families, projection."""
    Eh, Ah, Hh, Nh, Bh, Ch = state
    E, A, H, N, B, C = data
    r = Ah.shape[0]
    X, Y, lam = fact.X, fact.Y, fact.eigenvalues
    Bt = X @ Bh                              # r x m
    Ct = Ch @ Y                              # p x r
    Nt = [X @ Nk @ Y for Nk in Nh]
    Ht = X @ apply_unfolded(Hh, Y, Y)        # r x r^2, complex
    Ht2 = np.transpose(Ht.reshape(r, r, r), (1, 2, 0)).reshape(r, r * r)  # mode 2
    solve = _shift_solver(factor, lam, B.shape[0], nudged)
    lam_split = conjugate_pairs(lam)

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
    whose first ``n`` rows are the state block.  Each reduced model, the
    initial one included, is diagonalized once; its spectrum ends one sweep's
    convergence test and gives the next sweep's shifts.
    """
    B, C = data[4], data[5]
    n, m = B.shape
    p = C.shape[0]
    if cfg.r > n:
        raise ValueError(f"reduced order {cfg.r} exceeds state dimension {n}")
    state = _initial_model(cfg, m, p)
    fact = pencil_eig(state[0], state[1])
    trace = IrkaTrace()
    for it in range(1, cfg.max_iters + 1):
        lam_prev, nudged = fact.eigenvalues, set()
        try:
            with record_residuals() as rlog:
                state, V, W = _run_iteration(state, factor, data, fact, nudged)
                fact = pencil_eig(state[0], state[1])
        except SolverError as exc:
            raise SolverError(f"iteration {it}: {exc}") from exc
        lam_new = fact.eigenvalues
        change = float(np.linalg.norm(lam_new - lam_prev)
                       / max(np.linalg.norm(lam_prev), np.finfo(float).tiny))
        trace.iterations = it
        trace.eigenvalues.append(lam_new.copy())
        trace.relative_changes.append(change)
        trace.max_residuals.append(max((v for _, v in rlog), default=0.0))
        trace.nudged_shifts.append(len(nudged))
        if cfg.record_bases:
            trace.bases.append((V.copy(), W.copy()))
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
    return ReducedQbSystem(*state, V=V, W=W), trace


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
    return ReducedQbSystem(*state, V, W, *project_dae_outputs(corr, V)), trace


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
    return ReducedQbSystem(*state, V, W, *project_dae_outputs(corr, V)), trace
