"""Truncated-H2 iterative rational Krylov drivers for QB systems.

One iteration brings the reduced data into interpolation form with the
diagonalization of the current reduced pencil, solves two families of
shifted linear systems per side (a linear family and a quadratic/bilinear
correction family), sums and orthonormalizes the results, and projects the
full-order matrices.  Every distinct shift of a sweep is factored once, and that one
factorization serves all four families: plain solves for ``V`` and
transposed solves for ``W``.  Each entry point measures its system's
pattern once, and that alone picks band or dense storage for all its
shifts.  The three entry points share this core and differ only in the
shift factorization they pass:

* :func:`tqb_irka_ode` factors ``-sigma E - A``,
* :func:`tqb_irka_dae_explicit` factors the projected pencil in explicit
  projector coordinates and lifts each solve back (small-scale oracle path),
* :func:`tqb_irka_dae_saddle` factors one saddle matrix in the original
  sparse blocks, whose transpose is the adjoint saddle matrix (production
  path).

Each reduced pencil is diagonalized once, by :func:`pencil_eig`: its sorted
spectrum ends the convergence test of the sweep that produced it (a change
below ``tol``, relative, 2-norm, against the shifts that sweep used), and
its eigenbasis, gauged to unit input directions, gives the next sweep's
shifts and tangential data.  The fixed point contracts linearly in its tail,
so below a change of 1e-2 a sweep starts from an Anderson mix of the last
sweeps' data (:func:`_drive`); every returned model is still a projection.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .dae_transform import build_projectors, output_realization
from .dense_solvers import (
    SolverError,
    _realify,
    _ShiftPencil,
    pencil_eig,
    record_residuals,
    solve_saddle,
    solve_saddle_adjoint,  # noqa: F401  (bench/tracer.py wraps it by this name)
    solve_shifted,
)
from .system_model import (ReducedQbSystem, _bilinear_terms, project_dae_outputs,
                           project_realization)
from .tensor_kron import (apply_unfolded,  # noqa: F401  (bench/tracer.py wraps it by this name)
                          hessian_congruence)

__all__ = [
    "IrkaConfig",
    "IrkaTrace",
    "tqb_irka_ode",
    "tqb_irka_dae_explicit",
    "tqb_irka_dae_saddle",
]

# Anderson acceleration: the differences kept, and the spectrum change
# below which a sweep starts from mixed data
_ANDERSON_MEMORY = 3
_ANDERSON_START = 1e-2
# a |(X Bhat)[i, 0]| at most this times |X[i]| |Bhat[:, 0]| admits no gauge
_GAUGE_FLOOR = 1e-8


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
    """Per sweep: the new spectrum, its change against the shifts used, the
    largest solver residual, the nudged shifts, whether the shifts were
    Anderson-mixed (``accelerated``), the contraction ``change_k /
    change_{k-1}`` and the two-step distance ``|lam_k - lam_{k-2}| / |lam_k|``
    (``None`` on the first sweep), the new pencil's ``kappa``, and what made
    its data restart the Anderson history (``restarts``, :func:`_drive`)."""

    converged: bool = False
    iterations: int = 0
    eigenvalues: list = field(default_factory=list)
    relative_changes: list = field(default_factory=list)
    max_residuals: list = field(default_factory=list)
    nudged_shifts: list = field(default_factory=list)
    accelerated: list = field(default_factory=list)
    contraction: list = field(default_factory=list)
    two_step_distances: list = field(default_factory=list)
    kappa: list = field(default_factory=list)
    restarts: list = field(default_factory=list)
    bases: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "eigenvalues": [[[float(z.real), float(z.imag)] for z in lam]
                            for lam in self.eigenvalues],
            "relative_changes": [float(x) for x in self.relative_changes],
            "max_residuals": [float(x) for x in self.max_residuals],
            "nudged_shifts": [int(k) for k in self.nudged_shifts],
            # recorded as Python bools, floats and None
            "accelerated": list(self.accelerated),
            "contraction": list(self.contraction),
            "two_step_distances": list(self.two_step_distances),
            "kappa": list(self.kappa),
            "restarts": list(self.restarts),
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


def _solve_family(solve, RHS, split, trans=False):
    """One column per shift via ``solve(idx, rhs, trans)``, mirroring pairs.

    ``split`` is ``(real_indices, pairs)``, a factorization's ``split``; of
    each pair only the negative-imaginary column is solved and its partner
    is the conjugate, exact for conjugate-paired right-hand-side columns.
    """
    V = np.zeros(RHS.shape, dtype=complex)
    real_idx, pairs = split
    for idx in real_idx:
        V[:, idx] = solve(idx, RHS[:, idx], trans)
    for neg, pos in pairs:
        V[:, neg] = solve(neg, RHS[:, neg], trans)
        V[:, pos] = V[:, neg].conjugate()
    return V


# what a sweep reads of a model: ``z``, the shifts and tangential data
# (lam, Bt, Ct, Ht, Nt) of order ``r`` raveled into one complex vector, the
# pencil's ``split``, and whether the gauge ``Bt[:, 0] = 1`` holds
_Interpolation = namedtuple("_Interpolation", "z r split gauged")


def _interpolation_data(state, fact):
    """The :class:`_Interpolation` of the model ``state``, diagonalized by ``fact``,
    with eigenvector ``i`` scaled so that ``(X Bhat)[i, 0] = 1``, a gauge that
    makes the data continuous in the model; ungauged where some
    ``|(X Bhat)[i, 0]|`` is negligible against ``|X[i]| |Bhat[:, 0]|``."""
    Eh, Ah, Hh, Nh, Bh, Ch = state
    X, Y, r = fact.X, fact.Y, Ah.shape[0]
    d = X @ Bh[:, 0]
    gauged = bool(np.all(np.abs(d) > _GAUGE_FLOOR * np.linalg.norm(X, axis=1)
                         * np.linalg.norm(Bh[:, 0])))
    if gauged:
        X, Y = X / d[:, None], Y * d
    # X Hh (Y kron Y) as two batched r^4 products, row i of X Hh folded to r x r
    blocks = [fact.eigenvalues, X @ Bh, Ch @ Y, Y.T @ (X @ Hh).reshape(r, r, r) @ Y]
    z = np.concatenate([np.ravel(M) for M in blocks + [X @ Nk @ Y for Nk in Nh]])
    return _Interpolation(z, r, fact.split, gauged)


def _anderson(history):
    """Type-II Anderson step from ``history``, pairs ``(x, g)`` of data vectors,
    ``g`` the data after a sweep from ``x``, oldest first: real coefficients,
    fitted to the residuals ``g - x`` by least squares on their stacked real
    and imaginary parts, combine the ``g`` entry by entry (pairs stay exact)."""
    X, G = (np.array([np.concatenate([z.real, z.imag]) for z in col]) for col in zip(*history))
    F = G - X
    gamma = np.linalg.lstsq(np.diff(F, axis=0).T, F[-1], rcond=None)[0]
    out = G[-1].copy()
    for c, dg in zip(gamma, np.diff(G, axis=0)):
        out -= c * dg
    return out[:out.size // 2] + 1j * out[out.size // 2:]


def _run_iteration(factor, data, x, nudged):
    """One sweep from the :class:`_Interpolation` ``x``: four solve families, projection.

    Gauge-covariant: scaling eigenvector ``i`` of ``x`` scales column ``i``
    of each family, so the spans of ``V`` and ``W`` do not change.
    """
    E, A, H, N, B, C = data
    m, p, r, split = B.shape[1], C.shape[0], x.r, x.split
    lam, Bt, Ct, Ht, Nt = np.split(x.z, np.cumsum([r, r * m, p * r, r ** 3]))
    Bt, Ct, Ht, Nt = Bt.reshape(r, m), Ct.reshape(p, r), Ht.reshape(r, r * r), Nt.reshape(m, r, r)
    Ht2 = np.transpose(Ht.reshape(r, r, r), (1, 2, 0)).reshape(r, r * r)  # mode 2
    solve = _shift_solver(factor, lam, B.shape[0], nudged)
    bilinear = _bilinear_terms(N)

    V1 = _solve_family(solve, (B @ Bt.T).astype(complex), split)
    rhs_v2 = hessian_congruence(H, 1, V1, V1) @ Ht.T
    for k, Nk in bilinear:
        rhs_v2 = rhs_v2 + Nk @ V1 @ Nt[k].T
    V2 = _solve_family(solve, rhs_v2, split)

    W1 = _solve_family(solve, (C.T @ Ct).astype(complex), split, trans=True)
    rhs_w2 = 2.0 * hessian_congruence(H, 2, V1, W1) @ Ht2.T
    for k, Nk in bilinear:
        rhs_w2 = rhs_w2 + Nk.T @ W1 @ Nt[k]
    W2 = _solve_family(solve, rhs_w2, split, trans=True)

    V = _realify(split, V1 + V2)
    W = _realify(split, W1 + W2)
    V, _ = np.linalg.qr(V)
    W, _ = np.linalg.qr(W)
    return project_realization(*data, V, W), V, W


def _relative(d, ref):
    return float(np.linalg.norm(d) / max(np.linalg.norm(ref), np.finfo(float).tiny))


def _drive(factor, data, cfg):
    """Iterate with shift factorizations ``factor(sigma)`` and projection data.

    ``data`` is the realization ``(E, A, H, N, B, C)`` that every sweep
    projects; ``factor(sigma).solve(rhs, trans)`` must return a solution
    whose first ``n`` rows are the state block.  Each reduced model, the
    initial one included, is diagonalized once; its spectrum ends one
    sweep's convergence test, and its data starts the next sweep, mixed with
    the last sweeps' (:func:`_anderson`) while the change is below
    ``_ANDERSON_START``.  The trace records what restarts that history first
    (``None`` if nothing or converged): ``"change"`` at or above that, a
    ``"nudge"``, a new ``"split"``, an ungauged model (``"gauge"``), or a
    data ``"residual"`` ``|g - x|`` (``x`` the data a sweep starts from,
    ``g`` its model's) larger than the previous sweep's.
    """
    B, C = data[4], data[5]
    n, m = B.shape
    p = C.shape[0]
    if cfg.r > n:
        raise ValueError(f"reduced order {cfg.r} exceeds state dimension {n}")
    state = _initial_model(cfg, m, p)
    fact = pencil_eig(state[0], state[1])
    x, mixed, history, res = _interpolation_data(state, fact), False, [], np.inf
    spectra = [fact.eigenvalues]
    trace = IrkaTrace()
    for it in range(1, cfg.max_iters + 1):
        nudged = set()
        try:
            with record_residuals() as rlog:
                state, V, W = _run_iteration(factor, data, x, nudged)
                fact = pencil_eig(state[0], state[1])
        except SolverError as exc:
            raise SolverError(f"iteration {it}: {exc}") from exc
        lam, used = fact.eigenvalues, x.z[:x.r]
        change = _relative(lam - used, used)
        spectra.append(lam)
        trace.iterations = it
        trace.eigenvalues.append(lam.copy())
        trace.relative_changes.append(change)
        trace.max_residuals.append(max((v for _, v in rlog), default=0.0))
        trace.nudged_shifts.append(len(nudged))
        trace.accelerated.append(mixed)
        trace.contraction.append(change / trace.relative_changes[-2] if it > 1 else None)
        trace.two_step_distances.append(_relative(lam - spectra[-3], lam) if it > 1 else None)
        trace.kappa.append(fact.kappa)
        if cfg.record_bases:
            trace.bases.append((V.copy(), W.copy()))
        if change < cfg.tol:
            trace.converged = True
            trace.restarts.append(None)
            break
        g = _interpolation_data(state, fact)
        res, last = np.linalg.norm(g.z - x.z), res
        restart = next((why for why, hit in (
            ("change", change >= _ANDERSON_START), ("nudge", nudged),
            ("split", g.split != x.split), ("gauge", not (g.gauged and x.gauged)),
            ("residual", res > last)) if hit), None)
        trace.restarts.append(restart)
        history = ([] if restart else history[-_ANDERSON_MEMORY:]) + [(x.z, g.z)]
        mixed = len(history) > 1
        x = g._replace(z=_anderson(history)) if mixed else g
    return state, trace, V, W


def tqb_irka_ode(sys, cfg):
    """Iterative truncated-H2 reduction of an unconstrained QB system.

    Returns ``(reduced, trace)``; non-convergence within ``max_iters`` is
    reported through ``trace.converged``, not raised.
    """
    E, A = sys.E, sys.A
    pencil = _ShiftPencil(E, A)
    state, trace, V, W = _drive(lambda s: solve_shifted(E, A, s, None, pencil),
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


def _dae_outputs(sys, cfg, output_corr):
    """Output realization of a descriptor reduction with ``B2 = 0`` and ``r <= dim ker A21``."""
    if sys.B2.any():
        raise ValueError("reduction requires B2 = 0; homogenize first")
    if cfg.r > sys.n_v - sys.n_p:
        raise ValueError(f"reduced order {cfg.r} exceeds the constrained dimension "
                         f"n_v - n_p = {sys.n_v - sys.n_p}")
    return output_corr if output_corr is not None else output_realization(sys)


def tqb_irka_dae_explicit(sys, cfg, output_corr=None):
    """Oracle reduction path using explicit projector factorizations.

    Algebraically identical to :func:`tqb_irka_dae_saddle`; the projected
    shifted solves run in the (n_v - n_p)-dimensional coordinates and are
    lifted back, while the final projection applies the original matrices.
    Requires ``B2 = 0`` and desk-scale ``n_v``.
    """
    corr = _dae_outputs(sys, cfg, output_corr)
    proj = build_projectors(sys)
    Ebar = proj.phi_l.T @ sys.E11 @ proj.theta_r
    Abar = proj.phi_l.T @ sys.A11 @ proj.theta_r
    pencil = _ShiftPencil(Ebar, Abar)

    def factor(s):
        return _Lifted(solve_shifted(Ebar, Abar, s, None, pencil), proj.theta_r, proj.phi_l)

    state, trace, V, W = _drive(
        factor, (sys.E11, sys.A11, sys.H, sys.N, sys.B1, corr.C), cfg)
    return ReducedQbSystem(*state, V, W, *project_dae_outputs(corr, V)), trace


def tqb_irka_dae_saddle(sys, cfg, output_corr=None):
    """Projector-free reduction: every projected solve is one saddle system.

    The saddle solves keep every ``V`` column in the kernel of ``A21`` and
    every ``W`` column in the kernel of ``A12^T`` without ever forming the
    projectors.  Requires ``B2 = 0`` (homogenize first).
    """
    corr = _dae_outputs(sys, cfg, output_corr)
    E11, A11, A12, A21 = sys.E11, sys.A11, sys.A12, sys.A21
    pencil = _ShiftPencil(E11, A11, A12, A21)
    state, trace, V, W = _drive(
        lambda s: solve_saddle(E11, A11, A12, A21, s, None, pencil),
        (E11, A11, sys.H, sys.N, sys.B1, corr.C), cfg)
    return ReducedQbSystem(*state, V, W, *project_dae_outputs(corr, V)), trace
