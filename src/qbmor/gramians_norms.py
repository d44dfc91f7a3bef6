"""Quadratic-bilinear Gramians and the truncated H2 norm.

The truncated Gramians solve linear Lyapunov equations whose right-hand
sides add quadratic and bilinear corrections evaluated at the linear
Gramians:

    ``A P_T E^T + E P_T A^T = -B B^T - H (P1 kron P1) H^T - sum N_k P1 N_k^T``
    ``A^T Q_T E + E^T Q_T A = -C^T C - H2 (P1 kron Q1) H2^T - sum N_k^T Q1 N_k``

with ``H2`` the mode-2 unfolding.  The quadratic terms come from
:func:`~qbmor.tensor_kron.hessian_gram`, which forms no ``P kron P`` and,
unless the tensor keeps dense forms, no n-by-n^2 array, and
all Lyapunov equations of one system are solved on one factorization of its
pencil (``solve_lyapunov(A, E, None)``), the dual ones with ``trans=True``.
The truncated H2 norm is ``sqrt(trace(C P_T C^T))`` and must agree with
``sqrt(trace(B^T Q_T B))``.

The error system of a full model and a reduced one is block diagonal, so
each of its Gramians is ``[[X_full, X_cross], [X_cross^T, X_red]]`` and its
squared norm is ``|full|^2 - 2 <full, red> + |red|^2``.
:func:`error_system_norm` keeps what depends on the full model alone on
that model's instance, built on the first call: the LU of ``E``, the Schur
form of ``E^{-1} A``, ``P1, Q1, P_T, Q_T`` with their residual norms, the
two traces and the nonzero ``N_k``; a system's arrays are read-only, so
the record holds as long as the instance.  Each call then solves the
r-by-r Gramians of the reduced model and four n-by-r Sylvester equations
for the cross blocks, O(n^2 r) in all, on the realization the reduced
model keeps (:func:`~qbmor.system_model._reduced_ode`), whose tensor is
built once per reduced model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dense_solvers import SolverError, _gate_lyapunov, solve_lyapunov
from .system_model import _bilinear_terms, _reduced_ode
from .tensor_kron import hessian_congruence, hessian_gram

__all__ = [
    "GramianPair",
    "linear_gramians",
    "truncated_gramians",
    "full_gramians_fixed_point",
    "truncated_h2_norm",
    "error_system_norm",
]

TRACE_TOL = 1e-8
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class GramianPair:
    """Controllability/observability Gramian pair with provenance."""

    P: np.ndarray
    Q: np.ndarray
    kind: str
    residual: float
    iterations: int = 0
    converged: bool = True

    def __post_init__(self):
        for name, M in (("P", self.P), ("Q", self.Q)):
            dev = np.linalg.norm(M - M.T)
            if dev > 1e-12 * max(np.linalg.norm(M), 1.0):
                raise SolverError(f"gramian {name} not symmetric (|M - M^T| = {dev:.3e})")
            lo = float(np.linalg.eigvalsh(M).min())
            if lo < -1e-10 * max(np.linalg.norm(M), 1.0):
                raise SolverError(f"gramian {name} indefinite (min eig = {lo:.3e})")


def _lyap_residual(A, E, P, RHS):
    num = np.linalg.norm(A @ P @ E.T + E @ P @ A.T + RHS)
    return float(num / max(np.linalg.norm(RHS), np.finfo(float).tiny))


def _gramian_pair(P, Q, norms, kind):
    """:class:`GramianPair` of ``P`` and ``Q`` once their residuals pass the gate.

    ``norms`` holds ``(|R|, |G|)`` of the two equations; each relative
    residual ``|R| / |G|`` is gated and recorded (tag ``"lyapunov"``) before
    the pair's own checks, and the pair keeps the larger.
    """
    residuals = [res / max(rhs, _TINY) for res, rhs in norms]
    for res in residuals:
        _gate_lyapunov(res)
    return GramianPair(P=P, Q=Q, kind=kind, residual=max(residuals))


def linear_gramians(sys):
    """Gramians of the linear part: ``A P E^T + E P A^T + B B^T = 0`` and dual."""
    lyap = solve_lyapunov(sys.A, sys.E, None)
    P, norms_p = lyap.sylvester(sys.B @ sys.B.T)
    Q, norms_q = lyap.sylvester(sys.C.T @ sys.C, trans=True)
    return _gramian_pair(P, Q, (norms_p, norms_q), "linear")


def _p_rhs(sys, P):
    """``B B^T + H (P kron P) H^T + sum N_k P N_k^T``, symmetrized."""
    rhs = sys.B @ sys.B.T + hessian_gram(sys.H, 1, P, P)
    for _, Nk in _bilinear_terms(sys.N):
        rhs = rhs + Nk @ P @ Nk.T
    # the quadratic additions are Gramian-like sums, symmetric up to roundoff
    return 0.5 * (rhs + rhs.T)


def _q_rhs(sys, P, Q):
    """``C^T C + H2 (P kron Q) H2^T + sum N_k^T Q N_k``, symmetrized."""
    rhs = sys.C.T @ sys.C + hessian_gram(sys.H, 2, P, Q)
    for _, Nk in _bilinear_terms(sys.N):
        rhs = rhs + Nk.T @ Q @ Nk
    return 0.5 * (rhs + rhs.T)


def _pairs(gramians, norms):
    """The linear and the truncated :class:`GramianPair` of ``(P1, Q1, P_T, Q_T)``.

    ``norms`` holds ``(|R|, |G|)`` of their four equations, in that order.
    """
    P1, Q1, PT, QT = gramians
    return (_gramian_pair(P1, Q1, norms[:2], "linear"),
            _gramian_pair(PT, QT, norms[2:], "truncated"))


def truncated_gramians(sys):
    """Truncated Gramians: four Lyapunov solves on one factorization of the pencil."""
    g = _system_gramians(sys)
    return _pairs(g.gramians, g.norms)[1]


def full_gramians_fixed_point(sys, max_iters=100, tol=1e-10):
    """Fixed-point iteration for the full quadratic Lyapunov equations.

    Each sweep refreezes the quadratic and bilinear terms at the previous
    iterate and solves the resulting linear equation; all solves share one
    factorization of the pencil.  Convergence requires the quadratic terms
    to be contractive; the iterate norm growing by more than 1e6 over its
    start is treated as divergence.
    """
    lyap = solve_lyapunov(sys.A, sys.E, None)
    P = lyap.solve(sys.B @ sys.B.T)
    guard = 1e6 * max(np.linalg.norm(P), 1.0)
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        try:
            P_new = lyap.solve(_p_rhs(sys, P))
        except SolverError as exc:
            raise SolverError(f"fixed point diverged: {exc}") from exc
        if np.linalg.norm(P_new) > guard:
            raise SolverError(
                f"fixed point diverged: iterate norm {np.linalg.norm(P_new):.3e}"
            )
        delta = np.linalg.norm(P_new - P) / max(np.linalg.norm(P), 1e-300)
        P = P_new
        if delta <= tol:
            converged = True
            break
    res_p = _lyap_residual(sys.A, sys.E, P, _p_rhs(sys, P))
    # observability side with the converged P frozen in the cross term
    Q = lyap.solve(sys.C.T @ sys.C, trans=True)
    q_conv = False
    for _ in range(max_iters):
        Q_new = lyap.solve(_q_rhs(sys, P, Q), trans=True)
        if np.linalg.norm(Q_new) > guard * 1e6:
            raise SolverError("fixed point diverged on the observability side")
        dq = np.linalg.norm(Q_new - Q) / max(np.linalg.norm(Q), 1e-300)
        Q = Q_new
        if dq <= tol:
            q_conv = True
            break
    return GramianPair(
        P=P, Q=Q, kind="full-fixed-point", residual=res_p,
        iterations=iterations, converged=converged and q_conv,
    )


def _resolved_norm(tc, tb, c2, P, b2, Q):
    """``sqrt(max(tc, 0))`` for a primal trace ``tc`` that its dual ``tb`` confirms.

    The two must agree to ``TRACE_TOL`` relative, otherwise the Gramian pair
    is inconsistent and an error is raised.  ``c2`` and ``b2`` are the
    squared Frobenius norms of ``C`` and ``B``, and ``P``, ``Q`` the Gramians.
    """
    # roundoff floor: when both traces cancel below the noise of their own
    # evaluation (e.g. exact-copy error systems), they count as equal
    noise = 100.0 * np.finfo(float).eps * (c2 * np.linalg.norm(P) + b2 * np.linalg.norm(Q))
    scale = max(abs(tc), abs(tb), _TINY)
    if abs(tc - tb) > TRACE_TOL * scale + noise:
        raise SolverError(
            f"Gramian inconsistency: trace(C P C^T) = {tc:.12e} but "
            f"trace(B^T Q B) = {tb:.12e}"
        )
    return float(np.sqrt(max(tc, 0.0)))


def truncated_h2_norm(sys):
    """Truncated H2 norm ``sqrt(trace(C P_T C^T))``.

    The dual value ``sqrt(trace(B^T Q_T B))`` is computed alongside and the
    two must agree to ``TRACE_TOL`` relative, otherwise the Gramian pair is
    inconsistent and an error is raised.
    """
    g = _system_gramians(sys)
    tg = _pairs(g.gramians, g.norms)[1]
    return _resolved_norm(g.tc, g.tb, np.linalg.norm(sys.C) ** 2, tg.P,
                          np.linalg.norm(sys.B) ** 2, tg.Q)


@dataclass(frozen=True)
class _SystemGramians:
    """What the truncated-H2 norm needs of one realization alone.

    ``lyap`` factors its pencil and ``bilinear`` lists its nonzero ``N_k``
    (:func:`~qbmor.system_model._bilinear_terms`).  ``gramians`` holds
    ``(P1, Q1, P_T, Q_T)``, and ``norms`` the Frobenius norms ``(|R|, |G|)``
    of the residual and the right-hand side of each of their four
    equations, which are not gated here.  ``tc`` and ``tb`` are
    ``trace(C P_T C^T)`` and ``trace(B^T Q_T B)``.
    """

    lyap: object
    bilinear: list
    gramians: tuple
    norms: tuple
    tc: float
    tb: float


def _system_gramians(sys):
    """:class:`_SystemGramians` of ``sys``: one factorization, four solves."""
    lyap = solve_lyapunov(sys.A, sys.E, None)
    P1, n1 = lyap.sylvester(sys.B @ sys.B.T)
    Q1, n2 = lyap.sylvester(sys.C.T @ sys.C, trans=True)
    PT, n3 = lyap.sylvester(_p_rhs(sys, P1))
    QT, n4 = lyap.sylvester(_q_rhs(sys, P1, Q1), trans=True)
    return _SystemGramians(
        lyap, _bilinear_terms(sys.N), (P1, Q1, PT, QT), (n1, n2, n3, n4),
        float(np.trace(sys.C @ PT @ sys.C.T)), float(np.trace(sys.B.T @ QT @ sys.B)))


def _kept_gramians(sys):
    """:func:`_system_gramians` of ``sys``, built on its first use and kept on it.

    The record sits in the instance's ``__dict__`` beside its dims, so it
    is freed with the system, and its arrays are read-only like the
    system's own.  A failed build raises and stores nothing.
    """
    kept = vars(sys).get("_gramians")
    if kept is None:
        kept = _system_gramians(sys)
        for M in kept.gramians + (*kept.lyap.lu, kept.lyap.T, kept.lyap.Z):
            M.flags.writeable = False
        object.__setattr__(sys, "_gramians", kept)
    return kept


def error_system_norm(full, red):
    """Truncated H2 norm of the block-diagonal error system.

    The error system pairs the full and reduced realizations with output
    ``[C, -Chat]``; nonlinear output corrections of the reduced model are not
    part of the (linear-output) norm.  Its four Gramians are assembled from
    blocks, ``[[X_full, X_cross], [X_cross^T, X_red]]``: the full blocks are
    kept on ``full`` (:func:`_kept_gramians`), the reduced ones are solved on
    the reduced pencil, and the n-by-r cross blocks by ``trsyl`` on the two
    Schur forms, ``X1`` and ``X_T`` from ``B Bhat^T`` and ``B Bhat^T +
    H (X1 kron X1) Hhat^T + sum N_k X1 Nhat_k^T``, ``Y1`` and ``Y_T`` from
    ``-C^T Chat`` and its dual terms.  Each assembled equation is gated on
    ``sqrt(|R11|^2 + 2 |R12|^2 + |R22|^2) / sqrt(|G11|^2 + 2 |G12|^2 +
    |G22|^2)``, its residual ``R`` against its right-hand side ``G``, and the
    traces are ``tc = tr(C P_T C^T) - 2 tr(C X_T Chat^T) + tr(Chat Phat_T
    Chat^T)`` and ``tb = tr(B^T Q_T B) + 2 tr(B^T Y_T Bhat) + tr(Bhat^T
    Qhat_T Bhat)``.
    """
    if red.m != full.m:
        raise ValueError(
            f"input dimensions differ: full has {full.m}, reduced has {red.m}"
        )
    if red.p != full.p:
        raise ValueError(
            f"output dimensions differ: full has {full.p}, reduced has {red.p}"
        )
    big = _kept_gramians(full)
    small_sys = _reduced_ode(red)
    small = _system_gramians(small_sys)
    B, C, Bh, Ch = full.B, full.C, red.Bhat, red.Chat
    Nh = dict(small.bilinear)
    bilinear = [(Nk, Nh[k]) for k, Nk in big.bilinear if k in Nh]
    solve = partial(big.lyap.sylvester, other=small.lyap)

    X1, n1 = solve(B @ Bh.T)
    Y1, n2 = solve(-C.T @ Ch, trans=True)
    rhs = B @ Bh.T + hessian_congruence(full.H, 1, X1, X1) @ small_sys.H.mode(1).T
    for Nk, Nhk in bilinear:
        rhs = rhs + Nk @ X1 @ Nhk.T
    XT, n3 = solve(rhs)
    rhs = -C.T @ Ch + hessian_congruence(full.H, 2, X1, Y1) @ small_sys.H.mode(2).T
    for Nk, Nhk in bilinear:
        rhs = rhs + Nk.T @ Y1 @ Nhk
    YT, n4 = solve(rhs, trans=True)

    _, tg = _pairs(
        [np.block([[Xf, Xc], [Xc.T, Xr]])
         for Xf, Xr, Xc in zip(big.gramians, small.gramians, (X1, Y1, XT, YT))],
        [(np.sqrt(rf ** 2 + 2.0 * rc ** 2 + rr ** 2), np.sqrt(gf ** 2 + 2.0 * gc ** 2 + gr ** 2))
         for (rf, gf), (rr, gr), (rc, gc) in zip(big.norms, small.norms, (n1, n2, n3, n4))])
    tc = big.tc - 2.0 * float(np.trace(C @ XT @ Ch.T)) + small.tc
    tb = big.tb + 2.0 * float(np.trace(B.T @ YT @ Bh)) + small.tb
    return _resolved_norm(tc, tb, np.linalg.norm(C) ** 2 + np.linalg.norm(Ch) ** 2, tg.P,
                          np.linalg.norm(B) ** 2 + np.linalg.norm(Bh) ** 2, tg.Q)
