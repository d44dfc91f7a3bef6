"""Quadratic-bilinear Gramians and the truncated H2 norm.

The truncated Gramians solve linear Lyapunov equations whose right-hand
sides add quadratic and bilinear corrections evaluated at the linear
Gramians:

    ``A P_T E^T + E P_T A^T = -B B^T - H (P1 kron P1) H^T - sum N_k P1 N_k^T``
    ``A^T Q_T E + E^T Q_T A = -C^T C - H2 (P1 kron Q1) H2^T - sum N_k^T Q1 N_k``

with ``H2`` the mode-2 unfolding.  The quadratic terms come from
:func:`~qbmor.tensor_kron.hessian_gram`, which forms no ``P kron P`` and,
unless the tensor keeps dense forms, no n-by-n^2 array, and all Lyapunov
equations of one system are solved on one factorization of its pencil
(:func:`~qbmor.dense_solvers.solve_lyapunov`), the dual ones with ``trans=True``.
The truncated H2 norm is ``sqrt(trace(C P_T C^T))`` and must agree with
``sqrt(trace(B^T Q_T B))``.

Every entry point reads one record per realization, built on its first use
and kept on its instance (:func:`_kept_gramians`), a reduced model's on the
realization it keeps; each call gates its residuals from the kept norms.
The error system of a full model and a reduced one is block diagonal, so
each of its Gramians is ``[[X_full, X_cross], [X_cross^T, X_red]]`` and its
squared norm is ``|full|^2 - 2 <full, red> + |red|^2``:
:func:`error_system_norm` reads both records and solves only the four n-by-r
cross blocks, O(n^2 r) in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy.linalg.lapack import dpotrf

from .dense_solvers import SolverError, _gate_lyapunov, solve_lyapunov
from .system_model import QbOdeSystem, ReducedQbSystem, _bilinear_terms, _expect, _reduced_ode
from .tensor_kron import hessian_congruence, hessian_gram

__all__ = [
    "GramianPair",
    "linear_gramians",
    "truncated_gramians",
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

    def __post_init__(self):
        for name, M in (("P", self.P), ("Q", self.Q)):
            scale = max(np.linalg.norm(M), 1.0)
            dev = np.linalg.norm(M - M.T)
            if dev > 1e-12 * scale:
                raise SolverError(f"gramian {name} not symmetric (|M - M^T| = {dev:.3e})")
            # M + d I has a Cholesky factor only if min eig(M) > -d; else eigvalsh decides
            if dpotrf(M + 1e-10 * scale * np.eye(len(M)), clean=0)[1]:
                lo = float(np.linalg.eigvalsh(M).min())
                if lo < -1e-10 * scale:
                    raise SolverError(f"gramian {name} indefinite (min eig = {lo:.3e})")


def _gate(norms):
    """The relative residuals ``|R| / |G|`` of ``norms``, pairs ``(|R|, |G|)``,
    each gated and recorded (tag ``"lyapunov"``)."""
    residuals = [res / max(rhs, _TINY) for res, rhs in norms]
    for res in residuals:
        _gate_lyapunov(res)
    return residuals


def _pairs(gramians, residuals):
    """The linear and the truncated :class:`GramianPair` of ``(P1, Q1, P_T, Q_T)``.

    ``residuals`` holds the relative residuals of their four equations, in
    that order; each pair keeps the larger of its two.
    """
    P1, Q1, PT, QT = gramians
    return (GramianPair(P=P1, Q=Q1, kind="linear", residual=max(residuals[:2])),
            GramianPair(P=PT, Q=QT, kind="truncated", residual=max(residuals[2:])))


def linear_gramians(sys):
    """Gramians of the linear part: ``A P E^T + E P A^T + B B^T = 0`` and dual."""
    g = _kept_gramians(sys)
    _gate(g.norms[:2])
    return g.pairs[0]


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


def truncated_gramians(sys):
    """Truncated Gramians: four Lyapunov solves on one factorization of the pencil."""
    g = _kept_gramians(sys)
    _gate(g.norms)
    return g.pairs[1]


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
    g = _kept_gramians(sys)
    _gate(g.norms)
    tg = g.pairs[1]
    return _resolved_norm(g.tc, g.tb, np.linalg.norm(g.C) ** 2, tg.P,
                          np.linalg.norm(g.B) ** 2, tg.Q)


@dataclass(frozen=True)
class _SystemGramians:
    """What the truncated-H2 norm needs of one realization alone.

    ``lyap`` factors its pencil, ``B``, ``C`` and ``H`` are its own and
    ``bilinear`` lists its nonzero ``N_k``
    (:func:`~qbmor.system_model._bilinear_terms`).  ``gramians`` holds
    ``(P1, Q1, P_T, Q_T)``, and ``norms`` the Frobenius norms ``(|R|, |G|)``
    of the residual and the right-hand side of each of their four
    equations, which every call that reads the record gates.  ``tc`` and
    ``tb`` are ``trace(C P_T C^T)`` and ``trace(B^T Q_T B)``.
    """

    lyap: object
    B: np.ndarray
    C: np.ndarray
    H: object
    bilinear: list
    gramians: tuple
    norms: tuple
    tc: float
    tb: float

    @cached_property
    def pairs(self):
        """The linear and the truncated :class:`GramianPair`, checked once, on first use."""
        return _pairs(self.gramians, [res / max(rhs, _TINY) for res, rhs in self.norms])


def _kept_gramians(sys):
    """:class:`_SystemGramians` of ``sys``, built on its first use and kept on it.

    The one place that solves Gramians; a :class:`ReducedQbSystem` is read
    as the realization it keeps (:func:`_reduced_ode`).  The record sits in
    that instance's ``__dict__``, so it is freed with it, and its arrays
    are read-only like the system's own.  A failed build stores nothing.
    """
    _expect(sys, (QbOdeSystem, ReducedQbSystem), "gramians_norms", "a QbDaeSystem: explicit_ode")
    if isinstance(sys, ReducedQbSystem):
        sys = _reduced_ode(sys)
    kept = vars(sys).get("_gramians")
    if kept is None:
        lyap = solve_lyapunov(sys.A, sys.E, None)
        P1, n1 = lyap.sylvester(sys.B @ sys.B.T)
        Q1, n2 = lyap.sylvester(sys.C.T @ sys.C, trans=True)
        PT, n3 = lyap.sylvester(_p_rhs(sys, P1))
        QT, n4 = lyap.sylvester(_q_rhs(sys, P1, Q1), trans=True)
        kept = _SystemGramians(
            lyap, sys.B, sys.C, sys.H, _bilinear_terms(sys.N), (P1, Q1, PT, QT),
            (n1, n2, n3, n4), float(np.trace(sys.C @ PT @ sys.C.T)),
            float(np.trace(sys.B.T @ QT @ sys.B)))
        for M in kept.gramians + (*lyap.lu, lyap.T, lyap.Z):
            M.flags.writeable = False
        object.__setattr__(sys, "_gramians", kept)
    return kept


def error_system_norm(full, red):
    """Truncated H2 norm of the block-diagonal error system.

    The error system pairs the full and reduced realizations with output
    ``[C, -Chat]``; nonlinear output corrections of the reduced model are not
    part of the (linear-output) norm.  Its four Gramians are assembled from
    blocks, ``[[X_full, X_cross], [X_cross^T, X_red]]``: the full and the
    reduced blocks are the records kept on ``full`` and ``red``
    (:func:`_kept_gramians`), and the n-by-r cross blocks are solved by
    ``trsyl`` on their two Schur forms, ``X1`` and ``X_T`` from ``B Bhat^T``
    and ``B Bhat^T + H (X1 kron X1) Hhat^T + sum N_k X1 Nhat_k^T``, ``Y1``
    and ``Y_T`` from ``-C^T Chat`` and its dual terms.  Each assembled
    equation is gated on ``sqrt(|R11|^2 + 2 |R12|^2 + |R22|^2) /
    sqrt(|G11|^2 + 2 |G12|^2 + |G22|^2)``, its residual ``R`` against its
    right-hand side ``G``, and the traces are ``tc = tr(C P_T C^T) - 2 tr(C
    X_T Chat^T) + tr(Chat Phat_T Chat^T)`` and ``tb = tr(B^T Q_T B) + 2
    tr(B^T Y_T Bhat) + tr(Bhat^T Qhat_T Bhat)``.
    """
    if red.m != full.m:
        raise ValueError(
            f"input dimensions differ: full has {full.m}, reduced has {red.m}"
        )
    if red.p != full.p:
        raise ValueError(
            f"output dimensions differ: full has {full.p}, reduced has {red.p}"
        )
    big, small = _kept_gramians(full), _kept_gramians(red)
    B, C, Bh, Ch = big.B, big.C, small.B, small.C
    Nh = dict(small.bilinear)
    bilinear = [(Nk, Nh[k]) for k, Nk in big.bilinear if k in Nh]
    solve = partial(big.lyap.sylvester, other=small.lyap)

    X1, n1 = solve(B @ Bh.T)
    Y1, n2 = solve(-C.T @ Ch, trans=True)
    rhs = B @ Bh.T + hessian_congruence(big.H, 1, X1, X1) @ small.H.mode(1).T
    for Nk, Nhk in bilinear:
        rhs = rhs + Nk @ X1 @ Nhk.T
    XT, n3 = solve(rhs)
    rhs = -C.T @ Ch + hessian_congruence(big.H, 2, X1, Y1) @ small.H.mode(2).T
    for Nk, Nhk in bilinear:
        rhs = rhs + Nk.T @ Y1 @ Nhk
    YT, n4 = solve(rhs, trans=True)

    _, tg = _pairs(
        [np.block([[Xf, Xc], [Xc.T, Xr]])
         for Xf, Xr, Xc in zip(big.gramians, small.gramians, (X1, Y1, XT, YT))],
        _gate([(np.sqrt(rf ** 2 + 2.0 * rc ** 2 + rr ** 2),
                np.sqrt(gf ** 2 + 2.0 * gc ** 2 + gr ** 2))
               for (rf, gf), (rr, gr), (rc, gc) in zip(big.norms, small.norms,
                                                        (n1, n2, n3, n4))]))
    tc = big.tc - 2.0 * float(np.trace(C @ XT @ Ch.T)) + small.tc
    tb = big.tb + 2.0 * float(np.trace(B.T @ YT @ Bh)) + small.tb
    return _resolved_norm(tc, tb, np.linalg.norm(C) ** 2 + np.linalg.norm(Ch) ** 2, tg.P,
                          np.linalg.norm(B) ** 2 + np.linalg.norm(Bh) ** 2, tg.Q)
