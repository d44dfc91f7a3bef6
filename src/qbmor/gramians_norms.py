"""Quadratic-bilinear Gramians and the truncated H2 norm.

The truncated Gramians solve linear Lyapunov equations whose right-hand
sides add quadratic and bilinear corrections evaluated at the linear
Gramians:

    ``A P_T E^T + E P_T A^T = -B B^T - H (P1 kron P1) H^T - sum N_k P1 N_k^T``
    ``A^T Q_T E + E^T Q_T A = -C^T C - H2 (P1 kron Q1) H2^T - sum N_k^T Q1 N_k``

with ``H2`` the mode-2 unfolding.  The quadratic terms come from
:func:`~qbmor.tensor_kron.hessian_gram`, which forms no n-by-n^2 array, and
all Lyapunov equations of one system are solved on one factorization of its
pencil (``solve_lyapunov(A, E, None)``), the dual ones with ``trans=True``.
The truncated H2 norm is ``sqrt(trace(C P_T C^T))`` and must agree with
``sqrt(trace(B^T Q_T B))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

from .dense_solvers import SolverError, record_residuals, solve_lyapunov
from .system_model import QbOdeSystem, _bilinear_terms
from .tensor_kron import (
    HessianTensor,
    hessian_congruence,  # noqa: F401  (bench/tracer.py wraps it by this name)
    hessian_gram,
)

__all__ = [
    "GramianPair",
    "linear_gramians",
    "truncated_gramians",
    "full_gramians_fixed_point",
    "truncated_h2_norm",
    "error_system_norm",
]

TRACE_TOL = 1e-8


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


def _gramian_pair(lyap, rhs_p, rhs_q, kind):
    """Solve ``A P E^T + E P A^T + rhs_p = 0`` and its dual with ``rhs_q``.

    ``lyap`` is the factorization of the system's pencil; the pair's
    residual is the larger of the two that its solves computed and gated.
    """
    with record_residuals() as log:
        P = lyap.solve(rhs_p)
        Q = lyap.solve(rhs_q, trans=True)
    return GramianPair(P=P, Q=Q, kind=kind, residual=max(res for _, res in log))


def _linear_pair(lyap, sys):
    return _gramian_pair(lyap, sys.B @ sys.B.T, sys.C.T @ sys.C, "linear")


def linear_gramians(sys):
    """Gramians of the linear part: ``A P E^T + E P A^T + B B^T = 0`` and dual."""
    return _linear_pair(solve_lyapunov(sys.A, sys.E, None), sys)


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
    lyap = solve_lyapunov(sys.A, sys.E, None)
    lin = _linear_pair(lyap, sys)
    return _gramian_pair(lyap, _p_rhs(sys, lin.P), _q_rhs(sys, lin.P, lin.Q),
                         "truncated")


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


def truncated_h2_norm(sys):
    """Truncated H2 norm ``sqrt(trace(C P_T C^T))``.

    The dual value ``sqrt(trace(B^T Q_T B))`` is computed alongside and the
    two must agree to ``TRACE_TOL`` relative, otherwise the Gramian pair is
    inconsistent and an error is raised.
    """
    tg = truncated_gramians(sys)
    tc = float(np.trace(sys.C @ tg.P @ sys.C.T))
    tb = float(np.trace(sys.B.T @ tg.Q @ sys.B))
    # roundoff floor: when both traces cancel below the noise of their own
    # evaluation (e.g. exact-copy error systems), they count as equal
    noise = 100.0 * np.finfo(float).eps * (
        np.linalg.norm(sys.C) ** 2 * np.linalg.norm(tg.P)
        + np.linalg.norm(sys.B) ** 2 * np.linalg.norm(tg.Q)
    )
    scale = max(abs(tc), abs(tb), np.finfo(float).tiny)
    if abs(tc - tb) > TRACE_TOL * scale + noise:
        raise SolverError(
            f"Gramian inconsistency: trace(C P C^T) = {tc:.12e} but "
            f"trace(B^T Q B) = {tb:.12e}"
        )
    return float(np.sqrt(max(tc, 0.0)))


def _augmented_error_system(full, red):
    n = full.n
    Hf, Hr = full.H, HessianTensor.from_mode1(red.Hhat)
    H = HessianTensor(
        n + red.r,
        np.concatenate([Hf._i, Hr._i + n]),
        np.concatenate([Hf._j, Hr._j + n]),
        np.concatenate([Hf._k, Hr._k + n]),
        np.concatenate([Hf._v, Hr._v]),
    )
    E = la.block_diag(full.E, red.Ehat)
    A = la.block_diag(full.A, red.Ahat)
    N = tuple(la.block_diag(Nk, Nhat_k) for Nk, Nhat_k in zip(full.N, red.Nhat))
    B = np.vstack([full.B, red.Bhat])
    C = np.hstack([full.C, -red.Chat])
    return QbOdeSystem(E=E, A=A, H=H, N=N, B=B, C=C)


def error_system_norm(full, red):
    """Truncated H2 norm of the block-diagonal error system.

    The augmented system pairs the full and reduced realizations with output
    ``[C, -Chat]``; nonlinear output corrections of the reduced model are not
    part of the (linear-output) norm.
    """
    if red.m != full.m:
        raise ValueError(
            f"input dimensions differ: full has {full.m}, reduced has {red.m}"
        )
    if red.p != full.p:
        raise ValueError(
            f"output dimensions differ: full has {full.p}, reduced has {red.p}"
        )
    return truncated_h2_norm(_augmented_error_system(full, red))
