"""Shared test fixtures: seeded random systems, an offline steady-state solver,
the explicit-projector reduction oracle and a recorder of each sweep's bases."""

import numpy as np
import pytest
import scipy.linalg as la

from qbmor import HessianTensor, QbOdeSystem, symmetrize, tqb_irka
from qbmor.dae_transform import build_projectors
from qbmor.dense_solvers import _ShiftPencil, solve_lyapunov, solve_shifted
from qbmor.gramians_norms import truncated_h2_norm
from qbmor.system_model import ReducedQbSystem, project_dae_outputs
from qbmor.tensor_kron import apply_hessian, hessian_congruence, quadratic_jacobian
from qbmor.tqb_irka import _dae_outputs, _drive


def random_stable_ode(seed, n, m=1, p=1, quad_scale=0.05, bilinear_scale=0.1,
                      general_e=True):
    """Stable QB system with a definite symmetric part plus skew mixing."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    A = -(M @ M.T) / n - 2.0 * np.eye(n) + 0.5 * (M - M.T)
    if general_e:
        G = rng.standard_normal((n, n))
        E = np.eye(n) + (G @ G.T) / (4 * n)
    else:
        E = np.eye(n)
    T = quad_scale * rng.standard_normal((n, n, n))
    H = symmetrize(HessianTensor.from_dense(T))
    N = tuple(bilinear_scale * rng.standard_normal((n, n)) for _ in range(m))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    return QbOdeSystem(E=E, A=A, H=H, N=N, B=B, C=C)


def skewed_band_pencil(seed, n):
    """A random pencil ``(E, A)`` with two sub- and one superdiagonal, not
    diagonally dominant, so that partial pivoting swaps rows down to the
    last ones of each block: narrow, but not tridiagonal."""
    rng = np.random.default_rng(seed)
    i, j = np.indices((n, n))
    band = (i - j <= 2) & (j - i <= 1)
    E = np.eye(n) + 0.1 * band * rng.standard_normal((n, n))
    return E, band * rng.standard_normal((n, n))


# a shift is real, or two shifts a conjugate pair, within this relative distance
_PAIR_TOL = 1e-8


def conjugate_pairs(lam):
    """Partition shifts into real indices and conjugate pairs, by nearest match.

    Returns ``(real_indices, pairs)`` where each pair is ``(neg, pos)`` with
    ``Im(lam[neg]) < 0 < Im(lam[pos])``, or ``None`` if some complex shift
    has no conjugate partner within ``_PAIR_TOL``: the oracle of the
    ``split`` that :func:`~qbmor.dense_solvers.pencil_eig` reads off the
    eigensolver's order.
    """
    lam = np.asarray(lam, dtype=complex)
    free = list(range(lam.size))
    real_idx, pairs = [], []
    while free:
        idx = free.pop(0)
        target, tol = lam[idx].conjugate(), _PAIR_TOL * (1.0 + abs(lam[idx]))
        if abs(target.imag) <= tol:
            real_idx.append(idx)
            continue
        # the nearest unused partner, the first of equals
        best = min(free, key=lambda j: abs(lam[j] - target), default=None)
        if best is None or abs(lam[best] - target) > tol:
            return None
        free.remove(best)
        pairs.append((idx, best) if target.imag > 0 else (best, idx))
    return real_idx, pairs


def vec(M):
    """Stack the columns of a matrix: ``vec(M)[j*a + i] = M[i, j]``."""
    return np.asarray(M).ravel(order="F")


def random_tensor(seed, n, symmetric=False):
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((n, n, n))
    t = HessianTensor.from_dense(T)
    return symmetrize(t) if symmetric else t


def congruence_truncated_gramians(sys):
    """Truncated Gramians ``(P, Q)`` by the dense n x n^2 congruence route.

    Each quadratic term is ``hessian_congruence(...) @ unfolding.T`` and each
    of the four Lyapunov equations gets its own solve, the dual ones on the
    transposed pencil.
    """
    def lyap(A, E, rhs):
        return solve_lyapunov(A, E, 0.5 * (rhs + rhs.T))

    A, E, B, C, H = sys.A, sys.E, sys.B, sys.C, sys.H
    P1 = lyap(A, E, B @ B.T)
    Q1 = lyap(A.T, E.T, C.T @ C)
    rhs_p = B @ B.T + hessian_congruence(H, 1, P1, P1) @ H.mode(1).T
    rhs_q = C.T @ C + hessian_congruence(H, 2, P1, Q1) @ H.mode(2).T
    for Nk in sys.N:
        rhs_p = rhs_p + Nk @ P1 @ Nk.T
        rhs_q = rhs_q + Nk.T @ Q1 @ Nk
    return lyap(A, E, rhs_p), lyap(A.T, E.T, rhs_q)


def _augmented_error_system(full, red):
    """The block-diagonal error system ``[full; red]`` with output ``[C, -Chat]``."""
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


def assembled_error_norm(full, red):
    """Oracle of ``error_system_norm``: the truncated-H2 norm of the whole
    (n + r) error system, four dense Lyapunov solves on its pencil."""
    return truncated_h2_norm(_augmented_error_system(full, red))


def dae_steady_state(sys, u_const, v_guess=None, tol=1e-12, max_iters=50):
    """Newton solve for an equilibrium (v, p) of the descriptor system at fixed input."""
    n_v, n_p = sys.n_v, sys.n_p
    u = np.asarray(u_const, dtype=float)
    v = np.zeros(n_v) if v_guess is None else np.asarray(v_guess, float).copy()
    p = np.zeros(n_p)
    for _ in range(max_iters):
        rv = (sys.A11 @ v + sys.A12 @ p + apply_hessian(sys.H, v, v)
              + sum((Nk @ v) * u[q] for q, Nk in enumerate(sys.N))
              + sys.B1 @ u)
        rc = sys.A21 @ v + sys.B2 @ u
        res = np.concatenate([rv, rc])
        if np.linalg.norm(res) <= tol * (1.0 + np.linalg.norm(v)):
            return v, p
        Jv = sys.A11 + quadratic_jacobian(sys.H, v)
        for q, Nk in enumerate(sys.N):
            Jv = Jv + Nk * u[q]
        J = np.zeros((n_v + n_p, n_v + n_p))
        J[:n_v, :n_v] = Jv
        J[:n_v, n_v:] = sys.A12
        J[n_v:, :n_v] = sys.A21
        dz = la.solve(J, -res)
        v = v + dz[:n_v]
        p = p + dz[n_v:]
    raise RuntimeError("steady-state Newton did not converge")


class _LiftedFactor:
    """A shift factor of the projected pencil ``(phi_l^T E11 theta_r, phi_l^T A11
    theta_r)`` that solves in velocity coordinates: a plain solve maps its
    right-hand side by ``phi_l^T`` and its solution by ``theta_r``, a
    transposed one by ``theta_r^T`` and ``phi_l``."""

    def __init__(self, fact, maps):
        self.fact, self.maps = fact, maps

    def solve(self, rhs, trans=False):
        into, out = self.maps if trans else self.maps[::-1]
        return out @ self.fact.solve(into.T @ rhs, trans)


def tqb_irka_dae_explicit(sys, cfg, output_corr=None):
    """Oracle of :func:`~qbmor.tqb_irka.tqb_irka_dae_saddle` by explicit projectors.

    The shifted solves run on the projected pencil in the (n_v - n_p)-dimensional
    coordinates and are lifted back (:class:`_LiftedFactor`), while every
    sweep projects the original matrices.  Requires ``B2 = 0`` and desk-scale
    ``n_v``.
    """
    corr = _dae_outputs(sys, cfg, output_corr)
    proj = build_projectors(sys)
    maps = proj.theta_r, proj.phi_l
    Ebar = proj.phi_l.T @ sys.E11 @ proj.theta_r
    Abar = proj.phi_l.T @ sys.A11 @ proj.theta_r
    pencil = _ShiftPencil(Ebar, Abar)

    def factor(s):
        return _LiftedFactor(solve_shifted(Ebar, Abar, s, None, pencil), maps)

    state, trace, V, W = _drive(factor, (sys.E11, sys.A11, sys.H, sys.N, sys.B1, corr.C), cfg)
    return ReducedQbSystem(*state, V, W, *project_dae_outputs(corr, V)), trace


def sweep_bases(run, *args):
    """``(run(*args), bases)``, ``bases`` a copy of each sweep's ``(V, W)`` in order.

    Records them by wrapping :func:`qbmor.tqb_irka._run_iteration`, which
    :func:`~qbmor.tqb_irka._drive` looks up on each sweep, for this one run.
    """
    bases, inner = [], tqb_irka._run_iteration

    def recording(*a):
        state, V, W = inner(*a)
        bases.append((V.copy(), W.copy()))
        return state, V, W

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tqb_irka, "_run_iteration", recording)
        return run(*args), bases
