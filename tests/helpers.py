"""Shared test fixtures: seeded random systems and an offline steady-state solver."""

import numpy as np
import scipy.linalg as la

from qbmor import HessianTensor, QbOdeSystem, symmetrize
from qbmor.dense_solvers import solve_lyapunov
from qbmor.tensor_kron import apply_hessian, hessian_congruence, quadratic_jacobian


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
