"""Index-2 machinery: oblique projectors, pressure elimination, and input homogenization.

For a descriptor system with invertible ``E11`` and Schur complement
``S = A21 E11^{-1} A12``, the multiplier can be eliminated explicitly.  The
resulting dynamics live in the kernel of ``A21`` and are governed by the
oblique projectors

    ``Pi_l = I - A12 S^{-1} A21 E11^{-1}``,
    ``Pi_r = I - E11^{-1} A12 S^{-1} A21``,

which satisfy ``Pi_l E11 = E11 Pi_r`` and ``A21 z = 0  iff  Pi_r z = z``.
Rank factorizations ``Pi_l = theta_l phi_l^T`` and ``Pi_r = theta_r phi_r^T``
turn the constrained system into an equivalent unconstrained ODE; this module
provides both the explicit factor path (small-scale oracle) and the algebraic
ingredients the projector-free iteration needs.

Neither ``E11^{-1}`` nor ``S`` is solved with: each eliminated quantity is a
block of a solve with the mass saddle matrix ``M0 = [[E11, A12], [A21, 0]]``
(:func:`~qbmor.dense_solvers.solve_saddle` of the pencil ``(E11, -E11)`` at
shift 0), factored once per call and residual-gated like every saddle solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .dense_solvers import solve_saddle
from .system_model import QbDaeSystem, QbOdeSystem, project_realization
from .tensor_kron import apply_hessian, hessian_congruence, quadratic_jacobian

__all__ = [
    "ProjectorRealization",
    "OutputRealization",
    "HomogenizedDae",
    "build_projectors",
    "output_realization",
    "recover_pressure",
    "explicit_ode",
    "homogenize_b2",
    "homogenized_output_realization",
]

EXPLICIT_SIZE_CAP = 400
_RANK_TOL = 1e-8


@dataclass(frozen=True)
class ProjectorRealization:
    """Dense projectors and their rank factors (small-scale oracle path).

    ``Pi_l = theta_l @ phi_l.T`` and ``Pi_r = theta_r @ phi_r.T`` with
    ``theta_l.T @ phi_l = I`` and ``theta_r.T @ phi_r = I``.
    """

    theta_l: np.ndarray
    phi_l: np.ndarray
    theta_r: np.ndarray
    phi_r: np.ndarray
    Pi_l: np.ndarray
    Pi_r: np.ndarray


@dataclass(frozen=True)
class OutputRealization:
    """Output map of the multiplier-eliminated system.

    ``y = C v + CH (v kron v) + sum_k CN_k v u_k + D u`` where ``C`` acts on
    the velocity and the remaining terms absorb the pressure contribution.
    All corrections vanish when the original output is velocity-only
    (``C2 = 0``).
    """

    C: np.ndarray
    CH: sp.csr_matrix
    CN: tuple
    D: np.ndarray


@dataclass(frozen=True)
class HomogenizedDae:
    """Constraint-homogenized system with formally augmented inputs.

    ``dae`` has ``B2 = 0`` and input channels ``(u, u kron u, u')`` of widths
    ``(m, m^2, m)``.  ``Omega`` maps inputs to the eliminated velocity
    component: the original velocity is ``v = v_m + Omega u`` where ``v_m``
    is the state of ``dae``.  ``du_feedthrough`` is the coefficient of ``u'``
    in the original output once the multiplier is eliminated.
    """

    dae: QbDaeSystem
    Omega: np.ndarray
    du_feedthrough: np.ndarray


def _rank_factor(Pi, rank):
    U, s, Vt = la.svd(Pi)
    tol = _RANK_TOL * max(s[0], 1.0)
    gap_ok = rank >= Pi.shape[0] or s[rank] <= tol
    if s[rank - 1] <= tol or not gap_ok:
        raise ValueError(
            f"projector rank defect: expected rank {rank}, "
            f"singular values around the cut: {s[max(rank - 2, 0):rank + 1]}"
        )
    theta = U[:, :rank] * s[:rank]
    phi = Vt[:rank].T
    return theta, phi


def _mass_saddle(sys):
    """Factored ``M0 = [[E11, A12], [A21, 0]]``, the saddle matrix of ``(E11, -E11)`` at 0."""
    return solve_saddle(sys.E11, -sys.E11, sys.A12, sys.A21, 0.0, None)


def build_projectors(sys):
    """Form the dense projectors and their thin rank factorizations.

    ``Pi_r`` and ``Pi_l^T`` are the top blocks of ``M0^{-1} [E11; 0]`` and
    ``M0^{-T} [E11^T; 0]``.  The factors come from a singular value
    decomposition truncated to the structurally known rank ``n_v - n_p``; for
    any full-rank factorization of an idempotent matrix the biorthogonality
    ``theta^T phi = I`` follows automatically.
    """
    n_v, rank = sys.n_v, sys.n_v - sys.n_p
    if n_v > EXPLICIT_SIZE_CAP:
        raise ValueError(f"explicit projector path capped at n_v={EXPLICIT_SIZE_CAP}, got {n_v}")
    M0 = _mass_saddle(sys)
    Pi_r = M0.solve(sys.E11)[:n_v]
    Pi_l = M0.solve(sys.E11.T, trans=True)[:n_v].T
    return ProjectorRealization(*_rank_factor(Pi_l, rank), *_rank_factor(Pi_r, rank),
                                Pi_l=Pi_l, Pi_r=Pi_r)


def output_realization(sys):
    """Output map after eliminating the multiplier from ``y = C1 v + C2 p``.

    With ``G = S^{-1} A21 E11^{-1}``,

        ``C = C1 - C2 G A11``, ``CH = -C2 G H``,
        ``CN_k = -C2 G N_k``,  ``D = -C2 G B1``,

    where ``(C2 G)^T`` is the top block of ``M0^{-T} [0; C2^T]``: ``p``
    transposed saddle solves, with neither ``G`` nor ``S`` formed.  A
    velocity-only output (``C2 = 0``) needs no solve.
    """
    n_v = sys.n_v
    T_row = np.zeros((sys.p, n_v))                  # C2 G
    if sys.C2.any():
        rhs = np.vstack([np.zeros((n_v, sys.p)), sys.C2.T])
        T_row = _mass_saddle(sys).solve(rhs, trans=True)[:n_v].T
    C = sys.C1 - T_row @ sys.A11
    CH = (sp.csr_matrix(-T_row) @ sys.H.mode(1)).tocsr()
    CH.eliminate_zeros()
    CN = tuple(-T_row @ Nk for Nk in sys.N)
    D = -T_row @ sys.B1
    return OutputRealization(C=C, CH=CH, CN=CN, D=D)


def recover_pressure(sys, v, u, udot=None):
    """Explicit multiplier from the differentiated constraint.

    With ``f = A11 v + H (v kron v) + sum_k N_k v u_k + B1 u``,
    ``p = -S^{-1} (A21 E11^{-1} f + B2 u')``, computed as minus the bottom
    block of one saddle solve ``M0^{-1} [f; -B2 u']``.  With ``B2 != 0``
    ``udot`` must be supplied.
    """
    v = np.asarray(v, dtype=float).ravel()
    u = np.atleast_1d(np.asarray(u, dtype=float))
    g = np.zeros(sys.n_p)
    if sys.B2.any():
        if udot is None:
            raise ValueError("pressure recovery with B2 != 0 needs the input derivative")
        g = -sys.B2 @ np.atleast_1d(np.asarray(udot, dtype=float))
    rhs = sys.A11 @ v + apply_hessian(sys.H, v, v) + sys.B1 @ u
    for k, Nk in enumerate(sys.N):
        rhs = rhs + (Nk @ v) * u[k]
    return -_mass_saddle(sys).solve(np.concatenate([rhs, g]))[sys.n_v:]


def explicit_ode(sys, proj):
    """Equivalent unconstrained ODE built from the projector factors.

    Returns ``(ode, lift)`` where the ODE realization is the
    :func:`~qbmor.system_model.project_realization` of ``(E11, A11, H, N,
    B1, C)`` with ``V = theta_r`` and ``W = phi_l``, ``C`` from
    :func:`output_realization`, and ``lift = theta_r`` maps the ODE state
    back to velocity space (``v ~= lift @ vtilde``).  Requires ``B2 = 0``.
    """
    if sys.B2.any():
        raise ValueError("explicit ODE form requires B2 = 0; homogenize first")
    C = output_realization(sys).C
    ode = QbOdeSystem(*project_realization(
        sys.E11, sys.A11, sys.H, sys.N, sys.B1, C, proj.theta_r, proj.phi_l))
    return ode, proj.theta_r


def homogenize_b2(sys):
    """Convert ``B2 != 0`` into a constraint-homogeneous system.

    With ``Omega = -E11^{-1} A12 S^{-1} B2`` the split ``v = v_m + Omega u``
    satisfies ``A21 v_m = 0``.  Substituting it into the dynamics yields
    modified bilinear matrices ``Ncal_k = N_k + H(I kron Omega_k + Omega_k
    kron I)``, an input matrix ``Bcal1 = B1 + A11 Omega``, a quadratic-input
    matrix ``Bu = H(Omega kron Omega) + [N_1 Omega, ..., N_m Omega]`` and an
    input-derivative column block ``-E11 Omega``; the three channels
    ``(u, u kron u, u')`` are appended as formally independent inputs.  The
    eliminated multiplier feeds the output through ``-C2 S^{-1} B2 u'``.
    Both come from one saddle solve ``M0 [x; y] = [0; B2]``:
    ``Omega = -x`` and ``-C2 S^{-1} B2 = C2 y``.

    The initial state carries over unchanged, which assumes ``u(0) = 0``
    (otherwise ``v_m(0) = v0 - Omega u(0)`` would violate the homogeneous
    constraint and construction rejects it).
    """
    if not sys.B2.any():
        raise ValueError("already homogeneous (B2 = 0)")
    m, n_v = sys.m, sys.n_v
    z = _mass_saddle(sys).solve(np.vstack([np.zeros((n_v, m)), sys.B2]))
    Omega = -z[:n_v]                                # n_v x m
    Ncal = tuple(Nk + quadratic_jacobian(sys.H, w) for Nk, w in zip(sys.N, Omega.T))
    Bcal1 = sys.B1 + sys.A11 @ Omega
    Bu = hessian_congruence(sys.H, 1, Omega, Omega) + np.hstack([Nk @ Omega for Nk in sys.N])
    Bdot = -sys.E11 @ Omega
    B1_aug = np.hstack([Bcal1, Bu, Bdot])
    N_aug = Ncal + tuple(np.zeros((n_v, n_v)) for _ in range(m * m + m))
    dae = replace(sys, N=N_aug, B1=B1_aug, B2=np.zeros((sys.n_p, B1_aug.shape[1])))
    return HomogenizedDae(dae=dae, Omega=Omega, du_feedthrough=sys.C2 @ z[n_v:])


def homogenized_output_realization(hom):
    """Output realization of a homogenized system mapping to the *original* output.

    Adds the ``C1 Omega`` feedthrough of the eliminated velocity component to
    the plain-``u`` block, so that reduced models built from it reproduce
    ``y = C1 v + C2 p`` of the source system.
    """
    base = output_realization(hom.dae)
    D = base.D.copy()
    D[:, :hom.Omega.shape[1]] += hom.dae.C1 @ hom.Omega
    return OutputRealization(C=base.C, CH=base.CH, CN=base.CN, D=D)
