"""Domain types for full and reduced quadratic-bilinear systems.

All types are immutable value objects validated at construction.  Hessians
are symmetrized on ingestion so that downstream formulas may rely on
``H(a kron b) == H(b kron a)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .tensor_kron import (
    HessianTensor,
    apply_unfolded,
    hessian_congruence,
    symmetrize,
)

__all__ = [
    "QbOdeSystem",
    "QbDaeSystem",
    "ReducedQbSystem",
    "OdeValidationReport",
    "validate_ode",
    "project_realization",
    "project_ode",
    "project_dae_outputs",
]

_RCOND_MIN = 1e-12
_ORTH_TOL = 1e-10


def _as_matrix(name, M, shape=None):
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got ndim={M.ndim}")
    if shape is not None and M.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {M.shape}")
    return M


def _rcond(M):
    s = la.svdvals(M)
    if s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


def _ingest_hessian(H, n):
    if not isinstance(H, HessianTensor):
        H = np.asarray(H)
        if H.ndim == 3:
            H = HessianTensor.from_dense(H)
        else:
            H = HessianTensor.from_mode1(H)
    if H.n != n:
        raise ValueError(f"Hessian dimension {H.n} does not match n={n}")
    return symmetrize(H)


@dataclass(frozen=True)
class QbOdeSystem:
    """Realization ``E x' = A x + H (x kron x) + sum_k N_k x u_k + B u``, ``y = C x``."""

    E: np.ndarray
    A: np.ndarray
    H: HessianTensor
    N: tuple
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = _as_matrix("A", self.A)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        E = _as_matrix("E", self.E, (n, n))
        B = _as_matrix("B", self.B)
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape}")
        C = np.asarray(self.C, dtype=float)
        if C.ndim == 1:
            C = C.reshape(1, -1)
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got {C.shape}")
        m, p = B.shape[1], C.shape[0]
        if m < 1 or p < 1:
            raise ValueError("systems need at least one input and one output")
        N = tuple(_as_matrix(f"N[{k}]", Nk, (n, n)) for k, Nk in enumerate(self.N))
        if len(N) != m:
            raise ValueError(f"expected {m} bilinear matrices, got {len(N)}")
        rc = _rcond(E)
        if rc < _RCOND_MIN:
            raise ValueError(f"mass matrix numerically singular (rcond={rc:.3e})")
        H = _ingest_hessian(self.H, n)
        for name, val in (("E", E), ("A", A), ("H", H), ("N", N), ("B", B), ("C", C)):
            object.__setattr__(self, name, val)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]


@dataclass(frozen=True)
class QbDaeSystem:
    """Index-2 descriptor realization with velocity ``v`` and multiplier ``p``.

    ``E11 v' = A11 v + A12 p + H (v kron v) + sum_k N_k v u_k + B1 u``,
    ``0 = A21 v + B2 u``, ``y = C1 v + C2 p``.  Both ``E11`` and the Schur
    complement ``S = A21 E11^{-1} A12`` must be invertible.
    """

    E11: np.ndarray
    A11: np.ndarray
    A12: np.ndarray
    A21: np.ndarray
    H: HessianTensor
    N: tuple
    B1: np.ndarray
    B2: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    v0: np.ndarray = None

    def __post_init__(self):
        A11 = _as_matrix("A11", self.A11)
        n_v = A11.shape[0]
        if A11.shape != (n_v, n_v):
            raise ValueError(f"A11 must be square, got {A11.shape}")
        E11 = _as_matrix("E11", self.E11, (n_v, n_v))
        A12 = _as_matrix("A12", self.A12)
        if A12.shape[0] != n_v:
            raise ValueError(f"A12 must have {n_v} rows, got {A12.shape}")
        n_p = A12.shape[1]
        A21 = _as_matrix("A21", self.A21, (n_p, n_v))
        if not (0 < n_p < n_v):
            raise ValueError(f"need 0 < n_p < n_v, got n_p={n_p}, n_v={n_v}")
        B1 = _as_matrix("B1", self.B1)
        if B1.shape[0] != n_v:
            raise ValueError(f"B1 must have {n_v} rows, got {B1.shape}")
        m = B1.shape[1]
        B2 = np.zeros((n_p, m)) if self.B2 is None else _as_matrix("B2", self.B2, (n_p, m))
        C1 = np.asarray(self.C1, dtype=float)
        if C1.ndim == 1:
            C1 = C1.reshape(1, -1)
        if C1.shape[1] != n_v:
            raise ValueError(f"C1 must have {n_v} columns, got {C1.shape}")
        p = C1.shape[0]
        C2 = np.zeros((p, n_p)) if self.C2 is None else _as_matrix("C2", self.C2, (p, n_p))
        N = tuple(_as_matrix(f"N[{k}]", Nk, (n_v, n_v)) for k, Nk in enumerate(self.N))
        if len(N) != m:
            raise ValueError(f"expected {m} bilinear matrices, got {len(N)}")
        v0 = np.zeros(n_v) if self.v0 is None else np.asarray(self.v0, dtype=float).ravel()
        if v0.shape != (n_v,):
            raise ValueError(f"v0 must have length {n_v}, got {v0.shape}")

        rc_e = _rcond(E11)
        if rc_e < _RCOND_MIN:
            raise ValueError(f"E11 numerically singular (rcond={rc_e:.3e})")
        if np.linalg.matrix_rank(A12) < n_p:
            raise ValueError("A12 is rank deficient")
        if np.linalg.matrix_rank(A21) < n_p:
            raise ValueError("A21 is rank deficient")
        S = A21 @ la.solve(E11, A12)
        rc_s = _rcond(S)
        if rc_s < _RCOND_MIN:
            raise ValueError(
                f"Schur complement A21 E11^-1 A12 numerically singular "
                f"(rcond={rc_s:.3e})"
            )
        if not B2.any():
            cres = np.linalg.norm(A21 @ v0)
            if cres > 1e-8 * (1.0 + np.linalg.norm(v0)):
                raise ValueError(
                    f"initial velocity violates the constraint: "
                    f"|A21 v0| = {cres:.3e}"
                )
        H = _ingest_hessian(self.H, n_v)
        for name, val in (
            ("E11", E11), ("A11", A11), ("A12", A12), ("A21", A21),
            ("H", H), ("N", N), ("B1", B1), ("B2", B2),
            ("C1", C1), ("C2", C2), ("v0", v0),
        ):
            object.__setattr__(self, name, val)

    @property
    def n_v(self):
        return self.A11.shape[0]

    @property
    def n_p(self):
        return self.A12.shape[1]

    @property
    def m(self):
        return self.B1.shape[1]

    @property
    def p(self):
        return self.C1.shape[0]

    def schur_complement(self):
        return self.A21 @ la.solve(self.E11, self.A12)


@dataclass(frozen=True)
class ReducedQbSystem:
    """Projected realization plus optional nonlinear output corrections.

    ``V`` and ``W`` are the (orthonormal-column) projection bases;
    ``CHhat``, ``CNhat`` and ``Dhat`` carry the reduced output corrections
    that arise when the source system had pressure-dependent outputs.
    """

    Ehat: np.ndarray
    Ahat: np.ndarray
    Hhat: np.ndarray
    Nhat: tuple
    Bhat: np.ndarray
    Chat: np.ndarray
    V: np.ndarray
    W: np.ndarray
    CHhat: np.ndarray = None
    CNhat: tuple = None
    Dhat: np.ndarray = None

    def __post_init__(self):
        Ahat = _as_matrix("Ahat", self.Ahat)
        r = Ahat.shape[0]
        Ehat = _as_matrix("Ehat", self.Ehat, (r, r))
        Hhat = _as_matrix("Hhat", self.Hhat, (r, r * r))
        Bhat = _as_matrix("Bhat", self.Bhat)
        Chat = np.asarray(self.Chat, dtype=float)
        if Chat.ndim == 1:
            Chat = Chat.reshape(1, -1)
        m, p = Bhat.shape[1], Chat.shape[0]
        Nhat = tuple(_as_matrix(f"Nhat[{k}]", Nk, (r, r)) for k, Nk in enumerate(self.Nhat))
        if len(Nhat) != m:
            raise ValueError(f"expected {m} reduced bilinear matrices, got {len(Nhat)}")
        V = _as_matrix("V", self.V)
        W = _as_matrix("W", self.W, V.shape)
        if V.shape[1] != r:
            raise ValueError(f"V must have {r} columns, got {V.shape}")
        for name, M in (("V", V), ("W", W)):
            dev = np.linalg.norm(M.T @ M - np.eye(r))
            if dev > _ORTH_TOL:
                raise ValueError(
                    f"{name} does not have orthonormal columns "
                    f"(|{name}^T {name} - I| = {dev:.3e})"
                )
        CHhat = (np.zeros((p, r * r)) if self.CHhat is None
                 else _as_matrix("CHhat", self.CHhat, (p, r * r)))
        CNhat = (tuple(np.zeros((p, r)) for _ in range(m)) if self.CNhat is None
                 else tuple(_as_matrix(f"CNhat[{k}]", M, (p, r))
                            for k, M in enumerate(self.CNhat)))
        if len(CNhat) != m:
            raise ValueError(f"expected {m} output-correction matrices, got {len(CNhat)}")
        Dhat = (np.zeros((p, m)) if self.Dhat is None
                else _as_matrix("Dhat", self.Dhat, (p, m)))
        for name, val in (
            ("Ehat", Ehat), ("Ahat", Ahat), ("Hhat", Hhat), ("Nhat", Nhat),
            ("Bhat", Bhat), ("Chat", Chat), ("V", V), ("W", W),
            ("CHhat", CHhat), ("CNhat", CNhat), ("Dhat", Dhat),
        ):
            object.__setattr__(self, name, val)

    @property
    def r(self):
        return self.Ahat.shape[0]

    @property
    def m(self):
        return self.Bhat.shape[1]

    @property
    def p(self):
        return self.Chat.shape[0]

    def has_output_corrections(self):
        return bool(self.CHhat.any() or self.Dhat.any()
                    or any(M.any() for M in self.CNhat))


@dataclass(frozen=True)
class OdeValidationReport:
    e_rcond: float
    spectral_abscissa: float
    stable: bool
    hessian_symmetric: bool
    warnings: tuple = field(default_factory=tuple)


def validate_ode(sys):
    """Diagnostic report: mass-matrix conditioning, pencil stability, Hessian symmetry.

    An unstable linear part only yields a warning verdict; the reduction
    algorithms still run on such systems.
    """
    rc = _rcond(sys.E)
    w = la.eigvals(sys.A, sys.E)
    abscissa = float(w.real.max()) if np.all(np.isfinite(w)) else np.inf
    stable = abscissa < 0.0
    warnings = ()
    if not stable:
        warnings = (f"unstable linear part (spectral abscissa {abscissa:.3e})",)
    return OdeValidationReport(
        e_rcond=rc,
        spectral_abscissa=abscissa,
        stable=stable,
        hessian_symmetric=sys.H.symmetric,
        warnings=warnings,
    )


def project_realization(E, A, H, N, B, C, V, W):
    """Petrov-Galerkin projection of the matrices of a QB realization.

    Returns ``(W^T E V, W^T A V, W^T H (V kron V), (W^T N_k V)_k, W^T B,
    C V)`` with the reduced Hessian symmetrized; no ``(W^T V)^{-1}``
    normalization is applied, the generalized mass matrix is kept.
    """
    r = V.shape[1]
    T = (W.T @ hessian_congruence(H, 1, V, V)).reshape(r, r, r)
    return (
        W.T @ E @ V,
        W.T @ A @ V,
        (0.5 * (T + np.transpose(T, (0, 2, 1)))).reshape(r, r * r),
        tuple(W.T @ Nk @ V for Nk in N),
        W.T @ B,
        C @ V,
    )


def project_ode(sys, V, W):
    """Petrov-Galerkin projection onto orthonormal bases ``V`` and ``W``.

    Returns a :class:`ReducedQbSystem` holding :func:`project_realization`
    of the system's matrices and the bases.
    """
    V = _as_matrix("V", V)
    W = _as_matrix("W", W, V.shape)
    n, r = V.shape
    if n != sys.n:
        raise ValueError(f"bases must have {sys.n} rows, got {n}")
    if np.linalg.matrix_rank(V) < r:
        raise ValueError("V is rank deficient")
    if np.linalg.matrix_rank(W) < r:
        raise ValueError("W is rank deficient")
    return ReducedQbSystem(
        *project_realization(sys.E, sys.A, sys.H, sys.N, sys.B, sys.C, V, W),
        V=V, W=W,
    )


def project_dae_outputs(corr, V):
    """Reduce the pressure-elimination output corrections with the basis ``V``.

    Returns ``(CHhat, CNhat, Dhat)`` with ``CHhat = CH (V kron V)``,
    ``CNhat_k = CN_k V`` and ``Dhat`` passed through unprojected.
    """
    V = _as_matrix("V", V)
    n = V.shape[0]
    if corr.CH.shape[1] != n * n:
        raise ValueError(
            f"basis rows {n} do not match output correction width "
            f"{corr.CH.shape[1]}"
        )
    CHhat = apply_unfolded(corr.CH, V, V)
    CNhat = tuple(M @ V for M in corr.CN)
    return CHhat, CNhat, corr.D.copy()
