"""Domain types for full and reduced quadratic-bilinear systems.

All types are immutable value objects validated at construction, holding
read-only private copies of their arrays.  Each realization class lists
its matrix fields, their shapes and what an absent field means once, in
its ``FIELDS`` table; one ingestion function walks that table for every
class, coercing each field to a finite float matrix, reading the dims off the
first field that names them, checking every shape and filling absent
optional fields with zeros.  ``__post_init__`` then adds only the checks
beyond shape.  Hessians are symmetrized on ingestion so that downstream
formulas may rely on ``H(a kron b) == H(b kron a)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

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
    "project_realization",
    "project_ode",
    "project_dae_outputs",
]

_RCOND_MIN = 1e-12
_ORTH_TOL = 1e-10

# Each realization class states its matrix fields once, in a FIELDS table of
# rows (field, shape in dims, rule); the rows fix the dims in order.  The rule
# says what None means: REQUIRED and IDENTITY fields must be given (IDENTITY
# tells a manifest that an absent entry is the identity), ZERO is the zero
# matrix and EACH, a tuple of one matrix per input, is m zero matrices.
REQUIRED, ZERO, IDENTITY, EACH = "required", "zero", "identity", "each"


def _is_dim(axis):
    return isinstance(axis, str) and "*" not in axis


def field_dims(fields):
    """Names of the dims of a ``FIELDS`` table, in the order its rows fix them."""
    return tuple(dict.fromkeys(a for _, axes, _ in fields for a in axes if _is_dim(a)))


def field_shape(axes, dims):
    """The shape ``axes`` names; an axis is a dim, a product ``"a*b"`` of dims or an int."""
    return tuple(axis if isinstance(axis, int)
                 else math.prod(dims[d] for d in axis.split("*"))
                 for axis in axes)


def _coerce(name, value, axes, dims):
    """``value`` as a finite float matrix of shape ``axes``; fixes the dims not yet in ``dims``.

    A field named ``H`` becomes a symmetrized :class:`HessianTensor` (from a
    tensor, a dense (n, n, n) array or a mode-1 unfolding, dense or sparse),
    which is immutable.  Any other value is a read-only private copy.  A
    1-D value is a column, or a row when only its second axis is known; a
    field whose second axis is the literal 1 is stored as a vector.
    """
    if name == "H":
        if not isinstance(value, HessianTensor):
            want, shape = field_shape(axes, dims), np.shape(value)
            if shape not in (want, (want[0],) * 3):
                raise ValueError(f"H must have shape {want}, got {shape}")
            value = (HessianTensor.from_dense(value) if len(shape) == 3
                     else HessianTensor.from_mode1(value))
        value = symmetrize(value)
        shape = (value.n, value.n * value.n)
    else:
        value = np.array(value.toarray() if sp.issparse(value) else value, dtype=float)
        value.flags.writeable = False
        if value.ndim == 1:
            row = axes[0] not in dims and axes[1] in dims
            value = value.reshape((1, -1) if row else (-1, 1))
        if value.ndim != 2:
            raise ValueError(f"{name} must be a matrix, got shape {value.shape}")
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
        shape = value.shape
    for axis, size in zip(axes, shape):
        if _is_dim(axis) and axis not in dims:
            if size < 1:
                raise ValueError(f"{name} must not be empty, got shape {shape}")
            dims[axis] = size
    want = field_shape(axes, dims)
    if shape != want:
        raise ValueError(f"{name} must have shape {want}, got {shape}")
    return value.ravel() if axes[1] == 1 else value


def _ingest(obj):
    """Coerce, default and shape-check every field that ``type(obj).FIELDS`` lists.

    Each dim is read from the first field that names it and kept for the
    class's :class:`_Dim` attributes.
    """
    dims = {}
    for name, axes, rule in type(obj).FIELDS:
        value = getattr(obj, name)
        if rule == EACH:
            m = dims["m"]
            value = (tuple(np.zeros(field_shape(axes, dims)) for _ in range(m))
                     if value is None else tuple(value))
            if len(value) != m:
                raise ValueError(f"{name} must hold {m} matrices, one per input, "
                                 f"got {len(value)}")
            value = tuple(_coerce(f"{name}[{k}]", M, axes, dims)
                          for k, M in enumerate(value))
        else:
            if value is None and rule == ZERO:
                value = np.zeros(field_shape(axes, dims))
            value = _coerce(name, value, axes, dims)
        object.__setattr__(obj, name, value)
    object.__setattr__(obj, "_dims", dims)


class _Dim:
    """A dim of a realization, as :func:`_ingest` read it off the fields."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        return self if obj is None else obj._dims[self.name]


def _rcond(M):
    s = la.svdvals(M)
    if s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


@dataclass(frozen=True)
class QbOdeSystem:
    """Realization ``E x' = A x + H (x kron x) + sum_k N_k x u_k + B u``, ``y = C x``."""

    E: np.ndarray
    A: np.ndarray
    H: HessianTensor
    N: tuple
    B: np.ndarray
    C: np.ndarray

    FIELDS = (
        ("A", ("n", "n"), REQUIRED),
        ("H", ("n", "n*n"), REQUIRED),
        ("B", ("n", "m"), REQUIRED),
        ("C", ("p", "n"), REQUIRED),
        ("E", ("n", "n"), IDENTITY),
        ("N", ("n", "n"), EACH),
    )
    n, m, p = _Dim(), _Dim(), _Dim()

    def __post_init__(self):
        _ingest(self)
        rc = _rcond(self.E)
        if rc < _RCOND_MIN:
            raise ValueError(f"mass matrix numerically singular (rcond={rc:.3e})")


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

    FIELDS = (
        ("E11", ("n_v", "n_v"), REQUIRED),
        ("A11", ("n_v", "n_v"), REQUIRED),
        ("A12", ("n_v", "n_p"), REQUIRED),
        ("A21", ("n_p", "n_v"), REQUIRED),
        ("H", ("n_v", "n_v*n_v"), REQUIRED),
        ("B1", ("n_v", "m"), REQUIRED),
        ("C1", ("p", "n_v"), REQUIRED),
        ("N", ("n_v", "n_v"), EACH),
        ("B2", ("n_p", "m"), ZERO),
        ("C2", ("p", "n_p"), ZERO),
        ("v0", ("n_v", 1), ZERO),
    )
    n_v, n_p, m, p = _Dim(), _Dim(), _Dim(), _Dim()

    def __post_init__(self):
        _ingest(self)
        n_v, n_p = self.n_v, self.n_p
        if not (0 < n_p < n_v):
            raise ValueError(f"need 0 < n_p < n_v, got n_p={n_p}, n_v={n_v}")
        rc_e = _rcond(self.E11)
        if rc_e < _RCOND_MIN:
            raise ValueError(f"E11 numerically singular (rcond={rc_e:.3e})")
        if np.linalg.matrix_rank(self.A12) < n_p:
            raise ValueError("A12 is rank deficient")
        if np.linalg.matrix_rank(self.A21) < n_p:
            raise ValueError("A21 is rank deficient")
        rc_s = _rcond(self.A21 @ la.solve(self.E11, self.A12))
        if rc_s < _RCOND_MIN:
            raise ValueError(
                f"Schur complement A21 E11^-1 A12 numerically singular "
                f"(rcond={rc_s:.3e})"
            )
        if not self.B2.any():
            cres = np.linalg.norm(self.A21 @ self.v0)
            if cres > 1e-8 * (1.0 + np.linalg.norm(self.v0)):
                raise ValueError(
                    f"initial velocity violates the constraint: "
                    f"|A21 v0| = {cres:.3e}"
                )


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

    FIELDS = (
        ("Ehat", ("r", "r"), REQUIRED),
        ("Ahat", ("r", "r"), REQUIRED),
        ("Hhat", ("r", "r*r"), REQUIRED),
        ("Bhat", ("r", "m"), REQUIRED),
        ("Chat", ("p", "r"), REQUIRED),
        ("V", ("n_full", "r"), REQUIRED),
        ("W", ("n_full", "r"), REQUIRED),
        ("Nhat", ("r", "r"), EACH),
        ("CHhat", ("p", "r*r"), ZERO),
        ("CNhat", ("p", "r"), EACH),
        ("Dhat", ("p", "m"), ZERO),
    )
    r, m, p, n_full = _Dim(), _Dim(), _Dim(), _Dim()

    def __post_init__(self):
        _ingest(self)
        for name, M in (("V", self.V), ("W", self.W)):
            dev = np.linalg.norm(M.T @ M - np.eye(self.r))
            if dev > _ORTH_TOL:
                raise ValueError(
                    f"{name} does not have orthonormal columns "
                    f"(|{name}^T {name} - I| = {dev:.3e})"
                )

    def has_output_corrections(self):
        return bool(self.CHhat.any() or self.Dhat.any()
                    or any(M.any() for M in self.CNhat))


def _expect(sys, classes, entry, hint):
    """Raise a TypeError unless ``sys`` is one of the ``classes`` that ``entry`` takes."""
    if not isinstance(sys, classes):
        raise TypeError(f"{entry} expects a {' or '.join(c.__name__ for c in classes)}, "
                        f"not a {type(sys).__name__} ({hint})")


def _reduced_ode(red):
    """The :class:`QbOdeSystem` of ``red``'s reduced matrices, built on first use and kept.

    Simulation and the error-system norm both take it, so a reduced model's
    symmetrized tensor and its cached forms are built once.  It sits in the
    instance's ``__dict__`` beside its dims and is freed with it; its arrays
    are read-only like ``red``'s own.
    """
    ode = vars(red).get("_ode")
    if ode is None:
        ode = QbOdeSystem(E=red.Ehat, A=red.Ahat, H=red.Hhat, N=red.Nhat,
                          B=red.Bhat, C=red.Chat)
        object.__setattr__(red, "_ode", ode)
    return ode


def _bilinear_terms(N):
    """``(k, N_k)`` for each input ``k`` whose ``N_k`` is not all zero: the one skipping rule."""
    return [(k, Nk) for k, Nk in enumerate(N) if np.any(Nk)]


def project_realization(E, A, H, N, B, C, V, W):
    """Petrov-Galerkin projection of the matrices of a QB realization.

    Returns ``(W^T E V, W^T A V, W^T H (V kron V), (W^T N_k V)_k, W^T B,
    C V)`` with the reduced Hessian symmetrized; no ``(W^T V)^{-1}``
    normalization is applied, the generalized mass matrix is kept.  An
    all-zero ``N_k`` is not multiplied; its ``W^T N_k V`` is a zero matrix.
    """
    r = V.shape[1]
    T = (W.T @ hessian_congruence(H, 1, V, V)).reshape(r, r, r)
    Nhat = dict((k, W.T @ Nk @ V) for k, Nk in _bilinear_terms(N))
    return (
        W.T @ E @ V,
        W.T @ A @ V,
        (0.5 * (T + np.transpose(T, (0, 2, 1)))).reshape(r, r * r),
        tuple(Nhat.get(k, np.zeros((r, r))) for k in range(len(N))),
        W.T @ B,
        C @ V,
    )


def project_ode(sys, V, W):
    """Petrov-Galerkin projection onto orthonormal bases ``V`` and ``W``.

    Returns a :class:`ReducedQbSystem` holding :func:`project_realization`
    of the system's matrices and the bases.
    """
    dims = {"n": sys.n}
    V = _coerce("V", V, ("n", "r"), dims)
    W = _coerce("W", W, ("n", "r"), dims)
    r = dims["r"]
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
    V = _coerce("V", V, ("n", "r"), {})
    n = V.shape[0]
    if corr.CH.shape[1] != n * n:
        raise ValueError(
            f"basis rows {n} do not match output correction width "
            f"{corr.CH.shape[1]}"
        )
    CHhat = apply_unfolded(corr.CH, V, V)
    CNhat = tuple(M @ V for M in corr.CN)
    return CHhat, CNhat, corr.D
