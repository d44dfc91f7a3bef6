"""Kronecker-product and third-order-tensor kernels.

The quadratic term of a quadratic-bilinear system is ``H (x kron x)`` where
``H`` is an n-by-n^2 matrix.  ``H`` is interpreted as the mode-1 unfolding of
a third-order tensor ``t`` whose entry ``t[i, j, k]`` is stored at column
``j*n + k`` of row ``i`` (zero-based), so that column ordering matches the
Kronecker product ``x kron x``.  The mode-2 and mode-3 unfoldings follow the
standard tensor convention where the first surviving tensor index varies
fastest along columns:

    mode 1:  ``M[i, j*n + k] = t[i, j, k]``
    mode 2:  ``M[j, k*n + i] = t[i, j, k]``
    mode 3:  ``M[k, j*n + i] = t[i, j, k]``

With this mode-2 map the dual trace formulas of the truncated quadratic
Gramians agree (``trace(C P_T C^T) == trace(B^T Q_T B)``); the transposed
pairing breaks that identity for unsymmetric data.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "HessianTensor",
    "vec",
    "kron",
    "matricize",
    "symmetrize",
    "apply_hessian",
    "hessian_congruence",
    "apply_unfolded",
    "quadratic_jacobian",
]


class HessianTensor:
    """Sparse third-order tensor of shape (n, n, n).

    Stored as canonical coordinate triplets ``(i, j, k, value)``, sorted
    lexicographically and with duplicates summed.  ``symmetric`` marks that
    ``t[i, j, k] == t[i, k, j]`` holds entry-wise (the result of an explicit
    averaging step, see :func:`symmetrize`).
    """

    __slots__ = ("n", "symmetric", "_i", "_j", "_k", "_v", "_modes")

    def __init__(self, n, i, j, k, v, symmetric=False):
        n = int(n)
        if n < 1:
            raise ValueError(f"tensor dimension must be positive, got {n}")
        i = np.asarray(i, dtype=np.int64).ravel()
        j = np.asarray(j, dtype=np.int64).ravel()
        k = np.asarray(k, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.float64).ravel()
        if not (i.size == j.size == k.size == v.size):
            raise ValueError("index and value arrays must have equal length")
        if i.size and (
            i.min() < 0 or j.min() < 0 or k.min() < 0
            or i.max() >= n or j.max() >= n or k.max() >= n
        ):
            raise ValueError("tensor indices out of range")
        # canonical order, duplicates summed, exact zeros dropped
        if i.size:
            order = np.lexsort((k, j, i))
            i, j, k, v = i[order], j[order], k[order], v[order]
            flat = (i * n + j) * n + k
            uniq, inv = np.unique(flat, return_inverse=True)
            vals = np.zeros(uniq.size, dtype=np.float64)
            np.add.at(vals, inv, v)
            keep = vals != 0.0
            uniq, vals = uniq[keep], vals[keep]
            i, rem = np.divmod(uniq, n * n)
            j, k = np.divmod(rem, n)
            v = vals
        self.n = n
        self.symmetric = bool(symmetric)
        self._i, self._j, self._k, self._v = i, j, k, v
        self._modes = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, [], [], [], [])

    @classmethod
    def from_mode1(cls, M, symmetric=False):
        """Build from an n-by-n^2 mode-1 unfolding (dense or sparse)."""
        if sp.issparse(M):
            M = M.tocoo()
            n = M.shape[0]
            if M.shape[1] != n * n:
                raise ValueError(
                    f"mode-1 unfolding must be n-by-n^2, got {M.shape}"
                )
            j, k = np.divmod(M.col, n)
            return cls(n, M.row, j, k, M.data, symmetric=symmetric)
        M = np.asarray(M, dtype=np.float64)
        n = M.shape[0]
        if M.ndim != 2 or M.shape[1] != n * n:
            raise ValueError(f"mode-1 unfolding must be n-by-n^2, got {M.shape}")
        rows, cols = np.nonzero(M)
        j, k = np.divmod(cols, n)
        return cls(n, rows, j, k, M[rows, cols], symmetric=symmetric)

    @classmethod
    def from_dense(cls, T, symmetric=False):
        """Build from a dense (n, n, n) array."""
        T = np.asarray(T, dtype=np.float64)
        if T.ndim != 3 or len(set(T.shape)) != 1:
            raise ValueError(f"expected a cubic third-order array, got {T.shape}")
        i, j, k = np.nonzero(T)
        return cls(T.shape[0], i, j, k, T[i, j, k], symmetric=symmetric)

    # -- basic queries -----------------------------------------------------

    @property
    def nnz(self):
        return self._v.size

    @property
    def mode1(self):
        return self.mode(1)

    def mode(self, mode):
        """Mode-``mode`` unfolding as a CSR matrix of shape (n, n^2)."""
        if mode not in (1, 2, 3):
            raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")
        cached = self._modes.get(mode)
        if cached is not None:
            return cached
        n = self.n
        if mode == 1:
            rows, cols = self._i, self._j * n + self._k
        elif mode == 2:
            rows, cols = self._j, self._k * n + self._i
        else:
            rows, cols = self._k, self._j * n + self._i
        M = sp.csr_matrix(
            (self._v.copy(), (rows, cols)), shape=(n, n * n)
        )
        self._modes[mode] = M
        return M

    def to_dense(self):
        T = np.zeros((self.n, self.n, self.n))
        np.add.at(T, (self._i, self._j, self._k), self._v)
        return T

    def __repr__(self):
        return (
            f"HessianTensor(n={self.n}, nnz={self.nnz}, "
            f"symmetric={self.symmetric})"
        )


def vec(M):
    """Stack the columns of a matrix: ``vec(M)[j*a + i] = M[i, j]``."""
    return np.asarray(M).ravel(order="F").copy()


def kron(A, B):
    """Kronecker product; satisfies ``vec(X Y Z) = kron(Z.T, X) vec(Y)``."""
    return np.kron(np.asarray(A), np.asarray(B))


def matricize(t, mode):
    """Mode-``mode`` unfolding of ``t`` as a sparse n-by-n^2 matrix."""
    return t.mode(mode)


def symmetrize(t):
    """Average ``t`` with its (2,3)-transpose: ``t'[i,j,k] = (t[i,j,k] + t[i,k,j]) / 2``.

    The result is a fixed point of this map, preserves ``H(x kron x)`` for
    every ``x``, and satisfies ``H(a kron b) == H(b kron a)`` exactly.
    """
    if t.symmetric:
        return t
    i = np.concatenate([t._i, t._i])
    j = np.concatenate([t._j, t._k])
    k = np.concatenate([t._k, t._j])
    v = np.concatenate([t._v, t._v]) * 0.5
    return HessianTensor(t.n, i, j, k, v, symmetric=True)


def apply_hessian(t, a, b):
    """Evaluate ``H (a kron b)`` without materializing ``a kron b``.

    Parameters
    ----------
    t : HessianTensor
    a, b : arrays of length n

    Returns
    -------
    ndarray of length n with ``out[i] = sum_{j,k} t[i,j,k] a[j] b[k]``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != (t.n,) or b.shape != (t.n,):
        raise ValueError(
            f"operand shapes {a.shape}, {b.shape} do not match tensor "
            f"dimension {t.n}"
        )
    dtype = np.result_type(t._v, a, b)
    out = np.zeros(t.n, dtype=dtype)
    np.add.at(out, t._i, t._v * a[t._j] * b[t._k])
    return out


def apply_unfolded(M, L, R):
    """Compute ``M (L kron R)`` column-block-wise without forming ``L kron R``.

    ``M`` is any (q, n^2) matrix (sparse or dense) whose columns are ordered
    like ``L kron R`` rows, i.e. index ``s*n + f`` pairs row ``s`` of ``L``
    with row ``f`` of ``R``.  Column ``a*rR + b`` of the result equals
    ``M @ kron(L[:, a], R[:, b])``.
    """
    L = np.asarray(L)
    R = np.asarray(R)
    if L.ndim != 2 or R.ndim != 2:
        raise ValueError("L and R must be matrices")
    n = L.shape[0]
    if R.shape[0] != n or M.shape[1] != n * n:
        raise ValueError(
            f"shape mismatch: M is {M.shape}, L has {L.shape[0]} rows, "
            f"R has {R.shape[0]} rows"
        )
    rL, rR = L.shape[1], R.shape[1]
    dtype = np.result_type(M.dtype, L.dtype, R.dtype)
    out = np.empty((M.shape[0], rL * rR), dtype=dtype)

    for a in range(rL):
        # one expression, so each (n^2 x rR) block is freed before the next
        out[:, a * rR:(a + 1) * rR] = M @ np.multiply.outer(L[:, a], R).reshape(n * n, rR)
    return out


def hessian_congruence(t, mode, L, R):
    """Evaluate ``H^(mode) (L kron R)`` for ``mode`` in {1, 2}.

    ``L`` and ``R`` must have n rows; the result is dense of shape
    (n, L.shape[1] * R.shape[1]).  For mode 1, ``L`` pairs with the second
    tensor index and ``R`` with the third; for mode 2, ``L`` pairs with the
    third index and ``R`` with the first.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    return apply_unfolded(t.mode(mode), L, R)


def quadratic_jacobian(t, x):
    """Matrix of ``y -> H (x kron y) + H (y kron x)``.

    This is the Jacobian of ``x -> H (x kron x)`` and equals
    ``H (x kron I + I kron x)`` as an n-by-n matrix.
    """
    x = np.asarray(x)
    if x.shape != (t.n,):
        raise ValueError(f"operand shape {x.shape} does not match n={t.n}")
    dtype = np.result_type(t._v, x)
    out = np.zeros((t.n, t.n), dtype=dtype)
    np.add.at(out, (t._i, t._j), t._v * x[t._k])
    np.add.at(out, (t._i, t._k), t._v * x[t._j])
    return out
