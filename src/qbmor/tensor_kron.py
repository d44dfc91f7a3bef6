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

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "HessianTensor",
    "symmetrize",
    "apply_hessian",
    "hessian_congruence",
    "hessian_gram",
    "apply_unfolded",
    "quadratic_jacobian",
]

# hessian_gram forms its Z = (L kron R) at the stored columns this many
# columns at a time, so its scratch stays O(|stored columns| * _GRAM_BLOCK + n^2)
_GRAM_BLOCK = 128

# a tensor storing at least this share of its n^3 entries contracts through
# dense forms, whose 16 n^3 bytes are then at most twice those of the triplets
_DENSE_FILL = 0.25


class HessianTensor:
    """Sparse third-order tensor of shape (n, n, n).

    Stored as read-only canonical triplets ``(i, j, k, value)`` of finite values, sorted
    lexicographically and with duplicates summed.  With ``symmetric=True``
    the given triplets are first averaged with their (2,3)-swap, so that
    ``t[i, j, k] == t[i, k, j]`` holds entry-wise; data that is already
    symmetric comes out bit for bit as given (barring subnormal values).

    Caches built on first use live in slots, so they are freed with the
    tensor: the unfoldings and their stored-column restrictions, the
    Jacobian pattern and, for a tensor with a high stored fill, its dense
    forms.  Their arrays are read-only like the triplets, so every kernel
    reads the same tensor.
    """

    __slots__ = ("n", "symmetric", "_i", "_j", "_k", "_v", "_modes", "_stored", "_jac",
                 "_dense")

    def __init__(self, n, i, j, k, v, symmetric=False):
        n = int(n)
        if n < 1:
            raise ValueError(f"tensor dimension must be positive, got {n}")
        i, j, k = (np.array(a, dtype=np.int64).ravel() for a in (i, j, k))
        v = np.array(v, dtype=np.float64).ravel()
        if not (i.size == j.size == k.size == v.size):
            raise ValueError("index and value arrays must have equal length")
        if not np.isfinite(v).all():
            raise ValueError("tensor values must be finite")
        if i.size and (
            i.min() < 0 or j.min() < 0 or k.min() < 0
            or i.max() >= n or j.max() >= n or k.max() >= n
        ):
            raise ValueError("tensor indices out of range")
        if symmetric:
            i, j, k = np.concatenate([i, i]), np.concatenate([j, k]), np.concatenate([k, j])
            v = np.concatenate([v, v]) * 0.5
        # canonical order, duplicates summed in entry order, exact zeros dropped
        if i.size:
            flat = (i * n + j) * n + k
            uniq, inv = np.unique(flat, return_inverse=True)
            vals = _scatter_sum(inv, v, uniq.size)
            keep = vals != 0.0
            uniq, vals = uniq[keep], vals[keep]
            i, rem = np.divmod(uniq, n * n)
            j, k = np.divmod(rem, n)
            v = vals
        self.n = n
        self.symmetric = bool(symmetric)
        _freeze(i, j, k, v)
        self._i, self._j, self._k, self._v = i, j, k, v
        self._modes = {}
        self._stored = {}
        self._jac = None
        self._dense = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, [], [], [], [])

    @classmethod
    def from_mode1(cls, M):
        """Build from an n-by-n^2 mode-1 unfolding (dense or sparse)."""
        M = sp.coo_matrix(M)
        n = M.shape[0]
        if M.shape[1] != n * n:
            raise ValueError(f"mode-1 unfolding must be n-by-n^2, got {M.shape}")
        j, k = np.divmod(M.col, n)
        return cls(n, M.row, j, k, M.data)

    @classmethod
    def from_dense(cls, T):
        """Build from a dense (n, n, n) array."""
        T = np.asarray(T, dtype=np.float64)
        if T.ndim != 3 or len(set(T.shape)) != 1:
            raise ValueError(f"expected a cubic third-order array, got {T.shape}")
        i, j, k = np.nonzero(T)
        return cls(T.shape[0], i, j, k, T[i, j, k])

    # -- basic queries -----------------------------------------------------

    @property
    def nnz(self):
        return self._v.size

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
        M = sp.csr_matrix((self._v, (rows, cols)), shape=(n, n * n))
        _freeze(M.data, M.indices, M.indptr)
        self._modes[mode] = M
        return M

    def _restriction(self, mode):
        """The mode-``mode`` unfolding restricted to its stored columns, kept per mode."""
        cached = self._stored.get(mode)
        if cached is None:
            cached = self._stored[mode] = _stored_columns(self.mode(mode), self.n)
            _freeze(cached.Hc.data, cached.Hc.indices, cached.Hc.indptr, cached.a, cached.b)
        return cached

    def _jacobian_pattern(self):
        """``(cells, terms)`` of the Jacobian that :func:`quadratic_jacobian` fills.

        ``cells`` are its unique column-major flat positions ``col*n + row``:
        all n^2 for a tensor with dense forms, whose ``terms`` are ``None``,
        else those of the stored entries.  Entry ``(i, j, k, v)`` adds ``v
        x[k]`` at ``(i, j)`` and ``v x[j]`` at ``(i, k)``, all first terms
        before all second; ``terms = (inverse, operand, values)`` puts term
        ``e`` on cell ``inverse[e]``.
        """
        if self._jac is None:
            n, i, j, k, v = self.n, self._i, self._j, self._k, self._v
            if self._dense_forms() is not None:
                self._jac = (np.arange(n * n), None)
            else:
                cells, inverse = np.unique(np.r_[j, k] * n + np.r_[i, i], return_inverse=True)
                self._jac = (cells, (inverse, np.r_[k, j], np.r_[v, v]))
            _freeze(self._jac[0], *(self._jac[1] or ()))
        return self._jac

    def _dense_forms(self):
        """``(H1, G)`` for a tensor with a high stored fill, else ``None``.

        ``H1`` is the dense (n, n^2) mode-1 unfolding, so ``H (a kron b) =
        H1 (a kron b)``; ``G`` is the (n^2, n) Jacobian operator with
        ``G[m*n + i, k] = t[i, m, k] + t[i, k, m]``, so that the column-major
        vectorization of :func:`quadratic_jacobian` is ``G x``.
        """
        if self._dense is None:
            n = self.n
            if self.nnz < _DENSE_FILL * n ** 3:
                self._dense = ()
            else:
                T = self.to_dense()
                G = (T + T.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(n * n, n)
                _freeze(T, G)
                self._dense = (T.reshape(n, n * n), G)
        return self._dense or None

    def to_dense(self):
        T = np.zeros((self.n, self.n, self.n))
        np.add.at(T, (self._i, self._j, self._k), self._v)
        return T

    def __repr__(self):
        return (
            f"HessianTensor(n={self.n}, nnz={self.nnz}, "
            f"symmetric={self.symmetric})"
        )


def symmetrize(t):
    """Average ``t`` with its (2,3)-transpose: ``t'[i,j,k] = (t[i,j,k] + t[i,k,j]) / 2``.

    This is the averaging that ``HessianTensor(..., symmetric=True)``
    applies; a tensor built that way is returned as it is.  The result is a
    fixed point of this map, preserves ``H(x kron x)`` for every ``x``, and
    satisfies ``H(a kron b) == H(b kron a)`` exactly.
    """
    return t if t.symmetric else HessianTensor(t.n, t._i, t._j, t._k, t._v, symmetric=True)


def apply_hessian(t, a, b):
    """Evaluate ``H (a kron b)`` without materializing ``a kron b``.

    A tensor with a high stored fill contracts through its dense mode-1
    unfolding; any other sums its stored entries.

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
    dense = t._dense_forms()
    if dense is not None:
        return dense[0] @ np.multiply.outer(a, b).ravel()
    return _scatter_sum(t._i, t._v * a[t._j] * b[t._k], t.n)


def apply_unfolded(M, L, R):
    """Compute ``M (L kron R)`` from the stored columns of ``M``.

    ``M`` is any (q, n^2) matrix (sparse or dense) whose columns are ordered
    like ``L kron R`` rows, i.e. index ``a*n + b`` pairs row ``a`` of ``L``
    with row ``b`` of ``R``, or the stored-column restriction that a
    :class:`HessianTensor` keeps per mode.  Column ``p*rR + s`` of the result
    equals ``M @ kron(L[:, p], R[:, s])``.  ``M`` is restricted to its stored
    columns ``c = a*n + b``, ``Hc``, as in :func:`hessian_gram`, and the
    result is the one sparse product ``Hc @ (L kron R)[c]``, so scratch is
    O(|stored columns| rL rR) and nothing of size n^2 is formed.
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
    Hc, a, b, _ = M if isinstance(M, _StoredColumns) else _stored_columns(M, n)
    return Hc @ (L[a, :, None] * R[b, None, :]).reshape(a.size, L.shape[1] * R.shape[1])


def hessian_congruence(t, mode, L, R):
    """Evaluate ``H^(mode) (L kron R)`` for ``mode`` in {1, 2}.

    ``L`` and ``R`` must have n rows; the result is dense of shape
    (n, L.shape[1] * R.shape[1]).  For mode 1, ``L`` pairs with the second
    tensor index and ``R`` with the third; for mode 2, ``L`` pairs with the
    third index and ``R`` with the first.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    return apply_unfolded(t._restriction(mode), L, R)


def hessian_gram(t, mode, L, R):
    """Evaluate ``H^(mode) (L kron R) H^(mode)^T`` for ``mode`` in {1, 2}.

    ``L`` and ``R`` are n-by-n; the result is dense n-by-n.  A tensor with a
    high stored fill contracts its dense (n, n, n) form ``D``, in the index
    order of the unfolding, with ``L`` and then ``R`` (two ``tensordot``) and
    multiplies the (n, n^2) result by the dense unfolding's transpose.  Any
    other uses ``Hc``, the restriction of ``H`` to its stored columns ``c =
    a*n + b``, kept on the tensor and shared with :func:`hessian_congruence`:
    the result is the sparse congruence ``Hc Z Hc^T``, ``Z[c, c'] = L[a_c,
    a_c'] R[b_c, b_c']``.  ``Z`` is formed ``_GRAM_BLOCK`` columns at a time,
    so scratch is O(|stored columns| * _GRAM_BLOCK + n^2).  Neither route
    forms ``L kron R``.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    L = np.asarray(L)
    R = np.asarray(R)
    n = t.n
    if L.shape != (n, n) or R.shape != (n, n):
        raise ValueError(
            f"L and R must be {n}-by-{n}, got {L.shape} and {R.shape}")
    dense = t._dense_forms()
    if dense is not None:
        # D[i, a, b] is the unfolding's entry at row i and column a*n + b
        D = dense[0].reshape(n, n, n)
        if mode == 2:
            D = D.transpose(1, 2, 0)
        DLR = np.tensordot(np.tensordot(D, L, axes=(1, 0)), R, axes=(1, 0))
        return DLR.reshape(n, n * n) @ D.reshape(n, n * n).T
    Hc, a, b, _ = t._restriction(mode)
    HcT = Hc.T.tocsr()
    out = np.zeros((n, n), dtype=np.result_type(Hc.dtype, L.dtype, R.dtype))
    for lo in range(0, a.size, _GRAM_BLOCK):
        w = slice(lo, lo + _GRAM_BLOCK)
        out += (Hc @ (L[np.ix_(a, a[w])] * R[np.ix_(b, b[w])])) @ HcT[w]
    return out


def quadratic_jacobian(t, x):
    """Matrix of ``y -> H (x kron y) + H (y kron x)``.

    This is the Jacobian of ``x -> H (x kron x)`` and equals
    ``H (x kron I + I kron x)`` as an n-by-n matrix, returned in Fortran
    (column-major) order, the layout LAPACK factors in place.  Its values on
    the cells of the tensor's Jacobian pattern are ``G x`` from the dense
    Jacobian operator of a tensor with a high stored fill, else sums of the
    stored entries.
    """
    x = np.asarray(x)
    n = t.n
    if x.shape != (n,):
        raise ValueError(f"operand shape {x.shape} does not match n={n}")
    cells, terms = t._jacobian_pattern()
    out = np.zeros((n, n), np.result_type(x, float), order="F")
    out.ravel("F")[cells] = (t._dense_forms()[1] @ x if terms is None else
                             _scatter_sum(terms[0], terms[2] * x[terms[1]], cells.size))
    return out


class _StoredColumns(NamedTuple):
    """A (q, n^2) matrix ``M`` restricted to its stored columns.

    Column ``w`` of the CSR matrix ``Hc`` is column ``a[w]*n + b[w]`` of
    ``M``; the stored columns are sorted and unique, and ``shape`` is ``M``'s.
    """

    Hc: sp.csr_matrix
    a: np.ndarray
    b: np.ndarray
    shape: tuple


def _stored_columns(M, n):
    """:class:`_StoredColumns` of the (q, n^2) matrix ``M``."""
    M = sp.csr_matrix(M)
    cols, pos = np.unique(M.indices, return_inverse=True)
    a, b = np.divmod(cols, n)
    Hc = sp.csr_matrix((M.data, pos, M.indptr), shape=(M.shape[0], cols.size))
    return _StoredColumns(Hc, a, b, M.shape)


def _freeze(*arrays):
    """Mark ``arrays`` read-only, so that no kernel sees a cache another has edited."""
    for a in arrays:
        a.flags.writeable = False


def _scatter_sum(index, weights, size):
    """``out[index[e]] += weights[e]`` in entry order, for real or complex weights."""
    if weights.dtype.kind != "c":
        # bincount returns integers when there are no entries at all
        return np.bincount(index, weights, size).astype(weights.dtype, copy=False)
    out = np.empty(size, dtype=np.result_type(weights, np.complex128))
    out.real = np.bincount(index, weights.real, size)
    out.imag = np.bincount(index, weights.imag, size)
    return out
