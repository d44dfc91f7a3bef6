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
    "hessian_gram",
    "apply_unfolded",
    "quadratic_jacobian",
]

# hessian_gram gathers R at the stored entries this many columns at a time
# and forms H (L kron R) in windows of this many columns, so its scratch
# stays O(nnz * _GRAM_BLOCK + n^2)
_GRAM_BLOCK = 128


class HessianTensor:
    """Sparse third-order tensor of shape (n, n, n).

    Stored as canonical coordinate triplets ``(i, j, k, value)``, sorted
    lexicographically and with duplicates summed.  ``symmetric`` marks that
    ``t[i, j, k] == t[i, k, j]`` holds entry-wise (the result of an explicit
    averaging step, see :func:`symmetrize`).
    """

    __slots__ = ("n", "symmetric", "_i", "_j", "_k", "_v", "_modes", "_jac")

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
        self._jac = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, [], [], [], [])

    @classmethod
    def from_mode1(cls, M, symmetric=False):
        """Build from an n-by-n^2 mode-1 unfolding (dense or sparse)."""
        M = sp.coo_matrix(M)
        n = M.shape[0]
        if M.shape[1] != n * n:
            raise ValueError(f"mode-1 unfolding must be n-by-n^2, got {M.shape}")
        j, k = np.divmod(M.col, n)
        return cls(n, M.row, j, k, M.data, symmetric=symmetric)

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

    def _jacobian_pattern(self):
        """``(flat, operand, values)`` of the two Jacobian terms of every entry.

        Entry ``(i, j, k, v)`` adds ``v x[k]`` at ``(i, j)`` and ``v x[j]`` at
        ``(i, k)``; ``flat`` holds those positions in column-major order
        (``col*n + row``), all first terms before all second terms.
        """
        if self._jac is None:
            i, j, k, n = self._i, self._j, self._k, self.n
            self._jac = (np.concatenate([j * n + i, k * n + i]),
                         np.concatenate([k, j]),
                         np.concatenate([self._v, self._v]))
        return self._jac

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
    return _scatter_sum(t._i, t._v * a[t._j] * b[t._k], t.n)


def apply_unfolded(M, L, R):
    """Compute ``M (L kron R)`` from the stored entries of ``M``.

    ``M`` is any (q, n^2) matrix (sparse or dense) whose columns are ordered
    like ``L kron R`` rows, i.e. index ``s*n + f`` pairs row ``s`` of ``L``
    with row ``f`` of ``R``.  Column ``a*rR + b`` of the result equals
    ``M @ kron(L[:, a], R[:, b])``.  Each stored entry ``M[i, s*n + f]``
    contributes ``M[i, s*n + f] L[s, a] R[f, :]`` to row ``i``; the terms are
    summed over the row segments of the CSR form, so work and memory are
    O(nnz(M) rL rR) and O(nnz(M) rR), and nothing of size n^2 is formed.
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
    M = sp.csr_matrix(M)
    out = np.zeros((M.shape[0], rL * rR),
                   dtype=np.result_type(M.dtype, L.dtype, R.dtype))
    rows = np.flatnonzero(np.diff(M.indptr))
    s, f = np.divmod(M.indices, n)
    MR = M.data[:, None] * R[f]
    for a in range(rL):
        out[rows, a * rR:(a + 1) * rR] = np.add.reduceat(
            L[s, a, None] * MR, M.indptr[rows], axis=0)
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


def hessian_gram(t, mode, L, R):
    """Evaluate ``H^(mode) (L kron R) H^(mode)^T`` for ``mode`` in {1, 2}.

    ``L`` and ``R`` are n-by-n; the result is dense n-by-n.  Row ``a*n + b``
    of ``H^T`` is zero unless ``a*n + b`` is a stored column of the
    unfolding, so only those columns of ``H (L kron R)`` are formed, each
    from the stored entries as in :func:`apply_unfolded`.  Work is
    O(nnz * |stored columns|), scratch O(nnz * _GRAM_BLOCK + n^2), and no
    n-by-n^2 array is formed.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    M = t.mode(mode)
    L = np.asarray(L)
    R = np.asarray(R)
    n = t.n
    if L.shape != (n, n) or R.shape != (n, n):
        raise ValueError(
            f"L and R must be {n}-by-{n}, got {L.shape} and {R.shape}")
    cols, pos = np.unique(M.indices, return_inverse=True)
    a, b = np.divmod(cols, n)
    # visit the stored columns (a, b) by block of b, so that R is gathered at
    # the entries once per block, and within a block by a, as apply_unfolded
    # goes by column of L
    group = b // _GRAM_BLOCK * n + a
    order = np.lexsort((b, group))
    a, b = a[order], b[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    # H with its stored columns renumbered to the visiting order
    Hv = sp.csr_matrix((M.data, rank[pos], M.indptr), shape=(n, cols.size)).tocsc()
    # one segment per group, also cut at every _GRAM_BLOCK visited columns:
    # each such window of H (L kron R) is formed, then multiplied out
    starts = np.union1d(np.flatnonzero(np.diff(group[order], prepend=-1)),
                        np.arange(0, cols.size, _GRAM_BLOCK))
    rows = np.flatnonzero(np.diff(M.indptr))
    s, f = np.divmod(M.indices, n)
    dtype = np.result_type(M.dtype, L.dtype, R.dtype)
    out = np.zeros((n, n), dtype=dtype)
    HL = np.zeros((n, _GRAM_BLOCK), dtype=dtype)
    gathered = -1
    for lo, hi in zip(starts, np.append(starts[1:], cols.size)):
        base = b[lo] - b[lo] % _GRAM_BLOCK
        if base != gathered:
            MR, gathered = M.data[:, None] * R[f, base:base + _GRAM_BLOCK], base
        sel = b[lo:hi] - base
        # a run of consecutive columns (every group of a dense Hessian) is
        # a view of MR; other groups are gathered
        if sel[-1] - sel[0] + 1 == sel.size:
            sel = slice(sel[0], sel[-1] + 1)
        w0 = lo - lo % _GRAM_BLOCK
        HL[rows, lo - w0:hi - w0] = np.add.reduceat(
            L[s, a[lo], None] * MR[:, sel], M.indptr[rows], axis=0)
        if hi - w0 == _GRAM_BLOCK or hi == cols.size:
            out += Hv[:, w0:hi] @ HL[:, :hi - w0].T
    return out.T


def quadratic_jacobian(t, x):
    """Matrix of ``y -> H (x kron y) + H (y kron x)``.

    This is the Jacobian of ``x -> H (x kron x)`` and equals
    ``H (x kron I + I kron x)`` as an n-by-n matrix, returned in Fortran
    (column-major) order, the layout LAPACK factors in place.
    """
    x = np.asarray(x)
    if x.shape != (t.n,):
        raise ValueError(f"operand shape {x.shape} does not match n={t.n}")
    flat, operand, values = t._jacobian_pattern()
    return _scatter_sum(flat, values * x[operand], t.n * t.n).reshape(
        t.n, t.n, order="F")


def _scatter_sum(index, weights, size):
    """``out[index[e]] += weights[e]`` in entry order, for real or complex weights."""
    if weights.dtype.kind != "c":
        # bincount returns integers when there are no entries at all
        return np.bincount(index, weights, size).astype(weights.dtype, copy=False)
    out = np.empty(size, dtype=np.result_type(weights, np.complex128))
    out.real = np.bincount(index, weights.real, size)
    out.imag = np.bincount(index, weights.imag, size)
    return out
