"""Dense linear-algebra backends.

Generalized pencil eigendecomposition, shifted and saddle-point solves (one
factorization per family of shifts serves plain and transposed solves; a
tridiagonal pattern stacks a family's matrices side by side in one
tridiagonal storage, any other is dense), and generalized Lyapunov solves
(Bartels-Stewart on the pencil reduced by one LU of the mass matrix).  Every
LU is one raw ``getrf`` or ``gttrf``, and every pencil eigensolve
one ``ggev``, from ``get_lapack_funcs``: its ``info`` (a shift factor's
pivots) is checked first, so a zero pivot (before any triangular solve) or a
failed QZ raises :class:`SolverError`, never a warning.  Every solver
gates the residual of its own output (:class:`ResidualError` past the
stated bound) and reports it to any active :func:`record_residuals`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as la

__all__ = [
    "SolverError",
    "ResidualError",
    "SpectralFactorization",
    "record_residuals",
    "pencil_eig",
    "solve_shifted",
    "solve_lyapunov",
    "solve_saddle",
    "solve_saddle_adjoint",
]

# residual bounds (relative, Frobenius)
SHIFTED_TOL = 1e-10
LYAPUNOV_TOL = 1e-9
SADDLE_TOL = 1e-10
PENCIL_TOL = 1e-10

_TINY = np.finfo(float).tiny


class SolverError(RuntimeError):
    """A dense solve failed (singularity, instability, defectiveness).

    A failed shift of a :class:`_ShiftFactor` sets ``block``, its index in the family."""

    block = None


class ResidualError(SolverError):
    """A computed solution violated its stated residual bound."""


_SINKS: list[list] = []


@contextmanager
def record_residuals():
    """Collect ``(tag, relative_residual)`` pairs from all solver calls.

    Contexts nest; each active recorder receives every solver's residual.
    """
    log = []
    _SINKS.append(log)
    try:
        yield log
    finally:
        for i, sink in enumerate(_SINKS):
            if sink is log:
                del _SINKS[i]
                break


def _note(tag, *values):
    if _SINKS:
        for sink in _SINKS:
            sink.extend((tag, float(v)) for v in values)


def _fro(M):
    return float(np.linalg.norm(np.asarray(M)))


@dataclass(frozen=True)
class SpectralFactorization:
    """Factors with ``X @ Ahat @ Y = diag(eigenvalues)`` and ``X @ Ehat @ Y = I``.

    Eigenvalues are sorted ascending by (real, imag); for real input pencils
    complex eigenvalues occur in exactly conjugate pairs and the paired
    eigenvector columns are exact conjugates.  ``split`` is that pairing,
    read off the eigensolver's order: ``(real_indices, pairs)``, each pair
    ``(neg, pos)`` the positions of one conjugate pair with
    ``Im(eigenvalues[neg]) < 0 < Im(eigenvalues[pos])``.  ``kappa`` is the
    basis condition ``|X|_F |Ehat Y|_F``.
    """

    X: np.ndarray
    Y: np.ndarray
    eigenvalues: np.ndarray
    split: tuple
    kappa: float


def _realify(split, M):
    """``M`` with the column pairs of ``split`` (:class:`SpectralFactorization`)
    replaced by (real part, imaginary part) of the negative-imaginary member,
    which keeps their span real; the other columns keep their real part.
    """
    M = np.asarray(M)
    neg, pos = np.array(split[1], dtype=int).reshape(-1, 2).T
    out = np.array(M.real, dtype=float)
    out[:, pos] = M[:, neg].imag
    return out


def _pair_map(split):
    """The complex ``T`` with ``M = _realify(split, M) @ T`` for every ``M`` whose
    columns are real but in the pairs of ``split``, whose members are conjugate:
    a pair's (Re, Im) columns map back to ``Re + i Im`` and ``Re - i Im``."""
    neg, pos = np.array(split[1], dtype=int).reshape(-1, 2).T
    T = np.eye(len(split[0]) + 2 * neg.size, dtype=complex)
    T[pos, neg], T[neg, pos], T[pos, pos] = 1j, 1.0, -1j
    return T


def _canonical_eigenbasis(w, V):
    """Exact conjugate pairs, fixed phases and (real, imag) order, with the pairing.

    ``ggev`` gives a real pencil's eigenvalues ``w`` with a real one's
    eigenvector as a column of ``V``, and a complex pair as consecutive
    entries, positive member first, whose columns are the real and imaginary
    parts of its eigenvector: that order names the pairs, each snapped from
    its negative member, and sorting after the snap keeps them adjacent.
    """
    pos = np.flatnonzero(w.imag > 0)
    neg = pos + 1
    if not np.array_equal(np.flatnonzero(w.imag < 0), neg):
        raise SolverError("real pencil produced a non-conjugate spectrum")
    w, Y = np.where(w.imag == 0, w.real, w), V.astype(complex)
    Y[:, neg] = V[:, pos] - 1j * V[:, neg]
    # each column divided by its largest entry, then to unit norm
    Y /= Y[np.argmax(np.abs(Y), axis=0), np.arange(w.size)]
    Y /= np.linalg.norm(Y, axis=0)
    Y[:, pos] = Y[:, neg].conjugate()
    w[pos] = w[neg].conjugate()
    mate = np.arange(w.size)  # each column's conjugate partner, itself when real
    mate[pos], mate[neg] = neg, pos
    order = np.lexsort((w.imag, w.real))
    # sorted positions; a pair shares its real part, so its negative member comes first
    mate = np.argsort(order)[mate[order]]
    idx = np.arange(w.size)
    return w[order], Y[:, order], (idx[mate == idx].tolist(),
                                   list(zip(idx[mate > idx].tolist(), mate[mate > idx].tolist())))


def _left_inverse(EY):
    """``(X, |I - X EY|_F)`` with ``X @ EY = I``, refined on that (left) residual."""
    r = EY.shape[0]
    getrf, getrs = la.get_lapack_funcs(("getrf", "getrs"), (EY,))
    lu, piv, info = getrf(EY)
    if info:
        raise SolverError("pencil eigenvector matrix singular")
    solve_t = partial(getrs, lu, piv, trans=1)
    X = solve_t(np.eye(r, dtype=EY.dtype))[0].T
    R = np.eye(r) - X @ EY
    for _ in range(3):
        if _fro(R) <= 0.1 * PENCIL_TOL:
            break
        X = X + solve_t(R.T)[0].T
        R = np.eye(r) - X @ EY
    return X, _fro(R)


def pencil_eig(Ehat, Ahat):
    """Diagonalize the pencil ``(Ahat, Ehat)``.

    Returns a :class:`SpectralFactorization`.  When the first factorization
    misses the strict residual bound, one rediagonalization pass in the
    computed eigenbasis is applied.  The accepted residual is the strict
    bound or, for ill-conditioned eigenbases, the level that floating-point
    evaluation of the residual itself can resolve (eps times the basis
    condition); anything beyond that is reported as a defective pencil.
    """
    Ehat = np.asarray(Ehat, dtype=float)
    Ahat = np.asarray(Ahat, dtype=float)
    r = Ehat.shape[0]
    if Ehat.shape != (r, r) or Ahat.shape != (r, r):
        raise ValueError(f"pencil matrices must be square and matching, got "
                         f"{Ehat.shape} and {Ahat.shape}")
    sing = la.svdvals(Ehat)
    if sing[-1] <= 1e-12 * max(sing[0], 1.0):
        raise SolverError("reduced mass matrix singular")
    ggev, = la.get_lapack_funcs(("ggev",), (Ahat, Ehat))

    def factor(A, E, basis=None):
        alphar, alphai, beta, _, V, _, info = ggev(A, E, compute_vl=0)
        if info:
            raise SolverError(f"pencil eigensolve failed (ggev info={info})")
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (alphar + 1j * alphai) / beta
        if not np.all(np.isfinite(w)):
            raise SolverError("pencil has non-finite eigenvalues")
        w, Y, split = _canonical_eigenbasis(w, V if basis is None else basis @ V)
        EY = Ehat @ Y
        X, res_e = _left_inverse(EY)
        res_a = _fro(X @ Ahat @ Y - np.diag(w)) / max(_fro(Ahat), _TINY)
        return SpectralFactorization(X, Y, w, split, _fro(X) * _fro(EY)), max(res_a, res_e)

    fact, res = factor(Ahat, Ehat)
    if res > PENCIL_TOL:
        # refine: the computed basis nearly diagonalizes the pencil, so one
        # more (well-conditioned) eigensolve in that basis cleans up the
        # residual; the basis is made real first so that the refined
        # spectrum of the real pencil stays exactly conjugate-closed
        Yr = _realify(fact.split, fact.Y)
        refined, res_r = factor(_left_inverse(Ehat @ Yr)[0] @ Ahat @ Yr, np.eye(r), Yr)
        if res_r < res:
            fact, res = refined, res_r
    kappa = fact.kappa
    tol_eff = max(PENCIL_TOL, 50.0 * np.finfo(float).eps * kappa)
    if not np.isfinite(res) or res > tol_eff:
        raise SolverError(
            f"defective pencil beyond residual tolerance: residual {res:.3e} "
            f"exceeds {tol_eff:.3e} (basis condition ~{kappa:.3e})"
        )
    _note("pencil", res)
    return fact


# The one narrow storage, tridiagonal: a ``(3, cols)`` array whose rows are the
# super-, main and subdiagonal, entry ``(i, j)`` at row ``1 + i - j`` of column
# ``j``, the band storage of ``gbmv`` with one sub- and one superdiagonal.


def _offsets(M, at=(0, 0)):
    """Offsets ``i - j`` of the nonzeros of ``M`` placed with its top left at ``at``."""
    i, j = np.nonzero(M)
    return i - j + (at[0] - at[1])


def _is_tridiagonal(size, offsets):
    """The one storage rule, here and in :mod:`qbmor.simulate`: a ``size``-row matrix
    of the diagonal ``offsets`` is stored tridiagonal when they lie in {-1, 0, 1}
    and it has at least 3 rows (scipy's ``gttrf`` and ``gttrs`` mis-size 2), else dense."""
    return size > 2 and np.abs(np.concatenate(offsets)).max(initial=0) <= 1


def _tri_index(i, j):
    """The ``(row, column)`` of entry ``(i, j)`` in tridiagonal storage."""
    return 1 + i - j, j


def _tri_store(M, cols, at=(0, 0), out=None):
    """The nonzeros of ``M``, placed at ``at``, scattered into tridiagonal storage:
    a new zeroed ``(3, cols)`` array, or ``out``."""
    if out is None:
        out = np.zeros((3, cols), dtype=np.result_type(M, float), order="F")
    i, j = np.nonzero(M)
    out[_tri_index(at[0] + i, at[1] + j)] = M[i, j]
    return out


def _tridiagonals(M):
    """The sub-, main and superdiagonal ``(dl, d, du)`` of ``M`` in tridiagonal storage."""
    return M[2, :-1], M[1], M[0, 1:]


def _tri_lu(gttrf, M):
    """``gttrf`` of ``M`` in tridiagonal storage: ``lu`` holds the zero-padded ``dl, d, du, du2``."""
    lu = np.zeros((4, M.shape[1]), M.dtype)
    *f, piv, info = gttrf(*_tridiagonals(M))
    lu[0, :-1], lu[1], lu[2, :-1], lu[3, :-2] = f
    return lu, piv, info


def _tri_residual(M, b, z, trans):
    """``b - M z`` (``M^T`` with ``trans = 1``) for ``M`` in tridiagonal storage, a
    diagonal at a time on all columns: the main diagonal, then the super- and
    the subdiagonal of ``M`` or ``M^T``."""
    zt, up, low = z.T, M[0, 1:], M[2, :-1]
    if trans:
        up, low = low, up
    # transposed, so that each product runs along a diagonal, a row of M
    r = b.T - M[1] * zt
    r[:, :-1] -= up * zt[:, 1:]
    r[:, 1:] -= low * zt[:, :-1]
    return r.T


class _ShiftPencil:
    """The shifted or saddle matrices ``M(sigma) = -sigma E - S`` of one system.

    ``M(sigma)`` is ``-sigma E - A`` or, with constraint blocks, the saddle
    matrix ``[[-sigma E - A, A12], [A21, 0]]``: ``E`` zero-padded and ``S =
    [[A, -A12], [-A21, 0]]``.  The union pattern of the blocks, measured once
    here, alone picks the one storage of ``E`` and ``S``: tridiagonal when
    :func:`_is_tridiagonal`, so each shift costs O(rows), else dense.
    ``source`` holds the blocks as passed, so a factor given this pencil can
    check that it was measured from the very matrices it is asked to shift.
    """

    def __init__(self, E, A, A12=None, A21=None):
        self.source = (E, A, A12, A21)
        E, A = np.asarray(E), np.asarray(A)
        self.n = n = A.shape[0]
        self.saddle = A12 is not None
        blocks = [(A, (0, 0))]
        if self.saddle:
            A12, A21 = np.asarray(A12), np.asarray(A21)
            blocks += [(-A12, (0, n)), (-A21, (n, 0))]
        self.rows = rows = n + (A12.shape[1] if self.saddle else 0)
        self.tri = _is_tridiagonal(rows, [_offsets(M, at) for M, at in [(E, (0, 0))] + blocks])
        if self.tri:
            self._E, self._S = _tri_store(E, rows), None
            for M, at in blocks:
                self._S = _tri_store(M, rows, at, self._S)
        else:
            Z = np.zeros((rows - n, rows - n))
            # Fortran-ordered, so that M(sigma) is too, as LAPACK reads it
            self._E = np.asfortranarray(la.block_diag(E, Z) if self.saddle else E)
            self._S = np.asfortranarray(np.block([[A, -A12], [-A21, Z]]) if self.saddle else A)

    def matrix(self, sigma):
        """``M(sigma)``, dense ``(rows, rows)`` and Fortran-ordered or in tridiagonal storage
        with contiguous rows; k shifts give dense ``(k, rows, rows)`` or k ``(3, rows)``
        blocks side by side."""
        MT = -np.asarray(sigma)[..., None, None] * self._E.T - self._S.T
        return np.ascontiguousarray(MT.reshape(-1, 3).T) if self.tri else MT.swapaxes(-1, -2)


def _block_norms(X, k):
    """Frobenius norms of the ``k`` leading-axis blocks of ``X``, by batched dot products."""
    Y = np.ascontiguousarray(X).reshape(k, 1, -1)
    Y = Y.view(float) if Y.dtype.kind == "c" else Y
    return np.sqrt(Y @ Y.transpose(0, 2, 1)).ravel()


class _ShiftFactor:
    """The matrices ``M(sigma_i)`` of a family of k shifts (:class:`_ShiftPencil`), and their LU.

    The family has one dtype, real when every imaginary part is zero (a
    scalar ``sigma`` is k = 1).  Tridiagonal storage lays the k matrices side
    by side for one ``gttrf`` and one ``gttrs`` pass on their stacked
    diagonals (no entry between blocks is nonzero, so no pivot leaves its
    block); dense storage keeps a ``getrf``/``getrs`` per block.
    ``solve(rhs, trans)`` solves with each ``M_i`` or its plain transpose,
    refined once, block ``i`` taking columns ``i c`` to ``(i + 1) c`` of the
    ``k c`` in ``rhs`` (of ``n + n_p`` or ``n`` rows; real views when complex
    on a real family), and gates each block's residual and a saddle's
    constraint rows.  A zero pivot, a non-finite solution or a missed gate in
    block ``i`` raises :class:`SolverError` naming ``sigma_i``, with ``block = i``;
    a non-finite right-hand side raises ``ValueError`` before any solve.
    """

    def __init__(self, E, A, sigma, A12=None, A21=None, pencil=None):
        sigma = np.atleast_1d(sigma)
        if sigma.size == 0:
            raise ValueError("a shift family needs at least one shift")
        self.sigma = sigma.astype(complex) if sigma.imag.any() else sigma.real.astype(float)
        if pencil is None:
            pencil = _ShiftPencil(E, A, A12, A21)
        elif any(p is not q for p, q in zip(pencil.source, (E, A, A12, A21))):
            raise ValueError("pencil was measured from other matrices")
        self.saddle, self.n, self.rows = pencil.saddle, pencil.n, pencil.rows
        self.M = M = pencil.matrix(self.sigma)
        self.tri = pencil.tri
        k, rows = self.sigma.size, self.rows
        if self.tri:
            gttrf, gttrs = la.get_lapack_funcs(("gttrf", "gttrs"), (M,))
            self.lu = lu, piv = _tri_lu(gttrf, M)[:2]
            self._trs = lambda b, t: gttrs(lu[0, :-1], lu[1], lu[2, :-1], lu[3, :-2], piv, b,
                                           trans="T" if t else "N")[0]
            self._residual = partial(_tri_residual, M)
        else:
            getrf, getrs = la.get_lapack_funcs(("getrf", "getrs"), (M,))
            # each block Fortran-ordered, as getrf (in place) and getrs read it
            lu, piv = np.empty(M.shape, M.dtype).swapaxes(1, 2), np.empty((k, rows), np.int32)
            lu[...] = M
            for i in range(k):
                piv[i] = getrf(lu[i], overwrite_a=1)[1]
            self.lu = lu, piv
            self._trs = lambda b, t: np.concatenate(
                [getrs(a, p, bi, trans=t)[0] for a, p, bi in zip(lu, piv, b.reshape(k, rows, -1))])
            self._residual = lambda b, z, t: b - (
                (M.swapaxes(1, 2) if t else M) @ z.reshape(k, rows, -1)).reshape(b.shape)
        # an exactly zero pivot: a triangular solve would divide by it
        self._gate(lu[1] if self.tri else np.diagonal(lu, axis1=1, axis2=2),
                   SolverError, self._failure)

    def _failure(self, i):
        return (f"singular saddle matrix at sigma={self.sigma[i]}" if self.saddle
                else f"shift collides with spectrum (sigma={self.sigma[i]})")

    def _gate(self, ok, cls, message):
        """Raise ``cls(message(i))`` at the first block ``i`` of ``ok`` (split
        along its first axis) with a false or zero entry."""
        if not ok.all():
            i = int(np.argmin(ok.reshape(self.sigma.size, -1).all(axis=1)))
            exc = cls(message(i))
            exc.block = i
            raise exc

    def solve(self, rhs, trans=False):
        """Solutions of ``M_i z_i = rhs_i`` (``M_i^T`` with ``trans``), refined once."""
        b = np.asarray(rhs)
        k, n, rows = self.sigma.size, self.n, self.rows
        if b.shape[0] != rows:
            if b.shape[0] != n:
                raise ValueError(f"right-hand side has {b.shape[0]} rows, "
                                 f"expected {n} or {rows}")
            b = np.concatenate([b, np.zeros((rows - n,) + b.shape[1:], dtype=b.dtype)])
        if not np.isfinite(b).all():
            raise ValueError("right-hand side must be finite")
        shape, cols = b.shape, b[0].size
        if cols % k:
            raise ValueError(f"right-hand side has {cols} columns, "
                             f"not a multiple of the family's k={k} shifts")
        # the blocks' right-hand sides stacked, block i in rows i rows to (i + 1) rows
        b = b.reshape(rows, k, -1).transpose(1, 0, 2).reshape(k * rows, -1)
        t = 1 if trans else 0
        split = b.dtype.kind == "c" and self.M.dtype.kind != "c"
        if split:
            b = np.ascontiguousarray(b).view(float)
        z = self._trs(b, t)
        # a pivot too small for the data overflows here; stop before any product with it
        self._gate(np.isfinite(z), SolverError, self._failure)
        z = z + self._trs(self._residual(b, z, t), t)
        r = self._residual(b, z, t)
        res = _block_norms(r, k) / np.maximum(_block_norms(b, k), _TINY)
        # each gate reads ``not res <= tol``, so that a NaN residual fails it
        self._gate(res <= (SADDLE_TOL if self.saddle else SHIFTED_TOL), ResidualError, lambda i: (
            f"saddle solve residual {res[i]:.3e} exceeds {SADDLE_TOL:.0e} at sigma={self.sigma[i]}"
            if self.saddle else
            f"{self._failure(i)}: relative residual {res[i]:.3e} exceeds {SHIFTED_TOL:.0e}"))
        if self.saddle:
            # the constraint rows on their own, relative to z's top block or their rhs
            rb, zb, bb = (X.reshape(k, rows, -1) for X in (r, z, b))
            cres = _block_norms(rb[:, n:], k) / np.maximum(
                np.maximum(_block_norms(zb[:, :n], k), _block_norms(bb[:, n:], k)), _TINY)
            self._gate(cres <= SADDLE_TOL, ResidualError, lambda i: (
                f"saddle constraint residual {cres[i]:.3e} exceeds {SADDLE_TOL:.0e}"))
            res = np.maximum(res, cres)
        _note("saddle" if self.saddle else "shifted", *res)
        if split:
            z = np.ascontiguousarray(z).view(complex)
        return z.reshape(k, rows, -1).transpose(1, 0, 2).reshape(shape)


def solve_shifted(E, A, sigma, rhs, pencil=None):
    """Solve ``(-sigma E - A) Z = rhs`` with one step of iterative refinement.

    With ``rhs=None`` the :class:`_ShiftFactor` is returned instead, reused
    for plain and transposed solves; ``sigma`` may be a family of shifts.
    The pattern of ``E`` and ``A`` picks tridiagonal or dense storage; ``pencil``,
    a :class:`_ShiftPencil` of the same ``E`` and ``A`` arrays (any others
    raise ``ValueError``), carries that choice from an earlier measurement,
    so a reduction measures its system once for all shifts.
    """
    fact = _ShiftFactor(E, A, sigma, pencil=pencil)
    return fact if rhs is None else fact.solve(rhs)


class _LyapunovFactor:
    """One LU of ``E`` (``getrf``) and one real Schur form ``E^{-1} A = Z T Z^T``.

    Built only for a stable pencil: the diagonal of ``T`` carries the real
    parts of the eigenvalues (standardized 2x2 blocks have the pair's real
    part on the diagonal), a check that a singular ``E`` fails.
    :meth:`sylvester` is the one Bartels-Stewart routine: on the factors of
    this pencil and of ``other``, a factor of a second pencil ``(Ah, Eh)``,
    it solves ``A X Eh^T + E X Ah^T + RHS = 0`` or, with ``trans``, the dual
    ``A^T X Eh + E^T X Ah + RHS = 0``.  Without ``other`` it is the Lyapunov
    equation of this pencil, and ``solve(RHS, trans)`` is that square case,
    gated on its residual.
    """

    def __init__(self, A, E):
        self.A = np.asarray(A, dtype=float)
        self.E = np.asarray(E, dtype=float)
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.E.shape != (n, n):
            raise ValueError("lyapunov operands must be square and matching")
        if n == 0:
            raise ValueError("lyapunov pencil must not be empty")
        getrf, self._getrs = la.get_lapack_funcs(("getrf", "getrs"), (self.E,))
        lu, piv, info = getrf(self.E)
        self.lu = (lu, piv)
        abscissa = np.inf
        # a zero pivot leaves E^{-1} A undefined, an overflow leaves it non-finite
        if not info:
            F = self._solve_e(self.A)
            if np.all(np.isfinite(F)):
                self.T, self.Z = la.schur(F, output="real")
                abscissa = float(np.diag(self.T).max())
        if abscissa >= 0.0:
            raise SolverError(
                f"unstable pencil: spectral abscissa {abscissa:.3e} >= 0"
            )

    def _solve_e(self, b, trans=0):
        """``E^{-1} b`` (``E^{-T} b`` with ``trans = 1``)."""
        return self._getrs(*self.lu, b, trans=trans)[0]

    def sylvester(self, RHS, other=None, trans=False):
        """``(X, (|residual|_F, |RHS|_F))``, ungated; without ``other``, ``X`` is symmetrized.

        ``RHS`` is n-by-r for an ``other`` of order r.
        """
        square = other is None
        other = self if square else other
        RHS = np.asarray(RHS, dtype=float)
        if RHS.shape != (self.A.shape[0], other.A.shape[0]):
            raise ValueError("lyapunov operands must be square and matching")
        T, Z, Th, Zh = self.T, self.Z, other.T, other.Z
        # trsyl solves op(T) Y + Y op(Th) = scale * C, scale <= 1 guarding
        # overflow; info = 1 (eigenvalues perturbed) is left to the residual
        # gate of the caller
        if trans:
            # W = E^T X Eh solves F^T W + W Fh + RHS = 0 with F = E^{-1} A
            Y, scale, _ = la.lapack.dtrsyl(T, Th, Z.T @ (-RHS @ Zh), trana="T")
            W = Z @ (Y / scale) @ Zh.T
            X = other._solve_e(self._solve_e(W, 1).T, 1).T
            A, E, Ah, Eh = self.A.T, self.E.T, other.A.T, other.E.T
        else:
            # F X + X Fh^T + G = 0 with G = E^{-1} RHS Eh^{-T}
            G = other._solve_e(self._solve_e(RHS).T).T
            Y, scale, _ = la.lapack.dtrsyl(T, Th, Z.T @ (-G @ Zh), tranb="T")
            X = Z @ (Y / scale) @ Zh.T
            A, E, Ah, Eh = self.A, self.E, other.A, other.E
        if square:
            X = 0.5 * (X + X.T)
        return X, (_fro(A @ X @ Eh.T + E @ X @ Ah.T + RHS), _fro(RHS))

    def solve(self, RHS, trans=False):
        """Symmetric solution for symmetric ``RHS``, gated on its residual."""
        RHS = np.asarray(RHS, dtype=float)
        if RHS.shape != self.A.shape:
            raise ValueError("lyapunov operands must be square and matching")
        asym = _fro(RHS - RHS.T)
        if asym > 1e-10 * max(_fro(RHS), 1.0):
            raise ValueError(f"right-hand side not symmetric (|R - R^T| = {asym:.3e})")
        X, (res, rhs) = self.sylvester(RHS, trans=trans)
        _gate_lyapunov(res / max(rhs, _TINY))
        return X


def _gate_lyapunov(res):
    """Raise past ``LYAPUNOV_TOL`` (or on NaN) on the relative residual ``res``, else record it."""
    if not res <= LYAPUNOV_TOL:
        raise ResidualError(
            f"lyapunov solve residual {res:.3e} exceeds {LYAPUNOV_TOL:.0e}"
        )
    _note("lyapunov", res)


def solve_lyapunov(A, E, RHS):
    """Solve ``A P E^T + E P A^T + RHS = 0`` for symmetric ``RHS``.

    The pencil ``(A, E)`` must be stable.  One LU factorization of ``E``
    (``getrf``) gives ``F = E^{-1} A`` and ``G = E^{-1} RHS E^{-T}``; the
    standard equation ``F P + P F^T + G = 0`` is solved by Bartels-Stewart:
    one real Schur form ``F = Z T Z^T``, whose diagonal carries the real
    parts of the eigenvalues (the stability check, which a singular ``E``
    fails as an unstable pencil), then ``trsyl`` on ``T``.  No n^2-by-n^2
    operator is formed.

    With ``RHS=None`` the factorization is returned instead, as in
    :func:`solve_shifted`: an object whose ``solve(RHS, trans=False)``
    reuses the LU and the Schur form, with ``trans`` for the dual equation
    ``A^T Q E + E^T Q A + RHS = 0``.  Its ``sylvester(RHS, other, trans)``
    runs the same Bartels-Stewart steps on the factors of two pencils,
    ``trsyl`` on ``(T, That)``: the cross blocks of the Gramians of a
    block-diagonal (error) system, O(n^2 r) for a second pencil of order r.
    It returns the solution ungated with the Frobenius norms of its residual
    and of ``RHS``, ``(X, (|R|, |RHS|))``.
    """
    fact = _LyapunovFactor(A, E)
    return fact if RHS is None else fact.solve(RHS)


def solve_saddle(E11, A11, A12, A21, sigma, f, pencil=None):
    """Solve ``[[-sigma E11 - A11, A12], [A21, 0]] [v; xi] = [f; 0]``.

    The solution block ``v`` lies in the kernel of ``A21`` and equals the
    obliquely projected shifted solve used by the projector-free reduction
    iteration.  An ``f`` of ``n_v + n_p`` rows is the whole right-hand side
    ``[f_v; g]``, solving ``A21 v = g`` instead.  With ``f=None`` the saddle
    factorization is returned, as in :func:`solve_shifted` (with ``sigma``
    and ``pencil`` as there).
    """
    fact = _ShiftFactor(E11, A11, sigma, A12, A21, pencil)
    if f is None:
        return fact
    n_v = np.shape(A12)[0]
    z = fact.solve(f)
    return z[:n_v], z[n_v:]


def solve_saddle_adjoint(E11, A11, A12, A21, sigma, g):
    """Solve ``[[(-sigma E11 - A11)^T, A21^T], [A12^T, 0]] [w; xi] = [g; 0]``.

    This is the plain transpose (not conjugated) of the :func:`solve_saddle`
    matrix, matching the transposed Sylvester operator; the solution block
    ``w`` lies in the kernel of ``A12^T``.  A ``g`` of ``n_v + n_p`` rows is
    the whole right-hand side, as in :func:`solve_saddle`.
    """
    n_v = np.shape(A12)[0]
    z = _ShiftFactor(E11, A11, sigma, A12, A21).solve(g, trans=True)
    return z[:n_v], z[n_v:]
