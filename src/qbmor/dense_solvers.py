"""Dense linear-algebra backends.

Generalized pencil eigendecomposition, shifted and saddle-point solves (one
factorization per shift serves plain and transposed solves; a system whose
pattern is narrow is factored in LAPACK band storage, any other dense), and
generalized Lyapunov solves (Bartels-Stewart on the pencil reduced by one LU
of the mass matrix).  Every LU is one raw ``getrf`` or ``gbtrf``, and every
pencil eigensolve one ``ggev``, from ``get_lapack_funcs``: its ``info`` is
checked first, so a zero pivot (before any triangular solve) or a failed QZ
raises :class:`SolverError`, never a warning.  Every solver computes the
residual of its own output, raises :class:`ResidualError` past the stated
bound, and reports it to any active :func:`record_residuals` context.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
import scipy.linalg as la
from scipy.linalg.blas import get_blas_funcs

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
    """A dense solve failed (singularity, instability, defectiveness)."""


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


def _note(tag, value):
    if _SINKS:
        for sink in _SINKS:
            sink.append((tag, float(value)))


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


class _Band(NamedTuple):
    """A band of ``kl`` sub- and ``ku`` superdiagonals in LAPACK band storage.

    The package's one band layout, that of ``gbtrf`` and ``gbsv``: entry
    ``(i, j)`` is at :meth:`row` of column ``j`` of a Fortran ``(rows, cols)``
    array whose first ``kl`` rows, zero until a factorization fills them in,
    :meth:`matvec` reads as more superdiagonals.  :meth:`fit` is the one rule
    that picks band over dense storage, here and in :mod:`qbmor.simulate`.
    A ``(kl, ku)`` tuple compares and hashes equal to its band.
    """

    kl: int
    ku: int

    @staticmethod
    def diagonals(M, at=(0, 0)):
        """Offsets ``i - j`` of the nonzeros of ``M`` placed with its top left at ``at``."""
        i, j = np.nonzero(M)
        return i - j + (at[0] - at[1])

    @classmethod
    def fit(cls, size, offsets):
        """The band holding the diagonal ``offsets`` of a ``size``-row matrix.

        ``None`` when the band is wide, spanning more than half the columns.
        """
        off = np.concatenate(offsets)
        kl, ku = int(off.max(initial=0)), int(-off.min(initial=0))
        return cls(kl, ku) if 2 * (kl + ku + 1) <= size else None

    @property
    def rows(self):
        return 2 * self.kl + self.ku + 1

    def row(self, i, j):
        """The storage row of entry ``(i, j)``, in column ``j``."""
        return self.kl + self.ku + i - j

    def store(self, M, cols, at=(0, 0), out=None):
        """The nonzeros of ``M``, placed at ``at``, scattered into band storage.

        A new zeroed ``(rows, cols)`` array, or ``out``.
        """
        if out is None:
            out = np.zeros((self.rows, cols), dtype=np.result_type(M, float), order="F")
        i, j = np.nonzero(M)
        out[self.row(at[0] + i, at[1] + j), at[1] + j] = M[i, j]
        return out

    def matvec(self, gbmv, M, x, alpha=1.0, **kwargs):
        """``alpha M x`` by ``gbmv``, of ``M``'s type, with its further options in ``kwargs``."""
        n = M.shape[1]
        return gbmv(n, n, self.kl, self.kl + self.ku, alpha, M, x, **kwargs)

    def residual(self, gbmv, M, b, z, trans=0):
        """``b - M z`` (``M^T`` with ``trans = 1``) in a Fortran copy of ``b``, by columns."""
        rows = M.shape[1]
        r = np.array(b, dtype=np.result_type(b, z), order="F")
        r_flat = r.reshape(-1, order="F")
        z_flat = np.asfortranarray(z).reshape(-1, order="F")
        for off in range(0, r_flat.size, rows):
            self.matvec(gbmv, M, z_flat, -1.0, offx=off, beta=1.0, y=r_flat, offy=off,
                        overwrite_y=True, trans=trans)
        return r


class _ShiftPencil:
    """The shifted or saddle matrices ``M(sigma) = -sigma E - S`` of one system.

    ``M(sigma)`` is ``-sigma E - A`` or, with constraint blocks, the saddle
    matrix ``[[-sigma E - A, A12], [A21, 0]]``: ``E`` zero-padded and ``S =
    [[A, -A12], [-A21, 0]]``.  The union pattern of the blocks, measured once
    here, alone picks the one storage of ``E`` and ``S``: band when narrow
    (:meth:`_Band.fit`), so each shift costs O(band * rows), else dense.
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
        self.band = _Band.fit(rows, [_Band.diagonals(M, at) for M, at in [(E, (0, 0))] + blocks])
        if self.band is not None:
            self._E, self._S = self.band.store(E, rows), None
            for M, at in blocks:
                self._S = self.band.store(M, rows, at, self._S)
        else:
            Z = np.zeros((rows - n, rows - n))
            self._E = la.block_diag(E, Z) if self.saddle else E
            self._S = np.block([[A, -A12], [-A21, Z]]) if self.saddle else A

    def matrix(self, sigma):
        """``M(sigma)``, dense ``(rows, rows)`` or in :class:`_Band` storage."""
        return -sigma * self._E - self._S


class _ShiftFactor:
    """One shifted or saddle matrix ``M``, formed once per shift, and its LU.

    ``M`` is ``-sigma E - A`` or, with constraint blocks, the saddle matrix
    ``[[-sigma E - A, A12], [A21, 0]]``, stored as its ``pencil``
    (:class:`_ShiftPencil`, measured here when not given) picks: dense and
    factored by ``getrf``, or as a band factored by ``gbtrf`` on a copy,
    which forms no n-by-n array; a zero pivot raises :class:`SolverError`.
    The storage binds the triangular solve and the residual once, here.
    ``solve(rhs, trans)`` solves with ``M`` or its plain (unconjugated)
    transpose, refined once, and gates the residual ``rhs - M z``, taken
    against the stored ``M`` (by ``gbmv`` for a band), over the whole
    right-hand side; ``rhs`` has ``n + n_p`` rows or ``n``, zero-padded over
    the constraint rows.  A shift with zero imaginary part is factored in
    real arithmetic; complex right-hand sides are then solved as real views
    with twice the columns, so no complex copy of ``M`` or its LU is made.
    """

    def __init__(self, E, A, sigma, A12=None, A21=None, pencil=None):
        if sigma.imag == 0:
            sigma = sigma.real
        if pencil is None:
            pencil = _ShiftPencil(E, A, A12, A21)
        elif any(p is not q for p, q in zip(pencil.source, (E, A, A12, A21))):
            raise ValueError("pencil was measured from other matrices")
        self.sigma, self.saddle, self.n = sigma, pencil.saddle, pencil.n
        self.M = M = pencil.matrix(sigma)
        self.band = band = pencil.band
        if band is None:
            getrf, getrs = la.get_lapack_funcs(("getrf", "getrs"), (M,))
            lu, piv, info = getrf(M)
            self._trs = partial(getrs, lu, piv)
            self._residual = lambda b, z, t: b - (M.T if t else M) @ z
        else:
            gbtrf, gbtrs = la.get_lapack_funcs(("gbtrf", "gbtrs"), (M,))
            gbmv, = get_blas_funcs(("gbmv",), (M,))
            lu, piv, info = gbtrf(M, band.kl, band.ku)
            self._trs = partial(gbtrs, lu, band.kl, band.ku, ipiv=piv)
            self._residual = partial(band.residual, gbmv, M)
        if info:
            # an exactly zero pivot: a triangular solve would divide by it
            raise SolverError(self._failure())
        self.lu = (lu, piv)

    def _failure(self):
        if self.saddle:
            return f"singular saddle matrix at sigma={self.sigma}"
        return f"shift collides with spectrum (sigma={self.sigma})"

    def solve(self, rhs, trans=False):
        """Solution of ``M z = rhs`` (``M^T`` with ``trans``), refined once."""
        b = np.asarray(rhs)
        n, rows = self.n, self.M.shape[1]
        if b.shape[0] != rows:
            if b.shape[0] != n:
                raise ValueError(f"right-hand side has {b.shape[0]} rows, "
                                 f"expected {n} or {rows}")
            b = np.concatenate([b, np.zeros((rows - n,) + b.shape[1:], dtype=b.dtype)])
        t = 1 if trans else 0
        shape, split = b.shape, np.iscomplexobj(b) and not np.iscomplexobj(self.M)
        if split:
            b = np.ascontiguousarray(b.reshape(rows, -1)).view(float)
        z = self._trs(b, trans=t)[0]
        # a pivot too small for the data overflows here; stop before any product with it
        if not np.all(np.isfinite(z)):
            raise SolverError(self._failure())
        z = z + self._trs(self._residual(b, z, t), trans=t)[0]
        r = self._residual(b, z, t)
        res = _fro(r) / max(_fro(b), _TINY)
        # each gate reads ``not res <= tol``, so that a NaN residual fails it
        if not res <= (SADDLE_TOL if self.saddle else SHIFTED_TOL):
            raise ResidualError(
                f"saddle solve residual {res:.3e} exceeds {SADDLE_TOL:.0e} at sigma={self.sigma}"
                if self.saddle else
                f"{self._failure()}: relative residual {res:.3e} exceeds {SHIFTED_TOL:.0e}")
        # the constraint rows on their own, relative to z's top block or their rhs
        cres = (_fro(r[n:]) / max(_fro(z[:n]), _fro(b[n:]), _TINY)
                if self.saddle else 0.0)
        if not cres <= SADDLE_TOL:
            raise ResidualError(f"saddle constraint residual {cres:.3e} exceeds {SADDLE_TOL:.0e}")
        _note("saddle" if self.saddle else "shifted", max(res, cres))
        if split:
            z = np.ascontiguousarray(z).view(complex).reshape(shape)
        return z


def solve_shifted(E, A, sigma, rhs, pencil=None):
    """Solve ``(-sigma E - A) Z = rhs`` with one step of iterative refinement.

    With ``rhs=None`` the factorization is returned instead: an object whose
    ``solve(rhs, trans=False)`` reuses the matrix, formed once, and its LU
    for plain and transposed solves, gated on the residual against that
    matrix; a real ``sigma`` solves complex ``rhs`` as real views.  The
    pattern of ``E`` and ``A`` picks band (``gbtrf``/``gbtrs``) or dense
    (``getrf``/``getrs``) storage; ``pencil``, a :class:`_ShiftPencil` of
    the same ``E`` and ``A`` arrays (any others raise ``ValueError``),
    carries that choice from an earlier measurement, so a reduction
    measures its system once for all shifts.
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
    factorization is returned, as in :func:`solve_shifted`: the saddle matrix
    is formed once, in the storage its pattern picks (``pencil`` carries
    that choice, as there), and the residual of every solve is taken
    against it.
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
