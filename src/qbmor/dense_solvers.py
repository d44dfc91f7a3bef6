"""Dense linear-algebra backends.

Generalized pencil eigendecomposition, shifted and saddle-point solves
(one factorization per shift serves plain and transposed solves),
diagonal-shift Sylvester solves, and generalized Lyapunov solves
(Bartels-Stewart on the pencil reduced by one LU of the mass matrix).
Every solver computes the residual of its own output, raises
:class:`ResidualError` when the stated bound is exceeded, and reports the
value to any active :func:`record_residuals` context.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la

__all__ = [
    "SolverError",
    "ResidualError",
    "SpectralFactorization",
    "record_residuals",
    "pencil_eig",
    "solve_shifted",
    "solve_sylvester",
    "solve_lyapunov",
    "solve_saddle",
    "solve_saddle_adjoint",
    "conjugate_pairs",
    "realify_paired_columns",
]

# residual bounds (relative, Frobenius)
SHIFTED_TOL = 1e-10
SYLVESTER_TOL = 1e-9
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


@contextmanager
def _quiet_singular():
    """Silence LU warnings on deliberately probed near-singular systems."""
    with warnings.catch_warnings(), np.errstate(invalid="ignore", over="ignore"):
        warnings.simplefilter("ignore", la.LinAlgWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@dataclass(frozen=True)
class SpectralFactorization:
    """Factors with ``X @ Ahat @ Y = diag(eigenvalues)`` and ``X @ Ehat @ Y = I``.

    Eigenvalues are sorted ascending by (real, imag); for real input pencils
    complex eigenvalues occur in exactly conjugate pairs and the paired
    eigenvector columns are exact conjugates.
    """

    X: np.ndarray
    Y: np.ndarray
    eigenvalues: np.ndarray


def conjugate_pairs(lam, tol=1e-8):
    """Partition shifts into real indices and conjugate pairs.

    Returns ``(real_indices, pairs)`` where each pair is ``(neg, pos)`` with
    ``Im(lam[neg]) < 0 < Im(lam[pos])``, or ``None`` if some complex shift
    has no conjugate partner within tolerance.
    """
    lam = np.asarray(lam, dtype=complex)
    used = np.zeros(lam.size, dtype=bool)
    real_idx, pairs = [], []
    for idx in range(lam.size):
        if used[idx]:
            continue
        li = lam[idx]
        scale = 1.0 + abs(li)
        if abs(li.imag) <= tol * scale:
            real_idx.append(idx)
            used[idx] = True
            continue
        best, bestd = -1, np.inf
        for jdx in range(lam.size):
            if used[jdx] or jdx == idx:
                continue
            d = abs(lam[jdx] - li.conjugate())
            if d < bestd:
                best, bestd = jdx, d
        if best < 0 or bestd > tol * scale:
            return None
        used[idx] = used[best] = True
        neg, pos = (idx, best) if li.imag < 0 else (best, idx)
        pairs.append((neg, pos))
    return real_idx, pairs


def realify_paired_columns(lam, M):
    """Replace conjugate column pairs of ``M`` by (real part, imaginary part).

    ``lam`` must be conjugate-closed; the column of the negative-imaginary
    member supplies both parts, so the real span of the result equals the
    complex span of the original pair.  Real-shift columns keep their real
    part.
    """
    split = conjugate_pairs(lam)
    if split is None:
        raise ValueError("shift set is not closed under conjugation")
    real_idx, pairs = split
    M = np.asarray(M)
    out = np.empty(M.shape, dtype=float)
    for idx in real_idx:
        out[:, idx] = M[:, idx].real
    for neg, pos in pairs:
        out[:, neg] = M[:, neg].real
        out[:, pos] = M[:, neg].imag
    return out


def _canonical_eigenbasis(w, Y):
    """Enforce exact conjugate pairing, fix phases, then sort by (real, imag).

    Sorting after the snap keeps pair members, whose computed real parts can
    differ by roundoff, adjacent and in order.
    """
    split = conjugate_pairs(w)
    if split is None:
        raise SolverError("real pencil produced a non-conjugate spectrum")
    real_idx, pairs = split

    def normalized(y):
        pivot = y[np.argmax(np.abs(y))]
        y = y / pivot
        return y / np.linalg.norm(y)

    w, Y = w.astype(complex), Y.astype(complex)
    for idx in real_idx:
        w[idx] = w[idx].real
        Y[:, idx] = normalized(Y[:, idx].real).astype(complex)
    for neg, pos in pairs:
        w[neg] = complex(w[neg].real, -abs(w[neg].imag))
        w[pos] = w[neg].conjugate()
        Y[:, neg] = normalized(Y[:, neg])
        Y[:, pos] = Y[:, neg].conjugate()
    order = np.lexsort((w.imag, w.real))
    return w[order], Y[:, order]


def _left_inverse(EY):
    """``X`` with ``X @ EY = I``, refined on that (left) residual."""
    r = EY.shape[0]
    lu = la.lu_factor(EY)
    X = la.lu_solve(lu, np.eye(r, dtype=EY.dtype), trans=1).T
    for _ in range(3):
        R = np.eye(r) - X @ EY
        if _fro(R) <= 0.1 * PENCIL_TOL:
            break
        X = X + la.lu_solve(lu, R.T, trans=1).T
    return X


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
        raise ValueError(
            f"pencil matrices must be square and matching, got "
            f"{Ehat.shape} and {Ahat.shape}"
        )
    sing = la.svdvals(Ehat)
    if sing[-1] <= 1e-12 * max(sing[0], 1.0):
        raise SolverError("reduced mass matrix singular")
    w, Y = la.eig(Ahat, Ehat)
    if not np.all(np.isfinite(w)):
        raise SolverError("pencil has non-finite eigenvalues")

    def factor(w, Y):
        w, Y = _canonical_eigenbasis(w, Y)
        try:
            X = _left_inverse(Ehat @ Y)
        except (la.LinAlgError, ValueError) as exc:
            raise SolverError(f"pencil eigenvector matrix singular: {exc}") from exc
        res_a = _fro(X @ Ahat @ Y - np.diag(w)) / max(_fro(Ahat), _TINY)
        res_e = _fro(X @ Ehat @ Y - np.eye(r))
        return w, Y, X, max(res_a, res_e)

    w, Y, X, res = factor(w, Y)
    if res > PENCIL_TOL:
        # refine: the computed basis nearly diagonalizes the pencil, so one
        # more (well-conditioned) eigensolve in that basis cleans up the
        # residual; the basis is made real first so that the refined
        # spectrum of the real pencil stays exactly conjugate-closed
        Yr = realify_paired_columns(w, Y)
        w2, Z = la.eig(_left_inverse(Ehat @ Yr) @ Ahat @ Yr)
        if np.all(np.isfinite(w2)):
            w_r, Y_r, X_r, res_r = factor(w2, Yr @ Z)
            if res_r < res:
                w, Y, X, res = w_r, Y_r, X_r, res_r
    kappa = _fro(X) * _fro(Ehat @ Y)
    tol_eff = max(PENCIL_TOL, 50.0 * np.finfo(float).eps * kappa)
    if not np.isfinite(res) or res > tol_eff:
        raise SolverError(
            f"defective pencil beyond residual tolerance: residual {res:.3e} "
            f"exceeds {tol_eff:.3e} (basis condition ~{kappa:.3e})"
        )
    _note("pencil", res)
    return SpectralFactorization(X=X, Y=Y, eigenvalues=w)


class _ShiftFactor:
    """One shifted or saddle matrix ``M``, formed once per shift, and its LU.

    ``M`` is ``-sigma E - A`` or, with constraint blocks, the saddle matrix
    ``[[-sigma E - A, A12], [A21, 0]]``.  ``solve(rhs, trans)`` solves with
    ``M`` or its plain (unconjugated) transpose, refined once, and gates the
    residual ``rhs - M z``, taken against the stored ``M``, over the whole
    right-hand side; ``rhs`` has ``n + n_p`` rows or ``n``, zero-padded over
    the constraint rows.  A shift with zero imaginary part is factored in
    real arithmetic; complex right-hand sides are then solved as real views
    with twice the columns, so no complex copy of ``M`` or its LU is made.
    """

    def __init__(self, E, A, sigma, A12=None, A21=None):
        if sigma.imag == 0:
            sigma = sigma.real
        self.sigma, self.saddle = sigma, A12 is not None
        M = -sigma * np.asarray(E) - np.asarray(A)
        self.n = M.shape[0]
        if self.saddle:
            n_p = np.shape(A12)[1]
            M = np.block([[M, A12], [A21, np.zeros((n_p, n_p), dtype=M.dtype)]])
        self.M = M
        try:
            with _quiet_singular():
                self.lu = la.lu_factor(M)
        except (la.LinAlgError, ValueError) as exc:
            raise SolverError(f"{self._failure()}: {exc}") from exc
        self._getrs, = la.get_lapack_funcs(("getrs",), (self.lu[0],))

    def _failure(self):
        if self.saddle:
            return f"singular saddle matrix at sigma={self.sigma}"
        return f"shift collides with spectrum (sigma={self.sigma})"

    def solve(self, rhs, trans=False):
        """Solution of ``M z = rhs`` (``M^T`` with ``trans``), refined once."""
        b = np.asarray(rhs)
        n, rows = self.n, self.M.shape[0]
        if b.shape[0] != rows:
            if b.shape[0] != n:
                raise ValueError(f"right-hand side has {b.shape[0]} rows, "
                                 f"expected {n} or {rows}")
            b = np.concatenate([b, np.zeros((rows - n,) + b.shape[1:], dtype=b.dtype)])
        M, t = (self.M.T, 1) if trans else (self.M, 0)
        shape, split = b.shape, np.iscomplexobj(b) and not np.iscomplexobj(M)
        if split:
            b = np.ascontiguousarray(b.reshape(rows, -1)).view(float)
        z = self._getrs(*self.lu, b, trans=t)[0]
        # a singular factor yields inf/nan here; stop before any product with it
        if not np.all(np.isfinite(z)):
            raise SolverError(self._failure())
        z = z + self._getrs(*self.lu, b - M @ z, trans=t)[0]
        r = b - M @ z
        res = _fro(r) / max(_fro(b), _TINY)
        if self.saddle and res > SADDLE_TOL:
            raise ResidualError(
                f"saddle solve residual {res:.3e} exceeds {SADDLE_TOL:.0e} "
                f"at sigma={self.sigma}"
            )
        if not self.saddle and res > SHIFTED_TOL:
            raise ResidualError(
                f"{self._failure()}: relative residual {res:.3e} exceeds "
                f"{SHIFTED_TOL:.0e}"
            )
        # the constraint rows on their own, relative to z's top block or their rhs
        cres = (_fro(r[n:]) / max(_fro(z[:n]), _fro(b[n:]), _TINY)
                if self.saddle else 0.0)
        if cres > SADDLE_TOL:
            raise ResidualError(
                f"saddle constraint residual {cres:.3e} exceeds {SADDLE_TOL:.0e}"
            )
        _note("saddle" if self.saddle else "shifted", max(res, cres))
        if split:
            z = np.ascontiguousarray(z).view(complex).reshape(shape)
        return z


def solve_shifted(E, A, sigma, rhs):
    """Solve ``(-sigma E - A) Z = rhs`` with one step of iterative refinement.

    With ``rhs=None`` the factorization is returned instead: an object whose
    ``solve(rhs, trans=False)`` reuses the matrix, formed once, and its LU
    for plain and transposed solves, gated on the residual against that
    matrix; a real ``sigma`` solves complex ``rhs`` as real views.
    """
    fact = _ShiftFactor(E, A, sigma)
    return fact if rhs is None else fact.solve(rhs)


def _solve_family(solve, RHS, split, trans=False):
    """One column per shift via ``solve(idx, rhs, trans)``, mirroring pairs.

    ``split`` is ``(real_indices, pairs)`` from :func:`conjugate_pairs`; of
    each pair only the negative-imaginary column is solved and its partner
    is the conjugate, exact for conjugate-paired right-hand-side columns.
    """
    V = np.zeros(RHS.shape, dtype=complex)
    real_idx, pairs = split
    for idx in real_idx:
        V[:, idx] = solve(idx, RHS[:, idx], trans)
    for neg, pos in pairs:
        V[:, neg] = solve(neg, RHS[:, neg], trans)
        V[:, pos] = V[:, neg].conjugate()
    return V


def solve_sylvester(E, A, lam, RHS, realify=True):
    """Solve ``-E V diag(lam) - A V = RHS`` column-wise.

    Each column decouples into a shifted solve at ``lam[i]``.  For a
    conjugate-closed shift set with conjugate-paired right-hand-side columns,
    only one member of each pair is solved and the partner is mirrored; with
    ``realify`` the paired columns are then replaced by (real, imaginary)
    parts, so real problem data yields a real ``V`` with unchanged span.
    """
    lam = np.atleast_1d(np.asarray(lam))
    RHS = np.asarray(RHS)
    if RHS.ndim != 2 or RHS.shape[1] != lam.size:
        raise ValueError(
            f"RHS must have one column per shift, got {RHS.shape} for "
            f"{lam.size} shifts"
        )
    split = conjugate_pairs(lam)
    paired_rhs = False
    if split is not None and split[1]:
        paired_rhs = all(
            _fro(RHS[:, pos] - RHS[:, neg].conjugate())
            <= 1e-10 * (_fro(RHS[:, neg]) + _TINY)
            for neg, pos in split[1]
        )

    def column(idx, rhs, trans):
        try:
            return solve_shifted(E, A, lam[idx], rhs)
        except SolverError as exc:
            raise SolverError(f"column {idx}: {exc}") from exc

    # without paired data every column is solved on its own
    V = _solve_family(column, RHS, split if paired_rhs else (range(lam.size), []))
    complex_data = np.iscomplexobj(RHS) or np.iscomplexobj(lam)
    if not complex_data:
        V = V.real.copy()
    res = _fro(-(E @ (V * lam[None, :])) - A @ V - RHS) / max(_fro(RHS), _TINY)
    if res > SYLVESTER_TOL:
        raise ResidualError(
            f"sylvester solve residual {res:.3e} exceeds {SYLVESTER_TOL:.0e}"
        )
    _note("sylvester", res)
    if realify and complex_data and paired_rhs:
        return realify_paired_columns(lam, V)
    return V


class _LyapunovFactor:
    """One LU of ``E`` and one real Schur form ``E^{-1} A = Z T Z^T``.

    Built only for a stable pencil: the diagonal of ``T`` carries the real
    parts of the eigenvalues (standardized 2x2 blocks have the pair's real
    part on the diagonal).  ``solve(RHS, trans)`` reuses both factors for
    ``A P E^T + E P A^T + RHS = 0`` or, with ``trans``, for the dual
    ``A^T Q E + E^T Q A + RHS = 0``.
    """

    def __init__(self, A, E):
        self.A = np.asarray(A, dtype=float)
        self.E = np.asarray(E, dtype=float)
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.E.shape != (n, n):
            raise ValueError("lyapunov operands must be square and matching")
        with _quiet_singular():
            self.lu = la.lu_factor(self.E)
            F = la.lu_solve(self.lu, self.A)
        abscissa = np.inf
        if np.all(np.isfinite(F)):
            self.T, self.Z = la.schur(F, output="real")
            abscissa = float(np.diag(self.T).max())
        if abscissa >= 0.0:
            raise SolverError(
                f"unstable pencil: spectral abscissa {abscissa:.3e} >= 0"
            )

    def solve(self, RHS, trans=False):
        """Symmetric solution for symmetric ``RHS``, gated on its residual."""
        RHS = np.asarray(RHS, dtype=float)
        if RHS.shape != self.A.shape:
            raise ValueError("lyapunov operands must be square and matching")
        asym = _fro(RHS - RHS.T)
        if asym > 1e-10 * max(_fro(RHS), 1.0):
            raise ValueError(f"right-hand side not symmetric (|R - R^T| = {asym:.3e})")
        lu, T, Z = self.lu, self.T, self.Z
        # trsyl solves op(T) Y + Y op(T) = scale * C, scale <= 1 guarding
        # overflow; info = 1 (eigenvalues perturbed) is left to the residual
        # gate below
        if trans:
            # W = E^T Q E solves F^T W + W F + RHS = 0 with F = E^{-1} A
            Y, scale, _ = la.lapack.dtrsyl(T, T, Z.T @ (-RHS @ Z), trana="T")
            W = Z @ (Y / scale) @ Z.T
            X = la.lu_solve(lu, la.lu_solve(lu, W, trans=1).T, trans=1).T
            A, E = self.A.T, self.E.T
        else:
            # F P + P F^T + G = 0 with G = E^{-1} RHS E^{-T}
            G = la.lu_solve(lu, la.lu_solve(lu, RHS).T).T
            Y, scale, _ = la.lapack.dtrsyl(T, T, Z.T @ (-G @ Z), tranb="T")
            X = Z @ (Y / scale) @ Z.T
            A, E = self.A, self.E
        X = 0.5 * (X + X.T)
        res = _fro(A @ X @ E.T + E @ X @ A.T + RHS) / max(_fro(RHS), _TINY)
        if res > LYAPUNOV_TOL:
            raise ResidualError(
                f"lyapunov solve residual {res:.3e} exceeds {LYAPUNOV_TOL:.0e}"
            )
        _note("lyapunov", res)
        return X


def solve_lyapunov(A, E, RHS):
    """Solve ``A P E^T + E P A^T + RHS = 0`` for symmetric ``RHS``.

    The pencil ``(A, E)`` must be stable.  One LU factorization of ``E``
    gives ``F = E^{-1} A`` and ``G = E^{-1} RHS E^{-T}``; the standard
    equation ``F P + P F^T + G = 0`` is solved by Bartels-Stewart: one real
    Schur form ``F = Z T Z^T``, whose diagonal carries the real parts of the
    eigenvalues (the stability check), then ``trsyl`` on ``T``.  No
    n^2-by-n^2 operator is formed.

    With ``RHS=None`` the factorization is returned instead, as in
    :func:`solve_shifted`: an object whose ``solve(RHS, trans=False)``
    reuses the LU and the Schur form, with ``trans`` for the dual equation
    ``A^T Q E + E^T Q A + RHS = 0``.
    """
    fact = _LyapunovFactor(A, E)
    return fact if RHS is None else fact.solve(RHS)


def solve_saddle(E11, A11, A12, A21, sigma, f):
    """Solve ``[[-sigma E11 - A11, A12], [A21, 0]] [v; xi] = [f; 0]``.

    The solution block ``v`` lies in the kernel of ``A21`` and equals the
    obliquely projected shifted solve used by the projector-free reduction
    iteration.  An ``f`` of ``n_v + n_p`` rows is the whole right-hand side
    ``[f_v; g]``, solving ``A21 v = g`` instead.  With ``f=None`` the saddle
    factorization is returned, as in :func:`solve_shifted`: the saddle matrix
    is formed once and the residual of every solve is taken against it.
    """
    fact = _ShiftFactor(E11, A11, sigma, A12, A21)
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
