"""Benchmark generation, steady-state shifting, and manifest-based system I/O.

Systems on disk are a JSON manifest plus Matrix Market files.  The Hessian is
stored as its mode-1 unfolding (n rows, n^2 columns).  Absent optional
matrices mean zero, and an absent mass matrix means identity.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .mmio import read_matrix, write_json, write_matrix
from .system_model import QbDaeSystem, QbOdeSystem, ReducedQbSystem
from .tensor_kron import HessianTensor, quadratic_jacobian, symmetrize

__all__ = [
    "gen_burgers",
    "gen_synthetic_dae",
    "steady_state_shift",
    "load_system",
    "save_system",
    "save_reduced",
]


def gen_burgers(n, nu, seed=0):
    """Semi-discretized viscous Burgers equation on (0, 1).

    Central differences on ``n`` interior nodes with homogeneous Dirichlet
    boundaries; the control sets the left boundary value to ``0.05 u(t)``,
    entering row one through the diffusion stencil.  The quadratic term
    encodes ``-v v_x``; the output averages the last quarter of the grid.
    Deterministic; the seed is accepted for interface uniformity.
    """
    if n < 4:
        raise ValueError(f"need at least 4 interior nodes, got {n}")
    if nu <= 0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    del seed
    h = 1.0 / (n + 1)
    s = nu / (h * h)
    A = s * (np.diag(-2.0 * np.ones(n))
             + np.diag(np.ones(n - 1), 1)
             + np.diag(np.ones(n - 1), -1))
    # -v_i (v_{i+1} - v_{i-1}) / (2h), boundary neighbours are zero
    ii, jj, kk, vv = [], [], [], []
    c = 1.0 / (2.0 * h)
    for i in range(n):
        if i + 1 < n:
            ii.append(i); jj.append(i); kk.append(i + 1); vv.append(-c)
        if i - 1 >= 0:
            ii.append(i); jj.append(i); kk.append(i - 1); vv.append(c)
    H = symmetrize(HessianTensor(n, ii, jj, kk, vv))
    B = np.zeros((n, 1))
    B[0, 0] = 0.05 * s
    q = max(1, n // 4)
    C = np.zeros((1, n))
    C[0, n - q:] = 1.0 / q
    return QbOdeSystem(E=np.eye(n), A=A, H=H, N=(np.zeros((n, n)),), B=B, C=C)


def _dae_finite_abscissa(E11, A11, A12, A21):
    n_v, n_p = A12.shape
    Eb = np.zeros((n_v + n_p, n_v + n_p))
    Eb[:n_v, :n_v] = E11
    Ab = np.block([[A11, A12], [A21, np.zeros((n_p, n_p))]])
    w = la.eigvals(Ab, Eb)
    finite = w[np.isfinite(w)]
    finite = finite[np.abs(finite) < 1e10]
    if finite.size == 0:
        return np.inf
    return float(finite.real.max())


def gen_synthetic_dae(n_v, n_p, m=2, p=2, seed=0, quad_scale=0.1,
                      symmetric=False, with_c2=False, with_b2=False):
    """Random index-2 quadratic-bilinear descriptor system.

    ``E11`` is SPD tridiagonal, ``A11`` is a negative-definite-symmetric-part
    matrix plus a skew perturbation, and the sparse Hessian is symmetrized
    and scaled to Frobenius norm ``quad_scale``.  ``symmetric`` sets
    ``A21 = A12^T`` (transposed projectors); otherwise ``A21`` is a noisily
    perturbed transpose, which keeps the constrained spectrum stable while
    making the projectors genuinely oblique.  Draws are retried on rank
    defects or an unstable constrained spectrum.
    """
    if not 0 < n_p < n_v / 2:
        raise ValueError(f"need 0 < n_p < n_v/2, got n_p={n_p}, n_v={n_v}")
    last_err = "exhausted retries"
    for attempt in range(5):
        rng = np.random.default_rng([seed, attempt])
        d = 2.0 + rng.uniform(0.0, 1.0, n_v)
        off = rng.uniform(0.2, 0.5, n_v - 1)
        E11 = np.diag(d) + np.diag(off, 1) + np.diag(off, -1)
        ds = 2.0 + rng.uniform(0.0, 1.0, n_v)
        offs = rng.uniform(0.2, 0.5, n_v - 1)
        M = np.diag(ds) + np.diag(offs, 1) + np.diag(offs, -1)
        K = rng.standard_normal((n_v, n_v))
        A11 = -M + 0.2 * (K - K.T)
        A12 = rng.standard_normal((n_v, n_p))
        if symmetric:
            A21 = A12.T.copy()
        else:
            A21 = A12.T + 0.35 * rng.standard_normal((n_p, n_v))
        if (np.linalg.matrix_rank(A12) < n_p
                or np.linalg.matrix_rank(A21) < n_p):
            last_err = "coupling blocks rank deficient"
            continue
        S = A21 @ la.solve(E11, A12)
        sv = la.svdvals(S)
        if sv[-1] <= 1e-10 * max(sv[0], 1.0):
            last_err = "singular Schur complement"
            continue
        abscissa = _dae_finite_abscissa(E11, A11, A12, A21)
        if abscissa >= -1e-6:
            last_err = f"unstable constrained spectrum (abscissa {abscissa:.3e})"
            continue
        nnz = 3 * n_v
        if quad_scale > 0:
            ii = rng.integers(0, n_v, nnz)
            jj = rng.integers(0, n_v, nnz)
            kk = rng.integers(0, n_v, nnz)
            vv = rng.standard_normal(nnz)
            H = symmetrize(HessianTensor(n_v, ii, jj, kk, vv))
            hn = np.sqrt(float((H._v ** 2).sum()))
            H = HessianTensor(n_v, H._i, H._j, H._k,
                              H._v * (quad_scale / hn), symmetric=True)
        else:
            H = HessianTensor.zero(n_v)
        N = []
        for _ in range(m):
            Nk = np.zeros((n_v, n_v))
            idx = rng.integers(0, n_v, (2 * n_v, 2))
            Nk[idx[:, 0], idx[:, 1]] += 0.1 * rng.standard_normal(2 * n_v)
            N.append(Nk)
        B1 = rng.standard_normal((n_v, m))
        C1 = rng.standard_normal((p, n_v))
        C2 = 0.5 * rng.standard_normal((p, n_p)) if with_c2 else np.zeros((p, n_p))
        B2 = 0.3 * rng.standard_normal((n_p, m)) if with_b2 else np.zeros((n_p, m))
        return QbDaeSystem(
            E11=E11, A11=A11, A12=A12, A21=A21, H=H, N=tuple(N),
            B1=B1, B2=B2, C1=C1, C2=C2, v0=np.zeros(n_v),
        )
    raise RuntimeError(f"could not draw a valid descriptor system: {last_err}")


def steady_state_shift(sys, v_s, p_s):
    """Rewrite the dynamics in the deviation variable ``v_delta = v - v_s``.

    ``(v_s, p_s)`` must be an equilibrium of the unforced system with
    ``A21 v_s = 0``.  The shifted system has ``A11 + X`` with
    ``X = H(v_s kron I + I kron v_s)``, input columns corrected by
    ``N_k v_s``, the same Hessian, and ``v0 = 0``; its outputs are deviations
    from the steady output.
    """
    v_s = np.asarray(v_s, dtype=float).ravel()
    p_s = np.asarray(p_s, dtype=float).ravel()
    cres = np.linalg.norm(sys.A21 @ v_s)
    if cres > 1e-10 * (1.0 + np.linalg.norm(v_s)):
        raise ValueError(
            f"steady state violates the constraint: |A21 v_s| = {cres:.3e}"
        )
    X = quadratic_jacobian(sys.H, v_s)
    B_shift = sys.B1 + np.column_stack([Nk @ v_s for Nk in sys.N])
    return QbDaeSystem(
        E11=sys.E11, A11=sys.A11 + X, A12=sys.A12, A21=sys.A21,
        H=sys.H, N=sys.N, B1=B_shift, B2=sys.B2,
        C1=sys.C1, C2=sys.C2, v0=np.zeros(sys.n_v),
    )


# -- manifest I/O -----------------------------------------------------------


def _dense(M):
    return np.asarray(M.todense()) if sp.issparse(M) else np.asarray(M)


def save_system(sys, outdir):
    """Write a manifest plus Matrix Market files; returns the manifest path.

    Identity mass matrices and all-zero optional matrices are omitted from
    the manifest.
    """
    os.makedirs(outdir, exist_ok=True)

    def put(name, M, sparse=False):
        fname = f"{name}.mtx"
        write_matrix(os.path.join(outdir, fname),
                     sp.csr_matrix(M) if sparse and not sp.issparse(M) else M)
        return fname

    if isinstance(sys, QbOdeSystem):
        matrices = {"A": put("A", sys.A), "H": put("H", sys.H.mode1, sparse=True),
                    "B": put("B", sys.B), "C": put("C", sys.C)}
        if not np.array_equal(sys.E, np.eye(sys.n)):
            matrices["E"] = put("E", sys.E)
        if any(Nk.any() for Nk in sys.N):
            matrices["N"] = [put(f"N{k + 1}", Nk) for k, Nk in enumerate(sys.N)]
        manifest = {
            "type": "ode",
            "dims": {"n": sys.n, "m": sys.m, "p": sys.p},
            "matrices": matrices,
            "v0": None,
        }
    elif isinstance(sys, QbDaeSystem):
        matrices = {
            "E11": put("E11", sys.E11), "A11": put("A11", sys.A11),
            "A12": put("A12", sys.A12), "A21": put("A21", sys.A21),
            "H": put("H", sys.H.mode1, sparse=True),
            "B1": put("B1", sys.B1), "C1": put("C1", sys.C1),
        }
        if any(Nk.any() for Nk in sys.N):
            matrices["N"] = [put(f"N{k + 1}", Nk) for k, Nk in enumerate(sys.N)]
        if sys.B2.any():
            matrices["B2"] = put("B2", sys.B2)
        if sys.C2.any():
            matrices["C2"] = put("C2", sys.C2)
        v0_entry = put("v0", sys.v0.reshape(-1, 1)) if sys.v0.any() else None
        manifest = {
            "type": "dae",
            "dims": {"n_v": sys.n_v, "n_p": sys.n_p, "m": sys.m, "p": sys.p},
            "matrices": matrices,
            "v0": v0_entry,
        }
    else:
        raise TypeError(f"cannot save object of type {type(sys).__name__}")
    path = os.path.join(outdir, "manifest.json")
    write_json(path, manifest)
    return path


def save_reduced(red, outdir):
    """Write a reduced model: core realization plus corrections and bases."""
    os.makedirs(outdir, exist_ok=True)

    def put(name, M):
        fname = f"{name}.mtx"
        write_matrix(os.path.join(outdir, fname), M)
        return fname

    matrices = {
        "E": put("E", red.Ehat), "A": put("A", red.Ahat),
        "H": put("H", sp.csr_matrix(red.Hhat)),
        "B": put("B", red.Bhat), "C": put("C", red.Chat),
        "V": put("V", red.V), "W": put("W", red.W),
    }
    nlist = [put(f"N{k + 1}", Nk) for k, Nk in enumerate(red.Nhat)]
    if nlist:
        matrices["N"] = nlist
    if red.CHhat.any():
        matrices["CH"] = put("CH", sp.csr_matrix(red.CHhat))
    if any(Mk.any() for Mk in red.CNhat):
        matrices["CN"] = [put(f"CN{k + 1}", Mk)
                          for k, Mk in enumerate(red.CNhat)]
    if red.Dhat.any():
        matrices["D"] = put("D", red.Dhat)
    manifest = {
        "type": "reduced",
        "dims": {"r": red.r, "m": red.m, "p": red.p,
                 "n_full": int(red.V.shape[0])},
        "matrices": matrices,
        "v0": None,
    }
    path = os.path.join(outdir, "manifest.json")
    write_json(path, manifest)
    return path


def _load_entry(base, matrices, key, shape=None, required=False):
    entry = matrices.get(key)
    if entry is None:
        if required:
            raise ValueError(f"manifest is missing required matrix {key!r}")
        if shape is None:
            return None
        return np.zeros(shape)
    M = read_matrix(os.path.join(base, entry))
    got = M.shape
    if shape is not None and got != shape:
        raise ValueError(
            f"dimension clash for {key!r}: manifest dims imply {shape}, "
            f"file {entry!r} holds {got}"
        )
    return M


def load_system(manifest_path):
    """Load a system from a manifest; returns the matching typed realization."""
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"manifest not found: {manifest_path}") from None
    base = os.path.dirname(os.path.abspath(manifest_path))
    kind = manifest.get("type")
    dims = manifest.get("dims", {})
    matrices = manifest.get("matrices", {})

    def n_files(count, shape):
        files = matrices.get("N", [])
        out = []
        for f in files:
            M = read_matrix(os.path.join(base, f))
            if M.shape != shape:
                raise ValueError(
                    f"dimension clash for N entry {f!r}: expected {shape}, "
                    f"got {M.shape}"
                )
            out.append(_dense(M))
        while len(out) < count:
            out.append(np.zeros(shape))
        return tuple(out)

    if kind == "ode":
        n, m, p = dims["n"], dims["m"], dims["p"]
        E = _load_entry(base, matrices, "E", (n, n))
        if not matrices.get("E"):
            E = np.eye(n)
        A = _dense(_load_entry(base, matrices, "A", (n, n), required=True))
        H = _load_entry(base, matrices, "H", (n, n * n), required=True)
        B = _dense(_load_entry(base, matrices, "B", (n, m), required=True))
        C = _dense(_load_entry(base, matrices, "C", (p, n), required=True))
        return QbOdeSystem(E=_dense(E), A=A, H=HessianTensor.from_mode1(H),
                           N=n_files(m, (n, n)), B=B, C=C)
    if kind == "dae":
        n_v, n_p = dims["n_v"], dims["n_p"]
        m, p = dims["m"], dims["p"]
        E11 = _dense(_load_entry(base, matrices, "E11", (n_v, n_v), required=True))
        A11 = _dense(_load_entry(base, matrices, "A11", (n_v, n_v), required=True))
        A12 = _dense(_load_entry(base, matrices, "A12", (n_v, n_p), required=True))
        A21 = _dense(_load_entry(base, matrices, "A21", (n_p, n_v), required=True))
        H = _load_entry(base, matrices, "H", (n_v, n_v * n_v), required=True)
        B1 = _dense(_load_entry(base, matrices, "B1", (n_v, m), required=True))
        B2 = _dense(_load_entry(base, matrices, "B2", (n_p, m)))
        C1 = _dense(_load_entry(base, matrices, "C1", (p, n_v), required=True))
        C2 = _dense(_load_entry(base, matrices, "C2", (p, n_p)))
        v0 = np.zeros(n_v)
        if manifest.get("v0"):
            v0 = _dense(read_matrix(os.path.join(base, manifest["v0"]))).ravel()
            if v0.size != n_v:
                raise ValueError(
                    f"dimension clash for v0: expected length {n_v}, got {v0.size}"
                )
        return QbDaeSystem(E11=E11, A11=A11, A12=A12, A21=A21,
                           H=HessianTensor.from_mode1(H), N=n_files(m, (n_v, n_v)),
                           B1=B1, B2=B2, C1=C1, C2=C2, v0=v0)
    if kind == "reduced":
        r, m, p = dims["r"], dims["m"], dims["p"]
        n_full = dims.get("n_full", r)
        E = _dense(_load_entry(base, matrices, "E", (r, r), required=True))
        A = _dense(_load_entry(base, matrices, "A", (r, r), required=True))
        H = _dense(_load_entry(base, matrices, "H", (r, r * r), required=True))
        B = _dense(_load_entry(base, matrices, "B", (r, m), required=True))
        C = _dense(_load_entry(base, matrices, "C", (p, r), required=True))
        V = _dense(_load_entry(base, matrices, "V", (n_full, r), required=True))
        W = _dense(_load_entry(base, matrices, "W", (n_full, r), required=True))
        CH = _dense(_load_entry(base, matrices, "CH", (p, r * r)))
        D = _dense(_load_entry(base, matrices, "D", (p, m)))
        cn_files = matrices.get("CN", [])
        CN = [
            _dense(read_matrix(os.path.join(base, f))) for f in cn_files
        ]
        while len(CN) < m:
            CN.append(np.zeros((p, r)))
        return ReducedQbSystem(
            Ehat=E, Ahat=A, Hhat=H, Nhat=n_files(m, (r, r)), Bhat=B, Chat=C,
            V=V, W=W, CHhat=CH, CNhat=tuple(CN), Dhat=D,
        )
    raise ValueError(f"unknown system type {kind!r} in {manifest_path}")
