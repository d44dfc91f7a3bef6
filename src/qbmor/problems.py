"""Benchmark generation, steady-state shifting, and manifest-based system I/O.

Systems on disk are a JSON manifest plus Matrix Market files.  Each manifest
type (``ode``, ``dae`` and ``reduced``) is one realization class of
:mod:`system_model`, and ``_FORMAT`` reads the files of that type, their
shapes and the meaning of an absent entry off the class's ``FIELDS`` table;
:func:`save_system` and :func:`load_system` both follow it.  Hessians are
stored as their mode-1 unfolding (n rows, n^2 columns).
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from .mmio import read_matrix, write_json, write_matrix
from .system_model import EACH, IDENTITY, REQUIRED, ZERO, field_dims, field_shape
from .system_model import QbDaeSystem, QbOdeSystem, ReducedQbSystem
from .tensor_kron import HessianTensor, quadratic_jacobian, symmetrize

__all__ = [
    "gen_burgers",
    "gen_synthetic_dae",
    "steady_state_shift",
    "load_system",
    "save_system",
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
    if not 0 < nu < np.inf:
        raise ValueError(f"viscosity must be positive and finite, got {nu}")
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
    H = HessianTensor(n, ii, jj, kk, vv)
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
    making the projectors genuinely oblique.  Draws are retried on an
    unstable constrained spectrum or when :class:`QbDaeSystem` rejects them
    (rank defects, a singular Schur complement).
    """
    if not 0 < n_p < n_v / 2:
        raise ValueError(f"need 0 < n_p < n_v/2, got n_p={n_p}, n_v={n_v}")
    for name, count in (("m", m), ("p", p)):
        if count < 1:
            raise ValueError(f"need {name} >= 1, got {name}={count}")
    if not 0 <= quad_scale < np.inf:
        raise ValueError(f"quad_scale must be non-negative and finite, got {quad_scale}")
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
        try:
            return QbDaeSystem(
                E11=E11, A11=A11, A12=A12, A21=A21, H=H, N=tuple(N),
                B1=B1, B2=B2, C1=C1, C2=C2, v0=np.zeros(n_v),
            )
        except ValueError as exc:
            last_err = str(exc)
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

# Every manifest type as (class, dims, rows), read off the class's FIELDS table:
# a row is (manifest key, dataclass field, shape in dims, rule), the key being
# the field name without "hat".  Absent entries take the value the rule gives;
# EACH (one file per input) pads trailing inputs with zeros.  ``v0`` is a
# top-level key.
_FORMAT = {
    kind: (cls, field_dims(cls.FIELDS),
           tuple((name.removesuffix("hat"), name, axes, rule)
                 for name, axes, rule in cls.FIELDS))
    for kind, cls in (("ode", QbOdeSystem), ("dae", QbDaeSystem),
                      ("reduced", ReducedQbSystem))
}
# Hessian unfoldings are written in coordinate format, everything else dense.
_COORDINATE = ("H", "CH")


def save_system(sys, outdir):
    """Write an ODE, descriptor or reduced system; returns the manifest path.

    ``outdir`` receives ``manifest.json`` plus one Matrix Market file per
    stored matrix.  Matrices equal to what their absence means are left out:
    an identity mass matrix, all-zero optional matrices, and per-input lists
    whose matrices are all zero.
    """
    for kind, (cls, dim_names, rows) in _FORMAT.items():
        if isinstance(sys, cls):
            break
    else:
        raise TypeError(f"cannot save object of type {type(sys).__name__}")
    dims = {name: getattr(sys, name) for name in dim_names}
    manifest = {"type": kind, "dims": dims, "matrices": {}, "v0": None}
    os.makedirs(outdir, exist_ok=True)
    for key, field, axes, rule in rows:
        value = getattr(sys, field)
        if isinstance(value, HessianTensor):
            value = value.mode(1)
        mats = value if rule == EACH else (value,)
        if (rule == IDENTITY and np.array_equal(value, np.eye(len(value)))
                or rule in (ZERO, EACH) and not any(M.any() for M in mats)):
            continue
        names = [f"{key}{k + 1}.mtx" if rule == EACH else f"{key}.mtx"
                 for k in range(len(mats))]
        for name, M in zip(names, mats):
            write_matrix(os.path.join(outdir, name),
                         sp.csr_matrix(M) if key in _COORDINATE
                         else np.reshape(M, field_shape(axes, dims)))
        (manifest if key == "v0" else manifest["matrices"])[key] = (
            names if rule == EACH else names[0])
    path = os.path.join(outdir, "manifest.json")
    write_json(path, manifest)
    return path


def load_system(manifest_path):
    """Load the system a manifest describes as its typed realization.

    The manifest must be an object with a known ``type``; ``dims`` and
    ``matrices`` must be objects, each dim of the type a positive integer,
    each entry a file name (a list of them for per-input keys), and each file
    must hold the shape the dims imply.  A violation raises ``ValueError``
    naming the manifest and the key.  A reduced manifest without ``n_full``
    has ``n_full = r``.
    """
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"manifest not found: {manifest_path}") from None

    def fail(msg):
        raise ValueError(f"{manifest_path}: {msg}")

    if not isinstance(manifest, dict):
        fail("manifest must be a JSON object")
    kind = manifest.get("type")
    if not isinstance(kind, str) or kind not in _FORMAT:
        raise ValueError(f"unknown system type {kind!r} in {manifest_path}")
    cls, dim_names, rows = _FORMAT[kind]
    dims, matrices = manifest.get("dims", {}), manifest.get("matrices", {})
    for key, value in (("dims", dims), ("matrices", matrices)):
        if not isinstance(value, dict):
            fail(f"manifest key {key!r} must be an object, got {value!r}")
    dims = {"n_full": dims.get("r"), **dims}   # n_full = r unless stated
    for name in dim_names:
        if name not in dims:
            fail(f"manifest is missing dims {name!r}")
        if type(dims[name]) is not int or dims[name] < 1:
            fail(f"dims {name!r} must be a positive integer, got {dims[name]!r}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    fields = {}
    for key, field, axes, rule in rows:
        entry = (manifest if key == "v0" else matrices).get(key)
        names = [] if entry is None else entry if rule == EACH else [entry]
        if not (isinstance(names, list)
                and all(isinstance(name, str) and name for name in names)):
            what = "a list of file names" if rule == EACH else "a file name"
            fail(f"manifest entry {key!r} must be {what}, got {entry!r}")
        count = dims["m"] if rule == EACH else 1
        if len(names) > count:
            fail(f"manifest lists {len(names)} {key} files for {count} inputs")
        if rule == REQUIRED and not names:
            fail(f"manifest is missing required matrix {key!r}")
        shape, mats = field_shape(axes, dims), []
        for name in names:
            M = read_matrix(os.path.join(base, name))
            if M.shape != shape:
                fail(f"dimension clash for {key} entry {name!r}: expected {shape}, "
                     f"got {M.shape}")
            mats.append(M)
        mats += [np.eye(*shape) if rule == IDENTITY else np.zeros(shape)
                 for _ in range(count - len(mats))]
        fields[field] = tuple(mats) if rule == EACH else mats[0]
    return cls(**fields)
