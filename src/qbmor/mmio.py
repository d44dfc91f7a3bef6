"""Matrix Market read/write with strict validation, and atomic file output.

Supports ``coordinate real general`` (1-based indices) and
``array real general`` (column-major).  Values are written with 17
significant digits so that save/load round-trips are exact for float64.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

__all__ = ["atomic_open", "read_matrix", "write_json", "write_matrix"]

_BANNER = "%%MatrixMarket"


def read_matrix(path):
    """Read one matrix; returns CSR for coordinate files, ndarray for array files."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise FileNotFoundError(f"matrix file not found: {path}") from None
    if not lines or not lines[0].startswith(_BANNER):
        raise ValueError(f"{path}: malformed header (missing {_BANNER} banner)")
    fields = lines[0].split()
    if len(fields) != 5 or fields[1] != "matrix":
        raise ValueError(f"{path}: malformed header: {lines[0]!r}")
    _, _, fmt, field, symmetry = fields
    if field not in ("real", "integer"):
        raise ValueError(f"{path}: unsupported field {field!r} (need real)")
    if symmetry != "general":
        raise ValueError(f"{path}: unsupported symmetry {symmetry!r} (need general)")
    if fmt not in ("coordinate", "array"):
        raise ValueError(f"{path}: unsupported format {fmt!r}")
    body = [ln for ln in lines[1:] if ln.strip() and not ln.startswith("%")]
    if not body:
        raise ValueError(f"{path}: missing size line")
    size = body[0].split()
    if fmt == "coordinate":
        if len(size) != 3:
            raise ValueError(f"{path}: coordinate size line must have 3 entries")
        rows, cols, nnz = (int(x) for x in size)
        entries = body[1:]
        if len(entries) != nnz:
            raise ValueError(
                f"{path}: header promises {nnz} entries, file has {len(entries)}"
            )
        if nnz == 0:
            return sp.csr_matrix((rows, cols))
        data = np.array([ln.split() for ln in entries], dtype=object)
        I = data[:, 0].astype(np.int64)
        J = data[:, 1].astype(np.int64)
        vals = data[:, 2].astype(np.float64)
        if I.min() < 1 or J.min() < 1:
            raise ValueError(
                f"{path}: 0-based indices detected (Matrix Market is 1-based)"
            )
        if I.max() > rows or J.max() > cols:
            raise ValueError(f"{path}: index exceeds declared shape ({rows}, {cols})")
        return sp.csr_matrix((vals, (I - 1, J - 1)), shape=(rows, cols))
    # array format, column-major
    if len(size) != 2:
        raise ValueError(f"{path}: array size line must have 2 entries")
    rows, cols = (int(x) for x in size)
    vals = np.array([float(ln) for ln in body[1:]])
    if vals.size != rows * cols:
        raise ValueError(
            f"{path}: array body has {vals.size} values, expected {rows * cols}"
        )
    return vals.reshape((rows, cols), order="F")


@contextmanager
def atomic_open(path):
    """Open ``path`` for writing text through a temporary file beside it.

    The parent directory is created if needed.  The temporary file replaces
    ``path`` when the block completes; on any exception it is removed and
    ``path`` is left as it was.
    """
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload):
    """Write ``payload`` atomically as indented JSON with sorted keys."""
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_matrix(path, M):
    """Write a matrix atomically; sparse goes to coordinate format, dense to array."""
    with atomic_open(path) as fh:
        if sp.issparse(M):
            coo = M.tocoo()
            fh.write(f"{_BANNER} matrix coordinate real general\n")
            fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
        else:
            D = np.atleast_2d(np.asarray(M, dtype=float))
            fh.write(f"{_BANNER} matrix array real general\n")
            fh.write(f"{D.shape[0]} {D.shape[1]}\n")
            for v in D.ravel(order="F"):
                fh.write(f"{v:.17g}\n")
