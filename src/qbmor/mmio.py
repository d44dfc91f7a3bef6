"""Matrix Market read/write with strict validation, atomic file output, and
the reader of the comma-separated tables used for inputs and trajectories.

Supports ``coordinate real general`` (1-based indices) and
``array real general`` (column-major).  Values are written with 17
significant digits so that save/load round-trips are exact for float64.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from itertools import chain

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
    data = (no for no, ln in enumerate(lines)
            if no and ln.strip() and not ln.startswith("%"))
    size = next(data, None)
    if size is None:
        raise ValueError(f"{path}: missing size line")
    head = lines[:size + 1]
    if fmt == "coordinate":
        rows, cols, nnz = (int(c[0]) for c in _columns(path, head, size, (np.int64,) * 3))
        if nnz == 0 and next(data, None) is None:
            return sp.csr_matrix((rows, cols))
        I, J, vals = _columns(path, lines, size + 1, (np.int64, np.int64, np.float64))
        if I.size != nnz:
            raise ValueError(
                f"{path}: header promises {nnz} entries, file has {I.size}"
            )
        if I.min() < 1 or J.min() < 1:
            raise ValueError(
                f"{path}: 0-based indices detected (Matrix Market is 1-based)"
            )
        if I.max() > rows or J.max() > cols:
            raise ValueError(f"{path}: index exceeds declared shape ({rows}, {cols})")
        return sp.csr_matrix((vals, (I - 1, J - 1)), shape=(rows, cols))
    # array format, column-major
    rows, cols = (int(c[0]) for c in _columns(path, head, size, (np.int64,) * 2))
    (vals,) = _columns(path, lines, size + 1, (np.float64,))
    if vals.size != rows * cols:
        raise ValueError(
            f"{path}: array body has {vals.size} values, expected {rows * cols}"
        )
    return vals.reshape((rows, cols), order="F")


def _columns(path, lines, start, kinds):
    """Columns of the numbers on ``lines[start:]``, one per type in ``kinds``.

    Blank and ``%`` comment lines are skipped; a malformed line raises
    ``ValueError`` naming the file and the line.
    """
    dtype = [(str(c), kind) for c, kind in enumerate(kinds)]
    try:
        table = np.loadtxt(lines[start:], dtype=dtype, comments="%", ndmin=1)
    except ValueError as exc:
        for no, text in enumerate(lines[start:], start=start + 1):
            fields = text.split("%")[0].split()
            try:
                if fields and len(fields) != len(kinds):
                    raise ValueError
                for kind, x in zip(kinds, fields):
                    kind(x)
            except ValueError:
                raise ValueError(
                    f"{path}: line {no}: expected {len(kinds)} numeric fields, "
                    f"got {text!r}"
                ) from None
        raise ValueError(f"{path}: {exc}") from None
    return [table[name] for name, _ in dtype]


def _read_table(path):
    """``(header, body)`` of a CSV table: one header line, then rows of floats."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in map(str.strip, fh) if line]
    if not rows:
        raise ValueError(f"{path}: table has no data rows")
    for no, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: data row {no} has {len(row)} columns, "
                             f"the header has {len(header)}")
    try:
        return header, np.array([[float(x) for x in row] for row in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric table entry ({exc})") from None


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
    if sp.issparse(M):
        coo = M.tocoo()
        head = f"coordinate real general\n{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n"
        body = ("%d %d %.17g\n" * coo.nnz) % tuple(chain.from_iterable(zip(
            (coo.row + 1).tolist(), (coo.col + 1).tolist(), coo.data.tolist())))
    else:
        D = np.atleast_2d(np.asarray(M, dtype=float))
        head = f"array real general\n{D.shape[0]} {D.shape[1]}\n"
        body = ("%.17g\n" * D.size) % tuple(D.ravel(order="F").tolist())
    with atomic_open(path) as fh:
        fh.write(f"{_BANNER} matrix {head}{body}")
