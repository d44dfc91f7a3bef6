"""Run the qbmor benchmark.

    python3 bench/run.py --workload burgers-reduce --seed 1 --seconds 20 --trace 0

BLAS, OpenMP and qbmor's own column loops (``QBMOR_THREADS``) are pinned to
one thread before numpy is imported, and the library is imported from
``src/`` of this checkout only.  The last line of standard output is the
JSON result; see ``bench/NOTES.md``.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QBMOR_THREADS"):
    os.environ[_var] = "1"

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
sys.path[:0] = [_SRC, _HERE]

try:
    import qbmor
except ImportError as exc:
    sys.exit(f"bench: cannot import qbmor from {_SRC}: {exc}")
if not os.path.abspath(qbmor.__file__).startswith(_SRC + os.sep):
    sys.exit(f"bench: qbmor resolved to {qbmor.__file__}, not to {_SRC}")

import harness  # noqa: E402  (after the thread pin and path set-up)

if __name__ == "__main__":
    sys.exit(harness.main())
