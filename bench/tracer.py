"""In-memory span tracer that wraps qbmor functions by name.

The library modules import each other with ``from .x import y``, so a
function is wrapped where its caller looks it up: ``qbmor.tqb_irka``'s
binding of ``solve_shifted`` is a different name from the one in
``qbmor.dense_solvers``.  Every call through a wrapped binding records one
span ``[name, parent, start_ns, end_ns, error]``; spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the time covered by its direct children (calls nest, one thread).

A binding that no longer exists is recorded as absent instead of raising,
so the traced run survives API drift; the metrics that need it are then
reported as absent layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute path, span name).  ``None`` names the span after the
# wrapped function: ``<defining module>.<function name>``.
SITES = [
    # entry points the benchmark calls
    ("qbmor.problems", "gen_burgers", "problems.gen"),
    ("qbmor.problems", "gen_synthetic_dae", "problems.gen"),
    ("qbmor.problems", "save_system", None),
    ("qbmor.problems", "load_system", None),
    ("qbmor.tqb_irka", "tqb_irka_ode", None),
    ("qbmor.tqb_irka", "tqb_irka_dae_saddle", None),
    ("qbmor.simulate", "simulate_ode", None),
    ("qbmor.simulate", "simulate_dae", None),
    ("qbmor.simulate", "compare", None),
    ("qbmor.gramians_norms", "error_system_norm", None),
    # cross-module bindings, wrapped where the callers look them up
    ("qbmor.tqb_irka", "pencil_eig", None),
    ("qbmor.tqb_irka", "solve_shifted", None),
    ("qbmor.tqb_irka", "solve_saddle", None),
    ("qbmor.tqb_irka", "solve_saddle_adjoint", None),
    ("qbmor.tqb_irka", "hessian_congruence", None),
    ("qbmor.tqb_irka", "apply_unfolded", None),
    ("qbmor.tqb_irka", "output_realization", None),
    ("qbmor.simulate", "apply_hessian", None),
    ("qbmor.simulate", "quadratic_jacobian", None),
    ("qbmor.simulate", "recover_pressure", None),
    ("qbmor.gramians_norms", "solve_lyapunov", None),
    ("qbmor.gramians_norms", "hessian_congruence", None),
    ("qbmor.system_model", "hessian_congruence", None),
    ("qbmor.system_model", "apply_unfolded", None),
    ("qbmor.tensor_kron", "apply_unfolded", None),
    ("qbmor.problems", "read_matrix", None),
    ("qbmor.problems", "write_matrix", None),
    # validation runs in each dataclass's __post_init__; the classes
    # themselves are never rebound because callers dispatch on isinstance
    ("qbmor.system_model", "QbOdeSystem.__post_init__", "system_model.validate"),
    ("qbmor.system_model", "QbDaeSystem.__post_init__", "system_model.validate"),
    ("qbmor.system_model", "ReducedQbSystem.__post_init__", "system_model.validate"),
]


def _shift_hook(tracer, args, kwargs):
    # distinct shifts per outermost span: different reductions may share shifts
    sigma = args[2] if len(args) > 2 else kwargs["sigma"]
    tracer.shifts.add((tracer.root_index(), complex(sigma)))


def _congruence_hook(tracer, args, kwargs):
    # the kernel materializes an (n^2 x r_R) block per column of L:
    # n^2 * r_L * r_R elements of the block dtype in all (computed, not measured)
    t, L, R = args[0], args[2], args[3]
    itemsize = np.result_type(np.asarray(L), np.asarray(R)).itemsize
    root = tracer.root_index()
    tracer.bytes_computed[root] = (tracer.bytes_computed.get(root, 0)
                                   + t.n * t.n * L.shape[1] * R.shape[1] * itemsize)


_INHERITED = object()

HOOKS = {
    "dense_solvers.solve_shifted": _shift_hook,
    "tensor_kron.hessian_congruence": _congruence_hook,
}


def _resolve(module_name, path):
    """Return ``(owner, attribute)`` for a dotted path, or ``None``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, parts[-1], None)):
        return None
    return owner, parts[-1]


class Tracer:
    """Span recorder; :meth:`installed` swaps the wrappers in and out."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self.installed_names = set()
        self.hook_errors = []
        self.shifts = set()          # (root span index, shift)
        self.bytes_computed = {}     # root span index -> bytes
        self._stack = []

    def root_index(self):
        return self._stack[0] if self._stack else -1

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx, error):
        self._stack.pop()
        span = self.spans[idx]
        span[3] = time.perf_counter_ns()
        span[4] = error

    @contextmanager
    def span(self, name):
        """Span around a step of the benchmark's own code."""
        idx = self._open(name)
        error = True
        try:
            yield
            error = False
        finally:
            self._close(idx, error)

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                try:
                    hook(self, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError) as exc:
                    self.hook_errors.append(f"{name}: {exc!r}")
            idx = self._open(name)
            error = True
            try:
                out = fn(*args, **kwargs)
                error = False
                return out
            finally:
                self._close(idx, error)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site that exists; restore the originals on exit."""
        saved = []
        self.absent = []
        try:
            for module_name, path, name in SITES:
                found = _resolve(module_name, path)
                if found is None:
                    self.absent.append(f"{module_name}.{path}")
                    continue
                owner, attr = found
                fn = getattr(owner, attr)
                if name is None:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                self.installed_names.add(name)
                saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def roots(self):
        """Name of the outermost span enclosing each span."""
        out = []
        for name, parent, *_ in self.spans:
            out.append(name if parent < 0 else out[parent])
        return out

    def self_times(self):
        """Per-span self time in seconds."""
        child = [0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (end - start - child[i]) * 1e-9
            for i, (_, _, start, end, _) in enumerate(self.spans)
        ]

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "parent", "start_ns", "end_ns", "error"],
                "absent": self.absent,
                "hook_errors": self.hook_errors,
                "spans": self.spans,
            }, fh, separators=(",", ":"))
            fh.write("\n")
