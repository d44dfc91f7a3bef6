"""The benchmark's workloads: set-up, one closed-loop cycle, correctness gates.

Every library call goes through a module attribute (``tqb_irka.tqb_irka_ode``
rather than an imported name), so the tracer's wrappers are seen.

``setup(seed, workdir)`` returns the state of the cycles, with ``ops``, the
number of gated operations of the set-up itself, and their ``failures``.
``cycle(state, k, steps)`` runs cycle ``k``, timing its library calls with
:class:`Steps`, and returns ``(values, failures, residual maxima)``; the
gates run after the timed calls.  A failure is ``(kind, message)``.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import time

import numpy as np
import scipy.linalg as la

import qbmor.dense_solvers as dense_solvers
import qbmor.gramians_norms as gramians_norms
import qbmor.problems as problems
import qbmor.simulate as simulate
import qbmor.tqb_irka as tqb_irka

# gates: stated here, reported with every run
REL_L2_GATE = 0.1       # aggregate relative L2 output error of a reduced model
KERNEL_GATE = 1e-8      # relative |A21 V| and |A12^T W| of the DAE bases
# record_residuals tag -> bound in qbmor.dense_solvers.  pencil_eig accepts
# max(PENCIL_TOL, 50 eps cond(Y)) and raises beyond it; the condition number
# is not recorded, so that bound is enforced by pencil_eig alone (the
# largest pencil residual is still reported).
RESIDUAL_BOUNDS = {
    "pencil": None,
    "shifted": "SHIFTED_TOL",
    "sylvester": "SYLVESTER_TOL",
    "lyapunov": "LYAPUNOV_TOL",
    "saddle": "SADDLE_TOL",
}

# IRKA initial models are the ``random-linear`` starts with seeds
# 0..INIT_SEEDS-1; ``--seed`` orders and picks among them ("Inputs" in
# bench/NOTES.md says why they are not drawn from ``--seed`` itself)
INIT_SEEDS = 24

# sizes used by the benchmark; ``batch`` is the number of distinct inputs a
# run cycles through and the number of cycles of a traced pass
SIZES = {
    "burgers-reduce": dict(n=150, nu=0.01, r=10, tol=1e-5, max_iters=50, batch=INIT_SEEDS),
    "burgers-assess": dict(n=100, nu=0.01, r=10, tol=1e-5, max_iters=50,
                           t_final=10.0, dt=0.01, batch=6),
    "dae-reduce": dict(n_v=60, n_p=12, m=2, p=2, quad_scale=0.1, r=8, tol=1e-5,
                       max_iters=200, t_final=10.0, dt=0.01, batch=12),
}


class Steps:
    """Times the steps of one cycle, each optionally inside a tracer span."""

    def __init__(self, tracer=None):
        self.times = {}
        self._tracer = tracer

    def run(self, key, fn, *args):
        span = (self._tracer.span(f"bench.{key}") if self._tracer is not None
                else contextlib.nullcontext())
        t0 = time.perf_counter()
        with span:
            out = fn(*args)
        self.times[key] = time.perf_counter() - t0
        return out


def _recorder():
    """``record_residuals`` when the library still has it, else a no-op."""
    rec = getattr(dense_solvers, "record_residuals", None)
    return rec() if rec is not None else contextlib.nullcontext()


def residual_maxima(log):
    out = {}
    for tag, value in log or ():
        out[tag] = max(out.get(tag, 0.0), value)
    return out


def residual_failures(log):
    """One gate failure per solver tag whose recorded residual misses its bound."""
    out = []
    for tag, value in sorted(residual_maxima(log).items()):
        name = RESIDUAL_BOUNDS.get(tag, "")
        if name is None:
            continue
        bound = getattr(dense_solvers, name, None)
        if bound is None:
            out.append(("gate", f"residual tag {tag!r} has no known bound"))
        elif not value <= bound:
            out.append(("gate", f"{tag} residual {value:.3e} exceeds {bound:.0e}"))
    return out


def reduce_failures(red, trace, log):
    """Gates on one reduction: converged, stable, residuals under bounds.

    Failures are ``(kind, message)``: ``"not-converged"`` is reported by the
    library itself through the trace, ``"gate"`` is a returned result that a
    check here found wrong.
    """
    if not trace.converged:
        return [("not-converged", f"not converged in {trace.iterations} sweeps "
                 f"(last change {trace.relative_changes[-1]:.2e})")]
    out = []
    abscissa = float(la.eigvals(red.Ahat, red.Ehat).real.max())
    if not abscissa < 0.0:
        out.append(("gate", f"unstable reduced model (spectral abscissa {abscissa:.3e})"))
    return out + residual_failures(log)


def _round_trip(system, workdir):
    """``save_system``/``load_system`` through a scratch directory."""
    d = tempfile.mkdtemp(dir=workdir)
    try:
        return problems.load_system(problems.save_system(system, d))
    finally:
        shutil.rmtree(d)


def _order(seed, count):
    """The order, made from ``seed``, in which a run visits ``count`` inputs."""
    return [int(i) for i in np.random.default_rng(seed).permutation(count)]


class BurgersReduce:
    """Offline cost: one ``tqb_irka_ode`` per cycle, from the initial models
    0..batch-1 in an order made from the workload seed."""

    name = "burgers-reduce"

    def __init__(self, sizes):
        self.z = sizes

    def setup(self, seed, workdir):
        z = self.z
        system = _round_trip(problems.gen_burgers(z["n"], z["nu"]), workdir)
        return {"system": system, "init_seeds": _order(seed, z["batch"]),
                "ops": 0, "failures": []}

    def cycle(self, state, k, steps):
        z = self.z
        cfg = tqb_irka.IrkaConfig(r=z["r"], tol=z["tol"], max_iters=z["max_iters"],
                                  seed=state["init_seeds"][k % z["batch"]])
        with _recorder() as log:
            red, trace = steps.run("reduce_s", tqb_irka.tqb_irka_ode, state["system"], cfg)
        values = {"sweeps": trace.iterations,
                  "reduce_sweep_s": steps.times["reduce_s"] / trace.iterations}
        return values, reduce_failures(red, trace, log), residual_maxima(log)


class BurgersAssess:
    """Online use of a model reduced during set-up: simulate, compare, H2 error."""

    name = "burgers-assess"

    def __init__(self, sizes):
        self.z = sizes

    def setup(self, seed, workdir):
        z = self.z
        system = _round_trip(problems.gen_burgers(z["n"], z["nu"]), workdir)
        cfg = tqb_irka.IrkaConfig(r=z["r"], tol=z["tol"], max_iters=z["max_iters"],
                                  seed=seed % INIT_SEEDS)
        with _recorder() as log:
            red, trace = tqb_irka.tqb_irka_ode(system, cfg)
        return {"system": system, "reduced": red,
                "ops": 1, "failures": reduce_failures(red, trace, log)}

    def cycle(self, state, k, steps):
        z = self.z
        system, red = state["system"], state["reduced"]
        u = simulate.InputSignal.preset_cavity(system.m)
        full = steps.run("full_sim_s", simulate.simulate_ode, system, u, z["t_final"], z["dt"])
        short = steps.run("reduced_sim_s", simulate.simulate_ode, red, u, z["t_final"], z["dt"])
        report = steps.run("compare_s", simulate.compare, full, short)
        with _recorder() as log:
            h2 = steps.run("h2_error_s", gramians_norms.error_system_norm, system, red)
        values = {
            "online_speedup": steps.times["full_sim_s"] / steps.times["reduced_sim_s"],
            "rel_l2_error": report["aggregate_relative_l2"],
            "h2_error": h2,
            "steps": 2 * (full.t.size - 1),
        }
        failures = residual_failures(log)
        if not report["aggregate_relative_l2"] <= REL_L2_GATE:
            failures.append(("gate", f"relative L2 error "
                             f"{report['aggregate_relative_l2']:.3e} exceeds {REL_L2_GATE}"))
        if not (np.isfinite(h2) and h2 > 0.0):
            failures.append(("gate", f"H2 error {h2!r} is not a positive number"))
        return values, failures, residual_maxima(log)


class DaeReduce:
    """Descriptor path: saddle reduce, coupled DAE simulation, reduced simulation.

    The systems are the fixed draws ``gen_synthetic_dae(seed=s)``, each
    reduced from initial model ``s``, for ``s`` in 0..batch-1, visited in an
    order made from the workload seed: the cost of a draw varies eightfold
    with its sweep count, so a seed-dependent batch made the median cycle
    depend on the seed more than on the code.
    """

    name = "dae-reduce"

    def __init__(self, sizes):
        self.z = sizes

    def setup(self, seed, workdir):
        z = self.z
        draws = [_round_trip(problems.gen_synthetic_dae(
                     z["n_v"], z["n_p"], m=z["m"], p=z["p"], seed=s,
                     quad_scale=z["quad_scale"], with_c2=True), workdir)
                 for s in range(z["batch"])]
        return {"draws": draws, "order": _order(seed, z["batch"]), "ops": 0, "failures": []}

    def cycle(self, state, k, steps):
        z = self.z
        s = state["order"][k % z["batch"]]
        system = state["draws"][s]
        cfg = tqb_irka.IrkaConfig(r=z["r"], tol=z["tol"], max_iters=z["max_iters"], seed=s)
        u = simulate.InputSignal.preset_cavity(system.m)
        with _recorder() as log:
            red, trace = steps.run("reduce_s", tqb_irka.tqb_irka_dae_saddle, system, cfg)
        full = steps.run("full_sim_s", simulate.simulate_dae, system, u, z["t_final"], z["dt"])
        short = steps.run("reduced_sim_s", simulate.simulate_ode, red, u, z["t_final"], z["dt"])
        report = simulate.compare(full, short)
        values = {
            "sweeps": trace.iterations,
            "reduce_sweep_s": steps.times["reduce_s"] / trace.iterations,
            "online_speedup": steps.times["full_sim_s"] / steps.times["reduced_sim_s"],
            "rel_l2_error": report["aggregate_relative_l2"],
            "steps": 2 * (full.t.size - 1),
        }
        failures = reduce_failures(red, trace, log)
        if not failures:
            for label, M, B in (("A21 V", system.A21, red.V),
                                ("A12^T W", system.A12.T, red.W)):
                rel = np.linalg.norm(M @ B) / (np.linalg.norm(M) * np.linalg.norm(B))
                if not rel <= KERNEL_GATE:
                    failures.append(("gate", f"|{label}| relative {rel:.3e} "
                                     f"exceeds {KERNEL_GATE}"))
            if not report["aggregate_relative_l2"] <= REL_L2_GATE:
                failures.append(("gate", f"relative L2 error "
                                 f"{report['aggregate_relative_l2']:.3e} exceeds {REL_L2_GATE}"))
        return values, failures, residual_maxima(log)


WORKLOADS = {w.name: w for w in (BurgersReduce, BurgersAssess, DaeReduce)}


def make(name, sizes=None):
    return WORKLOADS[name]((sizes or SIZES)[name])

