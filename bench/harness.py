"""Benchmark runner: closed-loop measurement, traced run, report.

One process runs one workload.  Without tracing it sets up several times
(``setup_s`` is their median), then runs cycles back to back, each starting
when the previous one ends, until ``--seconds`` have passed.  With tracing it
sets up once inside the tracer and runs one fixed pass of ``batch`` cycles,
each cycle untraced and then traced; the per-layer metrics come from the
traced cycles, so their counts repeat exactly for a seed.

The report gives every metric with its unit, median, tail percentile and
sample count; the last line of standard output is the JSON result whose
metrics are the ones ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy
import scipy.linalg

import qbmor
import workloads
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QBMOR_THREADS")

# set-ups of an untraced run: at least SETUP_MIN and at most SETUP_MAX,
# repeated while they take under SETUP_SHARE of the time elapsed
SETUP_MIN, SETUP_MAX, SETUP_SHARE = 3, 30, 0.1
# reference timings around a set-up or cycle that its ``*_ref`` divides by
REF_WINDOW = 5

# sampled end-to-end metrics: name -> (unit, better); failed_frac and
# peak_rss_mb are one value per run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cycle_s": ("s", "lower"),
    "setup_ref": ("ref", "lower"),
    "cycle_ref": ("ref", "lower"),
    "ref_s": ("s", "lower"),
    "reduce_s": ("s", "lower"),
    "reduce_sweep_s": ("s", "lower"),
    "sweeps": ("count", "lower"),
    "full_sim_s": ("s", "lower"),
    "reduced_sim_s": ("s", "lower"),
    "online_speedup": ("x", "higher"),
    "compare_s": ("s", "lower"),
    "h2_error_s": ("s", "lower"),
    "rel_l2_error": ("1", "lower"),
    "h2_error": ("1", "lower"),
}

# per-layer function metrics: span name -> fields, over the measured cycles
FUNCTION_METRICS = {
    "dense_solvers.solve_shifted": ("calls", "s", "errors"),
    "dense_solvers.solve_saddle": ("calls", "s"),
    "dense_solvers.solve_saddle_adjoint": ("calls", "s"),
    "dense_solvers.pencil_eig": ("calls", "s"),
    "dense_solvers.solve_lyapunov": ("calls", "s"),
    "tensor_kron.hessian_congruence": ("calls", "s"),
    "tensor_kron.apply_unfolded": ("calls", "s"),
    "tensor_kron.apply_hessian": ("calls", "s"),
    "tensor_kron.quadratic_jacobian": ("calls", "s"),
    "dae_transform.output_realization": ("s",),
    "dae_transform.recover_pressure": ("calls",),
}
# per-layer function metrics over the set-up
SETUP_FUNCTION_METRICS = ("system_model.validate", "problems.gen",
                          "mmio.read_matrix", "mmio.write_matrix")
LAYER_SELF = ("tqb_irka", "simulate", "gramians_norms")
RESIDUAL_TAGS = ("pencil", "shifted", "saddle", "lyapunov")
FIELD_UNITS = {"calls": "count", "s": "s", "errors": "count"}


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- statistics -------------------------------------------------------------


def summarize(xs, better="lower"):
    """Median, the tail percentile with at least ten samples beyond it, count.

    The tail is on the worse side (high for lower-is-better) and is never
    the median: with fewer than 40 samples no percentile from p75 up has ten
    beyond it, and the worst sample is given instead.
    """
    xs = sorted(xs)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    worse = xs[-1] if better == "lower" else xs[0]
    out["tail"], out["tail_label"] = worse, "max" if better == "lower" else "min"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(xs, n=100, method="inclusive")
            out["tail"], out["tail_label"] = (
                (q[p - 1], f"p{p}") if better == "lower" else (q[99 - p], f"p{100 - p}"))
            break
    return out


# -- environment ------------------------------------------------------------


def _blas_threads():
    """Thread count reported by every loaded OpenBLAS, by library file."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    threads = _blas_threads()
    build = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    pinned = all(os.environ.get(v) == "1" for v in PIN_VARS) and (
        bool(threads) and all(t == 1 for t in threads.values()))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{build.get('name', 'unknown')} {build.get('version', '')}".strip(),
        "thread_env": {v: os.environ.get(v) for v in PIN_VARS},
        "blas_threads": threads,
        "pin_in_effect": pinned,
        "git_commit": _git_commit(),
        "qbmor": qbmor.__file__,
    }


# -- runs -------------------------------------------------------------------


class Reference:
    """A fixed mix of dense solves, small numpy calls and interpreter work.

    It calls no qbmor code and its inputs never change, so its time tracks
    only the speed of the host.  Timed before every set-up and cycle, it
    turns their times into ``setup_ref`` and ``cycle_ref``, which cancel
    most of the host's drift.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.M = rng.standard_normal((150, 150)) + 150.0 * np.eye(150)
        self.b = rng.standard_normal(150)
        self.idx = rng.integers(0, 1000, 5000)
        self.vals = rng.standard_normal(5000)

    def time(self):
        t0 = time.perf_counter()
        for _ in range(80):
            scipy.linalg.lu_solve(scipy.linalg.lu_factor(self.M), self.b)
        out = np.zeros(1000)
        for _ in range(600):
            np.add.at(out, self.idx, self.vals)
        total = 0
        for i in range(200_000):
            total += i
        return time.perf_counter() - t0


class Record:
    """Samples, failures and counts of one series of cycles."""

    def __init__(self, label="cycle"):
        self.label = label
        self.samples = {}
        self.attempted = 0
        self.failures = []
        self.residual_max = {}

    def add(self, name, value):
        self.samples.setdefault(name, []).append(float(value))

    def fail(self, where, kind, message):
        self.failures.append({"where": where, "kind": kind, "message": message})

    @property
    def failed(self):
        return len({f["where"] for f in self.failures})

    def count_setup(self, state):
        """The set-up's own gated operations count once, with their failures."""
        self.attempted += state["ops"]
        for kind, message in state["failures"]:
            self.fail("setup", kind, message)


def run_cycle(wl, state, k, rec, tracer=None):
    """One closed-loop cycle; returns its time, or ``None`` if it raised.

    A failure is recorded, never raised or dropped.
    """
    steps = workloads.Steps(tracer)
    rec.attempted += 1
    span = tracer.span("bench.cycle") if tracer is not None else contextlib.nullcontext()
    try:
        with span:
            values, failures, residuals = wl.cycle(state, k, steps)
    except Exception as exc:
        rec.fail(f"{rec.label} {k}", "error", "".join(
            traceback.format_exception_only(type(exc), exc)).strip())
        for key, t in steps.times.items():
            rec.add(key, t)
        return None
    for key, t in steps.times.items():
        rec.add(key, t)
    cycle = sum(steps.times.values())
    rec.add("cycle_s", cycle)
    for key, v in values.items():
        rec.add(key, v)
    for tag, v in residuals.items():
        rec.residual_max[tag] = max(rec.residual_max.get(tag, 0.0), v)
    for kind, message in failures:
        rec.fail(f"{rec.label} {k}", kind, message)
    return cycle


def measure(wl, seed, seconds, workdir):
    """Untraced run: cycles until ``seconds`` pass, with set-ups spread over
    the run so that they see the same host as the cycles.

    The reference kernel is timed before each set-up and each cycle.  A
    set-up or cycle time is then divided by the median of the REF_WINDOW
    reference timings nearest to it, which are steadier than the one just
    before it.
    """
    rec = Record()
    reference = Reference()
    setup_times = []
    refs = []       # reference timings, in run order
    timed = []      # (metric, seconds, index of the reference timing before)

    def setup():
        refs.append(reference.time())
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        timed.append(("setup_ref", setup_times[-1], len(refs) - 1))
        return state

    state = setup()
    rec.count_setup(state)
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        if (len(setup_times) < SETUP_MAX
                and sum(setup_times) < SETUP_SHARE * (time.perf_counter() - start)):
            setup()
        refs.append(reference.time())
        cycle = run_cycle(wl, state, k, rec)
        if cycle is not None:
            timed.append(("cycle_ref", cycle, len(refs) - 1))
        k += 1
    while len(setup_times) < SETUP_MIN:
        setup()
    for metric, t, i in timed:
        lo = max(0, min(i - REF_WINDOW // 2, len(refs) - REF_WINDOW))
        rec.add(metric, t / statistics.median(refs[lo:lo + REF_WINDOW]))
    rec.samples["setup_s"] = setup_times
    rec.samples["ref_s"] = refs
    return rec


def traced(wl, seed, workdir, tracer):
    """Traced run: one traced set-up, then each cycle of one pass untraced
    and traced in turn, so that both series see the same machine load.

    Returns the traced record, the untraced one, and the (traced, untraced)
    cycle times of every pair in which both cycles completed.
    """
    with tracer.installed(), tracer.span("bench.setup"):
        state = wl.setup(seed, workdir)
    reference = Record("untraced cycle")
    rec = Record("traced cycle")
    rec.count_setup(state)
    pairs = []
    for k in range(wl.z["batch"]):
        off = run_cycle(wl, state, k, reference)
        with tracer.installed():
            on = run_cycle(wl, state, k, rec, tracer)
        if on is not None and off is not None:
            pairs.append((on, off))
    return rec, reference, pairs


def layer_metrics(tracer, rec, pairs):
    """Per-layer metrics of a traced run; absent ones are listed, not guessed."""
    names = [s[0] for s in tracer.spans]
    roots = tracer.roots()
    selfs = tracer.self_times()
    installed = set(tracer.installed_names)
    metrics, absent = {}, []

    def fn_stats(name, root):
        idx = [i for i, n in enumerate(names) if n == name and roots[i] == root]
        return {"calls": len(idx), "s": sum(selfs[i] for i in idx),
                "errors": sum(1 for i in idx if tracer.spans[i][4])}

    def put(name, value, unit, present=True):
        if present:
            metrics[name] = (value, unit)
        else:
            absent.append(name)

    for name, fields in FUNCTION_METRICS.items():
        st = fn_stats(name, "bench.cycle")
        for f in fields:
            put(f"{name}.{f}", st[f], FIELD_UNITS[f], name in installed)
    for name in SETUP_FUNCTION_METRICS:
        put(f"{name}.s", fn_stats(name, "bench.setup")["s"], "s", name in installed)

    shifted = fn_stats("dense_solvers.solve_shifted", "bench.cycle")["calls"]
    shifts = sum(1 for root, _ in tracer.shifts if root >= 0 and roots[root] == "bench.cycle")
    put("dense_solvers.solve_shifted.calls_per_shift", shifted / shifts if shifts else 0.0,
        "1", "dense_solvers.solve_shifted" in installed)
    put("tensor_kron.hessian_congruence.bytes_computed",
        sum(b for root, b in tracer.bytes_computed.items()
            if root >= 0 and roots[root] == "bench.cycle"),
        "B", "tensor_kron.hessian_congruence" in installed)
    put("tqb_irka.sweeps", sum(rec.samples.get("sweeps", [])), "count")
    for layer in LAYER_SELF:
        total = sum(selfs[i] for i, n in enumerate(names)
                    if n.startswith(layer + ".") and roots[i] == "bench.cycle")
        put(f"{layer}.self_s", total, "s", any(n.startswith(layer + ".") for n in installed))
    newton = sum(1 for i, n in enumerate(names)
                 if n == "tensor_kron.quadratic_jacobian" and roots[i] == "bench.cycle"
                 and names[tracer.spans[i][1]].startswith("simulate."))
    steps = sum(rec.samples.get("steps", []))
    put("simulate.newton_iters_per_step", newton / steps if steps else 0.0, "1",
        "tensor_kron.quadratic_jacobian" in installed)
    has_recorder = hasattr(workloads.dense_solvers, "record_residuals")
    for tag in RESIDUAL_TAGS:
        put(f"dense_solvers.residual_max.{tag}", rec.residual_max.get(tag, 0.0), "1",
            has_recorder)
    if pairs:
        metrics["trace.overhead_s"] = (statistics.median(on - off for on, off in pairs), "s")
        metrics["trace.overhead_frac"] = (
            statistics.median((on - off) / off for on, off in pairs), "1")
    else:
        absent += ["trace.overhead_s", "trace.overhead_frac"]
    return metrics, absent


def end_to_end_metrics(rec, attempted, failed):
    """Summaries of every end-to-end metric this workload produced."""
    out = {}
    for name, (unit, better) in END_TO_END.items():
        if rec.samples.get(name):
            out[name] = dict(summarize(rec.samples[name], better), unit=unit)
    out["failed_frac"] = {"value": failed / attempted if attempted else 0.0, "unit": "1",
                          "failed": failed, "base": attempted}
    out["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                          "unit": "MB"}
    return out


def run_workload(name, seed, seconds, trace, sizes=None, out_dir=OUT_DIR):
    """Run one workload; returns the result dictionary (also written to ``out_dir``)."""
    wl = workloads.make(name, sizes)
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "sizes": wl.z, "gates": {"rel_l2": workloads.REL_L2_GATE,
                                       "kernel": workloads.KERNEL_GATE,
                                       "residual_bounds": workloads.RESIDUAL_BOUNDS},
              "env": environment()}
    try:
        if trace:
            tracer = Tracer()
            rec, reference, pairs = traced(wl, seed, workdir, tracer)
            layers, absent = layer_metrics(tracer, rec, pairs)
            result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            result["absent"] = absent
            result["absent_bindings"] = tracer.absent
            result["hook_errors"] = tracer.hook_errors
            tracer.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.json"))
            failures = reference.failures + rec.failures
            attempted = reference.attempted + rec.attempted
            failed = reference.failed + rec.failed
        else:
            rec = measure(wl, seed, seconds, workdir)
            failures, attempted, failed = rec.failures, rec.attempted, rec.failed
        result["end_to_end"] = end_to_end_metrics(rec, attempted, failed)
    finally:
        os.rmdir(workdir)
    result["samples"] = rec.samples
    result["failures"] = failures
    result["attempted"], result["failed"] = attempted, failed
    result["correct"] = not any(f["kind"] == "gate" for f in failures)
    with open(os.path.join(out_dir, f"result-{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1, default=str)
        fh.write("\n")
    return result


def final_line(result, spec):
    """The JSON result: the metrics ``BENCHMARK.json`` names for this mode.

    A metric the run produced no sample of (every cycle raised, say) is left
    out; ``correct``, ``attempted`` and ``failed`` are always there.
    """
    metrics = {}
    if result["trace"]:
        for m in spec["per_layer"]:
            if m["name"] in result["per_layer"]:
                metrics[m["name"]] = result["per_layer"][m["name"]]
    else:
        for m in spec["end_to_end"]:
            e = result["end_to_end"].get(m["name"])
            if e is not None:
                metrics[m["name"]] = {"value": e.get("value", e.get("median")),
                                      "unit": e["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_report(result, out=sys.stdout):
    w = out.write
    w(f"# qbmor benchmark: workload={result['workload']} seed={result['seed']} "
      f"seconds={result['seconds']} trace={result['trace']}\n")
    w(f"env {json.dumps(result['env'], sort_keys=True)}\n")
    if not result["env"]["pin_in_effect"]:
        w("FLAG: BLAS thread pin not in effect; timings are not comparable\n")
    w(f"sizes {json.dumps(result['sizes'], sort_keys=True)}\n")
    w("closed loop, 1 client: each cycle starts when the previous one ends\n")
    for name, e in result["end_to_end"].items():
        if "median" in e:
            w(f"metric {name:16s} unit={e['unit']:5s} median={e['median']:.6g} "
              f"{e['tail_label']}={e['tail']:.6g} n={e['n']}\n")
    ff = result["end_to_end"]["failed_frac"]
    w(f"metric {'failed_frac':16s} unit=1     value={ff['value']:.6g} "
      f"({ff['failed']} failed of {ff['base']} attempted)\n")
    w(f"metric {'peak_rss_mb':16s} unit=MB    value={result['end_to_end']['peak_rss_mb']['value']:.6g}\n")
    for name, m in result.get("per_layer", {}).items():
        w(f"layer  {name:46s} unit={m['unit']:5s} value={m['value']:.6g}\n")
    for name in result.get("absent", []):
        w(f"layer  {name:46s} absent\n")
    for binding in result.get("absent_bindings", []):
        w(f"absent binding {binding}\n")
    for f in result["failures"]:
        w(f"failure {f['where']} [{f['kind']}] {f['message']}\n")
    w(f"gates rel_l2<={workloads.REL_L2_GATE} kernel<={workloads.KERNEL_GATE} "
      f"residuals<=qbmor.dense_solvers bounds; correct={result['correct']}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="qbmor benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    if not result["env"]["pin_in_effect"]:
        print("warning: BLAS thread pin not in effect", file=sys.stderr)
    print_report(result)
    print(json.dumps(final_line(result, spec)), flush=True)
    return 0
