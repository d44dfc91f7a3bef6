"""Smoke test of the benchmark itself at toy sizes (Burgers n=16, DAE n_v=20).

Runs each workload untraced and traced in-process for a single cycle and
checks that every metric is emitted with its unit, that the JSON result
carries exactly the metrics ``BENCHMARK.json`` names, that traced call
counts repeat, and that failures are counted instead of raised.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (HERE, os.path.join(ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import qbmor.tqb_irka  # noqa: E402
from qbmor.dense_solvers import SolverError  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

SEED = 3
TOY_SIZES = {
    "burgers-reduce": dict(workloads.SIZES["burgers-reduce"], n=16, r=4, batch=2),
    "burgers-assess": dict(workloads.SIZES["burgers-assess"], n=16, r=4, t_final=1.0,
                           dt=0.05, batch=2),
    "dae-reduce": dict(workloads.SIZES["dae-reduce"], n_v=20, n_p=4, r=4, t_final=1.0,
                       dt=0.05, batch=2),
}

# end-to-end metrics per workload, with units
ALL = {"setup_s": "s", "setup_ref": "ref", "cycle_s": "s", "cycle_ref": "ref", "ref_s": "s",
       "failed_frac": "1", "peak_rss_mb": "MB"}
REDUCE = {"reduce_s": "s", "reduce_sweep_s": "s"}
SIMULATE = {"full_sim_s": "s", "reduced_sim_s": "s", "online_speedup": "x",
            "rel_l2_error": "1"}
EXPECTED_END_TO_END = {
    "burgers-reduce": {**ALL, **REDUCE},
    "burgers-assess": {**ALL, **SIMULATE, "h2_error_s": "s", "h2_error": "1"},
    "dae-reduce": {**ALL, **REDUCE, **SIMULATE},
}

PER_LAYER = {
    "tqb_irka.sweeps": "count", "tqb_irka.self_s": "s",
    "dense_solvers.solve_shifted.calls": "count", "dense_solvers.solve_shifted.s": "s",
    "dense_solvers.solve_shifted.errors": "count",
    "dense_solvers.solve_shifted.calls_per_shift": "1",
    "dense_solvers.solve_saddle.calls": "count", "dense_solvers.solve_saddle.s": "s",
    "dense_solvers.solve_saddle_adjoint.calls": "count",
    "dense_solvers.solve_saddle_adjoint.s": "s",
    "dense_solvers.pencil_eig.calls": "count", "dense_solvers.pencil_eig.s": "s",
    "dense_solvers.solve_lyapunov.calls": "count", "dense_solvers.solve_lyapunov.s": "s",
    "dense_solvers.residual_max.pencil": "1", "dense_solvers.residual_max.shifted": "1",
    "dense_solvers.residual_max.saddle": "1", "dense_solvers.residual_max.lyapunov": "1",
    "tensor_kron.hessian_congruence.calls": "count", "tensor_kron.hessian_congruence.s": "s",
    "tensor_kron.hessian_congruence.bytes_computed": "B",
    "tensor_kron.apply_unfolded.calls": "count", "tensor_kron.apply_unfolded.s": "s",
    "tensor_kron.apply_hessian.calls": "count", "tensor_kron.apply_hessian.s": "s",
    "tensor_kron.quadratic_jacobian.calls": "count", "tensor_kron.quadratic_jacobian.s": "s",
    "simulate.self_s": "s", "simulate.newton_iters_per_step": "1",
    "gramians_norms.self_s": "s",
    "dae_transform.output_realization.s": "s", "dae_transform.recover_pressure.calls": "count",
    "system_model.validate.s": "s", "problems.gen.s": "s",
    "mmio.read_matrix.s": "s", "mmio.write_matrix.s": "s",
    "trace.overhead_s": "s", "trace.overhead_frac": "1",
}


def _run(name, trace, out_dir):
    return harness.run_workload(name, SEED, 0.0, trace, TOY_SIZES, str(out_dir))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    return {(name, trace): _run(name, trace, out)
            for name in workloads.WORKLOADS for trace in (0, 1)}


@pytest.mark.parametrize("name", sorted(EXPECTED_END_TO_END))
def test_end_to_end_metrics_emitted_with_units(runs, name):
    result = runs[(name, 0)]
    got = {k: v["unit"] for k, v in result["end_to_end"].items()}
    for metric, unit in EXPECTED_END_TO_END[name].items():
        assert got.get(metric) == unit, (metric, got.get(metric))
    for metric, summary in result["end_to_end"].items():
        if "median" in summary:
            assert summary["n"] >= 1 and summary["tail_label"]


@pytest.mark.parametrize("name", sorted(EXPECTED_END_TO_END))
def test_per_layer_metrics_emitted_with_units(runs, name):
    result = runs[(name, 1)]
    assert result["absent"] == [] and result["absent_bindings"] == []
    got = {k: v["unit"] for k, v in result["per_layer"].items()}
    assert got == PER_LAYER


def test_final_line_carries_the_benchmark_json_metrics(runs):
    spec = harness.benchmark_spec()
    for (name, trace), result in runs.items():
        line = harness.final_line(result, spec)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        listed = spec["per_layer"] if trace else spec["end_to_end"]
        assert {m["name"]: m["unit"] for m in listed} == {
            k: v["unit"] for k, v in line["metrics"].items()}
        assert line["attempted"] >= 1
        json.dumps(line)


def test_traced_call_counts_repeat(runs, tmp_path):
    again = _run("dae-reduce", 1, tmp_path)
    first = runs[("dae-reduce", 1)]["per_layer"]
    for name, metric in again["per_layer"].items():
        if name.endswith((".calls", ".errors", ".bytes_computed", "sweeps")):
            assert metric["value"] == first[name]["value"], name


def test_forced_solver_failure_is_counted(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise SolverError("forced failure")

    monkeypatch.setattr(qbmor.tqb_irka, "solve_shifted", broken)
    result = _run("burgers-reduce", 0, tmp_path)
    assert result["attempted"] == result["failed"] == 1
    assert result["failures"][0]["kind"] == "error"
    assert "forced failure" in result["failures"][0]["message"]
    line = harness.final_line(result, harness.benchmark_spec())
    assert (line["attempted"], line["failed"]) == (1, 1)
    assert "cycle_ref" not in line["metrics"]
    json.dumps(line)


def test_tail_is_never_the_median():
    xs = [float(i) for i in range(25)]
    lower = harness.summarize(xs, "lower")
    assert (lower["median"], lower["tail"], lower["tail_label"]) == (12.0, 24.0, "max")
    higher = harness.summarize(xs, "higher")
    assert (higher["tail"], higher["tail_label"]) == (0.0, "min")
    many = harness.summarize([float(i) for i in range(41)], "lower")
    assert many["tail_label"] == "p75" and many["tail"] > many["median"]


def test_absent_binding_is_reported_not_raised(monkeypatch, tmp_path):
    monkeypatch.delattr(qbmor.tqb_irka, "solve_saddle")
    result = _run("burgers-reduce", 1, tmp_path)
    assert result["absent_bindings"] == ["qbmor.tqb_irka.solve_saddle"]
    assert "dense_solvers.solve_saddle.calls" in result["absent"]
    assert "dense_solvers.solve_saddle.calls" not in result["per_layer"]
    assert result["failed"] == 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "burgers-reduce",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_residual_gate_uses_the_solver_bounds():
    failures = workloads.residual_failures(
        [("shifted", 1e-14), ("shifted", 1.0), ("pencil", 1.0), ("mystery", 0.0)])
    messages = [m for kind, m in failures if kind == "gate"]
    assert len(failures) == len(messages) == 2
    assert any(m.startswith("shifted residual") for m in messages)
    assert any("'mystery'" in m for m in messages)
