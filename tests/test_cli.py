import json

import numpy as np
import pytest

from qbmor.cli import main
from qbmor.gramians_norms import truncated_h2_norm
from qbmor.problems import gen_burgers, load_system, save_system


def run(args):
    return main(args)


def test_gen_burgers_file_set(tmp_path):
    out = tmp_path / "b"
    code = run(["gen", "--problem", "burgers", "--n", "16", "--nu", "0.1",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    names = sorted(f.name for f in out.iterdir())
    assert names == ["A.mtx", "B.mtx", "C.mtx", "H.mtx", "manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["type"] == "ode"


@pytest.mark.parametrize("nu", ["nan", "inf"])
def test_gen_rejects_a_non_finite_viscosity(tmp_path, capsys, nu):
    out = tmp_path / "b"
    capsys.readouterr()
    assert run(["gen", "--problem", "burgers", "--n", "20", "--nu", nu, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"qbmor: error: viscosity must be positive and finite, got {nu}\n")
    assert not out.exists()


def test_gen_synthetic_dae_manifest(tmp_path):
    out = tmp_path / "d"
    code = run(["gen", "--problem", "synthetic-dae", "--nv", "20", "--np", "4",
                "--quad-scale", "0.1", "--with-c2", "--seed", "3",
                "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["type"] == "dae"
    for key in ("E11", "A11", "A12", "A21", "H", "B1", "C1", "C2"):
        assert key in manifest["matrices"]


def test_gen_missing_out_is_usage_error(capsys):
    code = run(["gen", "--problem", "burgers", "--n", "8"])
    assert code == 2


def test_reduce_burgers_end_to_end(tmp_path):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(40, 0.05), sysdir)
    red = tmp_path / "red"
    code = run(["reduce", "--system", str(sysdir / "manifest.json"),
                "--order", "6", "--tol", "1e-5", "--max-iters", "50",
                "--seed", "42", "--out", str(red)])
    assert code == 0
    trace = json.loads((red / "trace.json").read_text())
    assert trace["converged"]
    assert trace["relative_changes"][-1] < 1e-5
    assert (red / "manifest.json").exists()


def test_reduce_order_too_large(tmp_path, capsys):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(8, 0.1), sysdir)
    code = run(["reduce", "--system", str(sysdir / "manifest.json"),
                "--order", "8", "--out", str(tmp_path / "r")])
    assert code == 2
    assert "order must be < state dimension" in capsys.readouterr().err


def test_reduce_dae_order_is_measured_against_the_constraint_kernel(tmp_path, capsys):
    from qbmor.problems import gen_synthetic_dae
    sysdir = tmp_path / "dae"
    save_system(gen_synthetic_dae(20, 8, seed=0), sysdir)
    code = run(["reduce", "--system", str(sysdir / "manifest.json"),
                "--order", "14", "--out", str(tmp_path / "r")])
    assert code == 2
    assert "order must be < state dimension (14 >= 12)" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_reduce_nonpositive_tol(tmp_path):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(8, 0.1), sysdir)
    code = run(["reduce", "--system", str(sysdir / "manifest.json"),
                "--order", "2", "--tol", "0", "--out", str(tmp_path / "r")])
    assert code == 2


@pytest.mark.parametrize("command, flag, value", [
    ("reduce", "--order", "0"), ("reduce", "--tol", "nan"),
    ("reduce", "--max-iters", "0"), ("reduce", "--max-iters", "-2"),
    ("simulate", "--t-final", "-1"), ("simulate", "--dt", "nan"),
    ("simulate", "--t-final", "inf"), ("simulate", "--dt", "inf"),
])
def test_nonpositive_numeric_argument_is_usage_error(tmp_path, capsys, command,
                                                     flag, value):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(8, 0.1), sysdir)
    args = {"reduce": {"--order": "2", "--tol": "1e-5", "--max-iters": "5"},
            "simulate": {"--t-final": "1", "--dt": "0.1"}}[command]
    args[flag] = value
    code = run([command, "--system", str(sysdir / "manifest.json"),
                *(x for kv in args.items() for x in kv),
                "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"argument {flag}: must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reduce_nonconvergence_exit_code(tmp_path):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(12, 0.1), sysdir)
    red = tmp_path / "red"
    code = run(["reduce", "--system", str(sysdir / "manifest.json"),
                "--order", "3", "--tol", "1e-14", "--max-iters", "2",
                "--out", str(red)])
    assert code == 3
    assert (red / "trace.json").exists()  # artifacts written anyway


def test_reduce_and_simulate_dae(tmp_path):
    from qbmor.problems import gen_synthetic_dae
    sysdir = tmp_path / "dae"
    save_system(gen_synthetic_dae(20, 4, m=2, p=2, seed=1, quad_scale=0.1),
                sysdir)
    red = tmp_path / "red"
    code = run(["reduce", "--system", str(sysdir / "manifest.json"),
                "--order", "3", "--seed", "2", "--out", str(red)])
    assert code in (0, 3)  # converged or hit the cap; artifacts either way
    assert (red / "trace.json").exists()
    out = tmp_path / "traj.csv"
    assert run(["simulate", "--system", str(sysdir / "manifest.json"),
                "--t-final", "1", "--dt", "0.01", "--out", str(out)]) == 0
    with open(out) as fh:
        header = fh.readline().strip().split(",")
    assert header[-1] == "constraint_residual"


def test_reduce_homogenizes_b2(tmp_path):
    from qbmor.problems import gen_synthetic_dae
    sysdir = tmp_path / "dae"
    save_system(gen_synthetic_dae(16, 3, m=2, p=2, seed=9, quad_scale=0.1,
                                  with_b2=True, with_c2=True), sysdir)
    red = tmp_path / "red"
    code = run(["reduce", "--system", str(sysdir / "manifest.json"),
                "--order", "3", "--seed", "4", "--out", str(red)])
    assert code in (0, 3)
    manifest = json.loads((red / "manifest.json").read_text())
    # the reduced model carries the augmented input channels (u, u x u, u')
    assert manifest["dims"]["m"] == 2 + 4 + 2


def test_simulate_preset_first_row_zero(tmp_path):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(12, 0.1), sysdir)
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--system", str(sysdir / "manifest.json"),
                "--input", "preset:cavity", "--t-final", "1", "--dt", "0.01",
                "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        header = fh.readline().strip().split(",")
        first = [float(x) for x in fh.readline().split(",")]
    assert header[0] == "t" and "u_1" in header and "y_1" in header
    assert first[header.index("u_1")] == 0.0  # preset input vanishes at t = 0


@pytest.mark.parametrize("problem", ["burgers", "dae"])
def test_simulate_writes_newton_counts_beside_the_csv(tmp_path, problem):
    from qbmor.problems import gen_synthetic_dae, load_system
    from qbmor.simulate import InputSignal, simulate_dae, simulate_ode

    sysdir = tmp_path / "sys"
    if problem == "burgers":
        save_system(gen_burgers(12, 0.1), sysdir)
    else:
        save_system(gen_synthetic_dae(12, 3, seed=1, with_b2=True), sysdir)
    out = tmp_path / "traj.csv"
    assert run(["simulate", "--system", str(sysdir / "manifest.json"),
                "--t-final", "1", "--dt", "0.01", "--out", str(out)]) == 0
    system = load_system(sysdir / "manifest.json")
    simulate = simulate_ode if problem == "burgers" else simulate_dae
    traj = simulate(system, InputSignal.preset_cavity(system.m), 1.0, 0.01)
    counts = json.loads((tmp_path / "traj.newton.json").read_text())
    assert sorted(counts) == ["max_solves_per_step", "newton_iters", "newton_residuals",
                              "total_solves"]
    assert counts["newton_iters"] == traj.newton_iters.tolist()
    assert counts["newton_residuals"] == traj.newton_residuals.tolist()
    assert counts["total_solves"] == traj.newton_iters.sum()
    assert counts["max_solves_per_step"] == traj.newton_iters.max()
    assert len(counts["newton_iters"]) == traj.t.size
    # the CSV is the library's own, with nothing added
    traj.to_csv(tmp_path / "library.csv")
    assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_compare_identical_files(tmp_path):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(12, 0.1), sysdir)
    traj = tmp_path / "t.csv"
    run(["simulate", "--system", str(sysdir / "manifest.json"),
         "--t-final", "1", "--dt", "0.01", "--out", str(traj)])
    rep = tmp_path / "rep.json"
    code = run(["compare", "--full", str(traj), "--reduced", str(traj),
                "--out", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["aggregate_relative_l2"] == 0.0


def test_header_only_tables_fail_cleanly(tmp_path, capsys):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(12, 0.1), sysdir)
    traj = tmp_path / "traj.csv"
    assert run(["simulate", "--system", str(sysdir / "manifest.json"),
                "--t-final", "1", "--dt", "0.1", "--out", str(traj)]) == 0
    empty_input = tmp_path / "input.csv"
    empty_input.write_text("t,u_1\n")
    empty_traj = tmp_path / "empty.csv"
    empty_traj.write_text("t,u_1,y_1\n")
    capsys.readouterr()
    for args, bad in (
        (["simulate", "--system", str(sysdir / "manifest.json"),
          "--input", f"csv:{empty_input}", "--t-final", "1", "--dt", "0.1",
          "--out", str(tmp_path / "out.csv")], empty_input),
        (["compare", "--full", str(traj), "--reduced", str(empty_traj),
          "--out", str(tmp_path / "r.json")], empty_traj),
    ):
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("qbmor: error: ")
        assert f"{bad}: table has no data rows" in err


@pytest.mark.parametrize("case", ["csv-without-t", "unknown-input", "reduce-reduced",
                                  "norm-b2-dae"])
def test_refused_commands_fail_cleanly(tmp_path, capsys, case):
    from qbmor.problems import gen_synthetic_dae
    from qbmor.tqb_irka import IrkaConfig, tqb_irka_ode

    system = gen_burgers(12, 0.1)
    if case == "reduce-reduced":
        system, _ = tqb_irka_ode(system, IrkaConfig(r=2))
    elif case == "norm-b2-dae":
        system = gen_synthetic_dae(12, 3, m=2, p=2, seed=1, with_b2=True)
    manifest = str(save_system(system, tmp_path / "sys"))
    table = tmp_path / "input.csv"
    table.write_text("time,u_1\n0,0\n1,1\n")
    simulate = ["simulate", "--system", manifest, "--t-final", "1", "--dt", "0.1",
                "--out", str(tmp_path / "out.csv"), "--input"]
    args, message = {
        "csv-without-t": (simulate + [f"csv:{table}"],
                          f"{table}: input table must start with a 't' column"),
        "unknown-input": (simulate + ["sine"],
                          "unknown input 'sine' (use preset:cavity, zero, or csv:PATH)"),
        "reduce-reduced": (["reduce", "--system", manifest, "--order", "1",
                            "--out", str(tmp_path / "red")],
                           "cannot reduce an already-reduced model"),
        "norm-b2-dae": (["norm", "--system", manifest],
                        "norm of a B2 != 0 descriptor system: homogenize first"),
    }[case]
    capsys.readouterr()
    assert run(args) == 1
    assert capsys.readouterr().err == f"qbmor: error: {message}\n"
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "red").exists()


def test_compare_without_outputs_names_the_file(tmp_path, capsys):
    table = tmp_path / "no_outputs.csv"
    table.write_text("t,a,b\n0,1,2\n1,3,4\n")
    capsys.readouterr()
    assert run(["compare", "--full", str(table), "--reduced", str(table),
                "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("qbmor: error: ")
    assert f"{table}: trajectory CSV has no output (y_*) columns" in err


def test_compare_grid_mismatch(tmp_path):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(12, 0.1), sysdir)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["simulate", "--system", str(sysdir / "manifest.json"),
         "--t-final", "1", "--dt", "0.01", "--out", str(a)])
    run(["simulate", "--system", str(sysdir / "manifest.json"),
         "--t-final", "1", "--dt", "0.02", "--out", str(b)])
    code = run(["compare", "--full", str(a), "--reduced", str(b),
                "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_norm_scalar_closed_form(tmp_path, capsys):
    from qbmor.system_model import QbOdeSystem
    from qbmor.tensor_kron import HessianTensor

    sysdir = tmp_path / "scalar"
    scalar = QbOdeSystem(E=np.eye(1), A=np.array([[-0.5]]),
                         H=HessianTensor.zero(1), N=(np.zeros((1, 1)),),
                         B=np.ones((1, 1)), C=np.ones((1, 1)))
    save_system(scalar, sysdir)
    code = run(["norm", "--system", str(sysdir / "manifest.json")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1.000000000000"


def test_norm_on_dae_via_explicit_form(tmp_path, capsys):
    from qbmor.problems import gen_synthetic_dae
    sysdir = tmp_path / "dae"
    save_system(gen_synthetic_dae(14, 3, m=2, p=2, seed=2, quad_scale=0.05),
                sysdir)
    code = run(["norm", "--system", str(sysdir / "manifest.json")])
    assert code == 0
    float(capsys.readouterr().out.strip())  # prints a number


def test_simulate_with_csv_input(tmp_path):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(12, 0.1), sysdir)
    table = tmp_path / "input.csv"
    t = np.linspace(0.0, 1.0, 101)
    with open(table, "w") as fh:
        fh.write("t,u_1\n")
        for tk in t:
            fh.write(f"{tk},{np.sin(tk)}\n")
    out = tmp_path / "traj.csv"
    code = run(["simulate", "--system", str(sysdir / "manifest.json"),
                "--input", f"csv:{table}", "--t-final", "1", "--dt", "0.01",
                "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        fh.readline()
        rows = [line.split(",") for line in fh]
    # sampled input column follows the table
    assert float(rows[50][1]) == pytest.approx(np.sin(0.5), abs=1e-3)


def test_simulate_refuses_a_non_finite_input_table(tmp_path, capsys):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(12, 0.1), sysdir)
    table = tmp_path / "input.csv"
    table.write_text("t,u_1\n0,0\n0.5,inf\n1,1\n")
    out = tmp_path / "traj.csv"
    capsys.readouterr()
    assert run(["simulate", "--system", str(sysdir / "manifest.json"),
                "--input", f"csv:{table}", "--t-final", "1", "--dt", "0.01",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"qbmor: error: {table}: table samples must be finite\n"
    assert not out.exists()


def test_norm_on_reduced_model(tmp_path, capsys):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(24, 0.1), sysdir)
    red = tmp_path / "red"
    assert run(["reduce", "--system", str(sysdir / "manifest.json"),
                "--order", "4", "--seed", "3", "--out", str(red)]) == 0
    capsys.readouterr()
    assert run(["norm", "--system", str(red / "manifest.json")]) == 0
    reduced_norm = float(capsys.readouterr().out.strip())
    assert run(["norm", "--system", str(sysdir / "manifest.json")]) == 0
    full_norm = float(capsys.readouterr().out.strip())
    # a convergent reduction carries most of the system energy
    assert reduced_norm == pytest.approx(full_norm, rel=0.1)
    # the library reads a reduced model as the command does
    assert float(f"{truncated_h2_norm(load_system(red / 'manifest.json')):.12f}") == reduced_norm


def test_runtime_error_exit_code(tmp_path):
    code = run(["simulate", "--system", str(tmp_path / "missing.json"),
                "--t-final", "1", "--dt", "0.01",
                "--out", str(tmp_path / "t.csv")])
    assert code == 1


def test_reduce_deterministic_byte_identical(tmp_path):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(24, 0.05), sysdir)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = run(["reduce", "--system", str(sysdir / "manifest.json"),
                    "--order", "4", "--seed", "11", "--out", str(out)])
        assert code == 0
        outs.append((out / "trace.json").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_reduced_model_roundtrip(tmp_path):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(24, 0.05), sysdir)
    red = tmp_path / "red"
    assert run(["reduce", "--system", str(sysdir / "manifest.json"),
                "--order", "4", "--seed", "1", "--out", str(red)]) == 0
    out = tmp_path / "ry.csv"
    assert run(["simulate", "--system", str(red / "manifest.json"),
                "--t-final", "1", "--dt", "0.01", "--out", str(out)]) == 0
    full = tmp_path / "fy.csv"
    assert run(["simulate", "--system", str(sysdir / "manifest.json"),
                "--t-final", "1", "--dt", "0.01", "--out", str(full)]) == 0
    rep = tmp_path / "rep.json"
    assert run(["compare", "--full", str(full), "--reduced", str(out),
                "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["aggregate_relative_l2"] < 0.05


def test_malformed_matrix_entry_is_a_clean_error(tmp_path, capsys):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(8, 0.1), sysdir)
    hfile = sysdir / "H.mtx"
    lines = hfile.read_text().splitlines()
    lines[2] = "1 2"                      # first entry loses its value
    hfile.write_text("\n".join(lines) + "\n")
    code = run(["simulate", "--system", str(sysdir / "manifest.json"),
                "--t-final", "1", "--dt", "0.1", "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("qbmor: error:")
    assert "H.mtx" in err and "line 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("t_final, dt, ratio", [("1e300", "1e-300", "inf"),
                                                ("1", "3", "0.333")])
def test_simulate_grid_without_finite_steps_is_a_clean_error(tmp_path, capsys, t_final, dt,
                                                            ratio):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(8, 0.1), sysdir)
    code = run(["simulate", "--system", str(sysdir / "manifest.json"),
                "--t-final", t_final, "--dt", dt, "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("qbmor: error:")
    assert f"need 1 <= round(t_final / dt) < inf, got {ratio}" in err
    assert not (tmp_path / "t.csv").exists()


def test_simulate_grid_past_the_array_size_limit_is_a_clean_error(tmp_path, capsys):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(8, 0.1), sysdir)
    code = run(["simulate", "--system", str(sysdir / "manifest.json"),
                "--t-final", "1e20", "--dt", "1", "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == ("qbmor: error: cannot allocate a time grid of 100000000000000000000 "
                   "steps (t_final 1e+20, dt 1)\n")
    assert not (tmp_path / "t.csv").exists()


def test_out_of_memory_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 8.00 GiB")
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(8, 0.1), sysdir)
    monkeypatch.setattr("qbmor.cli.simulate_ode", exhausted)
    code = run(["simulate", "--system", str(sysdir / "manifest.json"),
                "--t-final", "1", "--dt", "0.1", "--out", str(tmp_path / "t.csv")])
    assert code == 1
    assert capsys.readouterr().err == "qbmor: error: out of memory: Unable to allocate 8.00 GiB\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("edit, key", [
    (lambda d: d["dims"].update(n=8.5), "dims 'n'"),
    (lambda d: d["dims"].update(n=None), "dims 'n'"),
    (lambda d: d["dims"].update(n=True), "dims 'n'"),
    (lambda d: d["dims"].update(m=0), "dims 'm'"),
    (lambda d: d["dims"].update(m=10**9), "dimension clash for B"),
    (lambda d: [d], "JSON object"),
    (lambda d: d.update(matrices="A.mtx"), "'matrices'"),
    (lambda d: d["matrices"].update(A=5), "'A'"),
    (lambda d: d["matrices"].update(N="N1.mtx"), "'N'"),
], ids=["float-dim", "null-dim", "bool-dim", "zero-dim", "huge-dim", "list-manifest",
        "string-matrices", "number-entry", "string-per-input-entry"])
def test_malformed_manifest_is_a_clean_error(tmp_path, capsys, edit, key):
    manifest = save_system(gen_burgers(8, 0.1), tmp_path / "sys")
    data = json.loads(open(manifest).read())
    data = edit(data) or data
    open(manifest, "w").write(json.dumps(data))
    code = run(["simulate", "--system", manifest, "--t-final", "1", "--dt", "0.1",
                "--out", str(tmp_path / "t.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"qbmor: error: {manifest}: ")
    assert key in err
