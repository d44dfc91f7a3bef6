import json

import numpy as np
import pytest

from qbmor.cli import main
from qbmor.problems import gen_burgers, save_system


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


def test_reduce_nonpositive_tol(tmp_path):
    sysdir = tmp_path / "sys"
    save_system(gen_burgers(8, 0.1), sysdir)
    code = run(["reduce", "--system", str(sysdir / "manifest.json"),
                "--order", "2", "--tol", "0", "--out", str(tmp_path / "r")])
    assert code == 2


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
