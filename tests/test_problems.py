import json
import re

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from qbmor import problems
from qbmor.dae_transform import build_projectors
from qbmor.mmio import _read_table, atomic_open, read_matrix, write_json, write_matrix
from qbmor.problems import (
    gen_burgers,
    gen_synthetic_dae,
    load_system,
    save_system,
    steady_state_shift,
)
from qbmor.simulate import InputSignal, simulate_dae
from qbmor.system_model import QbDaeSystem, ReducedQbSystem
from qbmor.tensor_kron import apply_hessian

from helpers import dae_steady_state


# -- Burgers ------------------------------------------------------------------


def test_burgers_diffusion_entry():
    sys = gen_burgers(4, 1.0)
    assert sys.A[0, 0] == pytest.approx(-50.0)  # -2 nu (n+1)^2 with n=4


def test_burgers_stencil_oracle():
    n, nu = 20, 0.1
    sys = gen_burgers(n, nu)
    assert sys.H.symmetric
    h = 1.0 / (n + 1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(n)
        xp = np.concatenate([[0.0], x, [0.0]])  # boundary values are zero
        expect = np.array([
            -x[i] * (xp[i + 2] - xp[i]) / (2.0 * h) for i in range(n)
        ])
        got = apply_hessian(sys.H, x, x)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_burgers_strong_diffusion_is_stable():
    sys = gen_burgers(12, 10.0)
    w = la.eigvals(sys.A, sys.E)
    assert w.real.max() < -50.0


def test_burgers_stencil_translation_structure():
    sys = gen_burgers(12, 0.1)
    M = sys.H.mode(1).toarray().reshape(12, 12, 12)
    # interior rows are shifted copies of one another
    for i in range(2, 10):
        assert np.array_equal(M[i, i - 1:i + 2, i - 1:i + 2],
                              M[2, 1:4, 1:4])


def test_burgers_parameter_validation():
    with pytest.raises(ValueError):
        gen_burgers(3, 0.1)
    for nu in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^viscosity must be positive and finite, got {nu}$"):
            gen_burgers(10, nu)


# -- synthetic descriptor systems ----------------------------------------------


@pytest.mark.parametrize("scale", [-0.1, np.nan, np.inf])
def test_synthetic_dae_quad_scale_must_be_non_negative_and_finite(scale):
    with pytest.raises(ValueError,
                       match=f"^quad_scale must be non-negative and finite, got {scale}$"):
        gen_synthetic_dae(20, 4, quad_scale=scale)


def test_synthetic_dae_passes_validation():
    sys = gen_synthetic_dae(24, 5, m=2, p=2, seed=0, quad_scale=0.1)
    assert sys.n_v == 24 and sys.n_p == 5
    S = sys.A21 @ np.linalg.solve(sys.E11, sys.A12)
    assert np.linalg.cond(S) < 1e10


def test_synthetic_dae_symmetric_variant():
    sys = gen_synthetic_dae(16, 4, m=2, p=2, seed=1, symmetric=True)
    assert np.array_equal(sys.A21, sys.A12.T)
    proj = build_projectors(sys)
    assert np.linalg.norm(proj.Pi_l - proj.Pi_r.T) <= 1e-10 * np.linalg.norm(proj.Pi_l)


def test_synthetic_dae_zero_quadratic():
    sys = gen_synthetic_dae(14, 3, seed=2, quad_scale=0.0)
    assert sys.H.nnz == 0


def test_synthetic_dae_deterministic_in_seed():
    a = gen_synthetic_dae(14, 3, seed=5, quad_scale=0.1)
    b = gen_synthetic_dae(14, 3, seed=5, quad_scale=0.1)
    assert np.array_equal(a.A11, b.A11)
    assert np.array_equal(a.B1, b.B1)


def test_synthetic_dae_dimension_guard():
    with pytest.raises(ValueError):
        gen_synthetic_dae(10, 6)


def test_synthetic_dae_exhausted_retries_name_the_last_reason(monkeypatch):
    monkeypatch.setattr(problems, "_dae_finite_abscissa", lambda *blocks: 0.0)
    with pytest.raises(RuntimeError, match=r"could not draw a valid descriptor system: "
                                           r"unstable constrained spectrum \(abscissa 0"):
        gen_synthetic_dae(14, 3, seed=0)


def test_synthetic_dae_retries_draws_the_constructor_rejects(monkeypatch):
    def reject(**fields):
        raise ValueError("A12 is rank deficient")

    monkeypatch.setattr(problems, "QbDaeSystem", reject)
    with pytest.raises(RuntimeError, match="A12 is rank deficient"):
        gen_synthetic_dae(14, 3, seed=0)


# -- steady-state shift ---------------------------------------------------------


def test_shift_zero_steady_state_is_identity():
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=3, quad_scale=0.1)
    shifted = steady_state_shift(sys, np.zeros(12), np.zeros(3))
    assert np.array_equal(shifted.A11, sys.A11)
    assert np.array_equal(shifted.B1, sys.B1)
    assert np.allclose(shifted.v0, 0.0)


def test_shift_linear_system_changes_nothing_but_inputs():
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=4, quad_scale=0.0)
    proj = build_projectors(sys)
    rng = np.random.default_rng(1)
    v_s = proj.Pi_r @ rng.standard_normal(12)
    p_s = rng.standard_normal(3)
    shifted = steady_state_shift(sys, v_s, p_s)
    assert np.array_equal(shifted.A11, sys.A11)  # X = 0 for H = 0


def test_shift_requires_constraint_compatible_steady_state():
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=5)
    with pytest.raises(ValueError, match="constraint"):
        steady_state_shift(sys, np.ones(12), np.zeros(3))


def unforced_equilibrium_system(seed=6, u_c=0.2):
    """Fold a constant forcing into the matrices so (v_s, p_s) is an
    equilibrium of the *unforced* system."""
    base = gen_synthetic_dae(12, 3, m=1, p=2, seed=seed, quad_scale=0.1)
    uc = np.array([u_c])
    v_s, p_s = dae_steady_state(base, uc)
    g = v_s / (v_s @ v_s)                     # g^T v_s = 1
    A11 = base.A11 + u_c * base.N[0] + np.outer(base.B1 @ uc, g)
    sys = QbDaeSystem(E11=base.E11, A11=A11, A12=base.A12, A21=base.A21,
                      H=base.H, N=base.N, B1=base.B1, B2=base.B2,
                      C1=base.C1, C2=base.C2, v0=np.zeros(12))
    return sys, v_s, p_s


def test_shift_equilibrium_oracle():
    sys, v_s, p_s = unforced_equilibrium_system()
    # the unforced system started at the steady state stays there
    traj = simulate_dae(sys, InputSignal.zero(1), 2.0, 0.01, v0=v_s)
    assert np.abs(traj.states[:, :12] - v_s).max() <= 1e-9

    shifted = steady_state_shift(sys, v_s, p_s)
    # unforced deviation dynamics stay at zero
    traj_dev = simulate_dae(shifted, InputSignal.zero(1), 2.0, 0.01)
    assert np.abs(traj_dev.states).max() <= 1e-9


def test_shift_trajectory_offset_equivalence():
    sys, v_s, p_s = unforced_equilibrium_system()
    shifted = steady_state_shift(sys, v_s, p_s)
    wobble = InputSignal(1, lambda t: 0.3 * np.sin(2.0 * t),
                         lambda t: 0.6 * np.cos(2.0 * t))
    t_orig = simulate_dae(sys, wobble, 2.0, 0.01, v0=v_s)
    t_dev = simulate_dae(shifted, wobble, 2.0, 0.01)
    v_rebuilt = t_dev.states[:, :12] + v_s
    err = (np.linalg.norm(t_orig.states[:, :12] - v_rebuilt)
           / np.linalg.norm(t_orig.states[:, :12]))
    assert err <= 1e-8


# -- matrix market and manifests -------------------------------------------------


def test_save_load_roundtrip_burgers(tmp_path):
    sys = gen_burgers(16, 0.1, seed=7)
    manifest = save_system(sys, tmp_path / "burgers")
    loaded = load_system(manifest)
    assert np.array_equal(loaded.E, sys.E)
    assert np.array_equal(loaded.A, sys.A)
    assert np.array_equal(loaded.B, sys.B)
    assert np.array_equal(loaded.C, sys.C)
    assert (loaded.H.mode(1) - sys.H.mode(1)).nnz == 0


def test_save_load_roundtrip_dae(tmp_path):
    sys = gen_synthetic_dae(14, 3, m=2, p=2, seed=8, quad_scale=0.1,
                            with_c2=True, with_b2=True)
    manifest = save_system(sys, tmp_path / "dae")
    loaded = load_system(manifest)
    assert isinstance(loaded, QbDaeSystem)
    for name in ("E11", "A11", "A12", "A21", "B1", "B2", "C1", "C2"):
        assert np.array_equal(getattr(loaded, name), getattr(sys, name)), name
    assert (loaded.H.mode(1) - sys.H.mode(1)).nnz == 0


@pytest.mark.parametrize("key, value, message", [
    ("A", np.diag([-1.0, np.nan, -1.0, -1.0]), "A must be finite"),
    ("H", sp.csr_matrix(([np.inf], ([0], [5])), shape=(4, 16)), "tensor values must be finite"),
], ids=["A", "H"])
def test_load_rejects_a_non_finite_matrix(tmp_path, key, value, message):
    manifest = save_system(gen_burgers(4, 0.1), tmp_path / "sys")
    write_matrix(str(tmp_path / "sys" / f"{key}.mtx"), value)
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_system(manifest)


def test_save_load_preserves_bilinear_channel_alignment(tmp_path):
    # a zero N_1 next to a nonzero N_2 must stay on its own channel
    base = gen_synthetic_dae(10, 2, m=2, p=2, seed=11, quad_scale=0.0)
    N = (np.zeros((10, 10)), base.N[1])
    sys = QbDaeSystem(E11=base.E11, A11=base.A11, A12=base.A12, A21=base.A21,
                      H=base.H, N=N, B1=base.B1, B2=base.B2,
                      C1=base.C1, C2=base.C2, v0=base.v0)
    loaded = load_system(save_system(sys, tmp_path / "sys"))
    assert not loaded.N[0].any()
    assert np.array_equal(loaded.N[1], base.N[1])


def test_burgers_manifest_file_set(tmp_path):
    out = tmp_path / "b"
    save_system(gen_burgers(16, 0.1), out)
    names = sorted(f.name for f in out.iterdir())
    assert names == ["A.mtx", "B.mtx", "C.mtx", "H.mtx", "manifest.json"]


def test_manifest_dimension_clash(tmp_path):
    out = tmp_path / "sys"
    manifest = save_system(gen_burgers(8, 0.1), out)
    import json
    data = json.loads(open(manifest).read())
    data["dims"]["n"] = 9
    open(manifest, "w").write(json.dumps(data))
    with pytest.raises(ValueError, match="dimension clash"):
        load_system(manifest)


def _saved_reduced_with_corrections(tmp_path):
    """Manifest of an r = 3, m = 1, p = 1 reduced model with N1 and CN1 files."""
    rng = np.random.default_rng(9)
    red = ReducedQbSystem(Ehat=np.eye(3), Ahat=-np.eye(3), Hhat=np.zeros((3, 9)),
                          Nhat=(rng.standard_normal((3, 3)),), Bhat=np.ones((3, 1)),
                          Chat=np.ones((1, 3)), V=np.eye(5, 3), W=np.eye(5, 3),
                          CNhat=(rng.standard_normal((1, 3)),))
    return save_system(red, tmp_path / "red")


def test_reduced_correction_file_shape_clash_names_the_file(tmp_path):
    manifest = _saved_reduced_with_corrections(tmp_path)
    assert load_system(manifest).CNhat[0].any()
    write_matrix(str(tmp_path / "red" / "CN1.mtx"), np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"CN entry 'CN1.mtx': expected \(1, 3\), got \(2, 2\)"):
        load_system(manifest)


def test_more_bilinear_files_than_inputs_names_the_manifest(tmp_path):
    import json
    manifest = _saved_reduced_with_corrections(tmp_path)
    data = json.loads(open(manifest).read())
    data["matrices"]["N"] = ["N1.mtx", "N1.mtx"]
    open(manifest, "w").write(json.dumps(data))
    with pytest.raises(ValueError) as info:
        load_system(manifest)
    assert str(info.value) == f"{manifest}: manifest lists 2 N files for 1 inputs"


def test_manifest_missing_dimension_is_named(tmp_path):
    import json
    manifest = save_system(gen_burgers(8, 0.1), tmp_path / "sys")
    data = json.loads(open(manifest).read())
    del data["dims"]["n"]
    open(manifest, "w").write(json.dumps(data))
    with pytest.raises(ValueError) as info:
        load_system(manifest)
    assert str(manifest) in str(info.value)
    assert "'n'" in str(info.value)


def _reduced(Nhat, CNhat=None):
    """An r = 3, m = 1, p = 1 reduced model with nonzero output corrections."""
    rng = np.random.default_rng(10)
    V = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    W = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    return ReducedQbSystem(Ehat=np.eye(3) + 0.1, Ahat=-np.eye(3),
                           Hhat=rng.standard_normal((3, 9)), Nhat=Nhat, Bhat=np.ones((3, 1)),
                           Chat=np.ones((1, 3)), V=V, W=W, CHhat=rng.standard_normal((1, 9)),
                           CNhat=CNhat, Dhat=np.full((1, 1), 0.5))


def _assert_reduced_equal(a, b):
    for name in ("Ehat", "Ahat", "Hhat", "Bhat", "Chat", "V", "W", "CHhat", "Dhat"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("Nhat", "CNhat"):
        assert len(getattr(a, name)) == len(getattr(b, name)), name
        for x, y in zip(getattr(a, name), getattr(b, name)):
            assert np.array_equal(x, y), name


def test_reduced_roundtrip_leaves_out_all_zero_bilinear_files(tmp_path):
    red = _reduced(Nhat=(np.zeros((3, 3)),), CNhat=(np.ones((1, 3)),))
    manifest = save_system(red, tmp_path / "red")
    _assert_reduced_equal(load_system(manifest), red)
    names = sorted(f.name for f in (tmp_path / "red").iterdir())
    assert names == ["A.mtx", "B.mtx", "C.mtx", "CH.mtx", "CN1.mtx", "D.mtx", "E.mtx",
                     "H.mtx", "V.mtx", "W.mtx", "manifest.json"]
    dims = json.loads(open(manifest).read())["dims"]
    assert dims == {"r": 3, "m": 1, "p": 1, "n_full": 5}


def test_reduced_directory_with_a_zero_bilinear_file_loads_equal(tmp_path):
    # older writers stored every N file of a reduced model, zeros included
    red = _reduced(Nhat=(np.zeros((3, 3)),))
    manifest = save_system(red, tmp_path / "red")
    write_matrix(str(tmp_path / "red" / "N1.mtx"), np.zeros((3, 3)))
    data = json.loads(open(manifest).read())
    data["matrices"]["N"] = ["N1.mtx"]
    open(manifest, "w").write(json.dumps(data))
    _assert_reduced_equal(load_system(manifest), red)


def test_reduced_manifest_without_full_dimension(tmp_path):
    # with n_full absent the bases must be r x r
    red = ReducedQbSystem(Ehat=np.eye(2), Ahat=-np.eye(2), Hhat=np.zeros((2, 4)),
                          Nhat=(np.eye(2),), Bhat=np.ones((2, 1)), Chat=np.ones((1, 2)),
                          V=np.eye(2), W=np.eye(2))
    manifest = save_system(red, tmp_path / "red")
    data = json.loads(open(manifest).read())
    del data["dims"]["n_full"]
    open(manifest, "w").write(json.dumps(data))
    loaded = load_system(manifest)
    _assert_reduced_equal(loaded, red)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["matrices"].pop("A"), "manifest is missing required matrix 'A'"),
    (lambda d: d.update(type="pde"), "unknown system type 'pde'"),
    (lambda d: d.pop("type"), "unknown system type None"),
], ids=["missing-required", "unknown-type", "no-type"])
def test_manifest_structure_errors_name_the_manifest(tmp_path, edit, message):
    manifest = save_system(gen_burgers(8, 0.1), tmp_path / "sys")
    data = json.loads(open(manifest).read())
    edit(data)
    open(manifest, "w").write(json.dumps(data))
    with pytest.raises(ValueError) as info:
        load_system(manifest)
    assert message in str(info.value) and str(manifest) in str(info.value)


def test_missing_manifest_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError, match="manifest not found"):
        load_system(tmp_path / "nowhere" / "manifest.json")


def test_saving_an_unsupported_object_is_a_type_error(tmp_path):
    with pytest.raises(TypeError, match="cannot save object of type dict"):
        save_system({"A": np.eye(2)}, tmp_path / "sys")
    assert not (tmp_path / "sys").exists()


def test_mm_output_bytes_match_per_value_formatting(tmp_path):
    vals = np.array([[0.1, -0.0, np.inf], [5e-324, 1e300, -1e-300],
                     [1.0 / 3.0, -np.inf, 1e-300]])
    coo = sp.coo_matrix((vals.ravel(), np.nonzero(np.ones((3, 3)))), shape=(3, 4))
    cases = [
        (vals, "array real general\n3 3\n",
         [f"{v:.17g}" for v in vals.ravel(order="F")]),
        (np.zeros((2, 3)), "array real general\n2 3\n", ["0"] * 6),
        (np.zeros((0, 3)), "array real general\n0 3\n", []),
        (coo, "coordinate real general\n3 4 9\n",
         [f"{i + 1} {j + 1} {v:.17g}" for i, j, v in zip(coo.row, coo.col, coo.data)]),
        (sp.csr_matrix((2, 3)), "coordinate real general\n2 3 0\n", []),
    ]
    for k, (M, head, lines) in enumerate(cases):
        path = tmp_path / f"m{k}.mtx"
        write_matrix(path, M)
        assert path.read_text() == "".join(
            [f"%%MatrixMarket matrix {head}"] + [line + "\n" for line in lines]), k


@pytest.mark.parametrize("entry", ["1 2", "1 1 1.0 2.0", "1 x 1.0"])
def test_mm_malformed_entry_names_file_and_line(tmp_path, entry):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    f"% comment\n2 2 2\n1 1 1.0\n{entry}\n")
    with pytest.raises(ValueError, match=r"bad\.mtx: line 5"):
        read_matrix(path)


def test_mm_complex_field_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                    "2 2 1\n1 1 1.0 2.0\n")
    with pytest.raises(ValueError, match="unsupported field"):
        read_matrix(path)


def test_mm_zero_based_indices_rejected(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n0 1 1.0\n")
    with pytest.raises(ValueError, match="0-based"):
        read_matrix(path)


def test_mm_malformed_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("not a matrix market file\n1 1\n0.0\n")
    with pytest.raises(ValueError, match="header"):
        read_matrix(path)


_COORD = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("text, message", [
    ("%%MatrixMarket vector coordinate real general\n1 1 0\n",
     "malformed header: '%%MatrixMarket vector coordinate real general'"),
    ("%%MatrixMarket matrix coordinate real\n1 1 0\n", "malformed header: "),
    ("%%MatrixMarket matrix coordinate real symmetric\n1 1 0\n",
     "unsupported symmetry 'symmetric' (need general)"),
    ("%%MatrixMarket matrix sparse real general\n1 1 0\n", "unsupported format 'sparse'"),
    (_COORD + "% a comment, then nothing\n\n", "missing size line"),
    (_COORD + "2 2 2\n1 1 1.0\n", "header promises 2 entries, file has 1"),
    (_COORD + "2 2 1\n3 1 1.0\n", "index exceeds declared shape (2, 2)"),
    ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n",
     "array body has 3 values, expected 4"),
    # float() takes "1_000" line by line but the loader does not: its own message is kept
    ("%%MatrixMarket matrix array real general\n1 1\n1_000\n",
     "could not convert string '1_000' to float64"),
], ids=["banner-without-matrix", "field-count", "symmetry", "format", "no-size-line", "nnz",
        "index-past-shape", "array-count", "loader-only"])
def test_mm_rejections_name_the_file(tmp_path, text, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
        read_matrix(path)


@pytest.mark.parametrize("body, message", [
    ("0,1\n1,2,3\n", "data row 2 has 3 columns, the header has 2"),
    ("0,1\n1,two\n", "non-numeric table entry (could not convert string to float: 'two')"),
])
def test_table_rejections_name_the_file(tmp_path, body, message):
    path = tmp_path / "table.csv"
    path.write_text("t,u_1\n" + body)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
        _read_table(path)


def test_mm_missing_file():
    with pytest.raises(FileNotFoundError):
        read_matrix("/nonexistent/never.mtx")


def test_mm_dense_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(9)
    M = rng.standard_normal((5, 3)) * np.exp(rng.uniform(-20, 20, (5, 3)))
    path = tmp_path / "m.mtx"
    write_matrix(path, M)
    assert np.array_equal(read_matrix(path), M)


def test_failed_atomic_write_leaves_no_partial_or_temp_file(tmp_path):
    fresh = tmp_path / "fresh.json"
    with pytest.raises(TypeError):
        write_json(fresh, {"a": 1, "b": object()})   # fails after "a" is written
    kept = tmp_path / "kept.txt"
    kept.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(kept) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt"]
    assert kept.read_text() == "old\n"
