import numpy as np
import pytest

from qbmor.dae_transform import build_projectors
from qbmor.mmio import atomic_open, read_matrix, write_json, write_matrix
from qbmor.problems import (
    gen_burgers,
    gen_synthetic_dae,
    load_system,
    save_system,
    steady_state_shift,
)
from qbmor.simulate import InputSignal, simulate_dae
from qbmor.system_model import QbDaeSystem, validate_ode
from qbmor.tensor_kron import apply_hessian, matricize

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
    rep = validate_ode(gen_burgers(12, 10.0))
    assert rep.stable and rep.spectral_abscissa < -50.0


def test_burgers_stencil_translation_structure():
    sys = gen_burgers(12, 0.1)
    M = matricize(sys.H, 1).toarray().reshape(12, 12, 12)
    # interior rows are shifted copies of one another
    for i in range(2, 10):
        assert np.array_equal(M[i, i - 1:i + 2, i - 1:i + 2],
                              M[2, 1:4, 1:4])


def test_burgers_parameter_validation():
    with pytest.raises(ValueError):
        gen_burgers(3, 0.1)
    with pytest.raises(ValueError):
        gen_burgers(10, -1.0)


# -- synthetic descriptor systems ----------------------------------------------


def test_synthetic_dae_passes_validation():
    sys = gen_synthetic_dae(24, 5, m=2, p=2, seed=0, quad_scale=0.1)
    assert sys.n_v == 24 and sys.n_p == 5
    S = sys.schur_complement()
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
    assert (matricize(loaded.H, 1) - matricize(sys.H, 1)).nnz == 0


def test_save_load_roundtrip_dae(tmp_path):
    sys = gen_synthetic_dae(14, 3, m=2, p=2, seed=8, quad_scale=0.1,
                            with_c2=True, with_b2=True)
    manifest = save_system(sys, tmp_path / "dae")
    loaded = load_system(manifest)
    assert isinstance(loaded, QbDaeSystem)
    for name in ("E11", "A11", "A12", "A21", "B1", "B2", "C1", "C2"):
        assert np.array_equal(getattr(loaded, name), getattr(sys, name)), name
    assert (matricize(loaded.H, 1) - matricize(sys.H, 1)).nnz == 0


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
