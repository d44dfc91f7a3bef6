import re

import numpy as np
import pytest

from qbmor.dae_transform import output_realization
from qbmor.gramians_norms import truncated_h2_norm
from qbmor.problems import gen_burgers, gen_synthetic_dae
from qbmor.system_model import (
    QbDaeSystem,
    QbOdeSystem,
    ReducedQbSystem,
    project_dae_outputs,
    project_ode,
    project_realization,
)
from qbmor.tensor_kron import HessianTensor, apply_hessian

from qbmor.simulate import InputSignal, simulate_dae, simulate_ode
from qbmor.tqb_irka import IrkaConfig, tqb_irka_dae_saddle, tqb_irka_ode

from helpers import random_stable_ode


def test_singular_mass_matrix_rejected_at_construction():
    with pytest.raises(ValueError, match="singular"):
        QbOdeSystem(E=np.zeros((1, 1)), A=-np.eye(1), H=HessianTensor.zero(1),
                    N=(np.zeros((1, 1)),), B=np.ones((1, 1)), C=np.ones((1, 1)))


def dae_blocks():
    """A valid descriptor system, n_v = 3 and n_p = 1: E11 = I, A12 = e1, A21 = e1^T."""
    n_v = 3
    e1 = np.eye(n_v)[:, :1]
    return dict(E11=np.eye(n_v), A11=-np.eye(n_v), A12=e1, A21=e1.T,
                H=HessianTensor.zero(n_v), N=(np.zeros((n_v, n_v)),),
                B1=np.ones((n_v, 1)), B2=None, C1=np.ones((1, n_v)), C2=None)


@pytest.mark.parametrize("change, message", [
    (dict(E11=np.zeros((3, 3))), "E11 numerically singular"),
    (dict(A12=np.zeros((3, 1))), "A12 is rank deficient"),
    (dict(A21=np.zeros((1, 3))), "A21 is rank deficient"),
    # A21 E11^-1 A12 = e2^T e1 = 0
    (dict(A21=np.eye(3)[1:2]),
     r"Schur complement A21 E11\^-1 A12 numerically singular"),
    (dict(A12=np.eye(3), A21=np.eye(3)), r"need 0 < n_p < n_v, got n_p=3, n_v=3"),
    (dict(v0=np.eye(3)[0]), "initial velocity violates the constraint"),
])
def test_dae_construction_rejections(change, message):
    QbDaeSystem(**dae_blocks())
    with pytest.raises(ValueError, match=message):
        QbDaeSystem(**{**dae_blocks(), **change})


def ode_fields():
    """A valid ODE realization, n = 3 and m = p = 1."""
    return dict(E=np.eye(3), A=-np.eye(3), H=HessianTensor.zero(3), N=(np.zeros((3, 3)),),
                B=np.ones((3, 1)), C=np.ones((1, 3)))


def reduced_fields():
    """A valid reduced model, r = 2, n_full = 3 and m = p = 1."""
    return dict(Ehat=np.eye(2), Ahat=-np.eye(2), Hhat=np.zeros((2, 4)), Nhat=(np.eye(2),),
                Bhat=np.ones((2, 1)), Chat=np.ones((1, 2)), V=np.eye(3, 2), W=np.eye(3, 2),
                CNhat=(np.ones((1, 2)),))


# (class, valid fields, input matrix, output matrix)
REALIZATIONS = [
    (QbOdeSystem, ode_fields, "B", "C"),
    (QbDaeSystem, dae_blocks, "B1", "C1"),
    (ReducedQbSystem, reduced_fields, "Bhat", "Chat"),
]


def _shrunk(M):
    """``M`` with its last column dropped, or its last row if it has one column."""
    if isinstance(M, HessianTensor):
        return HessianTensor.zero(M.n - 1)
    return M[:, :-1] if M.shape[1] > 1 else M[:-1]


# (class, valid fields, field name) for every field the valid fields set
FIELD_CASES = [
    pytest.param(cls, make, name, id=f"{cls.__name__}-{name}")
    for cls, make, _, _ in REALIZATIONS
    for name, value in make().items() if value is not None
]


@pytest.mark.parametrize("cls, make, name", FIELD_CASES)
def test_wrong_shape_is_rejected_naming_the_field(cls, make, name):
    fields = make()
    cls(**fields)
    value = fields[name]
    fields[name] = ((_shrunk(value[0]),) + value[1:] if isinstance(value, tuple)
                    else _shrunk(value))
    with pytest.raises(ValueError, match=name):
        cls(**fields)


def _poisoned(M):
    """``M`` as a float array with a NaN at its first entry; a tensor as its dense array."""
    M = M.to_dense() if isinstance(M, HessianTensor) else np.array(M, dtype=float)
    M.flat[0] = np.nan
    return M


@pytest.mark.parametrize("cls, make, name", FIELD_CASES)
def test_non_finite_data_is_rejected_naming_the_field(cls, make, name):
    fields = make()
    value = fields[name]
    fields[name] = ((_poisoned(value[0]),) + value[1:] if isinstance(value, tuple)
                    else _poisoned(value))
    message = ("tensor values must be finite" if name == "H"
               else re.escape(f"{name}[0]" if isinstance(value, tuple) else name)
               + " must be finite")
    with pytest.raises(ValueError, match="^" + message + "$"):
        cls(**fields)


def _name(x):
    return getattr(x, "__name__", x)


@pytest.mark.parametrize("cls, make, b, c", REALIZATIONS, ids=_name)
def test_per_input_counts_and_vector_orientation(cls, make, b, c):
    for name, value in make().items():
        if isinstance(value, tuple):
            with pytest.raises(ValueError, match="matrices"):
                cls(**{**make(), name: value * 2})
    n = make()[b].shape[0]
    sys = cls(**{**make(), b: np.ones(n), c: np.ones(n)})
    assert getattr(sys, b).shape == (n, 1) and getattr(sys, c).shape == (1, n)


@pytest.mark.parametrize("cls, make, b, c", REALIZATIONS, ids=_name)
def test_zero_inputs_or_outputs_are_rejected(cls, make, b, c):
    fields = make()
    n = fields[b].shape[0]
    no_inputs = {name: () for name, value in fields.items() if isinstance(value, tuple)}
    with pytest.raises(ValueError, match=b):
        cls(**{**fields, b: np.ones((n, 0)), **no_inputs})
    with pytest.raises(ValueError, match=c):
        cls(**{**fields, c: np.ones((0, n))})


@pytest.mark.parametrize("cls, make, c",
                         [(cls, make, c) for cls, make, _, c in REALIZATIONS], ids=_name)
def test_output_matrix_with_three_axes_is_rejected(cls, make, c):
    with pytest.raises(ValueError, match=c):
        cls(**{**make(), c: make()[c][:, :, None]})


@pytest.mark.parametrize("H", [np.zeros((6, 30)), np.zeros((6, 6, 5)), np.zeros(6)],
                         ids=["unfolding", "array", "vector"])
def test_hessian_of_wrong_shape_is_rejected_naming_the_field(H):
    b = gen_burgers(6, 0.05)
    with pytest.raises(ValueError, match=re.escape(f"H must have shape (6, 36), got {H.shape}")):
        QbOdeSystem(E=b.E, A=b.A, H=H, N=b.N, B=b.B, C=b.C)


def test_hessian_claimed_symmetric_is_made_symmetric():
    b = gen_burgers(30, 0.05)
    rng = np.random.default_rng(0)
    i, j, k = rng.integers(0, 30, (3, 60))
    v = rng.standard_normal(60)
    systems = [QbOdeSystem(E=b.E, A=b.A, H=HessianTensor(30, i, j, k, v, symmetric=sym),
                           N=b.N, B=b.B, C=b.C) for sym in (False, True)]
    plain, claimed = systems
    assert (plain.H.mode(1) != claimed.H.mode(1)).nnz == 0
    assert claimed.H.symmetric
    spectra = [tqb_irka_ode(sys, IrkaConfig(r=4, seed=1))[1].eigenvalues[-1] for sys in systems]
    assert np.array_equal(*spectra)
    assert truncated_h2_norm(plain) == truncated_h2_norm(claimed)


def test_sparse_mode1_hessian_is_ingested():
    other = random_stable_ode(4, 5)
    sys = QbOdeSystem(E=other.E, A=other.A, H=other.H.mode(1), N=other.N,
                      B=other.B, C=other.C)
    for a, b in ((sys.H._i, other.H._i), (sys.H._j, other.H._j),
                 (sys.H._k, other.H._k), (sys.H._v, other.H._v)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("entry, given, expected, hint", [
    (lambda s: tqb_irka_ode(s, IrkaConfig(r=2)), "QbDaeSystem", "QbOdeSystem",
     "tqb_irka_dae_saddle"),
    (lambda s: simulate_ode(s, InputSignal.zero(1), 1.0, 0.1), "QbDaeSystem",
     "QbOdeSystem or ReducedQbSystem", "simulate_dae"),
    (truncated_h2_norm, "QbDaeSystem", "QbOdeSystem or ReducedQbSystem", "explicit_ode"),
    (lambda s: tqb_irka_dae_saddle(s, IrkaConfig(r=2)), "QbOdeSystem", "QbDaeSystem",
     "tqb_irka_ode"),
    (lambda s: simulate_dae(s, InputSignal.zero(1), 1.0, 0.1), "QbOdeSystem", "QbDaeSystem",
     "simulate_ode"),
], ids=["tqb_irka_ode", "simulate_ode", "truncated_h2_norm", "tqb_irka_dae_saddle",
        "simulate_dae"])
def test_wrong_system_class_names_the_right_entry_point(entry, given, expected, hint):
    sys = (gen_synthetic_dae(12, 3, m=1, p=1, seed=1) if given == "QbDaeSystem" else
           gen_burgers(8, 0.5))
    with pytest.raises(TypeError, match=rf" expects a {expected}, not a {given} \(.*: {hint}"):
        entry(sys)


def test_project_identity_reproduces_system():
    sys = random_stable_ode(1, 5, m=2, p=2)
    red = project_ode(sys, np.eye(5), np.eye(5))
    assert np.allclose(red.Ehat, sys.E, atol=1e-14)
    assert np.allclose(red.Ahat, sys.A, atol=1e-14)
    assert np.allclose(red.Bhat, sys.B, atol=1e-14)
    assert np.allclose(red.Chat, sys.C, atol=1e-14)
    assert np.allclose(red.Hhat, sys.H.mode(1).toarray(), atol=1e-14)
    for Nk, Nr in zip(sys.N, red.Nhat):
        assert np.allclose(Nr, Nk, atol=1e-14)


def test_project_first_coordinate():
    sys = random_stable_ode(2, 4)
    e1 = np.eye(4)[:, :1]
    red = project_ode(sys, e1, e1)
    assert red.Ehat[0, 0] == pytest.approx(sys.E[0, 0])
    assert red.Ahat[0, 0] == pytest.approx(sys.A[0, 0])
    assert red.Hhat[0, 0] == pytest.approx(sys.H.mode(1).toarray()[0, 0])


def test_project_hessian_column_oracle():
    rng = np.random.default_rng(3)
    sys = random_stable_ode(3, 7, m=2)
    V, _ = np.linalg.qr(rng.standard_normal((7, 3)))
    W, _ = np.linalg.qr(rng.standard_normal((7, 3)))
    red = project_ode(sys, V, W)
    r = 3
    for a in range(r):
        for b in range(r):
            col = W.T @ apply_hessian(sys.H, V[:, a], V[:, b])
            # the stored reduced Hessian is symmetrized over its two state legs
            col_sym = W.T @ apply_hessian(sys.H, V[:, b], V[:, a])
            expect = 0.5 * (col + col_sym)
            assert np.linalg.norm(red.Hhat[:, a * r + b] - expect) <= 1e-12


def test_projection_composition():
    rng = np.random.default_rng(4)
    sys = random_stable_ode(5, 8, m=2, p=2)
    V1, _ = np.linalg.qr(rng.standard_normal((8, 5)))
    W1, _ = np.linalg.qr(rng.standard_normal((8, 5)))
    V2, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    W2, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    red_two_step_outer = project_ode(sys, V1 @ V2, W1 @ W2)
    inner = project_ode(sys, V1, W1)
    inner_sys = QbOdeSystem(E=inner.Ehat, A=inner.Ahat, H=inner.Hhat,
                            N=inner.Nhat, B=inner.Bhat, C=inner.Chat)
    red_nested = project_ode(inner_sys, V2, W2)
    for got, expect in [(red_nested.Ehat, red_two_step_outer.Ehat),
                        (red_nested.Ahat, red_two_step_outer.Ahat),
                        (red_nested.Hhat, red_two_step_outer.Hhat),
                        (red_nested.Bhat, red_two_step_outer.Bhat),
                        (red_nested.Chat, red_two_step_outer.Chat)]:
        assert np.allclose(got, expect, rtol=1e-12, atol=1e-12)


def test_project_linearity_in_system_matrices():
    rng = np.random.default_rng(5)
    s1 = random_stable_ode(6, 6, m=1, p=1)
    V, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    W, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    scaled = QbOdeSystem(E=s1.E, A=3.0 * s1.A, H=s1.H, N=s1.N, B=s1.B, C=s1.C)
    assert np.allclose(project_ode(scaled, V, W).Ahat,
                       3.0 * project_ode(s1, V, W).Ahat)


def test_zero_bilinear_matrix_projects_to_exact_zero_on_its_channel():
    rng = np.random.default_rng(8)
    sys = random_stable_ode(8, 6, m=3)
    V, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    W, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    N = (sys.N[0], np.zeros((6, 6)), sys.N[2])
    Nhat = project_realization(sys.E, sys.A, sys.H, N, sys.B, sys.C, V, W)[3]
    assert len(Nhat) == 3
    assert np.array_equal(Nhat[1], np.zeros((2, 2)))
    for k in (0, 2):
        assert np.array_equal(Nhat[k], W.T @ N[k] @ V)


def test_project_rank_deficient_basis_rejected():
    sys = random_stable_ode(7, 5)
    V = np.zeros((5, 2))
    V[:, 0] = V[:, 1] = np.eye(5)[:, 0]
    with pytest.raises(ValueError, match="^V is rank deficient$"):
        project_ode(sys, V, V)
    with pytest.raises(ValueError, match="^W is rank deficient$"):
        project_ode(sys, np.eye(5, 2), V)


def test_reduced_system_requires_orthonormal_bases():
    sys = random_stable_ode(8, 5)
    red = project_ode(sys, np.eye(5), np.eye(5))
    with pytest.raises(ValueError, match="orthonormal"):
        ReducedQbSystem(Ehat=red.Ehat, Ahat=red.Ahat, Hhat=red.Hhat,
                        Nhat=red.Nhat, Bhat=red.Bhat, Chat=red.Chat,
                        V=2.0 * red.V, W=red.W)


def test_reduced_system_recompute_from_bases():
    rng = np.random.default_rng(9)
    sys = random_stable_ode(9, 8, m=2, p=2)
    V, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    W, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    red = project_ode(sys, V, W)
    again = W.T @ sys.E @ V
    assert np.linalg.norm(red.Ehat - again) <= 1e-12 * np.linalg.norm(again)


# -- output-correction projection --------------------------------------------


def test_project_dae_outputs_zero_when_c2_zero():
    sys = gen_synthetic_dae(12, 3, m=2, p=2, seed=1, quad_scale=0.1)
    corr = output_realization(sys)
    CH, CN, D = project_dae_outputs(corr, np.linalg.qr(
        np.random.default_rng(0).standard_normal((12, 3)))[0])
    assert not CH.any() and not D.any()
    assert all(not M.any() for M in CN)
    assert np.array_equal(corr.C, sys.C1)


def test_project_dae_outputs_identity_basis():
    sys = gen_synthetic_dae(10, 2, m=2, p=2, seed=2, quad_scale=0.1,
                            with_c2=True)
    corr = output_realization(sys)
    CH, CN, D = project_dae_outputs(corr, np.eye(10))
    assert np.allclose(CH, corr.CH.toarray(), atol=1e-14)
    for got, M in zip(CN, corr.CN):
        assert np.allclose(got, M, atol=1e-14)
    assert np.array_equal(D, corr.D)


def test_project_dae_outputs_dense_kron_oracle():
    rng = np.random.default_rng(6)
    sys = gen_synthetic_dae(10, 2, m=2, p=2, seed=3, quad_scale=0.2,
                            with_c2=True)
    corr = output_realization(sys)
    V, _ = np.linalg.qr(rng.standard_normal((10, 3)))
    CH, _, _ = project_dae_outputs(corr, V)
    dense = corr.CH.toarray() @ np.kron(V, V)
    assert np.linalg.norm(CH - dense) <= 1e-12 * max(np.linalg.norm(dense), 1.0)


def test_project_dae_outputs_dimension_mismatch():
    sys = gen_synthetic_dae(10, 2, seed=4)
    corr = output_realization(sys)
    with pytest.raises(ValueError):
        project_dae_outputs(corr, np.eye(9))
