"""Tests for channel constructors, Kraus/isometry validation, and spec loading."""

import json

import numpy as np
import pytest

from conftest import random_state_vector
from cqekit.channels import (
    TP_TOL,
    KrausChannel,
    apply,
    apply_isometry,
    builtin_isometry,
    channel_from_spec,
    dephasing,
    depolarizing_complete,
    erasure_isometry,
    erasure_kraus,
    identity_channel,
    isometric_extension,
    load_channel,
    tensor_power,
    tensor_product,
    tp_deviation,
)
from cqekit.errors import (
    DimMismatch,
    NotTracePreserving,
    OutOfRange,
    SpecFormatError,
)
from cqekit.qlinalg import DensityOperator, PureStateVector, matrix_entropy

H2_09 = 0.4689955935892812

PLUS = DensityOperator(np.full((2, 2), 0.5, dtype=complex), (2,), ("A",))


def test_tp_deviation():
    assert tp_deviation(dephasing(0.3).kraus) <= TP_TOL
    assert tp_deviation([np.eye(2, dtype=complex)]) <= TP_TOL
    assert tp_deviation([0.5 * np.eye(2, dtype=complex)]) == pytest.approx(0.75, abs=1e-14)


def test_kraus_channel_rejects_non_tp():
    with pytest.raises(NotTracePreserving):
        KrausChannel((0.5 * np.eye(2, dtype=complex),), 2, 2)
    with pytest.raises(DimMismatch):
        KrausChannel((np.eye(2, dtype=complex),), 2, 3)


def test_dephasing_action():
    # flip probability is p/2, so the off-diagonal scales by 1 - p
    ch = dephasing(0.2)
    out = apply(ch, PLUS)
    assert np.allclose(out.mat, [[0.5, 0.4], [0.4, 0.5]])
    assert sorted(np.linalg.eigvalsh(out.mat)) == pytest.approx([0.1, 0.9], abs=1e-12)
    assert matrix_entropy(out.mat) == pytest.approx(H2_09, abs=1e-12)
    # p = 1 kills the off-diagonal entirely
    full = apply(dephasing(1.0), PLUS)
    assert np.allclose(full.mat, np.eye(2) / 2)
    # p = 0 is the identity
    assert np.allclose(apply(dephasing(0.0), PLUS).mat, PLUS.mat)
    with pytest.raises(OutOfRange):
        dephasing(1.5)


def test_dephasing_fixes_diagonal_states():
    rho = DensityOperator(np.diag([0.3, 0.7]).astype(complex), (2,), ("A",))
    for p in (0.0, 0.4, 1.0):
        assert np.allclose(apply(dephasing(p), rho).mat, rho.mat)


def test_depolarizing_complete_maps_everything_to_maximally_mixed():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        ch = depolarizing_complete(d)
        for _ in range(5):
            v = random_state_vector(d, rng)
            rho = DensityOperator(np.outer(v, v.conj()), (d,), ("A",))
            assert np.allclose(apply(ch, rho).mat, np.eye(d) / d, atol=1e-12)
    with pytest.raises(OutOfRange):
        depolarizing_complete(1)


def test_isometric_extension_shapes_and_consistency():
    ch = dephasing(0.2)
    v = isometric_extension(ch)
    assert v.in_dim == 2 and v.out_dim == 2 and v.env_dim == 2
    assert np.allclose(v.matrix.conj().T @ v.matrix, np.eye(2))
    rng = np.random.default_rng(9)
    for _ in range(10):
        psi = random_state_vector(2, rng)
        rho = np.outer(psi, psi.conj())
        direct = sum(k @ rho @ k.conj().T for k in ch.kraus)
        assert np.allclose(v.channel_output_mat(rho), direct, atol=1e-12)


def test_identity_channel_isometry_has_trivial_environment():
    v = isometric_extension(identity_channel(3))
    assert v.env_dim == 1
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(v.channel_output_mat(rho), rho)


def test_apply_isometry_keeps_reference_and_relabels():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    phi = PureStateVector(bell, (2, 2), ("A", "Ap"))
    out = apply_isometry(isometric_extension(dephasing(0.2)), phi)
    assert out.labels == ("A", "B", "E")
    assert out.dims == (2, 2, 2)
    # reference marginal is untouched
    assert np.allclose(out.marginal_mat({"A"}), np.eye(2) / 2)
    assert matrix_entropy(out.marginal_mat({"E"})) == pytest.approx(H2_09, abs=1e-12)
    with pytest.raises(DimMismatch):
        apply_isometry(erasure_isometry(0.5, 3), phi)


def test_erasure_isometry_structure():
    eps = 0.3
    v = erasure_isometry(eps, 2)
    assert v.out_dim == 3 and v.env_dim == 3
    psi = np.array([1.0, 0.0], dtype=complex)
    rho = np.outer(psi, psi.conj())
    out_b = v.channel_output_mat(rho)
    # receiver sees the input with weight 1 - eps and the flag with weight eps
    assert out_b[0, 0].real == pytest.approx(1.0 - eps, abs=1e-12)
    assert out_b[2, 2].real == pytest.approx(eps, abs=1e-12)
    out_e = v.complementary_output_mat(rho)
    assert out_e[0, 0].real == pytest.approx(eps, abs=1e-12)
    assert out_e[2, 2].real == pytest.approx(1.0 - eps, abs=1e-12)


def test_erasure_isometry_matches_kraus_channel():
    rng = np.random.default_rng(31)
    for eps in (0.0, 0.25, 0.7, 1.0):
        v = erasure_isometry(eps, 2)
        ch = erasure_kraus(eps, 2)
        for _ in range(10):
            psi = random_state_vector(2, rng)
            rho = np.outer(psi, psi.conj())
            kraus_out = sum(k @ rho @ k.conj().T for k in ch.kraus)
            assert np.allclose(v.channel_output_mat(rho), kraus_out, atol=1e-12)


def test_erasure_complementary_is_erasure_with_swapped_probability():
    rng = np.random.default_rng(13)
    eps = 0.2
    v = erasure_isometry(eps, 2)
    w = erasure_isometry(1.0 - eps, 2)
    for _ in range(10):
        psi = random_state_vector(2, rng)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(v.complementary_output_mat(rho), w.channel_output_mat(rho), atol=1e-12)


def test_tensor_product_and_power():
    ch = tensor_product(dephasing(0.2), identity_channel(3))
    assert ch.in_dim == 6 and ch.out_dim == 6
    ch2 = tensor_power(dephasing(0.2), 2)
    assert ch2.in_dim == 4 and len(ch2.kraus) == 4
    assert tp_deviation(ch2.kraus) <= TP_TOL
    with pytest.raises(OutOfRange):
        tensor_power(dephasing(0.2), 0)


def test_builtin_isometry_dispatch():
    assert builtin_isometry("dephasing", 0.2).env_dim == 2
    assert builtin_isometry("erasure", 0.25).out_dim == 3
    assert builtin_isometry("depolarizing", None, 2).env_dim == 4
    assert builtin_isometry("identity", None, 2).env_dim == 1
    with pytest.raises(OutOfRange):
        builtin_isometry("amplitude-damping", 0.2)


def test_channel_from_spec_builtins_and_kraus():
    assert channel_from_spec({"kind": "dephasing", "p": 0.2}).out_dim == 2
    assert channel_from_spec({"kind": "erasure", "epsilon": 0.25, "d": 2}).out_dim == 3
    assert channel_from_spec({"kind": "depolarizing", "d": 3}).in_dim == 3
    ident = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    ch = channel_from_spec({"kind": "kraus", "ops": [ident]})
    assert ch.in_dim == 2 and ch.out_dim == 2


def test_channel_from_spec_rejects_bad_input():
    with pytest.raises(SpecFormatError):
        channel_from_spec({"p": 0.2})
    with pytest.raises(SpecFormatError):
        channel_from_spec({"kind": "kraus", "ops": []})
    with pytest.raises(SpecFormatError):
        channel_from_spec({"kind": "mystery"})
    half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    with pytest.raises(SpecFormatError):
        channel_from_spec({"kind": "kraus", "ops": [half]})


def test_load_channel_roundtrip(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"kind": "dephasing", "p": 0.2}))
    ch = load_channel(str(path))
    assert np.allclose(ch.kraus[0], np.sqrt(0.9) * np.eye(2))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFormatError):
        load_channel(str(bad))
