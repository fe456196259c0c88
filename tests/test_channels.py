"""Tests for channel constructors, the isometry's trace-preservation check, and spec loading."""

import json

import numpy as np
import pytest

from conftest import random_state_vector
from cqekit.channels import (
    MAX_DIM,
    TP_TOL,
    IsometricExtension,
    apply_isometry,
    builtin_isometry,
    channel_from_spec,
    dephasing,
    depolarizing_complete,
    erasure_kraus,
    identity_channel,
    isometric_extension,
    load_channel,
    tensor_power,
    tensor_product,
)
from cqekit.errors import (
    DimMismatch,
    NotTracePreserving,
    OutOfRange,
    SpecFormatError,
)
from cqekit.qlinalg import PureStateVector, matrix_entropies, matrix_sqrt_psd

H2_09 = 0.4689955935892812

PLUS = np.full((2, 2), 0.5, dtype=complex)


def outputs(v, rho):
    """(B, E) marginals of the isometry `v` applied to the A' half of a
    purification of `rho` on R (x) A'."""
    out = apply_isometry(v, matrix_sqrt_psd(rho).T)  # amplitudes (R, A') -> (R, B, E)
    psi = PureStateVector(out.reshape(-1), out.shape, ("R", "B", "E"))
    return psi.marginal_mat({"B"}), psi.marginal_mat({"E"})


def channel_output(v, rho):
    """Bob's output of the channel `v`, read from a purification through the isometry."""
    return outputs(v, rho)[0]


def kraus_ops(v):
    """The Kraus operators of the isometry `v`: its E slices, K_k[b, a] = V[b * d_E + k, a]."""
    return list(v.matrix.reshape(v.out_dim, v.env_dim, v.in_dim).transpose(1, 0, 2))


def kraus_sum(v, rho):
    return sum(k @ rho @ k.conj().T for k in kraus_ops(v))


def stacked(kraus):
    """The reference lift of a Kraus set: row b * len(kraus) + k of V is row b of K_k."""
    return np.stack(kraus, axis=1).reshape(-1, kraus[0].shape[1]) + 0j


def test_tp_deviation():
    # the isometry's construction is the one check: max |V^dag V - I| <= TP_TOL
    v = dephasing(0.3)
    assert np.max(np.abs(v.matrix.conj().T @ v.matrix - np.eye(2))) <= TP_TOL
    assert isometric_extension([np.eye(2, dtype=complex)]).env_dim == 1
    with pytest.raises(NotTracePreserving, match="^sum K\\^dag K deviates from I by 0.75$"):
        isometric_extension([0.5 * np.eye(2, dtype=complex)])
    with pytest.raises(NotTracePreserving, match="by 0.75$"):
        IsometricExtension(0.5 * np.eye(2, dtype=complex), 1)
    edge = np.sqrt(1.0 + 0.9 * TP_TOL) * np.eye(2, dtype=complex)
    assert IsometricExtension(edge, 1).in_dim == 2
    with pytest.raises(NotTracePreserving):
        IsometricExtension(np.sqrt(1.0 + 1.1 * TP_TOL) * np.eye(2, dtype=complex), 1)


def test_kraus_channel_rejects_non_tp():
    with pytest.raises(NotTracePreserving):
        isometric_extension((0.5 * np.eye(2, dtype=complex),))
    with pytest.raises(DimMismatch):
        isometric_extension((np.eye(2, dtype=complex), np.zeros((3, 2), dtype=complex)))
    with pytest.raises(DimMismatch):
        isometric_extension((np.ones(2, dtype=complex),))
    with pytest.raises(DimMismatch):
        isometric_extension(())


def test_dephasing_action():
    # flip probability is p/2, so the off-diagonal scales by 1 - p
    ch = dephasing(0.2)
    out = channel_output(ch, PLUS)
    assert np.allclose(out, kraus_sum(ch, PLUS), atol=1e-12)
    assert np.allclose(out, [[0.5, 0.4], [0.4, 0.5]])
    assert sorted(np.linalg.eigvalsh(out)) == pytest.approx([0.1, 0.9], abs=1e-12)
    assert matrix_entropies(out) == pytest.approx(H2_09, abs=1e-12)
    # p = 1 kills the off-diagonal entirely
    assert np.allclose(channel_output(dephasing(1.0), PLUS), np.eye(2) / 2)
    # p = 0 is the identity
    assert np.allclose(channel_output(dephasing(0.0), PLUS), PLUS)
    with pytest.raises(OutOfRange):
        dephasing(1.5)


def test_dephasing_fixes_diagonal_states():
    rho = np.diag([0.3, 0.7]).astype(complex)
    for p in (0.0, 0.4, 1.0):
        assert np.allclose(kraus_sum(dephasing(p), rho), rho)
        assert np.allclose(channel_output(dephasing(p), rho), rho)


def test_depolarizing_complete_maps_everything_to_maximally_mixed():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        ch = depolarizing_complete(d)
        for _ in range(5):
            v = random_state_vector(d, rng)
            rho = np.outer(v, v.conj())
            assert np.allclose(kraus_sum(ch, rho), np.eye(d) / d, atol=1e-12)
            assert np.allclose(channel_output(ch, rho), np.eye(d) / d, atol=1e-12)
    with pytest.raises(OutOfRange):
        depolarizing_complete(1)


def test_isometric_extension_shapes_and_consistency():
    v = dephasing(0.2)
    assert v.in_dim == 2 and v.out_dim == 2 and v.env_dim == 2
    # dimensions are read from the array shapes
    w = erasure_kraus(0.25, 3)
    assert (w.in_dim, w.out_dim, w.env_dim) == (3, 4, 4) and w.matrix.shape == (16, 3)
    with pytest.raises(DimMismatch):
        IsometricExtension(np.eye(5, 2, dtype=complex), 2)
    assert np.allclose(v.matrix.conj().T @ v.matrix, np.eye(2))
    rng = np.random.default_rng(9)
    for _ in range(10):
        psi = random_state_vector(2, rng)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(outputs(v, rho)[0], kraus_sum(v, rho), atol=1e-12)


def test_identity_channel_isometry_has_trivial_environment():
    v = identity_channel(3)
    assert v.env_dim == 1
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(outputs(v, rho)[0], rho)


def test_apply_isometry_keeps_reference_and_relabels():
    bell = np.eye(2, dtype=complex) / np.sqrt(2)  # amplitudes on A (x) A'
    v = dephasing(0.2)
    out = apply_isometry(v, bell)
    assert out.shape == (2, 2, 2)  # A kept, A' split into B, E
    psi = PureStateVector(out.reshape(-1), out.shape, ("A", "B", "E"))
    # reference marginal is untouched
    assert np.allclose(psi.marginal_mat({"A"}), np.eye(2) / 2)
    assert matrix_entropies(psi.marginal_mat({"E"})) == pytest.approx(H2_09, abs=1e-12)
    # every leading axis is kept: a stack of letters is one product
    stacked = apply_isometry(v, np.stack([bell, bell[::-1]]))
    assert stacked.shape == (2, 2, 2, 2)
    assert np.allclose(stacked[0], out) and np.allclose(stacked[1], out[::-1])
    with pytest.raises(DimMismatch):
        apply_isometry(builtin_isometry("erasure", 0.5, 3), bell)


def test_erasure_isometry_structure():
    eps = 0.3
    v = builtin_isometry("erasure", eps, 2)
    assert v.out_dim == 3 and v.env_dim == 3
    psi = np.array([1.0, 0.0], dtype=complex)
    rho = np.outer(psi, psi.conj())
    out_b, out_e = outputs(v, rho)
    assert np.allclose(out_b, kraus_sum(erasure_kraus(eps, 2), rho), atol=1e-12)
    # receiver sees the input with weight 1 - eps and the flag with weight eps
    assert out_b[0, 0].real == pytest.approx(1.0 - eps, abs=1e-12)
    assert out_b[2, 2].real == pytest.approx(eps, abs=1e-12)
    # environment: index 0 is the no-erasure branch, index 1 + j carries input j
    assert out_e[1, 1].real == pytest.approx(eps, abs=1e-12)
    assert out_e[0, 0].real == pytest.approx(1.0 - eps, abs=1e-12)


def test_erasure_isometry_matches_kraus_channel():
    rng = np.random.default_rng(31)
    for eps in (0.0, 0.25, 0.7, 1.0):
        v = builtin_isometry("erasure", eps, 2)
        ch = erasure_kraus(eps, 2)
        for _ in range(10):
            psi = random_state_vector(2, rng)
            rho = np.outer(psi, psi.conj())
            assert np.allclose(outputs(v, rho)[0], kraus_sum(ch, rho), atol=1e-12)


def test_erasure_complementary_is_erasure_with_swapped_probability():
    rng = np.random.default_rng(13)
    eps = 0.2
    v = builtin_isometry("erasure", eps, 2)
    w = builtin_isometry("erasure", 1.0 - eps, 2)
    # E index 1 + j holds input j and E index 0 plays the flag, B index 2
    to_b_basis = np.ix_([1, 2, 0], [1, 2, 0])
    for _ in range(10):
        psi = random_state_vector(2, rng)
        rho = np.outer(psi, psi.conj())
        comp = outputs(v, rho)[1][to_b_basis]
        assert np.allclose(comp, outputs(w, rho)[0], atol=1e-12)


def test_tensor_product_and_power():
    ch = tensor_product(dephasing(0.2), identity_channel(3))
    assert ch.in_dim == 6 and ch.out_dim == 6
    ch2 = tensor_power(dephasing(0.2), 2)
    assert ch2.in_dim == 4 and ch2.env_dim == 4
    assert np.max(np.abs(ch2.matrix.conj().T @ ch2.matrix - np.eye(4))) <= TP_TOL
    with pytest.raises(OutOfRange):
        tensor_power(dephasing(0.2), 0)
    # V is the lift of the Kronecker pairs (K_a, K_b), a-major, bit for bit
    parts = (dephasing(0.2), erasure_kraus(0.3, 2), depolarizing_complete(3),
             identity_channel(3), erasure_kraus(0.25, 1), dephasing(1.0))
    for a in parts:
        for b in parts:
            want = stacked([np.kron(ka, kb) for ka in kraus_ops(a) for kb in kraus_ops(b)])
            got = tensor_product(a, b)
            assert got.env_dim == a.env_dim * b.env_dim
            assert got.matrix.tobytes() == want.tobytes()
    for v in (dephasing(0.2), erasure_kraus(0.25, 2)):
        power = [v]
        for _ in range(2):
            power.append(tensor_product(power[-1], v))
            pairs = [np.kron(ka, kb) for ka in kraus_ops(power[-2]) for kb in kraus_ops(v)]
            assert power[-1].matrix.tobytes() == stacked(pairs).tobytes()
        for k, want in enumerate(power, start=1):
            assert tensor_power(v, k).matrix.tobytes() == want.matrix.tobytes()


def test_builtin_channels_are_the_lift_of_their_kraus_sets():
    # each constructor's V equals, bit for bit, the stack of its textbook Kraus operators
    for d in range(1, MAX_DIM + 1):
        assert identity_channel(d).matrix.tobytes() == stacked([np.eye(d, dtype=complex)]).tobytes()
        embed = np.eye(d + 1, d, dtype=complex)
        for eps in (0.0, 0.25, 1.0):
            flags = []
            for i in range(d):
                k = np.zeros((d + 1, d), dtype=complex)
                k[d, i] = np.sqrt(eps)
                flags.append(k)
            want = stacked([np.sqrt(1.0 - eps) * embed, *flags])
            assert erasure_kraus(eps, d).matrix.tobytes() == want.tobytes()
    for d in range(2, MAX_DIM + 1):
        shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
        weyl = [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b) / d
                for a in range(d) for b in range(d)]
        assert depolarizing_complete(d).matrix.tobytes() == stacked(weyl).tobytes()
    z = np.diag([1.0, -1.0]).astype(complex)
    for p in (0.0, 0.2, 0.5, 1.0):
        want = stacked([np.sqrt(1.0 - p / 2) * np.eye(2, dtype=complex), np.sqrt(p / 2) * z])
        assert dephasing(p).matrix.tobytes() == want.tobytes()


def test_builtin_isometry_dispatch():
    assert builtin_isometry("dephasing", 0.2).env_dim == 2
    assert builtin_isometry("erasure", 0.25).out_dim == 3
    assert builtin_isometry("depolarizing", None, 2).env_dim == 4
    assert builtin_isometry("identity", None, 2).env_dim == 1
    with pytest.raises(SpecFormatError):
        builtin_isometry("amplitude-damping", 0.2)
    with pytest.raises(SpecFormatError):
        builtin_isometry("dephasing")  # p is required
    # each is the channel_from_spec channel
    for args, spec in ((("dephasing", 0.2), {"kind": "dephasing", "p": 0.2}),
                       (("erasure", 0.3, 3), {"kind": "erasure", "epsilon": 0.3, "d": 3}),
                       (("depolarizing", None, 3), {"kind": "depolarizing", "d": 3})):
        want = channel_from_spec(spec).matrix
        assert np.array_equal(builtin_isometry(*args).matrix, want)


def test_dimension_cap():
    assert MAX_DIM == 16
    assert depolarizing_complete(MAX_DIM).in_dim == MAX_DIM
    # just above the cap: should it fail, a huge d would allocate 16 d^4 bytes
    for build in (identity_channel, depolarizing_complete, lambda d: erasure_kraus(0.25, d)):
        with pytest.raises(OutOfRange):
            build(MAX_DIM + 1)
    for kind in ("depolarizing", "identity"):
        with pytest.raises(OutOfRange):
            channel_from_spec({"kind": kind, "d": MAX_DIM + 1})
    identity_ops = [[[1.0 if i == j else 0.0, 0.0] for j in range(MAX_DIM + 1)]
                    for i in range(MAX_DIM + 1)]
    with pytest.raises(OutOfRange):
        channel_from_spec({"kind": "kraus", "ops": [identity_ops]})
    identity_max = [row[:-1] for row in identity_ops[:-1]]
    assert channel_from_spec({"kind": "kraus", "ops": [identity_max]}).in_dim == MAX_DIM
    # d is an integer, not a fractional, boolean or string value that int() would coerce
    own_fields = {"depolarizing": {}, "identity": {}, "erasure": {"epsilon": 0.2},
                  "dephasing": {"p": 0.2}}
    for d in (2.9, 3.0, True, "3", None):
        for kind, fields in own_fields.items():
            with pytest.raises(OutOfRange):
                channel_from_spec({"kind": kind, "d": d, **fields})
        with pytest.raises(OutOfRange):
            depolarizing_complete(d)
    assert depolarizing_complete(np.int64(3)).in_dim == 3
    for build in (identity_channel, lambda d: erasure_kraus(0.25, d)):
        with pytest.raises(OutOfRange):
            build(0)
    with pytest.raises(OutOfRange):
        depolarizing_complete(1)


def test_channel_from_spec_builtins_and_kraus():
    assert channel_from_spec({"kind": "dephasing", "p": 0.2}).out_dim == 2
    assert channel_from_spec({"kind": "erasure", "epsilon": 0.25, "d": 2}).out_dim == 3
    assert channel_from_spec({"kind": "depolarizing", "d": 3}).in_dim == 3
    assert channel_from_spec({"kind": "identity", "d": 3}).in_dim == 3
    assert channel_from_spec({"kind": "dephasing", "p": 0.2, "d": 2}).in_dim == 2
    assert kraus_ops(channel_from_spec({"kind": "dephasing", "p": 1}))[1][0, 0] == np.sqrt(0.5)
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
    # a missing field, an unknown field, and a value of the wrong type
    for spec in ({"kind": "dephasing"}, {"kind": "erasure", "d": 2},
                 {"kind": "depolarizing", "d": 2, "p": 0.1}, {"kind": "identity", "ops": []},
                 {"kind": "dephasing", "p": 0.2, "epsilon": 0.2},
                 {"kind": "dephasing", "p": None}, {"kind": "dephasing", "p": True},
                 {"kind": "dephasing", "p": "0.2"}, {"kind": "erasure", "epsilon": [0.2]},
                 {"kind": "kraus", "ops": 5}, {"kind": ["dephasing"]}, ["dephasing"]):
        with pytest.raises(SpecFormatError):
            channel_from_spec(spec)
    # a d that is not 2 for dephasing, an empty Kraus operator, and a NaN in one
    for spec in ({"kind": "dephasing", "p": 0.2, "d": 3}, {"kind": "kraus", "ops": [[]]}):
        with pytest.raises(OutOfRange):
            channel_from_spec(spec)
    nan_ops = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    with pytest.raises(SpecFormatError):
        channel_from_spec({"kind": "kraus", "ops": [nan_ops]})


def test_load_channel_roundtrip(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"kind": "dephasing", "p": 0.2}))
    ch = load_channel(str(path))
    assert np.allclose(kraus_ops(ch)[0], np.sqrt(0.9) * np.eye(2))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFormatError):
        load_channel(str(bad))
