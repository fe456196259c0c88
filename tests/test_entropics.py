"""Tests for ensembles, the one-shot joint state, and its entropic quantities."""

import json
import math

import numpy as np
import pytest

from conftest import random_ensemble, random_state_vector
from cqekit import entropics
from cqekit.channels import MAX_DIM, TP_TOL, KrausChannel, builtin_isometry, isometric_extension
from cqekit.entropics import (
    NORM_TOL,
    STATE_NORM_TOL,
    CQEJointState,
    CQEnsemble,
    EntropyProfile,
    channel_output_ensemble,
    coherent_A_given_BX,
    cond_entropy_A_given_X,
    cond_mutual_A_B_given_X,
    cond_mutual_A_E_given_X,
    ensemble_from_spec,
    holevo_X_B,
    load_ensemble,
    make_ensemble,
    mu_ensemble,
    mutual_AX_B,
    verify_identities,
)
from cqekit.errors import DimMismatch, InvalidState, SpecFormatError
from cqekit.qlinalg import PureStateVector, binary_entropy, matrix_entropy
from cqekit.cli import main
from cqekit.regions import ENTROPIC_TOL, corner_points, derive_children, region_from_state

H2_09 = 0.4689955935892812
I_AXB_DEPH = 1.5310044064107187  # 2 - H2(0.9) for p = 0.2, mu = 1/2

DEPHASING = builtin_isometry("dephasing", 0.2)
ERASURE = builtin_isometry("erasure", 0.25)
DEPOLARIZING = builtin_isometry("depolarizing")
ISOMETRIES = (DEPHASING, ERASURE, DEPOLARIZING)


def test_ensemble_probability_validation():
    v = np.array([1.0, 0, 0, 0], dtype=complex)
    with pytest.raises(InvalidState):
        make_ensemble([(0.6, v), (0.6, v)], 2, 2)
    with pytest.raises(InvalidState):
        make_ensemble([(-0.1, v), (1.1, v)], 2, 2)
    for probs in ([float("nan"), 1.0], [0.5, float("nan")]):
        with pytest.raises(InvalidState):
            make_ensemble([(p, v) for p in probs], 2, 2)


def test_ensemble_pruning_drops_zero_weight():
    v = np.array([1.0, 0, 0, 0], dtype=complex)
    w = np.array([0, 0, 0, 1.0], dtype=complex)
    ens = make_ensemble([(1.0, v), (0.0, w)], 2, 2)
    assert ens.probs.tolist() == [1.0]
    assert np.array_equal(ens.amps, v.reshape(1, 2, 2))
    assert ens.pruned() is ens  # nothing left to drop: no copy, no second validation


def test_ensemble_cardinality_warning():
    rng = np.random.default_rng(0)
    entries = [(1.0 / 6.0, random_state_vector(4, rng)) for _ in range(6)]
    with pytest.warns(UserWarning):
        make_ensemble(entries, 2, 2)


def test_mu_ensemble_structure():
    ens = mu_ensemble(0.3)
    assert ens.probs.tolist() == [0.5, 0.5]
    assert ens.amps.shape == (2, 2, 2)  # (letters, d_A, d_A')
    assert (ens.dim_A, ens.dim_Aprime) == (2, 2)
    assert ens.amps[0, 0, 0] == pytest.approx(np.sqrt(0.3))
    assert ens.amps[0, 1, 1] == pytest.approx(np.sqrt(0.7))
    # mu = 0 gives orthogonal product states
    ens0 = mu_ensemble(0.0)
    assert abs(np.vdot(ens0.amps[0], ens0.amps[1])) < 1e-15
    with pytest.raises(InvalidState):
        mu_ensemble(1.2)


def test_channel_output_ensemble_dimensions():
    sigma = channel_output_ensemble(mu_ensemble(0.3), ERASURE)
    assert (sigma.dim_A, sigma.dim_B, sigma.dim_E) == (2, 3, 3)
    assert sigma.psi.shape == (2, 2, 3, 3)  # (letters, d_A, d_B, d_E)
    with pytest.raises(DimMismatch):
        mismatched = make_ensemble([(1.0, random_state_vector(6, np.random.default_rng(1)))], 2, 3)
        channel_output_ensemble(mismatched, ERASURE)


def test_identity_channel_trivial_block():
    # a single product letter through the identity carries no correlations
    v = np.array([1.0, 0, 0, 0], dtype=complex)
    sigma = channel_output_ensemble(
        make_ensemble([(1.0, v)], 2, 2), builtin_isometry("identity")
    )
    assert cond_entropy_A_given_X(sigma) == pytest.approx(0.0, abs=1e-12)
    assert holevo_X_B(sigma) == pytest.approx(0.0, abs=1e-12)
    assert coherent_A_given_BX(sigma) == pytest.approx(0.0, abs=1e-12)
    assert mutual_AX_B(sigma) == pytest.approx(0.0, abs=1e-12)


def test_dephasing_mu_half_entropics():
    sigma = channel_output_ensemble(mu_ensemble(0.5), DEPHASING)
    assert cond_entropy_A_given_X(sigma) == pytest.approx(1.0, abs=1e-12)
    assert holevo_X_B(sigma) == pytest.approx(0.0, abs=1e-12)
    assert cond_mutual_A_B_given_X(sigma) == pytest.approx(2.0 - H2_09, abs=1e-12)
    assert cond_mutual_A_E_given_X(sigma) == pytest.approx(H2_09, abs=1e-12)
    assert coherent_A_given_BX(sigma) == pytest.approx(1.0 - H2_09, abs=1e-12)
    assert mutual_AX_B(sigma) == pytest.approx(I_AXB_DEPH, abs=1e-12)


@pytest.mark.parametrize("eps", [0.0, 0.25, 0.6])
@pytest.mark.parametrize("mu", [0.1, 0.37, 0.5])
def test_erasure_entropics_closed_form(eps, mu):
    sigma = channel_output_ensemble(mu_ensemble(mu), builtin_isometry("erasure", eps))
    h_mu = binary_entropy(mu)
    assert cond_entropy_A_given_X(sigma) == pytest.approx(h_mu, abs=1e-10)
    assert holevo_X_B(sigma) == pytest.approx((1 - eps) * (1 - h_mu), abs=1e-10)
    assert coherent_A_given_BX(sigma) == pytest.approx((1 - 2 * eps) * h_mu, abs=1e-10)
    assert cond_mutual_A_E_given_X(sigma) == pytest.approx(2 * eps * h_mu, abs=1e-10)
    assert mutual_AX_B(sigma) == pytest.approx((1 + h_mu) * (1 - eps), abs=1e-10)


def test_depolarizing_maximally_entangled_letter():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    sigma = channel_output_ensemble(make_ensemble([(1.0, bell)], 2, 2), DEPOLARIZING)
    assert coherent_A_given_BX(sigma) == pytest.approx(-1.0, abs=1e-10)
    assert holevo_X_B(sigma) == pytest.approx(0.0, abs=1e-10)
    assert abs(mutual_AX_B(sigma)) < 1e-10


def test_nonnegativity_of_mutual_informations():
    rng = np.random.default_rng(42)
    for _ in range(25):
        ens = random_ensemble(rng)
        for iso in ISOMETRIES:
            sigma = channel_output_ensemble(ens, iso)
            assert holevo_X_B(sigma) >= -1e-10
            assert cond_mutual_A_B_given_X(sigma) >= -1e-10
            assert cond_mutual_A_E_given_X(sigma) >= -1e-10
            assert mutual_AX_B(sigma) >= -1e-10


def test_verify_identities_random_sweep():
    rng = np.random.default_rng(99)
    for _ in range(50):
        ens = random_ensemble(rng)
        for iso in ISOMETRIES:
            report = verify_identities(channel_output_ensemble(ens, iso))
            assert report.max_residual <= 1e-9
            assert set(report.residuals) == {
                "entropy_identity",
                "coherent_identity",
                "ent_coh_mut_identity",
                "chain_rule",
            }


def test_identities_exact_on_mu_ensemble():
    report = verify_identities(channel_output_ensemble(mu_ensemble(0.3), DEPHASING))
    assert report.max_residual <= 1e-12


def test_splitting_a_letter_keeps_entropics():
    # duplicating a letter with split probability is the same ensemble
    rng = np.random.default_rng(7)
    v = random_state_vector(4, rng)
    w = random_state_vector(4, rng)
    ens_a = make_ensemble([(0.6, v), (0.4, w)], 2, 2)
    ens_b = make_ensemble([(0.3, v), (0.3, v), (0.4, w)], 2, 2)
    for iso in ISOMETRIES:
        sa = channel_output_ensemble(ens_a, iso)
        sb = channel_output_ensemble(ens_b, iso)
        for func in (holevo_X_B, coherent_A_given_BX, cond_mutual_A_B_given_X, mutual_AX_B):
            assert func(sa) == pytest.approx(func(sb), abs=1e-10)


def test_region_pipeline_eigensolves_once_per_state(monkeypatch):
    # One stacked call each for H(A), H(B), H(E) over both blocks, H(avg B), and
    # the blocks of H(AX) and H(AXB) in the cross-check: 6 eigensolve calls,
    # all on first profile access.  No block-diagonal matrix is assembled, so
    # no solved matrix is larger than d_A * d_B = 4 per side.
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or real(m))
    sigma = channel_output_ensemble(mu_ensemble(0.5), DEPHASING)
    region = region_from_state(sigma)
    corner_points(region, 2.0)
    before_children = len(calls)
    derive_children(sigma)
    assert len(calls) == 6
    assert len(calls) == before_children
    assert max(side for shape in calls for side in shape[-2:]) == 4


def test_region_pipeline_applies_the_isometry_once_per_state(monkeypatch, capsys):
    # The letters are one array: a state is one isometry product over all of
    # them, and no per-letter PureStateVector is built from input to output.
    applied, built = [], []
    real = entropics.apply_isometry
    monkeypatch.setattr(entropics, "apply_isometry",
                        lambda v, amps: applied.append(amps.shape) or real(v, amps))
    monkeypatch.setattr(PureStateVector, "__post_init__", lambda self: built.append(self))
    ens = random_ensemble(np.random.default_rng(3))
    sigma = channel_output_ensemble(ens, ERASURE)
    corner_points(region_from_state(sigma), 2.0)
    derive_children(sigma)
    assert main(["region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.5"]) == 0
    assert capsys.readouterr().out
    assert applied == [ens.amps.shape, (2, 2, 2)]
    assert built == []
    PureStateVector(np.array([1.0, 0.0], dtype=complex), (2,), ("A",))
    assert len(built) == 1  # the probe sees a construction


def _reference_profile(sigma):
    """The per-block path: marginal_mat and matrix_entropy for each block and
    subsystem, and the cross-check's H(AX) and H(AXB) from the assembled
    block-diagonal matrices.  Returns the profile and the direct I(AX;B)."""
    n, da = len(sigma.probs), sigma.dim_A
    dab = da * sigma.dim_B
    big_ax = np.zeros((n * da, n * da), dtype=complex)
    big_axb = np.zeros((n * dab, n * dab), dtype=complex)
    rows, weighted_b = [], []
    for i, (p, block) in enumerate(zip(sigma.probs.tolist(), sigma.psi)):
        psi = PureStateVector(block.reshape(-1), block.shape, ("A", "B", "E"))
        rho_a, rho_b = psi.marginal_mat({"A"}), psi.marginal_mat({"B"})
        he = matrix_entropy(psi.marginal_mat({"E"}))
        rows.append((p, matrix_entropy(rho_a), matrix_entropy(rho_b), he))
        weighted_b.append(p * rho_b)
        big_ax[i * da:(i + 1) * da, i * da:(i + 1) * da] = p * rho_a
        big_axb[i * dab:(i + 1) * dab, i * dab:(i + 1) * dab] = p * psi.marginal_mat({"A", "B"})
    h_avg_b = matrix_entropy(sum(weighted_b))
    i_ab = sum(p * (ha + hb - he) for p, ha, hb, he in rows)
    i_xb = h_avg_b - sum(p * hb for p, _, hb, _ in rows)
    profile = EntropyProfile(
        h_a_given_x=sum(p * ha for p, ha, _, _ in rows),
        i_ab_given_x=i_ab,
        i_ae_given_x=sum(p * (ha + he - hb) for p, ha, hb, he in rows),
        i_coh=sum(p * (hb - he) for p, _, hb, he in rows),
        i_xb=i_xb,
        i_axb=i_ab + i_xb,
    )
    return profile, matrix_entropy(big_ax) + h_avg_b - matrix_entropy(big_axb)


@pytest.mark.parametrize("kind, param, d", [
    ("dephasing", 0.3, 2), ("erasure", 0.25, 2), ("erasure", 0.6, 3),
    ("depolarizing", None, 2), ("depolarizing", None, 3),
])
def test_profile_equals_per_block_reference(kind, param, d):
    iso = builtin_isometry(kind, param, d)
    rng = np.random.default_rng([d, 17])
    for letters in (1, 2, 3, 4):
        for _ in range(6):
            probs = rng.random(letters) + 0.05
            probs /= probs.sum()
            entries = [(p, random_state_vector(d * d, rng)) for p in probs]
            sigma = channel_output_ensemble(make_ensemble(entries, d, d), iso)
            reference, direct = _reference_profile(sigma)
            assert sigma.profile == reference  # every field bit for bit
            assert abs(direct - sigma.profile.i_axb) <= 1e-12


def test_profile_is_cached_and_cross_checked(monkeypatch):
    sigma = channel_output_ensemble(mu_ensemble(0.3), DEPHASING)
    assert sigma.profile is sigma.profile
    assert mutual_AX_B(sigma) == sigma.profile.i_axb
    fresh = channel_output_ensemble(mu_ensemble(0.3), DEPHASING)
    monkeypatch.setattr(entropics, "IDENTITY_TOL", -1.0)  # no residual passes
    with pytest.raises(InvalidState):
        holevo_X_B(fresh)
    with pytest.raises(InvalidState):  # a failed build is not cached
        fresh.profile


def test_joint_state_validation():
    block = np.zeros((2, 2, 4), dtype=complex)
    block[0, 0, 0] = 1.0
    sigma = CQEJointState([1.0], block[None])
    assert (sigma.dim_A, sigma.dim_B, sigma.dim_E) == (2, 2, 4)  # read from the shape
    assert sigma.probs.dtype == float and sigma.psi.dtype == complex
    with pytest.raises(DimMismatch):  # no letter axis
        CQEJointState([1.0], block)
    with pytest.raises(DimMismatch):  # two weights, one letter
        CQEJointState([0.5, 0.5], block[None])
    with pytest.raises(InvalidState):  # a letter that is not a unit vector
        CQEJointState([1.0], 2 * block[None])
    with pytest.raises(InvalidState):
        CQEJointState([float("nan")], block[None])
    with pytest.raises(InvalidState):
        CQEnsemble([0.5, 0.5], np.stack([block[:, :, 0], np.full((2, 2), np.nan)]))


def test_invalid_norm_message_names_the_largest_deviation():
    amps = np.array([[[1.0, 0.0]], [[0.0, math.sqrt(1.0 + 3e-10)]]])
    with pytest.raises(InvalidState, match=r"deviate from 1 by up to 3\.0000\d*e-10 > 1e-10$"):
        CQEnsemble([0.5, 0.5], amps)


def test_accepted_channel_and_ensemble_give_an_accepted_region():
    # the far end of the tolerance chain: a trace channel on MAX_DIM dimensions whose
    # V^dag V - I is nearly TP_TOL in every entry, so its operator norm is nearly
    # MAX_DIM * TP_TOL along the all-ones vector, and a letter along that vector whose
    # squared norm is nearly 1 + NORM_TOL
    w, u = np.linalg.eigh(np.eye(MAX_DIM) + 0.999 * TP_TOL * np.ones((MAX_DIM, MAX_DIM)))
    root = (u * np.sqrt(w)) @ u.T
    iso = isometric_extension(KrausChannel(tuple(root[j:j + 1] + 0j for j in range(MAX_DIM))))
    letter = np.full((1, 1, MAX_DIM), math.sqrt((1.0 + 0.999 * NORM_TOL) / MAX_DIM))
    sigma = channel_output_ensemble(CQEnsemble([1.0], letter), iso)
    deviation = np.vdot(sigma.psi, sigma.psi).real - 1.0
    assert 0.98 * (NORM_TOL + MAX_DIM * TP_TOL) < deviation <= STATE_NORM_TOL
    # a one-dimensional B gives I(A;B|X) = -(1 + d) log2(1 + d), the largest shift
    region = region_from_state(sigma)
    assert region.i_axb - region.i_xb == pytest.approx(-deviation / math.log(2), rel=1e-3)
    assert STATE_NORM_TOL / math.log(2) < ENTROPIC_TOL


def test_ensemble_from_spec_and_file(tmp_path):
    spec = {
        "dim_A": 2,
        "dim_Aprime": 2,
        "entries": [
            {"p": 0.5, "amps": [[1, 0], [0, 0], [0, 0], [0, 0]]},
            {"p": 0.5, "amps": [[0, 0], [0, 0], [0, 0], [1, 0]]},
        ],
    }
    ens = ensemble_from_spec(spec)
    assert ens.probs.tolist() == [0.5, 0.5]
    assert ens.amps[1, 1, 1] == 1.0
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(spec))
    loaded = load_ensemble(str(path))
    assert loaded.dim_Aprime == 2
    with pytest.raises(SpecFormatError):
        ensemble_from_spec({"entries": "nope"})
