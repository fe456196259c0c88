"""Tests for ensembles, the one-shot joint state, and its entropic quantities."""

import json

import numpy as np
import pytest

from conftest import random_ensemble, random_state_vector
from cqekit import entropics
from cqekit.channels import builtin_isometry
from cqekit.entropics import (
    CQEJointState,
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
from cqekit.qlinalg import PureStateVector, binary_entropy
from cqekit.regions import corner_points, derive_children, region_from_state

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


def test_ensemble_pruning_drops_zero_weight():
    v = np.array([1.0, 0, 0, 0], dtype=complex)
    w = np.array([0, 0, 0, 1.0], dtype=complex)
    ens = make_ensemble([(1.0, v), (0.0, w)], 2, 2)
    assert len(ens.entries) == 1


def test_ensemble_cardinality_warning():
    rng = np.random.default_rng(0)
    entries = [(1.0 / 6.0, random_state_vector(4, rng)) for _ in range(6)]
    with pytest.warns(UserWarning):
        make_ensemble(entries, 2, 2)


def test_mu_ensemble_structure():
    ens = mu_ensemble(0.3)
    assert len(ens.entries) == 2
    p0, phi0 = ens.entries[0]
    assert p0 == 0.5
    assert phi0.labels == ("A", "Ap")
    assert phi0.vec[0] == pytest.approx(np.sqrt(0.3))
    assert phi0.vec[3] == pytest.approx(np.sqrt(0.7))
    # mu = 0 gives orthogonal product states
    ens0 = mu_ensemble(0.0)
    assert abs(np.vdot(ens0.entries[0][1].vec, ens0.entries[1][1].vec)) < 1e-15
    with pytest.raises(InvalidState):
        mu_ensemble(1.2)


def test_channel_output_ensemble_dimensions():
    sigma = channel_output_ensemble(mu_ensemble(0.3), ERASURE)
    assert (sigma.dim_A, sigma.dim_B, sigma.dim_E) == (2, 3, 3)
    assert sigma.blocks[0][1].labels == ("A", "B", "E")
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
    # H(A), H(B), H(E) of each of the two blocks, H(avg B), and the H(AX) and
    # H(AXB) of the cross-check: 9 eigensolves, all on first profile access.
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or real(m))
    sigma = channel_output_ensemble(mu_ensemble(0.5), DEPHASING)
    region = region_from_state(sigma)
    corner_points(region, 2.0)
    before_children = len(calls)
    derive_children(sigma)
    assert len(calls) == 9
    assert len(calls) == before_children


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
    psi = PureStateVector(
        np.array([1.0, 0, 0, 0, 0, 0, 0, 0], dtype=complex), (2, 2, 2), ("A", "B", "E")
    )
    with pytest.raises(DimMismatch):
        CQEJointState(((1.0, psi),), 2, 2, 4)


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
    assert len(ens.entries) == 2
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(spec))
    loaded = load_ensemble(str(path))
    assert loaded.dim_Aprime == 2
    with pytest.raises(SpecFormatError):
        ensemble_from_spec({"entries": "nope"})
