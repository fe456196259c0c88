"""Tests for ensembles, the one-shot joint state, and its entropic quantities."""

import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_ensemble, random_state_vector
from cqekit import bounds, closedform, entropics
from cqekit.bounds import dephase_environment
from cqekit.channels import MAX_DIM, TP_TOL, apply_isometry, builtin_isometry
from cqekit.channels import isometric_extension
from cqekit.entropics import (
    NORM_TOL,
    STATE_NORM_TOL,
    CQEJointState,
    CQEnsemble,
    EntropyProfile,
    StateStack,
    channel_output_ensemble,
    coherent_A_given_BX,
    cond_entropy_A_given_X,
    cond_mutual_A_B_given_X,
    cond_mutual_A_E_given_X,
    ensemble_from_spec,
    entropy_profiles,
    holevo_X_B,
    load_ensemble,
    make_ensemble,
    mu_ensemble,
    mutual_AX_B,
    verify_identities,
)
from cqekit.errors import ARITH_TOL, DimMismatch, InvalidState, SpecFormatError
from cqekit.qlinalg import WEIGHT_FLOOR, PureStateVector, binary_entropy, matrix_entropies
from cqekit.qlinalg import squared_norms
from cqekit.cli import SUITES, main
from cqekit.regions import ENTROPIC_TOL, RATE_TOL, cef_point, corner_points, derive_children
from cqekit.regions import region_from_state

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


def test_ensemble_validates_every_letter_then_drops_zero_weights():
    v, w = np.array([[1.0, 0], [0, 0]]), np.array([[0, 0], [0, 1.0]])
    ens = CQEnsemble([0.25, 0.0, 0.75], np.stack([v, w, w]))
    assert ens.probs.tolist() == [0.25, 0.75]
    assert np.array_equal(ens.amps, np.stack([v, w]))
    state = channel_output_ensemble(ens, builtin_isometry("dephasing", 0.2))
    assert state.probs.tolist() == [0.25, 0.75]  # no zero-weight block reaches the state
    for bad in (np.full((2, 2), np.nan), np.sqrt(2.0) * v):  # squared norm NaN, then 2
        with pytest.raises(InvalidState):
            CQEnsemble([1.0, 0.0], np.stack([v, bad]))


def test_ensemble_cardinality_warning():
    rng = np.random.default_rng(0)
    entries = [(1.0 / 6.0, random_state_vector(4, rng)) for _ in range(6)]
    with pytest.warns(UserWarning):
        make_ensemble(entries, 2, 2)
    # zero-weight letters are dropped first: five kept letters are within the bound 5
    entries = [(0.2 * (k < 5), random_state_vector(4, rng)) for k in range(7)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(make_ensemble(entries, 2, 2).probs) == 5


def test_ensemble_cardinality_warning_names_the_building_line():
    # not dataclass's generated __init__, reported as <string>
    amps = np.stack([random_state_vector(4, np.random.default_rng(k)) for k in range(6)])
    with pytest.warns(UserWarning, match="6 letters; 5 suffice") as record:
        CQEnsemble(np.full(6, 1.0 / 6.0), amps.reshape(6, 2, 2))
    assert [w.filename for w in record] == [__file__]


def test_ensemble_cardinality_warning_names_the_caller_of_a_builder(tmp_path):
    # make_ensemble, ensemble_from_spec and load_ensemble build the ensemble inside cqekit:
    # the warning names this file, where the builder is called, not the library's line
    amps = [random_state_vector(4, np.random.default_rng(k)) for k in range(6)]
    spec = {"dim_A": 2, "dim_Aprime": 2,
            "entries": [{"p": 1.0 / 6.0, "amps": [[z.real, z.imag] for z in v]} for v in amps]}
    path = tmp_path / "six.json"
    path.write_text(json.dumps(spec))
    with pytest.warns(UserWarning, match="6 letters; 5 suffice") as record:
        make_ensemble([(1.0 / 6.0, v) for v in amps], 2, 2)
        ensemble_from_spec(spec)
        load_ensemble(str(path))
    assert [w.filename for w in record] == [__file__] * 3


def test_mu_ensemble_structure():
    ens = mu_ensemble(0.3)
    assert ens.probs.tolist() == [0.5, 0.5]
    assert ens.amps.shape == (2, 2, 2)  # (letters, d_A, d_A')
    assert ens.amps.shape[1:] == (2, 2)  # (d_A, d_A')
    assert ens.amps[0, 0, 0] == pytest.approx(np.sqrt(0.3))
    assert ens.amps[0, 1, 1] == pytest.approx(np.sqrt(0.7))
    # mu = 0 gives orthogonal product states
    ens0 = mu_ensemble(0.0)
    assert abs(np.vdot(ens0.amps[0], ens0.amps[1])) < 1e-15
    with pytest.raises(InvalidState):
        mu_ensemble(1.2)


def test_channel_output_ensemble_dimensions():
    sigma = channel_output_ensemble(mu_ensemble(0.3), ERASURE)
    assert sigma.psi.shape[1:] == (2, 3, 3)  # (d_A, d_B, d_E)
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
            residuals = verify_identities(channel_output_ensemble(ens, iso).profile)
            assert max(residuals.values()) <= 1e-9
            assert set(residuals) == {
                "entropy_identity",
                "coherent_identity",
                "ent_coh_mut_identity",
            }


def test_identities_exact_on_mu_ensemble():
    residuals = verify_identities(channel_output_ensemble(mu_ensemble(0.3), DEPHASING).profile)
    assert max(residuals.values()) <= 1e-12


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
    # The profile concatenates the stacks of one matrix size and solves them in one call,
    # all on first profile access.  mu:0.5 through dephasing has d_A = d_B = d_E = 2: one
    # call for rho_A, rho_B, rho_E and avg rho_B, one for the 4 x 4 rho_AB.
    # erasure:0.25 has d_A = 2, d_B = d_E = 3: a third size.  No block-diagonal matrix is
    # assembled, so through dephasing no solved matrix is larger than d_A * d_B = 4 per side.
    real = np.linalg.eigvalsh
    for iso, want in ((DEPHASING, 2), (ERASURE, 3)):
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or real(m))
        sigma = channel_output_ensemble(mu_ensemble(0.5), iso)
        region = region_from_state(sigma)
        corner_points(region, 2.0)
        before_children = len(calls)
        derive_children(sigma)
        assert len(calls) == want
        assert len(calls) == before_children
        assert len({shape[-1] for shape in calls}) == want
        if iso is DEPHASING:
            assert max(side for shape in calls for side in shape[-2:]) == 4


def test_region_pipeline_solves_4w_plus_1_matrices_per_state(monkeypatch):
    # rho_A, rho_B, rho_E and rho_AB of each of the W = 2 letters, and the one average B state
    real = np.linalg.eigvalsh
    for iso in (DEPHASING, ERASURE):
        solved = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: solved.append(len(m)) or real(m))
        sigma = channel_output_ensemble(mu_ensemble(0.5), iso)
        corner_points(region_from_state(sigma), 2.0)
        derive_children(sigma)
        assert sum(solved) == 4 * 2 + 1


def test_profile_cross_check_raises_on_an_ab_spectrum_off_block_purity(monkeypatch):
    # mu:0.5 through dephasing:0.2 solves one 4 x 4 stack, the AB blocks of its two letters.
    # Moving 1e-6 of letter 0's largest eigenvalue to its smallest changes H(AB)_0, read only
    # by the direct I(AX;B), and not H(E)_0: the chain-rule value and the direct one disagree.
    real = np.linalg.eigvalsh

    def shifted(m):
        w = real(m)
        if m.shape[-1] == 4:
            w = w.copy()
            w[0, 0] += 1e-6
            w[0, -1] -= 1e-6
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    sigma = channel_output_ensemble(mu_ensemble(0.5), DEPHASING)
    with pytest.raises(InvalidState, match="chain-rule value"):
        sigma.profile


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


def test_each_ensemble_is_checked_once(monkeypatch, capsys):
    # the ensemble is checked where it enters; its state under an accepted isometry is not
    # checked again, and the identities suite checks its one stack for all three channels
    checked = []
    real = entropics._check_letters
    monkeypatch.setattr(entropics, "_check_letters",
                        lambda *args, **kw: checked.append(args[0].shape) or real(*args, **kw))
    v = np.array([0.6, 0.0, 0.0, 0.8], dtype=complex)
    sigma = channel_output_ensemble(make_ensemble([(0.3, v), (0.7, v[::-1])], 2, 2), ERASURE)
    corner_points(region_from_state(sigma), 2.0)
    derive_children(sigma)
    assert checked == [(1, 2)]
    checked.clear()
    assert main(["region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.5"]) == 0
    assert capsys.readouterr().out and checked == [(1, 2)]
    checked.clear()
    SUITES["identities"](np.random.default_rng(5), 4)
    assert len(checked) == 1 and checked[0][0] == 4
    checked.clear()
    CQEJointState(sigma.probs, sigma.psi)  # a state built directly is checked
    assert checked == [(1, 2)]


def test_each_state_stack_is_checked_where_it_enters(monkeypatch):
    # entropy_profiles and dephase_environment check a caller's pair (probs, psi) once; the
    # StateStacks that channel_output_ensemble and dephase_environment return, and a state's
    # own profile, from a checked ensemble or a checked construction, are not checked again
    checked = []
    real = entropics._check_letters
    monkeypatch.setattr(entropics, "_check_letters",
                        lambda *args, **kw: checked.append(args[2]) or real(*args, **kw))
    sigma = channel_output_ensemble(mu_ensemble(0.3), DEPHASING)
    checked.clear()
    sigma.profile
    CQEJointState(sigma.probs, sigma.psi).profile
    assert checked == [5]  # the construction only
    checked.clear()
    pair = (sigma.probs[None], sigma.psi[None])
    entropy_profiles(pair)
    assert checked == [5]
    checked.clear()
    entropy_profiles(dephase_environment(pair))
    assert checked == [5]
    checked.clear()
    stack = StateStack(pair)
    assert StateStack(stack) is stack and checked == [5]
    checked.clear()
    SUITES["dpi"](np.random.default_rng(5), 4)  # the ensemble stack only
    assert checked == [4]


def test_returned_state_stacks_pass_their_check():
    # what channel_output_ensemble and dephase_environment return unchecked passes the check,
    # from blocks of squared norm 1 and from blocks within STATE_NORM_TOL of it
    rng = np.random.default_rng(31)
    for states in channel_output_ensemble(bounds.random_ensemble(rng, 64), ISOMETRIES):
        probs, psi = states
        for stack in (states, dephase_environment(states),
                      dephase_environment((probs, psi * math.sqrt(1 + 4e-10)))):
            assert isinstance(stack, StateStack)
            StateStack(tuple(stack))


def _product_block(norm=1.0):
    block = np.zeros((1, 1, 2, 2, 2), dtype=complex)
    block[0, 0, 0, 0, 0] = norm
    return block


@pytest.mark.parametrize("probs, psi", [
    (np.array([[5.0]]), _product_block()),  # I(X;B) read -11.6
    (np.array([[0.5]]), _product_block()),  # I(X;B) read 0.5
    (np.array([[1.0]]), _product_block(2.0)),  # squared norm 4: H(A|X) read -4.0
    (np.zeros((2, 0)), np.zeros((2, 0, 2, 2, 2), complex)),  # two all-zero profiles
], ids=["weight_5", "weight_half", "squared_norm_4", "no_letters"])
def test_profile_entries_reject_a_bad_stack(probs, psi):
    for entry in (entropy_profiles, dephase_environment):
        with pytest.raises(InvalidState):
            entry((probs, psi))


def test_ensemble_arrays_are_read_only_copies():
    probs, amps = np.array([0.25, 0.75]), np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = amps[1, 1, 1] = 1.0
    ens = CQEnsemble(probs, amps)
    with pytest.raises(ValueError, match="read-only"):
        ens.probs[0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        ens.amps[0, 0, 0] = 2.0
    probs[:] = [0.5, 0.5]
    amps[0, 0, 0] = 7.0
    assert ens.probs.tolist() == [0.25, 0.75] and ens.amps[0, 0, 0] == 1.0
    # a weight-0 letter dropped: the kept arrays are read-only copies too
    probs, amps = np.array([0.0, 1.0]), np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = amps[1, 1, 1] = 1.0
    ens = CQEnsemble(probs, amps)
    amps[1, 1, 1] = 3.0
    assert ens.probs.tolist() == [1.0] and ens.amps[0, 1, 1] == 1.0
    assert not (ens.probs.flags.writeable or ens.amps.flags.writeable)
    # the state derived from it shares the checked, read-only weights
    sigma = channel_output_ensemble(ens, DEPHASING)
    assert sigma.probs is ens.probs and sigma.psi.shape == (1, 2, 2, 2)


def _marginal(block, keep):
    """The reduced state of a (d_A, d_B, d_E) block on the axes `keep`, formed as
    PureStateVector.marginal_mat forms it, with no norm check: blocks within STATE_NORM_TOL
    of unit norm are states too."""
    rest = [axis for axis in range(3) if axis not in keep]
    m = block.transpose(keep + rest).reshape(math.prod(block.shape[i] for i in keep), -1)
    return m @ m.conj().T


def _reference_profile(sigma):
    """The per-block path: each block's marginals and matrix_entropies for each
    subsystem, and the cross-check's H(AX) and H(AXB) from the assembled
    block-diagonal matrices.  Returns the profile and the direct I(AX;B)."""
    n, da, db = sigma.psi.shape[:3]
    dab = da * db
    big_ax = np.zeros((n * da, n * da), dtype=complex)
    big_axb = np.zeros((n * dab, n * dab), dtype=complex)
    rows, weighted_b = [], []
    for i, (p, block) in enumerate(zip(sigma.probs.tolist(), sigma.psi)):
        rho_a, rho_b = _marginal(block, [0]), _marginal(block, [1])
        he = matrix_entropies(_marginal(block, [2]))
        rows.append((p, matrix_entropies(rho_a), matrix_entropies(rho_b), he))
        weighted_b.append(p * rho_b)
        big_ax[i * da:(i + 1) * da, i * da:(i + 1) * da] = p * rho_a
        big_axb[i * dab:(i + 1) * dab, i * dab:(i + 1) * dab] = p * _marginal(block, [0, 1])
    h_avg_b = matrix_entropies(sum(weighted_b))
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
    return profile, matrix_entropies(big_ax) + h_avg_b - matrix_entropies(big_axb)


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


def _random_kraus_channel(rng, ops=3, d=2):
    """A channel on C^d with `ops` Kraus operators: the blocks of a random isometry."""
    gauss = rng.standard_normal((ops * d, d)) + 1j * rng.standard_normal((ops * d, d))
    q = np.linalg.qr(gauss)[0]
    return isometric_extension([q[j * d:(j + 1) * d] for j in range(ops)])


def _random_state(rng, letters, d, iso):
    probs = rng.random(letters) + 0.05
    probs /= probs.sum()
    entries = [(p, random_state_vector(d * d, rng)) for p in probs]
    return channel_output_ensemble(make_ensemble(entries, d, d), iso)


def _hex(profile):
    return [float(getattr(profile, f)).hex() for f in EntropyProfile.__dataclass_fields__]


def _stack(states):
    """States of one block shape as one stack, padded with zero blocks of weight 0."""
    width = max(len(sigma.probs) for sigma in states)
    probs = np.zeros((len(states), width))
    psi = np.zeros((len(states), width, *states[0].psi.shape[1:]), dtype=complex)
    for i, sigma in enumerate(states):
        probs[i, :len(sigma.probs)], psi[i, :len(sigma.probs)] = sigma.probs, sigma.psi
    return probs, psi


def _compacted_dephase(sigma):
    """dephase_environment as one state whose dropped branches are removed, not kept as
    zero-weight slots: the per-state form that the stacked one replaces."""
    _, da, db, de = sigma.psi.shape
    branches = sigma.psi.transpose(0, 3, 1, 2).reshape(-1, da * db)
    weights = squared_norms(branches)
    keep = weights > WEIGHT_FLOOR
    probs = np.repeat(sigma.probs, de) * weights
    if not abs(probs[keep].sum() - 1.0) <= ARITH_TOL:
        norms = np.repeat(weights.reshape(-1, de).sum(1), de)
        probs, weights = probs / norms, weights / norms
    psi = (branches[keep] / np.sqrt(weights[keep])[:, None]).reshape(-1, da, db, 1)
    return CQEJointState(probs[keep], psi)


def _assert_stack_equals_states_alone(probs, psi, states):
    """The stack's profiles, and each state's as a stack of one, are bit-equal to the
    per-block reference of the state built alone."""
    for profile, sigma in zip(entropy_profiles((probs, psi)), states, strict=True):
        want = _hex(_reference_profile(sigma)[0])
        assert _hex(profile) == want
        assert _hex(sigma.profile) == want  # a stack of one


@pytest.mark.parametrize("kind, param, d", [
    ("dephasing", 0.3, 2), ("erasure", 0.25, 2), ("erasure", 0.6, 3),
    ("depolarizing", None, 2), ("depolarizing", None, 3), ("kraus", None, 2),
])
def test_batched_profiles_equal_per_state_reference(kind, param, d):
    rng = np.random.default_rng([d, 29])
    iso = _random_kraus_channel(rng) if kind == "kraus" else builtin_isometry(kind, param, d)
    # one stack per letter count, then one that mixes 1 to 4 letters (padded blocks)
    counts = [[letters] * 5 for letters in (1, 2, 3, 4)] + [[4, 1, 3, 1, 2, 4, 2, 3, 1]]
    for batch in counts:
        states = [_random_state(rng, letters, d, iso) for letters in batch]
        _assert_stack_equals_states_alone(*_stack(states), states)
        # and the same states with their environment dephased: d_E = 1, so rho_E is 1 x 1
        dephased = dephase_environment(_stack(states))
        _assert_stack_equals_states_alone(*dephased, map(_compacted_dephase, states))


@pytest.mark.parametrize("kind, param, d", [
    ("dephasing", 0.3, 2), ("erasure", 0.25, 2), ("erasure", 0.6, 3),
    ("depolarizing", None, 2), ("depolarizing", None, 3), ("kraus", None, 2),
])
def test_stacked_path_equals_states_built_alone(kind, param, d):
    # ensembles of 1 to 4 letters, one with a letter of weight 0, through one product
    rng = np.random.default_rng([d, 43])
    iso = _random_kraus_channel(rng) if kind == "kraus" else builtin_isometry(kind, param, d)
    counts = [4, 1, 3, 1, 2, 4, 2, 3, 1]
    probs, amps = np.zeros((len(counts), 4)), np.zeros((len(counts), 4, d, d), dtype=complex)
    for i, n in enumerate(counts):
        probs[i, :n] = rng.dirichlet(np.ones(n))
        amps[i, :n] = random_state_vector(d * d, rng, n).reshape(n, d, d)
    probs[2, :3] = [0.25, 0.0, 0.75]  # a real letter of weight 0 in the middle
    [(weights, psi)] = channel_output_ensemble((probs, amps), [iso])
    alone = [CQEJointState(p[:n], apply_isometry(iso, a[:n]))
             for p, a, n in zip(probs, amps, counts)]
    _assert_stack_equals_states_alone(weights, psi, alone)
    # the ensemble drops its weight-0 letter: the same profile, bit for bit
    dropped = channel_output_ensemble(CQEnsemble(probs[2, :3], amps[2, :3]), iso)
    assert _hex(dropped.profile) == _hex(alone[2].profile)


@pytest.mark.parametrize("kind, param, d", [
    ("dephasing", 0.0, 2), ("erasure", 0.0, 2), ("erasure", 0.0, 3),
])
def test_stacked_dephasing_keeps_dropped_branches_as_zero_weight_slots(kind, param, d):
    # with p = 0 or eps = 0 every letter has a branch of weight 0, between its kept branches
    # and those of the next letter
    rng = np.random.default_rng([d, 47])
    iso = builtin_isometry(kind, param, d)
    states = [_random_state(rng, letters, d, iso) for letters in (3, 1, 2, 3)]
    probs, psi = dephase_environment(_stack(states))
    dropped = probs == 0.0
    assert dropped[0, 1:-1].any() and not psi[dropped].any()
    _assert_stack_equals_states_alone(probs, psi, map(_compacted_dephase, states))


@pytest.mark.parametrize("deviation", [1e-10, -1e-10, 5e-10, -5e-10])
def test_stacked_dephasing_renormalises_each_state_alone(deviation):
    # blocks off unit norm within STATE_NORM_TOL put some states' kept weights off 1 beyond
    # ARITH_TOL: those states are rescaled, the unit-norm ones between them are not
    rng = np.random.default_rng(40)
    states = []
    for letters in (1, 2, 3, 2):
        probs = rng.dirichlet(np.ones(letters))
        psi = random_state_vector(8, rng, letters).reshape(letters, 2, 2, 2)
        states += [CQEJointState(probs, psi * math.sqrt(1 + deviation)), CQEJointState(probs, psi)]
    weights, blocks = dephase_environment(_stack(states))
    for i, sigma in enumerate(states):
        alone = _compacted_dephase(sigma)
        assert weights[i][weights[i] > 0.0].tolist() == alone.probs.tolist()
    _assert_stack_equals_states_alone(weights, blocks, map(_compacted_dephase, states))


@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize("bad", [float("nan"), -1e-6])
def test_batched_profile_rejects_a_bad_spectrum_in_any_state(monkeypatch, k, bad):
    # each of the five solved stacks in turn (rho_A, rho_B, rho_E, rho_AB of the blocks, avg
    # rho_B of the states) has one bad eigenvalue in state k's first row, in a stack of 5 and
    # in a stack of one: the solve's output row whose input is that matrix, found by its bits
    rng = np.random.default_rng(31)
    states = [_random_state(rng, 2, 2, DEPHASING) for _ in range(5)]
    spectra, solve = entropics.grouped_entropies, np.linalg.eigvalsh

    def corrupted(which, row, hits):
        def spectra_with_a_bad_row(*stacks):
            target = stacks[which][row]

            def corrupt(m):
                w = solve(m)
                for r in range(len(m)):
                    if m[r].shape == target.shape and np.array_equal(m[r], target):
                        w = w.copy()
                        w[r, 0] = bad
                        hits.append(r)
                return w

            monkeypatch.setattr(np.linalg, "eigvalsh", corrupt)
            return spectra(*stacks)
        return spectra_with_a_bad_row

    for batch, i in ((states, k), ([states[k]], 0)):
        for which in range(5):
            row, hits = i if which == 4 else 2 * i, []  # two blocks per state, one average
            monkeypatch.setattr(entropics, "grouped_entropies", corrupted(which, row, hits))
            with pytest.raises(InvalidState):
                entropy_profiles(_stack(batch))
            assert len(hits) == 1
            monkeypatch.undo()
        entropy_profiles(_stack(batch))  # the clean stack passes
    states[k].psi[1, 0, 0, 0] = np.nan  # a NaN amplitude reaches the average of B
    for batch in (states, [states[k]]):
        with pytest.raises(InvalidState):
            entropy_profiles(_stack(batch))


def _ensemble_stack(rng, n=5):
    probs = rng.dirichlet(np.ones(3), n)
    probs[:, 2] = 0.0  # the last slot of each is padding: weight 0, zero amplitudes
    probs[:, 1] = 1.0 - probs[:, 0]
    amps = np.zeros((n, 3, 2, 2), dtype=complex)
    amps[:, :2] = random_state_vector(4, rng, 2 * n).reshape(n, 2, 2, 2)
    return probs, amps


@pytest.mark.parametrize("k", [0, 2, 4])
def test_stacked_validation_names_the_failing_state(k):
    rng = np.random.default_rng(53)
    probs, amps = _ensemble_stack(rng)
    channel_output_ensemble((probs, amps), [DEPHASING])  # the padding is not checked
    amps[k, 2] = amps[k, 0]
    channel_output_ensemble((probs, amps), [DEPHASING])  # nor is a unit letter of weight 0 wrong
    weight_faults = (lambda p, a: p.__setitem__((k, 0), np.nan),
                     lambda p, a: p.__setitem__((k, 0), -p[k, 0]),
                     lambda p, a: p.__setitem__((k, 1), p[k, 1] + 1e-6))
    letter_faults = (lambda p, a: a.__setitem__((k, 1), a[k, 1] * math.sqrt(1 + 3e-10)),
                     lambda p, a: a.__setitem__((k, 0, 0, 0), np.nan),
                     # a letter of weight 0 is checked: NaN, or squared norm 4, is no padding
                     lambda p, a: a.__setitem__((k, 2, 0, 0), np.nan),
                     lambda p, a: a.__setitem__((k, 2, 0, 0), 2.0))
    for faults, words in ((weight_faults, "weights"), (letter_faults, "letter squared norms")):
        for fault in faults:
            probs, amps = _ensemble_stack(rng)
            fault(probs, amps)
            with pytest.raises(InvalidState, match=f"{words}.* of state {k} "):
                channel_output_ensemble((probs, amps), [DEPHASING])
            with pytest.raises(InvalidState) as one:  # a stack of one: today's message
                channel_output_ensemble((probs[k:k + 1], amps[k:k + 1]), [DEPHASING])
            assert "state" not in str(one.value)
    probs, amps = _ensemble_stack(rng)
    for wrong in ((probs[:, :2], amps), (probs, amps[..., 0]), (probs[0], amps[0])):
        with pytest.raises(DimMismatch):
            channel_output_ensemble(wrong, [DEPHASING])


@pytest.mark.parametrize("p", [0.2, 0.9])
def test_mu_family_batch_gives_the_cef_curve(p):
    grid = np.linspace(0.0, 0.5, 10001)
    ensembles = [mu_ensemble(mu) for mu in grid.tolist()]
    stack = np.array([ens.probs for ens in ensembles]), np.array([ens.amps for ens in ensembles])
    [(probs, psi)] = channel_output_ensemble(stack, [builtin_isometry("dephasing", p)])
    profiles = entropy_profiles((probs, psi))
    got = np.array([cef_point(SimpleNamespace(profile=prof)).as_array() for prof in profiles])
    want = closedform.cef_curve(p, grid)
    assert np.max(np.abs(got - np.stack([want.c, want.q, want.e], axis=1))) <= 1e-12


def test_profile_is_cached_and_cross_checked(monkeypatch):
    sigma = channel_output_ensemble(mu_ensemble(0.3), DEPHASING)
    assert sigma.profile is sigma.profile
    assert mutual_AX_B(sigma) == sigma.profile.i_axb
    fresh = channel_output_ensemble(mu_ensemble(0.3), DEPHASING)
    monkeypatch.setattr(entropics, "ENTROPIC_TOL", -1.0)  # no residual passes
    with pytest.raises(InvalidState):
        holevo_X_B(fresh)
    with pytest.raises(InvalidState):  # a failed build is not cached
        fresh.profile


def test_joint_state_validation():
    block = np.zeros((2, 2, 4), dtype=complex)
    block[0, 0, 0] = 1.0
    sigma = CQEJointState([1.0], block[None])
    assert sigma.psi.shape[1:] == (2, 2, 4)  # (d_A, d_B, d_E)
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


@pytest.mark.parametrize("build, shapes", [
    # an empty weight vector is not a probability vector
    (lambda: CQEnsemble([], np.zeros((0, 2, 2))), InvalidState),
    (lambda: CQEJointState([], np.zeros((0, 2, 2, 2))), InvalidState),
    (lambda: channel_output_ensemble((np.zeros((2, 0)), np.zeros((2, 0, 2, 2))), [DEPHASING]),
     InvalidState),
    # a stack of no states gives empty stacks, as entropy_profiles and check_fannes do
    (lambda: [(p.shape, psi.shape) for p, psi in channel_output_ensemble(
        (np.zeros((0, 3)), np.zeros((0, 3, 2, 2), complex)), [DEPHASING, ERASURE])],
     [((0, 3), (0, 3, 2, 2, 2)), ((0, 3), (0, 3, 2, 3, 3))]),
    (lambda: [x.shape for x in dephase_environment((np.zeros((0, 3)),
                                                    np.zeros((0, 3, 2, 2, 2), complex)))],
     [(0, 6), (0, 6, 2, 2, 1)]),
    (lambda: entropy_profiles((np.zeros((0, 3)), np.zeros((0, 3, 2, 2, 2), complex))), []),
], ids=["ensemble", "joint_state", "stack_of_no_letters", "stack_of_no_states",
        "dephase_no_states", "profiles_no_states"])
def test_empty_inputs(build, shapes):
    # each of these raised numpy's ValueError from reshaping an empty array
    if shapes is InvalidState:
        with pytest.raises(InvalidState, match="empty"):
            build()
    else:
        assert build() == shapes


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
    iso = isometric_extension([root[j:j + 1] + 0j for j in range(MAX_DIM)])
    letter = np.full((1, 1, MAX_DIM), math.sqrt((1.0 + 0.999 * NORM_TOL) / MAX_DIM))
    sigma = channel_output_ensemble(CQEnsemble([1.0], letter), iso)
    deviation = np.vdot(sigma.psi, sigma.psi).real - 1.0
    assert 0.98 * (NORM_TOL + MAX_DIM * TP_TOL) < deviation <= STATE_NORM_TOL
    # a one-dimensional B gives I(A;B|X) = -(1 + d) log2(1 + d), the largest shift; the
    # region reads it as rounding and clamps its constants to 0
    prof = sigma.profile
    assert prof.i_axb - prof.i_xb == pytest.approx(-deviation / math.log(2), rel=1e-3)
    assert -RATE_TOL < prof.i_axb < 0.0
    region = region_from_state(sigma)
    assert (region.i_axb, region.i_xb) == (0.0, 0.0)
    assert STATE_NORM_TOL / math.log(2) < ENTROPIC_TOL
    # a state's block is accepted within STATE_NORM_TOL: 0.9 of it past 1 passes, 1.1 raises
    edge = np.full((1, 1, 1, 1), math.sqrt(1.0 + 0.9 * STATE_NORM_TOL), complex)
    assert CQEJointState([1.0], edge).psi.shape[3] == 1
    with pytest.raises(InvalidState, match="deviate from 1"):
        CQEJointState([1.0], np.full((1, 1, 1, 1), math.sqrt(1.0 + 1.1 * STATE_NORM_TOL)))


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
    assert loaded.amps.shape[2] == 2
    with pytest.raises(SpecFormatError):
        ensemble_from_spec({"entries": "nope"})
