"""Tests for continuity bounds, gentle measurement, and data-processing sweeps."""

import math

import numpy as np
import pytest

from cqekit import bounds, cli
from cqekit.channels import builtin_isometry
from cqekit.entropics import CQEJointState, channel_output_ensemble, entropy_profiles
from cqekit.entropics import make_ensemble, mu_ensemble
from cqekit.errors import ARITH_TOL, DimMismatch, InvalidState, NoEnvironmentSplit
from cqekit.errors import NORM_TOL, NotHermitian, NotSquare, NotValidPOVMElement
from cqekit.qlinalg import EIG_CLAMP, is_hermitian, marginals, matrix_entropies, matrix_sqrt_psd
from cqekit.qlinalg import shannon_entropies, squared_norms, trace_norm, trace_norms
from conftest import dephased_profile, random_ensemble


def test_bound_functions_values():
    assert bounds.fannes_bound(0.0, 2) == 0.0
    assert bounds.fannes_bound(0.5, 2) == pytest.approx(1.5, abs=1e-14)
    # the binary-entropy argument clamps at 1 for large trace distances
    assert bounds.fannes_bound(1.5, 2) == pytest.approx(1.5, abs=1e-14)
    assert bounds.alicki_fannes_bound(0.25, 2) == pytest.approx(1.0 + 2 * bounds.binary_entropy(0.25), abs=1e-14)
    assert bounds.mi_continuity_bound(0.2, 4) == pytest.approx(
        2.0 + 3 * bounds.binary_entropy(0.2), abs=1e-14
    )


def test_bound_functions_shape():
    for func in (bounds.fannes_bound, bounds.alicki_fannes_bound, bounds.mi_continuity_bound):
        # increasing where the binary-entropy term still grows
        grid = [func(e, 2) for e in np.linspace(0.0, 0.5, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))
        # never below the linear term alone
        for e, slope in ((0.3, 1.0), (0.9, 1.0), (1.7, 1.0)):
            assert bounds.fannes_bound(e, 2) >= e * slope
            assert bounds.alicki_fannes_bound(e, 2) >= 4.0 * e
            assert bounds.mi_continuity_bound(e, 2) >= 5.0 * e


def test_bound_functions_take_eps_arrays():
    eps = np.concatenate([[0.0, 1.0, 1.7, 2.0**-53, 1.0 - 2.0**-53],
                          np.random.default_rng(6).uniform(0.0, 2.0, 500)])
    for func in (bounds.fannes_bound, bounds.alicki_fannes_bound, bounds.mi_continuity_bound):
        for dim in (2, 3, 4):
            batch = func(eps, dim)
            assert batch.shape == eps.shape
            assert batch.tolist() == [func(e, dim) for e in eps.tolist()], (func, dim)
            assert all(type(func(e, dim)) is float for e in eps[:5].tolist())


def test_check_fannes():
    rho = np.eye(2, dtype=complex) / 2
    same = bounds.check_fannes(rho, rho)
    assert same.lhs == 0.0 and same.satisfied
    report = bounds.check_fannes(rho, np.diag([0.6, 0.4]).astype(complex))
    assert report.lhs == pytest.approx(0.02904940554533142, abs=1e-12)
    assert report.satisfied and report.slack > 0
    with pytest.raises(DimMismatch):
        bounds.check_fannes(rho, np.eye(3, dtype=complex) / 3)
    with pytest.raises(InvalidState):
        bounds.check_fannes(np.diag([1.5, -0.5]).astype(complex), rho)


@pytest.mark.parametrize("check, dim, extra", [
    (bounds.check_fannes, 2, ()), (bounds.check_fannes, 3, ()),
    (bounds.check_af, 4, ((2, 2),)), (bounds.check_mi, 6, ((2, 3),)),
])
def test_stacked_continuity_checks_equal_per_pair_calls(check, dim, extra):
    rng = np.random.default_rng([dim, 43])
    pairs = np.array([[bounds.random_density(dim, rng) for _ in range(2)] for _ in range(7)])
    assert check(pairs[:, 0], pairs[:, 1], *extra) == [check(r, s, *extra) for r, s in pairs]
    with pytest.raises(DimMismatch):
        check(pairs[:, 0], pairs[:3, 1], *extra)


def test_info_helpers_on_maximally_entangled_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert bounds.coherent_info_mat(rho, (2, 2)) == pytest.approx(1.0, abs=1e-12)
    assert bounds.mutual_info_mat(rho, (2, 2)) == pytest.approx(2.0, abs=1e-12)
    product = np.kron(np.eye(2) / 2, np.eye(2) / 2).astype(complex)
    assert bounds.mutual_info_mat(product, (2, 2)) == pytest.approx(0.0, abs=1e-12)
    assert bounds.coherent_info_mat(product, (2, 2)) == pytest.approx(-1.0, abs=1e-12)


def test_check_af_and_mi_on_perturbed_entangled_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    for delta in (0.01, 0.1, 0.5):
        sigma = (1 - delta) * rho + delta * np.eye(4) / 4
        af = bounds.check_af(rho, sigma, (2, 2))
        mi = bounds.check_mi(rho, sigma, (2, 2))
        assert af.satisfied and mi.satisfied
        assert af.lhs > 0 and mi.lhs > 0


def test_random_sweeps_small():
    rng = np.random.default_rng(1)
    for _ in range(200):
        rho = bounds.random_density(4, rng)
        sigma = bounds.random_density(4, rng)
        assert bounds.check_fannes(rho, sigma).satisfied
        assert bounds.check_af(rho, sigma, (2, 2)).satisfied
        assert bounds.check_mi(rho, sigma, (2, 2)).satisfied


def test_gentle_measurement_identity_povm_is_harmless():
    rng = np.random.default_rng(3)
    ens = [(1.0, bounds.random_density(3, rng))]
    report = bounds.gentle_measurement_check(ens, np.eye(3, dtype=complex))
    assert report.lhs == pytest.approx(0.0, abs=1e-9)
    assert report.rhs == pytest.approx(0.0, abs=1e-9)


def test_gentle_measurement_random_povm_elements():
    rng = np.random.default_rng(5)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(2))
        ens = [(float(p), bounds.random_density(dim, rng)) for p in probs]
        gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        unitary, _ = np.linalg.qr(gauss)
        x = (unitary * rng.random(dim)) @ unitary.conj().T
        assert bounds.gentle_measurement_check(ens, x).satisfied


def test_gentle_measurement_lhs_is_the_per_letter_sum():
    rng = np.random.default_rng(12)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
        ens = [(float(p), bounds.random_density(dim, rng)) for p in probs]
        gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        unitary, _ = np.linalg.qr(gauss)
        x = (unitary * rng.random(dim)) @ unitary.conj().T
        root = matrix_sqrt_psd((x + x.conj().T) / 2)
        per_letter = sum(p * trace_norm(rho - root @ rho @ root) for p, rho in ens)
        assert bounds.gentle_measurement_check(ens, x).lhs == per_letter


def test_report_satisfied_edge():
    # a bound holds when lhs exceeds rhs by 0.9 ARITH_TOL, rounding, and fails at 1.1 ARITH_TOL
    rhs = 0.5
    assert bounds.BoundReport(rhs + 0.9 * ARITH_TOL, rhs).satisfied
    assert not bounds.BoundReport(rhs + 1.1 * ARITH_TOL, rhs).satisfied


def test_gentle_measurement_rejects_bad_element():
    ens = [(1.0, np.eye(2, dtype=complex) / 2)]
    with pytest.raises(NotValidPOVMElement):
        bounds.gentle_measurement_check(ens, 2.0 * np.eye(2, dtype=complex))
    with pytest.raises(NotValidPOVMElement):
        bounds.gentle_measurement_check(ens, -0.5 * np.eye(2, dtype=complex))


@pytest.mark.parametrize("bad, error", [(0.1, NotHermitian), (np.nan, InvalidState),
                                        (np.inf, InvalidState)])
def test_entropy_bounds_reject_a_bad_matrix(bad, error):
    # each entry point that takes entropies of a caller's matrices: a finite matrix that is
    # not Hermitian, whose lower triangle eigvalsh would read alone, and a non-finite one
    def spoiled(dim):
        m = np.eye(dim, dtype=complex) / dim
        m[0, 1] = bad
        return m

    for dim, check in ((2, bounds.check_fannes), (4, lambda r, s: bounds.check_af(r, s, (2, 2))),
                       (4, lambda r, s: bounds.check_mi(r, s, (2, 2)))):
        for rho, sigma in ((spoiled(dim), np.eye(dim) / dim), (np.eye(dim) / dim, spoiled(dim))):
            with pytest.raises(error):
                check(rho, sigma)
            with pytest.raises(error):  # in a stack of two
                check(np.stack([np.eye(dim) / dim, rho]), np.stack([np.eye(dim) / dim, sigma]))
    with pytest.raises(error):
        bounds.ssa_check(spoiled(8), (2, 2, 2))


def _faulty(fault, dim):
    """A dim x dim state spoiled by `fault`, or a non-square dim x (dim + 1) matrix."""
    if fault == "non-square":
        return np.eye(dim, dim + 1) / dim
    m = np.eye(dim, dtype=complex) / dim
    m[0, 1] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "non-Hermitian": 0.1}[fault]
    return m


# each entry point that takes a caller's matrix, with the dimension it takes and a call that
# puts the matrix m in each place a caller's matrix goes (the other one a valid state)
ENTRY_POINTS = {
    "matrix_entropies": (2, lambda m: [matrix_entropies(m)]),
    "trace_norms": (2, lambda m: [trace_norms(m)]),
    "matrix_sqrt_psd": (2, lambda m: [matrix_sqrt_psd(m)]),
    "check_fannes": (2, lambda m: [bounds.check_fannes(m, np.zeros_like(m)),
                                   bounds.check_fannes(np.zeros_like(m), m)]),
    "check_af": (4, lambda m: [bounds.check_af(m, np.zeros_like(m), (2, 2)),
                               bounds.check_af(np.zeros_like(m), m, (2, 2))]),
    "check_mi": (4, lambda m: [bounds.check_mi(m, np.zeros_like(m), (2, 2)),
                               bounds.check_mi(np.zeros_like(m), m, (2, 2))]),
    "ssa_check": (8, lambda m: [bounds.ssa_check(m, (2, 2, 2))]),
    "gentle_measurement_check": (2, lambda m: [
        bounds.gentle_measurement_check([(1.0, np.eye(2) / 2)], m)]),
}
FAULTS = {"non-square": NotSquare, "nan": InvalidState, "inf": InvalidState,
          "-inf": InvalidState, "non-Hermitian": NotHermitian}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_one_error_per_matrix_fault(name, fault):
    # one check of a caller's matrix, at every entry point: a finite non-Hermitian matrix is
    # rejected wherever eigvalsh or eigh would read one triangle of it; trace_norms takes its SVD
    dim, call = ENTRY_POINTS[name]
    m = _faulty(fault, dim)
    if (name, fault) == ("trace_norms", "non-Hermitian"):
        assert call(m)[0] == np.linalg.svd(m, compute_uv=False).sum()
        return
    with pytest.raises(FAULTS[fault]):
        call(m)
    with pytest.raises(FAULTS[fault]):  # the bad matrix second in a stack of two
        call(np.stack([np.zeros_like(m), m]))


def _entropy(m):
    """H(m) from one eigvalsh of the matrix alone: the per-marginal reference."""
    return shannon_entropies(np.linalg.eigvalsh(m)[None])[0]


def test_marginals_of_an_accepted_matrix_are_not_checked_again():
    # asymmetries of 0.9 NORM_TOL at (0, 2) and (1, 3) pass the check; rho_A sums both
    rng = np.random.default_rng(0)
    rho = bounds.random_density(4, rng)
    rho[0, 2] += 0.9e-10
    rho[1, 3] += 0.9e-10
    rho_a, rho_b = marginals(rho, (2, 2))
    assert is_hermitian(rho) and not is_hermitian(rho_a)
    mutual, coherent = (_entropy(rho_a) + _entropy(rho_b) - _entropy(rho),
                        _entropy(rho_b) - _entropy(rho))
    assert bounds.mutual_info_mat(rho, (2, 2)) == pytest.approx(mutual, abs=1e-12)
    assert bounds.coherent_info_mat(rho, (2, 2)) == pytest.approx(coherent, abs=1e-12)
    sigma = bounds.random_density(4, rng)
    s_a, s_b = marginals(sigma, (2, 2))
    s_mutual, s_coherent = (_entropy(s_a) + _entropy(s_b) - _entropy(sigma),
                            _entropy(s_b) - _entropy(sigma))
    for check, value, s_value in ((bounds.check_mi, mutual, s_mutual),
                                  (bounds.check_af, coherent, s_coherent)):
        assert check(rho, sigma, (2, 2)).lhs == pytest.approx(abs(value - s_value), abs=1e-12)


def test_information_of_a_matrix_is_one_grouped_solve(monkeypatch):
    # a matrix and its marginals are solved together, one eigvalsh per matrix size, and each
    # value keeps the bits of the per-marginal sums of matrix_entropies
    rng = np.random.default_rng(43)
    rho_ab, rho_abc = bounds.random_density(4, rng, 3), bounds.random_density(8, rng)
    mutual = [(matrix_entropies(a) + matrix_entropies(b) - matrix_entropies(m)).tolist()
              for m, dims in ((rho_ab, (2, 2)), (rho_abc, (2, 4))) for a, b in [marginals(m, dims)]]
    ab = marginals(rho_abc, (4, 2))[0]
    ssa_lhs = (sum(map(matrix_entropies, marginals(ab, (2, 2)))) - matrix_entropies(ab)).tolist()
    coherent = (matrix_entropies(marginals(rho_ab, (2, 2))[1]) - matrix_entropies(rho_ab)).tolist()
    real, sizes = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: sizes.append(m.shape[-1]) or real(m))
    assert bounds.mutual_info_mat(rho_ab, (2, 2)) == mutual[0] and sorted(sizes) == [2, 4]
    sizes.clear()
    assert bounds.mutual_info_mat(rho_ab[0], (2, 2)) == mutual[0][0] and len(sizes) == 2
    sizes.clear()
    assert bounds.coherent_info_mat(rho_ab, (2, 2)) == coherent and sorted(sizes) == [2, 4]
    sizes.clear()
    report = bounds.ssa_check(rho_abc, (2, 2, 2))
    assert (report.lhs, report.rhs) == (ssa_lhs, mutual[1]) and sorted(sizes) == [2, 4, 8]


@pytest.mark.parametrize("ens, x, error", [
    ([(2.0, np.eye(2) / 2), (-1.0, np.eye(2) / 2)], np.eye(2), InvalidState),
    ([(0.5, np.eye(2) / 2), (0.5 + 1.1 * ARITH_TOL, np.eye(2) / 2)], np.eye(2), InvalidState),
    ([(np.nan, np.eye(2) / 2)], np.eye(2), InvalidState),
    ([(1.0, np.array([[0.5, 0.5], [0.0, 0.5]]))], np.eye(2), NotHermitian),
    ([(1.0, np.diag([2.0, -1.0]))], np.diag([1.0, 0.0]), InvalidState),
    ([(1.0, np.diag([1.0, -1.1 * EIG_CLAMP]))], np.eye(2), InvalidState),
    ([(1.0, np.array([[np.nan, 0.0], [0.0, 1.0]]))], np.eye(2), InvalidState),
    ([(1.0, np.eye(2) / 2)], np.array([[0.5, 0.5], [0.0, 0.5]]), NotHermitian),
    ([(1.0, np.eye(2) / 2)], np.array([[np.nan, 0.0], [0.0, 1.0]]), InvalidState),
])
def test_gentle_measurement_checks_its_input(ens, x, error):
    # weights a probability vector within ARITH_TOL, states by matrix_entropies' rules, and an
    # element Hermitian within NORM_TOL before its Hermitian part is taken; in a stack too
    with pytest.raises(error):
        bounds.gentle_measurement_check(ens, x)
    with pytest.raises(error):
        bounds.gentle_measurement_check([[(1.0, np.eye(2) / 2)], ens], np.stack([np.eye(2), x]))


def test_gentle_measurement_needs_one_element_per_ensemble():
    # an x of one element is not broadcast over two ensembles, nor two elements over one
    ens = [[(1.0, np.eye(2) / 2)], [(1.0, np.diag([1.0, 0.0]))]]
    with pytest.raises(DimMismatch):
        bounds.gentle_measurement_check(ens, np.eye(2)[None])
    with pytest.raises(DimMismatch):
        bounds.gentle_measurement_check(ens[:1], np.stack([np.eye(2), np.eye(2)]))
    assert len(bounds.gentle_measurement_check(ens, np.stack([np.eye(2), np.eye(2)]))) == 2
    assert bounds.gentle_measurement_check([], np.zeros((0, 2, 2))) == []  # an empty batch


def test_gentle_measurement_rejects_an_ensemble_of_no_letters():
    # the wording of a state with no letters; in a batch of two or more, with the index
    with pytest.raises(InvalidState, match=r"^weights \[\] are empty and do not sum to 1$"):
        bounds.gentle_measurement_check([], np.eye(2))
    with pytest.raises(InvalidState, match=r"^weights \[\] are empty and do not sum to 1$"):
        bounds.gentle_measurement_check([[]], np.eye(2)[None])
    with pytest.raises(InvalidState, match=r"^weights \[\] of ensemble 1 are empty and do not"):
        bounds.gentle_measurement_check([[(1.0, np.eye(2) / 2)], []], np.stack([np.eye(2)] * 2))


@pytest.mark.parametrize("state", [np.ones((2, 3)) / 6, np.eye(3) / 3, np.array([0.5, 0.5]),
                                   np.ones((1, 1))])
def test_gentle_measurement_needs_states_of_the_element_shape(state):
    # checked before the padded stack is built, so no shape is broadcast into x's (d, d)
    with pytest.raises(DimMismatch):
        bounds.gentle_measurement_check([(0.5, np.eye(2) / 2), (0.5, state)], np.eye(2))
    with pytest.raises(DimMismatch):
        bounds.gentle_measurement_check([[(1.0, np.eye(2) / 2)], [(1.0, state)]],
                                        np.stack([np.eye(2), np.eye(2)]))


def test_gentle_measurement_accepts_its_input_edges():
    # weights off 1 by 0.9 ARITH_TOL, an eigenvalue 0.9 EIG_CLAMP below 0 and an element
    # 0.9 NORM_TOL off Hermitian pass, and the element's Hermitian part is what is measured
    x = np.array([[0.5, 0.9 * NORM_TOL], [0.0, 0.5]])
    ens = [(0.5, np.diag([1.0, -0.9 * EIG_CLAMP])), (0.5 + 0.9 * ARITH_TOL, np.eye(2) / 2)]
    report = bounds.gentle_measurement_check(ens, x)
    assert (report.lhs, report.rhs) == _gentle_reference(ens, x)


@pytest.mark.parametrize("call", [
    lambda m: bounds.check_af(m, m, (2, 3)), lambda m: bounds.check_mi(m, m, (2, 3)),
    lambda m: bounds.coherent_info_mat(m, (2, 3)), lambda m: bounds.mutual_info_mat(m, (2, 3)),
    lambda m: bounds.ssa_check(np.kron(m, np.eye(2) / 2), (2, 2, 3)),
], ids=["check_af", "check_mi", "coherent_info_mat", "mutual_info_mat", "ssa_check"])
def test_dims_must_make_the_matrix_size(call):
    # dims whose product is not the matrix size raise DimMismatch, not numpy's reshape error
    with pytest.raises(DimMismatch):
        call(np.eye(4) / 4)
    with pytest.raises(DimMismatch):
        call(np.stack([np.eye(4) / 4] * 2))


def test_ssa_check():
    rng = np.random.default_rng(11)
    for _ in range(50):
        rho = bounds.random_density(8, rng)
        report = bounds.ssa_check(rho, (2, 2, 2))
        assert report.satisfied


def test_dpi_check_dephasing_sweep():
    iso = builtin_isometry("dephasing", 0.2)
    rng = np.random.default_rng(13)
    for _ in range(50):
        sigma = channel_output_ensemble(random_ensemble(rng), iso)
        reports = bounds.dpi_check(sigma.profile, dephased_profile(sigma))
        assert set(reports) == {"holevo", "mutual", "coherent"}
        for report in reports.values():
            assert report.satisfied


def test_dpi_check_split_validation():
    trivial = channel_output_ensemble(mu_ensemble(0.3), builtin_isometry("identity"))
    with pytest.raises(NoEnvironmentSplit):
        dephased_profile(trivial)


def _dephased_reference(sigma):
    """sigma with E measured in its basis, one branch per letter and E state."""
    probs, blocks = [], []
    for p, block in zip(sigma.probs.tolist(), sigma.psi):
        for y in range(sigma.psi.shape[3]):
            branch = block[:, :, y]
            weight = float(np.vdot(branch, branch).real)
            if weight > 1e-15:
                probs.append(p * weight)
                blocks.append(branch[:, :, None] / np.sqrt(weight))
    return CQEJointState(probs, np.array(blocks))


@pytest.mark.parametrize("kind, param, d", [
    ("dephasing", 0.2, 2), ("erasure", 0.0, 2), ("erasure", 0.6, 3), ("depolarizing", None, 3),
])
def test_dpi_check_equals_per_branch_reference(kind, param, d):
    # erasure with epsilon = 0 leaves branches of weight 0, which are dropped
    iso = builtin_isometry(kind, param, d)
    rng = np.random.default_rng([d, 5])
    for letters in (1, 2, 4):
        probs = rng.random(letters) + 0.05
        probs /= probs.sum()
        ens = make_ensemble([(p, bounds.random_pure(d * d, rng)) for p in probs], d, d)
        sigma = channel_output_ensemble(ens, iso)
        reference = _dephased_reference(sigma).profile
        reports = bounds.dpi_check(sigma.profile, dephased_profile(sigma))
        for name, field in (("holevo", "i_xb"), ("mutual", "i_axb"), ("coherent", "i_coh")):
            assert reports[name].lhs == getattr(sigma.profile, field)
            assert reports[name].rhs == pytest.approx(getattr(reference, field), abs=1e-12)


def test_random_state_generators():
    rng = np.random.default_rng(17)
    psi = bounds.random_pure(5, rng)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    rho = bounds.random_density(4, rng)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12


def _random_pure_loop(dim, rng):
    """One random_pure vector as drawn one at a time: two normal draws and np.linalg.norm."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _random_density_loop(dim, rng):
    m = _random_pure_loop(dim * dim, rng).reshape(dim, dim)
    return m @ m.conj().T


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_stacked_random_draws_are_the_bits_of_draws_in_turn(dim):
    for seed in range(200):
        for n in range(1, 8):
            for stacked, loop in ((bounds.random_pure, _random_pure_loop),
                                  (bounds.random_density, _random_density_loop)):
                rng, ref = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
                got = stacked(dim, rng, n)
                assert got.tobytes() == np.array([loop(dim, ref) for _ in range(n)]).tobytes()
                one = stacked(dim, rng)  # without n: one of them
                assert one.shape == got.shape[1:] and one.tobytes() == loop(dim, ref).tobytes()
                assert rng.random() == ref.random()  # the stream goes on where the loop's does


def test_random_ensemble_pads_a_stack_to_its_widest_draw():
    # k draws in turn are the k stacks of one drawn from the same stream, each padded with
    # zero letters of weight 0 to the letter count of the widest of them
    widths = set()
    for seed in range(40):
        for k in (1, 2, 3, 8):
            rng, ref = np.random.default_rng([seed, k]), np.random.default_rng([seed, k])
            probs, amps = bounds.random_ensemble(rng, k)
            alone = [bounds.random_ensemble(ref, 1) for _ in range(k)]
            assert probs.shape[1] == amps.shape[1] == max(p.shape[1] for p, _ in alone)
            for i, (p, a) in enumerate(alone):
                n = p.shape[1]
                assert probs[i, :n].tobytes() == p[0].tobytes() and not probs[i, n:].any()
                assert amps[i, :n].tobytes() == a[0].tobytes() and not amps[i, n:].any()
            assert rng.random() == ref.random()
            widths.add(probs.shape[1])
    assert widths == {1, 2, 3}


def _gentle_reference(ens, x):
    """(lhs, rhs) of gentle_measurement_check as one trial at a time: eigvalsh for the range
    check, eigh for the root, letters summed in turn."""
    h = (x + x.conj().T) / 2
    w = np.linalg.eigvalsh(h)
    assert -EIG_CLAMP <= w.min() and w.max() <= 1.0 + EIG_CLAMP
    avg = sum(p * rho for p, rho in ens)
    eps = max(0.0, 1.0 - float(np.trace(avg @ x).real))
    w, v = np.linalg.eigh(h)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    root = (root + root.conj().T) / 2
    probs, rhos = map(np.array, zip(*ens))
    return sum((probs * trace_norms(rhos - root @ rhos @ root)).tolist()), math.sqrt(8.0 * eps)


def _povm_element(dim, rng):
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary = np.linalg.qr(gauss)[0]
    return (unitary * rng.random(dim)) @ unitary.conj().T


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_stacked_gentle_check_equals_per_trial_calls(dim):
    rng = np.random.default_rng([dim, 31])
    letters = (1, 3, 2, 4, 1, 2)  # ragged: the shorter ensembles are padded
    ensembles = [list(zip(rng.dirichlet(np.ones(n)).tolist(), bounds.random_density(dim, rng, n)))
                 for n in letters]
    xs = np.array([_povm_element(dim, rng) for _ in letters])
    stacked = bounds.gentle_measurement_check(ensembles, xs)
    assert len(stacked) == len(letters)
    for report, ens, x in zip(stacked, ensembles, xs):
        assert report == bounds.gentle_measurement_check(ens, x)
        lhs, rhs = _gentle_reference(ens, x)
        assert (report.lhs, report.rhs, report.slack) == (lhs, rhs, rhs - lhs)
    with pytest.raises(NotValidPOVMElement):  # one bad element rejects the stack
        bounds.gentle_measurement_check(ensembles[:2], np.array([xs[0], 2.0 * np.eye(dim)]))


def test_gentle_suite_equals_trials_in_turn():
    # the suite groups its trials by dimension and answers in trial order
    for seed in range(20):
        got = cli.SUITES["gentle"](np.random.default_rng(seed), 9)
        rng = np.random.default_rng(seed)
        for satisfied, slack in got:
            dim = int(rng.integers(2, 4))
            probs = rng.random(int(rng.integers(1, 4)))
            probs /= probs.sum()
            ens = [(float(p), _random_density_loop(dim, rng)) for p in probs]
            gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            unitary = np.linalg.qr(gauss)[0]
            lhs, rhs = _gentle_reference(ens, (unitary * rng.random(dim)) @ unitary.conj().T)
            assert (satisfied, slack) == (lhs <= rhs + ARITH_TOL, rhs - lhs)


@pytest.mark.parametrize("deviation", [1e-10, -1e-10, 5e-10, -5e-10])
def test_dephase_environment_of_blocks_off_unit_norm(deviation):
    # blocks accepted within STATE_NORM_TOL of unit norm put the branch weights' sum off 1
    # beyond ARITH_TOL; each letter's weights are rescaled and its branches keep its norm
    rng = np.random.default_rng(40)
    for letters in (1, 2, 3):
        probs = rng.dirichlet(np.ones(letters))
        psi = bounds.random_pure(8, rng, letters).reshape(letters, 2, 2, 2)
        sigma = CQEJointState(probs, psi * math.sqrt(1 + deviation))
        weights, blocks = bounds.dephase_environment((sigma.probs[None], sigma.psi[None]))
        assert abs(weights.sum() - 1.0) <= ARITH_TOL
        norms = squared_norms(blocks[weights > 0.0].reshape(-1, 4))
        assert np.allclose(norms, 1.0 + deviation, rtol=0.0, atol=1e-15)
        dephased = entropy_profiles((weights, blocks))[0]
        assert all(r.satisfied for r in bounds.dpi_check(sigma.profile, dephased).values())


def test_dephase_environment_of_one_block_of_squared_norm_above_1():
    psi = bounds.random_pure(8, np.random.default_rng(41)).reshape(1, 2, 2, 2)
    sigma = CQEJointState([1.0], psi * math.sqrt(1 + 1e-10))
    weights, _ = bounds.dephase_environment((sigma.probs[None], sigma.psi[None]))
    assert weights.sum() == pytest.approx(1.0, abs=ARITH_TOL)
    assert all(r.satisfied for r in
               bounds.dpi_check(sigma.profile, dephased_profile(sigma)).values())
