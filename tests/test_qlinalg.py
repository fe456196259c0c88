"""Tests for the dense linear-algebra and entropy primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_state_vector
from cqekit.errors import (
    NORM_TOL,
    DimMismatch,
    InvalidState,
    NotHermitian,
    NotPSD,
    NotSquare,
    OutOfRange,
    UnknownLabel,
    check_range,
)
from cqekit.qlinalg import (
    EIG_CLAMP,
    WEIGHT_FLOOR,
    PureStateVector,
    binary_entropy,
    grouped_entropies,
    is_hermitian,
    marginals,
    matrix_entropies,
    matrix_sqrt_psd,
    shannon_entropies,
    trace_norm,
    trace_norms,
)

H2_09 = 0.4689955935892812  # H2(0.9) = H2(0.1)
H2_025 = 0.8112781244591328


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def test_is_hermitian():
    assert is_hermitian(np.eye(3, dtype=complex))
    assert is_hermitian(np.array([[0, -1j], [1j, 0]]))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # the check before the mask: a non-square shape and a non-finite entry raise
    with pytest.raises(NotSquare):
        is_hermitian(np.zeros((2, 3)))
    with pytest.raises(InvalidState):
        is_hermitian(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_tensor_dimensions_and_values():
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 4.0, 5.0])
    t = np.kron(a, b)
    assert t.shape == (6, 6)
    assert np.allclose(np.diag(t), [3, 4, 5, 6, 8, 10])
    rho_a, rho_b = marginals(t, (2, 3))
    assert np.allclose(rho_a, 12.0 * a)
    assert np.allclose(rho_b, 3.0 * b)


def test_matrix_sqrt_psd_rejects_bad_input():
    with pytest.raises(NotSquare):
        matrix_sqrt_psd(np.zeros((2, 3)))
    with pytest.raises(NotHermitian):
        matrix_sqrt_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # an asymmetry at 0.9 NORM_TOL is Hermitian; at 1.1 NORM_TOL it is not
    near = np.array([[1.0, 0.9 * NORM_TOL], [0.0, 1.0]])
    assert is_hermitian(near)
    assert np.allclose(matrix_sqrt_psd(near), np.eye(2), rtol=0.0, atol=NORM_TOL)
    with pytest.raises(NotHermitian):
        matrix_sqrt_psd(np.array([[1.0, 1.1 * NORM_TOL], [0.0, 1.0]]))


def test_shannon_entropy_basics():
    assert shannon_entropies([[1.0, 0.0], [0.5, 0.5]]) == [0.0, 1.0]
    assert abs(shannon_entropies([[0.25] * 4])[0] - 2.0) < 1e-15
    # tiny negative eigenvalues from roundoff are tolerated
    assert shannon_entropies([[1.0, -1e-12]]) == [0.0]
    with pytest.raises(InvalidState):
        shannon_entropies([[0.5, 0.5], [1.1, -0.1]])
    # a weight at 0.9 WEIGHT_FLOOR adds no entropy, one at 1.1 WEIGHT_FLOOR its q log2(1/q)
    assert shannon_entropies([[1.0, 0.9 * WEIGHT_FLOOR]]) == [0.0]
    q = 1.1 * WEIGHT_FLOOR
    assert shannon_entropies([[1.0, q]]) == [-q * math.log2(q)]


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.9) - H2_09) < 1e-15
    assert abs(binary_entropy(0.25) - H2_025) < 1e-15
    with pytest.raises(OutOfRange):
        binary_entropy(-0.01)
    with pytest.raises(OutOfRange):
        binary_entropy(1.01)


def test_binary_entropy_array_is_bit_equal_to_scalar_calls():
    # math.log2 per element: np.log2 differs from libm in the last bit on some builds
    edge = [0.0, 1.0, 0.5, 5e-324, 1e-300, 0.25, 1.0 - 2.0**-53, 2.0**-53]
    q = np.concatenate([edge, np.random.default_rng(4).uniform(size=20000)])
    batch = binary_entropy(q)
    assert [x.hex() for x in batch.tolist()] == [binary_entropy(x).hex() for x in q.tolist()]
    # each value is the libm float arithmetic of H2, endpoints 0
    libm = [-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x) if 0.0 < x < 1.0 else 0.0
            for x in q.tolist()]
    assert [x.hex() for x in batch.tolist()] == [x.hex() for x in libm]
    assert binary_entropy(q.reshape(2, -1)).tolist() == batch.reshape(2, -1).tolist()
    assert all(type(binary_entropy(x)) is float for x in edge + [0.3])


def test_check_range_array_fails_on_first_bad_element():
    grid = np.array([0.1, 0.7, np.nan, -1.0])
    with pytest.raises(OutOfRange, match=r"^mu = 0\.7 outside \[0\.0, 0\.5\]$"):
        check_range("mu", grid, 0.0, 0.5)
    with pytest.raises(OutOfRange, match=r"^mu = nan outside"):
        check_range("mu", grid[[0, 2, 3]], 0.0, 0.5)
    with pytest.raises(OutOfRange, match=r"^x = -1\.0 outside"):
        check_range("x", grid.reshape(2, 2)[:, ::-1], -0.5, 0.8)
    ok = np.linspace(0.0, 0.5, 7)
    assert check_range("mu", ok, 0.0, 0.5) is ok
    assert check_range("mu", 0.5, 0.0, 0.5) == 0.5
    with pytest.raises(OutOfRange, match=r"^mu = 0\.7 outside \[0\.0, 0\.5\]$"):
        check_range("mu", 0.7, 0.0, 0.5)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric(q):
    assert abs(binary_entropy(q) - binary_entropy(1.0 - q)) < 1e-12
    assert 0.0 <= binary_entropy(q) <= 1.0


def test_matrix_entropy_examples():
    assert matrix_entropies(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert matrix_entropies(np.diag([1.0, 0.0])) == 0.0
    assert matrix_entropies(np.diag([0.9, 0.1])) == pytest.approx(H2_09, abs=1e-14)


def test_matrix_entropy_rejects_negative_eigenvalues():
    with pytest.raises(InvalidState):
        matrix_entropies(np.diag([1.5, -0.5]))
    # eigenvalues in [-EIG_CLAMP, 0) are rounding noise and count as 0
    assert matrix_entropies(np.diag([1.0, -1e-12])) == 0.0
    noisy = matrix_entropies(np.diag([1.0 + 1e-12, -1e-12]))
    assert noisy == matrix_entropies(np.diag([1.0 + 1e-12, 0.0])) == pytest.approx(0.0, abs=1e-11)
    # the edge: 0.9 EIG_CLAMP below 0 counts as 0, and 1.1 EIG_CLAMP below 0 is rejected
    assert matrix_entropies(np.diag([1.0, -0.9 * EIG_CLAMP])) == 0.0
    with pytest.raises(InvalidState):
        matrix_entropies(np.diag([1.0, -1.1 * EIG_CLAMP]))
    assert np.array_equal(matrix_sqrt_psd(np.diag([1.0, -0.9 * EIG_CLAMP])), np.diag([1.0, 0.0]))
    with pytest.raises(NotPSD):
        matrix_sqrt_psd(np.diag([1.0, -1.1 * EIG_CLAMP]))


def test_entropies_reject_nan():
    # NaN fails `q >= -EIG_CLAMP`, so it cannot pass as a zero eigenvalue
    with pytest.raises(InvalidState):
        shannon_entropies([[float("nan"), 1.0]])
    with pytest.raises(InvalidState):
        matrix_entropies(np.array([[float("nan"), 0.0], [0.0, 1.0]]))


def test_entropies_reject_a_non_hermitian_matrix():
    # eigvalsh reads one triangle: [[0.5, 0.5], [0, 0.5]] read as I/2, H = 1.  A finite
    # matrix that is not Hermitian raises NotHermitian, a NaN or infinite one InvalidState
    with pytest.raises(NotHermitian):
        matrix_entropies(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(NotHermitian):  # one bad matrix of a stack
        matrix_entropies(np.array([np.eye(2) / 2, [[0.5, 0.0], [1e-9, 0.5]]]))
    for bad in (np.inf, -np.inf, complex(0.0, np.inf), np.nan):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = bad
        with pytest.raises(InvalidState):
            matrix_entropies(m)
    assert matrix_entropies(np.array([[0.5, 0.5 * NORM_TOL], [0.0, 0.5]])) == 1.0


def test_matrix_entropy_unitary_invariance_and_additivity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert matrix_entropies(q @ rho @ q.conj().T) == pytest.approx(
            matrix_entropies(rho), abs=1e-10
        )
        sigma = np.diag(rng.dirichlet(np.ones(2))).astype(complex)
        assert matrix_entropies(np.kron(rho, sigma)) == pytest.approx(
            matrix_entropies(rho) + matrix_entropies(sigma), abs=1e-10
        )


def test_trace_norm():
    assert trace_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-14)
    assert trace_norm(np.zeros((3, 3))) == 0.0
    assert trace_norm(np.diag([0.9, 0.1]) - np.eye(2) / 2) == pytest.approx(0.8, abs=1e-14)
    # non-Hermitian input falls back to singular values
    assert trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(NotSquare):
        trace_norm(np.zeros((2, 3)))


def test_stacked_entropies_and_trace_norms_equal_per_matrix_calls(monkeypatch):
    rng = np.random.default_rng(41)
    stacks = {}
    for d in (2, 3, 4):
        gauss = rng.standard_normal((9, d, 2 * d)) + 1j * rng.standard_normal((9, d, 2 * d))
        states = gauss @ gauss.conj().transpose(0, 2, 1)
        states /= np.trace(states, axis1=1, axis2=2).real[:, None, None]
        spectra = np.linalg.eigvalsh(states)
        assert shannon_entropies(spectra) == [shannon_entropies(w[None])[0] for w in spectra]
        assert matrix_entropies(states).tolist() == [matrix_entropies(m).item() for m in states]
        assert matrix_entropies(states.reshape(3, 3, d, d)).shape == (3, 3)
        # a stack mixing Hermitian and non-Hermitian matrices: SVD for the latter only
        mixed = np.concatenate([states[:-1] - states[1:], gauss[:3, :, :d]])
        assert trace_norms(mixed).tolist() == [trace_norm(m) for m in mixed]
        with pytest.raises(NotSquare):
            trace_norms(gauss)
        stacks[d] = states
    # one grouped call over stacks of leading shapes (3, 3), () and (0,) at two sizes,
    # interleaved: each entry is its matrix's entropy alone, from one eigvalsh per size
    a, b = stacks[2], stacks[4]
    shaped = [a.reshape(3, 3, 2, 2), b[0], a[:0], b.reshape(3, 3, 4, 4), a[0], b[:0]]
    solve, sizes = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: sizes.append(m.shape[-1]) or solve(m))
    out = grouped_entropies(*shaped)
    monkeypatch.undo()
    assert sorted(sizes) == [2, 4]
    assert [h.shape for h in out] == [(3, 3), (), (0,)] * 2
    for m, h in zip(shaped, out):
        alone = [matrix_entropies(x).item() for x in m.reshape(-1, *m.shape[-2:])]
        assert h.ravel().tolist() == alone


def test_trace_norm_properties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10
        assert trace_norm(2.5 * a) == pytest.approx(2.5 * trace_norm(a), abs=1e-10)


def test_matrix_sqrt_psd():
    assert np.allclose(matrix_sqrt_psd(np.diag([4.0, 9.0]).astype(complex)), np.diag([2.0, 3.0]))
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = m @ m.conj().T
        r = matrix_sqrt_psd(x)
        assert np.allclose(r @ r, x, atol=1e-9)
    with pytest.raises(NotPSD):
        matrix_sqrt_psd(np.diag([1.0, -0.5]).astype(complex))


def test_matrix_sqrt_psd_of_a_stack_is_per_matrix():
    rng = np.random.default_rng(4)
    for dim in (1, 2, 3, 4):
        m = rng.standard_normal((6, dim, dim)) + 1j * rng.standard_normal((6, dim, dim))
        stack = m @ m.conj().swapaxes(-1, -2)
        roots = matrix_sqrt_psd(stack)
        assert roots.shape == stack.shape
        assert all(r.tobytes() == matrix_sqrt_psd(x).tobytes() for r, x in zip(roots, stack))
    # one bad matrix rejects the stack
    with pytest.raises(NotPSD):
        matrix_sqrt_psd(np.array([np.eye(2), np.diag([1.0, -0.5])]))
    with pytest.raises(NotHermitian):
        matrix_sqrt_psd(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))


def test_matrix_sqrt_psd_upper_eigenvalue_bound():
    # above max_eig by 0.9 EIG_CLAMP is rounding; by 1.1 EIG_CLAMP raises the given error
    assert matrix_sqrt_psd(np.diag([1.0 + 0.9 * EIG_CLAMP, 0.25]), 1.0)[1, 1] == 0.5
    for error in (NotPSD, OutOfRange):
        with pytest.raises(error):
            matrix_sqrt_psd(np.diag([1.0 + 1.1 * EIG_CLAMP, 0.25]), 1.0, error)
        with pytest.raises(error):
            matrix_sqrt_psd(np.diag([0.5, -1.1 * EIG_CLAMP]), 1.0, error)
    # by default no eigenvalue is too large
    assert np.array_equal(matrix_sqrt_psd(np.diag([4.0, 2.0**600])), np.diag([2.0, 2.0**300]))


def test_partial_trace_mat_bell_and_product():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    rho_a, rho_b = marginals(rho, (2, 2))
    assert np.allclose(rho_a, np.eye(2) / 2)
    assert np.allclose(rho_b, np.eye(2) / 2)

    a = np.diag([0.7, 0.3]).astype(complex)
    b = np.diag([0.2, 0.8]).astype(complex)
    assert np.allclose(marginals(np.kron(a, b), (2, 2))[0], a)
    assert np.allclose(marginals(np.kron(a, b), (2, 2))[1], b)


def test_marginals_are_bit_equal_to_np_trace():
    rng = np.random.default_rng(31)
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(50):
            m = random_hermitian(dims[0] * dims[1], rng)
            t = m.reshape(dims * 2)
            rho_a, rho_b = marginals(m, dims)
            assert np.array_equal(rho_a, np.trace(t, axis1=1, axis2=3))
            assert np.array_equal(rho_b, np.trace(t, axis1=0, axis2=2))
        stack = np.stack([random_hermitian(dims[0] * dims[1], rng) for _ in range(12)])
        per_matrix = [marginals(m, dims) for m in stack]
        for i, part in enumerate(marginals(stack.reshape(3, 4, *stack.shape[1:]), dims)):
            assert np.array_equal(part.reshape(12, *part.shape[2:]), [p[i] for p in per_matrix])


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (1, 2), (4, 2)])
def test_marginals_need_dims_of_the_matrix_size(dims):
    # d_A d_B must be the matrix size: DimMismatch, not numpy's reshape error
    with pytest.raises(DimMismatch):
        marginals(np.eye(4) / 4, dims)
    with pytest.raises(DimMismatch):
        marginals(np.stack([np.eye(4) / 4] * 3), dims)


def test_partial_trace_mat_three_parties():
    rng = np.random.default_rng(17)
    psi = random_state_vector(2 * 3 * 2, rng)
    rho = np.outer(psi, psi.conj())
    keep_b = marginals(marginals(rho, (2, 6))[1], (3, 2))[0]  # trace out A, then C
    assert keep_b.shape == (3, 3)
    assert np.trace(keep_b).real == pytest.approx(1.0, abs=1e-12)
    # tracing out C first gives the same marginal
    step = marginals(rho, (6, 2))[0]
    assert np.allclose(marginals(step, (2, 3))[1], keep_b)


def test_von_neumann_entropy_of_operator():
    rho = np.diag([0.9, 0.1]).astype(complex)
    assert matrix_entropies(rho) == pytest.approx(H2_09, abs=1e-14)


def test_pure_state_vector_validation_and_marginals():
    with pytest.raises(InvalidState):
        PureStateVector(np.array([1.0, 1.0], dtype=complex), (2,), ("A",))
    # the squared norm is accepted within NORM_TOL of 1, as an ensemble letter's is
    edge = PureStateVector(np.array([math.sqrt(1.0 + 0.9 * NORM_TOL), 0.0], complex), (2,), ("A",))
    assert edge.dims == (2,)
    with pytest.raises(InvalidState):
        PureStateVector(np.array([math.sqrt(1.0 + 1.1 * NORM_TOL), 0.0], complex), (2,), ("A",))
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    phi = PureStateVector(bell, (2, 2), ("A", "B"))
    assert np.allclose(phi.marginal_mat({"A"}), np.eye(2) / 2)
    assert np.allclose(phi.marginal_mat({"B"}), np.eye(2) / 2)
    assert np.allclose(phi.marginal_mat({"A", "B"}), np.outer(bell, bell.conj()))
    with pytest.raises(UnknownLabel):
        phi.marginal_mat({"E"})


def test_pure_state_marginal_entropies_match():
    # both halves of a pure bipartite state carry the same entropy
    rng = np.random.default_rng(23)
    for _ in range(10):
        psi = PureStateVector(random_state_vector(6, rng), (2, 3), ("A", "B"))
        assert matrix_entropies(psi.marginal_mat({"A"})) == pytest.approx(
            matrix_entropies(psi.marginal_mat({"B"})), abs=1e-10
        )
