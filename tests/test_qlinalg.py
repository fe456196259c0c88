"""Tests for the dense linear-algebra and entropy primitives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import random_state_vector
from cqekit.errors import (
    InvalidState,
    NotHermitian,
    NotPSD,
    NotSquare,
    OutOfRange,
    UnknownLabel,
    check_range,
)
from cqekit.qlinalg import (
    PureStateVector,
    binary_entropy,
    is_hermitian,
    marginals,
    matrix_entropy,
    matrix_sqrt_psd,
    shannon_entropy,
    trace_norm,
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
    assert not is_hermitian(np.zeros((2, 3)))


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


def test_shannon_entropy_basics():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert abs(shannon_entropy([0.5, 0.5]) - 1.0) < 1e-15
    assert abs(shannon_entropy([0.25] * 4) - 2.0) < 1e-15
    # tiny negative eigenvalues from roundoff are tolerated
    assert shannon_entropy([1.0, -1e-12]) == 0.0
    with pytest.raises(InvalidState):
        shannon_entropy([1.1, -0.1])


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
    assert binary_entropy(q.reshape(2, -1)).tolist() == batch.reshape(2, -1).tolist()
    assert type(binary_entropy(0.3)) is float
    assert type(binary_entropy(0.0)) is float


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
    assert matrix_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert matrix_entropy(np.diag([1.0, 0.0])) == 0.0
    assert matrix_entropy(np.diag([0.9, 0.1])) == pytest.approx(H2_09, abs=1e-14)


def test_matrix_entropy_rejects_negative_eigenvalues():
    with pytest.raises(InvalidState):
        matrix_entropy(np.diag([1.5, -0.5]))
    # eigenvalues in [-1e-9, 0) are rounding noise and count as 0
    assert matrix_entropy(np.diag([1.0, -1e-12])) == 0.0
    noisy = matrix_entropy(np.diag([1.0 + 1e-12, -1e-12]))
    assert noisy == matrix_entropy(np.diag([1.0 + 1e-12, 0.0])) == pytest.approx(0.0, abs=1e-11)


def test_entropies_reject_nan():
    # NaN fails `q >= -EIG_CLAMP`, so it cannot pass as a zero eigenvalue
    with pytest.raises(InvalidState):
        shannon_entropy([float("nan"), 1.0])
    with pytest.raises(InvalidState):
        matrix_entropy(np.array([[float("nan"), 0.0], [0.0, 1.0]]))


def test_matrix_entropy_unitary_invariance_and_additivity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho = np.diag(rng.dirichlet(np.ones(3))).astype(complex)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert matrix_entropy(q @ rho @ q.conj().T) == pytest.approx(
            matrix_entropy(rho), abs=1e-10
        )
        sigma = np.diag(rng.dirichlet(np.ones(2))).astype(complex)
        assert matrix_entropy(np.kron(rho, sigma)) == pytest.approx(
            matrix_entropy(rho) + matrix_entropy(sigma), abs=1e-10
        )


def test_trace_norm():
    assert trace_norm(np.eye(2)) == pytest.approx(2.0, abs=1e-14)
    assert trace_norm(np.zeros((3, 3))) == 0.0
    assert trace_norm(np.diag([0.9, 0.1]) - np.eye(2) / 2) == pytest.approx(0.8, abs=1e-14)
    # non-Hermitian input falls back to singular values
    assert trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(NotSquare):
        trace_norm(np.zeros((2, 3)))


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
    assert matrix_entropy(rho) == pytest.approx(H2_09, abs=1e-14)


def test_pure_state_vector_validation_and_marginals():
    with pytest.raises(InvalidState):
        PureStateVector(np.array([1.0, 1.0], dtype=complex), (2,), ("A",))
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
        assert matrix_entropy(psi.marginal_mat({"A"})) == pytest.approx(
            matrix_entropy(psi.marginal_mat({"B"})), abs=1e-10
        )
