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
)
from cqekit.qlinalg import (
    DensityOperator,
    PureStateVector,
    binary_entropy,
    eig_hermitian,
    is_hermitian,
    matrix_entropy,
    matrix_sqrt_psd,
    partial_trace_mat,
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
    assert np.allclose(partial_trace_mat(t, (2, 3), (0,)), 12.0 * a)
    assert np.allclose(partial_trace_mat(t, (2, 3), (1,)), 3.0 * b)


def test_eig_hermitian_descending_and_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = random_hermitian(5, rng)
        w, v = eig_hermitian(m)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.allclose((v * w) @ v.conj().T, m, atol=1e-10)


def test_eig_hermitian_rejects_bad_input():
    with pytest.raises(NotSquare):
        eig_hermitian(np.zeros((2, 3)))
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


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


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric(q):
    assert abs(binary_entropy(q) - binary_entropy(1.0 - q)) < 1e-12
    assert 0.0 <= binary_entropy(q) <= 1.0


def test_matrix_entropy_examples():
    assert matrix_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert matrix_entropy(np.diag([1.0, 0.0])) == 0.0
    assert matrix_entropy(np.diag([0.9, 0.1])) == pytest.approx(H2_09, abs=1e-14)


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
    assert np.allclose(partial_trace_mat(rho, (2, 2), (0,)), np.eye(2) / 2)
    assert np.allclose(partial_trace_mat(rho, (2, 2), (1,)), np.eye(2) / 2)
    assert np.allclose(partial_trace_mat(rho, (2, 2), (0, 1)), rho)

    a = np.diag([0.7, 0.3]).astype(complex)
    b = np.diag([0.2, 0.8]).astype(complex)
    assert np.allclose(partial_trace_mat(np.kron(a, b), (2, 2), (0,)), a)
    assert np.allclose(partial_trace_mat(np.kron(a, b), (2, 2), (1,)), b)


def test_partial_trace_mat_three_parties():
    rng = np.random.default_rng(17)
    psi = random_state_vector(2 * 3 * 2, rng)
    rho = np.outer(psi, psi.conj())
    keep_b = partial_trace_mat(rho, (2, 3, 2), (1,))
    assert keep_b.shape == (3, 3)
    assert np.trace(keep_b).real == pytest.approx(1.0, abs=1e-12)
    # tracing out in two stages matches tracing out in one
    step = partial_trace_mat(rho, (2, 3, 2), (0, 1))
    assert np.allclose(partial_trace_mat(step, (2, 3), (1,)), keep_b)


def test_density_operator_validation():
    with pytest.raises(InvalidState):
        DensityOperator(np.eye(2, dtype=complex), (2,), ("A",))  # trace 2
    with pytest.raises(InvalidState):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]), (2,), ("A",))  # not Hermitian
    with pytest.raises(InvalidState):
        DensityOperator(np.diag([1.5, -0.5]).astype(complex), (2,), ("A",))  # not PSD
    rho = DensityOperator(np.eye(4, dtype=complex) / 4, (2, 2), ("A", "B"))
    reduced = rho.partial_trace({"A"})
    assert reduced.labels == ("A",)
    assert np.allclose(reduced.mat, np.eye(2) / 2)
    with pytest.raises(UnknownLabel):
        rho.partial_trace({"C"})


def test_von_neumann_entropy_of_operator():
    rho = DensityOperator(np.diag([0.9, 0.1]).astype(complex), (2,), ("A",))
    assert matrix_entropy(rho.mat) == pytest.approx(H2_09, abs=1e-14)


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
