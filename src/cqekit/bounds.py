"""Numerically testable continuity and disturbance bounds.

Fannes, Alicki-Fannes, and mutual-information continuity compare entropy
differences against trace-distance bounds; the gentle-measurement check and
the data-processing / strong-subadditivity sweeps exercise the remaining
ingredient inequalities.  Bounds stay valid for trace distances above 1 by
clamping the binary-entropy argument at 1 while keeping the linear term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropics import EntropyProfile, StateStack
from .errors import ARITH_TOL, DimMismatch, InvalidState, NoEnvironmentSplit, NotValidPOVMElement
from .qlinalg import WEIGHT_FLOOR, binary_entropy, check_hermitian, grouped_entropies, marginals
from .qlinalg import matrix_entropies, matrix_sqrt_psd, squared_norms, trace_norms


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    satisfied = property(lambda self: self.lhs <= self.rhs + ARITH_TOL)
    slack = property(lambda self: self.rhs - self.lhs)


def fannes_bound(eps, dim_a: int):
    """eps log2|A| + H2(min(eps, 1)), of a float eps or of each element of an eps array."""
    return eps * math.log2(dim_a) + binary_entropy(np.minimum(eps, 1.0))


def _continuity(rho: np.ndarray, sigma: np.ndarray, quantity, bound):
    """|quantity(rho) - quantity(sigma)| against bound(trace distances of rho and sigma): a
    report for two matrices, a list of reports for two stacks (N, d, d) of them."""
    if rho.shape != sigma.shape:
        raise DimMismatch(f"shapes {rho.shape} and {sigma.shape} differ")
    # the entropies first, so that a non-Hermitian or non-finite matrix raises their error
    lhs = np.ravel(np.abs(np.subtract(*quantity(np.stack([rho, sigma]))))).tolist()
    rhs = np.ravel(bound(trace_norms(rho - sigma))).tolist()
    reports = [BoundReport(d, b) for d, b in zip(lhs, rhs)]
    return reports if rho.ndim > 2 else reports[0]


def check_fannes(rho: np.ndarray, sigma: np.ndarray) -> BoundReport:
    """|H(rho) - H(sigma)| against the entropy-continuity bound."""
    return _continuity(rho, sigma, matrix_entropies, lambda eps: fannes_bound(eps, rho.shape[-1]))


def alicki_fannes_bound(eps, dim_a: int):
    """4 eps log2|A| + 2 H2(min(eps, 1)), of a float eps or of each element of an eps array."""
    return 4.0 * eps * math.log2(dim_a) + 2.0 * binary_entropy(np.minimum(eps, 1.0))


def _entropies(*stacks: np.ndarray) -> list[np.ndarray]:
    """The grouped_entropies of each stack (..., d, d) as an array of its shape[:-2], unchecked."""
    flat = grouped_entropies(*(m.reshape(-1, *m.shape[-2:]) for m in stacks))
    return [np.array(h).reshape(m.shape[:-2]) for m, h in zip(stacks, flat)]


def coherent_info_mat(rho_ab: np.ndarray, dims: tuple[int, int]):
    """I(A>B) = H(B) - H(AB) of a bipartite density matrix; a (nested) list over a stack."""
    h_b, h_ab = _entropies(marginals(check_hermitian(rho_ab), dims)[1], rho_ab)
    return (h_b - h_ab).tolist()


def mutual_info_mat(rho_ab: np.ndarray, dims: tuple[int, int]):
    """I(A;B) = H(A) + H(B) - H(AB) of a bipartite density matrix; a (nested) list over a stack."""
    h_a, h_b, h_ab = _entropies(*marginals(check_hermitian(rho_ab), dims), rho_ab)
    return (h_a + h_b - h_ab).tolist()


def check_af(rho_ab: np.ndarray, sigma_ab: np.ndarray, dims: tuple[int, int]) -> BoundReport:
    """|I(A>B)_rho - I(A>B)_sigma| against the coherent-information bound."""
    return _continuity(rho_ab, sigma_ab, lambda m: coherent_info_mat(m, dims),
                       lambda eps: alicki_fannes_bound(eps, dims[0]))


def mi_continuity_bound(eps, dim_a: int):
    """5 eps log2|A| + 3 H2(min(eps, 1)), of a float eps or of each element of an eps array."""
    return 5.0 * eps * math.log2(dim_a) + 3.0 * binary_entropy(np.minimum(eps, 1.0))


def check_mi(rho_ab: np.ndarray, sigma_ab: np.ndarray, dims: tuple[int, int]) -> BoundReport:
    """|I(A;B)_rho - I(A;B)_sigma| against the mutual-information bound."""
    return _continuity(rho_ab, sigma_ab, lambda m: mutual_info_mat(m, dims),
                       lambda eps: mi_continuity_bound(eps, dims[0]))


def gentle_measurement_check(ens, x: np.ndarray):
    """Average disturbance of an ensemble [(p, rho), ...] under sqrt(X) . sqrt(X) vs sqrt(8 eps);
    a list of reports for N ensembles and a stack x (N, d, d), padded with weight-0 letters.
    x must pass check_hermitian and hold one element per ensemble, each ensemble's weights be a
    probability vector within ARITH_TOL, and its states be (d, d) and pass matrix_entropies."""
    if x.ndim == 2:
        return gentle_measurement_check([ens], x[None])[0]
    check_hermitian(x)  # before its Hermitian part is taken, so an accepted x keeps its bits
    if x.shape[:-2] != (len(ens),):
        raise DimMismatch(f"{len(ens)} ensembles against a stack x of shape {x.shape}")
    if any(np.shape(rho) != x.shape[-2:] for letters in ens for _, rho in letters):
        raise DimMismatch(f"a letter state is not of x's element shape {x.shape[-2:]}")
    probs = np.zeros((len(ens), max(map(len, ens))))
    rhos = np.zeros(probs.shape + x.shape[-2:], complex)
    for i, letters in enumerate(ens):
        probs[i, :len(letters)], rhos[i, :len(letters)] = zip(*letters)
    if not (probs.min() >= 0.0 and (abs(probs.sum(1) - 1.0) <= ARITH_TOL).all()):  # NaN fails
        raise InvalidState(f"weights {probs.tolist()} are negative, NaN or do not sum to 1")
    matrix_entropies(rhos)  # finite, square, Hermitian and eigenvalues >= -EIG_CLAMP
    root = matrix_sqrt_psd((x + x.conj().swapaxes(-1, -2)) / 2, 1.0, NotValidPOVMElement)
    avg = sum((probs[..., None, None] * rhos).swapaxes(0, 1))  # the letters in turn
    eps = [max(0.0, 1.0 - t) for t in np.trace(avg @ x, axis1=-2, axis2=-1).real.tolist()]
    lhs = (probs * trace_norms(rhos - root[:, None] @ rhos @ root[:, None])).tolist()
    return [BoundReport(sum(row), math.sqrt(8.0 * e)) for row, e in zip(lhs, eps)]


def ssa_check(rho_abc: np.ndarray, dims: tuple[int, int, int]) -> BoundReport:
    """Strong subadditivity in the form I(A;B) <= I(A;BC), from one grouped solve."""
    da, db, dc = dims
    ab = marginals(check_hermitian(rho_abc), (da * db, dc))[0]
    h = _entropies(*marginals(ab, (da, db)), ab, *marginals(rho_abc, (da, db * dc)), rho_abc)
    return BoundReport((h[0] + h[1] - h[2]).tolist(), (h[3] + h[4] - h[5]).tolist())


def dephase_environment(states) -> StateStack:
    """The stack of states StateStack(states), checked unless it is one, after dephasing the
    whole environment, as a StateStack built from it: each block splits into one branch per E
    basis state, slot (x, e) of weight p(x) |<e|phi_x>|^2 and block (d_A, d_B, 1).  A branch of
    weight at most WEIGHT_FLOOR becomes a zero block of weight 0.  If a state's blocks' norms
    put its kept weights' sum off 1 beyond ARITH_TOL, each of its letters' weights are divided
    by |phi_x|^2 and its branches keep that norm."""
    probs, psi = StateStack(states)
    n, width, da, db, de = psi.shape
    if de == 1:
        raise NoEnvironmentSplit("environment is one-dimensional; nothing to dephase")
    branches = psi.transpose(0, 1, 4, 2, 3).reshape(-1, da * db)  # state, letter, then E
    weights = squared_norms(branches).reshape(n, width * de)
    keep = weights > WEIGHT_FLOOR
    probs = np.repeat(probs, de, axis=1) * weights
    off = ~(abs(np.where(keep, probs, 0.0).sum(1) - 1.0) <= ARITH_TOL)  # NaN is off too
    if off.any():
        norms = np.repeat(weights.reshape(n, width, de).sum(2), de, axis=1)
        norms[~(off[:, None] & keep)] = 1.0  # the rest keep their bits; no 0 / 0 for padding
        probs, weights = probs / norms, weights / norms
    blocks = np.zeros_like(branches)
    blocks[keep.ravel()] = branches[keep.ravel()] / np.sqrt(weights[keep])[:, None]
    return tuple.__new__(StateStack, (np.where(keep, probs, 0.0),
                                      blocks.reshape(n, width * de, da, db, 1)))


def dpi_check(before: EntropyProfile, after: EntropyProfile) -> dict[str, BoundReport]:
    """Data-processing checks of a state's profile against the profile of the state after a
    channel on its environment, such as its dephase_environment."""
    return {"holevo": BoundReport(before.i_xb, after.i_xb),
            "mutual": BoundReport(before.i_axb, after.i_axb),
            "coherent": BoundReport(before.i_coh, after.i_coh)}


def random_pure(dim: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Normalized standard-complex-Gaussian amplitude vector, or a stack (n, dim) of them from
    one draw, the bits of n draws in turn; the row products give np.linalg.norm's bits."""
    g = rng.standard_normal((2, dim) if n is None else (n, 2, dim))
    v = g[..., 0, :] + 1j * g[..., 1, :]
    return v / np.sqrt(sum(x[..., None, :] @ x[..., :, None] for x in (v.real, v.imag)))[..., 0]


def random_ensemble(rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k random qubit-qubit classical-quantum input ensembles of 1 to 3 letters, each drawn in
    turn (letter count, weights, amplitudes), as one stack (probs (k, W), amps (k, W, 2, 2))
    padded with zero letters of weight 0 to the W letters of the widest."""
    probs, amps, width = np.zeros((k, 3)), np.zeros((k, 3, 4), dtype=complex), 1
    for i in range(k):
        n = int(rng.integers(1, 4))
        p = rng.random(n)
        probs[i, :n], amps[i, :n], width = p / p.sum(), random_pure(4, rng, n), max(width, n)
    return probs[:, :width], amps[:, :width].reshape(k, width, 2, 2)


def random_density(dim: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Mixed state as the partial trace of a random pure state of doubled dimension, or a
    stack (n, dim, dim) of them from one draw (see random_pure)."""
    psi = random_pure(dim * dim, rng, n)
    m = psi.reshape(*psi.shape[:-1], dim, dim)
    return m @ m.conj().swapaxes(-1, -2)
