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

from .entropics import CQEJointState, CQEnsemble
from .errors import ARITH_TOL, DimMismatch, NoEnvironmentSplit, NotValidPOVMElement
from .qlinalg import WEIGHT_FLOOR, binary_entropy, marginals, matrix_entropies
from .qlinalg import matrix_sqrt_psd, squared_norms, trace_norms


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    satisfied: bool
    slack: float


def _report(lhs: float, rhs: float) -> BoundReport:
    return BoundReport(lhs=lhs, rhs=rhs, satisfied=lhs <= rhs + ARITH_TOL, slack=rhs - lhs)


def fannes_bound(eps, dim_a: int):
    """eps log2|A| + H2(min(eps, 1)), of a float eps or of each element of an eps array."""
    return eps * math.log2(dim_a) + binary_entropy(np.minimum(eps, 1.0))


def _continuity(rho: np.ndarray, sigma: np.ndarray, quantity, bound):
    """|quantity(rho) - quantity(sigma)| against bound(trace distances of rho and sigma): a
    report for two matrices, a list of reports for two stacks (N, d, d) of them."""
    if rho.shape != sigma.shape:
        raise DimMismatch(f"shapes {rho.shape} and {sigma.shape} differ")
    rhs = np.ravel(bound(trace_norms(rho - sigma))).tolist()
    lhs = np.ravel(np.abs(np.subtract(*quantity(np.stack([rho, sigma]))))).tolist()
    reports = [_report(d, b) for d, b in zip(lhs, rhs)]
    return reports if rho.ndim > 2 else reports[0]


def check_fannes(rho: np.ndarray, sigma: np.ndarray) -> BoundReport:
    """|H(rho) - H(sigma)| against the entropy-continuity bound."""
    return _continuity(rho, sigma, matrix_entropies, lambda eps: fannes_bound(eps, rho.shape[-1]))


def alicki_fannes_bound(eps, dim_a: int):
    """4 eps log2|A| + 2 H2(min(eps, 1)), of a float eps or of each element of an eps array."""
    return 4.0 * eps * math.log2(dim_a) + 2.0 * binary_entropy(np.minimum(eps, 1.0))


def coherent_info_mat(rho_ab: np.ndarray, dims: tuple[int, int]):
    """I(A>B) = H(B) - H(AB) of a bipartite density matrix; a (nested) list over a stack."""
    return (matrix_entropies(marginals(rho_ab, dims)[1]) - matrix_entropies(rho_ab)).tolist()


def mutual_info_mat(rho_ab: np.ndarray, dims: tuple[int, int]):
    """I(A;B) = H(A) + H(B) - H(AB) of a bipartite density matrix; a (nested) list over a stack."""
    rho_a, rho_b = marginals(rho_ab, dims)
    return (matrix_entropies(rho_a) + matrix_entropies(rho_b) - matrix_entropies(rho_ab)).tolist()


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
    a list of reports for N ensembles and a stack x (N, d, d), padded with weight-0 letters."""
    if x.ndim == 2:
        return gentle_measurement_check([ens], x[None])[0]
    probs = np.zeros((len(ens), max(map(len, ens))))
    rhos = np.zeros(probs.shape + x.shape[-2:], complex)
    for i, letters in enumerate(ens):
        probs[i, :len(letters)], rhos[i, :len(letters)] = zip(*letters)
    root = matrix_sqrt_psd((x + x.conj().swapaxes(-1, -2)) / 2, 1.0, NotValidPOVMElement)
    avg = sum((probs[..., None, None] * rhos).swapaxes(0, 1))  # the letters in turn
    eps = [max(0.0, 1.0 - t) for t in np.trace(avg @ x, axis1=-2, axis2=-1).real.tolist()]
    lhs = (probs * trace_norms(rhos - root[:, None] @ rhos @ root[:, None])).tolist()
    return [_report(sum(row), math.sqrt(8.0 * e)) for row, e in zip(lhs, eps)]


def ssa_check(rho_abc: np.ndarray, dims: tuple[int, int, int]) -> BoundReport:
    """Strong subadditivity in the form I(A;B) <= I(A;BC)."""
    da, db, dc = dims
    lhs = mutual_info_mat(marginals(rho_abc, (da * db, dc))[0], (da, db))
    return _report(lhs, mutual_info_mat(rho_abc, (da, db * dc)))


def dephase_environment(sigma: CQEJointState) -> CQEJointState:
    """sigma after dephasing the whole environment: each block splits into one branch per E
    basis state, of weight p(x) |<e|phi_x>|^2, dropped if at most WEIGHT_FLOOR.  If the blocks'
    norms put the weights' sum off 1 beyond ARITH_TOL, each letter's weights are divided by
    |phi_x|^2 and its branches keep that norm."""
    if sigma.dim_E == 1:
        raise NoEnvironmentSplit("environment is one-dimensional; nothing to dephase")
    _, da, db, de = sigma.psi.shape
    branches = sigma.psi.transpose(0, 3, 1, 2).reshape(-1, da * db)  # letter-major, then E
    weights = squared_norms(branches)
    keep = weights > WEIGHT_FLOOR
    probs = np.repeat(sigma.probs, de) * weights
    if not abs(probs[keep].sum() - 1.0) <= ARITH_TOL:
        norms = np.repeat(weights.reshape(-1, de).sum(1), de)
        probs, weights = probs / norms, weights / norms
    psi = (branches[keep] / np.sqrt(weights[keep])[:, None]).reshape(-1, da, db, 1)
    return CQEJointState(probs[keep], psi)


def dpi_check(sigma: CQEJointState, dephased=None) -> dict[str, BoundReport]:
    """Data-processing checks of sigma against `dephased`, by default its dephase_environment."""
    before, after = sigma.profile, (dephased or dephase_environment(sigma)).profile
    return {
        "holevo": _report(before.i_xb, after.i_xb),
        "mutual": _report(before.i_axb, after.i_axb),
        "coherent": _report(before.i_coh, after.i_coh),
    }


def random_pure(dim: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Normalized standard-complex-Gaussian amplitude vector, or a stack (n, dim) of them from
    one draw, the bits of n draws in turn; the row products give np.linalg.norm's bits."""
    g = rng.standard_normal((2, dim) if n is None else (n, 2, dim))
    v = g[..., 0, :] + 1j * g[..., 1, :]
    return v / np.sqrt(sum(x[..., None, :] @ x[..., :, None] for x in (v.real, v.imag)))[..., 0]


def random_ensemble(rng: np.random.Generator) -> CQEnsemble:
    """Random qubit-qubit classical-quantum input ensemble with 1 to 3 letters."""
    n = int(rng.integers(1, 4))
    probs = rng.random(n)
    probs /= probs.sum()
    return CQEnsemble(probs, random_pure(4, rng, n).reshape(n, 2, 2))


def random_density(dim: int, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Mixed state as the partial trace of a random pure state of doubled dimension, or a
    stack (n, dim, dim) of them from one draw (see random_pure)."""
    psi = random_pure(dim * dim, rng, n)
    m = psi.reshape(*psi.shape[:-1], dim, dim)
    return m @ m.conj().swapaxes(-1, -2)
