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
from typing import Sequence

import numpy as np

from .entropics import CQEJointState, CQEnsemble, make_ensemble
from .errors import DimMismatch, NoEnvironmentSplit, NotValidPOVMElement
from .qlinalg import binary_entropy, marginals, matrix_entropy, matrix_sqrt_psd, squared_norms
from .qlinalg import trace_norm

REPORT_TOL = 1e-12


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    satisfied: bool
    slack: float


def _report(lhs: float, rhs: float) -> BoundReport:
    return BoundReport(lhs=lhs, rhs=rhs, satisfied=lhs <= rhs + REPORT_TOL, slack=rhs - lhs)


def fannes_bound(eps: float, dim_a: int) -> float:
    """eps log2|A| + H2(min(eps, 1))."""
    return eps * math.log2(dim_a) + binary_entropy(min(eps, 1.0))


def _continuity(rho: np.ndarray, sigma: np.ndarray, quantity, bound) -> BoundReport:
    """|quantity(rho) - quantity(sigma)| against bound(trace distance of rho and sigma)."""
    if rho.shape != sigma.shape:
        raise DimMismatch(f"shapes {rho.shape} and {sigma.shape} differ")
    eps = trace_norm(rho - sigma)
    return _report(abs(quantity(rho) - quantity(sigma)), bound(eps))


def check_fannes(rho: np.ndarray, sigma: np.ndarray) -> BoundReport:
    """|H(rho) - H(sigma)| against the entropy-continuity bound."""
    return _continuity(rho, sigma, matrix_entropy, lambda eps: fannes_bound(eps, rho.shape[0]))


def alicki_fannes_bound(eps: float, dim_a: int) -> float:
    """4 eps log2|A| + 2 H2(min(eps, 1))."""
    return 4.0 * eps * math.log2(dim_a) + 2.0 * binary_entropy(min(eps, 1.0))


def coherent_info_mat(rho_ab: np.ndarray, dims: tuple[int, int]) -> float:
    """I(A>B) = H(B) - H(AB) of a bipartite density matrix."""
    return matrix_entropy(marginals(rho_ab, dims)[1]) - matrix_entropy(rho_ab)


def mutual_info_mat(rho_ab: np.ndarray, dims: tuple[int, int]) -> float:
    """I(A;B) = H(A) + H(B) - H(AB) of a bipartite density matrix."""
    rho_a, rho_b = marginals(rho_ab, dims)
    return matrix_entropy(rho_a) + matrix_entropy(rho_b) - matrix_entropy(rho_ab)


def check_af(rho_ab: np.ndarray, sigma_ab: np.ndarray, dims: tuple[int, int]) -> BoundReport:
    """|I(A>B)_rho - I(A>B)_sigma| against the coherent-information bound."""
    return _continuity(rho_ab, sigma_ab, lambda m: coherent_info_mat(m, dims),
                       lambda eps: alicki_fannes_bound(eps, dims[0]))


def mi_continuity_bound(eps: float, dim_a: int) -> float:
    """5 eps log2|A| + 3 H2(min(eps, 1))."""
    return 5.0 * eps * math.log2(dim_a) + 3.0 * binary_entropy(min(eps, 1.0))


def check_mi(rho_ab: np.ndarray, sigma_ab: np.ndarray, dims: tuple[int, int]) -> BoundReport:
    """|I(A;B)_rho - I(A;B)_sigma| against the mutual-information bound."""
    return _continuity(rho_ab, sigma_ab, lambda m: mutual_info_mat(m, dims),
                       lambda eps: mi_continuity_bound(eps, dims[0]))


def gentle_measurement_check(
    ens: Sequence[tuple[float, np.ndarray]], x: np.ndarray
) -> BoundReport:
    """Average disturbance of the ensemble under sqrt(X) . sqrt(X) vs sqrt(8 eps)."""
    w = np.linalg.eigvalsh((x + x.conj().T) / 2)
    if np.min(w) < -1e-9 or np.max(w) > 1.0 + 1e-9:
        raise NotValidPOVMElement(f"eigenvalues of X in [{np.min(w)}, {np.max(w)}]")
    avg = sum(p * rho for p, rho in ens)
    eps = max(0.0, 1.0 - float(np.trace(avg @ x).real))
    root = matrix_sqrt_psd((x + x.conj().T) / 2)
    lhs = sum(p * trace_norm(rho - root @ rho @ root) for p, rho in ens)
    return _report(lhs, math.sqrt(8.0 * eps))


def ssa_check(rho_abc: np.ndarray, dims: tuple[int, int, int]) -> BoundReport:
    """Strong subadditivity in the form I(A;B) <= I(A;BC)."""
    da, db, dc = dims
    lhs = mutual_info_mat(marginals(rho_abc, (da * db, dc))[0], (da, db))
    return _report(lhs, mutual_info_mat(rho_abc, (da, db * dc)))


def dpi_check(sigma: CQEJointState) -> dict[str, BoundReport]:
    """Data-processing checks after dephasing the whole environment.

    Each block splits into one branch per E basis state, of weight
    p(x) |<e|phi_x>|^2; branches of weight at most 1e-15 are dropped.
    """
    if sigma.dim_E == 1:
        raise NoEnvironmentSplit("environment is one-dimensional; nothing to dephase")
    _, da, db, de = sigma.psi.shape
    branches = sigma.psi.transpose(0, 3, 1, 2).reshape(-1, da * db)  # letter-major, then E
    weights = squared_norms(branches)
    keep = weights > 1e-15
    probs = (np.repeat(sigma.probs, de) * weights)[keep]
    psi = (branches[keep] / np.sqrt(weights[keep])[:, None]).reshape(-1, da, db, 1)
    before, after = sigma.profile, CQEJointState(probs, psi).profile
    return {
        "holevo": _report(before.i_xb, after.i_xb),
        "mutual": _report(before.i_axb, after.i_axb),
        "coherent": _report(before.i_coh, after.i_coh),
    }


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized standard-complex-Gaussian amplitude vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_ensemble(rng: np.random.Generator) -> CQEnsemble:
    """Random qubit-qubit classical-quantum input ensemble with 1 to 3 letters."""
    n = int(rng.integers(1, 4))
    probs = rng.random(n)
    probs /= probs.sum()
    entries = [(float(p), random_pure(4, rng)) for p in probs]
    return make_ensemble(entries, 2, 2)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Mixed state as the partial trace of a random pure state of doubled dimension."""
    psi = random_pure(dim * dim, rng)
    m = psi.reshape(dim, dim)
    return m @ m.conj().T
