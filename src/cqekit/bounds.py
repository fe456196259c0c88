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
from .qlinalg import (
    PureStateVector,
    binary_entropy,
    matrix_entropy,
    matrix_sqrt_psd,
    partial_trace_mat,
    trace_norm,
)

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


def check_fannes(rho: np.ndarray, sigma: np.ndarray) -> BoundReport:
    """|H(rho) - H(sigma)| against the entropy-continuity bound."""
    if rho.shape != sigma.shape:
        raise DimMismatch(f"shapes {rho.shape} and {sigma.shape} differ")
    eps = trace_norm(rho - sigma)
    lhs = abs(matrix_entropy(rho) - matrix_entropy(sigma))
    return _report(lhs, fannes_bound(eps, rho.shape[0]))


def alicki_fannes_bound(eps: float, dim_a: int) -> float:
    """4 eps log2|A| + 2 H2(min(eps, 1))."""
    return 4.0 * eps * math.log2(dim_a) + 2.0 * binary_entropy(min(eps, 1.0))


def coherent_info_mat(rho_ab: np.ndarray, dims: tuple[int, int]) -> float:
    """I(A>B) = H(B) - H(AB) of a bipartite density matrix."""
    rho_b = partial_trace_mat(rho_ab, dims, (1,))
    return matrix_entropy(rho_b) - matrix_entropy(rho_ab)


def mutual_info_mat(rho_ab: np.ndarray, dims: tuple[int, int]) -> float:
    """I(A;B) = H(A) + H(B) - H(AB) of a bipartite density matrix."""
    rho_a = partial_trace_mat(rho_ab, dims, (0,))
    rho_b = partial_trace_mat(rho_ab, dims, (1,))
    return matrix_entropy(rho_a) + matrix_entropy(rho_b) - matrix_entropy(rho_ab)


def check_af(rho_ab: np.ndarray, sigma_ab: np.ndarray, dims: tuple[int, int]) -> BoundReport:
    """|I(A>B)_rho - I(A>B)_sigma| against the coherent-information bound."""
    if rho_ab.shape != sigma_ab.shape:
        raise DimMismatch(f"shapes {rho_ab.shape} and {sigma_ab.shape} differ")
    eps = trace_norm(rho_ab - sigma_ab)
    lhs = abs(coherent_info_mat(rho_ab, dims) - coherent_info_mat(sigma_ab, dims))
    return _report(lhs, alicki_fannes_bound(eps, dims[0]))


def mi_continuity_bound(eps: float, dim_a: int) -> float:
    """5 eps log2|A| + 3 H2(min(eps, 1))."""
    return 5.0 * eps * math.log2(dim_a) + 3.0 * binary_entropy(min(eps, 1.0))


def check_mi(rho_ab: np.ndarray, sigma_ab: np.ndarray, dims: tuple[int, int]) -> BoundReport:
    """|I(A;B)_rho - I(A;B)_sigma| against the mutual-information bound."""
    if rho_ab.shape != sigma_ab.shape:
        raise DimMismatch(f"shapes {rho_ab.shape} and {sigma_ab.shape} differ")
    eps = trace_norm(rho_ab - sigma_ab)
    lhs = abs(mutual_info_mat(rho_ab, dims) - mutual_info_mat(sigma_ab, dims))
    return _report(lhs, mi_continuity_bound(eps, dims[0]))


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
    rho_ab = partial_trace_mat(rho_abc, dims, (0, 1))
    lhs = mutual_info_mat(rho_ab, (da, db))
    rhs = mutual_info_mat(rho_abc.reshape(da * db * dc, da * db * dc), (da, db * dc))
    return _report(lhs, rhs)


def _dephase_env(sigma: CQEJointState, split: tuple[int, int]) -> CQEJointState:
    """Dephase the trailing E factor of every block, producing a finer
    classical variable; the surviving environment is the leading E factor."""
    d_keep, d_y = split
    new_blocks = []
    for p, psi in sigma.blocks:
        amps = psi.vec.reshape(sigma.dim_A, sigma.dim_B, d_keep, d_y)
        for y in range(d_y):
            branch = amps[:, :, :, y].reshape(-1)
            weight = float(np.vdot(branch, branch).real)
            if weight <= 1e-15:
                continue
            vec = branch / math.sqrt(weight)
            new_blocks.append(
                (p * weight, PureStateVector(vec, (sigma.dim_A, sigma.dim_B, d_keep),
                                             ("A", "B", "E")))
            )
    return CQEJointState(tuple(new_blocks), sigma.dim_A, sigma.dim_B, d_keep)


def dpi_check(
    sigma: CQEJointState, split: tuple[int, int] | None = None
) -> dict[str, BoundReport]:
    """Data-processing checks after dephasing a designated subsystem of E.

    `split` = (kept E dimension, dephased dimension) with product dim_E;
    the default dephases the whole environment.
    """
    if sigma.dim_E == 1:
        raise NoEnvironmentSplit("environment is one-dimensional; nothing to dephase")
    if split is None:
        split = (1, sigma.dim_E)
    if split[0] * split[1] != sigma.dim_E:
        raise DimMismatch(f"split {split} does not factor dim_E = {sigma.dim_E}")
    before, after = sigma.profile, _dephase_env(sigma, split).profile
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
