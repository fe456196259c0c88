"""Dense complex linear algebra for small Hilbert spaces, on plain numpy arrays in
row-major order: entropies (in bits), norms, square roots and bipartite marginals.
`PureStateVector` is a state vector whose subsystems carry dimensions and labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidState, NotHermitian, NotPSD, NotSquare, UnknownLabel, check_range

HERMITIAN_TOL = 1e-10
EIG_CLAMP = 1e-9


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return m.shape[0] == m.shape[1] and np.max(np.abs(m - m.conj().T)) <= tol


def shannon_entropy(p: Sequence[float]) -> float:
    """-sum p log2 p with 0 log 0 := 0; small negatives are clamped, NaN raises."""
    total = 0.0
    for q in np.asarray(p, dtype=float).ravel().tolist():
        if not q >= -EIG_CLAMP:
            raise InvalidState(f"probability {q} below clamp threshold or NaN")
        if q > 1e-15:
            total -= q * math.log2(q)
    return total


def binary_entropy(q):
    """H2(q) in bits; endpoints give 0.  An array q gives the array of its
    elements' H2, each bit-equal to the scalar call; a float q gives a float."""
    check_range("binary entropy argument", q, 0.0, 1.0)
    if isinstance(q, np.ndarray):
        inner = (q > 0.0) & (q < 1.0)
        x = np.where(inner, q, 0.5)
        return np.where(inner, -x * _log2(x) - (1.0 - x) * _log2(1.0 - x), 0.0)
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def _log2(x: np.ndarray) -> np.ndarray:
    """math.log2 of each element: np.log2 is not bit-equal to libm on every build."""
    return np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size).reshape(x.shape)


def matrix_entropy(m: np.ndarray) -> float:
    """Von Neumann entropy in bits of a PSD Hermitian matrix.

    Eigenvalues in [-1e-9, 0) count as 0; a lower one raises InvalidState, and so
    does a NaN or infinite entry (LAPACK can return finite eigenvalues for it).
    """
    if not np.all(np.isfinite(m)):
        raise InvalidState("matrix has a NaN or infinite entry")
    return shannon_entropy(np.linalg.eigvalsh(m))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; via |eigenvalues| for Hermitian input."""
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"matrix has shape {m.shape}")
    if is_hermitian(m):
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def matrix_sqrt_psd(x: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues in [-1e-9, 0) are clamped to 0."""
    if x.shape[0] != x.shape[1]:
        raise NotSquare(f"matrix has shape {x.shape}")
    if not is_hermitian(x):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(x)
    if np.min(w) < -EIG_CLAMP:
        raise NotPSD(f"eigenvalue {np.min(w)} below -{EIG_CLAMP}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (root + root.conj().T) / 2


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a 2-d array, as one stacked row-times-column product
    (for a contiguous row, the bits of np.vdot(row, row).real)."""
    return (rows.conj()[:, None, :] @ rows[:, :, None]).real.reshape(-1)


def marginals(rho: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(rho_A, rho_B) of a matrix on A (x) B, with dims = (d_A, d_B) in tensor order."""
    t = rho.reshape(dims[0], dims[1], dims[0], dims[1])
    return np.einsum("ijkj->ik", t), np.einsum("ijil->jl", t)


@dataclass(frozen=True, eq=False)
class PureStateVector:
    """Normalized state vector over a labeled tensor product of subsystems."""

    vec: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.vec.shape != (int(np.prod(self.dims)),):
            raise InvalidState(f"vector shape {self.vec.shape} does not match dims {self.dims}")
        if len(self.dims) != len(self.labels):
            raise InvalidState("dims and labels length mismatch")
        norm2 = float(np.vdot(self.vec, self.vec).real)
        if not abs(norm2 - 1.0) <= 1e-10:  # NaN fails too
            raise InvalidState(f"squared norm {norm2} differs from 1")

    def marginal_mat(self, keep: Iterable[str]) -> np.ndarray:
        """Reduced density matrix on the kept subsystems as a raw array."""
        keep_set = set(keep)
        unknown = keep_set - set(self.labels)
        if unknown:
            raise UnknownLabel(f"labels {sorted(unknown)} not present in {self.labels}")
        keep_idx = [i for i, lab in enumerate(self.labels) if lab in keep_set]
        rest_idx = [i for i in range(len(self.dims)) if i not in keep_idx]
        t = self.vec.reshape(self.dims).transpose(keep_idx + rest_idx)
        dk = int(np.prod([self.dims[i] for i in keep_idx])) if keep_idx else 1
        m = t.reshape(dk, -1)
        return m @ m.conj().T
