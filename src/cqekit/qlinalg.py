"""Dense complex linear algebra for small labeled Hilbert spaces.

Everything works on plain numpy arrays in row-major order; the labeled
wrapper types (`DensityOperator`, `PureStateVector`) carry subsystem
dimensions and names so that partial traces can be requested by label.
All entropies are in bits (log base 2).
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


def eig_hermitian(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending, real) and eigenvector columns of a Hermitian matrix."""
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"matrix has shape {m.shape}")
    if not is_hermitian(m):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(m)
    return w[::-1], v[:, ::-1]


def shannon_entropy(p: Sequence[float]) -> float:
    """-sum p log2 p with 0 log 0 := 0; small negatives are clamped."""
    total = 0.0
    for q in np.asarray(p, dtype=float).ravel():
        if q < -EIG_CLAMP:
            raise InvalidState(f"probability {q} below clamp threshold")
        if q > 1e-15:
            total -= q * math.log2(q)
    return total


def binary_entropy(q: float) -> float:
    """H2(q) in bits; endpoints give 0."""
    check_range("binary entropy argument", q, 0.0, 1.0)
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def matrix_entropy(m: np.ndarray) -> float:
    """Von Neumann entropy in bits of a PSD Hermitian matrix (eigenvalue clamp 1e-9)."""
    w = np.linalg.eigvalsh(m)
    return shannon_entropy(np.clip(w, 0.0, None))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; via |eigenvalues| for Hermitian input."""
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"matrix has shape {m.shape}")
    if is_hermitian(m):
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def matrix_sqrt_psd(x: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues in [-1e-9, 0) are clamped to 0."""
    w, v = eig_hermitian(x)
    if np.min(w) < -EIG_CLAMP:
        raise NotPSD(f"eigenvalue {np.min(w)} below -{EIG_CLAMP}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (root + root.conj().T) / 2


def partial_trace_mat(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a square matrix over the subsystems not in `keep`.

    `dims` are the subsystem dimensions in tensor order and `keep` are the
    indices (into `dims`) of the subsystems to retain, in original order.
    """
    dims = list(dims)
    keep_set = set(keep)
    t = mat.reshape(tuple(dims) + tuple(dims))
    for i in reversed(range(len(dims))):
        if i not in keep_set:
            t = np.trace(t, axis1=i, axis2=i + len(dims))
            del dims[i]
    d = int(np.prod(dims)) if dims else 1
    return t.reshape(d, d)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian unit-trace matrix over a labeled tensor product of subsystems."""

    mat: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        side = int(np.prod(self.dims))
        if self.mat.shape != (side, side):
            raise InvalidState(f"matrix shape {self.mat.shape} does not match dims {self.dims}")
        if len(self.dims) != len(self.labels):
            raise InvalidState("dims and labels length mismatch")
        if not is_hermitian(self.mat):
            raise InvalidState("density operator is not Hermitian within 1e-10")
        if abs(np.trace(self.mat).real - 1.0) > 1e-10:
            raise InvalidState(f"trace {np.trace(self.mat)} differs from 1")
        if np.min(np.linalg.eigvalsh(self.mat)) < -EIG_CLAMP:
            raise InvalidState("density operator has an eigenvalue below -1e-9")

    def partial_trace(self, keep: Iterable[str]) -> "DensityOperator":
        keep_set = set(keep)
        unknown = keep_set - set(self.labels)
        if unknown:
            raise UnknownLabel(f"labels {sorted(unknown)} not present in {self.labels}")
        keep_idx = [i for i, lab in enumerate(self.labels) if lab in keep_set]
        reduced = partial_trace_mat(self.mat, self.dims, keep_idx)
        return DensityOperator(
            reduced,
            tuple(self.dims[i] for i in keep_idx),
            tuple(self.labels[i] for i in keep_idx),
        )


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
        if abs(norm2 - 1.0) > 1e-10:
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
