"""Dense complex linear algebra for small Hilbert spaces, on plain numpy arrays in
row-major order: entropies (in bits), norms, square roots and bipartite marginals.
`PureStateVector` is a state vector whose subsystems carry dimensions and labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NORM_TOL, DimMismatch, InvalidState, NotHermitian, NotPSD, NotSquare
from .errors import UnknownLabel, check_range

EIG_CLAMP = 1e-9  # > ARITH_TOL > n eps |rho| ~ 6e-14, eigvalsh's error at 0, for n <= 16 * 17
WEIGHT_FLOOR = 1e-15  # a skipped q <= WEIGHT_FLOOR holds q log2(1/q) < 5e-14 = ARITH_TOL / 20 bits


def is_hermitian(m: np.ndarray):
    """The one check of a caller's stack (..., d, d): NotSquare, or InvalidState for a NaN or an
    infinite entry, which LAPACK can miss; then the mask of its matrices within NORM_TOL of m^H."""
    if m.shape[-2] != m.shape[-1]:
        raise NotSquare(f"matrix has shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidState("matrix has a NaN or infinite entry")
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) <= NORM_TOL


def check_hermitian(m: np.ndarray) -> np.ndarray:
    """`m` once is_hermitian accepts every matrix of it: eigvalsh and eigh read one triangle
    only, so a finite matrix that is not Hermitian raises NotHermitian."""
    if not is_hermitian(m).all():
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return m


def shannon_entropies(rows: np.ndarray) -> list[float]:
    """-sum p log2 p of each row of a 2-d array, 0 log 0 := 0; small negatives clamp, NaN raises."""
    out = []
    for row in np.asarray(rows, dtype=float).tolist():
        total = 0.0
        for q in row:
            if not q >= -EIG_CLAMP:
                raise InvalidState(f"probability {q} below clamp threshold or NaN")
            if q > WEIGHT_FLOOR:
                total -= q * math.log2(q)
        out.append(total)
    return out


def binary_entropy(q):
    """H2(q) in bits; endpoints give 0.  An array q gives the array of its elements' H2;
    a float q is a batch of one and gives a float."""
    check_range("binary entropy argument", q, 0.0, 1.0)
    inner = (q > 0.0) & (q < 1.0)
    x = np.where(inner, q, 0.5)
    h = np.where(inner, -x * _log2(x) - (1.0 - x) * _log2(1.0 - x), 0.0)
    return h if isinstance(q, np.ndarray) else float(h)


def _log2(x: np.ndarray) -> np.ndarray:
    """math.log2 of each element: np.log2 is not bit-equal to libm on every build."""
    return np.fromiter(map(math.log2, x.ravel().tolist()), float, x.size).reshape(x.shape)


def grouped_entropies(*stacks: np.ndarray) -> list[np.ndarray]:
    """Entropies in bits of each checked stack (..., d, d), shaped like its leading axes: one
    eigvalsh and shannon_entropies call per d, each matrix alone, so no bit depends on the rest."""
    groups, flat = {}, [m.reshape(-1, m.shape[-1], m.shape[-1]) for m in stacks]
    for f in flat:
        groups.setdefault(f.shape[-1], []).append(f)
    solved = {d: iter(shannon_entropies(np.linalg.eigvalsh(np.concatenate(g) if g[1:] else g[0])))
              for d, g in groups.items()}
    return [np.fromiter(solved[f.shape[-1]], float, len(f)).reshape(m.shape[:-2])
            for m, f in zip(stacks, flat)]


def matrix_entropies(m: np.ndarray) -> np.ndarray:
    """grouped_entropies of each matrix of a stack (..., d, d) that check_hermitian accepts."""
    return grouped_entropies(check_hermitian(m))[0]


def trace_norms(m: np.ndarray) -> np.ndarray:
    """Sum of singular values of each matrix of a stack (..., d, d); |eigenvalues| if Hermitian."""
    hermitian, norms = is_hermitian(m), np.abs(np.linalg.eigvalsh(m)).sum(-1)
    return norms if hermitian.all() else np.where(
        hermitian, norms, np.linalg.svd(m, compute_uv=False).sum(-1))


def trace_norm(m: np.ndarray) -> float:
    return float(trace_norms(m))


def matrix_sqrt_psd(x: np.ndarray, max_eig: float = math.inf, error=NotPSD) -> np.ndarray:
    """Hermitian PSD square root of each matrix of a stack (..., d, d), from one eigh: eigenvalues
    in [-EIG_CLAMP, 0) clamp to 0; one under -EIG_CLAMP or over max_eig + EIG_CLAMP raises error."""
    w, v = np.linalg.eigh(check_hermitian(x))
    if w.min() < -EIG_CLAMP or w.max() > max_eig + EIG_CLAMP:
        raise error(f"eigenvalues in [{w.min()}, {w.max()}] beyond [0, {max_eig}] by > {EIG_CLAMP}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return (root + root.conj().swapaxes(-1, -2)) / 2


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a 2-d array, as one stacked row-times-column product on
    contiguous rows: the bits of np.vdot(row, row).real, whatever the array's layout."""
    rows = np.ascontiguousarray(rows)
    return (rows.conj()[:, None, :] @ rows[:, :, None]).real.reshape(-1)


def marginals(rho: np.ndarray, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(rho_A, rho_B) of a matrix on A (x) B, or of each of a stack (..., d_A d_B, d_A d_B),
    with dims = (d_A, d_B) in tensor order; DimMismatch unless d_A d_B is the matrix size."""
    if dims[0] * dims[1] != rho.shape[-1]:
        raise DimMismatch(f"dims {dims} do not multiply to the matrix size {rho.shape[-1]}")
    t = rho.reshape(*rho.shape[:-2], dims[0], dims[1], dims[0], dims[1])
    return np.einsum("...ijkj->...ik", t), np.einsum("...ijil->...jl", t)


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
        if not abs(norm2 - 1.0) <= NORM_TOL:  # NaN fails too
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
