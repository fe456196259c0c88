"""Channel models as Kraus sets and isometric extensions A' -> B (x) E.

Built-in constructors cover the qubit dephasing channel, the quantum
erasure channel (constructed directly as an isometry on (d+1)-dimensional
B and E spaces), and the completely depolarizing channel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimMismatch, NotTracePreserving, OutOfRange, SpecFormatError, check_range
from .qlinalg import DensityOperator, PureStateVector, partial_trace_mat

TP_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def tp_deviation(kraus: Sequence[np.ndarray]) -> float:
    """Max entrywise deviation of sum K^dag K from the identity."""
    in_dim = kraus[0].shape[1]
    acc = sum(k.conj().T @ k for k in kraus)
    return float(np.max(np.abs(acc - np.eye(in_dim))))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map given by Kraus operators of shape (out_dim, in_dim)."""

    kraus: tuple[np.ndarray, ...]
    in_dim: int
    out_dim: int

    def __post_init__(self):
        for k in self.kraus:
            if k.shape != (self.out_dim, self.in_dim):
                raise DimMismatch(f"Kraus shape {k.shape} != ({self.out_dim}, {self.in_dim})")
        dev = tp_deviation(self.kraus)
        if dev > TP_TOL:
            raise NotTracePreserving(f"sum K^dag K deviates from I by {dev}")


@dataclass(frozen=True, eq=False)
class IsometricExtension:
    """Isometry V: A' -> B (x) E with the B factor major in the output ordering."""

    matrix: np.ndarray
    in_dim: int
    out_dim: int
    env_dim: int

    def __post_init__(self):
        if self.matrix.shape != (self.out_dim * self.env_dim, self.in_dim):
            raise DimMismatch(
                f"isometry shape {self.matrix.shape} != "
                f"({self.out_dim * self.env_dim}, {self.in_dim})"
            )
        dev = np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(self.in_dim)))
        if dev > TP_TOL:
            raise NotTracePreserving(f"V^dag V deviates from I by {dev}")

    def output_mat(self, rho_mat: np.ndarray) -> np.ndarray:
        """Joint B (x) E output matrix V rho V^dag."""
        return self.matrix @ rho_mat @ self.matrix.conj().T

    def channel_output_mat(self, rho_mat: np.ndarray) -> np.ndarray:
        """Bob's output: trace out E of V rho V^dag."""
        return partial_trace_mat(self.output_mat(rho_mat), (self.out_dim, self.env_dim), (0,))

    def complementary_output_mat(self, rho_mat: np.ndarray) -> np.ndarray:
        """Environment output: trace out B of V rho V^dag."""
        return partial_trace_mat(self.output_mat(rho_mat), (self.out_dim, self.env_dim), (1,))


def apply(ch: KrausChannel, rho: DensityOperator) -> DensityOperator:
    """Channel action sum_k K_k rho K_k^dag; output labeled B."""
    if rho.mat.shape[0] != ch.in_dim:
        raise DimMismatch(f"state dimension {rho.mat.shape[0]} != channel input {ch.in_dim}")
    out = sum(k @ rho.mat @ k.conj().T for k in ch.kraus)
    out = (out + out.conj().T) / 2
    return DensityOperator(out, (ch.out_dim,), ("B",))


def isometric_extension(ch: KrausChannel) -> IsometricExtension:
    """Lift a Kraus set to V|psi> = sum_k (K_k|psi>)_B (x) |k>_E."""
    env_dim = len(ch.kraus)
    v = np.zeros((ch.out_dim * env_dim, ch.in_dim), dtype=complex)
    for k_idx, k in enumerate(ch.kraus):
        e = np.zeros((env_dim, 1), dtype=complex)
        e[k_idx, 0] = 1.0
        v += np.kron(k, e)
    return IsometricExtension(v, ch.in_dim, ch.out_dim, env_dim)


def apply_isometry(v: IsometricExtension, phi: PureStateVector) -> PureStateVector:
    """Send the trailing subsystem of `phi` (labeled Ap) through the isometry.

    Output subsystems are relabeled ... (x) B (x) E.
    """
    if phi.dims[-1] != v.in_dim:
        raise DimMismatch(f"last subsystem dimension {phi.dims[-1]} != isometry input {v.in_dim}")
    d_ref = int(np.prod(phi.dims[:-1])) if len(phi.dims) > 1 else 1
    amps = phi.vec.reshape(d_ref, v.in_dim)
    out = (amps @ v.matrix.T).reshape(-1)
    dims = phi.dims[:-1] + (v.out_dim, v.env_dim)
    labels = phi.labels[:-1] + ("B", "E")
    return PureStateVector(out, dims, labels)


def identity_channel(d: int = 2) -> KrausChannel:
    return KrausChannel((np.eye(d, dtype=complex),), d, d)


def dephasing(p: float) -> KrausChannel:
    """Qubit dephasing with parameter p: rho -> (1 - p/2) rho + (p/2) Z rho Z.

    The phase flip is applied with probability p/2, so p = 1 is the completely
    dephasing channel.  This is the parameterization under which the
    environment entropy of the standard two-letter input family equals
    H2(g(p, mu)), matching the closed-form trade-off curves.
    """
    check_range("dephasing parameter", p, 0.0, 1.0)
    q = p / 2.0
    return KrausChannel((np.sqrt(1.0 - q) * I2, np.sqrt(q) * PAULI_Z), 2, 2)


def depolarizing_complete(d: int = 2) -> KrausChannel:
    """Channel with output I/d for every input (Weyl-operator Kraus set)."""
    if d < 2:
        raise OutOfRange(f"dimension {d} must be at least 2")
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    kraus = tuple(
        (np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)) / d
        for a in range(d)
        for b in range(d)
    )
    return KrausChannel(kraus, d, d)


def erasure_kraus(epsilon: float, d: int = 2) -> KrausChannel:
    """Kraus form of the erasure channel; B has dimension d+1 (flag |e> = index d)."""
    check_range("erasure probability", epsilon, 0.0, 1.0)
    embed = np.zeros((d + 1, d), dtype=complex)
    embed[:d, :] = np.eye(d)
    kraus = [np.sqrt(1.0 - epsilon) * embed]
    for i in range(d):
        k = np.zeros((d + 1, d), dtype=complex)
        k[d, i] = np.sqrt(epsilon)
        kraus.append(k)
    return KrausChannel(tuple(kraus), d, d + 1)


def erasure_isometry(epsilon: float, d: int = 2) -> IsometricExtension:
    """Direct construction V|psi> = sqrt(1-eps)|psi>_B|e>_E + sqrt(eps)|e>_B|psi>_E."""
    check_range("erasure probability", epsilon, 0.0, 1.0)
    de = d + 1
    v = np.zeros((de * de, d), dtype=complex)
    for j in range(d):
        # |j>_B |e>_E
        v[j * de + d, j] += np.sqrt(1.0 - epsilon)
        # |e>_B |j>_E
        v[d * de + j, j] += np.sqrt(epsilon)
    return IsometricExtension(v, d, de, de)


def tensor_product(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Parallel composition; Kraus set is all Kronecker pairs."""
    kraus = tuple(np.kron(ka, kb) for ka in a.kraus for kb in b.kraus)
    return KrausChannel(kraus, a.in_dim * b.in_dim, a.out_dim * b.out_dim)


def tensor_power(ch: KrausChannel, k: int) -> KrausChannel:
    """k-fold parallel copy; intended for small k (explicit Kronecker products)."""
    if k < 1:
        raise OutOfRange(f"tensor power {k} must be positive")
    out = ch
    for _ in range(k - 1):
        out = tensor_product(out, ch)
    return out


def builtin_isometry(kind: str, param: float | None = None, d: int = 2) -> IsometricExtension:
    """Isometric extension of a built-in channel by name.

    The erasure channel uses its natural (d+1)-dimensional B/E construction;
    all others lift their Kraus sets.
    """
    if kind == "dephasing":
        return isometric_extension(dephasing(param))
    if kind == "erasure":
        return erasure_isometry(param, d)
    if kind == "depolarizing":
        return isometric_extension(depolarizing_complete(d))
    if kind == "identity":
        return isometric_extension(identity_channel(d))
    raise OutOfRange(f"unknown builtin channel {kind!r}")


def _complex_matrix(rows) -> np.ndarray:
    try:
        arr = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed complex matrix: {exc}") from exc
    return arr


def channel_from_spec(spec: dict) -> KrausChannel:
    """Build a channel from a parsed spec object; rejects non-TP Kraus sets.

    Schema: {"kind": "dephasing"|"erasure"|"depolarizing"|"kraus",
             "p"/"epsilon": number, "d": int, "ops": [matrix, ...]}
    where matrix rows hold [re, im] entry pairs.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecFormatError("channel spec must be an object with a 'kind' field")
    kind = spec["kind"]
    d = int(spec.get("d", 2))
    if kind == "dephasing":
        return dephasing(float(spec["p"]))
    if kind == "erasure":
        return erasure_kraus(float(spec["epsilon"]), d)
    if kind == "depolarizing":
        return depolarizing_complete(d)
    if kind == "kraus":
        ops = spec.get("ops")
        if not ops:
            raise SpecFormatError("kraus spec requires a nonempty 'ops' list")
        kraus = tuple(_complex_matrix(m) for m in ops)
        out_dim, in_dim = kraus[0].shape
        try:
            return KrausChannel(kraus, in_dim, out_dim)
        except NotTracePreserving as exc:
            raise SpecFormatError(f"Kraus set is not trace preserving: {exc}") from exc
    raise SpecFormatError(f"unknown channel kind {kind!r}")


def load_channel(path: str) -> KrausChannel:
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"invalid JSON in {path}: {exc}") from exc
    return channel_from_spec(spec)
