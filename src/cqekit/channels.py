"""Channel models as Kraus sets and isometric extensions A' -> B (x) E.

Built-in constructors cover the qubit dephasing channel, the quantum
erasure channel, the completely depolarizing channel and the identity, each
as a Kraus set; every isometry is the lift of a Kraus set by
`isometric_extension`.  `channel_from_spec` is the one builder from a spec
object, whose kinds and fields are the table `CHANNEL_KINDS`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimMismatch, NotTracePreserving, OutOfRange, SpecFormatError
from .errors import check_complex, check_int, check_real

TP_TOL = 1e-9
MAX_DIM = 16  # largest built-in channel dimension: the depolarizing Kraus set is then 1 MB

I2 = np.eye(2, dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def tp_deviation(kraus: Sequence[np.ndarray]) -> float:
    """Max entrywise deviation of sum K^dag K from the identity."""
    in_dim = kraus[0].shape[1]
    acc = sum(k.conj().T @ k for k in kraus)
    return float(np.max(np.abs(acc - np.eye(in_dim))))


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map given by Kraus operators of one shape (out_dim, in_dim)."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len({k.shape for k in self.kraus}) != 1 or self.kraus[0].ndim != 2:
            raise DimMismatch(f"Kraus operators of shapes {[k.shape for k in self.kraus]}")
        dev = tp_deviation(self.kraus)
        if not dev <= TP_TOL:  # NaN fails too
            raise NotTracePreserving(f"sum K^dag K deviates from I by {dev}")

    out_dim = property(lambda self: self.kraus[0].shape[0])
    in_dim = property(lambda self: self.kraus[0].shape[1])


@dataclass(frozen=True, eq=False)
class IsometricExtension:
    """Isometry V: A' -> B (x) E with the B factor major in the output ordering."""

    matrix: np.ndarray
    env_dim: int

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] % self.env_dim:
            raise DimMismatch(f"isometry shape {self.matrix.shape} is not (d_B*{self.env_dim}, d)")
        dev = np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(self.in_dim)))
        if not dev <= TP_TOL:  # NaN fails too
            raise NotTracePreserving(f"V^dag V deviates from I by {dev}")

    out_dim = property(lambda self: self.matrix.shape[0] // self.env_dim)
    in_dim = property(lambda self: self.matrix.shape[1])


def isometric_extension(ch: KrausChannel) -> IsometricExtension:
    """Lift a Kraus set to V|psi> = sum_k (K_k|psi>)_B (x) |k>_E."""
    v = np.stack(ch.kraus, axis=1).reshape(-1, ch.in_dim) + 0j  # + 0j: complex, no -0.0
    return IsometricExtension(v, len(ch.kraus))


def apply_isometry(v: IsometricExtension, amps: np.ndarray) -> np.ndarray:
    """Send the last axis (A') of the amplitude array `amps` through the isometry:
    amps @ V^T, its output axis split into B, E, so (..., d_A') becomes (..., d_B, d_E)."""
    if amps.shape[-1] != v.in_dim:
        raise DimMismatch(f"last axis dimension {amps.shape[-1]} != isometry input {v.in_dim}")
    return (amps @ v.matrix.T).reshape(*amps.shape[:-1], v.out_dim, v.env_dim)


def identity_channel(d: int = 2) -> KrausChannel:
    check_int("dimension", d, 1, MAX_DIM)
    return KrausChannel((np.eye(d, dtype=complex),))


def dephasing(p: float, d: int = 2) -> KrausChannel:
    """Qubit dephasing with parameter p: rho -> (1 - p/2) rho + (p/2) Z rho Z.

    The phase flip is applied with probability p/2, so p = 1 is the completely
    dephasing channel.  This is the parameterization under which the
    environment entropy of the standard two-letter input family equals
    H2(g(p, mu)), matching the closed-form trade-off curves.  The dimension
    `d` may only be 2.
    """
    check_real("dephasing parameter", p, 0.0, 1.0)
    check_int("dimension", d, 2, 2)
    q = p / 2.0
    return KrausChannel((np.sqrt(1.0 - q) * I2, np.sqrt(q) * PAULI_Z))


def depolarizing_complete(d: int = 2) -> KrausChannel:
    """Channel with output I/d for every input (Weyl-operator Kraus set)."""
    check_int("dimension", d, 2, MAX_DIM)
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    kraus = tuple(
        (np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)) / d
        for a in range(d)
        for b in range(d)
    )
    return KrausChannel(kraus)


def erasure_kraus(epsilon: float, d: int = 2) -> KrausChannel:
    """Kraus form of the erasure channel; B has dimension d+1 (flag |e> = index d)."""
    check_real("erasure probability", epsilon, 0.0, 1.0)
    check_int("dimension", d, 1, MAX_DIM)
    embed = np.zeros((d + 1, d), dtype=complex)
    embed[:d, :] = np.eye(d)
    kraus = [np.sqrt(1.0 - epsilon) * embed]
    for i in range(d):
        k = np.zeros((d + 1, d), dtype=complex)
        k[d, i] = np.sqrt(epsilon)
        kraus.append(k)
    return KrausChannel(tuple(kraus))


def tensor_product(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Parallel composition; Kraus set is all Kronecker pairs."""
    kraus = tuple(np.kron(ka, kb) for ka in a.kraus for kb in b.kraus)
    return KrausChannel(kraus)


def tensor_power(ch: KrausChannel, k: int) -> KrausChannel:
    """k-fold parallel copy; intended for small k (explicit Kronecker products)."""
    if k < 1:
        raise OutOfRange(f"tensor power {k} must be positive")
    out = ch
    for _ in range(k - 1):
        out = tensor_product(out, ch)
    return out


def _complex_matrix(rows) -> np.ndarray:
    """A matrix given as rows of [re, im] entry pairs; each side in [1, MAX_DIM]."""
    try:
        arr = np.array([[check_complex("Kraus entry", z) for z in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed complex matrix: {exc}") from exc
    for side in arr.shape:
        check_int("Kraus operator dimension", side, 1, MAX_DIM)
    return arr


def kraus_from_ops(ops) -> KrausChannel:
    """Channel of a nonempty list of Kraus matrices in `_complex_matrix` form;
    a set that is not trace preserving raises SpecFormatError."""
    if not isinstance(ops, list) or not ops:
        raise SpecFormatError(f"kraus spec requires a nonempty 'ops' list, got {ops!r:.40}")
    kraus = tuple(_complex_matrix(m) for m in ops)
    try:
        return KrausChannel(kraus)
    except NotTracePreserving as exc:
        raise SpecFormatError(f"Kraus set is not trace preserving: {exc}") from exc


# Every channel kind of a spec: its constructor and its fields, which are the
# constructor's keywords in `kind:a:b` order.  "d" may be left out (it is 2);
# every other field is required.
CHANNEL_KINDS = {
    "dephasing": (dephasing, ("p", "d")),
    "erasure": (erasure_kraus, ("epsilon", "d")),
    "depolarizing": (depolarizing_complete, ("d",)),
    "identity": (identity_channel, ("d",)),
    "kraus": (kraus_from_ops, ("ops",)),
}


def channel_kind(kind) -> tuple:
    """The (constructor, fields) entry of CHANNEL_KINDS; SpecFormatError if none."""
    if not isinstance(kind, str) or kind not in CHANNEL_KINDS:
        raise SpecFormatError(f"unknown channel kind {kind!r}; known: {', '.join(CHANNEL_KINDS)}")
    return CHANNEL_KINDS[kind]


def channel_from_spec(spec: dict) -> KrausChannel:
    """Build a channel from a spec object {"kind": KIND, FIELD: value, ...}.

    The fields of each kind are in CHANNEL_KINDS; "ops" holds matrices of
    [re, im] entry pairs.  A missing, unknown or wrongly typed field raises
    SpecFormatError and an out-of-range value raises OutOfRange.
    """
    if not isinstance(spec, dict):
        raise SpecFormatError("channel spec must be an object with a 'kind' field")
    build, fields = channel_kind(spec.get("kind"))
    values = {key: value for key, value in spec.items() if key != "kind"}
    if set(values) - set(fields) or set(fields) - {"d"} - set(values):
        raise SpecFormatError(f"{spec['kind']} spec takes the fields {fields} (d may be left "
                              f"out), got {list(values)}")
    return build(**values)


def builtin_isometry(kind: str, param: float | None = None, d: int = 2) -> IsometricExtension:
    """Isometric extension of the channel `kind` of dimension `d` whose other
    field, if it has one (p of dephasing, epsilon of erasure), is `param`.

    For erasure, E index 0 is the no-erasure branch and index 1 + j carries
    input j.
    """
    spec = {"kind": kind, "d": d}
    spec.update(zip([f for f in channel_kind(kind)[1] if f != "d"], [param]))  # p or epsilon
    return isometric_extension(channel_from_spec(spec))


def read_spec(path: str):
    """The JSON value of a channel or ensemble spec file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"invalid JSON in {path}: {exc}") from exc


def load_channel(path: str) -> KrausChannel:
    return channel_from_spec(read_spec(path))
