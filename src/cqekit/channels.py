"""Channel models as isometric extensions V: A' -> B (x) E.

A channel is its isometry.  A Kraus set is an input format, lifted once by
`isometric_extension`, and the isometry's construction is the one
trace-preservation check.  Built-in constructors cover the qubit dephasing
channel, the quantum erasure channel, the completely depolarizing channel and
the identity.  `channel_from_spec` is the one builder from a spec object,
whose kinds and fields are the table `CHANNEL_KINDS`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import DimMismatch, NotTracePreserving, OutOfRange, SpecFormatError
from .errors import check_complex, check_int, check_real

TP_TOL = 2e-11  # on the entries of V^dag V - I (= sum K^dag K - I): see entropics.STATE_NORM_TOL
MAX_DIM = 16  # largest built-in channel dimension: the depolarizing isometry is then 1 MB

I2 = np.eye(2, dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class IsometricExtension:
    """Isometry V: A' -> B (x) E with the B factor major in the output ordering; its E
    slices are the Kraus operators, so V^dag V = sum K^dag K."""

    matrix: np.ndarray
    env_dim: int

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[0] % self.env_dim:
            raise DimMismatch(f"isometry shape {self.matrix.shape} is not (d_B*{self.env_dim}, d)")
        dev = np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(self.in_dim)))
        if not dev <= TP_TOL:  # NaN fails too
            raise NotTracePreserving(f"sum K^dag K deviates from I by {dev}")

    out_dim = property(lambda self: self.matrix.shape[0] // self.env_dim)
    in_dim = property(lambda self: self.matrix.shape[1])


def isometric_extension(kraus: Sequence[np.ndarray]) -> IsometricExtension:
    """Lift Kraus operators of one shape (d_B, d_A') to V|psi> = sum_k (K_k|psi>)_B (x) |k>_E."""
    if len({k.shape for k in kraus}) != 1 or kraus[0].ndim != 2:
        raise DimMismatch(f"Kraus operators of shapes {[k.shape for k in kraus]}")
    v = np.stack(kraus, axis=1).reshape(-1, kraus[0].shape[1]) + 0j  # + 0j: complex, no -0.0
    return IsometricExtension(v, len(kraus))


def apply_isometry(v: IsometricExtension, amps: np.ndarray) -> np.ndarray:
    """Send the last axis (A') of the amplitude array `amps` through the isometry:
    amps @ V^T, its output axis split into B, E, so (..., d_A') becomes (..., d_B, d_E)."""
    if amps.shape[-1] != v.in_dim:
        raise DimMismatch(f"last axis dimension {amps.shape[-1]} != isometry input {v.in_dim}")
    return (amps @ v.matrix.T).reshape(*amps.shape[:-1], v.out_dim, v.env_dim)


def identity_channel(d: int = 2) -> IsometricExtension:
    check_int("dimension", d, 1, MAX_DIM)
    return isometric_extension((np.eye(d, dtype=complex),))


def dephasing(p: float, d: int = 2) -> IsometricExtension:
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
    return isometric_extension((np.sqrt(1.0 - q) * I2, np.sqrt(q) * PAULI_Z))


def depolarizing_complete(d: int = 2) -> IsometricExtension:
    """Channel with output I/d for every input (Weyl-operator Kraus set)."""
    check_int("dimension", d, 2, MAX_DIM)
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    return isometric_extension([np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
                                / d for a in range(d) for b in range(d)])


def erasure_kraus(epsilon: float, d: int = 2) -> IsometricExtension:
    """The erasure channel, lifted from its Kraus form; B has dimension d+1 (flag |e> =
    index d), E index 0 is the no-erasure branch and index 1 + j carries input j."""
    check_real("erasure probability", epsilon, 0.0, 1.0)
    check_int("dimension", d, 1, MAX_DIM)
    flags = np.zeros((d, d + 1, d), dtype=complex)  # flags[j] = sqrt(epsilon) |e><j|
    flags[np.arange(d), d, np.arange(d)] = np.sqrt(epsilon)
    return isometric_extension([np.sqrt(1.0 - epsilon) * np.eye(d + 1, d, dtype=complex), *flags])


def tensor_product(a: IsometricExtension, b: IsometricExtension) -> IsometricExtension:
    """Parallel composition: the lift of the Kronecker pairs of the Kraus sets (the E slices
    of V_a and V_b), a-major, so E index k_a * b.env_dim + k_b is kron(K_a[k_a], K_b[k_b])."""
    ka, kb = (v.matrix.reshape(v.out_dim, v.env_dim, v.in_dim).transpose(1, 0, 2) for v in (a, b))
    return isometric_extension([np.kron(x, y) for x in ka for y in kb])


def tensor_power(ch: IsometricExtension, k: int) -> IsometricExtension:
    """k-fold parallel copy; intended for small k (explicit Kronecker products)."""
    if k < 1:
        raise OutOfRange(f"tensor power {k} must be positive")
    return reduce(tensor_product, [ch] * k)


def _complex_matrix(rows) -> np.ndarray:
    """A matrix given as rows of [re, im] entry pairs; each side in [1, MAX_DIM]."""
    try:
        arr = np.array([[check_complex("Kraus entry", z) for z in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(f"malformed complex matrix: {exc}") from exc
    for side in arr.shape:
        check_int("Kraus operator dimension", side, 1, MAX_DIM)
    return arr


def kraus_from_ops(ops) -> IsometricExtension:
    """Channel of a nonempty list of at most MAX_DIM**2 Kraus matrices in `_complex_matrix`
    form (a channel's Choi rank is at most d_in * d_out, so every admitted channel has
    a Kraus set that small); a set that is not trace preserving raises SpecFormatError."""
    if not isinstance(ops, list) or not ops:
        raise SpecFormatError(f"kraus spec requires a nonempty 'ops' list, got {ops!r:.40}")
    check_int("Kraus operator count", len(ops), 1, MAX_DIM**2)
    try:
        return isometric_extension([_complex_matrix(m) for m in ops])
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


def channel_from_spec(spec: dict) -> IsometricExtension:
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
        raise SpecFormatError(f"{spec['kind']} spec takes the fields {fields}"
                              f"{' (d may be left out)' * ('d' in fields)}, got {list(values)}")
    return build(**values)


def builtin_isometry(kind: str, param: float | None = None, d: int = 2) -> IsometricExtension:
    """Isometric extension of the channel `kind` of dimension `d` whose other
    field, if it has one (p of dephasing, epsilon of erasure), is `param`."""
    spec = {"kind": kind, "d": d}
    spec.update(zip([f for f in channel_kind(kind)[1] if f != "d"], [param]))  # p or epsilon
    return channel_from_spec(spec)


def read_spec(path: str):
    """The JSON value of a channel or ensemble spec file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"invalid JSON in {path}: {exc}") from exc


def load_channel(path: str) -> IsometricExtension:
    return channel_from_spec(read_spec(path))
