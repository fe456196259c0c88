"""Closed-form single-letter results for the three example channels.

Dephasing trade-off curves are parameterized by mu in [0, 1/2]; symmetric
values map via mu -> 1 - mu.  All rates are bits/qubits/ebits per use.

The curves, `g`, `timeshare_line` and `compare_row` take a float mu or a
whole array of them: a float call is a batch of one and returns floats, an
array call returns a RateTriple (or row) of arrays, each element bit-equal
to the float call at that mu.
"""

from __future__ import annotations

import numpy as np

from .errors import check_range
from .qlinalg import binary_entropy
from .regions import E_MAX_LIMIT, OneShotRegion, RateTriple, halfspaces


def g(p: float, mu):
    """g(p, mu) = 1/2 + 1/2 sqrt(1 - 16 (p/2)(1 - p/2) mu (1 - mu))."""
    check_range("p", p, 0.0, 1.0)
    check_range("mu", mu, 0.0, 0.5)
    # in range the product rounds to at most 1 + 7e-16, so the clamp takes off only rounding
    radicand = 1.0 - 16.0 * (p / 2.0) * (1.0 - p / 2.0) * mu * (1.0 - mu)
    out = 0.5 + 0.5 * np.sqrt(np.maximum(radicand, 0.0))
    return out if isinstance(mu, np.ndarray) else float(out)


def ds_curve(p: float, mu) -> RateTriple:
    """Devetak-Shor CQ-plane trade-off point (1 - H2(mu), H2(mu) - H2(g), 0)."""
    h_mu = binary_entropy(_checked_mu(mu))
    return RateTriple(1.0 - h_mu, h_mu - binary_entropy(g(p, mu)), 0.0)


def cef_curve(p: float, mu, h_mu=None) -> RateTriple:
    """Classically-enhanced father point (1 - H2(mu), H2(mu) - H2(g)/2, H2(g)/2); h_mu = H2(mu)."""
    h_mu = binary_entropy(_checked_mu(mu)) if h_mu is None else h_mu
    h_g = binary_entropy(g(p, mu))
    return RateTriple(1.0 - h_mu, h_mu - 0.5 * h_g, 0.5 * h_g)


def shor_ce_curve(p: float, mu) -> RateTriple:
    """CE-plane trade-off point (1 + H2(mu) - H2(g), 0, H2(mu))."""
    h_mu = binary_entropy(_checked_mu(mu))
    return RateTriple(1.0 + h_mu - binary_entropy(g(p, mu)), 0.0, h_mu)


def ds_surface(p: float, mu: float, e: float) -> RateTriple:
    """Point (C_CQ(mu), Q_CQ(mu) + e, e) of the entanglement-distribution sheet."""
    check_range("e", e, 0.0, E_MAX_LIMIT)  # every coordinate stays finite
    c, q, _ = ds_curve(p, mu)
    return RateTriple(c, q + e, e)


def shor_surface(p: float, mu: float, e: float) -> RateTriple:
    """Point (C_CE(mu) - 2e, e, E_CE(mu) - e) of the super-dense-coding sheet."""
    check_range("e", e, 0.0, E_MAX_LIMIT)  # every coordinate stays finite
    c, _, e_ce = shor_ce_curve(p, mu)
    return RateTriple(c - 2.0 * e, e, e_ce - e)


def surface_intersection_e(p: float, mu: float) -> float:
    """E-coordinate H2(g)/2 at which the two sheets meet on the CEF curve.

    ds_surface(p, mu, H2(g)/2) and shor_surface(p, mu, H2(mu) - H2(g)/2)
    land on the same point, cef_curve(p, mu); its E-coordinate is H2(g)/2
    under either parameterization.
    """
    return 0.5 * binary_entropy(g(p, _checked_mu(mu)))


def solid_plane_bound(p: float) -> float:
    """Sum-rate cap C + 2Q <= 2 - H2(g(p, 1/2))."""
    return 2.0 - binary_entropy(g(p, 0.5))


def erasure_region(epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """The three capacity-region halfspaces of the erasure channel, as (A, b)
    with A @ (c, q, e) <= b."""
    check_range("epsilon", epsilon, 0.0, 1.0)
    if epsilon == 1.0:  # the all-zero region, shaped as the completely depolarizing bounds
        return depolarizing_region()
    a = [[1.0, 2.0, 0.0],
         [(1.0 - 2.0 * epsilon) / (1.0 - epsilon), 1.0, -1.0],
         [1.0, 1.0 + epsilon, -(1.0 - epsilon)]]
    return np.array(a), np.array([2.0 * (1.0 - epsilon), 1.0 - 2.0 * epsilon, 1.0 - epsilon])


def depolarizing_region() -> tuple[np.ndarray, np.ndarray]:
    """C + 2Q <= 0, Q <= E, C + Q <= E: the last three rows of the one-shot
    region whose constants are all 0, as fresh (A, b) arrays."""
    a, b = halfspaces(OneShotRegion(0.0, 0.0, 0.0), 0.0)
    return a[3:6], b[3:6]


def erasure_table(epsilon: float) -> dict[str, RateTriple]:
    """The four named optimal rate triples of the erasure channel.

    For epsilon > 1/2 the unassisted quantum rate is clamped to 0 and the
    returned LSD entry carries the clamp.
    """
    check_range("epsilon", epsilon, 0.0, 1.0)
    return {
        "EAC": RateTriple(2.0 * (1.0 - epsilon), 0.0, 1.0),
        "LSD": RateTriple(0.0, max(1.0 - 2.0 * epsilon, 0.0), 0.0),
        "HSW": RateTriple(1.0 - epsilon, 0.0, 0.0),
        "EAQ": RateTriple(0.0, 1.0 - epsilon, epsilon),
    }


def erasure_entropics(epsilon: float, mu: float) -> OneShotRegion:
    """One-shot region constants of the mu-ensemble through the erasure channel."""
    check_range("epsilon", epsilon, 0.0, 1.0)
    h_mu = binary_entropy(_checked_mu(mu))
    return OneShotRegion(i_axb=(1.0 + h_mu) * (1.0 - epsilon),
                         i_xb=(1.0 - epsilon) * (1.0 - h_mu),
                         i_coh=(1.0 - 2.0 * epsilon) * h_mu)


def erasure_cef_curve(epsilon: float, mu, h_mu=None) -> RateTriple:
    """CEF rate triple (I(X;B), I(A;B|X)/2, I(A;E|X)/2) of the mu-ensemble
    through the erasure channel; h_mu = H2(mu), computed here if None."""
    check_range("epsilon", epsilon, 0.0, 1.0)
    h_mu = binary_entropy(_checked_mu(mu)) if h_mu is None else h_mu
    return RateTriple((1.0 - epsilon) * (1.0 - h_mu), (1.0 - epsilon) * h_mu, epsilon * h_mu)


def eac_erasure_mutual_info(p_spec: float, epsilon: float) -> float:
    """Mutual information 2 (1 - eps) H2(p) of the spectral-parameter input."""
    check_range("p_spec", p_spec, 0.0, 1.0)
    check_range("epsilon", epsilon, 0.0, 1.0)
    return 2.0 * (1.0 - epsilon) * binary_entropy(p_spec)


def timeshare_line(a: RateTriple, b: RateTriple, lam) -> RateTriple:
    """Convex combination lam * a + (1 - lam) * b."""
    check_range("lambda", lam, 0.0, 1.0)
    return a.scaled(lam) + b.scaled(1.0 - lam)


def compare_row(curve, param: float, mu) -> tuple:
    """The `compare` row of `curve` (cef_curve or erasure_cef_curve) at (param, mu):
    C, Q, E of the CEF point; Q, E of time-sharing with the same C between the
    curve's EAQ end (mu = 1/2, C = 0) and HSW end (mu = 0, Q = E = 0), a fraction
    lam = H2(mu) of EAQ; and CEF's advantage dQ, dE.  An array mu gives the
    seven columns, from three curve calls and one H2 over mu whatever its size."""
    lam = binary_entropy(_checked_mu(mu))
    c, q, e = curve(param, mu, lam)
    _, q_ts, e_ts = timeshare_line(curve(param, 0.5), curve(param, 0.0), lam)
    return c, q, e, q_ts, e_ts, q - q_ts, e_ts - e


def cef_vs_timeshare(p: float, mu: float) -> tuple[float, float]:
    """(dQ, dE) advantage of the CEF curve over HSW/EAQ time-sharing (dephasing)."""
    return compare_row(cef_curve, p, mu)[-2:]


def erasure_cef_vs_timeshare(epsilon: float, mu: float) -> tuple[float, float]:
    """(dQ, dE) for the erasure channel; identically zero (time-sharing optimal)."""
    return compare_row(erasure_cef_curve, epsilon, mu)[-2:]


# The CEF curve of each channel kind that `compare` supports, by its parameter field.
CEF_CURVES = {"dephasing": (cef_curve, "p"), "erasure": (erasure_cef_curve, "epsilon")}


def _checked_mu(mu):
    return check_range("mu", mu, 0.0, 0.5)
