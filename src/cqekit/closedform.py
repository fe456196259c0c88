"""Closed-form single-letter results for the three example channels.

Dephasing trade-off curves are parameterized by mu in [0, 1/2]; symmetric
values map via mu -> 1 - mu.  All rates are bits/qubits/ebits per use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfRange, check_range
from .qlinalg import binary_entropy
from .regions import RateTriple

RADICAND_CLAMP = -1e-12


@dataclass(frozen=True)
class Halfspace:
    """Inequality c_coef*C + q_coef*Q + e_coef*E <= const."""

    c_coef: float
    q_coef: float
    e_coef: float
    const: float

    def slack(self, t: RateTriple) -> float:
        return self.const - (self.c_coef * t.c + self.q_coef * t.q + self.e_coef * t.e)

    def contains(self, t: RateTriple, tol: float = 1e-12) -> bool:
        return self.slack(t) >= -tol


def g(p: float, mu: float) -> float:
    """g(p, mu) = 1/2 + 1/2 sqrt(1 - 16 (p/2)(1 - p/2) mu (1 - mu))."""
    check_range("p", p, 0.0, 1.0)
    check_range("mu", mu, 0.0, 0.5)
    radicand = 1.0 - 16.0 * (p / 2.0) * (1.0 - p / 2.0) * mu * (1.0 - mu)
    if radicand < RADICAND_CLAMP:
        raise OutOfRange(f"radicand {radicand} below clamp threshold")
    return 0.5 + 0.5 * math.sqrt(max(radicand, 0.0))


def ds_curve(p: float, mu: float) -> RateTriple:
    """Devetak-Shor CQ-plane trade-off point (1 - H2(mu), H2(mu) - H2(g), 0)."""
    h_mu = binary_entropy(_checked_mu(mu))
    return RateTriple(1.0 - h_mu, h_mu - binary_entropy(g(p, mu)), 0.0)


def cef_curve(p: float, mu: float) -> RateTriple:
    """Classically-enhanced father point (1 - H2(mu), H2(mu) - H2(g)/2, H2(g)/2)."""
    h_mu = binary_entropy(_checked_mu(mu))
    h_g = binary_entropy(g(p, mu))
    return RateTriple(1.0 - h_mu, h_mu - 0.5 * h_g, 0.5 * h_g)


def shor_ce_curve(p: float, mu: float) -> RateTriple:
    """CE-plane trade-off point (1 + H2(mu) - H2(g), 0, H2(mu))."""
    h_mu = binary_entropy(_checked_mu(mu))
    return RateTriple(1.0 + h_mu - binary_entropy(g(p, mu)), 0.0, h_mu)


def ds_surface(p: float, mu: float, e: float) -> RateTriple:
    """Point (C_CQ(mu), Q_CQ(mu) + e, e) of the entanglement-distribution sheet."""
    check_range("e", e, 0.0, math.inf)
    base = ds_curve(p, mu)
    return RateTriple(base.c, base.q + e, e)


def shor_surface(p: float, mu: float, e: float) -> RateTriple:
    """Point (C_CE(mu) - 2e, e, E_CE(mu) - e) of the super-dense-coding sheet."""
    check_range("e", e, 0.0, math.inf)
    base = shor_ce_curve(p, mu)
    return RateTriple(base.c - 2.0 * e, e, base.e - e)


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


def erasure_region(epsilon: float) -> tuple[Halfspace, Halfspace, Halfspace]:
    """The three capacity-region halfspaces of the erasure channel."""
    check_range("epsilon", epsilon, 0.0, 1.0)
    if epsilon == 1.0:
        # Degenerate all-zero region (same shape as the completely
        # depolarizing bounds).
        return depolarizing_region()
    return (
        Halfspace(1.0, 2.0, 0.0, 2.0 * (1.0 - epsilon)),
        Halfspace((1.0 - 2.0 * epsilon) / (1.0 - epsilon), 1.0, -1.0, 1.0 - 2.0 * epsilon),
        Halfspace(1.0, 1.0 + epsilon, -(1.0 - epsilon), 1.0 - epsilon),
    )


def depolarizing_region() -> tuple[Halfspace, Halfspace, Halfspace]:
    """C + 2Q <= 0, Q <= E, C + Q <= E."""
    return (
        Halfspace(1.0, 2.0, 0.0, 0.0),
        Halfspace(0.0, 1.0, -1.0, 0.0),
        Halfspace(1.0, 1.0, -1.0, 0.0),
    )


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


@dataclass(frozen=True)
class ErasureEntropics:
    """Closed-form entropic quantities of the mu-ensemble through erasure."""

    i_xb: float
    i_coh: float
    half_i_ab_x: float
    half_i_ae_x: float
    i_axb: float


def erasure_entropics(epsilon: float, mu: float) -> ErasureEntropics:
    check_range("epsilon", epsilon, 0.0, 1.0)
    h_mu = binary_entropy(_checked_mu(mu))
    return ErasureEntropics(
        i_xb=(1.0 - epsilon) * (1.0 - h_mu),
        i_coh=(1.0 - 2.0 * epsilon) * h_mu,
        half_i_ab_x=(1.0 - epsilon) * h_mu,
        half_i_ae_x=epsilon * h_mu,
        i_axb=(1.0 + h_mu) * (1.0 - epsilon),
    )


def erasure_cef_curve(epsilon: float, mu: float) -> RateTriple:
    """CEF rate triple of the mu-ensemble through the erasure channel."""
    ent = erasure_entropics(epsilon, mu)
    return RateTriple(ent.i_xb, ent.half_i_ab_x, ent.half_i_ae_x)


def eac_erasure_mutual_info(p_spec: float, epsilon: float) -> float:
    """Mutual information 2 (1 - eps) H2(p) of the spectral-parameter input."""
    check_range("p_spec", p_spec, 0.0, 1.0)
    check_range("epsilon", epsilon, 0.0, 1.0)
    return 2.0 * (1.0 - epsilon) * binary_entropy(p_spec)


def timeshare_line(a: RateTriple, b: RateTriple, lam: float) -> RateTriple:
    """Convex combination lam * a + (1 - lam) * b."""
    check_range("lambda", lam, 0.0, 1.0)
    return a.scaled(lam) + b.scaled(1.0 - lam)


def cef_vs_timeshare(p: float, mu: float) -> tuple[float, float]:
    """(dQ, dE) advantage of the CEF curve over HSW/EAQ time-sharing (dephasing).

    The time-share fraction is chosen so the classical rates match; since the
    dephasing HSW point is (1, 0, 0), lambda = H2(mu).
    """
    lam = binary_entropy(_checked_mu(mu))
    cef = cef_curve(p, mu)
    eaq = cef_curve(p, 0.5)  # C component is 0 at mu = 1/2
    dq = cef.q - lam * eaq.q
    de = lam * eaq.e - cef.e
    return dq, de


def erasure_cef_vs_timeshare(epsilon: float, mu: float) -> tuple[float, float]:
    """(dQ, dE) for the erasure channel; identically zero (time-sharing optimal)."""
    lam = binary_entropy(_checked_mu(mu))
    cef = erasure_cef_curve(epsilon, mu)
    eaq = erasure_table(epsilon)["EAQ"]
    dq = cef.q - lam * eaq.q
    de = lam * eaq.e - cef.e
    return dq, de


def _checked_mu(mu: float) -> float:
    return check_range("mu", mu, 0.0, 0.5)
