"""One-shot rate polytopes, vertex enumeration, and unit-resource arithmetic.

A one-shot region is the set of rate triples (C, Q, E) with C, Q, E >= 0,
C + 2Q <= i_axb, Q <= i_coh + E, and C + Q <= i_xb + i_coh + E.  The region
is unbounded in +E, so vertex enumeration takes an explicit e_max cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .entropics import CQEJointState
from .errors import FLOAT_MAX, EmptyInput, InvalidRegion, NegativeRate, check_range

ARITH_TOL = 1e-12
ENTROPIC_TOL = 1e-9
VERTEX_FEAS_TOL = 1e-9
VERTEX_DEDUP_TOL = 1e-7


@dataclass(frozen=True)
class RateTriple:
    """(classical bits, qubits, ebits consumed) per channel use."""

    c: float
    q: float
    e: float

    def __add__(self, other: "RateTriple") -> "RateTriple":
        return RateTriple(self.c + other.c, self.q + other.q, self.e + other.e)

    def scaled(self, k: float) -> "RateTriple":
        return RateTriple(k * self.c, k * self.q, k * self.e)

    def as_array(self) -> np.ndarray:
        return np.array([self.c, self.q, self.e])


@dataclass(frozen=True)
class UnitProtocol:
    """A noiseless interconversion with a fixed per-unit rate delta."""

    kind: str
    delta: RateTriple


TELEPORTATION = UnitProtocol("TP", RateTriple(-2.0, 1.0, 1.0))
SUPER_DENSE = UnitProtocol("SD", RateTriple(2.0, -1.0, 1.0))
ENT_DISTRIBUTION = UnitProtocol("ED", RateTriple(0.0, -1.0, -1.0))

UNIT_PROTOCOLS = {u.kind: u for u in (TELEPORTATION, SUPER_DENSE, ENT_DISTRIBUTION)}


@dataclass(frozen=True)
class OneShotRegion:
    """Entropic constants of the three rate bounds."""

    i_axb: float
    i_xb: float
    i_coh: float

    def __post_init__(self):
        if self.i_xb < -ENTROPIC_TOL:
            raise InvalidRegion(f"i_xb = {self.i_xb} is negative")
        if self.i_axb < self.i_xb - ENTROPIC_TOL:
            raise InvalidRegion(f"i_axb = {self.i_axb} below i_xb = {self.i_xb}")
        if self.i_axb < self.i_xb + self.i_coh - ENTROPIC_TOL:
            raise InvalidRegion("i_axb below i_xb + i_coh beyond tolerance")


def region_from_state(sigma: CQEJointState) -> OneShotRegion:
    prof = sigma.profile
    return OneShotRegion(i_axb=prof.i_axb, i_xb=prof.i_xb, i_coh=prof.i_coh)


def contains(r: OneShotRegion, t: RateTriple, tol: float = ARITH_TOL) -> bool:
    return (
        t.c >= -tol
        and t.q >= -tol
        and t.e >= -tol
        and t.c + 2 * t.q <= r.i_axb + tol
        and t.q <= r.i_coh + t.e + tol
        and t.c + t.q <= r.i_xb + r.i_coh + t.e + tol
    )


def halfspaces(r: OneShotRegion, e_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounding planes as (A, b) with A @ (c, q, e) <= b."""
    a = np.array(
        [
            [-1.0, 0.0, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
            [1.0, 2.0, 0.0],
            [0.0, 1.0, -1.0],
            [1.0, 1.0, -1.0],
            [0.0, 0.0, 1.0],
        ]
    )
    b = np.array([0.0, 0.0, 0.0, r.i_axb, r.i_coh, r.i_xb + r.i_coh, e_max])
    return a, b


def corner_points(r: OneShotRegion, e_max: float) -> list[RateTriple]:
    """Vertices of the capped polytope, sorted lexicographically.

    Enumerates all 3-subsets of the bounding planes, solves each 3x3 system,
    keeps feasible solutions, and deduplicates.  Singular triples are skipped.
    """
    check_range("e_max", e_max, 0.0, FLOAT_MAX)
    a, b = halfspaces(r, e_max)
    found: list[np.ndarray] = []
    for idx in combinations(range(len(b)), 3):
        sub_a = a[list(idx)]
        sub_b = b[list(idx)]
        if abs(np.linalg.det(sub_a)) < 1e-12:
            continue
        x = np.linalg.solve(sub_a, sub_b)
        if np.all(a @ x <= b + VERTEX_FEAS_TOL):
            if not any(np.max(np.abs(x - y)) <= VERTEX_DEDUP_TOL for y in found):
                found.append(x)
    found.sort(key=tuple)
    return [RateTriple(*x) for x in found]


def cef_point(sigma: CQEJointState) -> RateTriple:
    """Rate triple of the classically-enhanced father protocol."""
    prof = sigma.profile
    return RateTriple(prof.i_xb, 0.5 * prof.i_ab_given_x, 0.5 * prof.i_ae_given_x)


def apply_unit(t: RateTriple, u: UnitProtocol, rate: float) -> RateTriple:
    """t + rate * u.delta; negative intermediate components are allowed.

    Rates within roundoff of zero are clamped; genuinely negative rates raise.
    """
    if rate < -ARITH_TOL:
        raise NegativeRate(f"unit-protocol rate {rate} is negative")
    return t + u.delta.scaled(max(rate, 0.0))


def derive_children(sigma: CQEJointState) -> dict[str, RateTriple]:
    """All corner protocols reachable from CEF via unit-resource arithmetic."""
    prof = sigma.profile
    cef = cef_point(sigma)
    ceq = apply_unit(cef, ENT_DISTRIBUTION, 0.5 * prof.i_ae_given_x)
    eac = apply_unit(cef, SUPER_DENSE, 0.5 * prof.i_ab_given_x)
    # SD rate is i_coh / 2, which can be negative (e.g. completely depolarizing
    # input ensembles); the signed arithmetic is applied directly in that case.
    signed_sd = SUPER_DENSE.delta.scaled(0.5 * prof.i_coh)
    cef_sd_ed = apply_unit(cef, ENT_DISTRIBUTION, 0.5 * prof.h_a_given_x) + signed_sd
    cef_tp = apply_unit(cef, TELEPORTATION, 0.5 * prof.i_xb)
    lsd = RateTriple(0.0, ceq.q, ceq.e)
    eaq = RateTriple(0.0, cef.q, cef.e)
    return {
        "CEF": cef,
        "CEQ": ceq,
        "EAC": eac,
        "CEF-SD-ED": cef_sd_ed,
        "CEF-TP": cef_tp,
        "LSD": lsd,
        "EAQ": eaq,
    }


def union_membership(
    regions: Sequence[OneShotRegion],
    t: RateTriple,
    timeshare: bool = False,
    e_max: float = 2.0,
    grid: int = 101,
) -> bool:
    """Membership of `t` in the union of regions, optionally closed under
    pairwise time-sharing.

    The time-sharing test is an inner approximation of the convex hull: over a
    lambda grid, `t` is accepted if (t - (1-lambda) v) / lambda lies in some
    region for some vertex v of some (possibly the same) region.
    """
    if len(regions) == 0:
        raise EmptyInput("no regions supplied")
    if any(contains(r, t) for r in regions):
        return True
    if not timeshare:
        return False
    vertex_sets = [corner_points(r, e_max) for r in regions]
    lams = np.linspace(0.0, 1.0, grid)
    for verts in vertex_sets:
        for v in verts:
            for lam in lams:
                if lam == 0.0:
                    continue
                u = RateTriple(
                    (t.c - (1.0 - lam) * v.c) / lam,
                    (t.q - (1.0 - lam) * v.q) / lam,
                    (t.e - (1.0 - lam) * v.e) / lam,
                )
                if any(contains(r, u, tol=ENTROPIC_TOL) for r in regions):
                    return True
    return False
