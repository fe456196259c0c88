"""One-shot rate polytopes, vertex enumeration, and unit-resource arithmetic.

A one-shot region is the set of rate triples (C, Q, E) with C, Q, E >= 0,
C + 2Q <= i_axb, Q <= i_coh + E, and C + Q <= i_xb + i_coh + E.  The region
is unbounded in +E, so vertex enumeration takes an explicit e_max cap.
Vertices and time-sharing membership are both read off the basic solutions
of a small system A x <= b, from one enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .entropics import CQEJointState
from .errors import FLOAT_MAX, EmptyInput, InvalidRegion, NegativeRate, check_range

ARITH_TOL = 1e-12
ENTROPIC_TOL = 1e-9
VERTEX_FEAS_TOL = 1e-9
VERTEX_DEDUP_TOL = 1e-7
SINGULAR_TOL = 1e-12
# Largest e_max of corner_points: over the 3-row bases S of its seven rows, every |entry| of
# x = A_S^-1 b_S, of an LU (partial pivoting) intermediate and of a partial sum of a row
# product a . x is at most 4 sum_S |b_k|: FLOAT_MAX / 2 + 8 |largest constant| at most.
E_MAX_LIMIT = FLOAT_MAX / 8


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


# The (C, Q, E) deltas of one unit of each noiseless protocol: teleportation,
# super-dense coding and entanglement distribution.
TELEPORTATION = RateTriple(-2.0, 1.0, 1.0)
SUPER_DENSE = RateTriple(2.0, -1.0, 1.0)
ENT_DISTRIBUTION = RateTriple(0.0, -1.0, -1.0)


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


# The six rows of A @ (c, q, e) <= b shared by every one-shot region, in the
# order C, Q, E >= 0; C + 2Q <= i_axb; Q - E <= i_coh; C + Q - E <= i_xb + i_coh.
_REGION_A = np.array(
    [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 2, 0], [0, 1, -1], [1, 1, -1]], dtype=float
)


def _region_b(r: OneShotRegion) -> np.ndarray:
    return np.array([0.0, 0.0, 0.0, r.i_axb, r.i_coh, r.i_xb + r.i_coh])


def halfspaces(r: OneShotRegion, e_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounding planes as (A, b) with A @ (c, q, e) <= b; the last row is E <= e_max."""
    return np.vstack([_REGION_A, [0.0, 0.0, 1.0]]), np.append(_region_b(r), e_max)


@lru_cache(maxsize=None)
def _row_subsets(rows: int, cols: int) -> np.ndarray:
    """The cols-subsets of range(rows), in combinations order, as one read-only array."""
    idx = np.array(list(combinations(range(rows), cols)))
    idx.setflags(write=False)
    return idx


def _basic_feasible(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Basic solutions of a @ x <= b that satisfy every row within tol.

    A basic solution meets n of the m rows with equality.  One stacked det
    drops the singular row subsets and one stacked solve handles the rest;
    the rows of the result follow combinations order.
    """
    idx = _row_subsets(*a.shape)
    sub_a = a[idx]
    keep = np.abs(np.linalg.det(sub_a)) >= SINGULAR_TOL
    x = np.linalg.solve(sub_a[keep], b[idx[keep]][..., None])[..., 0]
    return x[np.all(x @ a.T <= b + tol, axis=1)]


def corner_points(r: OneShotRegion, e_max: float) -> list[RateTriple]:
    """Vertices of the capped polytope, sorted lexicographically.

    The feasible basic solutions of the seven bounding planes, less each one
    within VERTEX_DEDUP_TOL (max norm) of an earlier kept one.
    """
    check_range("e_max", e_max, 0.0, E_MAX_LIMIT)
    x = _basic_feasible(*halfspaces(r, e_max), VERTEX_FEAS_TOL)
    near = (np.max(np.abs(x[:, None] - x[None]), axis=2) <= VERTEX_DEDUP_TOL).tolist()
    kept: list[int] = []
    for i, row in enumerate(near):
        if not any(row[j] for j in kept):
            kept.append(i)
    x = x[kept]
    return [RateTriple(*v) for v in x[np.lexsort(x.T[::-1])].tolist()]


def cef_point(sigma: CQEJointState) -> RateTriple:
    """Rate triple of the classically-enhanced father protocol."""
    prof = sigma.profile
    return RateTriple(prof.i_xb, 0.5 * prof.i_ab_given_x, 0.5 * prof.i_ae_given_x)


def apply_unit(t: RateTriple, delta: RateTriple, rate: float) -> RateTriple:
    """t + rate * delta; negative intermediate components are allowed.

    Rates within roundoff of zero are clamped; genuinely negative rates raise.
    """
    if rate < -ARITH_TOL:
        raise NegativeRate(f"unit-protocol rate {rate} is negative")
    return t + delta.scaled(max(rate, 0.0))


def derive_children(sigma: CQEJointState) -> dict[str, RateTriple]:
    """All corner protocols reachable from CEF via unit-resource arithmetic."""
    prof = sigma.profile
    cef = cef_point(sigma)
    ceq = apply_unit(cef, ENT_DISTRIBUTION, 0.5 * prof.i_ae_given_x)
    eac = apply_unit(cef, SUPER_DENSE, 0.5 * prof.i_ab_given_x)
    # SD rate is i_coh / 2, which can be negative (e.g. completely depolarizing
    # input ensembles); the signed arithmetic is applied directly in that case.
    signed_sd = SUPER_DENSE.scaled(0.5 * prof.i_coh)
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
    regions: Sequence[OneShotRegion], t: RateTriple, timeshare: bool = False
) -> bool:
    """Membership of `t` in the union of regions, optionally closed under
    pairwise time-sharing.

    With time-sharing, `t` is accepted if t = u + (t - u) with u in lam * R_i
    and t - u in (1 - lam) * R_j for some pair i < j and lam in [0, 1].  In
    (u, lam) that is 14 linear rows in 4 variables, bounded because
    0 <= u <= t, so it is feasible iff one of its basic solutions is (within
    ENTROPIC_TOL).  The test is exact: no lambda grid and no E cap.
    """
    if len(regions) == 0:
        raise EmptyInput("no regions supplied")
    if any(contains(r, t) for r in regions):
        return True
    if not timeshare:
        return False
    a = np.zeros((14, 4))
    a[:6, :3], a[6:12, :3], a[12:, 3] = _REGION_A, -_REGION_A, (-1.0, 1.0)
    b = np.append(np.zeros(13), 1.0)
    at = _REGION_A @ t.as_array()
    for bi, bj in combinations([_region_b(r) for r in regions], 2):
        a[:6, 3], a[6:12, 3], b[6:12] = -bi, bj, bj - at
        if len(_basic_feasible(a, b, ENTROPIC_TOL)):
            return True
    return False
