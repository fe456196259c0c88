"""One-shot rate polytopes, vertex enumeration, and unit-resource arithmetic.

A one-shot region is the set of rate triples (C, Q, E) with C, Q, E >= 0, C + 2Q <= i_axb,
Q <= i_coh + E, and C + Q <= i_xb + i_coh + E: A t <= b, one A for every region.  It is
unbounded in +E, so vertex enumeration takes an e_max cap.  Vertices are the feasible basic
solutions of the seven capped planes, each V[s] @ b for a constant table V of basis inverses
built at import.  Time-sharing membership rejects t with a row of A t above every region's
b, which no mixture reaches; else it solves on 716 constant bases each pair with no row of
A t above both of the pair's b, which no mixture of the pair reaches either: one LU of the bases
whose det, a dot product with integer cofactors fixed at import, is nonzero.  Every row test
allows one slack, _slack: a floor, or ROW_REL_TOL times the row's largest |term| if larger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .entropics import ENTROPIC_TOL, STATE_NORM_TOL, CQEJointState
from .errors import ARITH_TOL, FLOAT_MAX, DimMismatch, EmptyInput, InvalidRegion, NegativeRate
from .errors import OutOfRange, check_range

# A state block of squared norm 1 + d has its spectra scaled by 1 + d, which takes up to
# (1 + d) log2(1 + d) ~ d log2(e) off I(AX;B), I(X;B), I(A;B|X), I(A;E|X) and H(A|X) where
# they are 0: an accepted state (d <= STATE_NORM_TOL) gives each of them down to about
# -STATE_NORM_TOL log2(e) = -7.5e-10, less roundoff.  See _rate.
RATE_TOL = STATE_NORM_TOL / math.log(2) + ARITH_TOL
# Constants off by up to RATE_TOL move a vertex V[s] @ b by up to 5 RATE_TOL (a row of |V|
# has constant coefficients summing to at most 5, see below): closer solutions merge.
VERTEX_DEDUP_TOL = 5 * RATE_TOL  # 3.75e-9
# twice the first-order rounding of A @ (V[s] @ b), 22 eps max |b| (rows of |A| |V| sum to <= 11)
ROW_REL_TOL = 44 * np.finfo(float).eps  # 9.8e-15: _slack's relative part, the larger from 1e5 on
# Largest e_max of corner_points and largest |constant| of a OneShotRegion.  corner_points
# computes x = V[s] @ b and A @ x (_BASIS_TABLE, _CAPPED_A), b = (0, 0, 0, i_axb, i_coh,
# i_xb + i_coh, e_max).  Written in (i_axb, i_xb, i_coh, e_max), a row of |V| has an e_max
# coefficient of at most 2 and constant coefficients summing to at most 5; a row of |A| |V|,
# which bounds every partial sum of A @ x, at most 4 and 11.  So 4 E_MAX_LIMIT = FLOAT_MAX / 2
# and 11 REGION_LIMIT < FLOAT_MAX / 2 keep every entry finite.
E_MAX_LIMIT = FLOAT_MAX / 8
REGION_LIMIT = FLOAT_MAX / 32


class RateTriple(NamedTuple):
    """(classical bits, qubits, ebits consumed) per channel use, as a tuple (c, q, e)."""

    c: float
    q: float
    e: float

    # tuple.__new__ skips the named tuple's Python-level __new__, about 0.2 us of each call
    def __add__(self, other: "RateTriple") -> "RateTriple":
        return tuple.__new__(RateTriple, (self[0] + other[0], self[1] + other[1],
                                          self[2] + other[2]))

    def scaled(self, k: float) -> "RateTriple":
        return tuple.__new__(RateTriple, (k * self[0], k * self[1], k * self[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.c, self.q, self.e])


# The (C, Q, E) deltas of one unit of each noiseless protocol: teleportation,
# super-dense coding and entanglement distribution.
TELEPORTATION = RateTriple(-2.0, 1.0, 1.0)
SUPER_DENSE = RateTriple(2.0, -1.0, 1.0)
ENT_DISTRIBUTION = RateTriple(0.0, -1.0, -1.0)


def _slack(floor: float, *terms: float) -> float:
    """floor, or ROW_REL_TOL times the row's largest |term| if larger: a sum rounds by ulps of
    its largest term.  contains' rows have the ARITH_TOL floor; every other row test has
    ENTROPIC_TOL."""
    return max(floor, ROW_REL_TOL * max(map(abs, terms)))


@dataclass(frozen=True)
class OneShotRegion:
    """Entropic constants of the three rate bounds, each row valid within its _slack."""

    i_axb: float
    i_xb: float
    i_coh: float

    def __post_init__(self):
        for name in ("i_axb", "i_xb", "i_coh"):  # NaN and the infinities fail too
            check_range(name, getattr(self, name), -REGION_LIMIT, REGION_LIMIT, InvalidRegion)
        a, x, c = self.i_axb, self.i_xb, self.i_coh
        if x < -_slack(ENTROPIC_TOL, x):
            raise InvalidRegion(f"i_xb = {x} is negative")
        if a < x - _slack(ENTROPIC_TOL, a, x):
            raise InvalidRegion(f"i_axb = {a} below i_xb = {x}")
        if a < x + c - _slack(ENTROPIC_TOL, a, x, c):
            raise InvalidRegion("i_axb below i_xb + i_coh beyond tolerance")


def _rate(x: float) -> float:
    """A profile quantity that is >= 0 in exact arithmetic, as a rate: the region layer's one
    clamp.  Values down to -RATE_TOL are rounding and read 0; below it NegativeRate."""
    if x < -RATE_TOL:
        raise NegativeRate(f"rate quantity {x} is negative")
    return max(x, 0.0)


def region_from_state(sigma: CQEJointState) -> OneShotRegion:
    prof = sigma.profile  # i_coh may be negative: it is no rate and is not clamped
    return OneShotRegion(i_axb=_rate(prof.i_axb), i_xb=_rate(prof.i_xb), i_coh=prof.i_coh)


def contains(r: OneShotRegion, t: RateTriple) -> bool:
    """Whether t satisfies every row of r within the row's _slack; NaN or inf in t raises."""
    c, q, e = t
    if not (math.isfinite(c) and math.isfinite(q) and math.isfinite(e)):
        raise OutOfRange(f"rate triple {t} has a NaN or infinite coordinate")
    return (c >= -ARITH_TOL and q >= -ARITH_TOL and e >= -ARITH_TOL
            and c + 2 * q <= r.i_axb + _slack(ARITH_TOL, c, 2 * q, r.i_axb)
            and q <= r.i_coh + e + _slack(ARITH_TOL, q, r.i_coh, e)
            and c + q <= r.i_xb + r.i_coh + e + _slack(ARITH_TOL, c, q, r.i_xb, r.i_coh, e))


# The six rows of A @ (c, q, e) <= b shared by every one-shot region, in the
# order C, Q, E >= 0; C + 2Q <= i_axb; Q - E <= i_coh; C + Q - E <= i_xb + i_coh.
_REGION_A = np.array(
    [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 2, 0], [0, 1, -1], [1, 1, -1]], dtype=float
)


def _region_b(r: OneShotRegion, *cap: float) -> np.ndarray:
    """b of the six rows of _REGION_A, then the cap e_max if one is given."""
    return np.array([0.0, 0.0, 0.0, r.i_axb, r.i_coh, r.i_xb + r.i_coh, *cap])


# The seven planes of a region capped at E <= e_max: the rows of _REGION_A, then the cap.
_CAPPED_A = np.vstack([_REGION_A, [0.0, 0.0, 1.0]])


def halfspaces(r: OneShotRegion, e_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Bounding planes as (A, b) with A @ (c, q, e) <= b; the last row is E <= e_max."""
    return _CAPPED_A.copy(), _region_b(r, e_max)


def _basis_table() -> np.ndarray:
    """V of shape (26, 3, 7): for each nonsingular 3-row basis S of _CAPPED_A, in
    combinations order, the inverse of _CAPPED_A[S] in columns S and 0 elsewhere, so that
    V[s] @ b is the basic solution on S.  The inverse is the adjugate, whose columns are
    cross products of the integer rows, over det = +-1 or +-2: exact multiples of 1/2."""
    idx = np.array(list(combinations(range(len(_CAPPED_A)), 3)))
    rows = _CAPPED_A[idx]
    adj = np.cross(rows[:, [1, 2, 0]], rows[:, [2, 0, 1]]).transpose(0, 2, 1)
    det = np.einsum("sj,sj->s", rows[:, 0], adj[:, :, 0])
    keep = det != 0
    inv = adj[keep] / det[keep, None, None]
    table = np.zeros(inv.shape[:2] + (len(_CAPPED_A),))
    np.put_along_axis(table, np.broadcast_to(idx[keep][:, None], inv.shape), inv, axis=2)
    table.setflags(write=False)
    return table


_BASIS_TABLE = _basis_table()

# The pair system of union_membership in x = (u, lam), A u - lam b_i <= 0, -A u + lam b_j <=
# b_j - A t, -lam <= 0 and lam <= 1, less the lam column of its first 12 rows.
_PAIR_A = np.zeros((14, 4))
_PAIR_A[:6, :3], _PAIR_A[6:12, :3], _PAIR_A[12:, 3] = _REGION_A, -_REGION_A, (-1.0, 1.0)


def _pair_bases() -> tuple[np.ndarray, np.ndarray]:
    """The 716 of the 1001 4-row subsets of _PAIR_A, in combinations order, whose u-columns have
    a nonzero 3-row minor r . (r' x r''), exact on integer rows: the rest are always singular.
    And their lam cofactors cof, so det = lam column @ cof: minors of rows 123, 023, 013, 012."""
    idx = np.array(list(combinations(range(len(_PAIR_A)), 4)))
    u = _PAIR_A[:, :3]
    minor = np.einsum("ac,bdc->abd", u, np.cross(u[:, None], u))  # of the rows a, b and d
    cof = minor[tuple(idx[:, list(combinations(range(4), 3))].T)].T[:, ::-1] * (-1, 1, -1, 1)
    keep = cof.any(axis=1)
    return idx[keep], cof[keep]


_PAIR_BASES, _PAIR_COF = _pair_bases()
_PAIR_STACK = _PAIR_A[_PAIR_BASES]  # the 716 bases, their lam column filled per pair


def _step(t: float) -> float:
    """t to its nearest multiple of VERTEX_DEDUP_TOL, without t / VERTEX_DEDUP_TOL, which
    overflows from FLOAT_MAX * VERTEX_DEDUP_TOL up."""
    t += VERTEX_DEDUP_TOL / 2
    return t - t % VERTEX_DEDUP_TOL


def corner_points(r: OneShotRegion, e_max: float) -> list[RateTriple]:
    """Vertices of the capped polytope, sorted by C, then Q, then E, where C and Q
    are rounded to VERTEX_DEDUP_TOL steps, so rounding noise cannot order them.

    The basic solutions _BASIS_TABLE @ b of the seven planes that meet every plane within
    _slack of max |b|, less each within VERTEX_DEDUP_TOL (max norm) of an earlier kept one.
    """
    check_range("e_max", e_max, 0.0, E_MAX_LIMIT)
    b = _region_b(r, e_max)
    x = _BASIS_TABLE @ b
    x = x[(x @ _CAPPED_A.T <= b + _slack(ENTROPIC_TOL, *b.tolist())).all(axis=1)]
    kept, keys, tol = [], [], VERTEX_DEDUP_TOL
    for c, q, e in x.tolist():  # in basis order, each against the kept ones in max norm
        for w in kept:
            if abs(c - w[0]) <= tol and abs(q - w[1]) <= tol and abs(e - w[2]) <= tol:
                break
        else:  # kept; vertices whose C and Q steps tie are more than tol apart in raw E
            keys.append((_step(c), _step(q), e, len(kept)))  # ties: basis order (stable)
            kept.append((c, q, e))
    return [RateTriple(*kept[key[3]]) for key in sorted(keys)]


def cef_point(sigma: CQEJointState) -> RateTriple:
    """Rate triple (I(X;B), I(A;B|X)/2, I(A;E|X)/2) of the classically-enhanced father."""
    prof = sigma.profile
    return RateTriple(_rate(prof.i_xb), 0.5 * _rate(prof.i_ab_given_x),
                      0.5 * _rate(prof.i_ae_given_x))


def derive_children(sigma: CQEJointState) -> dict[str, RateTriple]:
    """All corner protocols reachable from CEF via unit-resource arithmetic, each CEF plus
    whole units of TP, SD and ED; LSD and EAQ are CEQ and CEF with C = 0."""
    prof, cef = sigma.profile, cef_point(sigma)
    c, q, e = cef
    ceq = cef + ENT_DISTRIBUTION.scaled(e)
    # CEF-SD-ED: ED at H(A|X)/2, then SD at i_coh/2, signed (< 0 for completely depolarizing)
    h, s = 0.5 * _rate(prof.h_a_given_x), 0.5 * prof.i_coh
    return {"CEF": cef, "CEQ": ceq, "EAC": cef + SUPER_DENSE.scaled(q),
            "CEF-SD-ED": cef + ENT_DISTRIBUTION.scaled(h) + SUPER_DENSE.scaled(s),
            "CEF-TP": cef + TELEPORTATION.scaled(0.5 * c),
            "LSD": RateTriple(0.0, *ceq[1:]), "EAQ": RateTriple(0.0, q, e)}


def _pair_feasible(bi: np.ndarray, bj: np.ndarray, at: np.ndarray) -> bool:
    """Whether the pair system of b_i, b_j and A t has a basic solution on _PAIR_BASES within
    _slack's rule on each row: each basis's det from its lam column and _PAIR_COF, then one
    stacked solve, the one LU, of the nonsingular bases."""
    a = _PAIR_A.copy()
    a[:6, 3], a[6:12, 3] = -bi, bj
    b = np.concatenate((np.zeros(6), bj - at, (0.0, 1.0)))
    lam = a[:, 3][_PAIR_BASES]
    keep = abs(np.einsum("sk,sk->s", lam, _PAIR_COF)) >= ARITH_TOL  # the det, from exact cofactors
    sub_a = _PAIR_STACK[keep]
    sub_a[..., 3] = lam[keep]  # a[_PAIR_BASES[keep]], float for float
    x = np.linalg.solve(sub_a, b[_PAIR_BASES[keep]][..., None])[..., 0]
    # LU with partial pivoting is backward stable, so row k misses b_k by ulps of its terms, b_k
    # and a_kj x_j with each |x_j| counted as >= 1: lam, in [0, 1], is resolved to ulps of 1
    slack = np.maximum(ENTROPIC_TOL, ROW_REL_TOL * np.maximum(abs(b), abs(x).clip(1) @ abs(a).T))
    return bool(np.all(x @ a.T <= b + slack, 1).any())


def union_membership(
    regions: Sequence[OneShotRegion], t: RateTriple, timeshare: bool = False
) -> bool:
    """Membership of `t` in the union of regions or, with time-sharing, in its pairwise
    closure: t = u + (t - u) with u in lam * R_i and t - u in (1 - lam) * R_j for some pair
    i < j and lam in [0, 1], 14 rows in (u, lam) with 0 <= u <= t, feasible iff a basic
    solution is, each row within its _slack.  That closure can be smaller than the hull of
    three or more regions, which the capacity region is.  First, t with a row of A t above
    max_i b_i by more than a pair's slacks reach, which no mixture has, is rejected unsolved;
    so is each pair with a row of A t that far above both its b_i and b_j.  t may be any three
    numbers, a RateTriple or a plain tuple; DimMismatch if it is not three.
    """
    if len(regions) == 0:
        raise EmptyInput("no regions supplied")
    if len(t) != 3:
        raise DimMismatch(f"rate triple {t!r} is not three numbers")
    t = RateTriple(*t)
    if any(contains(r, t) for r in regions):
        return True
    if not timeshare:
        return False
    bs = np.array([_region_b(r) for r in regions])
    at = _REGION_A @ t.as_array()
    scale = abs(bs).max()
    # Any mixture has A t <= max_i b_i.  A kept pair solution has lam in [-e, 1 + e] (e =
    # ENTROPIC_TOL) and |u| within e and ulps of |t|, so its rows have terms up to R = 2 (max |b|
    # + 3 max(|t|, 1)) and slacks up to s = _slack at R: rows r and r + 6 add up to (A t)_r <=
    # max(b_i,r, b_j,r) + 2 s + 2 e max |b|; a third s covers rounding.  One s bounds all six
    # rows.  So a pair with a row r over both its b_i,r and b_j,r is infeasible unsolved, and a
    # row over every b_i,r, so over max_i b_i,r (a rounded sum is monotone), rules out every pair.
    s = _slack(ENTROPIC_TOL, 2 * (scale + 3 * max(*map(abs, t), 1.0)))
    over = at > bs + 3 * s + 2 * ENTROPIC_TOL * scale
    if over.all(axis=0).any():
        return False
    return any(not (over[i] & over[j]).any() and _pair_feasible(bs[i], bs[j], at)
               for i, j in combinations(range(len(bs)), 2))
