"""Tests for rate polytopes, vertex enumeration, and unit-resource arithmetic."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import astuple
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import linprog

import cqekit
import cqekit.regions as regions_module
from conftest import random_ensemble
from cqekit.channels import builtin_isometry
from cqekit.cli import _parse_channel
from cqekit.entropics import STATE_NORM_TOL, channel_output_ensemble, make_ensemble, mu_ensemble
from cqekit.errors import (
    FLOAT_MAX, DimMismatch, EmptyInput, InvalidRegion, NegativeRate, OutOfRange
)
from cqekit.regions import (
    ARITH_TOL,
    E_MAX_LIMIT,
    ENT_DISTRIBUTION,
    ENTROPIC_TOL,
    RATE_TOL,
    REGION_LIMIT,
    ROW_REL_TOL,
    VERTEX_DEDUP_TOL,
    SUPER_DENSE,
    TELEPORTATION,
    OneShotRegion,
    RateTriple,
    _BASIS_TABLE,
    _CAPPED_A,
    _PAIR_A,
    _PAIR_BASES,
    _PAIR_COF,
    _pair_feasible,
    _rate,
    _slack,
    cef_point,
    contains,
    corner_points,
    derive_children,
    halfspaces,
    region_from_state,
    union_membership,
)

H2_09 = 0.4689955935892812
CEF_Q = 0.7655022032053594  # (2 - H2(0.9)) / 2
CEF_E = 0.2344977967946406  # H2(0.9) / 2
I_AXB_DEPH = 1.5310044064107187

DEPHASING = builtin_isometry("dephasing", 0.2)
ERASURE = builtin_isometry("erasure", 0.25)
DEPOLARIZING = builtin_isometry("depolarizing")


def sigma_for(iso, mu=0.5):
    return channel_output_ensemble(mu_ensemble(mu), iso)


finite = st.floats(min_value=-5, max_value=5, allow_nan=False)


@given(finite, finite, finite, st.floats(min_value=0, max_value=3))
def test_rate_triple_arithmetic(c, q, e, k):
    t = RateTriple(c, q, e)
    u = RateTriple(1.0, 2.0, 3.0)
    s = t + u
    assert (s.c, s.q, s.e) == (c + 1.0, q + 2.0, e + 3.0)
    v = t.scaled(k)
    assert v.as_array() == pytest.approx(k * t.as_array(), abs=1e-12)


def test_rate_triple_is_an_immutable_hashable_value():
    t = RateTriple(0.1, 0.2, 0.7)
    with pytest.raises(AttributeError):
        t.c = 1.0
    assert (t.c, t.q, t.e) == (0.1, 0.2, 0.7)
    assert t == RateTriple(0.1, 0.2, 0.7) and t != RateTriple(0.1, 0.2, 0.75)
    assert hash(t) == hash(RateTriple(0.1, 0.2, 0.7))
    assert len({t, RateTriple(0.1, 0.2, 0.7), RateTriple(0.7, 0.2, 0.1)}) == 2
    # each operation's value, bit for bit
    s = t + RateTriple(0.2, 1.0 / 3.0, -0.7)
    assert isinstance(s, RateTriple) and (s.c, s.q, s.e) == (0.1 + 0.2, 0.2 + 1.0 / 3.0, 0.0)
    k = 1.0 / 3.0
    v = t.scaled(k)
    assert isinstance(v, RateTriple) and (v.c, v.q, v.e) == (k * 0.1, k * 0.2, k * 0.7)
    a = t.as_array()
    assert a.dtype == float and a.shape == (3,) and a.tolist() == [0.1, 0.2, 0.7]


def test_unit_protocol_table():
    assert TELEPORTATION == RateTriple(-2.0, 1.0, 1.0)
    assert SUPER_DENSE == RateTriple(2.0, -1.0, 1.0)
    assert ENT_DISTRIBUTION == RateTriple(0.0, -1.0, -1.0)


def test_teleportation_and_super_dense_cancel():
    t = RateTriple(3.0, 1.0, 0.5)
    roundtrip = t + TELEPORTATION + SUPER_DENSE
    assert roundtrip.c == pytest.approx(t.c)
    assert roundtrip.q == pytest.approx(t.q)
    assert roundtrip.e == pytest.approx(t.e + 2.0)  # both consume one ebit


def test_rate_rejects_negative_quantity():
    with pytest.raises(NegativeRate):
        _rate(-0.5)
    assert _rate(0.5) == 0.5


def test_rate_tolerance_covers_accepted_states():
    # a block of squared norm 1 + STATE_NORM_TOL through a channel with a one-dimensional B
    # gives I(A;B|X) = -(1 + d) log2(1 + d), the most negative value an accepted state gives
    d = STATE_NORM_TOL
    quantity = -(1 + d) * np.log2(1 + d)
    assert -RATE_TOL < quantity < -0.99 * RATE_TOL + ARITH_TOL
    assert _rate(quantity) == 0.0
    with pytest.raises(NegativeRate):
        _rate(-2 * RATE_TOL)


def test_one_shot_region_invariants():
    OneShotRegion(1.5, 0.5, 0.5)
    with pytest.raises(InvalidRegion):
        OneShotRegion(1.0, -0.5, 0.0)
    with pytest.raises(InvalidRegion):
        OneShotRegion(0.5, 1.0, 0.0)  # i_axb below i_xb
    with pytest.raises(InvalidRegion):
        OneShotRegion(1.0, 0.5, 0.8)  # i_axb below i_xb + i_coh
    # each of the three rows accepts a constant 0.9 ENTROPIC_TOL past it and rejects one
    # 1.1 ENTROPIC_TOL past it: i_xb >= 0, i_axb >= i_xb and i_axb >= i_xb + i_coh
    for k in (0.9, 1.1):
        for fields in ((1.0, -k * ENTROPIC_TOL, 0.25), (0.5 - k * ENTROPIC_TOL, 0.5, -0.25),
                       (0.75 - k * ENTROPIC_TOL, 0.5, 0.25)):
            if k < 1.0:
                assert OneShotRegion(*fields).i_axb == fields[0]
            else:
                with pytest.raises(InvalidRegion):
                    OneShotRegion(*fields)


def test_region_from_state_examples():
    r = region_from_state(sigma_for(DEPHASING))
    assert r.i_axb == pytest.approx(I_AXB_DEPH, abs=1e-12)
    assert r.i_xb == pytest.approx(0.0, abs=1e-12)
    assert r.i_coh == pytest.approx(1.0 - H2_09, abs=1e-12)

    r_id = region_from_state(sigma_for(builtin_isometry("identity")))
    assert r_id.i_axb == pytest.approx(2.0, abs=1e-10)
    assert r_id.i_coh == pytest.approx(1.0, abs=1e-10)

    r_dep = region_from_state(sigma_for(DEPOLARIZING))
    assert abs(r_dep.i_axb) < 1e-9
    assert abs(r_dep.i_xb) < 1e-9
    assert r_dep.i_coh <= 1e-9


def test_contains_faces_and_violations():
    r = OneShotRegion(1.5, 0.5, 0.5)
    assert contains(r, RateTriple(0, 0, 0))
    assert contains(r, RateTriple(0.5, 0.5, 0.0))  # on two faces
    assert contains(r, RateTriple(0.0, 0.75, 10.0))  # unbounded in E
    assert not contains(r, RateTriple(1.6, 0.0, 5.0))  # c + 2q above i_axb
    assert not contains(r, RateTriple(0.0, 0.8, 0.0))  # q above i_coh
    assert not contains(r, RateTriple(-0.1, 0.0, 0.0))
    assert not contains(r, RateTriple(0.0, 1.0, 10.0))  # c + 2q cap binds at any e
    assert not contains(r, RateTriple(1.2, 0.0, 0.0))  # c + q above i_xb + i_coh + e
    # tolerance loosens the face test
    assert contains(r, RateTriple(1.5 + 1e-13, 0.0, 0.5))


def test_contains_agrees_with_halfspace_rows():
    # contains and rows 0-5 of halfspaces encode one region.  Seeded random
    # regions and points, and points at -2, -1/2, 0, 1/2 and 2 tolerances
    # from each facet (a @ t = b + offset): half a tolerance or more from the
    # accept edge b + ARITH_TOL, so the two encodings' roundoff cannot split them.
    rng = np.random.default_rng(20260)
    outcomes = []
    for _ in range(200):
        i_xb, i_coh = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0)
        r = OneShotRegion(max(i_xb, i_xb + i_coh) + rng.uniform(0.0, 1.0), i_xb, i_coh)
        a, b = (m[:6] for m in halfspaces(r, 1.0))
        points = list(rng.uniform(-0.5, 2.0, (5, 3)))
        for k, x in enumerate(rng.uniform(-0.5, 2.0, (6, 3))):
            for offset in ARITH_TOL * np.array([-2.0, -0.5, 0.0, 0.5, 2.0]):
                points.append(x + (b[k] + offset - a[k] @ x) / (a[k] @ a[k]) * a[k])
        for x in points:
            inside = contains(r, RateTriple(*x))
            assert inside == bool(np.all(a @ x <= b + ARITH_TOL))
            outcomes.append(inside)
    assert 0.1 < np.mean(outcomes) < 0.9


def test_halfspaces_shape():
    a, b = halfspaces(OneShotRegion(1.5, 0.5, 0.5), 2.0)
    assert a.shape == (7, 3)
    assert b[3] == 1.5 and b[6] == 2.0


def test_corner_points_dephasing_example():
    r = region_from_state(sigma_for(DEPHASING))
    verts = corner_points(r, 1.0)
    arr = np.array([v.as_array() for v in verts])
    expected = [
        (0.0, 0.0, 0.0),
        (0.0, 1.0 - H2_09, 0.0),
        (0.0, CEF_Q, CEF_E),
        (1.0 - H2_09, 0.0, 0.0),
        (I_AXB_DEPH, 0.0, 1.0),
    ]
    for point in expected:
        assert np.min(np.max(np.abs(arr - np.array(point)), axis=1)) < 1e-9
    # sorted lexicographically, all feasible
    assert sorted(arr.tolist()) == arr.tolist()
    for v in verts:
        assert contains(r, v)


def test_corner_points_degenerate_region():
    verts = corner_points(OneShotRegion(0.0, 0.0, 0.0), 1.0)
    arr = np.array([v.as_array() for v in verts])
    # only the E axis survives
    assert np.all(np.abs(arr[:, :2]) < 1e-9)
    with pytest.raises(OutOfRange):
        corner_points(OneShotRegion(1.0, 0.5, 0.5), -1.0)


def test_region_rejects_non_finite_and_overflowing_constants():
    for k, name in enumerate(("i_axb", "i_xb", "i_coh")):
        for bad in (np.nan, np.inf, -np.inf, np.nextafter(REGION_LIMIT, np.inf),
                    -np.nextafter(REGION_LIMIT, np.inf)):
            fields = [1.0, 0.5, 0.25]
            fields[k] = bad
            with pytest.raises(InvalidRegion, match=re.escape(f"{name} = {bad} outside ")):
                OneShotRegion(*fields)


def test_largest_accepted_constants_give_finite_vertices():
    # the three regions with i_coh = -REGION_LIMIT are empty at e_max = 0 (Q <= i_coh + E)
    accepted, nonempty = 0, 0
    for fields in product((-REGION_LIMIT, 0.0, REGION_LIMIT), repeat=3):
        try:
            r = OneShotRegion(*fields)
        except InvalidRegion:
            continue
        accepted += 1
        for e_max in (0.0, REGION_LIMIT, E_MAX_LIMIT):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                verts = np.array([v.as_array() for v in corner_points(r, e_max)])
            assert np.all(np.isfinite(verts)), (fields, e_max)
            nonempty += len(verts) > 0
    assert accepted == 7 and nonempty == 7 * 3 - 3


def _bases():
    """The nonsingular 3-row bases of the seven capped planes, in combinations order."""
    return [list(rows) for rows in combinations(range(7), 3)
            if abs(np.linalg.det(_CAPPED_A[list(rows)])) >= ARITH_TOL]


def test_basis_table_is_exact():
    bases = _bases()
    assert len(bases) == 26 and _BASIS_TABLE.shape == (26, 3, 7)
    for v, rows in zip(_BASIS_TABLE, bases):
        assert np.array_equal(v @ _CAPPED_A, np.eye(3))  # V[s] @ A[rows] = I, no rounding
        assert not np.any(np.delete(v, rows, axis=1))
    assert set(_BASIS_TABLE.ravel().tolist()) == {0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0}


def test_basis_table_matches_per_basis_solve():
    # on random b, on b near a coarse grid (several planes through one point) and on b
    # spanning 300 decades, V[s] @ b and the LU solve of A[rows] x = b[rows] agree to
    # 4 ulps of the basis's largest |V[s]| @ |b| (3 seen); the table's C = b5 - b4 is
    # exact where LU's cancels to 0 (i_axb 8e117 beside i_xb + i_coh 7e-71)
    rng = np.random.default_rng(20315)
    bases = _bases()
    for k in range(600):
        i_axb, i_xb, i_coh, e_max = (
            rng.uniform(-1.0, 1.0, 4),
            rng.integers(-3, 4, 4) / 4 + rng.choice([0.0, 1e-15, 1e-9]) * rng.uniform(-1, 1, 4),
            rng.uniform(-1.0, 1.0, 4) * 10.0 ** rng.integers(-150, 150, 4),
        )[k % 3]
        b = np.array([0.0, 0.0, 0.0, i_axb, i_coh, i_xb + i_coh, abs(e_max)])
        for v, x, rows in zip(_BASIS_TABLE, _BASIS_TABLE @ b, bases):
            lu = np.linalg.solve(_CAPPED_A[rows], b[rows])
            assert np.all(np.abs(x - lu) <= 4 * np.spacing(np.max(np.abs(v) @ np.abs(b))))


def test_corner_points_calls_no_linalg(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("det", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for r in (OneShotRegion(1.2, 0.4, 0.3), OneShotRegion(0.0, 0.0, 0.0),
              OneShotRegion(1.0, 1.0, -0.5)):
        assert corner_points(r, 2.0)


def test_e_max_limit_derivation():
    # b = w @ (i_axb, i_xb, i_coh, e_max); rows of |V| and of |A| |V| in those four
    w = np.zeros((7, 4))
    w[3, 0] = w[4, 2] = w[5, 1] = w[5, 2] = w[6, 3] = 1.0
    v = np.abs(_BASIS_TABLE)
    av = np.abs(_CAPPED_A) @ v
    for coeffs, cap, constants in ((v @ w, 2.0, 5.0), (av @ w, 4.0, 11.0)):
        assert coeffs[..., 3].max() == cap and coeffs[..., :3].sum(-1).max() == constants
    # summed over the columns of b, the cap column included
    assert v.sum(-1).max() == 5.0 and av.sum(-1).max() == 11.0
    assert 4 * E_MAX_LIMIT == FLOAT_MAX / 2 and 11 * REGION_LIMIT < FLOAT_MAX / 2


def test_e_max_limit_is_the_largest_accepted_cap():
    r = OneShotRegion(1.2, 0.4, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vertices = np.array([v.as_array() for v in corner_points(r, E_MAX_LIMIT)])
    assert np.all(np.isfinite(vertices)) and vertices[:, 2].max() == E_MAX_LIMIT
    # without the bound, from 9e307 up the row products overflowed (numpy RuntimeWarnings)
    for e_max in (np.nextafter(E_MAX_LIMIT, np.inf), 9e307, 1.7e308, FLOAT_MAX):
        with pytest.raises(OutOfRange, match="^e_max = "):
            corner_points(r, e_max)


def _step(x):
    """x to its nearest multiple of VERTEX_DEDUP_TOL, as a float."""
    y = float(x) + VERTEX_DEDUP_TOL / 2
    return y - y % VERTEX_DEDUP_TOL


def _reference_corner_points(basic):
    """Dedup of the feasible basic solutions by a loop over the kept points, then a
    sort on C and Q rounded to VERTEX_DEDUP_TOL steps, then E."""
    found = []
    for x in basic:
        if not any(np.max(np.abs(x - y)) <= VERTEX_DEDUP_TOL for y in found):
            found.append(x)
    found.sort(key=lambda x: (_step(x[0]), _step(x[1]), x[2]))
    return [RateTriple(*x) for x in found]


def _bits(verts):
    return [tuple(float(x).hex() for x in (v.c, v.q, v.e)) for v in verts]


def test_corner_points_equals_loop_reference():
    rng = np.random.default_rng(2024)
    cases = [(OneShotRegion(0.0, 0.0, 0.0), e) for e in (0.0, 1.0)]
    # e_max = VERTEX_DEDUP_TOL: (0, 0, 0) and (0, 0, e_max) are exactly that far apart
    cases += [(OneShotRegion(1.0, 0.5, 0.0), e) for e in (0.0, VERTEX_DEDUP_TOL, 2.0)]
    # a chain of three solutions under 1.75 tol apart (tol = VERTEX_DEDUP_TOL): the
    # first-kept rule keeps the third, which a rule dropping anything near any earlier
    # solution loses
    tol = VERTEX_DEDUP_TOL
    cases.append((OneShotRegion(1.0 + 2.701835853 * tol, 0.5 + 1.882421155 * tol, 0.5),
                  1.7486 * tol))
    # i_coh < 0 and i_axb a few VERTEX_DEDUP_TOL above i_xb: the vertices at
    # C = i_xb (E = -i_coh) and C = i_axb are near-tied, merged or not by the dedup
    for gap in (0.0, 0.01 * tol, 0.5 * tol, tol, 1.5 * tol, 3 * tol):
        for i_coh in (-0.5, -0.1 * tol):
            r = OneShotRegion(1.0 + gap, 1.0, i_coh)
            cases += [(r, e) for e in (0.0, -i_coh, 2.0)]
    for _ in range(400):
        i_xb, i_coh = rng.uniform(0, 2), rng.uniform(-1, 1)
        e_max = rng.choice([0.0, 0.5, 2.0, rng.uniform(0, 3 * tol)])
        if rng.random() < 0.5:  # within 3 tol of a coarse grid: (near-)coincidences
            i_xb = rng.integers(0, 5) / 4 + rng.uniform(0, 3 * tol)
            i_coh = rng.integers(-4, 5) / 4 + rng.uniform(-3 * tol, 3 * tol)
        i_axb = max(i_xb, i_xb + i_coh) + rng.choice([0.0, 0.1 * tol, rng.uniform(0, 1)])
        cases.append((OneShotRegion(i_axb, i_xb, i_coh), e_max))
    for r, e_max in cases:
        a, b = halfspaces(r, e_max)
        x = _BASIS_TABLE @ b
        got = corner_points(r, e_max)
        feasible = x[np.all(x @ a.T <= b + ENTROPIC_TOL, axis=1)]
        assert _bits(got) == _bits(_reference_corner_points(feasible))


def test_vertex_dedup_tolerance_derivation():
    # b = (0, 0, 0, i_axb, i_coh, i_xb + i_coh, e_max): constants off by RATE_TOL each move
    # a vertex V[s] @ b by at most 5 RATE_TOL
    v = _BASIS_TABLE
    per_constant = np.stack([v[:, :, 3], v[:, :, 5], v[:, :, 4] + v[:, :, 5]])
    assert np.max(np.abs(per_constant).sum(axis=0)) == 5
    assert VERTEX_DEDUP_TOL == 5 * RATE_TOL


def test_vertex_dedup_keeps_vertices_of_small_constants():
    # i_coh = 5e-8: a 1e-7 dedup merged (0, i_coh, 0) into the origin and (0.5, i_coh, 0)
    # into (0.5 + i_coh, 0, 0)
    verts = corner_points(OneShotRegion(1.0, 0.5, 5e-8), 2.0)
    assert len(verts) == 10
    assert {(0.0, 5e-8, 0.0), (0.5, 5e-8, 0.0)} <= {(v.c, v.q, v.e) for v in verts}


def test_vertex_order_ignores_rounding_noise_in_c():
    # two vertices whose C is i_xb in exact arithmetic: per-basis LU solves computed
    # 0.10751041044637893 and 0.10751041044637899, the basis table gives both the same
    # bits, and Q orders them either way, not the last bit of C
    r = OneShotRegion(0.5222377707429697, 0.10751041044637899, 0.02013523289632215)
    verts = corner_points(r, 2.0)
    tied = [v for v in verts if abs(v.c - r.i_xb) <= VERTEX_DEDUP_TOL]
    assert len(tied) == 2 and tied[0].c == tied[1].c
    assert [v.q for v in tied] == sorted(v.q for v in tied)
    assert verts.index(tied[1]) == verts.index(tied[0]) + 1
    # constants past FLOAT_MAX * VERTEX_DEDUP_TOL still sort by C without overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = corner_points(OneShotRegion(1e305, 1e305, 0.0), 1.0)
    assert [v.c for v in huge] == sorted(v.c for v in huge) and huge[-1].c == 1e305


def test_row_slack_derivation():
    # to first order, row k of A @ (V[s] @ b) rounds by at most u max |b| times
    # sum_i |A_ki| n_i S_i + (m_k - 1) sum_i |A_ki| S_i, where x_i = V[s]_i @ b has n_i nonzero
    # terms and S_i = sum_j |V[s]_ij|, and row k of A has m_k nonzero terms
    u = np.finfo(float).eps / 2
    worst = 0
    for v in _BASIS_TABLE:
        n, s = (v != 0).sum(axis=1), np.abs(v).sum(axis=1)
        for a in np.abs(_CAPPED_A):
            worst = max(worst, a @ (n * s) + ((a != 0).sum() - 1) * (a @ s))
    assert worst == 44 and ROW_REL_TOL == 2 * worst * u
    assert ROW_REL_TOL * 1e5 < ENTROPIC_TOL  # the slack is ENTROPIC_TOL while max |b| < 1e5


def scaled_region(rng, scale):
    """A random valid region with i_xb in [0, scale] and i_coh in [-scale, scale]."""
    i_xb, i_coh = rng.uniform(0, scale), rng.uniform(-scale, scale)
    return OneShotRegion(max(i_xb, i_xb + i_coh) + rng.uniform(0, scale), i_xb, i_coh)


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _exact_vertices(r, e_max):
    """The distinct feasible basic solutions of the capped planes, in exact arithmetic: b's
    floats read as fractions, each 3-row system solved by Cramer's rule."""
    a, b = _CAPPED_A.astype(int).tolist(), [Fraction(x) for x in halfspaces(r, e_max)[1].tolist()]
    found = set()
    for rows in combinations(range(len(a)), 3):
        det = _det3([a[i] for i in rows])
        if det:
            x = tuple(Fraction(_det3([[b[i] if j == col else a[i][j] for j in range(3)]
                                      for i in rows]), det) for col in range(3))
            if all(sum(aij * xj for aij, xj in zip(row, x)) <= bi for row, bi in zip(a, b)):
                found.add(x)
    return found


def test_corner_points_match_exact_enumeration_at_large_scales():
    # with the absolute slack ENTROPIC_TOL alone, the first region gave 8 of its 10 vertices,
    # and 46 of the 200 random ones below lost some
    cases = [(OneShotRegion(166878434.8430124, 69274336.79651524, 63163422.2672115),
              8967635.138083763),
             (OneShotRegion(174080980.69, 83091293.16, 18140018.14), 170277139.5)]
    rng = np.random.default_rng(77)
    for scale in (1e8, 1e10):
        for _ in range(100):
            cases.append((scaled_region(rng, scale), rng.uniform(0, 2 * scale)))
    for r, e_max in cases:
        exact = _exact_vertices(r, e_max)
        got = corner_points(r, e_max)
        assert len(got) == len(exact), (r, e_max)
        near = ROW_REL_TOL * np.abs(halfspaces(r, e_max)[1]).max()
        for v in got:
            assert min(max(abs(float(x) - y) for x, y in zip(w, (v.c, v.q, v.e)))
                       for w in exact) <= near



def test_contains_slack_grows_with_the_row():
    # a vertex of corner_points: the row Q <= i_coh + E misses by 7.3e-12 in floats, an ulp
    # of E, which ARITH_TOL alone rejected
    r = OneShotRegion(21564.24463740889, 15440.431370472119, -76043.1525714453)
    assert contains(r, RateTriple(0.0, 10782.122318704445, 86825.27489014974))
    # the relative slack is an ulp-level allowance, not a loosening
    assert not contains(r, RateTriple(0.0, 10782.122318704445 * (1 + 1e-12), 86825.27489014974))


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e5, 1e8, 1e10])
def test_corner_points_vertices_are_contained(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 900)
    for _ in range(200):
        r = scaled_region(rng, scale)
        for v in corner_points(r, rng.uniform(0, 2 * scale)):
            assert contains(r, v), (r, v)

def test_cef_point_examples():
    assert cef_point(sigma_for(DEPHASING)).q == pytest.approx(CEF_Q, abs=1e-12)
    t = cef_point(sigma_for(ERASURE))
    assert t.c == pytest.approx(0.0, abs=1e-10)
    assert t.q == pytest.approx(0.75, abs=1e-10)
    assert t.e == pytest.approx(0.25, abs=1e-10)


def test_derive_children_identity_channel():
    children = derive_children(sigma_for(builtin_isometry("identity")))
    assert children["EAC"].as_array() == pytest.approx([2.0, 0.0, 1.0], abs=1e-10)
    assert children["CEQ"].as_array() == pytest.approx([0.0, 1.0, 0.0], abs=1e-10)
    assert children["CEF-TP"].as_array() == pytest.approx([0.0, 1.0, 0.0], abs=1e-10)
    assert children["LSD"].as_array() == pytest.approx([0.0, 1.0, 0.0], abs=1e-10)


def test_derive_children_erasure_quarter():
    children = derive_children(sigma_for(ERASURE))
    assert children["EAC"].as_array() == pytest.approx([1.5, 0.0, 1.0], abs=1e-10)
    assert children["CEQ"].as_array() == pytest.approx([0.0, 0.5, 0.0], abs=1e-10)
    assert children["CEF-SD-ED"].as_array() == pytest.approx([0.5, 0.0, 0.0], abs=1e-10)
    assert children["EAQ"].as_array() == pytest.approx([0.0, 0.75, 0.25], abs=1e-10)


def test_children_lie_in_region():
    rng = np.random.default_rng(21)
    for iso in (DEPHASING, ERASURE):
        for _ in range(10):
            sigma = channel_output_ensemble(random_ensemble(rng), iso)
            r = region_from_state(sigma)
            for name, t in derive_children(sigma).items():
                assert contains(r, t), (iso, name, t)


def test_gf1_face_is_entanglement_invariant():
    # moving along +E never relaxes the C + 2Q cap
    r = OneShotRegion(1.5, 0.5, 0.5)
    for e in (0.0, 1.0, 7.5):
        assert not contains(r, RateTriple(0.51, 0.5, e))


def test_contains_and_union_membership_reject_a_non_finite_rate():
    # an infinite coordinate gave its row an infinite slack, so inf <= inf read as inside
    regions = [OneShotRegion(1.0, 0.5, 0.2), OneShotRegion(1.5, 0.5, 0.5)]
    for bad in (np.inf, -np.inf, np.nan):
        for t in (RateTriple(bad, 0.0, 0.0), RateTriple(0.0, bad, bad), RateTriple(0.0, 0.0, bad)):
            with pytest.raises(OutOfRange):
                contains(regions[0], t)
            for timeshare in (False, True):
                with pytest.raises(OutOfRange):
                    union_membership(regions, t, timeshare)
    huge = RateTriple(1e300, 0.0, 0.0)
    assert not contains(regions[0], huge)
    assert not union_membership(regions, huge) and not union_membership(regions, huge, True)


def test_union_membership_basics():
    r1 = OneShotRegion(1.5, 0.5, 0.5)
    r2 = OneShotRegion(1.0, 1.0, 0.0)
    assert union_membership([r1, r2], RateTriple(0.9, 0.0, 0.0))  # r2 only
    assert union_membership([r1, r2], RateTriple(0.0, 0.75, 0.5))  # r1 only
    assert not union_membership([r1, r2], RateTriple(2.0, 0.0, 5.0))
    with pytest.raises(EmptyInput):
        union_membership([], RateTriple(0, 0, 0))


def test_union_membership_takes_a_plain_tuple():
    # inside the second region, in the pair's hull only, and above both C + 2Q caps
    regions = [OneShotRegion(1.0, 1.0, 0.0), OneShotRegion(1.0, 0.0, 0.5)]
    for t, inside, in_hull in (((0.2, 0.2, 0.0), True, True), ((0.5, 0.25, 0.0), False, True),
                               ((1.0, 0.5, 0.0), False, False)):
        for timeshare, want in ((False, inside), (True, in_hull)):
            assert union_membership(regions, t, timeshare) is want
            assert union_membership(regions, RateTriple(*t), timeshare) is want
    for t in ((0.5, 0.25), (0.5, 0.25, 0.0, 0.0)):
        for timeshare in (False, True):
            with pytest.raises(DimMismatch):
                union_membership(regions, t, timeshare)


def test_union_membership_timeshare_dephasing():
    mus = np.linspace(0.0, 0.5, 11)
    regions = [region_from_state(sigma_for(DEPHASING, float(m))) for m in mus]
    eaq = RateTriple(0.0, CEF_Q, CEF_E)
    hsw = RateTriple(1.0, 0.0, 0.0)
    midpoint = RateTriple(0.5, CEF_Q / 2, CEF_E / 2)
    assert union_membership(regions, eaq)
    assert union_membership(regions, hsw)
    assert not union_membership(regions, midpoint)  # no single region holds it
    assert union_membership(regions, midpoint, timeshare=True)
    # beyond the sum-rate cap even time-sharing fails
    above = RateTriple(I_AXB_DEPH + 0.01, 0.0, 2.0)
    assert not union_membership(regions, above, timeshare=True)


# The region inequalities written out once more, for the scipy oracle below.
ORACLE_A = np.array([[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 2, 0], [0, 1, -1], [1, 1, -1]])


def oracle_b(r):
    return np.array([0.0, 0.0, 0.0, r.i_axb, r.i_coh, r.i_xb + r.i_coh])


def oracle_timeshare(regions, t):
    """t = u + w with u in lam * R_i, w in (1 - lam) * R_j, by scipy's linprog.

    Pairs i == j are included, so membership in a single region is also
    decided by the LP.
    """
    tv = np.array([t.c, t.q, t.e])
    for ri, rj in combinations_with_replacement(regions, 2):
        bi, bj = oracle_b(ri), oracle_b(rj)
        a_ub = np.vstack([np.column_stack([ORACLE_A, -bi]), np.column_stack([-ORACLE_A, bj])])
        b_ub = np.concatenate([np.zeros(6), bj - ORACLE_A @ tv])
        res = linprog(np.zeros(4), A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * 3 + [(0, 1)],
                      method="highs")
        assert res.status in (0, 2), res.message
        if res.status == 0:
            return True
    return False


def vertex_mixtures(regions, lams, rng, n, e_max=2.0):
    """n points lam * v_i + (1 - lam) * v_j for vertices of two different regions."""
    verts = [corner_points(r, e_max) for r in regions]
    points = []
    for k in range(n):
        i, j = rng.choice(len(regions), 2, replace=False)
        vi = verts[i][int(rng.integers(len(verts[i])))].as_array()
        vj = verts[j][int(rng.integers(len(verts[j])))].as_array()
        lam = lams[k % len(lams)]
        points.append(RateTriple(*(lam * vi + (1.0 - lam) * vj)))
    return points


def test_union_timeshare_matches_linprog_on_off_grid_mixtures():
    rng = np.random.default_rng(41)
    lams = (0.123456, 0.654321, 0.0271828, 0.9314159)
    misses = 0
    for p in (0.2, 0.5, 0.8):
        regions = [region_from_state(sigma_for(builtin_isometry("dephasing", p), float(m)))
                   for m in (0.05, 0.15, 0.25, 0.35, 0.45)]
        for t in vertex_mixtures(regions, lams, rng, 40):
            assert oracle_timeshare(regions, t)  # a mixture lies in the hull
            misses += not union_membership(regions, t, timeshare=True)
    assert misses == 0


def random_region(rng):
    i_xb = float(rng.uniform(0.0, 1.0))
    i_coh = float(rng.uniform(-0.5, 0.8))
    return OneShotRegion(i_xb + max(i_coh, 0.0) + float(rng.uniform(0.0, 1.0)), i_xb, i_coh)


def test_union_timeshare_matches_linprog_on_random_regions():
    rng = np.random.default_rng(43)
    answers, negative_coh = [], 0
    for _ in range(12):
        regions = [random_region(rng) for _ in range(int(rng.integers(2, 5)))]
        negative_coh += sum(r.i_coh < 0 for r in regions)
        queries = [RateTriple(*rng.uniform(0.0, (1.5, 1.0, 2.0))) for _ in range(10)]
        queries += vertex_mixtures(regions, (0.123456, 0.654321), rng, 4)
        for t in queries:
            got = union_membership(regions, t, timeshare=True)
            assert got == oracle_timeshare(regions, t), (regions, t)
            answers.append(got)
    assert negative_coh > 0
    assert 0 < sum(answers) < len(answers)



def pairwise_union_reference(regions, t):
    """union_membership(regions, t, timeshare=True) without the bounding-row screen: the
    pair loop as it was before the screen, over every pair of regions."""
    if any(contains(r, t) for r in regions):
        return True
    at = ORACLE_A @ t.as_array()
    return any(_pair_feasible(bi, bj, at)
               for bi, bj in combinations([oracle_b(r) for r in regions], 2))


def count_pair_solves(monkeypatch):
    """A list that gains one entry per _pair_feasible call union_membership makes: the pair
    (b_i, b_j) it solves, as lists."""
    calls = []

    def counted(bi, bj, at):
        calls.append((bi.tolist(), bj.tolist()))
        return _pair_feasible(bi, bj, at)

    monkeypatch.setattr(regions_module, "_pair_feasible", counted)
    return calls


def screen_test_regions(rng, scale):
    """2-6 random regions at `scale`, some with i_coh < 0, maybe a duplicate and a zero."""
    regions = [OneShotRegion(*(scale * np.array(astuple(random_region(rng)))))
               for _ in range(int(rng.integers(2, 6)))]
    if rng.random() < 0.4:
        regions.append(regions[int(rng.integers(len(regions)))])
    if rng.random() < 0.3:
        regions.append(OneShotRegion(0.0, 0.0, 0.0))
    return regions


def boundary_along(regions, t):
    """The last accepted s * t, by bisection of the pair loop on s from s = 1, or None
    when the pair loop rejects t itself or the ray is unbounded (C = Q = 0)."""
    if t.c + t.q == 0 or not pairwise_union_reference(regions, t):
        return None
    lo, hi = 1.0, 2.0
    while pairwise_union_reference(regions, t.scaled(hi)):
        lo, hi = hi, 2 * hi
    for _ in range(40):  # to 2^-40 of s, well inside the 1e-9 probes
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if pairwise_union_reference(regions, t.scaled(mid)) else (lo, mid)
    return t.scaled(lo)


def basic_feasible_reference(a, b):
    """Basic solutions of a @ x <= b over every n-row subset of the m rows, in combinations
    order, that meet every row within _slack's rule on its terms b_k and |a_k| max(|x|, 1),
    each scaled by ROW_REL_TOL before the maximum is taken: a generic enumerator, with no table
    of the subsets that are singular whatever the data, as the reference of _pair_feasible."""
    idx = np.array(list(combinations(range(len(a)), a.shape[1])))
    sub_a = a[idx]
    keep = np.abs(np.linalg.det(sub_a)) >= ARITH_TOL
    x = np.linalg.solve(sub_a[keep], b[idx[keep]][..., None])[..., 0]
    slack = np.maximum(np.maximum(ENTROPIC_TOL, ROW_REL_TOL * abs(b)),
                       ROW_REL_TOL * (abs(x).clip(1) @ abs(a).T))
    return x[np.all(x @ a.T <= b + slack, axis=1)]


def pair_reference(bi, bj, at):
    """_pair_feasible over all 1001 bases: the 14-row pair system built per call."""
    a = np.zeros((14, 4))
    a[:6, :3], a[6:12, :3], a[12:, 3] = ORACLE_A, -ORACLE_A, (-1.0, 1.0)
    a[:6, 3], a[6:12, 3] = -bi, bj
    return len(basic_feasible_reference(a, np.concatenate([np.zeros(6), bj - at, [0.0, 1.0]]))) > 0


def test_pair_bases_are_the_rank_3_subsets():
    # the constant rows: A and -A in u, then -lam <= 0 and lam <= 1; the lam column of the
    # first 12 rows is filled per pair
    a = np.zeros((14, 4))
    a[:6, :3], a[6:12, :3], a[12:, 3] = ORACLE_A, -ORACLE_A, (-1.0, 1.0)
    assert np.array_equal(_PAIR_A, a)
    # a subset is kept iff some 3 of its rows have a nonzero integer determinant in u
    u = ORACLE_A.tolist() + (-ORACLE_A).tolist() + [[0, 0, 0]] * 2
    kept, dropped = [], []
    for rows in combinations(range(14), 4):
        rank3 = any(_det3([u[r] for r in three]) for three in combinations(rows, 3))
        (kept if rank3 else dropped).append(list(rows))
    assert _PAIR_BASES.tolist() == kept and len(kept) == 716 and len(dropped) == 285
    assert all(np.linalg.matrix_rank(_PAIR_A[rows, :3]) < 3 for rows in dropped)
    assert all(np.linalg.matrix_rank(_PAIR_A[rows, :3]) == 3 for rows in kept)


def lam_cofactors():
    """The 4-row subsets of the pair system, in combinations order, and their cofactors along
    the lam column, for those with one nonzero: Laplace on the integer u-rows, row k's cofactor
    (-1)^(k + 3) times the 3x3 minor of the other three u-rows."""
    u = ORACLE_A.tolist() + (-ORACLE_A).tolist() + [[0, 0, 0]] * 2
    kept, cofactors = [], []
    for rows in combinations(range(14), 4):
        cof = [(-1) ** (k + 3) * _det3([u[r] for r in rows if r != rows[k]]) for k in range(4)]
        if any(cof):
            kept.append(list(rows))
            cofactors.append(cof)
    return kept, cofactors


def test_pair_cofactors_expand_the_det_along_lam():
    kept, cofactors = lam_cofactors()
    assert _PAIR_BASES.tolist() == kept and len(kept) == 716
    assert _PAIR_COF.tolist() == cofactors
    assert np.array_equal(_PAIR_COF, np.round(_PAIR_COF)) and _PAIR_COF.any(axis=1).all()


def test_one_pair_solve_is_one_lu_and_no_det(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    shapes, solve = [], np.linalg.solve

    def recorded(m, b):
        shapes.append(m.shape)
        return solve(m, b)

    monkeypatch.setattr(np.linalg, "det", refuse)
    monkeypatch.setattr(np.linalg, "solve", recorded)
    # the midpoint of (1, 0, 0) and (0, 0.5, 0), a vertex of each region, is in neither; this
    # pair's b_i and b_j leave 508 of the 716 bases nonsingular
    regions = [OneShotRegion(1.0, 1.0, 0.0), OneShotRegion(1.0, 0.0, 0.5)]
    t = RateTriple(0.5, 0.25, 0.0)
    assert not any(contains(r, t) for r in regions)
    assert union_membership(regions, t, timeshare=True)
    assert shapes == [(508, 4, 4)]


def test_pair_solve_keeps_the_bases_of_nonzero_exact_det(monkeypatch):
    # on every pair of random regions at scales 1 to 1e100 (duplicates and an all-zero region
    # among them), _pair_feasible solves, float for float, the bases whose det, read exactly
    # from their floats, is nonzero.  Each of these has an LU det of at least ARITH_TOL too;
    # LU keeps a few more, whose exact det is 0 and whose LU det is rounding of terms of order
    # scale, where a region is repeated
    stacks, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda m, b: stacks.append(m) or solve(m, b))
    cofactors = lam_cofactors()[1]
    kept, rounding_only = set(), 0
    for scale in (1.0, 1e4, 1e8, 1e20, 1e50, 1e100):
        rng = np.random.default_rng(int(np.log10(scale)) + 3100)
        for k in range(4):
            regions = screen_test_regions(rng, scale)
            if k == 3:
                regions += [regions[0], OneShotRegion(0.0, 0.0, 0.0)]
            for ri, rj in combinations(regions, 2):
                a = _PAIR_A.copy()
                a[:6, 3], a[6:12, 3] = -oracle_b(ri), oracle_b(rj)
                sub_a = a[_PAIR_BASES]
                exact = np.array([sum(Fraction(x) * c for x, c in zip(m[:, 3].tolist(), cof)) != 0
                                  for m, cof in zip(sub_a, cofactors)])
                by_lu = np.abs(np.linalg.det(sub_a)) >= ARITH_TOL
                _pair_feasible(oracle_b(ri), oracle_b(rj), ORACLE_A @ rng.uniform(0, scale, 3))
                assert np.array_equal(stacks.pop(), sub_a[exact]), (ri, rj)
                assert not (exact & ~by_lu).any(), (ri, rj)
                kept.add(int(exact.sum()))
                rounding_only += int((by_lu & ~exact).sum())
    assert min(kept) < max(kept) == 616  # 100 drop at every pair, more where b has zeros
    assert rounding_only > 0


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e8, 1e20, 1e50, 1e100])
def test_pair_table_answers_as_every_basis(scale):
    # on every pair of random regions (i_coh < 0, duplicates and an all-zero region among
    # them): random points, and pairwise vertex mixtures cut at the pair's boundary along
    # their ray, at 0.999, 1 and 1.001 of it
    rng = np.random.default_rng(int(np.log10(scale)) + 2700)
    answers, kinds = [], []
    for k in range(3):
        regions = screen_test_regions(rng, scale)
        if k == 2:  # at least one duplicate and one all-zero region at every scale
            regions += [regions[0], OneShotRegion(0.0, 0.0, 0.0)]
        kinds.append((len(set(regions)) < len(regions), OneShotRegion(0, 0, 0) in regions,
                      any(r.i_coh < 0 for r in regions)))
        for ri, rj in combinations(regions, 2):
            bi, bj = oracle_b(ri), oracle_b(rj)

            def inside(t):
                return _pair_feasible(bi, bj, ORACLE_A @ t.as_array())

            queries = [RateTriple(*rng.uniform(0.0, (1.5 * scale, scale, 2 * scale)))]
            m = vertex_mixtures([ri, rj], (0.3, 0.7), rng, 1, 3 * scale)[0]
            queries.append(m)
            if m.c + m.q > 0 and inside(m):  # bisect s on the bounded ray s * m from s = 1
                lo, hi = 1.0, 2.0
                while inside(m.scaled(hi)):
                    lo, hi = hi, 2 * hi
                for _ in range(24):
                    mid = (lo + hi) / 2
                    lo, hi = (mid, hi) if inside(m.scaled(mid)) else (lo, mid)
                queries += [m.scaled(lo * f) for f in (0.999, 1.0, 1.001)]
            for t in queries:
                at = ORACLE_A @ t.as_array()
                got = _pair_feasible(bi, bj, at)
                assert got == pair_reference(bi, bj, at), (ri, rj, t)
                answers.append(got)
    assert 0.2 < np.mean(answers) < 0.8
    assert np.any(kinds, axis=0).tolist() == [True, True, True]


def screen_query_sets(seed):
    """Six sets of screen_test_regions at each scale from 1 to 1e8, each with its queries:
    random points, and the rays through pairwise vertex mixtures cut at the pair loop's
    boundary, at 1, 1 +- 1e-9 and 1 +- 1e-3 of it."""
    rng = np.random.default_rng(seed)
    factors = (1.0, 1 - 1e-9, 1 + 1e-9, 1 - 1e-3, 1 + 1e-3)
    for scale in (1.0, 1e2, 1e4, 1e6, 1e8):
        for _ in range(6):
            regions = screen_test_regions(rng, scale)
            queries = [RateTriple(*rng.uniform(0.0, (1.5 * scale, scale, 2 * scale)))
                       for _ in range(4)]
            for m in vertex_mixtures(regions, (0.3, 0.7), rng, 2, 3 * scale):
                edge = boundary_along(regions, m)
                queries += [m] if edge is None else [edge.scaled(f) for f in factors]
            yield regions, queries


def test_union_screen_equals_the_pair_loop(monkeypatch):
    # the screen rejects only queries the pair loop rejects too, at every scale
    calls = count_pair_solves(monkeypatch)
    answers, screened, kinds = [], 0, []
    for regions, queries in screen_query_sets(2040):
        kinds.append((len(set(regions)) < len(regions), OneShotRegion(0, 0, 0) in regions,
                      any(r.i_coh < 0 for r in regions)))
        for t in queries:
            calls.clear()
            got = union_membership(regions, t, timeshare=True)
            screened += not got and not calls
            assert got == pairwise_union_reference(regions, t), (regions, t)
            answers.append(got)
    assert 0.2 < np.mean(answers) < 0.8
    assert screened > 50
    assert all(0 < n < len(kinds) for n in np.sum(kinds, axis=0))  # duplicates, zero, i_coh < 0


def dropped_pairs(bs, calls, got):
    """The pairs (i, j) of union_membership's regions, with constants bs, that the screen
    dropped unsolved, given the `calls` of count_pair_solves and the answer: pairs are tried
    in combinations order and the loop stops at the first feasible one, so a pair is dropped
    if it is not solved and comes before the last solved pair, or the answer is False."""
    pending, dropped = list(calls), []
    for i, j in combinations(range(len(bs)), 2):
        if pending and pending[0] == (bs[i].tolist(), bs[j].tolist()):
            pending.pop(0)
        elif pending or not got:
            dropped.append((i, j))
    assert not pending  # every solve is of a pair, in combinations order
    return dropped


def test_union_pair_screen_drops_only_infeasible_pairs(monkeypatch):
    # the pair-level companion of test_union_screen_equals_the_pair_loop: every pair that the
    # screen drops is one _pair_feasible rejects, at every scale; and the per-pair bound drops
    # pairs of queries that the bound over all regions lets through to the pair loop
    calls = count_pair_solves(monkeypatch)
    dropped, live = 0, 0
    for regions, queries in screen_query_sets(2041):
        bs = [oracle_b(r) for r in regions]
        for t in queries:
            calls.clear()
            got = union_membership(regions, t, timeshare=True)
            at = ORACLE_A @ t.as_array()
            pairs = dropped_pairs(bs, calls, got)
            for i, j in pairs:
                assert not _pair_feasible(bs[i], bs[j], at), (regions, t, i, j)
            dropped += len(pairs)
            live += len(pairs) if calls else 0
    assert dropped > live > 100


def test_union_workload_pair_solve_census(monkeypatch):
    # the pair solves of the benchmark's union workload per query class, and the LAPACK calls
    # over its pool, a timing-free gate on the per-pair bound (the bound over all regions alone
    # makes 716 pair solves on this seed, not 410) and on one LU per pair solve (a det per pair
    # solve, as before the cofactor table, makes 410 det calls, not 0)
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    work = workloads.make("union", 20001)
    work.prepare()
    work.build_pool()
    lapack = dict.fromkeys(("solve", "det"), 0)
    for name in lapack:
        def counted(*args, name=name, call=getattr(np.linalg, name)):
            lapack[name] += 1
            return call(*args)

        monkeypatch.setattr(np.linalg, name, counted)
    calls = count_pair_solves(monkeypatch)
    census = dict.fromkeys(work.CLASSES, 0)
    for i in range(len(work.pool)):
        calls.clear()
        assert work.check(i, work.op(i)) == workloads.OK, work.pool[i]
        census[work.label(i)] += len(calls)
    assert census == {"inside": 0, "hull-grid": 207, "hull-offgrid": 203, "outside": 0}
    assert lapack == {"solve": 410, "det": 0}


def test_union_screen_skips_every_pair_solve_of_an_outside_query(monkeypatch):
    calls = count_pair_solves(monkeypatch)
    regions = [region_from_state(sigma_for(DEPHASING, float(m)))
               for m in np.linspace(0.0, 0.5, 6)]
    assert not union_membership(regions, RateTriple(I_AXB_DEPH + 0.01, 0.0, 2.0), True)
    assert calls == []
    midpoint = RateTriple(0.5, CEF_Q / 2, CEF_E / 2)  # in the hull of two regions only
    assert union_membership(regions, midpoint, timeshare=True)
    assert calls


def pair_margin(ri, rj, t):
    """The largest d for which some lam in [0, 1] and u meet every row of the pair system
    of (ri, rj) with d to spare, by scipy's linprog: d < 0 puts t outside their hull."""
    bi, bj = oracle_b(ri), oracle_b(rj)
    a_ub = np.vstack([np.column_stack([ORACLE_A, -bi]), np.column_stack([-ORACLE_A, bj])])
    res = linprog(np.append(np.zeros(4), -1.0), A_ub=np.column_stack([a_ub, np.ones(12)]),
                  b_ub=np.concatenate([np.zeros(6), bj - ORACLE_A @ t.as_array()]),
                  bounds=[(None, None)] * 3 + [(0, 1), (None, None)], method="highs")
    assert res.status == 0, res.message
    return -res.fun


def test_pair_slack_is_relative():
    # a mixture of two vertices at scale 1e8 that an absolute ENTROPIC_TOL on the pair
    # system rejected
    regions = [OneShotRegion(182893861.6846525, 28075211.8001105, 54964505.7907511),
               OneShotRegion(161022459.55809322, 79691072.57901025, 64102414.99443805)]
    lam = 0.7415827046958466
    t = (lam * np.array([182893861.6846525, 0, 99854144.0937909])
         + (1 - lam) * np.array([126564515.58880338, 17228971.98464492, 0]))
    assert union_membership(regions, RateTriple(*t), timeshare=True)
    # lam near 0: the solve resolves lam to ulps of 1, not of lam, so the rows that scale
    # with lam miss by ulps of b_i
    regions = [OneShotRegion(670694294492.8545, 162542283374.73987, -920008240034.9994),
               OneShotRegion(306983704322.5243, 130155371223.42546, -377500527206.80615)]
    lam = 0.0011450375295914972
    t = (lam * np.array([162542283374.73987, 254076005559.0573, 1174084245594.0566])
         + (1 - lam) * np.array([130155371223.42548, 88414166549.54941, 465914693756.3555]))
    assert not any(contains(r, RateTriple(*t)) for r in regions)
    assert union_membership(regions, RateTriple(*t), timeshare=True)
    # each row's slack is at its own terms, so a huge E loosens no row without E: C = 2 is
    # above both i_axb, which one slack at the pair system's largest entry admitted
    regions = [OneShotRegion(1.0, 0.5, 0.2), OneShotRegion(0.8, 0.3, 0.4)]
    for c, e in ((2.0, 1e15), (2.0, 1e20), (1e5, 1e20), (1.0 + 1e-6, 1e20)):
        assert not union_membership(regions, RateTriple(c, 0.0, e), timeshare=True), (c, e)
    assert union_membership(regions, RateTriple(1.0, 0.0, 1e20), timeshare=True)


@pytest.mark.parametrize("scale", [1e8, 1e10, 1e12])
def test_union_accepts_every_vertex_mixture_at_large_scales(scale):
    # with the absolute ENTROPIC_TOL, 49, 56 and 71 of these 2000 mixtures were rejected
    rng = np.random.default_rng(int(np.log10(scale)))
    for _ in range(2000):
        ri, rj = scaled_region(rng, scale), scaled_region(rng, scale)
        vi, vj = corner_points(ri, 2 * scale), corner_points(rj, 2 * scale)
        lam = rng.uniform()
        t = (lam * vi[rng.integers(len(vi))].as_array()
             + (1 - lam) * vj[rng.integers(len(vj))].as_array())
        assert union_membership([ri, rj], RateTriple(*t), timeshare=True), (ri, rj, t)
        # raising E keeps a point in the hull, however far
        t[2] += 1e12 * scale
        assert union_membership([ri, rj], RateTriple(*t), timeshare=True), (ri, rj, t)
    # the slack is ulps, not a loosening: every point clearly outside stays outside
    outside = 0
    for _ in range(100):
        ri, rj = scaled_region(rng, scale), scaled_region(rng, scale)
        t = RateTriple(*rng.uniform(0.0, (1.5 * scale, scale, 2 * scale)))
        if pair_margin(ri, rj, t) <= -1e-6 * scale:
            outside += 1
            assert not union_membership([ri, rj], t, timeshare=True), (ri, rj, t)
        if t.c + 2 * t.q > max(ri.i_axb, rj.i_axb) + 1e-6 * scale:  # outside at every E
            far = RateTriple(t.c, t.q, t.e + 1e12 * scale)
            assert not union_membership([ri, rj], far, timeshare=True), (ri, rj, far)
    assert outside > 30


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e10, 1e12])
def test_region_rows_slack_is_relative(scale):
    # regions on the boundary i_axb = i_xb + max(i_coh, 0): rounding the scaled constants
    # misses a row by ulps of the scale, which an absolute ENTROPIC_TOL rejected for 141,
    # 161 and 157 of these 2000 at 1e8, 1e10 and 1e12
    rng = np.random.default_rng(int(np.log10(scale)) + 100)
    for _ in range(2000):
        x, c = rng.uniform(0, 1), rng.uniform(-1, 1)
        OneShotRegion(scale * (x + max(c, 0)), scale * x, scale * c)
    # a row violated by 1e-6 of the scale still raises: i_xb >= 0, i_axb >= i_xb and
    # i_axb >= i_xb + i_coh
    d = 1e-6 * scale
    for fields in ((scale, -d, 0.0), (0.5 * scale - d, 0.5 * scale, -0.25 * scale),
                   (0.75 * scale - d, 0.5 * scale, 0.25 * scale)):
        with pytest.raises(InvalidRegion):
            OneShotRegion(*fields)
    # each row's slack is at its own terms: i_xb >= 0 is one term, so a large i_axb does
    # not excuse a negative i_xb
    with pytest.raises(InvalidRegion):
        OneShotRegion(scale, -5e-3, 0.0)


def oracle_hull(regions, t):
    """t in the convex hull of all the regions (k-way time-sharing), by scipy's linprog:
    t = sum_i u_i with A u_i <= lam_i b_i, lam_i >= 0 and sum_i lam_i = 1."""
    k = len(regions)
    a_ub = np.zeros((6 * k, 4 * k))
    for i, r in enumerate(regions):
        a_ub[6 * i:6 * i + 6, 3 * i:3 * i + 3] = ORACLE_A
        a_ub[6 * i:6 * i + 6, 3 * k + i] = -oracle_b(r)
    a_eq = np.zeros((4, 4 * k))
    a_eq[:3, :3 * k] = np.tile(np.eye(3), k)
    a_eq[3, 3 * k:] = 1.0
    res = linprog(np.zeros(4 * k), A_ub=a_ub, b_ub=np.zeros(6 * k), A_eq=a_eq,
                  b_eq=np.append(t.as_array(), 1.0),
                  bounds=[(None, None)] * (3 * k) + [(0, None)] * k, method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


# Three regions whose hull holds t while no pair's hull does (ROADMAP item 2).
HULL_ONLY_REGIONS = [OneShotRegion(0.809, 0.0, 0.046), OneShotRegion(0.474, 0.196, 0.016),
                     OneShotRegion(0.307, 0.0, 0.102)]
HULL_ONLY_T = RateTriple(0.099, 0.176, 0.133)


def test_hull_only_point_passes_the_screen(monkeypatch):
    assert oracle_hull(HULL_ONLY_REGIONS, HULL_ONLY_T)
    assert not oracle_timeshare(HULL_ONLY_REGIONS, HULL_ONLY_T)
    calls = count_pair_solves(monkeypatch)
    got = union_membership(HULL_ONLY_REGIONS, HULL_ONLY_T, timeshare=True)
    assert got is pairwise_union_reference(HULL_ONLY_REGIONS, HULL_ONLY_T) is False
    # not screened out as a whole: the pairs (0, 1) and (1, 2) are solved; (0, 2) is dropped,
    # as C + Q - E = 0.142 is above both its i_xb + i_coh, 0.046 and 0.102
    b0, b1, b2 = (oracle_b(r).tolist() for r in HULL_ONLY_REGIONS)
    assert calls == [(b0, b1), (b1, b2)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_union_membership_is_the_k_way_hull():
    assert union_membership(HULL_ONLY_REGIONS, HULL_ONLY_T, timeshare=True) is True

def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency: the CLI and the exact time-sharing test
    # must run without importing it.
    code = (
        "import contextlib, io, sys\n"
        "from cqekit import cli, regions\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['region', '--channel', 'dephasing:0.2', '--ensemble', 'mu:0.5'])\n"
        "rs = [regions.OneShotRegion(1.5, 0.5, 0.5), regions.OneShotRegion(1.0, 1.0, 0.0)]\n"
        "far = regions.RateTriple(2.0, 0.0, 5.0)\n"
        "print(code, regions.union_membership(rs, far, timeshare=True), 'scipy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cqekit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "False"]


# SHA-256 of the region path's bits for each built-in channel spec: 100 random ensembles of
# 1-4 Haar letters (A and A' of the channel's input dimension) drawn from a seed made of the
# spec's bytes, then mu:0.5 where the input is a qubit.  Each state adds one line: the
# float.hex of its region constants, of every vertex at e_max 2 and of every child.
REGION_PATH_DIGESTS = json.loads(
    (Path(__file__).parent / "golden" / "region-path-sha256.json").read_text())


def region_path_digest(spec):
    iso = _parse_channel(spec)
    d, rng, ensembles = iso.in_dim, np.random.default_rng(list(spec.encode())), []
    for _ in range(100):
        letters = int(rng.integers(1, 5))
        probs = rng.random(letters) + 0.05
        g = rng.standard_normal((letters, 2, d * d))
        vecs = g[:, 0] + 1j * g[:, 1]
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ensembles.append(make_ensemble(list(zip((probs / probs.sum()).tolist(), vecs)), d, d))
    if d == 2:
        ensembles.append(mu_ensemble(0.5))
    digest = hashlib.sha256()
    for ens in ensembles:
        sigma = channel_output_ensemble(ens, iso)
        region = region_from_state(sigma)
        triples = corner_points(region, 2.0) + [t for _, t in sorted(derive_children(sigma).items())]
        values = astuple(region) + tuple(x for t in triples for x in tuple(t))
        digest.update((" ".join(float(x).hex() for x in values) + "\n").encode())
    return digest.hexdigest()


@pytest.mark.parametrize("spec", sorted(REGION_PATH_DIGESTS))
def test_region_path_digests(spec):
    assert region_path_digest(spec) == REGION_PATH_DIGESTS[spec]
