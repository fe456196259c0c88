"""Tests for rate polytopes, vertex enumeration, and unit-resource arithmetic."""

import os
import subprocess
import sys
import warnings
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import lu
from scipy.optimize import linprog

import cqekit
from conftest import random_ensemble
from cqekit.channels import builtin_isometry
from cqekit.entropics import channel_output_ensemble, mu_ensemble
from cqekit.errors import FLOAT_MAX, EmptyInput, InvalidRegion, NegativeRate, OutOfRange
from cqekit.regions import (
    ARITH_TOL,
    E_MAX_LIMIT,
    ENT_DISTRIBUTION,
    SINGULAR_TOL,
    VERTEX_DEDUP_TOL,
    VERTEX_FEAS_TOL,
    SUPER_DENSE,
    TELEPORTATION,
    OneShotRegion,
    RateTriple,
    _basic_feasible,
    apply_unit,
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


def test_unit_protocol_table():
    assert TELEPORTATION == RateTriple(-2.0, 1.0, 1.0)
    assert SUPER_DENSE == RateTriple(2.0, -1.0, 1.0)
    assert ENT_DISTRIBUTION == RateTriple(0.0, -1.0, -1.0)


def test_teleportation_and_super_dense_cancel():
    t = RateTriple(3.0, 1.0, 0.5)
    roundtrip = apply_unit(apply_unit(t, TELEPORTATION, 1.0), SUPER_DENSE, 1.0)
    assert roundtrip.c == pytest.approx(t.c)
    assert roundtrip.q == pytest.approx(t.q)
    assert roundtrip.e == pytest.approx(t.e + 2.0)  # both consume one ebit


def test_apply_unit_rejects_negative_rate():
    with pytest.raises(NegativeRate):
        apply_unit(RateTriple(0, 0, 0), SUPER_DENSE, -0.5)


def test_one_shot_region_invariants():
    OneShotRegion(1.5, 0.5, 0.5)
    with pytest.raises(InvalidRegion):
        OneShotRegion(1.0, -0.5, 0.0)
    with pytest.raises(InvalidRegion):
        OneShotRegion(0.5, 1.0, 0.0)  # i_axb below i_xb
    with pytest.raises(InvalidRegion):
        OneShotRegion(1.0, 0.5, 0.8)  # i_axb below i_xb + i_coh


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
        assert contains(r, v, tol=1e-9)


def test_corner_points_degenerate_region():
    verts = corner_points(OneShotRegion(0.0, 0.0, 0.0), 1.0)
    arr = np.array([v.as_array() for v in verts])
    # only the E axis survives
    assert np.all(np.abs(arr[:, :2]) < 1e-9)
    with pytest.raises(OutOfRange):
        corner_points(OneShotRegion(1.0, 0.5, 0.5), -1.0)


def test_e_max_limit_derivation():
    # per unit |b_k|, the largest |entry| of each LU intermediate, of x = A_S^-1 b_S and of
    # each partial sum of a row product, over the nonsingular 3-row bases of the seven rows
    a, _ = halfspaces(OneShotRegion(0.0, 0.0, 0.0), 1.0)
    worst = 0.0
    for rows in combinations(range(7), 3):
        m = a[list(rows)]
        if abs(np.linalg.det(m)) < SINGULAR_TOL:
            continue
        perm, lower, upper = lu(m)
        for b in np.eye(3):
            y, x = np.linalg.solve(lower, perm.T @ b), np.linalg.solve(m, b)
            bounds = (y, np.abs(lower) @ np.abs(y), x, np.abs(upper) @ np.abs(x),
                      np.abs(a) @ np.abs(x))
            worst = max(worst, *(float(np.max(np.abs(v))) for v in bounds))
    assert worst == 4.0
    assert 4 * E_MAX_LIMIT <= FLOAT_MAX / 2


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


def _reference_corner_points(r, e_max):
    """Dedup by a loop over the kept points, then a sort on tuples."""
    found = []
    for x in _basic_feasible(*halfspaces(r, e_max), VERTEX_FEAS_TOL):
        if not any(np.max(np.abs(x - y)) <= VERTEX_DEDUP_TOL for y in found):
            found.append(x)
    found.sort(key=tuple)
    return [RateTriple(*x) for x in found]


def _bits(verts):
    return [tuple(float(x).hex() for x in (v.c, v.q, v.e)) for v in verts]


def test_corner_points_equals_loop_reference():
    rng = np.random.default_rng(2024)
    cases = [(OneShotRegion(0.0, 0.0, 0.0), e) for e in (0.0, 1.0)]
    # e_max = VERTEX_DEDUP_TOL: (0, 0, 0) and (0, 0, e_max) are exactly that far apart
    cases += [(OneShotRegion(1.0, 0.5, 0.0), e) for e in (0.0, VERTEX_DEDUP_TOL, 2.0)]
    # a chain of three solutions under 1.75e-7 apart: the first-kept rule keeps
    # the third, which a rule dropping anything near any earlier solution loses
    cases.append((OneShotRegion(1.0000002701835853, 0.5000001882421155, 0.5), 1.7486e-7))
    # i_coh < 0 and i_axb a few VERTEX_DEDUP_TOL above i_xb: the vertices at
    # C = i_xb (E = -i_coh) and C = i_axb are near-tied, merged or not by the dedup
    for gap in (0.0, 1e-9, 5e-8, 1e-7, 1.5e-7, 3e-7):
        for i_coh in (-0.5, -1e-8):
            r = OneShotRegion(1.0 + gap, 1.0, i_coh)
            cases += [(r, e) for e in (0.0, -i_coh, 2.0)]
    for _ in range(400):
        i_xb, i_coh = rng.uniform(0, 2), rng.uniform(-1, 1)
        e_max = rng.choice([0.0, 0.5, 2.0, rng.uniform(0, 3e-7)])
        if rng.random() < 0.5:  # within 3e-7 of a coarse grid: (near-)coincidences
            i_xb = rng.integers(0, 5) / 4 + rng.uniform(0, 3e-7)
            i_coh = rng.integers(-4, 5) / 4 + rng.uniform(-3e-7, 3e-7)
        i_axb = max(i_xb, i_xb + i_coh) + rng.choice([0.0, 1e-8, rng.uniform(0, 1)])
        cases.append((OneShotRegion(i_axb, i_xb, i_coh), e_max))
    for r, e_max in cases:
        assert _bits(corner_points(r, e_max)) == _bits(_reference_corner_points(r, e_max))


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
                assert contains(r, t, tol=1e-9), (iso, name, t)


def test_gf1_face_is_entanglement_invariant():
    # moving along +E never relaxes the C + 2Q cap
    r = OneShotRegion(1.5, 0.5, 0.5)
    for e in (0.0, 1.0, 7.5):
        assert not contains(r, RateTriple(0.51, 0.5, e))


def test_union_membership_basics():
    r1 = OneShotRegion(1.5, 0.5, 0.5)
    r2 = OneShotRegion(1.0, 1.0, 0.0)
    assert union_membership([r1, r2], RateTriple(0.9, 0.0, 0.0))  # r2 only
    assert union_membership([r1, r2], RateTriple(0.0, 0.75, 0.5))  # r1 only
    assert not union_membership([r1, r2], RateTriple(2.0, 0.0, 5.0))
    with pytest.raises(EmptyInput):
        union_membership([], RateTriple(0, 0, 0))


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


def vertex_mixtures(regions, lams, rng, n):
    """n points lam * v_i + (1 - lam) * v_j for vertices of two different regions."""
    verts = [corner_points(r, 2.0) for r in regions]
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
