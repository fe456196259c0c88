"""Tests for the closed-form curves, surfaces, and polyhedral descriptions."""

import math
from functools import partial

import numpy as np
import pytest

from cqekit import closedform as cf
from cqekit.channels import builtin_isometry
from cqekit.entropics import channel_output_ensemble, mu_ensemble
from cqekit.errors import OutOfRange
from cqekit.qlinalg import binary_entropy
from cqekit.regions import E_MAX_LIMIT, OneShotRegion, RateTriple, cef_point, halfspaces
from cqekit.regions import region_from_state

H2_09 = 0.4689955935892812
H2_025 = 0.8112781244591328
G_02_025 = 0.9272001872658766
H2_G_02_025 = 0.37628619246068096


def test_g_values():
    assert cf.g(0.0, 0.3) == 1.0
    assert cf.g(0.7, 0.0) == 1.0
    assert cf.g(0.2, 0.5) == pytest.approx(0.9, abs=1e-14)
    assert cf.g(0.2, 0.25) == pytest.approx(G_02_025, abs=1e-14)
    # p = 1, mu = 1/2 gives flip probability 1/2, i.e. radicand 0
    assert cf.g(1.0, 0.5) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(OutOfRange):
        cf.g(1.2, 0.3)
    with pytest.raises(OutOfRange):
        cf.g(0.2, 0.7)


def test_g_array_is_bit_equal_to_scalar_calls():
    rng = np.random.default_rng(8)
    p = [0.0, 1.0, 0.2, 2.0**-53, 1.0 - 2.0**-53, *rng.uniform(size=200)]
    mu = np.concatenate([[0.0, 0.5, 5e-324, 2.0**-53, 0.5 - 2.0**-54], rng.uniform(0, 0.5, 200)])
    for param in p:
        batch = cf.g(param, mu).tolist()
        assert [x.hex() for x in batch] == [cf.g(param, m).hex() for m in mu.tolist()]
        # each value is the libm float arithmetic of g
        radicands = [1.0 - 16.0 * (param / 2.0) * (1.0 - param / 2.0) * m * (1.0 - m)
                     for m in mu.tolist()]
        assert batch == [0.5 + 0.5 * math.sqrt(max(r, 0.0)) for r in radicands]
    assert all(type(cf.g(param, m)) is float for param in p[:5] for m in mu[:5].tolist())


def test_g_radicand_is_at_least_minus_rounding():
    # over [0, 1] x [0, 1/2] the computed product 16 (p/2)(1 - p/2) mu (1 - mu) is at most
    # 1 + 7e-16, so g's clamp at 0 takes off rounding only: its corners, a grid and 1e5
    # random points, with the points next to p = 1, mu = 1/2 where the radicand is 0
    rng = np.random.default_rng(28)
    corners = np.array([[0.0, 0.0], [0.0, 0.5], [1.0, 0.0], [1.0, 0.5]])
    p, mu = np.meshgrid(np.linspace(0.0, 1.0, 401), np.linspace(0.0, 0.5, 401))
    near = 1.0 - rng.uniform(0.0, 1e-6, (10**5, 2)) * (1.0, 0.5)
    points = np.concatenate([corners, np.stack([p.ravel(), mu.ravel()], axis=1),
                             rng.uniform(0.0, 1.0, (10**5, 2)) * (1.0, 0.5), near * (1.0, 0.5)])
    p, mu = points.T
    radicand = 1.0 - 16.0 * (p / 2.0) * (1.0 - p / 2.0) * mu * (1.0 - mu)
    assert radicand.min() >= -1e-15
    assert radicand[3] == 0.0 and cf.g(1.0, 0.5) == 0.5
    # g computes that radicand: its value at every 97th point, float by float
    for param, m, r in zip(p[::97].tolist(), mu[::97].tolist(), radicand[::97].tolist()):
        assert cf.g(param, m) == 0.5 + 0.5 * math.sqrt(max(r, 0.0))


def test_curve_endpoints():
    # mu = 0: classical operation only
    assert cf.ds_curve(0.2, 0.0).as_array() == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)
    assert cf.cef_curve(0.2, 0.0).as_array() == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)
    assert cf.shor_ce_curve(0.2, 0.0).as_array() == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)
    # mu = 1/2: fully quantum operation
    assert cf.ds_curve(0.2, 0.5).as_array() == pytest.approx(
        [0.0, 1.0 - H2_09, 0.0], abs=1e-14
    )
    assert cf.cef_curve(0.2, 0.5).as_array() == pytest.approx(
        [0.0, 1.0 - 0.5 * H2_09, 0.5 * H2_09], abs=1e-14
    )
    assert cf.shor_ce_curve(0.2, 0.5).as_array() == pytest.approx(
        [2.0 - H2_09, 0.0, 1.0], abs=1e-14
    )


def test_cef_curve_interior_point():
    t = cf.cef_curve(0.2, 0.25)
    assert t.c == pytest.approx(1.0 - H2_025, abs=1e-14)
    assert t.q == pytest.approx(H2_025 - 0.5 * H2_G_02_025, abs=1e-14)
    assert t.e == pytest.approx(0.5 * H2_G_02_025, abs=1e-14)


def test_curves_match_matrix_pipeline():
    for mu in (0.1, 0.25, 0.4):
        sigma = channel_output_ensemble(mu_ensemble(mu), builtin_isometry("dephasing", 0.2))
        got = cef_point(sigma)
        want = cf.cef_curve(0.2, mu)
        assert got.as_array() == pytest.approx(want.as_array(), abs=1e-10)


def test_surfaces_reduce_to_curves_at_their_base():
    for mu in (0.1, 0.3, 0.5):
        assert cf.ds_surface(0.2, mu, 0.0).as_array() == pytest.approx(
            cf.ds_curve(0.2, mu).as_array(), abs=1e-14
        )
        base = cf.shor_ce_curve(0.2, mu)
        assert cf.shor_surface(0.2, mu, 0.0).as_array() == pytest.approx(
            base.as_array(), abs=1e-14
        )
    with pytest.raises(OutOfRange):
        cf.ds_surface(0.2, 0.3, -0.1)


def test_surfaces_bound_e_so_every_coordinate_is_finite():
    # e = inf gave ds_surface Q = E = inf, and e = 1e308 gave shor_surface C = -inf
    for surface in (cf.ds_surface, cf.shor_surface):
        assert np.all(np.isfinite(surface(0.2, 0.3, E_MAX_LIMIT).as_array()))
        for e in (math.nextafter(E_MAX_LIMIT, math.inf), math.inf, math.nan):
            with pytest.raises(OutOfRange):
                surface(0.2, 0.3, e)


def test_surfaces_intersect_on_cef_curve():
    for p in (0.05, 0.2, 0.6, 0.95):
        for mu in np.linspace(0.0, 0.5, 11):
            mu = float(mu)
            e_star = cf.surface_intersection_e(p, mu)
            cef = cf.cef_curve(p, mu)
            a = cf.ds_surface(p, mu, e_star)
            b = cf.shor_surface(p, mu, binary_entropy(mu) - e_star)
            assert a.as_array() == pytest.approx(cef.as_array(), abs=1e-12)
            assert b.as_array() == pytest.approx(cef.as_array(), abs=1e-12)
            assert a.e == pytest.approx(e_star, abs=1e-15)
            assert b.e == pytest.approx(e_star, abs=1e-12)


def test_solid_plane_bound():
    assert cf.solid_plane_bound(0.0) == 2.0
    assert cf.solid_plane_bound(0.2) == pytest.approx(2.0 - H2_09, abs=1e-14)
    # equals the sum-rate constant of the mu = 1/2 one-shot region
    r = region_from_state(
        channel_output_ensemble(mu_ensemble(0.5), builtin_isometry("dephasing", 0.2))
    )
    assert cf.solid_plane_bound(0.2) == pytest.approx(r.i_axb, abs=1e-10)


def inside(region, t, tol=1e-12):
    """Per row of an (A, b) region: does t satisfy A @ t <= b within tol?"""
    a, b = region
    return a @ t.as_array() <= b + tol


def test_erasure_region_quarter():
    a, b = cf.erasure_region(0.25)
    assert a.shape == (3, 3) and b.shape == (3,)
    assert (*a[0], b[0]) == (1.0, 2.0, 0.0, 1.5)
    assert a[1, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert (a[1, 1], a[1, 2], b[1]) == (1.0, -1.0, 0.5)
    assert (*a[2], b[2]) == (1.0, 1.25, -0.75, 0.75)


def test_erasure_region_degenerate_cases():
    # epsilon = 0 region contains the noiseless corner points
    hs = cf.erasure_region(0.0)
    for point in (RateTriple(2, 0, 1), RateTriple(0, 1, 0), RateTriple(1, 0, 0)):
        assert inside(hs, point).all()
    # epsilon = 1 collapses to the depolarizing shape
    hs1 = cf.erasure_region(1.0)
    assert not inside(hs1, RateTriple(0.1, 0, 0))[0]
    assert inside(hs1, RateTriple(0, 0.5, 0.5))[1]


def test_depolarizing_region():
    hs = cf.depolarizing_region()
    origin = RateTriple(0, 0, 0)
    assert inside(hs, origin).all()
    assert not inside(hs, RateTriple(0.1, 0.0, 1.0))[0]
    assert not inside(hs, RateTriple(0.0, 0.6, 0.5))[1]
    assert not inside(hs, RateTriple(0.3, 0.3, 0.5))[2]
    a, b = hs
    a[:], b[:] = 7.0, 7.0  # the caller's own arrays: no later region changes
    a, b = cf.depolarizing_region()
    assert a.tolist() == [[1, 2, 0], [0, 1, -1], [1, 1, -1]] and b.tolist() == [0, 0, 0]
    # rows 3-5 of every one-shot region
    assert halfspaces(OneShotRegion(1.0, 0.5, 0.2), 1.0)[0][3:6].tolist() == a.tolist()


def test_erasure_table_values():
    t0 = cf.erasure_table(0.0)
    assert t0["EAC"] == RateTriple(2.0, 0.0, 1.0)
    assert t0["LSD"] == RateTriple(0.0, 1.0, 0.0)
    t = cf.erasure_table(0.25)
    assert t["EAC"] == RateTriple(1.5, 0.0, 1.0)
    assert t["LSD"] == RateTriple(0.0, 0.5, 0.0)
    assert t["HSW"] == RateTriple(0.75, 0.0, 0.0)
    assert t["EAQ"] == RateTriple(0.0, 0.75, 0.25)
    # unassisted quantum rate clamps at epsilon = 1/2
    assert cf.erasure_table(0.7)["LSD"].q == 0.0


def test_erasure_entropics_closed_form_vs_pipeline():
    for eps in (0.1, 0.3):
        iso = builtin_isometry("erasure", eps)
        for mu in (0.1, 0.37, 0.5):
            ent = cf.erasure_entropics(eps, mu)
            sigma = channel_output_ensemble(mu_ensemble(mu), iso)
            r = region_from_state(sigma)
            assert r.i_xb == pytest.approx(ent.i_xb, abs=1e-10)
            assert r.i_coh == pytest.approx(ent.i_coh, abs=1e-10)
            assert r.i_axb == pytest.approx(ent.i_axb, abs=1e-10)
            point = cef_point(sigma)
            want = cf.erasure_cef_curve(eps, mu)
            assert point.q == pytest.approx(want.q, abs=1e-10)
            assert point.e == pytest.approx(want.e, abs=1e-10)


def test_erasure_entropics_degenerate_mu():
    ent = cf.erasure_entropics(0.25, 0.0)
    assert ent.i_coh == 0.0
    assert ent.i_xb == pytest.approx(0.75, abs=1e-14)
    assert ent.i_axb == pytest.approx(0.75, abs=1e-14)


def test_erasure_cef_curve_is_on_timeshare_line():
    # the erasure CEF point is exactly a mixture of the HSW and EAQ corners
    for eps in (0.1, 0.25, 0.4):
        table = cf.erasure_table(eps)
        for mu in np.linspace(0.0, 0.5, 11):
            mu = float(mu)
            lam = binary_entropy(mu)
            mix = cf.timeshare_line(table["EAQ"], table["HSW"], lam)
            assert cf.erasure_cef_curve(eps, mu).as_array() == pytest.approx(
                mix.as_array(), abs=1e-12
            )


def test_eac_erasure_mutual_info():
    assert cf.eac_erasure_mutual_info(0.5, 0.25) == pytest.approx(1.5, abs=1e-14)
    assert cf.eac_erasure_mutual_info(0.0, 0.25) == 0.0
    grid = np.linspace(0.0, 1.0, 201)
    vals = [cf.eac_erasure_mutual_info(float(x), 0.25) for x in grid]
    assert grid[int(np.argmax(vals))] == pytest.approx(0.5, abs=1e-12)


def test_timeshare_line():
    a = RateTriple(1, 0, 0)
    b = RateTriple(0, 1, 1)
    mid = cf.timeshare_line(a, b, 0.5)
    assert mid.as_array() == pytest.approx([0.5, 0.5, 0.5], abs=1e-15)
    assert cf.timeshare_line(a, b, 1.0) == a
    assert cf.timeshare_line(a, b, 0.25).c == pytest.approx(0.25)
    assert cf.timeshare_line(b, a, 0.25).q == pytest.approx(0.25)
    with pytest.raises(OutOfRange):
        cf.timeshare_line(a, b, 1.5)


def test_cef_vs_timeshare_dephasing():
    dq, de = cf.cef_vs_timeshare(0.2, 0.25)
    assert dq > 0.0 and de > 0.0
    assert dq == pytest.approx(0.0020998365430144883, abs=1e-12)
    # endpoints are ties
    dq0, de0 = cf.cef_vs_timeshare(0.2, 0.0)
    assert abs(dq0) < 1e-14 and abs(de0) < 1e-14
    dq1, de1 = cf.cef_vs_timeshare(0.2, 0.5)
    assert abs(dq1) < 1e-14 and abs(de1) < 1e-14


def test_cef_vs_timeshare_erasure_is_tie():
    for eps in (0.1, 0.25, 0.4):
        for mu in (0.1, 0.3, 0.5):
            dq, de = cf.erasure_cef_vs_timeshare(eps, mu)
            assert abs(dq) < 1e-12 and abs(de) < 1e-12


def test_cef_curve_monotone_along_mu():
    mus = np.linspace(0.0, 0.5, 51)
    pts = [cf.cef_curve(0.2, float(m)) for m in mus]
    cs = [t.c for t in pts]
    es = [t.e for t in pts]
    assert all(a >= b - 1e-12 for a, b in zip(cs, cs[1:]))  # C decreasing
    assert all(b >= a - 1e-12 for a, b in zip(es, es[1:]))  # E increasing


def test_cef_plus_super_dense_reaches_ce_curve():
    # spending the remaining qubits on super-dense coding lands on the CE curve
    from cqekit.regions import SUPER_DENSE

    for mu in (0.1, 0.25, 0.5):
        cef = cf.cef_curve(0.2, mu)
        moved = cef + SUPER_DENSE.scaled(cef.q)
        assert moved.as_array() == pytest.approx(
            cf.shor_ce_curve(0.2, mu).as_array(), abs=1e-12
        )


def test_scalar_calls_return_floats():
    # a float mu is a batch of one: every field is a Python float
    for t in (cf.ds_curve(0.2, 0.1), cf.cef_curve(0.2, 0.1), cf.shor_ce_curve(0.2, 0.1),
              cf.erasure_cef_curve(0.25, 0.1)):
        assert {type(t.c), type(t.q), type(t.e)} == {float}
    assert {type(x) for x in cf.compare_row(cf.cef_curve, 0.2, 0.1)} == {float}
    assert type(cf.g(0.2, 0.1)) is float


_RNG = np.random.default_rng(20)
RANDOM_P, RANDOM_EPS = (float(x) for x in _RNG.uniform(size=2))
RANDOM_SIZE = int(_RNG.integers(3, 3000))


def grids():
    """The mu grids of the bit-identity tests: linspace grids of 2, 101 and 1001
    points, and RANDOM_SIZE seeded uniform points with both ends."""
    yield from (np.linspace(0.0, 0.5, n) for n in (2, 101, 1001))
    yield np.concatenate([[0.0, 0.5], np.random.default_rng(21).uniform(0.0, 0.5, RANDOM_SIZE)])


def hex_columns(fields, n):
    """float.hex of n values of each field, an array or a float shared by every point."""
    return [[x.hex() for x in np.broadcast_to(f, n).tolist()] for f in fields]


def assert_batch_equals_loop(func, param, mus):
    """func(param, mus) equals, bit for bit, func(param, mu) at each mu in turn."""
    batch, loop = func(param, mus), [func(param, mu) for mu in mus.tolist()]
    if isinstance(batch, RateTriple):
        batch, loop = (batch.c, batch.q, batch.e), [(t.c, t.q, t.e) for t in loop]
    assert hex_columns(batch, len(mus)) == [[x.hex() for x in col] for col in zip(*loop)]


@pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 1.0, RANDOM_P])
def test_batched_dephasing_curves_equal_scalar_loop(p):
    for mus in grids():
        for curve in (cf.ds_curve, cf.cef_curve, cf.shor_ce_curve):
            assert_batch_equals_loop(curve, p, mus)
        assert_batch_equals_loop(partial(cf.compare_row, cf.cef_curve), p, mus)


@pytest.mark.parametrize("eps", [0.0, 0.25, 1.0, RANDOM_EPS])
def test_batched_erasure_curve_equals_scalar_loop(eps):
    for mus in grids():
        assert_batch_equals_loop(cf.erasure_cef_curve, eps, mus)
        assert_batch_equals_loop(partial(cf.compare_row, cf.erasure_cef_curve), eps, mus)
