"""Tests for the closed-form curves, surfaces, and polyhedral descriptions."""

import numpy as np
import pytest

from cqekit import closedform as cf
from cqekit.channels import builtin_isometry
from cqekit.entropics import channel_output_ensemble, mu_ensemble
from cqekit.errors import OutOfRange
from cqekit.qlinalg import binary_entropy
from cqekit.regions import RateTriple, cef_point, region_from_state

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


def test_erasure_region_quarter():
    eq1, eq2, eq3 = cf.erasure_region(0.25)
    assert (eq1.c_coef, eq1.q_coef, eq1.e_coef, eq1.const) == (1.0, 2.0, 0.0, 1.5)
    assert eq2.c_coef == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert (eq2.q_coef, eq2.e_coef, eq2.const) == (1.0, -1.0, 0.5)
    assert (eq3.c_coef, eq3.q_coef, eq3.e_coef, eq3.const) == (1.0, 1.25, -0.75, 0.75)


def test_erasure_region_degenerate_cases():
    # epsilon = 0 region contains the noiseless corner points
    hs = cf.erasure_region(0.0)
    for point in (RateTriple(2, 0, 1), RateTriple(0, 1, 0), RateTriple(1, 0, 0)):
        assert all(h.contains(point, tol=1e-12) for h in hs)
    # epsilon = 1 collapses to the depolarizing shape
    hs1 = cf.erasure_region(1.0)
    assert not hs1[0].contains(RateTriple(0.1, 0, 0))
    assert hs1[1].contains(RateTriple(0, 0.5, 0.5))


def test_depolarizing_region():
    hs = cf.depolarizing_region()
    origin = RateTriple(0, 0, 0)
    assert all(h.contains(origin) for h in hs)
    assert not hs[0].contains(RateTriple(0.1, 0.0, 1.0))
    assert not hs[1].contains(RateTriple(0.0, 0.6, 0.5))
    assert not hs[2].contains(RateTriple(0.3, 0.3, 0.5))


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
            assert point.q == pytest.approx(ent.half_i_ab_x, abs=1e-10)
            assert point.e == pytest.approx(ent.half_i_ae_x, abs=1e-10)


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
    from cqekit.regions import SUPER_DENSE, apply_unit

    for mu in (0.1, 0.25, 0.5):
        cef = cf.cef_curve(0.2, mu)
        moved = apply_unit(cef, SUPER_DENSE, cef.q)
        assert moved.as_array() == pytest.approx(
            cf.shor_ce_curve(0.2, mu).as_array(), abs=1e-12
        )
