"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from conftest import dephased_profile, random_ensemble
from cqekit import closedform as cf
from cqekit import bounds
from cqekit.channels import builtin_isometry
from cqekit.cli import main as cli_main
from cqekit.entropics import (
    channel_output_ensemble,
    cond_entropy_A_given_X,
    cond_mutual_A_E_given_X,
    mu_ensemble,
    mutual_AX_B,
    verify_identities,
)
from cqekit.qlinalg import binary_entropy
from cqekit.regions import (
    OneShotRegion,
    cef_point,
    contains,
    corner_points,
    derive_children,
    halfspaces,
    region_from_state,
)

DEPHASING = builtin_isometry("dephasing", 0.2)
DEPOLARIZING = builtin_isometry("depolarizing")


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {number:2d}] {label}: {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def test_criterion_01_dephasing_cef_endpoint():
    sigma = channel_output_ensemble(mu_ensemble(0.5), DEPHASING)
    t = cef_point(sigma)
    ok = abs(t.c) <= 1e-9 and abs(t.q - 0.7655) <= 5e-5 and abs(t.e - 0.2345) <= 5e-5
    report(1, "dephasing CEF endpoint", ok, f"C={t.c:.3g} Q={t.q:.6f} E={t.e:.6f}")


def test_criterion_02_closed_form_matches_matrix_pipeline():
    worst = 0.0
    for mu in np.linspace(0.0, 0.5, 101):
        mu = float(mu)
        sigma = channel_output_ensemble(mu_ensemble(mu), DEPHASING)
        children = derive_children(sigma)
        pairs = (
            (children["CEF"], cf.cef_curve(0.2, mu)),
            (children["CEQ"], cf.ds_curve(0.2, mu)),
            (children["EAC"], cf.shor_ce_curve(0.2, mu)),
        )
        for got, want in pairs:
            worst = max(worst, float(np.max(np.abs(got.as_array() - want.as_array()))))
    for eps in (0.1, 0.25, 0.5, 0.75, 0.9):
        iso = builtin_isometry("erasure", eps)
        for mu in np.linspace(0.0, 0.5, 101):
            mu = float(mu)
            sigma = channel_output_ensemble(mu_ensemble(mu), iso)
            ent = cf.erasure_entropics(eps, mu)
            r = region_from_state(sigma)
            point = cef_point(sigma)
            want = cf.erasure_cef_curve(eps, mu)
            deltas = (
                r.i_xb - ent.i_xb,
                r.i_coh - ent.i_coh,
                r.i_axb - ent.i_axb,
                point.q - want.q,
                point.e - want.e,
            )
            worst = max(worst, float(np.max(np.abs(deltas))))
    ok = worst <= 1e-9
    report(2, "closed-form vs numeric agreement", ok, f"worst={worst:.3g}")


def test_criterion_03_erasure_corner_table():
    table = cf.erasure_table(0.25)
    expected = {
        "EAC": (1.5, 0.0, 1.0),
        "LSD": (0.0, 0.5, 0.0),
        "HSW": (0.75, 0.0, 0.0),
        "EAQ": (0.0, 0.75, 0.25),
    }
    tight_faces = {
        "EAC": {0, 2},
        "LSD": {1},
        "HSW": {1, 2},
        "EAQ": {0, 1, 2},
    }
    a, b = cf.erasure_region(0.25)
    ok = True
    for name, want in expected.items():
        t = table[name]
        ok = ok and max(abs(a - b) for a, b in zip(t.as_array(), want)) <= 1e-12
        for i, slack in enumerate(b - a @ t.as_array()):
            ok = ok and slack >= -1e-12
            if i in tight_faces[name]:
                ok = ok and abs(slack) <= 1e-12
            else:
                ok = ok and slack > 1e-12
    report(3, "erasure corner table at eps=1/4", ok)


def test_criterion_04_depolarizing_triviality():
    rng = np.random.default_rng(20260823)
    worst_axb = worst_xb = worst_coh = 0.0
    for _ in range(20):
        sigma = channel_output_ensemble(random_ensemble(rng), DEPOLARIZING)
        r = region_from_state(sigma)
        worst_axb = max(worst_axb, abs(r.i_axb))
        worst_xb = max(worst_xb, abs(r.i_xb))
        # i_coh <= 0 is the content of the flat region; only its positive part
        # can violate the bounds
        worst_coh = max(worst_coh, r.i_coh)
    ok = worst_axb <= 1e-9 and worst_xb <= 1e-9 and worst_coh <= 1e-9
    report(
        4,
        "completely depolarizing region is flat",
        ok,
        f"i_axb={worst_axb:.3g} i_xb={worst_xb:.3g} i_coh+={worst_coh:.3g}",
    )


def test_criterion_05_child_protocol_algebra():
    rng = np.random.default_rng(515)
    worst = 0.0
    for kind, param in (("dephasing", 0.2), ("erasure", 0.25), ("depolarizing", None), ("identity", None)):
        iso = builtin_isometry(kind, param)
        for _ in range(20):
            sigma = channel_output_ensemble(random_ensemble(rng), iso)
            children = derive_children(sigma)
            r = region_from_state(sigma)
            i_axb = mutual_AX_B(sigma)
            h_ax = cond_entropy_A_given_X(sigma)
            half_ae = 0.5 * cond_mutual_A_E_given_X(sigma)
            targets = {
                "CEQ": (r.i_xb, r.i_coh, 0.0),
                "EAC": (i_axb, 0.0, h_ax),
                "CEF-SD-ED": (r.i_xb + r.i_coh, 0.0, 0.0),
                "CEF-TP": (0.0, 0.5 * i_axb, half_ae + 0.5 * r.i_xb),
            }
            for name, want in targets.items():
                got = children[name].as_array()
                worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
    ok = worst <= 1e-12
    report(5, "child-protocol algebra", ok, f"worst={worst:.3g}")


def test_criterion_06_vertex_enumeration_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    all_vertices_ok = True
    for _ in range(50):
        i_xb = float(rng.uniform(0.2, 1.0))
        i_coh = float(rng.uniform(0.1, 0.8))
        i_axb = i_xb + i_coh + float(rng.uniform(0.1, 1.0))
        r = OneShotRegion(i_axb, i_xb, i_coh)
        bound = i_axb
        vertices = corner_points(r, bound)
        for v in vertices:
            all_vertices_ok = all_vertices_ok and contains(r, v)
        hull = ConvexHull(np.array([v.as_array() for v in vertices]))
        axis = np.linspace(0.0, bound, 101)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        a, b = halfspaces(r, bound)
        feasible = grid[np.all(grid @ a.T <= b + 1e-9, axis=1)]
        # hull facet equations: normal @ x + offset <= 0 inside
        violation = np.max(feasible @ hull.equations[:, :3].T + hull.equations[:, 3], axis=1)
        worst = max(worst, float(np.max(violation)))
    ok = all_vertices_ok and worst <= 1e-6
    report(6, "vertex enumeration vs hull oracle", ok, f"worst={worst:.3g}")


def test_criterion_07_bound_suites_1000_trials():
    trials = 1000
    failures = []

    rng = np.random.default_rng([7, 0])
    for _ in range(trials):
        rho = bounds.random_density(2, rng)
        sigma = bounds.random_density(2, rng)
        if not bounds.check_fannes(rho, sigma).satisfied:
            failures.append("fannes")
            break

    rng = np.random.default_rng([7, 1])
    for _ in range(trials):
        rho = bounds.random_density(4, rng)
        sigma = bounds.random_density(4, rng)
        if not bounds.check_af(rho, sigma, (2, 2)).satisfied:
            failures.append("af")
            break

    rng = np.random.default_rng([7, 2])
    for _ in range(trials):
        rho = bounds.random_density(4, rng)
        sigma = bounds.random_density(4, rng)
        if not bounds.check_mi(rho, sigma, (2, 2)).satisfied:
            failures.append("mi")
            break

    rng = np.random.default_rng([7, 3])
    for _ in range(trials):
        dim = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        ens = [(float(p), bounds.random_density(dim, rng)) for p in probs]
        gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        unitary, _ = np.linalg.qr(gauss)
        x = (unitary * rng.random(dim)) @ unitary.conj().T
        if not bounds.gentle_measurement_check(ens, x).satisfied:
            failures.append("gentle")
            break

    rng = np.random.default_rng([7, 4])
    for _ in range(trials):
        sigma = channel_output_ensemble(random_ensemble(rng), DEPHASING)
        if not all(r.satisfied for r in
                   bounds.dpi_check(sigma.profile, dephased_profile(sigma)).values()):
            failures.append("dpi")
            break
        if max(verify_identities(sigma.profile).values()) > 1e-9:
            failures.append("identities")
            break
        rho = bounds.random_density(8, rng)
        if not bounds.ssa_check(rho, (2, 2, 2)).satisfied:
            failures.append("ssa")
            break

    ok = not failures
    report(7, "bound suites, 1000 trials each", ok, ",".join(failures) or "no violations")


def test_criterion_08_cef_beats_time_sharing():
    mus = np.linspace(0.0, 0.5, 101)[1:-1]
    deph_ok = all(
        dq > 0.0 and de > 0.0
        for dq, de in (cf.cef_vs_timeshare(0.2, float(mu)) for mu in mus)
    )
    erasure_worst = 0.0
    for eps in (0.1, 0.25, 0.4):
        for mu in mus:
            dq, de = cf.erasure_cef_vs_timeshare(eps, float(mu))
            erasure_worst = max(erasure_worst, abs(dq), abs(de))
    ok = deph_ok and erasure_worst <= 1e-9
    report(8, "CEF vs time-sharing", ok, f"erasure residual={erasure_worst:.3g}")


def test_criterion_09_surface_intersection():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 11):
        for mu in np.linspace(0.0, 0.5, 21):
            p, mu = float(p), float(mu)
            e_star = cf.surface_intersection_e(p, mu)
            cef = cf.cef_curve(p, mu).as_array()
            a = cf.ds_surface(p, mu, e_star).as_array()
            b = cf.shor_surface(p, mu, binary_entropy(mu) - e_star).as_array()
            worst = max(worst, float(np.max(np.abs(a - cef))), float(np.max(np.abs(b - cef))))
    ok = worst <= 1e-12
    report(9, "sheets meet on the CEF curve", ok, f"worst={worst:.3g}")


GOLDEN_COMMANDS = (
    ("region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.5", "--format", "json"),
    ("region", "--channel", "erasure:0.25", "--ensemble", "mu:0.5", "--format", "csv"),
    ("region", "--channel", "depolarizing", "--ensemble", "mu:0.3", "--format", "csv"),
    ("curve", "cef", "--p", "0.2", "--grid", "0:0.5:51"),
    ("curve", "ds", "--p", "0.2", "--grid", "0:0.5:51", "--format", "json"),
    ("curve", "ce", "--p", "0.2", "--grid", "0:0.5:51"),
    ("compare", "--p", "0.2", "--grid", "0:0.5:26"),
    ("compare", "--channel", "erasure:0.25", "--grid", "0:0.5:26"),
    ("compare", "--p", "0.2", "--grid", "0:0.5:26", "--format", "json"),
    ("compare", "--channel", "erasure:0.25", "--grid", "0:0.5:26", "--format", "json"),
    ("region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.5", "--format", "csv"),
    ("check", "--suite", "identities", "--trials", "5", "--seed", "7"),
    ("check", "--suite", "all", "--trials", "20", "--seed", "1"),
)

# Pinned stdout (<name>.out) and exit codes (exit_codes.json) of every golden
# command.  They change only with an intended change of the printed output.
GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_name(argv) -> str:
    return re.sub(r"[^A-Za-z0-9.]+", "-", " ".join(argv)).strip("-")


def _capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    return code, out.getvalue().encode()


def test_criterion_10_cli_determinism():
    codes = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())
    changed = []
    for argv in GOLDEN_COMMANDS:
        name = golden_name(argv)
        pin = (codes[name], (GOLDEN_DIR / f"{name}.out").read_bytes())
        # a second call in the same process must print the same bytes again
        if not _capture(argv) == _capture(argv) == pin:
            changed.append(name)
    report(10, "CLI determinism against the golden pins", not changed,
           ", ".join(changed) or f"{len(GOLDEN_COMMANDS)} golden commands")
