"""Command-line front end: deterministic CSV/JSON emissions for the toolkit.

Subcommands: region (one-shot constants, vertices, children), curve
(dephasing trade-off curves), compare (CEF vs time-sharing), check
(property sweeps of identities and bounds).  Exit codes: 0 success,
1 check failure, 2 config/parse error, 3 dimension error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import bounds, closedform
from .channels import builtin_isometry, isometric_extension, load_channel
from .entropics import (
    IDENTITY_TOL,
    CQEnsemble,
    channel_output_ensemble,
    load_ensemble,
    mu_ensemble,
    verify_identities,
)
from .errors import FLOAT_MAX, CQEKitError, DimMismatch, OutOfRange, SpecFormatError, check_range
from .qlinalg import binary_entropy
from .regions import corner_points, derive_children, region_from_state

SCHEMA_VERSION = 1
DEFAULT_PRECISION = 12


def fmt(x: float, precision: int = DEFAULT_PRECISION) -> str:
    """Fixed significant-digit decimal formatting (round-half-even)."""
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.{precision}g}"


def _env_precision() -> int:
    """Significant digits of printed numbers, from CQEKIT_PRECISION."""
    raw = os.environ.get("CQEKIT_PRECISION", str(DEFAULT_PRECISION))
    try:
        digits = int(raw)
    except ValueError:
        raise SpecFormatError(f"CQEKIT_PRECISION must be an integer, got {raw!r}") from None
    return check_range("CQEKIT_PRECISION", digits, 0, FLOAT_MAX)


def _channel_spec(spec: str) -> tuple[str, float | None, int]:
    """(kind, parameter, dimension) of 'dephasing:P', 'erasure:EPS[:D]',
    'depolarizing[:D]' or 'identity[:D]'."""
    parts = spec.split(":")
    kind = parts[0]
    if kind in ("dephasing", "erasure"):
        if len(parts) < 2:
            raise SpecFormatError(f"{kind} requires a parameter, e.g. {kind}:0.2")
        return kind, float(parts[1]), int(parts[2]) if len(parts) > 2 else 2
    if kind in ("depolarizing", "identity"):
        return kind, None, int(parts[1]) if len(parts) > 1 else 2
    raise SpecFormatError(f"unknown channel spec {spec!r}")


def _parse_channel(spec: str):
    """Channel argument: a built-in spec (see `_channel_spec`) or a path to a
    JSON channel spec."""
    if os.path.exists(spec):
        return isometric_extension(load_channel(spec)), spec
    return builtin_isometry(*_channel_spec(spec)), spec


def _parse_ensemble(spec: str) -> tuple[CQEnsemble, str]:
    """Ensemble argument: 'mu:X' for the built-in two-letter family, or a path."""
    if spec.startswith("mu:"):
        return mu_ensemble(float(spec.split(":", 1)[1])), spec
    if os.path.exists(spec):
        return load_ensemble(spec), spec
    raise SpecFormatError(f"unknown ensemble spec {spec!r}")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise SpecFormatError(f"grid must be start:stop:count, got {spec!r}") from exc
    check_range("grid start", start, -FLOAT_MAX, FLOAT_MAX)
    check_range("grid stop", stop, -FLOAT_MAX, FLOAT_MAX)
    if count < 2:
        raise SpecFormatError(f"grid count {count} must be at least 2")
    return np.linspace(start, stop, count)


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header, rows, comments=()) -> str:
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_region(args) -> int:
    digits = args.precision
    iso, channel_name = _parse_channel(args.channel)
    ens, ensemble_name = _parse_ensemble(args.ensemble)
    sigma = channel_output_ensemble(ens, iso)
    region = region_from_state(sigma)
    vertices = corner_points(region, args.e_max)
    children = derive_children(sigma)
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "region",
            "channel": channel_name,
            "ensemble": ensemble_name,
            "e_max": float(args.e_max),
            "region": {
                "i_axb": fmt(region.i_axb, digits),
                "i_xb": fmt(region.i_xb, digits),
                "i_coh": fmt(region.i_coh, digits),
            },
            "vertices": [[fmt(v.c, digits), fmt(v.q, digits), fmt(v.e, digits)]
                         for v in vertices],
            "children": {
                name: [fmt(t.c, digits), fmt(t.q, digits), fmt(t.e, digits)]
                for name, t in sorted(children.items())
            },
        }
        _write(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        rows = [
            ("constant", "i_axb", fmt(region.i_axb, digits), "", ""),
            ("constant", "i_xb", fmt(region.i_xb, digits), "", ""),
            ("constant", "i_coh", fmt(region.i_coh, digits), "", ""),
        ]
        rows += [
            ("vertex", str(i), fmt(v.c, digits), fmt(v.q, digits), fmt(v.e, digits))
            for i, v in enumerate(vertices)
        ]
        rows += [
            ("child", name, fmt(t.c, digits), fmt(t.q, digits), fmt(t.e, digits))
            for name, t in sorted(children.items())
        ]
        _write(_csv_text(("record", "name", "c", "q", "e"), rows), args.output)
    return 0


CURVES = {
    "ds": ("DS", closedform.ds_curve),
    "cef": ("CEF", closedform.cef_curve),
    "ce": ("SHOR_CE", closedform.shor_ce_curve),
}


def cmd_curve(args) -> int:
    digits = args.precision
    if args.curve not in CURVES:
        raise SpecFormatError(f"unknown curve {args.curve!r}")
    name, func = CURVES[args.curve]
    grid = _parse_grid(args.grid)
    bound = closedform.solid_plane_bound(args.p)
    rows = []
    for mu in grid:
        t = func(args.p, float(mu))
        rows.append(
            (fmt(float(mu), digits), fmt(t.c, digits), fmt(t.q, digits), fmt(t.e, digits), name)
        )
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "curve",
            "curve": name,
            "p": float(args.p),
            "solid_plane_bound": fmt(bound, digits),
            "rows": [list(r) for r in rows],
        }
        _write(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        _write(
            _csv_text(
                ("mu", "C", "Q", "E", "curve_name"),
                rows,
                comments=(f"solid_plane_bound={fmt(bound, digits)}",),
            ),
            args.output,
        )
    return 0


def cmd_compare(args) -> int:
    digits = args.precision
    grid = _parse_grid(args.grid)
    if args.channel is None:
        kind, param, d = "dephasing", args.p, 2
    else:
        kind, param, d = _channel_spec(args.channel)
    if kind == "erasure" and d == 2:
        cef = lambda mu: closedform.erasure_cef_curve(param, mu)
        delta = lambda mu: closedform.erasure_cef_vs_timeshare(param, mu)
        eaq = closedform.erasure_table(param)["EAQ"]
    elif kind == "dephasing" and d == 2:
        cef = lambda mu: closedform.cef_curve(param, mu)
        delta = lambda mu: closedform.cef_vs_timeshare(param, mu)
        eaq = closedform.cef_curve(param, 0.5)
    else:
        raise SpecFormatError(f"compare supports qubit dephasing/erasure, got {args.channel!r}")
    rows = []
    for mu in grid:
        mu = float(mu)
        t = cef(mu)
        dq, de = delta(mu)
        lam = binary_entropy(mu)
        rows.append(
            (
                fmt(mu, digits),
                fmt(t.c, digits),
                fmt(t.q, digits),
                fmt(t.e, digits),
                fmt(lam * eaq.q, digits),
                fmt(lam * eaq.e, digits),
                fmt(dq, digits),
                fmt(de, digits),
            )
        )
    header = ("mu", "C", "Q_cef", "E_cef", "Q_ts", "E_ts", "dQ", "dE")
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "compare",
            "rows": [list(r) for r in rows],
        }
        _write(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        _write(_csv_text(header, rows), args.output)
    return 0


def _sweep(outcomes) -> tuple[bool, float]:
    """(all satisfied, worst slack) over a suite's (satisfied, slack) pairs."""
    ok, worst = True, math.inf
    for satisfied, slack in outcomes:
        ok = ok and satisfied
        worst = min(worst, slack)
    return ok, worst


def _suite_identities(trials: int, rng: np.random.Generator):
    isometries = [
        builtin_isometry("dephasing", 0.2),
        builtin_isometry("erasure", 0.25),
        builtin_isometry("depolarizing"),
    ]
    for _ in range(trials):
        ens = bounds.random_ensemble(rng)
        for iso in isometries:
            residual = verify_identities(channel_output_ensemble(ens, iso)).max_residual
            yield residual <= IDENTITY_TOL, IDENTITY_TOL - residual


def _suite_pairwise(trials, rng, checker, dim, *extra):
    """checker(rho, sigma, *extra) on pairs of random density matrices of size dim."""
    for _ in range(trials):
        rho = bounds.random_density(dim, rng)
        sigma = bounds.random_density(dim, rng)
        report = checker(rho, sigma, *extra)
        yield report.satisfied, report.slack


def _suite_gentle(trials, rng):
    for _ in range(trials):
        dim = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        probs = rng.random(n)
        probs /= probs.sum()
        ens = [(float(p), bounds.random_density(dim, rng)) for p in probs]
        gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        unitary, _ = np.linalg.qr(gauss)
        x = (unitary * rng.random(dim)) @ unitary.conj().T
        report = bounds.gentle_measurement_check(ens, x)
        yield report.satisfied, report.slack


def _suite_dpi(trials, rng):
    iso = builtin_isometry("dephasing", 0.2)
    for _ in range(trials):
        sigma = channel_output_ensemble(bounds.random_ensemble(rng), iso)
        for report in bounds.dpi_check(sigma).values():
            yield report.satisfied, report.slack


def cmd_check(args) -> int:
    digits = args.precision
    suites = {
        "identities": _suite_identities,
        "fannes": lambda t, r: _suite_pairwise(t, r, bounds.check_fannes, 2),
        "af": lambda t, r: _suite_pairwise(t, r, bounds.check_af, 4, (2, 2)),
        "mi": lambda t, r: _suite_pairwise(t, r, bounds.check_mi, 4, (2, 2)),
        "gentle": _suite_gentle,
        "dpi": _suite_dpi,
    }
    if args.trials < 1:
        raise SpecFormatError(f"--trials {args.trials} must be at least 1")
    if args.suite != "all":
        if args.suite not in suites:
            raise SpecFormatError(f"unknown suite {args.suite!r}")
        suites = {args.suite: suites[args.suite]}
    all_ok = True
    for i, (name, runner) in enumerate(suites.items()):
        rng = np.random.default_rng([args.seed, i])
        ok, worst = _sweep(runner(args.trials, rng))
        all_ok = all_ok and ok
        status = "pass" if ok else "FAIL"
        print(f"{name}: {status} trials={args.trials} worst_slack={fmt(worst, digits)}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cqekit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_region = sub.add_parser("region", help="one-shot region constants, vertices, children")
    p_region.add_argument("--channel", required=True)
    p_region.add_argument("--ensemble", required=True)
    p_region.add_argument("--e-max", type=float, default=2.0, dest="e_max")
    p_region.add_argument("--format", choices=("csv", "json"), default="json")
    p_region.add_argument("--output", default=None)
    p_region.set_defaults(func=cmd_region)

    p_curve = sub.add_parser("curve", help="dephasing trade-off curve samples")
    p_curve.add_argument("curve", choices=tuple(CURVES))
    p_curve.add_argument("--p", type=float, required=True)
    p_curve.add_argument("--grid", default="0:0.5:101")
    p_curve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_curve.add_argument("--output", default=None)
    p_curve.set_defaults(func=cmd_curve)

    p_cmp = sub.add_parser("compare", help="CEF curve vs HSW/EAQ time-sharing")
    p_cmp.add_argument("--p", type=float, default=None)
    p_cmp.add_argument("--channel", default=None)
    p_cmp.add_argument("--grid", default="0:0.5:101")
    p_cmp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cmp.add_argument("--output", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    p_check = sub.add_parser("check", help="identity and bound property sweeps")
    p_check.add_argument("--suite", default="all")
    p_check.add_argument("--trials", type=int, default=200)
    p_check.add_argument("--seed", type=int, default=1234)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "compare" and args.p is None and args.channel is None:
        parser.error("compare requires --p or --channel")
    try:
        args.precision = _env_precision()
        return args.func(args)
    except DimMismatch as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return 3
    # LinAlgError (a numerical failure on bad input) is a ValueError; it is
    # listed to make its exit code 2 deliberate.
    except (SpecFormatError, OutOfRange, np.linalg.LinAlgError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CQEKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
