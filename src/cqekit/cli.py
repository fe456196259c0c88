"""Command-line front end: deterministic CSV/JSON emissions for the toolkit.

Subcommands: region (one-shot constants, vertices, children), curve
(dephasing trade-off curves), compare (CEF vs time-sharing), check
(property sweeps of identities and bounds).  region, curve and compare
print through one CSV/JSON writer, with one `%` call per grid table.
Exit codes: 0 success, 1 check failure, 2 config/parse error, 3 dimension
error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import bounds, closedform
from .channels import builtin_isometry, channel_from_spec, channel_kind, isometric_extension
from .channels import load_channel
from .entropics import (
    IDENTITY_TOL,
    CQEnsemble,
    channel_output_ensemble,
    load_ensemble,
    mu_ensemble,
    verify_identities,
)
from .errors import FLOAT_MAX, CQEKitError, DimMismatch, OutOfRange, SpecFormatError, check_range
from .regions import corner_points, derive_children, region_from_state

SCHEMA_VERSION = 1
DEFAULT_PRECISION = 12
MAX_GRID_COUNT = 10**6


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


def _number(text: str) -> int | float:
    """A field of a `KIND:A:B` channel argument: an int if it reads as one."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _channel_spec(spec: str) -> dict:
    """The spec object of a `KIND[:A[:B]]` channel argument, whose values fill
    the kind's fields in `channels.CHANNEL_KINDS` order: 'erasure:0.25:3' is
    {"kind": "erasure", "epsilon": 0.25, "d": 3}."""
    kind, *values = spec.split(":")
    fields = channel_kind(kind)[1]
    if len(values) > len(fields):
        raise SpecFormatError(f"channel {spec!r} has more values than the fields {fields}")
    return {"kind": kind, **{field: _number(v) for field, v in zip(fields, values)}}


def _parse_channel(spec: str):
    """Channel argument: a path to a JSON channel spec, or a `KIND[:A[:B]]`
    string (see `_channel_spec`)."""
    channel = load_channel(spec) if os.path.exists(spec) else channel_from_spec(_channel_spec(spec))
    return isometric_extension(channel)


def _parse_ensemble(spec: str) -> CQEnsemble:
    """Ensemble argument: 'mu:X' for the built-in two-letter family, or a path."""
    if spec.startswith("mu:"):
        return mu_ensemble(float(spec.split(":", 1)[1]))
    if os.path.exists(spec):
        return load_ensemble(spec)
    raise SpecFormatError(f"unknown ensemble spec {spec!r}")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise SpecFormatError(f"grid must be start:stop:count, got {spec!r}") from exc
    check_range("grid start", start, -FLOAT_MAX, FLOAT_MAX)
    check_range("grid stop", stop, -FLOAT_MAX, FLOAT_MAX)
    check_range("grid count", count, 2, MAX_GRID_COUNT, SpecFormatError)
    # np.linspace computes its last point this way before setting it to stop
    if not math.isfinite((stop - start) / (count - 1) * (count - 1)):
        raise OutOfRange(f"grid span from {start} to {stop} overflows a float")
    return np.linspace(start, stop, count)


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _grid_rows(columns, digits: int, as_json: bool) -> str:
    """A grid table's rows by one `%` call on a row template: a float array column is
    `%.{digits}g` (fmt's digits), and one value (a string, or a float fmt prints) for all
    rows is a literal, JSON-encoded or quoted as csv.writer quotes it, with '%' doubled."""
    spec, arrays, cells = f"%.{digits}g", [], []
    for col in columns:
        if np.ndim(col):
            arrays.append(col + 0.0)  # x + 0.0 turns -0.0 into 0.0, as fmt does
            cells.append(f'"{spec}"' if as_json else spec)
        else:
            text = col if isinstance(col, str) else fmt(col, digits)
            cells.append((encode_basestring_ascii(text) if as_json else text).replace("%", "%%"))
    row = "    [\n      " + ",\n      ".join(cells) + "\n    ]" if as_json else _csv([cells])
    values = np.stack(arrays, axis=1).ravel().tolist()
    return (",\n" if as_json else "").join([row] * len(arrays[0])) % tuple(values)


def _emit(args, header, doc, rows=(), columns=(), comments=()) -> int:
    """Write `doc` as JSON (after schema_version and command) or `comments`,
    `header` and `rows` as CSV, per --format, to --output or stdout; a grid
    table's `columns` (see `_grid_rows`) follow as the JSON key "rows" or as CSV rows."""
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": args.subcommand, **doc}
        text = json.dumps(doc, indent=2)
        if columns:  # "rows" goes last, before the closing brace
            body = _grid_rows(columns, args.precision, True)
            text = f'{text[:-2]},\n  "rows": [\n{body}\n  ]\n}}'
        text += "\n"
    else:
        text = "".join(f"# {line}\n" for line in comments) + _csv([header, *rows])
        if columns:
            text += _grid_rows(columns, args.precision, False)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    return 0


def _triple(t, digits: int) -> list[str]:
    """The (C, Q, E) of a rate triple as printed values."""
    return [fmt(t.c, digits), fmt(t.q, digits), fmt(t.e, digits)]


def cmd_region(args) -> int:
    digits = args.precision
    iso = _parse_channel(args.channel)
    sigma = channel_output_ensemble(_parse_ensemble(args.ensemble), iso)
    region = region_from_state(sigma)
    constants = {name: fmt(getattr(region, name), digits) for name in ("i_axb", "i_xb", "i_coh")}
    vertices = [_triple(v, digits) for v in corner_points(region, args.e_max)]
    children = {name: _triple(t, digits) for name, t in sorted(derive_children(sigma).items())}
    rows = [("constant", name, value, "", "") for name, value in constants.items()]
    rows += [("vertex", str(i), *v) for i, v in enumerate(vertices)]
    rows += [("child", name, *t) for name, t in children.items()]
    doc = {"channel": args.channel, "ensemble": args.ensemble, "e_max": float(args.e_max),
           "region": constants, "vertices": vertices, "children": children}
    return _emit(args, ("record", "name", "c", "q", "e"), doc, rows=rows)


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
    bound = fmt(closedform.solid_plane_bound(args.p), digits)
    t = func(args.p, grid)
    doc = {"curve": name, "p": float(args.p), "solid_plane_bound": bound}
    return _emit(args, ("mu", "C", "Q", "E", "curve_name"), doc,
                 columns=(grid, t.c, t.q, t.e, name), comments=(f"solid_plane_bound={bound}",))


def cmd_compare(args) -> int:
    grid = _parse_grid(args.grid)
    spec = ({"kind": "dephasing", "p": args.p} if args.channel is None
            else _channel_spec(args.channel))
    channel_from_spec(spec)  # rejects a missing, unknown or out-of-range field
    if spec["kind"] not in closedform.CEF_CURVES or spec.get("d", 2) != 2:
        raise SpecFormatError(f"compare supports qubit dephasing/erasure, got {args.channel!r}")
    curve, field = closedform.CEF_CURVES[spec["kind"]]
    header = ("mu", "C", "Q_cef", "E_cef", "Q_ts", "E_ts", "dQ", "dE")
    return _emit(args, header, {},
                 columns=(grid, *closedform.compare_row(curve, spec[field], grid)))


@functools.cache
def _isometries() -> tuple:
    """The identities suite's channels, built on first use; dpi reuses the first."""
    return (builtin_isometry("dephasing", 0.2), builtin_isometry("erasure", 0.25),
            builtin_isometry("depolarizing"))


def _identities(rng):
    ens = bounds.random_ensemble(rng)
    for iso in _isometries():
        residual = verify_identities(channel_output_ensemble(ens, iso)).max_residual
        yield residual <= IDENTITY_TOL, IDENTITY_TOL - residual


def _pairwise(rng, checker, dim, *extra):
    """checker(rho, sigma, *extra) on a pair of random density matrices of size dim."""
    report = checker(bounds.random_density(dim, rng), bounds.random_density(dim, rng), *extra)
    return [(report.satisfied, report.slack)]


def _gentle(rng):
    dim = int(rng.integers(2, 4))
    probs = rng.random(int(rng.integers(1, 4)))
    probs /= probs.sum()
    ens = [(float(p), bounds.random_density(dim, rng)) for p in probs]
    gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary = np.linalg.qr(gauss)[0]
    report = bounds.gentle_measurement_check(ens, (unitary * rng.random(dim)) @ unitary.conj().T)
    return [(report.satisfied, report.slack)]


def _dpi(rng):
    sigma = channel_output_ensemble(bounds.random_ensemble(rng), _isometries()[0])
    return [(report.satisfied, report.slack) for report in bounds.dpi_check(sigma).values()]


# Each check suite: one trial's (satisfied, slack) outcomes from an rng.  A suite's rng
# is seeded with [seed, its index here], so --suite NAME replays NAME's line of --suite all.
SUITES = {
    "identities": _identities,
    "fannes": lambda rng: _pairwise(rng, bounds.check_fannes, 2),
    "af": lambda rng: _pairwise(rng, bounds.check_af, 4, (2, 2)),
    "mi": lambda rng: _pairwise(rng, bounds.check_mi, 4, (2, 2)),
    "gentle": _gentle,
    "dpi": _dpi,
}


def cmd_check(args) -> int:
    for option, value, least in (("--trials", args.trials, 1), ("--seed", args.seed, 0)):
        if value < least:
            raise SpecFormatError(f"{option} {value} must be at least {least}")
    if args.suite != "all" and args.suite not in SUITES:
        raise SpecFormatError(f"unknown suite {args.suite!r}")
    all_ok = True
    for index, (name, suite) in enumerate(SUITES.items()):
        if args.suite not in ("all", name):
            continue
        rng = np.random.default_rng([args.seed, index])
        ok, worst = True, math.inf
        for _ in range(args.trials):
            for satisfied, slack in suite(rng):
                ok, worst = ok and satisfied, min(worst, slack)
        all_ok = all_ok and ok
        print(f"{name}: {'pass' if ok else 'FAIL'} trials={args.trials} "
              f"worst_slack={fmt(worst, args.precision)}")
    return 0 if all_ok else 1


class _Parser(argparse.ArgumentParser):
    """Parser (and subparsers) that read '-' then a digit, '.', 'inf' or 'nan' (-1e-3,
    -0.1:0.5:3) as a value for the range checks, not as an unknown option."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (parse_args returns a new Namespace)."""
    parser = _Parser(prog="cqekit")
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
    channel = p_cmp.add_mutually_exclusive_group(required=True)
    channel.add_argument("--p", type=float)
    channel.add_argument("--channel")
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
    args = build_parser().parse_args(argv)
    try:
        args.precision = _env_precision()
        return args.func(args)
    except DimMismatch as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return 3
    # LinAlgError (a numerical failure on bad input) is a ValueError; it is
    # listed to make its exit code 2 deliberate.  OSError is an unreadable
    # input path or an unwritable --output path.
    except (SpecFormatError, OutOfRange, np.linalg.LinAlgError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CQEKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
