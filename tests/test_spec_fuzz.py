"""Bounded, derandomized fuzz of the CLI boundary.

Generated channel and ensemble objects, written as JSON files, and generated
`KIND:A:B:C` channel strings go through `cqekit region`; generated `curve`,
`compare` and `check` argument lists, with grids and `CQEKIT_PRECISION`, go
through the other subcommands.  Every run must end in a documented exit code
(0 ok, 1 a failed check, 2 config, 3 dimension) with no uncaught exception,
and nothing printed may be NaN or infinite.  Values are passed as
`--opt=VALUE`, so that argparse does not take a negative one for an option.
Dimensions stay at most 17, one above `channels.MAX_DIM`, grid counts at
most 1000 or just above the cap, and `check` runs at most 3 trials, so no
example allocates or runs for long.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqekit.channels import CHANNEL_KINDS
from cqekit.cli import main

FUZZ = settings(derandomize=True, max_examples=80, deadline=None)

KINDS = st.sampled_from([*CHANNEL_KINDS, "mystery", ""])
FIELDS = st.sampled_from(["p", "epsilon", "d", "ops", "q"])
ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 17), st.floats(), st.text(max_size=3),
    st.lists(st.floats(-1.0, 2.0), max_size=2),
)
PROBABILITY = st.one_of(st.floats(0.0, 1.0), ANY)
# 2 is the input dimension of the mu:X ensembles, so d = 2 can run to exit 0
DIMENSION = st.one_of(st.just(2), st.integers(0, 17), ANY)
PAIR = st.tuples(st.floats(), st.floats()).map(list)
MATRIX = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(PAIR, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def trace_preserving_ops(draw):
    """1-3 qubit Kraus operators cut from a random isometry."""
    n = draw(st.integers(1, 3))
    gauss = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((2 * n, 2, 2))
    v, _ = np.linalg.qr(gauss[..., 0] + 1j * gauss[..., 1])
    return [[[[z.real, z.imag] for z in row] for row in v[2 * k:2 * k + 2]] for k in range(n)]


OPS = st.one_of(trace_preserving_ops(), st.lists(MATRIX, max_size=3), ANY)
VALUES = {"p": PROBABILITY, "epsilon": PROBABILITY, "d": DIMENSION, "ops": OPS, "q": ANY}


def run_cli(argv: list[str]) -> int:
    """`cqekit ARGV` in-process: its exit code, after checking what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejecting the argument list
            code = exc.code
    assert code in ((0, 1, 2, 3) if argv[0] == "check" else (0, 2, 3)), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    printed = out.getvalue().lower()
    assert "nan" not in printed and "inf" not in printed, printed
    return code


def run_region(channel: str, ensemble: str) -> int:
    return run_cli(["region", "--channel", channel, "--ensemble", ensemble, "--format", "csv"])


def run_with_file(spec, channel: str | None = None) -> int:
    """`region` with `spec` as the channel file, or as the ensemble file of `channel`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "spec.json")
        Path(path).write_text(json.dumps(spec))
        return run_region(path, "mu:0.5") if channel is None else run_region(channel, path)


@st.composite
def channel_specs(draw):
    """A spec with most of its kind's fields, and at times one more field."""
    kind = draw(KINDS)
    fields = [f for f in CHANNEL_KINDS.get(kind, (None, ()))[1] if draw(st.integers(0, 4))]
    if not draw(st.integers(0, 3)):
        fields.append(draw(FIELDS))
    return {"kind": kind, **{field: draw(VALUES[field]) for field in fields}}


@FUZZ
@given(channel_specs())
def test_fuzz_channel_spec_files(spec):
    run_with_file(spec)


@st.composite
def ensembles(draw):
    """An ensemble object, and a channel whose input dimension matches dim_Aprime
    when that is a usable integer."""
    dim_a, dim_ap = draw(DIMENSION), draw(DIMENSION)
    sized = all(isinstance(d, int) and not isinstance(d, bool) and 1 <= d <= 17
                for d in (dim_a, dim_ap))
    letters = draw(st.integers(0, 3))
    well_formed = sized and draw(st.booleans())
    entries = []
    for _ in range(letters):
        if well_formed:
            # uniform weights and normalised amplitude vectors of the right length
            rng = np.random.default_rng(draw(st.integers(0, 2**16)))
            v = rng.standard_normal((dim_a * dim_ap, 2))
            entries.append({"p": 1.0 / letters, "amps": (v / np.linalg.norm(v)).tolist()})
        else:
            amps = draw(st.one_of(st.lists(PAIR, max_size=5), ANY))
            entries.append({"p": draw(PROBABILITY), "amps": amps})
    spec = {"dim_A": dim_a, "dim_Aprime": dim_ap, "entries": entries}
    channel = f"identity:{dim_ap}" if sized and dim_ap <= 16 else "dephasing:0.2"
    return spec, channel


@FUZZ
@given(ensembles())
def test_fuzz_ensemble_spec_files(case):
    spec, channel = case
    run_with_file(spec, channel)


TOKENS = st.one_of(
    st.sampled_from(["0.2", "0.5", "2", "2", "nan", "inf", "-inf", "-1", "0", "1", "3",
                     "16", "17", "2.5", "1e-3", "", "x", "true"]),
    st.text(alphabet="0123456789.-e", max_size=4),
)


@FUZZ
@given(KINDS, st.lists(TOKENS, max_size=3))
def test_fuzz_channel_strings(kind, values):
    run_region(":".join([kind, *values]), "mu:0.5")


def test_fuzz_reaches_every_exit_code():
    # the fuzz strategies can produce a success, a config error and a mismatch
    assert run_with_file({"kind": "identity", "d": 2}) == 0
    assert run_with_file({"kind": "dephasing"}) == 2
    assert run_with_file({"kind": "identity", "d": 3}) == 3


def mostly(valid, junk):
    """Draws from `valid` three times in four, else from `junk`."""
    return st.sampled_from([valid, valid, valid, junk]).flatmap(lambda strategy: strategy)


# Arguments of the other subcommands: each usually valid, else one of NaN,
# infinite, negative, out-of-range or malformed values.
JUNK_NUMBERS = st.one_of(
    st.sampled_from(["-1", "1.5", "nan", "inf", "-inf", "1e308", "x", ""]), st.floats().map(repr))
UNIT = st.floats(0.0, 1.0).map(repr)
COUNTS = mostly(st.integers(2, 1000), st.one_of(st.integers(-2, 1), st.just(10**6 + 1))).map(str)
GRIDS = mostly(
    st.tuples(st.floats(0.0, 0.5).map(repr), st.floats(0.0, 0.5).map(repr), COUNTS).map(":".join),
    st.one_of(st.tuples(mostly(UNIT, JUNK_NUMBERS), JUNK_NUMBERS, COUNTS).map(":".join),
              st.sampled_from(["0:0.5", "0:0.5:3:4", "::", "0:0.5:2.5"])),
)
PRECISIONS = mostly(st.one_of(st.none(), st.integers(0, 40).map(str)),
                    st.one_of(st.integers(-3, -1).map(str),
                              st.sampled_from(["", "x", "12.5", "1e3", " 7", "nan"])))
FORMATS = st.sampled_from(["csv", "json"])
CHANNELS = mostly(
    st.tuples(st.sampled_from(["dephasing", "erasure"]), UNIT).map(":".join),
    st.one_of(st.sampled_from(["erasure:0.25:3", "depolarizing:2", "identity:2", "dephasing",
                               "mystery:1"]),
              st.tuples(st.sampled_from(["dephasing", "erasure"]), JUNK_NUMBERS).map(":".join)),
)


def run_with_precision(argv: list[str], precision: str | None) -> int:
    """`run_cli(argv)` with CQEKIT_PRECISION set to `precision` (None: unset)."""
    with pytest.MonkeyPatch.context() as mp:
        if precision is None:
            mp.delenv("CQEKIT_PRECISION", raising=False)
        else:
            mp.setenv("CQEKIT_PRECISION", precision)
        return run_cli(argv)


@FUZZ
@given(mostly(st.sampled_from(["ds", "cef", "ce"]), st.just("dss")), mostly(UNIT, JUNK_NUMBERS),
       GRIDS, FORMATS, PRECISIONS)
def test_fuzz_curve_argv(curve, p, grid, fmt, precision):
    run_with_precision(["curve", curve, f"--p={p}", f"--grid={grid}", "--format", fmt], precision)


@FUZZ
@given(mostly(st.one_of(mostly(UNIT, JUNK_NUMBERS).map(lambda p: (f"--p={p}",)),
                        CHANNELS.map(lambda ch: (f"--channel={ch}",))),
              st.one_of(st.tuples(UNIT, CHANNELS).map(lambda a: (f"--p={a[0]}", "--channel", a[1])),
                        st.just(()))),
       GRIDS, FORMATS, PRECISIONS)
def test_fuzz_compare_argv(source, grid, fmt, precision):
    run_with_precision(["compare", *source, f"--grid={grid}", "--format", fmt], precision)


@settings(derandomize=True, max_examples=40, deadline=None)  # up to 30 ms each
@given(mostly(st.sampled_from(["all", "identities", "fannes", "af", "mi", "gentle", "dpi"]),
              st.just("none")),
       mostly(st.integers(1, 3), st.one_of(st.integers(-1, 0), st.sampled_from(["x", "1.5"]))),
       mostly(st.integers(0, 2**70), st.one_of(st.integers(-2, -1), st.just("x"))), PRECISIONS)
def test_fuzz_check_argv(suite, trials, seed, precision):
    run_with_precision(["check", "--suite", suite, "--trials", str(trials), "--seed", str(seed)],
                       precision)


def test_argv_fuzz_reaches_success_and_config_errors():
    assert run_with_precision(["curve", "cef", "--p", "0.2", "--grid", "0:0.5:3"], "5") == 0
    assert run_with_precision(["curve", "cef", "--p", "0.2", "--grid", "0:nan:3"], None) == 2
    assert run_with_precision(["compare", "--channel", "erasure:0.25:3"], None) == 2
    assert run_with_precision(["check", "--suite", "dpi", "--trials", "1"], "x") == 2
    assert run_with_precision(["check", "--suite", "dpi", "--trials", "2"], None) == 0
