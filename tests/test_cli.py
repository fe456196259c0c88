"""Tests for the command-line interface: outputs, formats, and exit codes."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cqekit
from cqekit import cli, closedform
from cqekit.channels import TP_TOL, load_channel
from cqekit.cli import build_parser, fmt, main
from cqekit.errors import FLOAT_MAX, SpecFormatError
from cqekit.regions import E_MAX_LIMIT


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_fmt_normalizes_negative_zero():
    assert fmt(-0.0) == "0"
    assert fmt(0.765502203205) == "0.765502203205"
    assert fmt(1.5310044064107187) == "1.53100440641"


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        build_parser().parse_args([])


def test_region_json_dephasing():
    code, out, _ = run_cli(
        "region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "region"
    assert float(doc["region"]["i_axb"]) == pytest.approx(1.5310044064107187, abs=1e-9)
    assert float(doc["region"]["i_xb"]) == pytest.approx(0.0, abs=1e-9)
    vertices = [tuple(map(float, v)) for v in doc["vertices"]]
    assert any(
        abs(c) < 1e-9 and abs(q - 0.7655022032053594) < 1e-9 and abs(e - 0.2344977967946406) < 1e-9
        for c, q, e in vertices
    )
    cef = tuple(map(float, doc["children"]["CEF"]))
    assert cef == pytest.approx((0.0, 0.7655022032053594, 0.2344977967946406), abs=1e-9)


def test_region_csv_erasure():
    code, out, _ = run_cli(
        "region", "--channel", "erasure:0.25", "--ensemble", "mu:0.5", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "record,name,c,q,e"
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[1:]}
    assert rows[("child", "EAC")] == ["1.5", "0", "1"]
    assert rows[("child", "CEQ")] == ["0", "0.5", "0"]
    assert [float(x) for x in rows[("child", "EAQ")]] == pytest.approx([0.0, 0.75, 0.25])
    assert float(rows[("constant", "i_axb")][0]) == pytest.approx(1.5, abs=1e-9)


def test_region_depolarizing_is_flat():
    code, out, _ = run_cli(
        "region", "--channel", "depolarizing", "--ensemble", "mu:0.3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    for c, q, e in (map(float, v) for v in doc["vertices"]):
        assert abs(c) < 1e-9 and abs(q) < 1e-9


OUTPUT_COMMANDS = {
    "region": ("region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.5"),
    "curve": ("curve", "cef", "--p", "0.2", "--grid", "0:0.5:11"),
    "compare": ("compare", "--p", "0.2", "--grid", "0:0.5:11"),
}


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_output_file_equals_stdout(command, fmt_name, tmp_path):
    argv = OUTPUT_COMMANDS[command] + ("--format", fmt_name)
    target = tmp_path / f"{command}.{fmt_name}"
    code, out, _ = run_cli(*argv, "--output", str(target))
    assert code == 0 and out == ""
    code, out, _ = run_cli(*argv)
    assert code == 0 and out
    assert target.read_bytes() == out.encode()


def test_curve_csv_cef():
    code, out, _ = run_cli("curve", "cef", "--p", "0.2", "--grid", "0:0.5:11")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# solid_plane_bound=")
    assert float(lines[0].split("=")[1]) == pytest.approx(1.5310044064107187, abs=1e-9)
    assert lines[1] == "mu,C,Q,E,curve_name"
    first = lines[2].split(",")
    last = lines[-1].split(",")
    assert first[:4] == ["0", "1", "0", "0"]
    assert float(last[1]) == pytest.approx(0.0, abs=1e-9)
    assert float(last[2]) == pytest.approx(0.7655022032053594, abs=1e-9)
    assert last[4] == "CEF"


def test_curve_json_ds_zero_noise():
    code, out, _ = run_cli(
        "curve", "ds", "--p", "0", "--grid", "0:0.5:6", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["curve"] == "DS"
    assert float(doc["solid_plane_bound"]) == 2.0
    for row in doc["rows"]:
        mu, c, q = float(row[0]), float(row[1]), float(row[2])
        # noiseless: Q recovers the full input entropy
        assert c + q == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("argv", [("curve", "cef", "--p", "0.2"), ("compare", "--p", "0.2")])
def test_grid_point_out_of_range_is_named(argv):
    code, out, err = run_cli(*argv, "--grid=0:0.7:3")
    assert (code, out, err) == (2, "", "config error: mu = 0.7 outside [0.0, 0.5]\n")


def test_each_curve_is_evaluated_once_per_command(monkeypatch):
    # the closed forms take the whole grid: `curve` makes one curve call, and
    # `compare` three (the grid, the EAQ end and the HSW end), whatever the size
    calls = []

    def counted(name, func):
        return lambda *args: calls.append(name) or func(*args)

    for key, (name, func) in list(cli.CURVES.items()):
        monkeypatch.setitem(cli.CURVES, key, (name, counted(key, func)))
    for kind, (func, field) in list(closedform.CEF_CURVES.items()):
        monkeypatch.setitem(closedform.CEF_CURVES, kind, (counted(kind, func), field))
    for key in cli.CURVES:
        calls.clear()
        assert run_cli("curve", key, "--p", "0.2", "--grid", "0:0.5:1001")[0] == 0
        assert calls == [key]
    for n in (2, 101, 1001):
        for argv, kind in ((("--p", "0.2"), "dephasing"), (("--channel", "erasure:0.25"), "erasure")):
            calls.clear()
            assert run_cli("compare", *argv, "--grid", f"0:0.5:{n}")[0] == 0
            assert calls == [kind] * 3


# SHA-256 of the stdout of `curve` and `compare` commands on 10001-point grids,
# captured from the per-point implementation (one curve call per grid point, at
# commit b584040): the golden pins use at most 101 points.
LARGE_GRID_DIGESTS = json.loads(
    (Path(__file__).parent / "golden" / "large-grid-sha256.json").read_text())


@pytest.mark.parametrize("command", sorted(LARGE_GRID_DIGESTS))
def test_large_grid_output_digest(command):
    code, out, _ = run_cli(*command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_GRID_DIGESTS[command]


def test_compare_dephasing_advantage_positive():
    code, out, _ = run_cli("compare", "--p", "0.2", "--grid", "0.05:0.45:9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mu,C,Q_cef,E_cef,Q_ts,E_ts,dQ,dE"
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[6]) > 0.0  # dQ
        assert float(cells[7]) > 0.0  # dE


def test_compare_erasure_is_tie():
    code, out, _ = run_cli(
        "compare", "--channel", "erasure:0.25", "--grid", "0:0.5:11"
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        cells = line.split(",")
        assert abs(float(cells[6])) <= 1e-9
        assert abs(float(cells[7])) <= 1e-9


def test_compare_channel_without_parameter_exit_code():
    code, out, err = run_cli("compare", "--channel", "erasure", "--grid", "0:0.5:5")
    assert code == 2 and out == ""
    assert "config error" in err


def test_compare_requires_channel_or_p():
    # neither of --p and --channel, and both
    for argv in (("compare", "--grid", "0:0.5:5"),
                 ("compare", "--p", "0.2", "--channel", "erasure:0.25", "--grid", "0:0.5:5")):
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            run_cli(*argv)
        assert exc.value.code == 2


def test_values_starting_with_a_dash_reach_the_range_checks():
    # argparse alone reads these values as unknown options and exits 2 with
    # "expected one argument" before any check runs
    code, out, err = run_cli("curve", "cef", "--p", "0.2", "--grid", "-0.1:0.5:3")
    assert code == 2 and out == "" and "mu = -0.1" in err
    code, out, err = run_cli("compare", "--p", "-1e-3")
    assert code == 2 and out == "" and "dephasing parameter = -0.001" in err


def test_check_suite_passes():
    code, out, _ = run_cli("check", "--suite", "identities", "--trials", "5", "--seed", "7")
    assert code == 0
    assert out.startswith("identities: pass trials=5")


def test_check_all_suites_small():
    code, out, _ = run_cli("check", "--trials", "3", "--seed", "11")
    assert code == 0
    names = [line.split(":")[0] for line in out.splitlines()]
    assert names == ["identities", "fannes", "af", "mi", "gentle", "dpi"]


CHECK_SUITES = ("identities", "fannes", "af", "mi", "gentle", "dpi")


@pytest.mark.parametrize("seed", ["3", "1234"])
@pytest.mark.parametrize("suite", CHECK_SUITES)
def test_single_suite_replays_its_line_of_all(suite, seed):
    # a suite is seeded by its index in the suite table, alone or inside --suite all
    argv = ("check", "--trials", "5", "--seed", seed)
    _, out_all, _ = run_cli(*argv)
    line = next(x for x in out_all.splitlines(keepends=True) if x.startswith(f"{suite}:"))
    assert run_cli(*argv, "--suite", suite) == (0, line, "")


def test_import_builds_no_channel():
    # the check suites build their isometries on first use, not at import
    code = ("import cqekit.channels as ch\n"
            "built, init = [], ch.KrausChannel.__post_init__\n"
            "ch.KrausChannel.__post_init__ = lambda self: built.append(self) or init(self)\n"
            "import cqekit.cli\n"
            "assert not built and cqekit.cli._isometries.cache_info().currsize == 0\n"
            "cqekit.cli.main(['check', '--suite', 'dpi', '--trials', '1'])\n"
            "assert len(built) == 3\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cqekit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_check_unknown_suite_exit_code():
    code, _, err = run_cli("check", "--suite", "nope")
    assert code == 2
    assert "config error" in err


def test_bad_channel_spec_exit_code():
    code, _, err = run_cli("region", "--channel", "wat:1", "--ensemble", "mu:0.5")
    assert code == 2
    assert "config error" in err


def ensemble_spec(dim_a, dim_ap, p=1.0):
    """A one-letter ensemble spec on dim_A x dim_Aprime with weight `p`."""
    amps = [[1, 0]] + [[0, 0]] * (dim_a * dim_ap - 1)
    return {"dim_A": dim_a, "dim_Aprime": dim_ap, "entries": [{"p": p, "amps": amps}]}


# JSON specs written by test_out_of_range_parameter_exit_code.  {"p": NaN} is
# what Python's json module writes and reads for float("nan"); the "d-" channels
# have a "d" that int() would coerce, kraus-17 an operator side above MAX_DIM,
# the "dim-" ensembles a dimension above MAX_DIM, amps-nan a NaN amplitude, and
# amps-bool, amps-string and kraus-bool [re, im] pairs that are not numbers.
# The other channels miss a field, have one their kind does not take, or have
# one of the wrong type.
SPEC_FILES = {
    "nan": {"dim_A": 2, "dim_Aprime": 2, "entries": [
        {"p": float("nan"), "amps": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"p": 1.0, "amps": [[0, 0], [0, 0], [0, 0], [1, 0]]},
    ]},
    "dim-a": {"dim_A": 2.9, "dim_Aprime": 2, "entries": [
        {"p": 1.0, "amps": [[1, 0], [0, 0], [0, 0], [0, 0]]},
    ]},
    "d-2.9": {"kind": "depolarizing", "d": 2.9},
    "d-true": {"kind": "depolarizing", "d": True},
    "d-string": {"kind": "erasure", "epsilon": 0.25, "d": "2"},
    "kraus-17": {"kind": "kraus", "ops": [
        [[[1.0 if i == j else 0.0, 0.0] for j in range(17)] for i in range(17)]]},
    "no-p": {"kind": "dephasing"},
    "p-null": {"kind": "dephasing", "p": None},
    "p-true": {"kind": "dephasing", "p": True},
    "p-string": {"kind": "dephasing", "p": "0.2"},
    "epsilon-list": {"kind": "erasure", "epsilon": [0.2]},
    "ops-5": {"kind": "kraus", "ops": 5},
    "dephasing-d-3": {"kind": "dephasing", "p": 0.2, "d": 3},
    "depolarizing-p": {"kind": "depolarizing", "d": 2, "p": 0.1},
    "dim-a-17": ensemble_spec(17, 2),
    "dim-aprime-17": ensemble_spec(2, 17),
    "entry-p-true": ensemble_spec(2, 2, True),
    "entry-p-string": ensemble_spec(2, 2, "1"),
    "amps-nan": {"dim_A": 1, "dim_Aprime": 2, "entries": [
        {"p": 1.0, "amps": [[float("nan"), 0], [0, 0]]}]},
    "amps-bool": {"dim_A": 1, "dim_Aprime": 2, "entries": [
        {"p": 1.0, "amps": [[True, False], [False, False]]}]},
    "amps-string": {"dim_A": 1, "dim_Aprime": 2, "entries": [
        {"p": 1.0, "amps": [["1", "0"], [0, 0]]}]},
    # complex(True, False) is 1, so this would load as the identity
    "kraus-bool": {"kind": "kraus", "ops": [
        [[[True, False], [False, False]], [[False, False], [True, False]]]]},
}
CHANNEL_FILES = ("d-2.9", "d-true", "d-string", "kraus-17", "no-p", "p-null", "p-true",
                 "p-string", "epsilon-list", "ops-5", "dephasing-d-3", "depolarizing-p",
                 "kraus-bool")
ENSEMBLE_FILES = ("dim-a-17", "dim-aprime-17", "entry-p-true", "entry-p-string", "amps-nan",
                  "amps-bool", "amps-string")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("region", "--channel", "dephasing:1.7", "--ensemble", "mu:0.5"),
                     id="dephasing-1.7"),
        pytest.param(("region", "--channel", "dephasing:nan", "--ensemble", "mu:0.5"),
                     id="dephasing-nan"),
        pytest.param(("region", "--channel", "dephasing:0.2", "--ensemble", "mu:nan"),
                     id="mu-nan"),
        pytest.param(("region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.5",
                      "--e-max", "nan"), id="e-max-nan"),
        pytest.param(("region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.5",
                      "--e-max", "inf"), id="e-max-inf"),
        pytest.param(("curve", "cef", "--p", "nan"), id="curve-p-nan"),
        pytest.param(("curve", "cef", "--p", "0.2", "--grid", "0:nan:3"), id="grid-stop-nan"),
        pytest.param(("compare", "--p", "nan"), id="compare-p-nan"),
        pytest.param(("compare", "--channel", "erasure:nan"), id="compare-erasure-nan"),
        pytest.param(("region", "--channel", "dephasing:0.2", "--ensemble", "{tmp}/nan.json"),
                     id="ensemble-p-nan"),
        pytest.param(("curve", "cef", "--p", "0.2", "--grid", "0:0.5:1000000000000000"),
                     id="grid-count-huge"),
        # just above channels.MAX_DIM: should the cap fail, a huge d would allocate 16 d^4 bytes
        pytest.param(("region", "--channel", "depolarizing:17", "--ensemble", "mu:0.5"),
                     id="depolarizing-17"),
        pytest.param(("region", "--channel", "identity:-1", "--ensemble", "mu:0.5"),
                     id="identity-minus-1"),
        # more values than the kind has fields
        *(pytest.param(("region", "--channel", spec, "--ensemble", "mu:0.5"), id=spec)
          for spec in ("dephasing:0.2:3", "depolarizing:2:7", "identity:2:9",
                       "erasure:0.25:3:1")),
        *(pytest.param(("region", "--channel", f"{{tmp}}/{name}.json", "--ensemble", "mu:0.5"),
                       id=f"channel-{name}")
          for name in CHANNEL_FILES),
        *(pytest.param(("region", "--channel", "identity:2", "--ensemble",
                        f"{{tmp}}/{name}.json"), id=f"ensemble-{name}")
          for name in ENSEMBLE_FILES),
        pytest.param(("region", "--channel", "dephasing:0.2", "--ensemble", "{tmp}/dim-a.json"),
                     id="ensemble-dim-a-2.9"),
    ],
)
def test_out_of_range_parameter_exit_code(argv, tmp_path):
    for name, spec in SPEC_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    code, out, err = run_cli(*(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2 and out == ""
    assert "error: " in err


UNUSABLE_PATHS = {
    "output-missing-dir": ("region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.5",
                           "--output", "{tmp}/missing/x.json"),
    "channel-directory": ("region", "--channel", "{tmp}", "--ensemble", "mu:0.5"),
    "ensemble-directory": ("region", "--channel", "dephasing:0.2", "--ensemble", "{tmp}"),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_PATHS))
def test_unusable_path_exit_code(case, tmp_path):
    code, out, err = run_cli(*(arg.format(tmp=tmp_path) for arg in UNUSABLE_PATHS[case]))
    assert code == 2 and out == ""
    assert "config error" in err


def test_unusable_output_path_has_no_traceback(tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in UNUSABLE_PATHS["output-missing-dir"]]
    env = {**os.environ, "PYTHONPATH": str(Path(cqekit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "cqekit.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "config error" in proc.stderr and "Traceback" not in proc.stderr


def test_channel_string_equals_json_spec(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"kind": "identity", "d": 2}))
    for one, other in ((str(path), "identity:2"), ("dephasing:0.2:2", "dephasing:0.2")):
        argv = ("--ensemble", "mu:0.5", "--format", "csv")
        code, out, _ = run_cli("region", "--channel", one, *argv)
        assert code == 0 and out
        assert run_cli("region", "--channel", other, *argv) == (code, out, "")


def test_dimension_mismatch_exit_code():
    # qutrit erasure channel fed with the qubit ensemble
    code, _, err = run_cli("region", "--channel", "erasure:0.25:3", "--ensemble", "mu:0.5")
    assert code == 3
    assert "dimension error" in err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_nonpositive_trials_exit_code(trials):
    code, out, err = run_cli("check", "--trials", trials)
    assert code == 2 and out == ""
    assert "config error" in err


def test_negative_seed_is_named():
    # numpy's own "expected non-negative integer" used to be the message
    code, out, err = run_cli("check", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "config error: --seed -1 must be at least 0\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e_max", ["9e307", "1.7e308", repr(FLOAT_MAX)])
def test_overflowing_e_max_is_named(e_max):
    # numpy warned of overflow in the row products, then exit 0
    code, out, err = run_cli("region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.3",
                             f"--e-max={e_max}")
    assert (code, out) == (2, "")
    assert err == f"config error: e_max = {float(e_max)} outside [0.0, {E_MAX_LIMIT}]\n"


@pytest.mark.filterwarnings("error")
def test_largest_e_max_prints_finite_vertices():
    code, out, _ = run_cli("region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.3",
                           f"--e-max={E_MAX_LIMIT!r}", "--format", "csv")
    assert code == 0 and "nan" not in out and "inf" not in out
    assert f",{fmt(E_MAX_LIMIT)}\n" in out


def one_row_kraus(scale: float) -> dict:
    """The channel with Kraus operators scale <0| and scale <1|: sum K^dag K = scale^2 I."""
    return {"kind": "kraus", "ops": [[[[scale, 0], [0, 0]]], [[[0, 0], [scale, 0]]]]}


def test_channel_off_trace_preserving_is_rejected_at_load(tmp_path):
    # TP deviation 8e-10 used to pass the channel check and fail the state check
    # ("letter squared norms [1. 1.] differ from 1")
    path = tmp_path / "kraus.json"
    path.write_text(json.dumps(one_row_kraus(1.0000000004)))
    argv = ("region", "--channel", str(path), "--ensemble", "mu:0.3", "--format", "csv")
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("config error: Kraus set is not trace preserving: sum K^dag K "
                          "deviates from I by 8.00000")
    path.write_text(json.dumps(one_row_kraus(math.sqrt(1.0 + 0.9 * TP_TOL))))
    assert load_channel(str(path)).in_dim == 2


def test_precision_is_read_from_the_environment_per_call(monkeypatch):
    argv = ("curve", "cef", "--p", "0.2", "--grid", "0.25:0.25:2")
    monkeypatch.setenv("CQEKIT_PRECISION", "4")
    code, out, _ = run_cli(*argv)
    assert code == 0 and out.splitlines()[2].startswith("0.25,0.1887,")
    monkeypatch.setenv("CQEKIT_PRECISION", "twelve")
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert "CQEKIT_PRECISION" in err
    monkeypatch.delenv("CQEKIT_PRECISION")
    assert run_cli(*argv)[1].splitlines()[2].startswith("0.25,0.188721875541,")


def test_linalg_error_exit_code(monkeypatch):
    def fail(sigma):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(cli, "region_from_state", fail)
    code, out, err = run_cli("region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.5")
    assert code == 2 and out == ""
    assert "config error" in err


def test_bad_grid_exit_code():
    code, _, _ = run_cli("curve", "cef", "--p", "0.2", "--grid", "0:0.5")
    assert code == 2
    code, _, _ = run_cli("curve", "cef", "--p", "0.2", "--grid", "0:0.5:1")
    assert code == 2


def test_grid_count_cap():
    assert len(cli._parse_grid(f"0:1:{cli.MAX_GRID_COUNT}")) == cli.MAX_GRID_COUNT
    with pytest.raises(SpecFormatError):
        cli._parse_grid(f"0:1:{cli.MAX_GRID_COUNT + 1}")


@pytest.mark.parametrize("grid", ["-1e308:1.7e308:5", "1.7e308:-1e308:5",
                                  # a finite span whose last linspace point overflows
                                  "-8.98846567431158e307:8.98846567431158e307:7"])
def test_grid_span_overflow_is_named(grid):
    # before the check, numpy warned twice and the error named mu = nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("curve", "ds", "--p", "0.2", f"--grid={grid}")
    start, stop = (float(x) for x in grid.split(":")[:2])
    assert (code, out) == (2, "")
    assert err == f"config error: grid span from {start} to {stop} overflows a float\n"


def formatter_samples(rng):
    """Floats for the printf/format comparison: signed zeros, subnormals, the
    extremes, non-finite values, seeded random values, and values whose digits
    round up at a given significant digit."""
    tiny = np.nextafter(0.0, 1.0)
    values = [0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, 1e308, -1e308, sys.float_info.max,
              math.inf, -math.inf, math.nan, 0.5, 1.0, 0.1, 1 / 3, 2 / 3, 1e-5, 123456.5]
    values += [tiny * k for k in rng.integers(1, 2**52, 20)]
    values += list(rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50))
    values += list(rng.random(50))
    for d in range(1, 18):
        nines = 1.0 - 10.0 ** -d  # 0.99..9 with d nines, which rounds up below d digits
        values += [nines, -nines, 9.5 * 10.0 ** -d, 0.5 + 5.0 * 10.0 ** -(d + 1)]
    return [x + 0.0 for x in values]  # as the writer normalises -0.0


def test_printf_template_equals_format():
    samples = formatter_samples(np.random.default_rng(20611))
    assert all(math.copysign(1.0, x) > 0 for x in samples if x == 0.0)
    for d in [*range(26), 10**6]:
        template = f"%.{d}g " * len(samples)
        assert template % tuple(samples) == "".join(format(x, f".{d}g") + " " for x in samples)


@pytest.mark.parametrize("argv", [("curve", "cef", "--p", "0.2"), ("compare", "--p", "0.2"),
                                  ("compare", "--channel", "erasure:0.25")])
def test_precision_beyond_the_formatter_exit_code(argv, monkeypatch):
    monkeypatch.setenv("CQEKIT_PRECISION", "2147483648")
    for fmt_name in ("csv", "json"):
        code, out, err = run_cli(*argv, "--format", fmt_name)
        assert code == 2 and out == ""
        assert "config error" in err


def reference_output(argv, digits):
    """The bytes of a `curve` or `compare` command, written the way the writer
    wrote them before its row templates: `format` per value, then csv.writer or
    json.dumps(indent=2)."""
    args = build_parser().parse_args(argv)
    start, stop, n = args.grid.split(":")
    grid = np.linspace(float(start), float(stop), int(n))

    def printed(x):
        return format(x + 0.0, f".{digits}g")

    def column(values):
        return [printed(v) for v in np.broadcast_to(values, grid.shape).tolist()]

    if args.subcommand == "curve":
        name, func = cli.CURVES[args.curve]
        t = func(args.p, grid)
        bound = printed(closedform.solid_plane_bound(args.p))
        rows = [list(r) + [name] for r in zip(*map(column, (grid, t.c, t.q, t.e)))]
        doc = {"curve": name, "p": float(args.p), "solid_plane_bound": bound, "rows": rows}
        header = ["mu", "C", "Q", "E", "curve_name"]
        comments = [f"# solid_plane_bound={bound}\n"]
    else:
        curve, param = ((closedform.cef_curve, args.p) if args.channel is None else
                        (closedform.erasure_cef_curve, float(args.channel.split(":")[1])))
        columns = (grid, *closedform.compare_row(curve, param, grid))
        rows = [list(r) for r in zip(*map(column, columns))]
        doc = {"rows": rows}
        header, comments = ["mu", "C", "Q_cef", "E_cef", "Q_ts", "E_ts", "dQ", "dE"], []
    if args.format == "json":
        doc = {"schema_version": 1, "command": args.subcommand, **doc}
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    buf.writelines(comments)
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def test_writer_equals_per_value_reference(monkeypatch, tmp_path):
    rng = np.random.default_rng(20612)
    params = [0.0, 0.5, 1.0, float(rng.random())]
    commands = [("curve", "ds", "--p"), ("curve", "cef", "--p"), ("curve", "ce", "--p"),
                ("compare", "--p"), ("compare", "--channel")]
    target = tmp_path / "out"
    for digits in (0, 1, 6, 12, 17, 25):
        monkeypatch.setenv("CQEKIT_PRECISION", str(digits))
        for n in (2, 3, 101):
            for *command, option in commands:
                for param in params:
                    value = repr(param) if option == "--p" else f"erasure:{param!r}"
                    for fmt_name in ("csv", "json"):
                        argv = [*command, option, value, "--grid", f"0:0.5:{n}",
                                "--format", fmt_name]
                        code, out, err = run_cli(*argv)
                        assert (code, err) == (0, "")
                        assert out == reference_output(argv, digits), argv
                        assert run_cli(*argv, "--output", str(target))[:2] == (0, "")
                        assert target.read_bytes() == out.encode()


def test_emit_escapes_constant_cells_and_normalises_negative_zero():
    # constant cells that need escaping in the template, in CSV and in JSON
    grid = np.array([-0.0, 1.5, -2.5e-300, 0.1])
    constants = ['a,b"%s%%\u00e9\n', "%(x)d", "", -0.0, 1 / 3]
    printed = [[fmt(x) for x in grid.tolist()]] + [
        [c if isinstance(c, str) else fmt(c)] * len(grid) for c in constants]
    rows = [list(r) for r in zip(*printed)]
    for fmt_name in ("csv", "json"):
        args = argparse.Namespace(format=fmt_name, output=None, subcommand="curve",
                                  precision=cli.DEFAULT_PRECISION)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli._emit(args, ("h",) * 6, {"k": "%v"}, columns=(grid, *constants)) == 0
        if fmt_name == "json":
            doc = {"schema_version": 1, "command": "curve", "k": "%v", "rows": rows}
            assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
        else:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows([("h",) * 6, *rows])
            assert out.getvalue() == buf.getvalue()


PARSER_REUSE_COMMANDS = [
    ("curve", "ce", "--p", "0.3", "--grid", "0:0.5:5", "--format", "json"),
    ("check", "--suite", "fannes", "--trials", "3", "--seed", "5"),
    ("compare", "--p", "0.2", "--channel", "erasure:0.25"),  # argparse exits 2
    ("compare", "--p", "0.2", "--grid", "0:0.5:4"),
    ("region", "--channel", "erasure:0.25", "--ensemble", "mu:0.5", "--format", "csv"),
    ("curve", "ds", "--p", "0.3", "--grid", "0:0.5:5"),
    ("compare", "--channel", "erasure:0.25", "--grid", "0:0.5:4", "--format", "json"),
]


def run_or_exit(argv):
    """run_cli's (code, stdout, stderr), also for an argparse error's SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_and_reused():
    assert build_parser() is build_parser()
    first = {}
    for argv in PARSER_REUSE_COMMANDS:
        cli.build_parser.cache_clear()
        first[argv] = run_or_exit(argv)  # each command on a new parser
    assert first[PARSER_REUSE_COMMANDS[2]][0] == ("exit", 2)
    cli.build_parser.cache_clear()
    parser = build_parser()
    for _ in range(2):
        for argv in PARSER_REUSE_COMMANDS:
            assert run_or_exit(argv) == first[argv], argv
    assert build_parser() is parser
    one, other = (parser.parse_args(["compare", "--p", "0.2"]),
                  parser.parse_args(["compare", "--channel", "erasure:0.25"]))
    assert one is not other and (one.p, one.channel) == (0.2, None)
