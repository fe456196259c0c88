"""Tests for the command-line interface: outputs, formats, and exit codes."""

import contextlib
import io
import json

import numpy as np
import pytest

from cqekit import cli
from cqekit.cli import build_parser, fmt, main


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


def test_region_output_file(tmp_path):
    target = tmp_path / "region.json"
    code, out, _ = run_cli(
        "region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.5",
        "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "region"


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
    with pytest.raises(SystemExit):
        run_cli("compare", "--grid", "0:0.5:5")


def test_check_suite_passes():
    code, out, _ = run_cli("check", "--suite", "identities", "--trials", "5", "--seed", "7")
    assert code == 0
    assert out.startswith("identities: pass trials=5")


def test_check_all_suites_small():
    code, out, _ = run_cli("check", "--trials", "3", "--seed", "11")
    assert code == 0
    names = [line.split(":")[0] for line in out.splitlines()]
    assert names == ["identities", "fannes", "af", "mi", "gentle", "dpi"]


def test_check_unknown_suite_exit_code():
    code, _, err = run_cli("check", "--suite", "nope")
    assert code == 2
    assert "config error" in err


def test_bad_channel_spec_exit_code():
    code, _, err = run_cli("region", "--channel", "wat:1", "--ensemble", "mu:0.5")
    assert code == 2
    assert "config error" in err


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
    ],
)
def test_out_of_range_parameter_exit_code(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert "error: " in err


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
