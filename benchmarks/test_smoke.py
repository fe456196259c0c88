"""Smoke tests of the benchmark itself, at one-second runs.

Run from the repository root:  python3 -m pytest benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import cqekit  # noqa: E402
from cqekit import channels, cli, entropics, regions  # noqa: E402

import gauge  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_checks_pass(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if trace and workload in ("curves", "union"):
        assert result["metrics"]["qlinalg.eigvalsh.calls"]["value"] == 0
    if workload == "union":
        run = next(ln for ln in proc.stdout.splitlines() if ln.startswith("# run "))
        by_class = json.loads(run[len("# run "):])["outcomes_by_class"]
        assert set(by_class) == set(workloads.Union.CLASSES)


class Flaky(workloads.Workload):
    pool = [0, 1]

    def op(self, i):
        if i:
            raise ValueError("broken pool entry")
        return i

    def check(self, i, result):
        return workloads.OK


def test_an_op_that_raises_is_counted_not_fatal(capsys):
    loop = worker.Loop(Flaky())
    loop.warm_up(0.01)
    phase = loop.run(0.01)
    passes = len(phase["passes"])
    assert phase["outcomes"] == {"ok": passes, "wrong": 0, "miss": 0, "error": passes}
    metrics, info = worker.end_to_end(phase)
    assert info["failed"] == passes and metrics["success_rate"]["value"] == 0.5
    assert "# op 1 raised ValueError: broken pool entry" in capsys.readouterr().err


def test_every_op_is_scaled_by_the_gauge_of_its_block():
    meter = gauge.Meter()
    for _ in range(7):
        meter.after_op(0.2)
    meter.close()
    assert len(meter.scales) == 7 and len(meter.unit_times) == 3
    assert all(s > 0 for s in meter.scales)
    phase = worker.Loop(Flaky()).run(0.05)
    for scaled, raw in zip(phase["passes"], phase["raw_passes"]):
        assert len(scaled) == len(raw) and all(s > 0 for s in scaled)


def test_the_gauge_is_invisible_to_the_tracer():
    with Tracer() as tracer:
        gauge.unit()
    assert not tracer.calls


@pytest.mark.parametrize("passes", [1, 4, 8])
def test_tail_percentile_is_fixed_per_pool_and_keeps_ten_beyond_per_pass(passes):
    latencies = [float(i) for i in range(35 * passes)]
    pct, value, left = worker.tail(latencies, 35)
    assert left == 10 * passes and value == latencies[-1 - left]
    assert pct == pytest.approx(100.0 * (1 - 10 / 35), abs=1e-9)


@pytest.mark.parametrize("name", ["check", "curves"])
def test_cli_results_are_kept_as_digests(name):
    wl = workloads.make(name, 5)
    code, digest = wl.fingerprint((0, "x" * 10_000))
    assert code == 0 and len(digest) == 64


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("region", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_probe_counts_match_a_plain_eigensolve_counter(monkeypatch):
    with Tracer() as tracer:
        traced = worker.probe_eigensolves(tracer)

    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or real(m))
    sigma = entropics.channel_output_ensemble(
        entropics.mu_ensemble(0.5), channels.builtin_isometry("dephasing", 0.2))
    plain = {}
    region = regions.region_from_state(sigma)
    plain["region_from_state"] = len(calls)
    regions.corner_points(region, 2.0)
    plain["corner_points"] = len(calls) - plain["region_from_state"]
    regions.derive_children(sigma)
    plain["derive_children"] = len(calls) - sum(plain.values())
    assert traced == plain
    assert traced["corner_points"] == 0


def test_tracer_sees_every_binding_and_restores_them():
    original, original_eigvalsh = regions.corner_points, np.linalg.eigvalsh
    r = regions.OneShotRegion(1.0, 0.5, 0.25)
    with Tracer() as tracer:
        for bound in (regions.corner_points, cli.corner_points, cqekit.corner_points):
            bound(r, 1.0)
        cli.CURVES["ds"][1](0.2, 0.1)
    assert tracer.calls["regions.corner_points"] == 3
    assert tracer.calls["closedform.ds_curve"] == 1
    assert tracer.calls["closedform.g"] == 1
    assert regions.corner_points is original and cli.corner_points is original
    assert np.linalg.eigvalsh is original_eigvalsh


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    def pool(seed):
        wl = workloads.make(name, seed)
        wl.prepare()
        wl.build_pool()
        return pickle.dumps(wl.pool)

    assert pool(5) == pool(5)
    assert pool(5) != pool(6)
