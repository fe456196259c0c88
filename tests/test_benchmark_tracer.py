"""The benchmark's span tracer binds every cqekit name it traces: a traced name that is
deleted or renamed fails here, not only in a full benchmark run."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

from cqekit import channels, cli, regions

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_enters_counts_and_restores():
    tracer = load_tracer()
    originals = (np.linalg.eigvalsh, cli.main, regions.corner_points, channels.apply_isometry)
    with tracer.Tracer() as trace:
        assert cli.main is not originals[1] and regions.corner_points is not originals[2]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["region", "--channel", "dephasing:0.2", "--ensemble", "mu:0.5"]) == 0
    assert (np.linalg.eigvalsh, cli.main, regions.corner_points,
            channels.apply_isometry) == originals
    for name in ("cli.main", "regions.corner_points", "regions.derive_children",
                 "channels.apply_isometry"):
        assert trace.calls[name] == 1, name
    assert trace.calls["qlinalg.eigvalsh"] > 0


def test_tracer_counts_and_restores_the_check_path():
    tracer = load_tracer()
    traced = {f"{layer}.{name}": (sys.modules[f"cqekit.{layer}"], name)
              for layer in ("bounds", "entropics") for name in tracer.TRACED[layer]}
    originals = {key: getattr(module, name) for key, (module, name) in traced.items()}
    with tracer.Tracer() as trace:
        for key, (module, name) in traced.items():
            assert getattr(module, name) is not originals[key], key
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["check", "--suite", "all", "--trials", "3"]) == 0
    for key, (module, name) in traced.items():
        assert getattr(module, name) is originals[key], key
    # a stacked continuity check is one call for the 3 trials, gentle one per dimension drawn
    # (seed 1234 draws both) and dpi_check one per trial, so the per-layer counts keep
    # measuring the check path; random_density draws one stack per continuity suite and per
    # gentle trial; channel_output_ensemble checks one stack of ensembles and sends it through
    # the identities suite's three channels in one call, and one through dpi's in another;
    # the entropic readers have no caller on it
    expected = {"bounds.dpi_check": 3, "bounds.check_af": 1, "bounds.check_mi": 1,
                "bounds.check_fannes": 1, "bounds.gentle_measurement_check": 2,
                "bounds.random_density": 6, "entropics.channel_output_ensemble": 2,
                "entropics.verify_identities": 9}
    for key in traced:
        assert trace.calls[key] == expected.get(key, 0), key
