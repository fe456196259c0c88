"""The benchmark's span tracer binds every cqekit name it traces: a traced name that is
deleted or renamed fails here, not only in a full benchmark run."""

import contextlib
import importlib.util
import io
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
