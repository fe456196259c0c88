"""One benchmark process: set up one workload, run it, print one JSON line.

Started by run.py in a fresh process per run, with single-threaded BLAS and
PYTHONPATH pointing at the checkout's src/.  Modes:

  worker.py setup WORKLOAD SEED             time set-up only
  worker.py run WORKLOAD SEED SECONDS TRACE  set up, warm up, measure

Set-up time is the import of cqekit.cli (and numpy with it) in this fresh
process plus the workload's library-side preparation; the benchmark's own
input generation runs between the two and is not counted.  Times are
scaled to the gauge's reference speed (see gauge.py): set-up by the gauge
timed right after it, each op by the gauge units run between the ops of
its block.  The unscaled figures are reported beside them.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

T_IMPORT = perf_counter()
import cqekit.cli  # noqa: E402,F401  -- timed: the first import in this process

IMPORT_S = perf_counter() - T_IMPORT

from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gauge  # noqa: E402  -- binds its eigensolver before any tracing
import workloads  # noqa: E402
from cqekit import channels, entropics, regions  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import MISS, OK, WRONG  # noqa: E402

ERROR = "error"  # outcome of an op that raised
WARMUP_S = 1.0
SETUP_GAUGE_S = 0.2  # gauge time that scales one set-up
TAIL_BEYOND = 10  # samples left beyond the tail percentile in one pass
OUT_DIR = Path(__file__).resolve().parent / "out"


def set_up(name: str, seed: int):
    """Build the workload; return it with (import_s, prepare_s)."""
    src = Path.cwd() / "src"
    if not Path(cqekit.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"cqekit imported from {cqekit.cli.__file__}, not {src}")
    wl = workloads.make(name, seed)
    t0 = perf_counter()
    wl.prepare()
    prepare_s = perf_counter() - t0
    wl.build_pool()
    return wl, IMPORT_S, prepare_s


def tail(latencies: list[float], pool_size: int) -> tuple[float, float, int]:
    """(percentile, value at it, samples beyond it) over all of a run's samples.

    The percentile is fixed per workload: the highest that leaves
    TAIL_BEYOND samples beyond it in one pass over the pool, the shortest
    run.  A run of P passes leaves P * TAIL_BEYOND beyond it, so a faster
    program is not measured further out in its tail, and the value does not
    rest on the few slowest samples, which swing with the host's brief
    stalls from run to run.
    """
    n = len(latencies)
    beyond = round(n * TAIL_BEYOND / pool_size)
    k = max(0, n - 1 - beyond)
    return 100.0 * (k + 1) / n, sorted(latencies)[k], n - 1 - k


class Loop:
    """Closed loop over the workload's pool, in whole passes.

    Every pass runs each pool entry once, so each pass has the same mix.  A
    new pass starts only if a pass of average length still fits in the
    measuring time (the first always runs).  Gauge units run between ops
    (gauge.Meter), outside each op's timer.  Results are judged outside
    the timer: the first result of a pool entry by the workload's check,
    later ones by comparison with the first.  An op that raises is counted
    as an error and the loop goes on.
    """

    def __init__(self, wl):
        self.wl = wl
        self.first: dict[int, object] = {}
        self.first_outcome: dict[int, str] = {}

    def _op(self, idx: int):
        """(True, result) of one op, or (False, None) if it raised."""
        try:
            return True, self.wl.op(idx)
        except Exception as exc:  # a failed op is counted, not fatal
            print(f"# op {idx} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return False, None

    def run(self, seconds: float, judge: bool = True) -> dict:
        wl = self.wl
        passes, outcomes, by_class = [], dict.fromkeys((OK, WRONG, MISS, ERROR), 0), {}
        meter = gauge.Meter()
        start = perf_counter()
        while not passes or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
            latencies = []
            for idx in range(len(wl.pool)):
                t0 = perf_counter()
                ok, result = self._op(idx)
                latencies.append(perf_counter() - t0)
                meter.after_op(latencies[-1])
                if ok and not judge:
                    continue
                outcome = self.judge(idx, result) if ok else ERROR
                outcomes[outcome] += 1
                label = wl.label(idx)
                if label is not None:
                    counts = by_class.setdefault(label, {})
                    counts[outcome] = counts.get(outcome, 0) + 1
            passes.append(latencies)
        meter.close()
        scales = iter(meter.scales)
        scaled = [[t * next(scales) for t in p] for p in passes]
        return {"passes": scaled, "raw_passes": passes, "unit_times": meter.unit_times,
                "outcomes": outcomes, "by_class": by_class}

    def warm_up(self, seconds: float) -> None:
        meter = gauge.Meter()
        deadline = perf_counter() + seconds
        i = 0
        while perf_counter() < deadline:
            t0 = perf_counter()
            self._op(i % len(self.wl.pool))
            meter.after_op(perf_counter() - t0)
            i += 1

    def judge(self, idx: int, result) -> str:
        fp = self.wl.fingerprint(result)
        if idx not in self.first:
            self.first[idx] = fp
            self.first_outcome[idx] = self.wl.check(idx, result)
            return self.first_outcome[idx]
        return self.first_outcome[idx] if fp == self.first[idx] else WRONG


def ops_per_s(passes: list[list[float]]) -> float:
    """Median over passes of the pass's ops per second of op time."""
    return float(np.median([len(p) / sum(p) for p in passes]))


def timings(passes: list[list[float]]) -> tuple[float, float, float, float, int]:
    """(ops_per_s, p50 s, tail percentile, tail s, samples beyond the tail)."""
    samples = [t for p in passes for t in p]
    pct, tail_s, beyond = tail(samples, len(passes[0]))
    return ops_per_s(passes), float(np.median(samples)), pct, tail_s, beyond


def end_to_end(phase: dict) -> tuple[dict, dict]:
    out = phase["outcomes"]
    attempted = sum(len(p) for p in phase["passes"])
    failed = out[WRONG] + out[ERROR]
    rate, p50_s, pct, tail_s, beyond = timings(phase["passes"])
    raw_rate, raw_p50_s, _, raw_tail_s, _ = timings(phase["raw_passes"])
    metrics = {
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * p50_s, "unit": "ms"},
        "op_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "success_rate": {"value": (attempted - failed - out[MISS]) / attempted,
                         "unit": "ratio"},
    }
    info = {
        "attempted": attempted,
        "failed": failed,
        "passes": len(phase["passes"]),
        "outcomes": out,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "error_rate": (failed + out[MISS]) / attempted,
        "unscaled": {"ops_per_s": raw_rate, "op_p50_ms": 1e3 * raw_p50_s,
                     "op_tail_ms": 1e3 * raw_tail_s},
        "gauge_unit_ms": {q: 1e3 * v for q, v in zip(
            ("min", "median", "max"), np.percentile(phase["unit_times"], [0, 50, 100]))},
    }
    if phase["by_class"]:
        info["outcomes_by_class"] = phase["by_class"]
    return metrics, info


def probe_eigensolves(tracer: Tracer) -> dict:
    """Eigensolves per stage for the mu = 0.5 state through dephasing:0.2."""
    counts = {}

    def stage(name, call):
        before = tracer.calls["qlinalg.eigvalsh"]
        result = call()
        counts[name] = tracer.calls["qlinalg.eigvalsh"] - before
        return result

    sigma = entropics.channel_output_ensemble(
        entropics.mu_ensemble(0.5), channels.builtin_isometry("dephasing", 0.2))
    region = stage("region_from_state", lambda: regions.region_from_state(sigma))
    stage("corner_points", lambda: regions.corner_points(region, 2.0))
    stage("derive_children", lambda: regions.derive_children(sigma))
    return counts


def per_layer(tracer: Tracer, ops: int, untraced: dict, traced: dict, probe: dict) -> dict:
    metrics = {}
    for layer, names in TRACED.items():
        for fn in names:
            key = f"{layer}.{fn}"
            metrics[f"{key}.calls"] = {"value": tracer.calls[key] / ops, "unit": "count"}
            metrics[f"{key}.self_ms"] = {"value": 1e3 * tracer.self_s[key] / ops, "unit": "ms"}
    calls = tracer.calls["regions.contains"]
    metrics["regions.contains.useful_ratio"] = {
        "value": tracer.accepted["regions.contains"] / calls if calls else 0.0, "unit": "ratio"}
    ops_untraced, ops_traced = ops_per_s(untraced["passes"]), ops_per_s(traced["passes"])
    metrics["trace.ops_per_s_untraced"] = {"value": ops_untraced, "unit": "1/s"}
    metrics["trace.ops_per_s_traced"] = {"value": ops_traced, "unit": "1/s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (ops_untraced - ops_traced) / ops_untraced, "unit": "%"}
    for stage, n in probe.items():
        metrics[f"probe.mu05_dephasing.eigvalsh.{stage}"] = {"value": n, "unit": "count"}
    metrics["probe.mu05_dephasing.eigvalsh.total"] = {
        "value": sum(probe.values()), "unit": "count"}
    return metrics


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    wl, import_s, prepare_s = set_up(name, seed)
    scale = gauge.REF_UNIT_S / gauge.unit_time(SETUP_GAUGE_S)
    report = {"setup": {"import_s": import_s, "prepare_s": prepare_s, "scale": scale}}
    if mode == "setup":
        print(json.dumps(report))
        return 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report["env"] = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}
    seconds, trace = float(argv[3]), argv[4] == "1"
    loop = Loop(wl)
    loop.warm_up(WARMUP_S)
    if not trace:
        phase = loop.run(seconds)
        report["metrics"], report["info"] = end_to_end(phase)
    else:
        untraced = loop.run(seconds / 2)
        with Tracer() as probe_tracer:
            probe = probe_eigensolves(probe_tracer)
        with Tracer() as tracer:
            traced = loop.run(seconds / 2, judge=False)
        ops = sum(len(p) for p in traced["passes"])
        report["metrics"] = per_layer(tracer, ops, untraced, traced, probe)
        _, report["info"] = end_to_end(untraced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{name}-{seed}.json",
                    {"workload": name, "seed": seed, "ops": ops})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
