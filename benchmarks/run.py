"""cqekit benchmark: one seeded workload run, reported as one JSON line.

Usage, from the root of a source checkout:

  python3 benchmarks/run.py --workload region|check|curves|union \\
      --seed N --seconds S --trace 0|1

Each run starts fresh child processes (worker.py) with single-threaded BLAS
and PYTHONPATH set to the checkout's src/, so the library is imported from
source and this process never imports numpy or cqekit itself:

* SETUP_PROBES set-up-only processes, which time `import cqekit.cli` plus the
  workload's library-side preparation; with the measuring process's own
  set-up they give the median `setup_s`.  Some run before the measuring
  process and the rest after it, so they sample the host's speed at both
  ends of the run;
* one measuring process, which sets up, warms up for 1 s and then runs the
  workload as a closed loop for up to S seconds, in whole passes over its
  seeded input pool.  With --trace 0 it
  reports the end-to-end metrics; with --trace 1 it runs S/2 seconds
  untraced and S/2 seconds with every public function of every layer
  traced, and reports per-layer metrics per op plus the tracing overhead.

End-to-end metrics: ops_per_s is the median over passes of the pass's ops
per second of op time; op_p50_ms the median latency over all ops;
op_tail_ms the latency over all of the run's ops at a percentile fixed per
workload, the highest that leaves 10 ops beyond it in one pass over the
pool (so 10 per pass in any run); setup_s the median set-up time;
peak_rss_mb the measuring process's peak resident set; success_rate the
share of ops that gave the exact answer, i.e. 1 - error_rate.  An op that
raises or breaks its function's documented contract counts as failed; an
off-grid hull point that union_membership's lambda-grid inner
approximation rejects lowers success_rate but is not a failure.

Every end-to-end time (and setup.import_s, setup.prepare_s) is scaled to a
reference machine speed by a gauge timed in the same process at the same
moment (gauge.py), because a shared host's speed drifts by more than the
bounds within minutes.  The unscaled times and the gauge's unit times are
printed in the '# run' line; the per-layer self times are not scaled.

Every workload's outputs are checked outside the timed region.  Lines
starting with '#' describe the run (environment, error rate, the tail
percentile and its sample count, and for union the outcomes per query
class); the last line is the result:
{"correct", "attempted", "failed", "metrics"}.  Use a second, held-out seed
to confirm a claim made on the seeds used while writing a change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("region", "check", "curves", "union")
SETUP_PROBES = 5
SETUP_PROBES_BEFORE = 3  # of SETUP_PROBES, run before the measuring process
DEADLINE_S = 170.0
PROBE_TIMEOUT_S = 15.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_nonblank_lines(root: Path) -> int:
    return sum(1 for path in sorted((root / "src").rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "cqekit" / "cli.py").is_file():
        print(f"error: no cqekit source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    seed = str(args.seed)

    def probe_setup() -> dict:
        return call_worker(["setup", args.workload, seed], env, PROBE_TIMEOUT_S)["setup"]

    setups = [probe_setup() for _ in range(SETUP_PROBES_BEFORE)]
    after = (SETUP_PROBES - SETUP_PROBES_BEFORE) * PROBE_TIMEOUT_S
    remaining = DEADLINE_S - after - (time.monotonic() - start)
    report = call_worker(["run", args.workload, seed, repr(args.seconds), str(args.trace)],
                         env, remaining)
    setups.append(report["setup"])
    setups += [probe_setup() for _ in range(SETUP_PROBES - SETUP_PROBES_BEFORE)]
    raw_totals = [s["import_s"] + s["prepare_s"] for s in setups]
    totals = [t * s["scale"] for t, s in zip(raw_totals, setups)]
    run = report["info"]
    lines = src_nonblank_lines(root)
    print("# env " + json.dumps({"python": platform.python_version(), **report["env"],
                                 "nproc": len(os.sched_getaffinity(0)),
                                 "src_nonblank_lines": lines}))
    run["unscaled"]["setup_s"] = statistics.median(raw_totals)
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed, **run,
                                 "setup_samples": len(setups)}))

    metrics = report["metrics"]
    if args.trace:
        metrics["setup.import_s"] = {
            "value": statistics.median(s["import_s"] * s["scale"] for s in setups), "unit": "s"}
        metrics["setup.prepare_s"] = {
            "value": statistics.median(s["prepare_s"] * s["scale"] for s in setups), "unit": "s"}
        metrics["info.src_nonblank_lines"] = {"value": lines, "unit": "count"}
    else:
        metrics["setup_s"] = {"value": statistics.median(totals), "unit": "s"}
    correct = run["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
