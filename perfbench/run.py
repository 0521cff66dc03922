"""Benchmark of gwreduced: one workload, measured from a seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: exact_band, exact_window,
mc_conditioned (see workloads.py for why each exists).  The load is a
closed loop: one operation at a time, each pass of the fixed job list
in its own fresh process (worker.py); only mc_conditioned starts a
2-process pool inside that process.

--trace 0 runs passes until S seconds have gone by, and at least
MIN_PASSES of them, and reports the end-to-end metrics: wall_s, the
median wall time of one pass; setup_s, the median time a fresh process
takes to import gwreduced, build the laws and warm up each path the
workload uses (at least SETUP_SAMPLES processes); peak_rss_mb, the
highest resident memory of a pass process plus its largest pool child.
Both times are scaled to the machine's reference speed, measured by
a fixed kernel of calibration.py around every operation; the unscaled
medians are printed as raw_wall_s and raw_setup_s.

--trace 1 runs one untraced and one traced pass, each in a fresh
process (mc_conditioned at workers=1, so every span stays in one
process), and reports the per-layer metrics of the traced pass with
trace.overhead_frac = traced wall / untraced wall - 1.

Every metric is printed as "name value unit" and the last line is one
JSON object with the keys correct, attempted, failed and metrics.  The
run exits with code 1, printing no result, if a process cannot start,
crashes or overruns its time.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# as in workloads.py, which this process does not import: the parent
# only starts workers, so it never loads gwreduced itself
WORKLOADS = ("exact_band", "exact_window", "mc_conditioned")
MIN_PASSES = 2
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"worker {' '.join(args)} overran the time budget") from None
    finally:
        # reap pool children the worker may have left behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise WorkerError(f"worker {' '.join(args)} printed no result") from None


def timed_run(workload, seed, seconds, deadline):
    base = ["--workload", workload, "--seed", str(seed)]
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        last = time.monotonic()
        passes.append(run_worker([*base, "--mode", "timed"], deadline))
        if time.monotonic() + 2 * (time.monotonic() - last) > deadline:
            break
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker([*base, "--mode", "setup"], deadline))

    walls = [p["wall_s"] for p in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    repeat_ok = all(p["digests"] == passes[0]["digests"] for p in passes)
    info = [
        f"passes {len(passes)} (wall_s per pass: "
        + ", ".join(f"{w:.4f}" for w in walls) + ")",
        f"raw_wall_s {statistics.median(p['raw_wall_s'] for p in passes)} s "
        f"(unscaled, per pass: " + ", ".join(f"{p['raw_wall_s']:.4f}" for p in passes) + ")",
        f"raw_setup_s {statistics.median(p['raw_setup_s'] for p in setups)} s "
        f"(unscaled, {len(setups)} processes)",
        f"failed_frac {failed / attempted:.6f} ratio ({failed} of {attempted} operations)",
    ]
    if workload == "mc_conditioned":
        rate = statistics.median(p["accepted"] / p["wall_s"] for p in passes)
        info.append(f"accepted_per_s {rate:.2f} 1/s")
    if not repeat_ok:
        info.append("outputs differ between passes at one seed")
    correct = repeat_ok and all(p["correct"] for p in passes)
    return passes[0], metrics, correct, attempted, failed, info


def traced_run(workload, seed, deadline):
    base = ["--workload", workload, "--seed", str(seed), "--mc-workers", "1"]
    plain = run_worker([*base, "--mode", "timed"], deadline)
    traced = run_worker([*base, "--mode", "traced"], deadline)
    metrics = {k: (v["value"], v["unit"]) for k, v in traced["layers"].items()}
    metrics["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    metrics["run.failed_frac"] = (failed / attempted, "ratio")
    repeat_ok = plain["digests"] == traced["digests"]
    info = [f"spans written to {traced['spans_path']}"]
    if not repeat_ok:
        info.append("traced outputs differ from untraced ones at one seed")
    correct = repeat_ok and plain["correct"] and traced["correct"]
    return traced, metrics, correct, attempted, failed, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            sample, metrics, correct, attempted, failed, info = traced_run(
                args.workload, args.seed, deadline)
        else:
            sample, metrics, correct, attempted, failed, info = timed_run(
                args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = sample["env"]
    print(f"workload {args.workload} seed {args.seed} cores {env['cores']} "
          f"python {env['python']} numpy {env['numpy']}")
    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
