"""One fresh process of the benchmark: set up, run one pass, check it.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--mc-workers W]

MODE is ``setup`` (set up and stop), ``timed`` (one untraced pass) or
``traced`` (one pass with every traced function wrapped).  The process
imports ``gwreduced`` from the ``src`` directory of the checkout it sits
in, and prints one JSON object as its last line of output.  The
calibration kernel runs after set-up and after every operation, outside
the timed regions, and the reported times are scaled by its median.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def _import_package():
    sys.path.insert(0, SRC)
    import gwreduced

    if not os.path.abspath(gwreduced.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gwreduced imported from {gwreduced.__file__}, not {SRC}")
    return gwreduced


def _peak_rss_mb() -> float:
    # Linux reports kilobytes; children is the largest waited-for child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--mc-workers", type=int, default=2)
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    laws = workloads.make_laws()
    workloads.warm_up(args.workload, laws, OUT_DIR, args.mc_workers)
    raw_setup_s = time.perf_counter() - T_START

    from calibration import REF_S, calibrate

    # the sampler's speed follows vector work in its pool's processes,
    # the exact routines' speed follows interpreted small-array work
    processes = args.mc_workers if args.workload == "mc_conditioned" else 0
    ref_s = REF_S[processes]
    calibrate(processes)  # the first run pays one-time costs
    calibration_s = [calibrate(processes)]
    if args.mode == "setup":
        calibration_s += [calibrate(processes) for _ in range(2)]
        scale = ref_s / statistics.median(calibration_s)
        print(json.dumps({"setup_s": raw_setup_s * scale, "raw_setup_s": raw_setup_s}))
        return 0

    jobs = workloads.build_jobs(args.workload, args.seed, args.mc_workers)
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    outputs = []
    job_s = []
    try:
        for job in jobs:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outputs.append(workloads.run_job(job, laws, OUT_DIR))
                else:
                    with tracer.job(job.label):
                        outputs.append(workloads.run_job(job, laws, OUT_DIR))
            except Exception:
                print(f"operation {job.label} raised:", file=sys.stderr)
                traceback.print_exc()
                outputs.append(None)
            job_s.append(time.perf_counter() - t0)
            calibration_s.append(calibrate(processes))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = _peak_rss_mb()
    # the median kernel time over the pass, taken around every operation,
    # follows the machine's drift and shrugs off single slow kernel runs
    scale = ref_s / statistics.median(calibration_s)

    import checks

    alpha = checks.FALSE_ALARM_PER_RUN / max(1, checks.mc_test_count(jobs))
    failed = wrong = bytes_written = accepted = 0
    digests = []
    for job, output in zip(jobs, outputs):
        if output is None:
            failed += 1
            wrong += 1
            digests.append(None)
            continue
        outcome = checks.check_job(job, output, laws, alpha)
        digests.append(checks.digest(job, output))
        if job.kind == "compare" and os.path.exists(output.path):
            os.remove(output.path)
        if job.kind == "mc":
            accepted += output.accepted
        failed += outcome.failed
        wrong += outcome.wrong
        bytes_written += outcome.bytes_written
        for note in outcome.notes:
            print(f"check {job.label}: {note}", file=sys.stderr)

    result = {
        "setup_s": raw_setup_s * scale,
        "raw_setup_s": raw_setup_s,
        "wall_s": sum(job_s) * scale,
        "raw_wall_s": sum(job_s),
        "job_s": job_s,
        "calibration_s": calibration_s,
        "jobs": [job.label for job in jobs],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs),
        "failed": failed,
        "correct": wrong == 0,
        "accepted": accepted,
        "digests": digests,
        "env": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
        },
    }
    if tracer is not None:
        metrics = tracer.layer_metrics()
        metrics["cli.bytes_written"] = (bytes_written, "bytes")
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["counts"] = tracer.exact_counts()
        spans_path = os.path.join(
            OUT_DIR, f"spans_{args.workload}_seed{args.seed}_{os.getpid()}.json"
        )
        tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed})
        result["spans_path"] = os.path.relpath(spans_path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
