"""The benchmark's workloads: fixed job lists built from a seed.

A job is one call into the public API of ``gwreduced``.  The seed picks
the order of the jobs, small shifts of the ancestor distances queried
in ``exact_band`` and the random streams of ``mc_conditioned``; it never
changes the horizons, bounds or time fractions, so the amount of work
in a pass is the same at every seed.

Why each workload exists (see METRICS.md for the metric map):

- ``exact_band``: linear band, C = floor(B*n) up to 800 at n = 800, so
  ``series.compose_step`` does n*K^2 work and the same population
  history is rebuilt several times per table.  t = 0.9 drives the jet
  order schedule to its cap of 20.  No sampling.
- ``exact_window``: sublinear window, C = floor(B*sqrt(n)) <= 45, so
  composition is cheap and the order 8 and 14 jets over m ~ n steps
  dominate.  It runs the whole ``compare`` command: limits, harness,
  CLI and the JSON write.
- ``mc_conditioned``: rejection sampling only, on two geometries whose
  acceptance differs twelvefold, so per-node cost and rejected-tree
  count can be told apart.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

import gwreduced as gw
from gwreduced import cli

WORKLOADS = ("exact_band", "exact_window", "mc_conditioned")
LAW_NAMES = ("linear_fractional", "poisson", "ternary_uniform")

BAND_N = 800
BAND_T = (0.5, 0.9)
# ancestor distances n/4, n/2, 3n/4, each shifted by at most this many
# generations; the cost of mrca_distance_cdf does not depend on them
BAND_U_JITTER = 8

WINDOW_N = (500, 1000, 2000)
WINDOW_X = 1.0

# (law, n, C, query generations, accepted target)
MC_GEOMETRIES = (
    ("ternary_uniform", 200, 50, (100,), 5000),
    ("linear_fractional", 100, 10, (50, 90), 1000),
)
MC_WORKERS = 2


@dataclass(frozen=True)
class Job:
    """One operation of a pass: ``kind`` names the public entry point."""

    kind: str
    law: str
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        shown = ",".join(f"{k}={v}" for k, v in self.params.items() if k != "seed")
        return f"{self.kind}[{self.law};{shown}]"


@dataclass(frozen=True)
class CompareOutput:
    """What one ``gwreduced compare`` call left behind."""

    exit_code: int
    path: str
    stdout: str


def make_laws() -> dict:
    return {name: gw.make_builtin(name) for name in LAW_NAMES}


def band_bound(law, n: int) -> int:
    return int(math.floor(law.half_variance * n))


def build_jobs(workload: str, seed: int, mc_workers: int = MC_WORKERS) -> list:
    """The fixed job list of one pass, in the order the seed gives."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, WORKLOADS.index(workload))))
    laws = make_laws()
    jobs = []
    if workload == "exact_band":
        n = BAND_N
        for name in LAW_NAMES:
            C = band_bound(laws[name], n)
            for t in BAND_T:
                jobs.append(Job("conditional", name, {"m": round(t * n), "n": n, "C": C}))
            shifts = rng.integers(-BAND_U_JITTER, BAND_U_JITTER + 1, size=3)
            distances = tuple(int(k * n // 4 + d) for k, d in zip((1, 2, 3), shifts))
            jobs.append(Job("mrca", name, {"n": n, "C": C, "distances": distances}))
    elif workload == "exact_window":
        for name in LAW_NAMES:
            jobs.append(Job("compare", name, {"n_grid": WINDOW_N, "x": WINDOW_X}))
    else:
        streams = np.random.SeedSequence(seed).generate_state(len(MC_GEOMETRIES))
        for (name, n, C, queries, target), stream in zip(MC_GEOMETRIES, streams):
            jobs.append(
                Job(
                    "mc",
                    name,
                    {
                        "n": n,
                        "C": C,
                        "queries": queries,
                        "target": target,
                        "seed": int(stream),
                        "workers": mc_workers,
                    },
                )
            )
    return [jobs[i] for i in rng.permutation(len(jobs))]


def run_job(job: Job, laws: dict, out_dir: str):
    """Make the job's one call into gwreduced and return its output."""
    law = laws[job.law]
    p = job.params
    if job.kind == "conditional":
        return gw.conditional_reduced_pmf(law, p["m"], p["n"], p["C"])
    if job.kind == "mrca":
        return gw.mrca_distance_cdf(law, p["n"], p["C"], list(p["distances"]))
    if job.kind == "compare":
        return run_compare(job.law, p["n_grid"], p["x"], out_dir)
    if job.kind == "mc":
        return gw.run_conditioned_batch(
            law,
            p["n"],
            p["C"],
            list(p["queries"]),
            target_accepted=p["target"],
            seed=p["seed"],
            workers=p["workers"],
        )
    raise ValueError(f"unknown job kind {job.kind!r}")


def run_compare(law_name: str, n_grid, x: float, out_dir: str) -> CompareOutput:
    path = os.path.join(out_dir, f"compare_{law_name}_{os.getpid()}.json")
    argv = [
        "compare",
        "--regime",
        "small_phi",
        "--law",
        law_name,
        "--x",
        repr(x),
        "--n",
        ",".join(str(n) for n in n_grid),
        "--out",
        path,
    ]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.cli_main(argv)
    return CompareOutput(exit_code=code, path=path, stdout=buf.getvalue())


def warm_up(workload: str, laws: dict, out_dir: str, mc_workers: int = MC_WORKERS) -> None:
    """One tiny call on each path the workload uses."""
    if workload == "exact_band":
        for law in laws.values():
            gw.conditional_reduced_pmf(law, 8, 16, 4)
            gw.mrca_distance_cdf(law, 16, 4, [4])
    elif workload == "exact_window":
        for name in LAW_NAMES:
            out = run_compare(name, (16,), WINDOW_X, out_dir)
            os.remove(out.path)
    else:
        for name, *_ in MC_GEOMETRIES:
            gw.run_conditioned_batch(
                laws[name], 8, 4, [4], target_accepted=4, seed=0, workers=mc_workers,
                chunk_size=256,
            )
