"""Tests of the benchmark itself: tracing, exact repeats and the checks.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import dataclasses

import numpy as np
import pytest

import checks
import workloads
from gwreduced import reduced, series
from tracer import Tracer, self_times
from workloads import Job

LAWS = workloads.make_laws()

SMALL_JOBS = (
    Job("conditional", "poisson", {"m": 54, "n": 60, "C": 30}),
    Job("conditional", "linear_fractional", {"m": 30, "n": 60, "C": 60}),
    Job("mrca", "ternary_uniform", {"n": 60, "C": 15, "distances": (15, 30, 45)}),
    Job("compare", "linear_fractional", {"n_grid": (100, 400), "x": 1.0}),
    Job("mc", "ternary_uniform",
        {"n": 40, "C": 10, "queries": (20,), "target": 200, "seed": 5, "workers": 1}),
)


def _traced_pass(jobs, tmp_path):
    tracer = Tracer()
    outputs = []
    with tracer.installed():
        for job in jobs:
            with tracer.job(job.label):
                outputs.append(workloads.run_job(job, LAWS, str(tmp_path)))
    return tracer, [checks.digest(job, out) for job, out in zip(jobs, outputs)]


def test_self_time_subtracts_covered_child_time():
    spans = [
        (0, None, "outer", 0.0, 10.0),
        (1, 0, "inner", 1.0, 4.0),
        (2, 1, "leaf", 2.0, 3.0),
        (3, 0, "inner", 5.0, 7.0),
    ]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}


def test_tracer_wraps_every_binding_and_restores_them():
    original = series.compose_step
    assert reduced.compose_step is original
    tracer = Tracer()
    with tracer.installed():
        assert series.compose_step is not original
        assert reduced.compose_step is series.compose_step
        reduced.mrca_distance_cdf(LAWS["poisson"], 10, 4, [5])
    assert series.compose_step is original and reduced.compose_step is original
    # the history inside mrca_distance_cdf composes through reduced's binding
    assert tracer.counts["series.compose_step.calls"] == 10
    names = {span[2] for span in tracer.spans}
    assert {"reduced.mrca_distance_cdf", "series.compose_step",
            "offspring.pgf_derivatives"} <= names


def test_counts_repeat_exactly_at_one_seed(tmp_path):
    first, digests1 = _traced_pass(SMALL_JOBS, tmp_path)
    second, digests2 = _traced_pass(SMALL_JOBS, tmp_path)
    counts = first.exact_counts()
    assert counts == second.exact_counts()
    assert digests1 == digests2
    for key in ("series.compose_step.madds_computed", "series.pmf_Zn.dup_calls",
                "series.derivative_jet.steps", "offspring.sample_offspring.draws",
                "simulate.run_conditioned_batch.replicates",
                "simulate.run_conditioned_batch.accepted"):
        assert counts[key] > 0, key


def test_mc_output_is_the_same_at_one_and_two_workers():
    digests = {}
    for workers in (1, 2):
        jobs = [
            Job("mc", name, {"n": n, "C": C, "queries": queries, "target": target // 10,
                             "seed": 11, "workers": workers})
            for name, n, C, queries, target in workloads.MC_GEOMETRIES
        ]
        digests[workers] = [
            checks.digest(job, workloads.run_job(job, LAWS, "")) for job in jobs
        ]
    assert digests[1] == digests[2]


def test_job_lists_differ_by_seed_only_in_order_and_streams():
    for workload in workloads.WORKLOADS:
        a = workloads.build_jobs(workload, 3)
        assert a == workloads.build_jobs(workload, 3)
        b = workloads.build_jobs(workload, 4)

        def work(jobs):
            return sorted((j.kind, j.law, j.params.get("n"), j.params.get("C"),
                           j.params.get("m"), j.params.get("target")) for j in jobs)

        assert work(a) == work(b)


def test_lf_references_are_distributions():
    n, C = 300, 40
    assert checks.lf_terminal_pmf(n, C).sum() == pytest.approx(1.0, abs=1e-13)
    for m in (0, 1, 150, 299):
        assert checks.lf_conditional_pmf(m, n, C).sum() == pytest.approx(1.0, abs=1e-12)
    cdf = checks.lf_mrca_cdf(n, C, np.arange(n + 1))
    assert cdf[-1] == pytest.approx(1.0, abs=1e-13)
    assert np.all(np.diff(cdf) >= 0.0)


def test_checks_tell_a_wrong_table_from_a_contract_miss():
    job = Job("conditional", "linear_fractional", {"m": 30, "n": 60, "C": 60})
    table = workloads.run_job(job, LAWS, "")
    good = checks.check_job(job, table, LAWS, 1e-7)
    assert not good.failed, good.notes

    pmf = table.pmf.copy()
    pmf[0] += 1e-9
    wrong = checks.check_job(job, dataclasses.replace(table, pmf=pmf), LAWS, 1e-7)
    assert wrong.failed and wrong.wrong

    short = dataclasses.replace(table, pmf=table.pmf[:2])
    miss = checks.check_job(job, short, LAWS, 1e-7)
    assert miss.failed and not miss.wrong


def test_band_table_at_t_09_is_counted_as_failed():
    n = workloads.BAND_N
    law = LAWS["ternary_uniform"]
    job = Job("conditional", "ternary_uniform",
              {"m": round(0.9 * n), "n": n, "C": workloads.band_bound(law, n)})
    outcome = checks.check_job(job, workloads.run_job(job, LAWS, ""), LAWS, 1e-7)
    assert outcome.failed and not outcome.wrong
    assert "unaccounted mass" in outcome.notes[0]


def test_chisquare_separates_right_and_wrong_laws():
    rng = np.random.default_rng(1)
    probs = np.array([0.5, 0.3, 0.15, 0.05])
    samples = rng.choice(4, size=5000, p=probs)
    assert checks.chisquare_pvalue(samples, probs) > 1e-3
    assert checks.chisquare_pvalue(samples, probs[::-1]) < 1e-12
