"""In-memory tracing of calls into gwreduced, from outside the package.

``Tracer.install`` replaces each traced public function by a wrapper in
every module namespace that binds it (``compose_step`` is bound in both
``series`` and ``reduced``, for instance), so calls between modules are
seen too.  Each call becomes a span ``(id, parent, name, start, end)``;
spans stay in memory until ``dump``.  A span's self time is its length
minus the time its child spans cover.  Counters are taken at the same
boundaries, from the arguments and results of the traced calls.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

from gwreduced import cli, harness, limits, offspring, reduced, series, simulate

# (span name, object holding the original, attribute)
TARGETS = (
    ("series.compose_step", series, "compose_step"),
    ("series.pmf_Zn", series, "pmf_Zn"),
    ("series.derivative_jet", series, "derivative_jet"),
    ("offspring.pgf_derivatives", offspring, "pgf_derivatives"),
    ("offspring.sample_offspring", offspring, "sample_offspring"),
    ("reduced.conditional_reduced_pmf", reduced, "conditional_reduced_pmf"),
    ("reduced.joint_reduced_bounded", reduced, "joint_reduced_bounded"),
    ("reduced.bounded_survival_prob", reduced, "bounded_survival_prob"),
    ("reduced.mrca_distance_cdf", reduced, "mrca_distance_cdf"),
    ("limits.pmf_values", limits.LimitQuery, "pmf_values"),
    ("limits.gf", limits.LimitQuery, "gf"),
    ("harness.run_experiment", harness, "run_experiment"),
    ("cli.cli_main", cli, "cli_main"),
    ("simulate.run_conditioned_batch", simulate, "run_conditioned_batch"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def self_times(spans) -> dict:
    """Self time of every span id: duration minus covered child time.

    Spans come from one thread, so children nest inside their parent
    and never overlap one another.
    """
    covered = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _, _, start, end in spans}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.order_max = 0
        self.deficit_max = 0.0
        self._stack = []
        self._job_pmf_keys = set()
        self._patches = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        namespaces = [m for name, m in sys.modules.items()
                      if name == "gwreduced" or name.startswith("gwreduced.")]
        for span_name, owner, attr in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name, original)
            holders = [owner] if isinstance(owner, type) else [
                m for m in namespaces if m.__dict__.get(attr) is original
            ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- spans ---------------------------------------------------------

    @contextlib.contextmanager
    def job(self, label: str):
        """Top-level span of one benchmark operation."""
        self._job_pmf_keys = set()
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = (sid, None, "job " + label, start, time.perf_counter())
            self._stack.pop()

    def _wrap(self, name, original):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        tracer = self
        calls = name + ".calls"
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[sid] = (sid, parent, name, start, clock())
                stack.pop()
            tracer.counts[calls] += 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    # -- counters taken at the boundaries -----------------------------

    def _on_series_compose_step(self, args, kwargs, result):
        K = len(_arg(args, kwargs, 1, "g")) - 1
        # nominal work of one truncated composition: sum_{k<=K} k
        self.counts["series.compose_step.madds_computed"] += K * (K + 1) // 2

    def _on_series_pmf_Zn(self, args, kwargs, result):
        law = _arg(args, kwargs, 0, "law")
        key = (law.label, _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 2, "K"))
        if key in self._job_pmf_keys:
            self.counts["series.pmf_Zn.dup_calls"] += 1
        self._job_pmf_keys.add(key)

    def _on_series_derivative_jet(self, args, kwargs, result):
        self.counts["series.derivative_jet.steps"] += _arg(args, kwargs, 1, "n")
        self.order_max = max(self.order_max, _arg(args, kwargs, 3, "J"))

    def _on_offspring_sample_offspring(self, args, kwargs, result):
        self.counts["offspring.sample_offspring.draws"] += _arg(args, kwargs, 2, "size")

    def _on_reduced_conditional_reduced_pmf(self, args, kwargs, result):
        deficit = 1.0 - result.mass_accounted
        self.counts["reduced.tables"] += 1
        self.counts["reduced.contract_misses"] += deficit >= result.epsilon
        self.deficit_max = max(self.deficit_max, deficit)

    def _on_simulate_run_conditioned_batch(self, args, kwargs, result):
        self.counts["simulate.run_conditioned_batch.replicates"] += result.replicates
        self.counts["simulate.run_conditioned_batch.accepted"] += result.accepted
        self.counts["simulate.run_conditioned_batch.chunks"] += len(result.stream_ids)
        self.counts["simulate.run_conditioned_batch.budget_rejected"] += (
            result.budget_rejected
        )

    # -- results -------------------------------------------------------

    def times(self):
        """Total and self seconds per span name."""
        selfs = self_times(self.spans)
        total = defaultdict(float)
        own = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            total[name] += end - start
            own[name] += selfs[sid]
        return total, own

    def exact_counts(self) -> dict:
        """The counts that must repeat exactly at one seed."""
        keys = (
            "series.compose_step.calls",
            "series.compose_step.madds_computed",
            "series.pmf_Zn.calls",
            "series.pmf_Zn.dup_calls",
            "series.derivative_jet.calls",
            "series.derivative_jet.steps",
            "offspring.pgf_derivatives.calls",
            "offspring.sample_offspring.calls",
            "offspring.sample_offspring.draws",
            "simulate.run_conditioned_batch.replicates",
            "simulate.run_conditioned_batch.accepted",
        )
        return {key: int(self.counts[key]) for key in keys}

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c = self.counts
        total, own = self.times()
        tables = c["reduced.tables"]

        def ratio(num, den):
            return num / den if den else 0.0

        batch = "simulate.run_conditioned_batch"
        out = {
            "series.compose_step.calls": (c["series.compose_step.calls"], "count"),
            "series.compose_step.madds_computed": (
                c["series.compose_step.madds_computed"], "count"),
            "series.compose_step.self_s": (own["series.compose_step"], "s"),
            "series.madds_per_s": (
                ratio(c["series.compose_step.madds_computed"],
                      total["series.compose_step"]), "1/s"),
            "series.pmf_Zn.calls": (c["series.pmf_Zn.calls"], "count"),
            "series.pmf_Zn.dup_calls": (c["series.pmf_Zn.dup_calls"], "count"),
            "series.pmf_Zn.s": (total["series.pmf_Zn"], "s"),
            "series.derivative_jet.calls": (c["series.derivative_jet.calls"], "count"),
            "series.derivative_jet.steps": (c["series.derivative_jet.steps"], "count"),
            "series.derivative_jet.order_max": (self.order_max, "count"),
            "series.derivative_jet.self_s": (own["series.derivative_jet"], "s"),
            "offspring.pgf_derivatives.calls": (
                c["offspring.pgf_derivatives.calls"], "count"),
        }
        for fn in ("conditional_reduced_pmf", "joint_reduced_bounded",
                   "bounded_survival_prob", "mrca_distance_cdf"):
            out[f"reduced.{fn}.self_s"] = (own[f"reduced.{fn}"], "s")
        out.update({
            "reduced.bounded_survival_prob.calls_per_table": (
                ratio(c["reduced.bounded_survival_prob.calls"], tables), "ratio"),
            "reduced.jet_passes_per_table": (
                ratio(c["series.derivative_jet.calls"], tables), "ratio"),
            "reduced.mass_deficit_max": (self.deficit_max, "ratio"),
            "reduced.contract_misses": (c["reduced.contract_misses"], "count"),
            "limits.pmf_values.s": (total["limits.pmf_values"], "s"),
            "limits.gf.calls": (c["limits.gf.calls"], "count"),
            "harness.run_experiment.self_s": (own["harness.run_experiment"], "s"),
            "cli.cli_main.self_s": (own["cli.cli_main"], "s"),
            "offspring.sample_offspring.calls": (
                c["offspring.sample_offspring.calls"], "count"),
            "offspring.sample_offspring.draws": (
                c["offspring.sample_offspring.draws"], "count"),
            "offspring.sample_offspring.self_s": (own["offspring.sample_offspring"], "s"),
            "offspring.sample_offspring.draws_per_s": (
                ratio(c["offspring.sample_offspring.draws"],
                      total["offspring.sample_offspring"]), "1/s"),
            f"{batch}.self_s": (own[batch], "s"),
            f"{batch}.replicates": (c[f"{batch}.replicates"], "count"),
            f"{batch}.accepted": (c[f"{batch}.accepted"], "count"),
            f"{batch}.acceptance_ratio": (
                ratio(c[f"{batch}.accepted"], c[f"{batch}.replicates"]), "ratio"),
            f"{batch}.nodes_per_accepted": (
                ratio(c["offspring.sample_offspring.draws"], c[f"{batch}.accepted"]),
                "ratio"),
            f"{batch}.chunks": (c[f"{batch}.chunks"], "count"),
            f"{batch}.budget_rejected": (c[f"{batch}.budget_rejected"], "count"),
        })
        return out

    def dump(self, path: str, meta: dict) -> None:
        """Write every span, times relative to the first span's start."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "fields": ["id", "parent", "name", "start_s", "end_s"],
                    "spans": [
                        [sid, parent, name, start - origin, end - origin]
                        for sid, parent, name, start, end in self.spans
                    ],
                },
                fh,
            )
            fh.write("\n")
