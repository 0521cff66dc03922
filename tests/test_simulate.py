import hashlib
import itertools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

import brute_force
from gwreduced import AcceptanceBudgetExhausted, make_builtin, make_custom
from gwreduced import simulate
from gwreduced.output import write_output
from gwreduced.reduced import (
    bounded_survival_prob,
    conditional_reduced_pmf,
    mrca_distance_cdf,
    reduced_pmf,
)
from gwreduced.series import extinction_prob
from gwreduced.simulate import (
    CHUNK_MAX,
    NODE_BUDGET,
    _grow,
    _mark_backward,
    _next_generation,
    _parent_lines,
    default_chunk_size,
    run_conditioned_batch,
)

LF = make_builtin("linear_fractional")
POISSON = make_builtin("poisson")
TERNARY = make_builtin("ternary_uniform")
TPMF = brute_force.TERNARY
# a narrow and a wide finite law
NARROW = make_custom([0.35, 0.35, 0.25, 0.05])
WIDE = make_custom([0.741, 0.221] + [0.001] * 38)


def _batch_digest(batch):
    h = hashlib.sha256()
    for arr in (batch.reduced_counts, batch.mrca_distances,
                batch.terminal_sizes, batch.replicate_ids):
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()


def _history(law, profile, families=None):
    """A one-replicate history as ``_grow`` lays it out, from the sizes
    Z(1..n) and, for a custom law, the family counts of Z(0..n-1)."""
    one = np.zeros(1, dtype=np.int32)
    return [
        (one, np.array([z], dtype=np.int32),
         None if families is None else np.array([f], dtype=np.int32))
        for z, f in zip(profile, families or [None] * len(profile))
    ]


def _exact_parent_count(weights, a, b, r):
    """Exact law of the number of distinct parents of a uniform r-subset
    of the b children of a parents whose family sizes are iid with
    weights ``weights`` (a sequence over 0..b), given that they sum to b."""
    law = {}
    for sizes in itertools.product(range(b + 1), repeat=a):
        if sum(sizes) != b:
            continue
        w = math.prod(weights[k] for k in sizes)
        if not w:
            continue
        parent = [i for i, k in enumerate(sizes) for _ in range(k)]
        subsets = list(itertools.combinations(parent, r))
        for chosen in subsets:
            d = len(set(chosen))
            law[d] = law.get(d, Fraction(0)) + w / len(subsets)
    total = sum(law.values())
    return {d: p / total for d, p in law.items()}


def _pooled_pvalue(samples, probs):
    """Chi-square p-value of samples of 0, 1, ... against ``probs``, with
    the table's missing mass as one more cell and neighbouring cells
    pooled until each expects 5."""
    counts = np.bincount(samples, minlength=len(probs) + 1)
    observed = np.append(counts[: len(probs)], counts[len(probs):].sum())
    expected = np.append(probs, max(0.0, 1.0 - np.sum(probs))) * len(samples)
    obs, exp = [0.0], [0.0]
    for o, e in zip(observed, expected):
        if exp[-1] >= 5.0:
            obs.append(0.0)
            exp.append(0.0)
        obs[-1] += o
        exp[-1] += e
    if exp[-1] < 5.0 and len(exp) > 1:
        last_obs, last_exp = obs.pop(), exp.pop()
        obs[-1] += last_obs
        exp[-1] += last_exp
    exp = np.asarray(exp) * sum(obs) / sum(exp)
    return scipy.stats.chisquare(obs, exp).pvalue


class TestGrow:
    @pytest.mark.parametrize("law", [LF, POISSON, TERNARY, NARROW],
                             ids=["lf", "poisson", "ternary", "custom4"])
    def test_size_profile_layout(self, law):
        # each generation lists, in id order, the replicates alive there,
        # all alive one generation up; family counts add up to the sizes
        size, n = 200, 6
        history, budget_ok = _grow(law, n, np.random.default_rng(3), size, NODE_BUDGET)
        assert len(history) == n
        above_ids, above_sizes = np.arange(size), np.ones(size, dtype=np.int32)
        for ids, sizes, families in history:
            assert ids.dtype == sizes.dtype == np.int32
            assert np.all(np.diff(ids) > 0)
            assert np.all(sizes > 0)
            parents = above_sizes[np.searchsorted(above_ids, ids)]
            assert np.array_equal(above_ids[np.searchsorted(above_ids, ids)], ids)
            if law is NARROW:
                assert families.dtype == np.int32
                assert np.array_equal(families @ np.arange(1, 4), sizes)
                assert np.all(families.sum(axis=1) <= parents)
            else:
                assert families is None
            above_ids, above_sizes = ids, sizes
        assert budget_ok.all()

    @pytest.mark.parametrize("law, weights", [
        pytest.param(LF, [0.5 ** (k + 1) for k in range(60)], id="lf"),
        pytest.param(POISSON, [math.exp(-1) / math.factorial(k) for k in range(40)],
                     id="poisson"),
        pytest.param(TERNARY, [0.25, 0.5, 0.25], id="ternary"),
        pytest.param(NARROW, [0.35, 0.35, 0.25, 0.05], id="custom4"),
    ])
    def test_generation_total_is_the_convolution_power(self, law, weights):
        # three parents have the 3-fold convolution of the law as children
        reps = 40_000
        totals, _ = _next_generation(law, np.random.default_rng(11),
                                     np.full(reps, 3, dtype=np.int32))
        probs = np.convolve(np.convolve(weights, weights), weights)
        assert _pooled_pvalue(totals, probs) > 0.001


class TestMarkBackward:
    @pytest.mark.parametrize("law, profile, families, reduced, distance", [
        pytest.param(LF, [1, 1, 1], None, [1, 1, 1, 1], 1, id="single_line"),
        # both slots of both parents are filled and marked
        pytest.param(TERNARY, [2, 4], None, [1, 2, 4], 2, id="full_slots"),
        # one family of three, whose members have one child each
        pytest.param(NARROW, [3, 3], [[0, 0, 1], [3, 0, 0]], [1, 3, 3], 2,
                     id="split_at_root"),
        # one line to generation 1, whose individual has two children
        # that each have one
        pytest.param(NARROW, [1, 2, 2], [[1, 0, 0], [0, 1, 0], [2, 0, 0]],
                     [1, 1, 2, 2], 2, id="late_split"),
        # three families of one under one family of three: all marks on
        # one block at the root
        pytest.param(NARROW, [3, 3, 3], [[0, 0, 1], [3, 0, 0], [3, 0, 0]],
                     [1, 3, 3, 3], 3, id="no_coalescence_below_root"),
    ])
    def test_forced_genealogy(self, law, profile, families, reduced, distance):
        history = _history(law, profile, families)
        counts, distances = _mark_backward(
            law, history, np.zeros(1, dtype=np.int64), tuple(range(len(profile) + 1)),
            np.random.default_rng(0),
        )
        assert counts.tolist() == [reduced]
        assert distances.tolist() == [distance]

    def test_rows_and_kept_generations(self):
        # two replicates; marking replicate 1 alone, in any query order
        one = np.array([0, 1], dtype=np.int32)
        history = [(one, np.array([1, 2], dtype=np.int32), None),
                   (one, np.array([1, 4], dtype=np.int32), None)]
        counts, distances = _mark_backward(
            TERNARY, history, np.array([1]), (2, 0, 1, 2), np.random.default_rng(0)
        )
        assert counts.tolist() == [[4, 1, 2, 4]]
        assert distances.tolist() == [2]

    @pytest.mark.parametrize("law, weights", [
        pytest.param(LF, [Fraction(1, 2 ** (k + 1)) for k in range(7)], id="lf"),
        pytest.param(POISSON, [Fraction(1, math.factorial(k)) for k in range(7)],
                     id="poisson"),
        pytest.param(TERNARY, list(TPMF) + [Fraction(0)] * 4, id="ternary"),
        pytest.param(NARROW, [Fraction(35, 100), Fraction(35, 100), Fraction(25, 100),
                              Fraction(5, 100)] + [Fraction(0)] * 3, id="custom4"),
    ])
    @pytest.mark.parametrize("a, b, r", [(2, 3, 2), (3, 4, 3), (3, 6, 4), (4, 5, 3)])
    def test_one_step_matches_enumeration(self, law, weights, a, b, r):
        # the number of distinct parents of r marked children among b,
        # against every family-size vector of a parents summing to b
        rng = np.random.default_rng(1000 * a + 100 * b + r)
        reps = 20_000
        families = None
        if law is NARROW:
            # family counts given the total, by rejection from the multinomial
            draws = rng.multinomial(a, law.support_pmf, size=20 * reps)[:, 1:]
            families = draws[draws @ np.arange(1, 4) == b][:reps].astype(np.int32)
            reps = len(families)
        got = _parent_lines(law, rng, np.full(reps, a, dtype=np.int32),
                            np.full(reps, r, dtype=np.int64), families)
        want = _exact_parent_count(weights, a, b, r)
        counts = np.bincount(got, minlength=r + 1)
        assert set(np.flatnonzero(counts)) <= set(want)
        cells = sorted(want)
        obs = [counts[d] for d in cells]
        exp = [float(want[d]) * reps for d in cells]
        if len(cells) > 1:
            assert scipy.stats.chisquare(obs, exp).pvalue > 0.001


class TestConditionedBatch:
    def test_replay_is_identical(self):
        a = run_conditioned_batch(TERNARY, 8, 3, [2, 4], 200, seed=42)
        b = run_conditioned_batch(TERNARY, 8, 3, [2, 4], 200, seed=42)
        assert a.replicates == b.replicates
        assert np.array_equal(a.reduced_counts, b.reduced_counts)
        assert np.array_equal(a.mrca_distances, b.mrca_distances)
        assert np.array_equal(a.replicate_ids, b.replicate_ids)
        assert a.stream_ids == b.stream_ids

    @pytest.mark.parametrize("workers", [1, 2])
    def test_output_digest_is_pinned(self, workers):
        # digest of the batch arrays as the size-profile sampler draws them
        batch = run_conditioned_batch(
            TERNARY, 8, 3, [2, 4], 200, seed=42, workers=workers
        )
        h = hashlib.sha256()
        for arr in (batch.reduced_counts, batch.mrca_distances,
                    batch.terminal_sizes, batch.replicate_ids):
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        assert h.hexdigest() == (
            "f8f02c11c7cf2c30f6a55e65f693c12d0ff70a43fc63a776f38c2b91b9d73dfa"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("law, n, C, queries, target, seed, budget, digest", [
        pytest.param(
            LF, 100, 10, [50, 90], 100, 3, None,
            "b05f9671d61f69d80db9624fcb8c27a79096137e365d09928de82f145a8d7311",
            id="lf",
        ),
        pytest.param(
            POISSON, 40, 5, [10, 30], 300, 5, None,
            "339e846c83ba04fa94b69e78a28c8a73892a5bb8764beae4476dbf1859a46238",
            id="poisson",
        ),
        pytest.param(
            NARROW, 30, 4, [15], 300, 6, None,
            "deb27aa67803f68e7a129a7d7334cffefa1ffa5fb196b35edff162e508b35bd4",
            id="custom4",
        ),
        pytest.param(
            WIDE, 20, 100, [5, 15], 200, 8, None,
            "1b0ff237c2041ee2632797e8490276d59df7ecc09bcbb8d0d80001f55e56fb5d",
            id="custom40",
        ),
        # 412 of the 4096 replicates pass the node budget of 30
        pytest.param(
            LF, 10, 1000, [5], 200, 4, 30,
            "075e710dafc207aa248b4765f1197cd889a74ec05c90537907a206e87cf1c32c",
            id="lf_budget",
        ),
    ])
    def test_law_digest_is_pinned(self, law, n, C, queries, target, seed, budget,
                                  digest, workers, monkeypatch):
        # digests of the batch arrays as the size-profile sampler draws
        # them: generation totals forward, parent counts backward
        kwargs = {"seed": seed, "workers": workers}
        if budget is not None:
            monkeypatch.setattr(simulate, "NODE_BUDGET", budget)
            kwargs.update(max_replicates=4096, chunk_size=256)
        batch = run_conditioned_batch(law, n, C, queries, target, **kwargs)
        assert _batch_digest(batch) == digest

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("law, n, C, queries, target, kwargs", [
        pytest.param(TERNARY, 6, 2, [3], 500, {"seed": 7}, id="ternary"),
        # met at chunk 49, with later chunks already in flight on the pool
        pytest.param(POISSON, 30, 4, [15], 200, {"seed": 5, "chunk_size": 300},
                     id="poisson_mid_wave"),
    ])
    def test_worker_count_does_not_change_output(self, law, n, C, queries,
                                                 target, kwargs, workers):
        a = run_conditioned_batch(law, n, C, queries, target, workers=1, **kwargs)
        b = run_conditioned_batch(law, n, C, queries, target, workers=workers,
                                  **kwargs)
        assert a.replicates == b.replicates
        assert a.stream_ids == b.stream_ids
        assert np.array_equal(a.reduced_counts, b.reduced_counts)
        assert np.array_equal(a.replicate_ids, b.replicate_ids)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_stops_submitting_at_the_target(self, workers, monkeypatch):
        submitted = []

        class CountingPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append(args[0])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        args = (POISSON, 30, 4, [15], 200)
        kwargs = {"seed": 5, "chunk_size": 300}
        serial = run_conditioned_batch(*args, workers=1, **kwargs)
        assert submitted == []
        pooled = run_conditioned_batch(*args, workers=workers, **kwargs)
        # chunks go out in index order, and past the chunk that meets the
        # target only the ones already in flight were computed
        assert submitted == list(range(len(submitted)))
        assert len(submitted) <= len(pooled.stream_ids) + workers - 1
        assert pooled.stream_ids == serial.stream_ids
        assert pooled.replicates == serial.replicates
        assert _batch_digest(pooled) == _batch_digest(serial)

    def test_node_budget_rejects_and_is_worker_independent(self, monkeypatch):
        args = (LF, 10, 1000, [5], 200)
        kwargs = {"max_replicates": 4096, "chunk_size": 256, "seed": 4}
        unbudgeted = run_conditioned_batch(*args, **kwargs)
        monkeypatch.setattr(simulate, "NODE_BUDGET", 30)
        serial = run_conditioned_batch(*args, **kwargs)
        pooled = run_conditioned_batch(*args, workers=2, **kwargs)
        assert serial.budget_rejected == pooled.budget_rejected == 412
        assert serial.replicates == pooled.replicates == 4096
        assert serial.accepted == pooled.accepted
        assert serial.stream_ids == pooled.stream_ids
        assert np.array_equal(serial.reduced_counts, pooled.reduced_counts)
        assert np.array_equal(serial.mrca_distances, pooled.mrca_distances)
        assert np.array_equal(serial.replicate_ids, pooled.replicate_ids)
        assert unbudgeted.budget_rejected == 0

    def test_acceptance_event(self):
        batch = run_conditioned_batch(TERNARY, 8, 3, [8], 300, seed=1)
        assert batch.accepted >= 300
        assert np.all(batch.terminal_sizes >= 1)
        assert np.all(batch.terminal_sizes <= 3)
        assert np.array_equal(batch.reduced_counts[:, 0], batch.terminal_sizes)
        assert np.all(batch.mrca_distances >= 1)
        assert np.all(batch.mrca_distances <= 8)

    def test_profile_invariants_with_vacuous_bound(self):
        # a ternary tree holds at most 2**n individuals at generation n,
        # so every surviving replicate is accepted
        n = 7
        batch = run_conditioned_batch(TERNARY, n, 2**n, range(n + 1), 300, seed=23)
        profiles = batch.reduced_counts
        assert np.array_equal(profiles[:, n], batch.terminal_sizes)
        assert np.all(profiles[:, 0] == 1)
        assert np.all(np.diff(profiles, axis=1) >= 0)

    def test_acceptance_rate_tracks_event_probability(self):
        n, C = 64, 2
        batch = run_conditioned_batch(TERNARY, n, C, [], 400, seed=3)
        want = bounded_survival_prob(TERNARY, n, C)
        se = math.sqrt(want * (1 - want) / batch.replicates)
        assert abs(batch.acceptance_rate - want) < 3 * se

    def test_survival_rate_with_vacuous_bound(self):
        n = 10
        batch = run_conditioned_batch(LF, n, 10_000, [], 2000, seed=9)
        want = 1.0 - extinction_prob(LF, n)
        se = math.sqrt(want * (1 - want) / batch.replicates)
        assert abs(batch.acceptance_rate - want) < 3 * se

    def test_critical_mean_of_terminal_sizes(self):
        # E[Z(n)] = 1 over all replicates, extinct ones contributing 0
        n = 50
        batch = run_conditioned_batch(TERNARY, n, 100_000, [], 1, seed=21,
                                      max_replicates=200_000, chunk_size=200_000)
        mean = batch.terminal_sizes.sum() / batch.replicates
        se = math.sqrt(2 * TERNARY.half_variance * n / batch.replicates)
        assert abs(mean - 1.0) < 4 * se

    @pytest.mark.parametrize("workers", [1, 2])
    def test_low_confidence_warning(self, workers):
        # the 40-replicate budget ends on a short third chunk of 8
        with pytest.warns(AcceptanceBudgetExhausted):
            batch = run_conditioned_batch(
                TERNARY, 12, 1, [], 10_000, max_replicates=40, seed=2,
                chunk_size=16, workers=workers,
            )
        assert batch.low_confidence
        assert batch.replicates == 40
        assert batch.stream_ids == (0, 1, 2)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_conditioned_batch(TERNARY, 0, 2, [], 10)
        with pytest.raises(ValueError, match="target_accepted"):
            run_conditioned_batch(TERNARY, 5, 2, [], 0)
        with pytest.raises(ValueError):
            run_conditioned_batch(TERNARY, 5, 0, [], 10)
        with pytest.raises(ValueError):
            run_conditioned_batch(TERNARY, 5, 2, [9], 10)
        with pytest.raises(ValueError, match="chunk_size"):
            run_conditioned_batch(TERNARY, 5, 2, [], 10, chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size"):
            run_conditioned_batch(TERNARY, 5, 2, [], 10, chunk_size=-3)
        with pytest.raises(ValueError, match="max_replicates"):
            run_conditioned_batch(TERNARY, 5, 2, [], 10, max_replicates=0)
        with pytest.raises(ValueError, match="seed"):
            run_conditioned_batch(TERNARY, 5, 2, [], 10, seed=-1)
        with pytest.raises(ValueError, match="workers"):
            run_conditioned_batch(TERNARY, 5, 2, [], 10, workers=0)
        with pytest.raises(ValueError, match="workers"):
            run_conditioned_batch(TERNARY, 5, 2, [], 10, workers=-4)

    def test_chunk_size_default_shrinks_with_live_generations(self):
        # a replicate keeps a record per generation it is alive in: few
        # for a wide law, most of n for a law close to one child each
        assert default_chunk_size(LF, 10) == CHUNK_MAX
        assert default_chunk_size(TERNARY, 1000) == CHUNK_MAX
        lazy = make_custom([0.005, 0.99, 0.005])
        assert default_chunk_size(lazy, 100) == 12773
        assert default_chunk_size(lazy, 4000) == 1719

    def test_target_met_at_a_chunk_boundary_draws_no_further_chunk(self):
        kwargs = {"seed": 5, "chunk_size": 64}
        probe = run_conditioned_batch(TERNARY, 12, 2, [], 10**6,
                                      max_replicates=4 * 64, **kwargs)
        per_chunk = np.bincount(probe.replicate_ids // 64, minlength=4)
        assert per_chunk[1] > 0
        target = int(per_chunk[:2].sum())
        batch = run_conditioned_batch(TERNARY, 12, 2, [], target, **kwargs)
        assert batch.stream_ids == (0, 1)
        assert batch.accepted == target
        assert batch.replicates == 2 * 64

    @pytest.mark.parametrize("ending, warned", [(9, True), (10, False), ("target", False)])
    def test_low_confidence_edges(self, ending, warned):
        # one replicate per chunk, so a run can end after any acceptance:
        # the budget runs out after the 9th or the 10th, or the target of
        # 5 is met exactly
        kwargs = {"seed": 3, "chunk_size": 1}
        probe = run_conditioned_batch(TERNARY, 2, 4, [], 10**6, max_replicates=40, **kwargs)
        ids = np.sort(probe.replicate_ids)
        if ending == "target":
            target, budget = 5, 40
        else:
            target, budget = 10**6, int(ids[ending - 1]) + 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = run_conditioned_batch(TERNARY, 2, 4, [], target,
                                          max_replicates=budget, **kwargs)
        assert batch.accepted == (5 if ending == "target" else ending)
        assert batch.low_confidence is warned
        assert [type(w.message) for w in caught] == (
            [AcceptanceBudgetExhausted] if warned else []
        )


class TestAgainstExactLaws:
    def test_reduced_distribution_unconditional(self):
        # empirical law of the reduced count at generation 1 of 3 over
        # every replicate (extinct ones count as zero lines)
        n, m = 3, 1
        reps = 400_000
        batch = run_conditioned_batch(
            TERNARY, n, 8, [m], 10**9, max_replicates=reps, seed=31
        )
        assert batch.replicates == reps
        exact = reduced_pmf(TERNARY, m, n)
        for j in (1, 2):
            want = exact.prob(j)
            got = np.sum(batch.reduced_counts[:, 0] == j) / reps
            se = math.sqrt(want * (1 - want) / reps)
            assert abs(got - want) < 3 * se

    def test_conditional_reduced_chi_square(self):
        n, m, C = 12, 6, 3
        batch = run_conditioned_batch(TERNARY, n, C, [m], 20_000, seed=37)
        exact = conditional_reduced_pmf(TERNARY, m, n, C)
        counts = np.bincount(batch.reduced_counts[:, 0], minlength=exact.j_max + 1)[1:]
        obs = list(counts[: exact.j_max])
        exp = list(exact.pmf * batch.accepted)
        # merge sparse upper cells so every expected count is >= 5
        while len(exp) > 1 and exp[-1] < 5.0:
            spill, spill_obs = exp.pop(), obs.pop()
            exp[-1] += spill
            obs[-1] += spill_obs
        obs, exp = np.asarray(obs, dtype=float), np.asarray(exp)
        exp *= obs.sum() / exp.sum()
        stat = scipy.stats.chisquare(obs, exp)
        assert stat.pvalue > 0.001

    def test_mrca_distribution_matches_exact_cdf(self):
        n, C = 3, 2
        batch = run_conditioned_batch(TERNARY, n, C, [], 50_000, seed=41)
        grid = np.arange(1, n + 1)
        exact = mrca_distance_cdf(TERNARY, n, C, grid)
        for u, want in zip(grid, exact):
            got = np.sum(batch.mrca_distances <= u) / batch.accepted
            se = math.sqrt(want * (1 - want) / batch.accepted) + 1e-12
            assert abs(got - want) < 3.5 * se

    @pytest.mark.parametrize("law", [LF, POISSON, NARROW], ids=["lf", "poisson", "custom4"])
    def test_each_backward_step_against_exact_tables(self, law):
        # the reduced count at m and the ancestor distance of every family's
        # route, given 0 < Z(n) <= C; a lone survivor has distance 1
        n, m, C = 12, 6, 3
        batch = run_conditioned_batch(law, n, C, [m], 20_000, seed=71)
        table = conditional_reduced_pmf(law, m, n, C)
        cdf = mrca_distance_cdf(law, n, C, np.arange(1, n + 1))
        for samples, probs in ((batch.reduced_counts[:, 0], table.pmf),
                               (batch.mrca_distances, np.diff(cdf, prepend=0.0))):
            assert _pooled_pvalue(samples - 1, probs) > 0.001

    def test_mrca_agrees_with_enumeration(self):
        n, C = 4, 3
        batch = run_conditioned_batch(TERNARY, n, C, [], 50_000, seed=43)
        for u in (1, 2, 3):
            want = float(brute_force.mrca_cdf(TPMF, n, C, u))
            got = np.sum(batch.mrca_distances <= u) / batch.accepted
            se = math.sqrt(want * (1 - want) / batch.accepted) + 1e-12
            assert abs(got - want) < 3.5 * se


class TestSerialization:
    def test_json_and_csv(self, tmp_path):
        batch = run_conditioned_batch(TERNARY, 6, 2, [0, 3, 6], 50, seed=51)
        jpath = tmp_path / "batch.json"
        write_output(batch.to_json_dict(), jpath)
        import json

        data = json.loads(jpath.read_text())
        assert data["law"] == "ternary_uniform"
        assert data["accepted"] == batch.accepted
        assert data["query_generations"] == [0, 3, 6]

        cpath = tmp_path / "batch.csv"
        write_output(batch.csv_rows(), cpath)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == (
            "replicate_id,terminal_size,mrca_distance,"
            "reduced_at_0,reduced_at_3,reduced_at_6"
        )
        assert len(lines) == batch.accepted + 1
        first = [int(tok) for tok in lines[1].split(",")]
        assert first[0] == batch.replicate_ids[0]
        assert first[1] == batch.terminal_sizes[0]


class TestTerminalSizeScaling:
    # Z(n)/(Bn) given survival approaches a standard exponential; with
    # the bound at 10*Bn the acceptance event is survival up to an
    # exp(-10) truncation, far below the tested resolution.

    def test_scaled_terminal_size_near_exponential(self):
        n = 100
        C = 10 * int(LF.half_variance * n)
        batch = run_conditioned_batch(LF, n, C, [], 5_000, seed=61)
        scaled = batch.terminal_sizes / (LF.half_variance * n)
        dist = scipy.stats.kstest(scaled, "expon").statistic
        assert dist < 0.05

    @pytest.mark.slow
    def test_scaled_terminal_size_near_exponential_at_scale(self):
        n = 1000
        C = 10 * int(LF.half_variance * n)
        batch = run_conditioned_batch(LF, n, C, [], 100_000, seed=62)
        scaled = batch.terminal_sizes / (LF.half_variance * n)
        dist = scipy.stats.kstest(scaled, "expon").statistic
        assert dist < 0.02
