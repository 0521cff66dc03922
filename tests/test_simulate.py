import hashlib
import math
from concurrent.futures import ThreadPoolExecutor

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
    NODE_BUDGET,
    _grow,
    _mark_backward,
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


def _ends(counts):
    return [np.cumsum(np.asarray(c, dtype=np.int64)) for c in counts]


class TestGrow:
    def test_forest_layout(self):
        # each generation holds one individual per child counted in the
        # one before, and an extinct replicate stays extinct
        size, n = 200, 6
        child_ends, ids, terminal, budget_ok = _grow(
            TERNARY, n, np.random.default_rng(3), size, NODE_BUDGET
        )
        assert len(child_ends) == n
        assert len(child_ends[0]) == size
        for ends, after in zip(child_ends, child_ends[1:]):
            assert np.all(np.diff(ends) >= 0)
            assert len(after) == (ends[-1] if len(ends) else 0)
        assert terminal.sum() == child_ends[-1][-1]
        assert np.all(terminal > 0)
        assert np.all(np.diff(ids) > 0)
        assert budget_ok.all()


class TestMarkBackward:
    @pytest.mark.parametrize("counts, profile, distance", [
        # root -> 2 children; first child -> 1 grandchild, second -> none
        pytest.param([[2], [1, 0]], [1, 1, 1], 1, id="one_line_survives"),
        # root -> 2, both children keep a line alive
        pytest.param([[2], [1, 2]], [1, 2, 3], 2, id="both_lines_survive"),
        pytest.param([[1], [1], [1]], [1, 1, 1, 1], 1, id="single_line"),
        # both root children hold lines to the end: ancestor is the root
        pytest.param([[2], [1, 1], [1, 1]], [1, 2, 2, 2], 3, id="split_at_root"),
        # one line down to generation 1, whose individual spawns two
        # surviving lines: the ancestor sits two levels above the end
        pytest.param([[1], [2], [1, 1]], [1, 1, 2, 2], 2, id="late_split"),
    ])
    def test_hand_built_tree(self, counts, profile, distance):
        child_ends = _ends(counts)
        terminal = np.array([child_ends[-1][-1]])
        reduced, distances = _mark_backward(
            child_ends, np.zeros(1, dtype=np.int64), terminal,
            tuple(range(len(counts) + 1)),
        )
        assert reduced.tolist() == [profile]
        assert distances.tolist() == [distance]

    def test_forest_with_offset_starts(self):
        # two replicates laid out as a batch grows them: replicate 0
        # holds generation-2 positions 0..2, replicate 1 positions 3..4
        child_ends = _ends([[2, 1], [1, 2, 2]])
        starts = np.array([0, 3])
        sizes = np.array([3, 2])
        reduced, distances = _mark_backward(child_ends, starts, sizes, (0, 1, 2))
        assert reduced.tolist() == [[1, 2, 3], [1, 1, 2]]
        assert distances.tolist() == [2, 1]
        # marking replicate 1 alone skips replicate 0's block
        reduced, distances = _mark_backward(child_ends, starts[1:], sizes[1:], (2, 0))
        assert reduced.tolist() == [[2, 1]]
        assert distances.tolist() == [1]


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
        # digest of the batch arrays as the sampler produced them before
        # its backward marking pass was shared with reduced_counts
        batch = run_conditioned_batch(
            TERNARY, 8, 3, [2, 4], 200, seed=42, workers=workers
        )
        h = hashlib.sha256()
        for arr in (batch.reduced_counts, batch.mrca_distances,
                    batch.terminal_sizes, batch.replicate_ids):
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
        assert h.hexdigest() == (
            "e18a9f5bc7cfae6c608feb39a0360b69b4a86252e416e6f7d381571179cfcb47"
        )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("law, n, C, queries, target, seed, budget, digest", [
        pytest.param(
            LF, 100, 10, [50, 90], 100, 3, None,
            "0d0199c198a008132b6810b350b76e1758dcc83ea6a17f1e4cec19a4c81d224b",
            id="lf",
        ),
        pytest.param(
            POISSON, 40, 5, [10, 30], 300, 5, None,
            "0ec103cc4284cc2bb54fdfd57d7d867b7926c0c44a6aa1f38a9df9052f949f67",
            id="poisson",
        ),
        pytest.param(
            NARROW, 30, 4, [15], 300, 6, None,
            "89727d710e07aac0f1fa95bb4f3c17eabc17f919f0033f85b1d909e37148ce91",
            id="custom4",
        ),
        pytest.param(
            WIDE, 20, 100, [5, 15], 200, 8, None,
            "724dd592a88339b1b2990218b5281237c64fd6334d3bc52012e93eb5ad714eff",
            id="custom40",
        ),
        # 367 of the 4096 replicates pass the node budget of 30
        pytest.param(
            LF, 10, 1000, [5], 200, 4, 30,
            "b39664f942917e9dd623a72fba13aa7791992435a47c200b2d6cf74c795dfe79",
            id="lf_budget",
        ),
    ])
    def test_law_digest_is_pinned(self, law, n, C, queries, target, seed, budget,
                                  digest, workers, monkeypatch):
        # digests of the batch arrays as the sampler produced them with
        # numpy's geometric and searchsorted draws and per-individual
        # replicate owners
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
        assert serial.budget_rejected == pooled.budget_rejected == 367
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

    def test_chunk_size_default_shrinks_with_horizon(self):
        assert default_chunk_size(10) == 8192
        assert default_chunk_size(4000) < 2048


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
