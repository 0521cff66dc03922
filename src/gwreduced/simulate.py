"""Conditioned Monte Carlo: rejection-sampled batches of trees with
their reduced counts and most-recent-common-ancestor distances, given a
small terminal population.

A batch grows a forest of replicates, stored as per-generation arrays
of running child totals, never as node objects, in one forward pass
(``_grow``) and marks the genealogies of its accepted replicates in one
backward pass (``_mark_backward``).  The forward pass keeps no
per-individual record of which replicate an individual belongs to:
each live replicate is one contiguous block of its generation, so its
child total is read off one running sum of the generation's draws at
the block boundaries, and an extinct replicate leaves the live set.
The backward pass starts from the generation-n individuals of the
accepted replicates only and follows their ancestors up through the
running sums; rejected replicates are never marked.

The batch sampler simulates replicates in fixed-size chunks, each chunk
driven by its own child stream of the master seed (spawn key = chunk
index), and one loop takes chunk results in index order, serially or
from a process pool, so results are reproducible bit for bit
regardless of worker count; a run is cut at the first chunk boundary
where the accepted target is met.
"""

from __future__ import annotations

import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import AcceptanceBudgetExhausted, whole_number
from .offspring import OffspringLaw, sample_offspring

# nodes one replicate may hold before it is cut and counted in a
# batch's budget_rejected; read once per batch
NODE_BUDGET = 10_000_000
# replicates drawn at most before a batch stops short of its target
MAX_REPLICATES_DEFAULT = 100_000_000
# chunks sized to hold about this many expected nodes (a critical tree
# carries n+1 of them on average)
CHUNK_TARGET_NODES = 1 << 22
CHUNK_MAX = 8192
CHUNK_MIN = 256
LOW_CONFIDENCE_ACCEPTED = 10


def default_chunk_size(n: int) -> int:
    return max(CHUNK_MIN, min(CHUNK_MAX, CHUNK_TARGET_NODES // (n + 1)))


def check_run_settings(max_replicates, seed, workers) -> tuple[int, int, int]:
    """The replicate budget, seed and worker count of a batch as ints."""
    budget = whole_number("max_replicates", max_replicates, 1)
    return budget, whole_number("seed", seed), whole_number("workers", workers, 1)


def _grow(law, n, rng, size, node_budget):
    """Forward pass: grow ``size`` trees to generation n from ``rng``.

    All replicates advance generation by generation in one flat array,
    in which each live replicate holds one contiguous block, in replicate
    order, and the children of each individual form one contiguous block
    of the next generation.  Only the live replicates' ids and block
    sizes are carried; a replicate is dropped once extinct.  Returns
    ``child_ends`` (for each generation g = 0..n-1 the running total of
    its child counts, so the children of individual i of g end at
    position ``child_ends[g][i]`` of g+1), the ids of the replicates
    alive at generation n with their sizes there, and ``budget_ok``.  A
    replicate whose node count passes ``node_budget`` loses the children
    of that generation, so it is extinct from then on and never
    accepted, and is flagged false in ``budget_ok``.
    """
    ids = np.arange(size)
    sizes = np.ones(size, dtype=np.int64)
    nodes_used = sizes.copy()
    budget_ok = np.ones(size, dtype=bool)
    child_ends = []
    for _ in range(n):
        # an empty generation draws nothing and leaves rng untouched
        draws = sample_offspring(law, rng, int(sizes.sum()))
        ends = np.cumsum(draws)
        # the children of each replicate, read at its block boundaries
        children = np.diff(np.concatenate(([0], ends[np.cumsum(sizes) - 1])))
        nodes_used += children
        breached = nodes_used > node_budget
        if breached.any():
            budget_ok[ids[breached]] = False
            draws[np.repeat(breached, sizes)] = 0
            ends = np.cumsum(draws)
            children[breached] = 0
        child_ends.append(ends)
        alive = children > 0
        ids, sizes, nodes_used = ids[alive], children[alive], nodes_used[alive]
    return child_ends, ids, sizes, budget_ok


def _mark_backward(child_ends, starts, sizes, kept):
    """Backward marking pass over some replicates of a forest.

    ``child_ends`` lays out the forest as ``_grow`` returns it, and
    replicate r holds the ``sizes[r]`` individuals of generation n from
    position ``starts[r]`` on.  Marking every ancestor of those
    individuals gives each replicate's reduced count at every
    generation.  Only marked individuals are followed, each with the
    replicate it belongs to, so the rest of the forest costs nothing.
    Returns the counts at the ``kept`` generations, one column each, and
    per replicate the distance from generation n back to the survivors'
    common ancestor.
    """
    n = len(child_ends)
    offsets = np.cumsum(sizes) - sizes
    marked = np.repeat(starts - offsets, sizes) + np.arange(sizes.sum())
    replicate = np.repeat(np.arange(len(sizes)), sizes)
    wanted = set(kept)
    rows = {n: sizes}
    single_line_gens = np.zeros(len(sizes), dtype=np.int64)
    for g in range(n - 1, -1, -1):
        # a child's parent is the first individual whose child block
        # ends past it; siblings are adjacent, so each parent is kept once
        parents = np.searchsorted(child_ends[g], marked, side="right")
        first = np.ones(len(parents), dtype=bool)
        np.not_equal(parents[1:], parents[:-1], out=first[1:])
        marked, replicate = parents[first], replicate[first]
        red = np.bincount(replicate, minlength=len(sizes))
        single_line_gens += red == 1
        if g in wanted:
            rows[g] = red
    # reduced profiles are nondecreasing, so the ancestor generation of
    # a surviving replicate is (number of single-line generations g < n) - 1
    distances = n - (single_line_gens - 1)
    if not kept:
        return np.zeros((len(sizes), 0), dtype=np.int64), distances
    return np.stack([rows[g] for g in kept], axis=1), distances


@dataclass(frozen=True)
class SimBatch:
    """Accepted replicates of a conditioned batch, plus run accounting.

    ``reduced_counts[i, k]`` is the reduced count of accepted replicate
    i at query_generations[k]; ``mrca_distances`` and
    ``terminal_sizes`` align with the same rows.  ``replicates`` counts
    every attempted replicate; ``stream_ids`` lists the chunk indices
    consumed, which together with ``seed`` and ``chunk_size`` pin down
    the exact random streams.
    """

    law_id: str
    n: int
    C: int
    query_generations: tuple
    replicates: int
    accepted: int
    budget_rejected: int
    reduced_counts: np.ndarray
    mrca_distances: np.ndarray
    terminal_sizes: np.ndarray
    replicate_ids: np.ndarray
    seed: int
    stream_ids: tuple
    chunk_size: int
    low_confidence: bool = False

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.replicates if self.replicates else 0.0

    def to_json_dict(self) -> dict:
        return {
            "law": self.law_id,
            "n": self.n,
            "C": self.C,
            "query_generations": list(self.query_generations),
            "replicates": self.replicates,
            "accepted": self.accepted,
            "budget_rejected": self.budget_rejected,
            "acceptance_rate": self.acceptance_rate,
            "seed": self.seed,
            "stream_ids": list(self.stream_ids),
            "chunk_size": self.chunk_size,
            "low_confidence": self.low_confidence,
        }

    def csv_rows(self):
        """One row per accepted replicate: id, terminal size, ancestor
        distance, then one reduced count per queried generation."""
        header = ["replicate_id", "terminal_size", "mrca_distance"]
        yield header + [f"reduced_at_{m}" for m in self.query_generations]
        for i in range(self.accepted):
            yield [
                int(self.replicate_ids[i]),
                int(self.terminal_sizes[i]),
                int(self.mrca_distances[i]),
                *(int(v) for v in self.reduced_counts[i]),
            ]


def _simulate_chunk(law, n, C, queries, seed, chunk_index, size, node_budget):
    """Simulate one chunk of replicates; returns per-chunk accept data.

    Budget-breaching replicates are reported separately so they are
    never confused with rejections; they have no individuals left at
    generation n, so they are never accepted.  Only the accepted
    replicates are marked.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    child_ends, survivors, terminal, budget_ok = _grow(law, n, rng, size, node_budget)
    accept = terminal <= C
    starts = np.cumsum(terminal) - terminal
    reduced, distances = _mark_backward(
        child_ends, starts[accept], terminal[accept], queries
    )
    return {
        "chunk_index": chunk_index,
        "size": size,
        "accepted_idx": survivors[accept],
        "reduced": reduced,
        "distances": distances,
        "terminal": terminal[accept],
        "budget_rejected": int((~budget_ok).sum()),
    }


def run_conditioned_batch(
    law: OffspringLaw,
    n: int,
    C: int,
    query_generations,
    target_accepted: int,
    max_replicates: int = MAX_REPLICATES_DEFAULT,
    seed: int = 0,
    workers: int = 1,
    chunk_size: int | None = None,
) -> SimBatch:
    """Rejection-sample replicates conditioned on 0 < Z(n) <= C.

    Chunks are taken in index order, computed serially or on a process
    pool that holds at most ``workers`` chunks in flight, and the run is
    cut at the first chunk whose cumulative acceptances reach
    ``target_accepted``, after which no chunk is submitted, so
    output is a pure function of the seed, the parameters, and the
    chunk size.  If the replicate budget runs out with fewer than 10
    acceptances the batch is returned anyway and a low-confidence
    warning is emitted.  A replicate with more than NODE_BUDGET nodes is
    rejected and counted in ``budget_rejected``.  Every count, bound and
    generation argument must be a whole number (``errors.whole_number``);
    the batch records the ints, and a bad value is refused before any draw.
    """
    n, C = whole_number("n", n, 1), whole_number("bound C", C, 1)
    queries = tuple(
        whole_number("query generation", g, 0, n) for g in query_generations
    )
    target_accepted = whole_number("target_accepted", target_accepted, 1)
    max_replicates, seed, workers = check_run_settings(max_replicates, seed, workers)
    if chunk_size is None:
        chunk_size = default_chunk_size(n)
    chunk_size = whole_number("chunk_size", chunk_size, 1)

    n_chunks = -(-max_replicates // chunk_size)
    # the budget is read here, once, so pool workers get the same value
    job = partial(_simulate_chunk, law, n, C, queries, seed, node_budget=NODE_BUDGET)

    def chunk_results(pool):
        # results come in chunk-index order; the next chunk is submitted
        # only once the oldest of ``workers`` in flight is taken
        in_flight = deque()
        for c in range(n_chunks):
            size = min(chunk_size, max_replicates - c * chunk_size)
            if pool is None:
                yield job(c, size)
                continue
            in_flight.append(pool.submit(job, c, size))
            if len(in_flight) == workers:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()

    results = []
    accepted_total = 0
    consumed = 0
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for res in chunk_results(pool):
            results.append(res)
            accepted_total += len(res["accepted_idx"])
            consumed += res["size"]
            if accepted_total >= target_accepted:
                break

    reduced = np.concatenate([r["reduced"] for r in results], axis=0)
    distances = np.concatenate([r["distances"] for r in results])
    terminal = np.concatenate([r["terminal"] for r in results])
    replicate_ids = np.concatenate(
        [r["chunk_index"] * chunk_size + r["accepted_idx"] for r in results]
    )
    budget_rejected = sum(r["budget_rejected"] for r in results)
    budget_exhausted = accepted_total < target_accepted
    low_confidence = budget_exhausted and accepted_total < LOW_CONFIDENCE_ACCEPTED
    if low_confidence:
        warnings.warn(
            AcceptanceBudgetExhausted(
                f"only {accepted_total} acceptances in {consumed} replicates"
            )
        )
    return SimBatch(
        law_id=law.label,
        n=n,
        C=C,
        query_generations=queries,
        replicates=consumed,
        accepted=int(accepted_total),
        budget_rejected=int(budget_rejected),
        reduced_counts=reduced,
        mrca_distances=distances,
        terminal_sizes=terminal,
        replicate_ids=replicate_ids,
        seed=seed,
        stream_ids=tuple(r["chunk_index"] for r in results),
        chunk_size=chunk_size,
        low_confidence=low_confidence,
    )
