"""Forward Monte Carlo for the tree, its reduced counts, and the
most-recent-common-ancestor distance, with rejection conditioning on a
small terminal population.

Genealogies are stored as per-generation offspring-count arrays, never
as node objects: the backward marking pass that extracts reduced
counts only needs the counts and their prefix layout.  The batch
sampler simulates replicates in fixed-size chunks, each chunk driven
by its own child stream of the master seed (spawn key = chunk index),
so results are reproducible bit for bit regardless of worker count or
scheduling order; a run is cut at the first chunk boundary where the
accepted target is met, always in chunk-index order.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AcceptanceBudgetExhausted, NodeBudgetExceededError
from .offspring import OffspringLaw, law_from_name, sample_offspring

NODE_BUDGET_DEFAULT = 10_000_000
# chunks sized to hold about this many expected nodes (a critical tree
# carries n+1 of them on average)
CHUNK_TARGET_NODES = 1 << 22
CHUNK_MAX = 8192
CHUNK_MIN = 256
LOW_CONFIDENCE_ACCEPTED = 10


def default_chunk_size(n: int) -> int:
    return max(CHUNK_MIN, min(CHUNK_MAX, CHUNK_TARGET_NODES // (n + 1)))


@dataclass(frozen=True)
class GenealogyRecord:
    """One simulated tree, stored per generation.

    ``offspring_counts[g][i]`` is the child count of the i-th
    individual of generation g (individuals are ordered so that the
    children of individual i occupy a contiguous block of g+1).
    ``sizes`` are the generation sizes, starting at sizes[0] = 1.
    ``oversize`` flags a tree whose growth tripped an explicit size cap
    before the horizon; such a record ends at the offending generation.
    """

    offspring_counts: tuple
    sizes: np.ndarray
    oversize: bool = False

    @property
    def horizon(self) -> int:
        return len(self.sizes) - 1


def simulate_tree(
    law: OffspringLaw,
    n: int,
    rng: np.random.Generator,
    size_cap: int | None = None,
    node_budget: int = NODE_BUDGET_DEFAULT,
) -> GenealogyRecord:
    """Sample one tree to generation n.

    Simulates to completion by default.  A ``size_cap`` makes the walk
    stop early (record flagged oversize) once a generation exceeds the
    cap; the node budget guards pathological growth and raises instead
    of returning a partial record.
    """
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    counts = []
    sizes = [1]
    z = 1
    total = 1
    for _ in range(n):
        if z == 0:
            counts.append(np.zeros(0, dtype=np.int64))
            sizes.append(0)
            continue
        draws = sample_offspring(law, rng, z)
        total += int(draws.sum())
        if total > node_budget:
            raise NodeBudgetExceededError(
                f"tree exceeded the node budget {node_budget}"
            )
        counts.append(draws)
        z = int(draws.sum())
        sizes.append(z)
        if size_cap is not None and z > size_cap:
            return GenealogyRecord(
                offspring_counts=tuple(counts),
                sizes=np.asarray(sizes, dtype=np.int64),
                oversize=True,
            )
    return GenealogyRecord(
        offspring_counts=tuple(counts), sizes=np.asarray(sizes, dtype=np.int64)
    )


def _mark_backward(draws_per_gen, owners, size, kept):
    """Backward marking pass over a chunk of ``size`` replicates.

    ``draws_per_gen[g]`` holds the child counts of generation g, whose
    children form contiguous blocks of generation g+1, and
    ``owners[g]`` the replicate of each individual of generation g, for
    g = 0..n.  Marking every ancestor of the generation-n individuals
    gives each replicate's reduced count at every generation.  Returns
    the counts at the ``kept`` generations, one column each, and per
    replicate the number of generations g < n with one reduced line.
    """
    n = len(draws_per_gen)
    rows = {}
    if n in kept:
        rows[n] = np.bincount(owners[n], minlength=size)
    marked = np.ones(len(owners[n]), dtype=bool)
    single_line_gens = np.zeros(size, dtype=np.int64)
    for g in range(n - 1, -1, -1):
        draws = draws_per_gen[g]
        parent_idx = np.repeat(np.arange(len(draws)), draws)
        marked_children = np.bincount(parent_idx, weights=marked, minlength=len(draws))
        marked = marked_children > 0
        red = np.bincount(owners[g][marked], minlength=size)
        single_line_gens += red == 1
        if g in kept:
            rows[g] = red
        del red
    if not kept:
        return np.zeros((size, 0), dtype=np.int64), single_line_gens
    return np.stack([rows[g] for g in kept], axis=1), single_line_gens


def _mark_record(record: GenealogyRecord, kept):
    # one tree is a one-replicate chunk: every individual is owned by 0
    owners = [np.zeros(z, dtype=np.int64) for z in record.sizes]
    reduced, single_line_gens = _mark_backward(
        record.offspring_counts, owners, 1, kept
    )
    return reduced[0], int(single_line_gens[0])


def reduced_counts(record: GenealogyRecord, query_generations) -> np.ndarray:
    """Reduced counts of one record at the queried generations."""
    n = record.horizon
    queries = np.atleast_1d(np.asarray(query_generations, dtype=int))
    if queries.size and (queries.min() < 0 or queries.max() > n):
        raise ValueError("queried generations must lie in [0, n]")
    return _mark_record(record, tuple(int(m) for m in queries))[0]


def mrca_distance(record: GenealogyRecord) -> int | None:
    """Distance from the horizon back to the survivors' common ancestor.

    None when the tree is extinct at the horizon.  The reduced profile
    is nondecreasing, so the ancestor generation is the last one whose
    reduced count is still 1: (number of single-line generations) - 1.
    """
    n = record.horizon
    if record.sizes[n] == 0:
        return None
    return n - (_mark_record(record, ())[1] - 1)


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

    All replicates advance generation by generation in one flat array;
    an individual's replicate is tracked through ownership indices.
    Budget-breaching replicates stop producing children and are
    reported separately so they are never confused with rejections.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    owners = [np.arange(size, dtype=np.int64)]
    draws_per_gen = []
    nodes_used = np.ones(size, dtype=np.int64)
    budget_ok = np.ones(size, dtype=bool)
    current = owners[0]
    for _ in range(n):
        if len(current) == 0:
            draws_per_gen.append(np.zeros(0, dtype=np.int64))
            owners.append(np.zeros(0, dtype=np.int64))
            current = owners[-1]
            continue
        draws = sample_offspring(law, rng, len(current)).astype(np.int64)
        nodes_used += np.bincount(current, weights=draws, minlength=size).astype(
            np.int64
        )
        breached = (nodes_used > node_budget) & budget_ok
        if breached.any():
            budget_ok &= ~breached
            draws = np.where(budget_ok[current], draws, 0)
        draws_per_gen.append(draws)
        current = np.repeat(current, draws)
        owners.append(current)

    terminal = np.bincount(owners[n], minlength=size)
    accept = (terminal > 0) & (terminal <= C) & budget_ok

    reduced, single_line_gens = _mark_backward(draws_per_gen, owners, size, queries)
    # reduced profiles are nondecreasing, so the ancestor generation of
    # a surviving replicate is (number of single-line generations) - 1
    distances = n - (single_line_gens - 1)

    idx = np.nonzero(accept)[0]
    return {
        "chunk_index": chunk_index,
        "size": size,
        "accepted_idx": idx,
        "reduced": reduced[idx],
        "distances": distances[idx],
        "terminal": terminal[idx],
        "budget_rejected": int((~budget_ok).sum()),
    }


def _chunk_worker(args):
    label, n, C, queries, seed, chunk_index, size, node_budget = args
    law = law_from_name(label)
    return _simulate_chunk(law, n, C, queries, seed, chunk_index, size, node_budget)


def run_conditioned_batch(
    law: OffspringLaw,
    n: int,
    C: int,
    query_generations,
    target_accepted: int,
    max_replicates: int = 100_000_000,
    seed: int = 0,
    workers: int = 1,
    chunk_size: int | None = None,
    node_budget: int = NODE_BUDGET_DEFAULT,
) -> SimBatch:
    """Rejection-sample replicates conditioned on 0 < Z(n) <= C.

    Chunks are processed in index order (possibly in parallel) and the
    run is cut at the first chunk whose cumulative acceptances reach
    ``target_accepted``, so output is a pure function of the seed, the
    parameters, and the chunk size.  If the replicate budget runs out
    with fewer than 10 acceptances the batch is returned anyway and a
    low-confidence warning is emitted.
    """
    if n < 1:
        raise ValueError("horizon must be at least 1")
    if C < 1:
        raise ValueError("bound must be at least 1")
    if target_accepted < 1:
        raise ValueError("target_accepted must be at least 1")
    queries = tuple(int(m) for m in query_generations)
    if queries and (min(queries) < 0 or max(queries) > n):
        raise ValueError("queried generations must lie in [0, n]")
    if chunk_size is None:
        chunk_size = default_chunk_size(n)

    chunk_sizes = []
    remaining = max_replicates
    while remaining > 0:
        chunk_sizes.append(min(chunk_size, remaining))
        remaining -= chunk_sizes[-1]

    results = []
    accepted_total = 0
    consumed = 0

    def handle(res):
        nonlocal accepted_total, consumed
        results.append(res)
        accepted_total += len(res["accepted_idx"])
        consumed += res["size"]

    label = law.label
    if workers <= 1:
        for c, sz in enumerate(chunk_sizes):
            handle(
                _simulate_chunk(law, n, C, queries, seed, c, sz, node_budget)
            )
            if accepted_total >= target_accepted:
                break
    else:
        wave = workers * 4
        with ProcessPoolExecutor(max_workers=workers) as pool:
            c = 0
            done = False
            while c < len(chunk_sizes) and not done:
                batch_args = [
                    (label, n, C, queries, seed, ci, chunk_sizes[ci], node_budget)
                    for ci in range(c, min(c + wave, len(chunk_sizes)))
                ]
                for res in pool.map(_chunk_worker, batch_args):
                    handle(res)
                    if accepted_total >= target_accepted:
                        done = True
                        break
                c += len(batch_args)
        # a wave may overshoot the cutoff chunk; drop any chunk past the
        # first boundary where the target was already met
        results.sort(key=lambda r: r["chunk_index"])
        accepted_total = 0
        consumed = 0
        kept = []
        for res in results:
            kept.append(res)
            accepted_total += len(res["accepted_idx"])
            consumed += res["size"]
            if accepted_total >= target_accepted:
                break
        results = kept

    results.sort(key=lambda r: r["chunk_index"])
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
        law_id=label,
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
