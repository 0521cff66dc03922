"""Conditioned Monte Carlo: rejection-sampled batches of trees with
their reduced counts and most-recent-common-ancestor distances, given a
small terminal population.

A batch draws each replicate's generation sizes first and marks its
genealogy given the sizes, which the exchangeability of the families
allows (Zubkov 1975, *Theory Probab. Appl.* 20; Athreya 2012, *J. Appl.
Probab.* 49).  The forward pass (``_grow``) keeps no individual: a live
replicate of k individuals draws its next generation total from the
k-fold convolution power of the offspring law, ``negative_binomial(k,
1/2)`` for the linear-fractional law, ``poisson(k)`` for Poisson,
``binomial(2k, 1/2)`` for the ternary law (binomial(2, 1/2) itself),
and for a custom law the ``multinomial(k, p)`` counts of families of
each size, which the backward pass reads.  A tree thus costs one draw
per generation it is alive in, about 1 + log(1 + B n)/B of the n for
half-variance B, where drawing each individual cost n + 1 draws, and
holds per such generation an int32 id and an int32 size, 8 bytes,
plus 4 bytes per family size for a custom law.

The backward pass (``_mark_backward``) marks the accepted replicates
only.  Given Z(g) = a and Z(g+1) = b, the r marked children of g+1 form
a uniform r-subset of the b, and the reduced count at g is the number
of distinct parents among them: a hypergeometric draw for the
linear-fractional law (the marked children fill a uniform weak
composition of r into a parts), the distinct values among r uniform
parents for Poisson, the blocks of two slots hit for the ternary law
(the children fill a uniform b-subset of the 2a slots), and for a
custom law a hypergeometric split of the r marks over the family sizes,
then per size c the blocks of c siblings hit, drawn by inversion.  A
generation costs O(1) numpy calls over the replicates whose reduced
tree still has two or more lines there.

The batch sampler simulates replicates in fixed-size chunks, each chunk
driven by its own child stream of the master seed (spawn key = chunk
index), and one loop takes chunk results in index order, serially or
from a process pool, so results are reproducible bit for bit
regardless of worker count; a run is cut at the first chunk boundary
where the accepted target is met.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AcceptanceBudgetExhausted, whole_number
from .offspring import Family, OffspringLaw

# nodes one replicate may hold before it is cut and counted in a
# batch's budget_rejected; read once per batch
NODE_BUDGET = 10_000_000
# chunks sized to hold about this many bytes of generation records; a
# replicate keeps one record per generation it is alive in, at most n,
# and about log(1 + B n)/B of them for half-variance B
CHUNK_TARGET_BYTES = 1 << 24
CHUNK_MAX = 32_768
CHUNK_MIN = 256
# replicates drawn at most before a batch stops short of its target
MAX_REPLICATES_DEFAULT = 100_000_000
LOW_CONFIDENCE_ACCEPTED = 10


def default_chunk_size(law: OffspringLaw, n: int) -> int:
    B = law.half_variance
    records = min(n, 1.0 + math.log1p(B * n) / B)
    # an id and a size, and for a custom law one count per family size
    record_bytes = 8
    if law.family is Family.CUSTOM_FINITE:
        record_bytes += 4 * (len(law.support_pmf) - 1)
    return max(CHUNK_MIN, min(CHUNK_MAX, int(CHUNK_TARGET_BYTES / (records * record_bytes))))


def check_run_settings(max_replicates, seed, workers) -> tuple[int, int, int]:
    """The replicate budget, seed and worker count of a batch as ints."""
    budget = whole_number("max_replicates", max_replicates, 1)
    return budget, whole_number("seed", seed), whole_number("workers", workers, 1)


def _next_generation(law, rng, sizes):
    """Each replicate's next generation total, from the ``sizes``-fold
    convolution power of the law, and for a custom law the counts of
    families of each size c = 1, 2, ... (column c - 1), else None."""
    if law.family is Family.LINEAR_FRACTIONAL:
        return rng.negative_binomial(sizes, 0.5), None
    if law.family is Family.POISSON:
        return rng.poisson(sizes), None
    if law.family is Family.TERNARY_UNIFORM:
        # binomial(2, 1/2): each parent has two slots, filled independently
        return rng.binomial(2 * sizes, 0.5), None
    families = rng.multinomial(sizes, law.support_pmf)[:, 1:]
    return families @ np.arange(1, families.shape[1] + 1), families


def _grow(law, n, rng, size, node_budget):
    """Forward pass: draw the generation sizes of ``size`` trees to
    generation n from ``rng``.

    Returns ``history``, whose entry g - 1 holds for generation g =
    1..n the ids of the replicates alive there (increasing), their sizes
    and, for a custom law, the family-size counts of their generation
    g - 1 (else None), all int32; and ``budget_ok``.  A replicate whose
    node count passes ``node_budget`` loses the children of that
    generation, so it is extinct from then on and never accepted, and is
    flagged false in ``budget_ok``.
    """
    ids = np.arange(size, dtype=np.int32)
    sizes = np.ones(size, dtype=np.int32)
    nodes_used = np.ones(size, dtype=np.int64)
    budget_ok = np.ones(size, dtype=bool)
    history = []
    for _ in range(n):
        children, families = _next_generation(law, rng, sizes)
        nodes_used += children
        breached = nodes_used > node_budget
        if breached.any():
            budget_ok[ids[breached]] = False
            children[breached] = 0
        alive = np.flatnonzero(children)
        ids, sizes, nodes_used = ids[alive], children[alive].astype(np.int32), nodes_used[alive]
        if families is not None:
            families = families[alive].astype(np.int32)
        history.append((ids, sizes, families))
    return history, budget_ok


@lru_cache(maxsize=64)
def _hit_table(c, rows, cols):
    """``log [x^m] ((1+x)^c - 1)^k`` for k = 0..rows and m = 0..cols:
    the number of ways m marks fall on k given blocks of c slots,
    hitting each.

    Row k is the convolution of row k - 1 with the coefficients
    ``C(c, j)``, j = 1..c, summed in logarithms, so no term is
    subtracted and none overflows.
    """
    log_comb = np.log([float(math.comb(c, j)) for j in range(1, c + 1)])
    table = np.full((rows + 1, cols + 1), -np.inf)
    table[0, 0] = 0.0
    for k in range(1, rows + 1):
        padded = np.concatenate((np.full(c, -np.inf), table[k - 1]))
        # window c - j is row k - 1 shifted right by j
        shifted = sliding_window_view(padded, cols + 1)[c - 1 :: -1]
        table[k] = np.logaddexp.reduce(shifted + log_comb[:, None], axis=0)
    # the cache hands the one array to every caller
    table.flags.writeable = False
    return table


def _blocks_hit(rng, blocks, marks, c):
    """The number of distinct blocks hit when ``marks`` marks fall
    uniformly on distinct slots of ``blocks`` blocks of c slots, one
    draw per replicate, by inversion over ``C(blocks, k) [x^m]((1+x)^c
    - 1)^k``.  Every replicate has at least one mark.  The weights span
    k = 1..K, K the most blocks a replicate can hit; the table of
    (K + 1)(M + 1) logarithms, M the most marks, is sized to powers of
    two so that generations and chunks share it."""
    top = int(marks.max())
    K = min(top, int(blocks.max()))
    k = np.arange(K)[:, None]
    with np.errstate(divide="ignore"):
        # log C(blocks, k + 1), -inf past blocks
        log_w = np.cumsum(np.log(np.maximum(blocks - k, 0)) - np.log1p(k), axis=0)
    table = _hit_table(c, 1 << max(4, K.bit_length()), 1 << max(4, top.bit_length()))
    log_w += table[1 : K + 1, marks]
    cdf = np.cumsum(np.exp(log_w - log_w.max(axis=0)), axis=0)
    u = rng.random(len(marks)) * cdf[-1]
    return 1 + (cdf[:-1] <= u).sum(axis=0)


def _parent_lines(law, rng, parents, lines, families):
    """One backward step: for each replicate, the number of distinct
    parents of ``lines`` marked children, which are a uniform subset of
    their generation, given ``parents`` individuals in the generation
    above and, for a custom law, the counts of its families of each
    size."""
    if law.family is Family.LINEAR_FRACTIONAL:
        # given the total the family sizes are a uniform weak composition,
        # and so are the marks' (of r into a parts), of which
        # hypergeometric(a, r - 1, r) parts are nonempty
        return rng.hypergeometric(parents, lines - 1, lines)
    if law.family is Family.POISSON:
        # given the total each child's parent is uniform and independent
        owner = np.repeat(np.arange(len(lines)), lines)
        stride = int(parents.max())
        key = np.sort(owner * stride + rng.integers(np.repeat(parents, lines)))
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        return np.bincount(key[first] // stride, minlength=len(lines))
    if law.family is Family.TERNARY_UNIFORM:
        # the children fill a uniform subset of the 2a slots, and so do
        # the marked ones
        return _blocks_hit(rng, parents, lines, 2)
    sizes = np.flatnonzero(law.support_pmf[1:]) + 1
    left = families @ np.arange(1, families.shape[1] + 1)
    rest = lines
    hit = np.zeros(len(lines), dtype=np.int64)
    for c in sizes:
        # the marks on children of families of c, a hypergeometric share
        # of the marks not yet placed
        born = c * families[:, c - 1].astype(np.int64)
        if not born.any():
            continue
        left -= born
        marks = rest if c == sizes[-1] else rng.hypergeometric(born, left, rest)
        rest = rest - marks
        if c == 1:
            hit += marks
            continue
        some = np.flatnonzero(marks)
        if len(some):
            hit[some] += _blocks_hit(rng, families[some, c - 1], marks[some], int(c))
    return hit


def _mark_backward(law, history, rows, kept, rng):
    """Backward marking pass over the replicates at positions ``rows``
    of generation n in ``history`` (as ``_grow`` returns it).

    Starting from all individuals of generation n, each step draws the
    number of distinct parents of the marked ones given the sizes
    (``_parent_lines``).  Only replicates with two or more marked lines
    are stepped: one line stays one line up to the root.  Returns the
    reduced counts at the ``kept`` generations, one column each, and
    per replicate the distance from generation n back to the survivors'
    common ancestor, which is n - g for the last generation g < n with
    one line.
    """
    n = len(history)
    ids, sizes, _ = history[-1]
    picked = ids[rows]
    lines = sizes[rows].astype(np.int64)
    counts = np.ones((len(rows), len(kept)), dtype=np.int64)
    columns = {}
    for k, g in enumerate(kept):
        columns.setdefault(g, []).append(k)
    for k in columns.get(n, ()):
        counts[:, k] = lines
    distances = np.ones(len(rows), dtype=np.int64)
    active = np.flatnonzero(lines >= 2)
    lines, pos = lines[active], rows[active]
    for g in range(n - 1, 0, -1):
        if not len(active):
            break
        families = history[g][2]
        if families is not None:
            families = families[pos]
        ids, sizes, _ = history[g - 1]
        pos = np.searchsorted(ids, picked[active])
        lines = _parent_lines(law, rng, sizes[pos], lines, families)
        for k in columns.get(g, ()):
            counts[active, k] = lines
        single = lines == 1
        distances[active[single]] = n - g
        active, lines, pos = active[~single], lines[~single], pos[~single]
    # the lines left meet in the one individual of generation 0
    distances[active] = n
    return counts, distances


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
    history, budget_ok = _grow(law, n, rng, size, node_budget)
    survivors, terminal, _ = history[-1]
    rows = np.flatnonzero(terminal <= C)
    reduced, distances = _mark_backward(law, history, rows, queries, rng)
    return {
        "chunk_index": chunk_index,
        "size": size,
        "accepted_idx": survivors[rows].astype(np.int64),
        "reduced": reduced,
        "distances": distances,
        "terminal": terminal[rows].astype(np.int64),
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
        chunk_size = default_chunk_size(law, n)
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
