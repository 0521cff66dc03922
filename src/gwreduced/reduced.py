"""Exact finite-horizon laws of the reduced process.

The reduced process counts, at an intermediate generation m, the
individuals that still have living descendants at the terminal
generation n.  Its unconditional pmf has the closed form

    P(count at m = j) = (1 - q_{n-m})^j / j! * f_m^(j)(q_{n-m}),

with q_r the extinction probability at horizon r.  That is the s^j
coefficient of f_m(q + (1-q)s), so a table of J rows is m composition
steps started from q + (1-q)s at degree J: no derivatives, no
factorials and no cap on J, which grows by doubling until the rows hold
all but epsilon of their total.  Joint laws with a smallness event
{0 < Z(n) <= C} use the subtree decomposition: given j reduced lines at
m, the terminal population is a sum S_j of j iid copies of Z(n-m)
conditioned positive, so the joint pmf is the unconditional pmf times
the mass P(S_j <= C), and rows past j = C vanish.  The event
probability P(0 < Z(n) <= C) is the sum of the joint rows, taken to an
order fixed in advance by a tail bound.  The most recent common
ancestor of the survivors sits at distance <= u from the terminal time
exactly when the reduced count at n-u is 1, which turns the
ancestor-distance cdf into a family of single-line probabilities: by
the chain rule each is a product of slopes f'(q_k) times the mass
P(1 <= Z(u) <= C).

Tables and the cdf read the subtree sizes off one degree-C pass over
f_0, f_1, ..., cut short by one rule: the pass stops at the first split
generation r = 2, 4, 8, ... at which the tail bound, taken over every
horizon past r, picks an order J <= r below C, trying r only while it
and the tries' caps on J fit within the pass, n steps for the cdf and
n - m for a table.  The split depends on (law, n, C) alone, and a
table's tries are a prefix of the cdf's, so a table splits where the
cdf does or not at all.  Past r the decomposition applies once more: a
subtree of depth h > r is a sum of R copies of Z(r) given Z(r) > 0, R
its reduced count at h - r given survival.  A cdf mass is then
sum_{j<=J} p_j(u) P(S_j <= C), with the rows p_j(u) read off one pass
of n - r steps at degree J, one horizon per step; a table's mass
P(S_j <= C) is sum_k P(R_1 + ... + R_j = k) P(S^(r)_k <= C), with the
pmf of R from one pass of n - m - r steps at a degree D <= C and the
j-fold sums convolved at degree D.  Where no r qualifies the
degree-C pass runs to its end.  A table or cdf first asks
``series.check_horizon``, then each pass runs only what the budget
allows: a pass that may split is refused only if no split qualifies
within its allowance.  The cdf at u has the same bits whatever other
distances are asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import series
from .errors import ConditioningImpossibleError, SeriesBudgetError, whole_number
from .offspring import OffspringLaw, pgf_derivatives
from .series import iter_extinction_probs, iterates, pmf_Zn

EPSILON_DEFAULT = 1e-9
# first order tried by unconditional tables; each retry doubles it
J_START = 8


@dataclass(frozen=True)
class ReducedLawTable:
    """Tabulated pmf of the reduced count at generation m out of n.

    ``pmf[j-1]`` is the probability of j reduced lines, j = 1..j_max:
    P(count=j) from ``reduced_pmf``, P(count=j, 0<Z(n)<=C) from
    ``joint_reduced_bounded`` and P(count=j | 0<Z(n)<=C) from
    ``conditional_reduced_pmf``, which is the joint table with its rows
    and row sum divided by ``event_prob``.  ``mass_accounted`` is the
    row sum.
    One rule sets the length: j_max is the first order at which the
    remainder against the relevant total is below ``epsilon``.  For an
    unconditional table the orders double from J_START, and a table
    that would need more than the composition budget raises
    SeriesBudgetError instead of coming back short; joint and
    conditional tables stop at j_max = C at the latest, since rows past
    C are exactly zero.  Joint and conditional tables also carry
    ``event_prob`` = P(0 < Z(n) <= C), the sum of the joint rows up to
    an order chosen by a tail bound; it is not serialised.
    """

    law: str
    n: int
    m: int
    bound: int | None
    epsilon: float
    pmf: np.ndarray
    mass_accounted: float
    event_prob: float | None = None

    @property
    def j_max(self) -> int:
        return len(self.pmf)

    def prob(self, j: int) -> float:
        """Probability of exactly j reduced lines."""
        j = whole_number("reduced count j", j, 1)
        if j > len(self.pmf):
            return 0.0
        return float(self.pmf[j - 1])

    def to_json_dict(self) -> dict:
        return {
            "law": self.law,
            "n": self.n,
            "m": self.m,
            "C": self.bound,
            "epsilon": self.epsilon,
            "pmf": [float(p) for p in self.pmf],
            "mass_accounted": self.mass_accounted,
        }

    def csv_rows(self):
        yield ("j", "p")
        yield from enumerate(map(float, self.pmf), start=1)


def _positive_part(series_coeffs: np.ndarray) -> np.ndarray:
    # condition a population pmf on being positive
    coeffs = series_coeffs / (1.0 - series_coeffs[0])
    coeffs[0] = 0.0
    return coeffs


def bounded_survival_prob(law: OffspringLaw, n: int, C: int) -> float:
    """P(0 < Z(n) <= C), the probability of the small-survival event."""
    n, C = whole_number("n", n), whole_number("bound C", C)
    if C < 1:
        return 0.0
    return float(pmf_Zn(law, n, C).coeffs[1:].sum())


def _reduced_rows(law: OffspringLaw, m: int, q: float, J: int) -> np.ndarray:
    """Unconditional reduced pmf p_1..p_J at intermediate generation m:
    the s^j coefficients of f_m(q + (1-q)s) at degree J."""
    for g in iterates(law, m, J, q, 1.0 - q):
        pass
    return g[1:]


def _cut(rows: np.ndarray, total: float, tol: float) -> np.ndarray:
    # the table ends at the first order whose remainder against total
    # is below tol, or keeps every row if none is
    small = np.nonzero(total - np.cumsum(rows) < tol)[0]
    return rows[: small[0] + 1] if len(small) else rows


def check_epsilon(epsilon: float) -> None:
    """Refuse a remainder tolerance outside (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def reduced_pmf(
    law: OffspringLaw,
    m: int,
    n: int,
    epsilon: float = EPSILON_DEFAULT,
) -> ReducedLawTable:
    """Unconditional pmf of the reduced count at generation m out of n.

    At m = n the reduced count equals the terminal population (q_0 = 0,
    so the rows are the coefficients of f_n).  The remainder criterion
    is absolute: the rows approach the survival probability P(Z(n) > 0)
    to within epsilon, or SeriesBudgetError is raised, stating the mass
    accounted so far.  J doubles from J_START until the remainder is
    below epsilon and the table is cut at the first order that meets
    it; the loop ends, since rows at m = 0 are exact and for m >= 1 the
    row pass reaches the budget as J grows.
    """
    n = whole_number("n", n)
    m = whole_number("m", m, 0, n)
    check_epsilon(epsilon)
    for k, q_k in enumerate(iter_extinction_probs(law, n)):
        if k == n - m:
            q = q_k
    survival = 1.0 - q_k
    J, probs = J_START, np.zeros(0)
    while True:
        try:
            probs = _reduced_rows(law, m, q, J)
        except SeriesBudgetError as exc:
            raise SeriesBudgetError(
                f"{exc}; at order {len(probs)} the rows account for mass "
                f"{probs.sum():.6g} of {survival:.6g}, short of epsilon"
            ) from None
        if survival - probs.sum() < epsilon:
            break
        J *= 2
    probs = _cut(probs, survival, epsilon)
    return ReducedLawTable(
        law=law.label,
        n=n,
        m=m,
        bound=None,
        epsilon=epsilon,
        pmf=probs,
        mass_accounted=float(probs.sum()),
    )


def _truncated_powers(s1: np.ndarray):
    """Yield the pmfs of S_1, S_2, ..., S_j a j-fold sum of iid copies
    with pmf ``s1``, each truncated at the degree of ``s1``."""
    s = s1
    while True:
        yield s
        s = np.convolve(s, s1)[: len(s1)]


def _bounded_sum_masses(s1: np.ndarray):
    """Yield P(S_j <= C) for j = 1, 2, ..., S_j a j-fold sum of iid
    positive sizes.

    ``s1`` is the single-copy pmf on 0..C with zero mass at 0; the
    convolutions stay truncated at C since mass above the bound never
    returns below it, and past j = C every mass is exactly 0.
    """
    for s in _truncated_powers(s1):
        yield float(s.sum())


def _tail_order(sums, survival, p1, cap: int, low: float = 0.0) -> list | None:
    """P(S_1 <= C), ..., P(S_{J+1} <= C) drawn from ``sums`` for the order
    J the tail bound picks.

    ``sums`` yields the masses of ``_bounded_sum_masses``.  Since
    P(S_j <= C) falls in j and rows p_j of a reduced count sum to the
    survival probability, the joint rows past J add at most
    P(S_{J+1} <= C) * survival, and J is the first order at which that
    is below 2^-52 times the first row p_1 P(S_1 <= C), itself a lower
    bound on the rows' total; the last mass returned is the first below
    the bound.  ``survival`` and ``p1`` may be arrays over several
    horizons, and then the bound holds at each.  None if J would pass
    ``cap``; that takes no convolution when ``low``, a lower bound on
    P(S_{cap+1} <= C), is already too large for the bound.
    """
    masses = [next(sums)]
    floor = 2.0**-52 * p1 * masses[0]
    if np.any(low * survival > floor):
        return None
    for mass in islice(sums, cap):
        masses.append(mass)
        if not np.any(mass * survival > floor):
            return masses
    return None


def _single_line_chain(slopes: np.ndarray) -> np.ndarray:
    """f_{n-u}'(q_u) = f'(q_u) ... f'(q_{n-1}) for u = 0..n from the
    slopes f'(q_0), ..., f'(q_{n-1}); at u = n the product is empty
    and 1."""
    return np.append(np.cumprod(slopes[::-1])[::-1], 1.0)


def _split_pass(law: OffspringLaw, n: int, C: int, qs: np.ndarray, slopes, steps: int):
    """The degree-C pass f_0, f_1, ... of at most ``steps`` steps, cut
    short at the split generation of (law, n, C).

    Tries are made at r = 2, 4, 8, ...: the try at r qualifies if the
    tail bound of ``_tail_order`` on the sums of copies of Z(r) given
    Z(r) > 0, over every horizon v in (r, n], picks an order J <= r
    below C.  ``slopes`` holds f'(q_0), ..., f'(q_{n-1}).  A try is
    made only while r, its cap on J and the caps of the earlier tries
    add up to at most ``steps``, so the tries' steps and convolutions
    at degree C stay within the pass they may cut short.  A try and its
    outcome depend on (law, n, C) and r alone, so a pass of fewer steps
    splits where a longer one does, or not at all.  The pass runs at most
    ``series.step_allowance(C)`` steps; short of ``steps``, it is refused
    unless a split qualifies within them.

    Returns r, the pmf of Z(r) to degree C, an array over u = 0..steps
    whose entries u <= r are the masses P(1 <= Z(u) <= C), and, at a
    split, the masses P(S_1 <= C), ..., P(S_{J+1} <= C) of
    ``_tail_order`` with the generator of the later ones, or else None;
    without a split, r is ``steps``.
    """
    r, spent = 2, 0
    # a pass that cannot afford its first try is refused by iterates unrun
    run = min(steps, max(r, series.step_allowance(C)))
    masses = np.empty(steps + 1)
    for u, coeffs in enumerate(iterates(law, run, C)):
        masses[u] = coeffs[1:].sum()
        cap = min(r, C - 1)
        if u == r and r + spent + cap <= steps:
            s1 = _positive_part(coeffs)
            # P(S_{cap+1} <= C) >= P(S_1 <= C // (cap + 1))^(cap + 1)
            low = s1[: C // (cap + 1) + 1].sum() ** (cap + 1)
            # p_1(v) = (1 - q_r) f_{v-r}'(q_r) at each horizon v > r
            p1 = (1.0 - qs[r]) * np.cumprod(slopes[r:])
            sums = _bounded_sum_masses(s1)
            fits = _tail_order(sums, 1.0 - qs[r + 1 :], p1, cap, low)
            if fits is not None:
                return r, coeffs, masses, (fits, sums)
            r, spent = 2 * r, spent + cap
    if u < steps:
        raise SeriesBudgetError(f"no split generation qualifies within the {u} of "
                                f"{steps} steps at degree {C} that the budget allows")
    return steps, coeffs, masses, None


def _split_sum_masses(law, r, h, C, qs, fits, sums, survival, p1):
    """P(S_j <= C) for j = 1..J, S_j a sum of j subtree sizes Z(h) given
    Z(h) > 0, from a split generation r < h of ``_split_pass``.

    Each subtree size is a sum of R copies of Z(r) given Z(r) > 0, with
    R the reduced count at h - r out of h given survival, so
    P(S_j <= C) = sum_k P(R_1 + ... + R_j = k) M_k, M_k = P(S^(r)_k <= C)
    from ``fits`` and then ``sums``.  The pmf of R is one row pass of
    h - r steps at a degree D, and the j-fold sums are convolutions at
    degree D.  J is the tail-bound order of ``_tail_order`` on these
    masses; it never passes the split's order J' = len(fits) - 1, since
    by the chain rule this p_1 times P(R = 1) is the split bound's p_1
    at v = n and P(S_j <= C) <= M_j.  The sum over k stops at the first
    K at which every row j <= J + 1 keeps its relative accuracy:
    M_{K+1} P(R_1 + ... + R_j > K) bounds the terms past K and must be
    below 2^-52 times the row.  D starts at 2(J' + 1), so row J + 1 lies
    within it, and doubles, up to C, while K reaches it; at D = C the
    sums are exact.
    """
    M, D = list(fits), min(C, 2 * len(fits))
    while True:
        for g in iterates(law, h - r, D, qs[r], 1.0 - qs[r]):
            pass
        # row j - 1 is the pmf of R_1 + ... + R_j on 0..D
        T = np.array(list(islice(_truncated_powers(_positive_part(g)), D)))
        above = np.maximum(1.0 - np.cumsum(T, axis=1), 0.0)
        for K in range(len(M) - 1, D + 1):
            if K == len(M):
                M.append(next(sums))
            V = (T[:, 1 : K + 1] * M[:K]).sum(axis=1)
            # _tail_order's rule over all of V at once; its loop is ~100x slower
            stop = np.nonzero(V[1:] * survival <= 2.0**-52 * p1 * V[0])[0]
            J = stop[0] + 1 if len(stop) else D
            if np.all(M[K] * above[: J + 1, K] <= 2.0**-52 * V[: J + 1]):
                return V[:J]
        D = min(C, 2 * D)


def _joint_rows(law, m, n, C, epsilon):
    """Joint rows and the event probability P(0 < Z(n) <= C).

    Row j is the reduced row p_j times the chance P(S_j <= C) that j
    surviving subtrees of n - m generations keep the total at or below
    C.  The subtree sizes come from the degree-C pass of
    ``_split_pass`` over n - m steps.  Where it stops at a split
    generation r, ``_split_sum_masses`` takes the masses on from there,
    so no pass runs to n - m at degree C; otherwise they are the
    convolutions of the size pmf at n - m.  One pass of m steps at the
    order J of the tail bound of ``_tail_order`` gives the reduced rows,
    so J is chosen before the row pass.  The event probability is the
    sum of rows 1..J, and the rows returned are those 1..J cut at the
    first order whose remainder is below epsilon times it.
    """
    h = n - m
    series.check_horizon(n)
    qs = np.fromiter(iter_extinction_probs(law, n), float, n + 1)
    slopes = pgf_derivatives(law, qs[:-1], 1)[1]
    r, subtree, _, split = _split_pass(law, n, C, qs, slopes, h)
    q, survival = qs[h], 1.0 - qs[n]
    # p_1 = (1 - q_h) f_m'(q_h)
    p1 = (1.0 - q) * _single_line_chain(slopes)[h]
    if split is None:
        # J <= C, as P(S_{C+1} <= C) = 0
        masses = _tail_order(_bounded_sum_masses(_positive_part(subtree)), survival, p1, C)[:-1]
    else:
        masses = _split_sum_masses(law, r, h, C, qs, *split, survival, p1)
    rows = _reduced_rows(law, m, q, len(masses)) * masses
    event_prob = float(rows.sum())
    return _cut(rows, event_prob, epsilon * event_prob), event_prob


def joint_reduced_bounded(
    law: OffspringLaw,
    m: int,
    n: int,
    C: int,
    epsilon: float = EPSILON_DEFAULT,
) -> ReducedLawTable:
    """pmf rows P(reduced count at m = j, 0 < Z(n) <= C).

    Row j is the unconditional reduced probability times the chance
    that j independent surviving subtrees keep the terminal total at
    or below C.  The remainder criterion is relative to the event
    probability, so the conditional table derived from this one sums
    to 1 within epsilon.
    """
    n = whole_number("n", n, 1)
    m, C = whole_number("m", m, 0, n - 1), whole_number("bound C", C, 1)
    check_epsilon(epsilon)
    rows, event_prob = _joint_rows(law, m, n, C, epsilon)
    return ReducedLawTable(
        law=law.label,
        n=n,
        m=m,
        bound=C,
        epsilon=epsilon,
        pmf=rows,
        mass_accounted=float(rows.sum()),
        event_prob=event_prob,
    )


def conditional_reduced_pmf(
    law: OffspringLaw,
    m: int,
    n: int,
    C: int,
    epsilon: float = EPSILON_DEFAULT,
) -> ReducedLawTable:
    """pmf rows P(reduced count at m = j | 0 < Z(n) <= C).

    The table is the joint table of ``joint_reduced_bounded`` with its
    rows and row sum divided by the event probability, which it keeps.
    """
    C = whole_number("bound C", C)
    impossible = f"conditioning event 0 < Z({n}) <= {C} has probability zero"
    if C < 1:
        raise ConditioningImpossibleError(impossible)
    joint = joint_reduced_bounded(law, m, n, C, epsilon)
    if joint.event_prob <= 0.0:
        raise ConditioningImpossibleError(impossible)
    return replace(
        joint,
        pmf=joint.pmf / joint.event_prob,
        mass_accounted=float(joint.pmf.sum() / joint.event_prob),
    )


def _bounded_masses(law: OffspringLaw, n: int, C: int, qs: np.ndarray, slopes, horizons):
    """P(1 <= Z(u) <= C) at each horizon u of ``horizons``, from the
    degree-C pass of ``_split_pass`` over n steps.

    Masses to u = r, where the pass stops, are read off it.  Past a
    split generation r each is sum_{j<=J} p_j(u) P(S_j <= C), the rows
    p_j(u) from one pass of n - r steps at degree J started at
    q_r + (1-q_r)s, one horizon per step.
    """
    r, _, masses, split = _split_pass(law, n, C, qs, slopes, n)
    if split is not None:
        fits, wanted = np.array(split[0][:-1]), set(horizons)
        for u, g in enumerate(iterates(law, n - r, len(fits), qs[r], 1.0 - qs[r]), start=r):
            if u > r and u in wanted:
                masses[u] = (g[1:] * fits).sum()
    return masses[horizons]


def mrca_distance_cdf(law: OffspringLaw, n: int, C: int, distances) -> np.ndarray:
    """cdf of the distance from the terminal time back to the most
    recent common ancestor of the survivors, given 0 < Z(n) <= C.

    The ancestor lies within distance u exactly when the reduced count
    at generation n-u is 1; distance 0 means the terminal population
    itself is a single individual.  That probability, jointly with the
    event, is f_{n-u}'(q_u) P(1 <= Z(u) <= C), and the event
    probability is the mass at u = n.  ``_bounded_masses`` gives the
    masses by one of two routes, fixed by (law, n, C) alone, so the cdf
    at u has the same bits whatever other distances are asked for.
    n, C and each distance in [0, n] must be whole numbers
    (``errors.whole_number``).
    """
    n, C = whole_number("n", n), whole_number("bound C", C, 1)
    grid = [whole_number("distance", u, 0, n) for u in np.atleast_1d(distances)]
    series.check_horizon(n)
    qs = np.fromiter(iter_extinction_probs(law, n), float, n + 1)
    slopes = pgf_derivatives(law, qs[:-1], 1)[1]
    masses = _bounded_masses(law, n, C, qs, slopes, grid + [n])
    event_prob = masses[-1]
    if event_prob <= 0.0:
        raise ConditioningImpossibleError(
            f"conditioning event 0 < Z({n}) <= {C} has probability zero"
        )
    return _single_line_chain(slopes)[grid] * masses[:-1] / event_prob
