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
m, the terminal population is a sum of j iid copies of Z(n-m)
conditioned positive, so the joint pmf is the unconditional pmf times
a C-truncated convolution mass, and rows past j = C vanish.  The event
probability and the subtree pmf come from one streamed pass over
f_0..f_n at degree C.  The most recent common ancestor of the
survivors sits at distance <= u from the terminal time exactly when the
reduced count at n-u is 1, which turns the ancestor-distance cdf into
a family of single-line probabilities; by the chain rule each is a
product of scalars read off the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningImpossibleError, SeriesBudgetError
from .offspring import OffspringLaw, pgf_derivatives
from .series import (
    TruncatedSeries,
    iter_extinction_probs,
    iterates,
    pmf_Zn,
)

EPSILON_DEFAULT = 1e-9
# first order tried by the adaptive tables; each retry doubles it
J_START = 8


@dataclass(frozen=True)
class ReducedLawTable:
    """Tabulated pmf of the reduced count at generation m out of n.

    ``pmf[j-1]`` is the probability of j reduced lines, j = 1..J_max:
    P(count=j) from ``reduced_pmf``, P(count=j, 0<Z(n)<=C) from
    ``joint_reduced_bounded`` and P(count=j | 0<Z(n)<=C) from
    ``conditional_reduced_pmf``.  ``mass_accounted`` is the row sum; unless
    the caller fixes it, J_max is the first order, doubling from
    J_START, at which the remainder against the relevant total is below
    ``epsilon``.  Joint and conditional tables stop at J_max = C at the
    latest, since rows past C are exactly zero; an unconditional table
    that would need more than the composition budget raises
    SeriesBudgetError instead of coming back short.  Joint and
    conditional tables also carry ``event_prob`` = P(0 < Z(n) <= C),
    from the same pass that built the rows; it is not serialised.
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
        if j < 1:
            raise ValueError("reduced counts start at 1")
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


def _positive_part(series_coeffs: np.ndarray) -> TruncatedSeries:
    # condition a population pmf on being positive
    coeffs = series_coeffs / (1.0 - series_coeffs[0])
    coeffs[0] = 0.0
    tail = 1.0 - float(coeffs.sum())
    return TruncatedSeries(coeffs=coeffs, tail=max(tail, 0.0))


def conditioned_positive_pmf(law: OffspringLaw, r: int, K: int) -> TruncatedSeries:
    """pmf of the generation-r population conditioned on being positive."""
    if r < 1:
        raise ValueError("horizon must be at least 1")
    return _positive_part(pmf_Zn(law, r, K).coeffs)


def _population_pass(law: OffspringLaw, n: int, K: int, r: int | None = None):
    """q_0..q_n, the masses P(1 <= Z(u) <= K) for u = 0..n and the
    coefficients of f_r (None without r), from one streamed pass over
    f_0..f_n at degree K >= 1."""
    qs, masses, kept = np.empty(n + 1), np.empty(n + 1), None
    for u, coeffs in enumerate(iterates(law, n, K)):
        qs[u], masses[u] = coeffs[0], coeffs[1:].sum()
        if u == r:
            kept = coeffs
    return qs, masses, kept


def bounded_survival_prob(law: OffspringLaw, n: int, C: int) -> float:
    """P(0 < Z(n) <= C), the probability of the small-survival event."""
    return float(_population_pass(law, n, C)[1][n]) if C > 0 else 0.0


def _reduced_rows(law: OffspringLaw, m: int, q: float, J: int) -> np.ndarray:
    """Unconditional reduced pmf p_1..p_J at intermediate generation m:
    p_j is the s^j coefficient of f_m(q + (1-q)s)."""
    for g in iterates(law, m, J, q, 1.0 - q):
        pass
    return g[1:]


def _table_rows(build, J_max, total: float, tol: float, J_cap=None):
    """Rows p_1..p_J from ``build(J)``.

    A caller-fixed ``J_max`` is used as given.  Otherwise J doubles from
    J_START until the remainder against ``total`` is below ``tol`` or J
    reaches ``J_cap``, and the table is cut at the first order that
    meets ``tol > 0``.  The loop ends: joint rows stop at ``J_cap``,
    unconditional rows at m = 0 are exact (the remainder is 0), and for
    m >= 1 the build's own pass hits the composition budget as J grows.
    A build over budget raises SeriesBudgetError, stating the mass
    accounted so far, rather than return a short table.
    """
    if J_max is not None:
        if J_max < 1:
            raise ValueError("J_max must be at least 1")
        return build(J_max)
    J, rows = J_START, np.zeros(0)
    while True:
        if J_cap is not None:
            J = min(J, J_cap)
        try:
            rows = build(J)
        except SeriesBudgetError as exc:
            raise SeriesBudgetError(
                f"{exc}; at order {len(rows)} the rows account for mass "
                f"{rows.sum():.6g} of {total:.6g}, short of epsilon"
            ) from None
        if total - rows.sum() < tol or J == J_cap:
            break
        J *= 2
    small = np.nonzero(total - np.cumsum(rows) < tol)[0]
    return rows[: small[0] + 1] if len(small) else rows


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def reduced_pmf(
    law: OffspringLaw,
    m: int,
    n: int,
    J_max: int | None = None,
    epsilon: float = EPSILON_DEFAULT,
) -> ReducedLawTable:
    """Unconditional pmf of the reduced count at generation m out of n.

    At m = n the reduced count equals the terminal population (q_0 = 0,
    so the rows are the coefficients of f_n).  The remainder criterion
    is absolute: the rows approach the survival probability P(Z(n) > 0)
    to within epsilon, or SeriesBudgetError is raised.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    _check_epsilon(epsilon)
    qs = list(iter_extinction_probs(law, n))
    q, survival = qs[n - m], 1.0 - qs[n]
    probs = _table_rows(lambda J: _reduced_rows(law, m, q, J), J_max, survival, epsilon)
    return ReducedLawTable(
        law=law.label,
        n=n,
        m=m,
        bound=None,
        epsilon=epsilon,
        pmf=probs,
        mass_accounted=float(probs.sum()),
    )


def _bounded_sum_masses(s1: np.ndarray, J: int) -> np.ndarray:
    """P(S_j <= C) for j = 1..J, S_j a j-fold sum of iid positive sizes.

    ``s1`` is the single-copy pmf on 0..C with zero mass at 0; the
    convolutions stay truncated at C since mass above the bound never
    returns below it.
    """
    C = len(s1) - 1
    masses = np.empty(J)
    s = s1.copy()
    masses[0] = s.sum()
    for j in range(2, J + 1):
        s = np.convolve(s, s1)[: C + 1]
        masses[j - 1] = s.sum()
    return masses


def _joint_rows(law, m, n, C, J_max, epsilon):
    """Joint rows and the event probability P(0 < Z(n) <= C).

    One population pass at degree C gives both the pmf of the subtree
    size Z(n-m) on 0..C, from f_{n-m}, and the event probability, from
    f_n.  Row j is the reduced row times the chance that j surviving
    subtrees keep the total at or below C.
    """
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    _check_epsilon(epsilon)
    _, masses, subtree = _population_pass(law, n, C, n - m)
    event_prob = float(masses[n])
    q, s1 = float(subtree[0]), _positive_part(subtree).coeffs

    def build(J):
        return _reduced_rows(law, m, q, J) * _bounded_sum_masses(s1, J)

    rows = _table_rows(build, J_max, event_prob, epsilon * event_prob, J_cap=C)
    return rows, event_prob


def joint_reduced_bounded(
    law: OffspringLaw,
    m: int,
    n: int,
    C: int,
    J_max: int | None = None,
    epsilon: float = EPSILON_DEFAULT,
) -> ReducedLawTable:
    """pmf rows P(reduced count at m = j, 0 < Z(n) <= C).

    Row j is the unconditional reduced probability times the chance
    that j independent surviving subtrees keep the terminal total at
    or below C.  The remainder criterion is relative to the event
    probability, so the conditional table derived from this one sums
    to 1 within epsilon.
    """
    if C < 1:
        raise ValueError("bound must be at least 1")
    rows, event_prob = _joint_rows(law, m, n, C, J_max, epsilon)
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
    J_max: int | None = None,
    epsilon: float = EPSILON_DEFAULT,
) -> ReducedLawTable:
    """pmf rows P(reduced count at m = j | 0 < Z(n) <= C)."""
    impossible = f"conditioning event 0 < Z({n}) <= {C} has probability zero"
    if C < 1:
        raise ConditioningImpossibleError(impossible)
    rows, event_prob = _joint_rows(law, m, n, C, J_max, epsilon)
    if event_prob <= 0.0:
        raise ConditioningImpossibleError(impossible)
    return ReducedLawTable(
        law=law.label,
        n=n,
        m=m,
        bound=C,
        epsilon=epsilon,
        pmf=rows / event_prob,
        mass_accounted=float(rows.sum() / event_prob),
        event_prob=event_prob,
    )


def mrca_distance_cdf(law: OffspringLaw, n: int, C: int, distances) -> np.ndarray:
    """cdf of the distance from the terminal time back to the most
    recent common ancestor of the survivors, given 0 < Z(n) <= C.

    The ancestor lies within distance u exactly when the reduced count
    at generation n-u is 1; distance 0 means the terminal population
    itself is a single individual.
    """
    if C < 1:
        raise ValueError("bound must be at least 1")
    grid = np.atleast_1d(np.asarray(distances, dtype=int))
    if grid.size and (grid.min() < 0 or grid.max() > n):
        raise ValueError("distances must lie in [0, n]")
    qs, masses, _ = _population_pass(law, n, C)
    event_prob = masses[n]
    if event_prob <= 0.0:
        raise ConditioningImpossibleError(
            f"conditioning event 0 < Z({n}) <= {C} has probability zero"
        )
    # P(one reduced line at n-u, 0 < Z(n) <= C) = f_{n-u}'(q_u) P(1 <= Z(u) <= C),
    # and f_{n-u}'(q_u) = f'(q_u) ... f'(q_{n-1}), which is 1 at u = n
    slopes = pgf_derivatives(law, qs[:n], 1)[1]
    single_line = np.append(np.cumprod(slopes[::-1])[::-1], 1.0)
    return single_line[grid] * masses[grid] / event_prob
