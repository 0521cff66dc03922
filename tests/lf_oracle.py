"""Closed-form oracle for the linear-fractional offspring law f(s) = 1/(2-s).

All formulas follow by induction from f_n(s) = (n - (n-1)s)/(n+1 - ns):

    q_n           = n/(n+1)
    P(Z(n)=0)     = n/(n+1)
    P(Z(n)=k)     = (1/(n+1)^2) (n/(n+1))^(k-1)      for k >= 1
    f_n^(k)(s)    = k! n^(k-1) / (n+1 - ns)^(k+1)    for k >= 1
    f_n'(q_r)     = (r+1)^2 / (n+r+1)^2

The reduced count at m out of n has P(Z(m,n)=j) = (1-q)^j/j! f_m^(j)(q)
with q = q_{n-m}.  Given Z(n) > 0 the generation-r population is
geometric on {1, 2, ...} with success probability 1/(r+1), so a sum of
j such subtrees stays <= C exactly when C Bernoulli(1/(r+1)) trials
have at least j successes; the binomial tail is summed in exact
rational arithmetic.  The ancestor of the survivors lies within distance
u of generation n with conditional probability

    (u+1)/(n+1) * (1 - (u/(u+1))^C) / (1 - (n/(n+1))^C),

also in exact rationals.

These are computed independently of the package and are the ground
truth the series engine and the reduced-process tables are checked
against.
"""

import math
from fractions import Fraction

import numpy as np


def iterate_value(n: int, s: float) -> float:
    if n == 0:
        return s
    return (n - (n - 1) * s) / (n + 1 - n * s)


def extinction(n: int) -> float:
    return n / (n + 1.0)


def pmf(n: int, kmax: int) -> np.ndarray:
    out = np.empty(kmax + 1)
    if n == 0:
        out[:] = 0.0
        out[1] = 1.0
        return out
    out[0] = n / (n + 1.0)
    k = np.arange(1, kmax + 1)
    out[1:] = (n / (n + 1.0)) ** (k - 1.0) / (n + 1.0) ** 2
    return out


def derivative(n: int, k: int, s: float) -> float:
    if n == 0:
        if k == 0:
            return s
        return 1.0 if k == 1 else 0.0
    if k == 0:
        return iterate_value(n, s)
    return math.factorial(k) * n ** (k - 1.0) / (n + 1 - n * s) ** (k + 1)


def derivative_at_extinction(n: int, k: int, r: int) -> float:
    """f_n^(k) evaluated at q_r."""
    return derivative(n, k, extinction(r))


def reduced_pmf(m: int, n: int, jmax: int) -> np.ndarray:
    """P(Z(m,n) = j) for j = 1..jmax.

    The rows are geometric, p_1 rho^(j-1) with p_1 = (1-q)/(m+1-mq)^2
    and rho = (1-q) m/(m+1-mq) < 1, which stays finite at any m and j
    where the powers m^(j-1) and (m+1-mq)^(j+1) apart would overflow.
    """
    q = extinction(n - m)
    j = np.arange(1, jmax + 1)
    if m == 0:
        return np.where(j == 1, 1.0 - q, 0.0)
    p1 = (1.0 - q) / (m + 1 - m * q) ** 2
    rho = (1.0 - q) * m / (m + 1 - m * q)
    return p1 * rho ** (j - 1.0)


def event_prob(n: int, C: int) -> float:
    """P(0 < Z(n) <= C)."""
    return float((1 - Fraction(n, n + 1) ** C) / (n + 1))


def bounded_sum_probs(r: int, C: int) -> np.ndarray:
    """P(S_j <= C) for j = 1..C, S_j a sum of j iid copies of Z(r) given
    Z(r) > 0."""
    # C trials of success probability 1/(r+1): the tails over i >= j in
    # integers, over the common denominator (r+1)^C, in one pass from
    # i = C down
    denominator = (r + 1) ** C
    tail = 0
    out = np.empty(C)
    for i in range(C, 0, -1):
        tail += math.comb(C, i) * r ** (C - i)
        out[i - 1] = float(Fraction(tail, denominator))
    return out


def conditional_reduced_pmf(m: int, n: int, C: int, jmax: int | None = None) -> np.ndarray:
    """P(Z(m,n) = j | 0 < Z(n) <= C) for j = 1..jmax <= C, by default 1..C."""
    jmax = C if jmax is None else jmax
    rows = reduced_pmf(m, n, jmax)
    fits = bounded_sum_probs(n - m, C)[:jmax]
    return rows * fits / event_prob(n, C)


def mrca_cdf(n: int, C: int, u: int) -> float:
    """P(ancestor distance <= u | 0 < Z(n) <= C), for 0 <= u <= n."""
    near = 1 - Fraction(u, u + 1) ** C
    return float(Fraction(u + 1, n + 1) * near / (1 - Fraction(n, n + 1) ** C))
