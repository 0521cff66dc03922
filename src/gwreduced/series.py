"""Truncated power-series iteration of critical Galton-Watson pgfs.

The pgf of generation n is f_n = f(f_{n-1}).  The extinction sequence
q_n = f_n(0) iterates the pgf at 0.  It equals the constant term of
the pass from g = s below bit for bit, at every degree, for a small
fraction of the cost.  Everything else is read off ``iterates``, the
one loop that applies the recursion to a starting series g, one
composition step g -> f(g) at a time, truncated at the degree K of g,
under one budget (``check_budget``):

- g = s gives the coefficients of f_n, the pmf of Z(n);
- g = q + (1-q)s gives the reduced-process rows (see ``reduced``):
  coefficient k is (1-q)^k f_n^(k)(q)/k!, which at q = q_r is every
  derivative of f_n that the reduced formula uses.

Each step is exact at every degree <= K.  For the linear-fractional
and Poisson families h = f(g) solves a triangular system
d_k h_k = sum_{i=1..k} w_i h_{k-i}.  For the reciprocal 1/(2 - g),
w = g and d_k = 2 - g_0, so the system is Toeplitz and its inverse is
the lower-triangular Toeplitz matrix of h itself: once h_0..h_{a-1}
are known, one correlation gives their contribution r to degrees
a..2a-1 and h_a..h_{2a-1} = h * r, so each stage doubles the known
prefix.  For the exponential e^(g-1), w_i = i g_i and d_k = k, which
is not Toeplitz.  Its first BLOCK degrees are solved one coefficient
at a time in Python floats, each sum in a fixed left-to-right order:
a numpy call per degree cost more than the arithmetic it did.  Each
later block of BLOCK degrees is solved by its inverse: one correlation
for the contribution of all earlier coefficients, then one matvec,
with the inverses built for all blocks at once from a nilpotent
Neumann product.  The head and the blocks start at fixed degrees, so
coefficient k has the same bits at every degree K >= k.
Finite-support laws evaluate the polynomial f at g by Horner's rule.
Every coefficient involved is nonnegative and no step subtracts, so
nothing cancels and each coefficient keeps its relative accuracy, deep
in the tail too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .errors import JetOverflowError, SeriesBudgetError, whole_number
from .offspring import Family, OffspringLaw, pgf_value

# one budget: n steps at degree K cost n*(K^2 + STEP_COST) multiply-adds,
# STEP_COST being a step's fixed cost (3-6 us at K <= 3 against 0.14-0.74
# ns per K^2 at K = 800, 2 cores).  The extinction sweep is priced as
# degree 0, so the cap admits 5e6 generations: 80 MB of q_k and slopes
DEFAULT_COST_CAP = 1e11
STEP_COST = 2e4
# the Poisson step solves its degrees BLOCK at a time (a power of two,
# see _step_exponential); entry (i, j) of a block's lower-triangular
# matrix is w_{i-j}, and w_0 = 0 fills the diagonal and above
BLOCK = 16
_BLOCK_LAG = np.maximum(np.subtract.outer(np.arange(BLOCK), np.arange(BLOCK)), 0)
_EYE = np.eye(BLOCK)


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_K of f_n, i.e. P(Z(n)=k) for k <= K, where K
    is ``len(coeffs) - 1``."""

    coeffs: np.ndarray


def iter_extinction_probs(law: OffspringLaw, n: int):
    """An iterator over q_0 = 0, q_1, ..., q_n.  n is checked, and the
    sweep priced as n steps at degree 0, when it is called."""
    n = whole_number("n", n)
    check_budget(n, 0)
    return accumulate(repeat(None, n), lambda q, _: pgf_value(law, q), initial=0.0)


def extinction_prob(law: OffspringLaw, n: int) -> float:
    """P(Z(n) = 0), computed by iterating the pgf at 0."""
    for q in iter_extinction_probs(law, n):
        pass
    return q


def _step_reciprocal(g: np.ndarray) -> np.ndarray:
    # f(s) = 1/(2-s): solve (2 - g) h = 1, i.e. (2 - g_0) h_k = sum g_i h_{k-i}.
    # r is the part of that sum from h_0..h_{a-1} at degrees a..e-1; the
    # rest is the same Toeplitz system, whose inverse has first column
    # h, so h_a..h_{e-1} = h * r needs only h_0..h_{e-a-1}, e - a <= a
    K = len(g) - 1
    h = np.empty_like(g)
    h[0] = 1.0 / (2.0 - g[0])
    a = 1
    while a <= K:
        e = min(2 * a, K + 1)
        r = np.correlate(g[1:e], h[a - 1 :: -1], "valid")
        h[a:e] = np.convolve(h[: e - a], r)[: e - a]
        a = e
    return h


def _step_exponential(g: np.ndarray) -> np.ndarray:
    # f(s) = e^(s-1): h' = g' h gives k h_k = sum i g_i h_{k-i}
    K = len(g) - 1
    w = g * np.arange(K + 1)
    # the head, degrees 1..min(K, BLOCK), in Python floats: a scalar
    # np.dot per degree cost more than the arithmetic it did.  Each sum
    # runs left to right in a plain loop, an order no BLAS kernel can
    # change (sum() compensates float sums from Python 3.12 on)
    w_head = w[: BLOCK + 1].tolist()
    h_head = [math.exp(g[0] - 1.0)]
    for k in range(1, min(K, BLOCK) + 1):
        acc = 0.0
        for term in map(mul, w_head[k:0:-1], h_head):
            acc += term
        h_head.append(acc / k)
    if K <= BLOCK:
        return np.array(h_head)
    # w and h run to the end of the last block, so every block is solved
    # whole and its bits do not depend on K; the padding w_k = 0 reaches
    # only degrees past K
    top = -(-K // BLOCK) * BLOCK
    w = np.concatenate((w, np.zeros(top - K)))
    h = np.empty(top + 1)
    h[: BLOCK + 1] = h_head
    # block b solves (D - L) h_b = r: D = diag(d) over its degrees d,
    # L = w at _BLOCK_LAG and r the contribution of the earlier h.
    # N = D^-1 L is nilpotent of order BLOCK, so the Neumann series
    # (D - L)^-1 = (I + N)(I + N^2)(I + N^4)(I + N^8) D^-1 is exact;
    # every term is nonnegative, so nothing cancels
    d = np.arange(BLOCK + 1.0, top + 1).reshape(-1, BLOCK)
    N = w[_BLOCK_LAG] / d[:, :, None]
    inv = _EYE + N
    for _ in range(BLOCK.bit_length() - 2):
        N = N @ N
        inv += inv @ N
    inv /= d[:, None, :]
    for a, M in zip(range(BLOCK + 1, top, BLOCK), inv):
        r = np.correlate(w[1 : a + BLOCK], h[a - 1 :: -1], "valid")
        h[a : a + BLOCK] = M @ r
    return h[: K + 1]


def _step_finite(law: OffspringLaw, g: np.ndarray) -> np.ndarray:
    # finite support: Horner's rule over support_pmf, each product
    # truncated at the degree of g
    K = len(g) - 1
    pmf = law.support_pmf
    h = np.zeros(K + 1)
    h[0] = pmf[-1]
    for p in pmf[-2::-1]:
        h = np.convolve(h, g)[: K + 1]
        h[0] += p
    return h


def compose_step(law: OffspringLaw, g: np.ndarray) -> np.ndarray:
    """One composition f(g(s)) truncated at the degree of ``g``."""
    if law.family is Family.LINEAR_FRACTIONAL:
        return _step_reciprocal(g)
    if law.family is Family.POISSON:
        return _step_exponential(g)
    return _step_finite(law, g)


def step_allowance(K: int) -> int:
    """The most steps at degree K whose cost is within DEFAULT_COST_CAP."""
    # a float K^2 is inf, not an OverflowError, for a huge K
    return int(DEFAULT_COST_CAP // (float(K) * K + STEP_COST))


def check_budget(steps: int, K: int) -> None:
    """Refuse a pass of more steps at degree K than ``step_allowance``."""
    if steps > step_allowance(K):
        raise SeriesBudgetError(f"a pass of {steps} steps at degree {K} exceeds cap "
                                f"{DEFAULT_COST_CAP:.3g}, which admits {step_allowance(K)}")


def check_horizon(n: int) -> None:
    """Refuse a table or cdf at horizon n before any work: its sweep of n
    steps at degree 0 and its n or more composition steps at degree >= 1
    are priced together as 2n steps at degree 1."""
    check_budget(2 * n, 1)


def iterates(law: OffspringLaw, n: int, K: int, a: float = 0.0, b: float = 1.0):
    """Yield g, f(g), ..., f_n(g) for g = a + b s, each truncated at degree K.

    This is the one loop over ``compose_step``.  The whole pass is
    checked against the budget before any array is made.  Each
    yielded array is fresh, so a caller may keep the ones it needs and
    let the rest go.
    """
    n, K = whole_number("n", n), whole_number("K", K, 1)
    check_budget(n, K)
    g = np.zeros(K + 1)
    g[0], g[1] = a, b
    yield g
    for _ in range(n):
        g = compose_step(law, g)
        yield g


def pmf_Zn(law: OffspringLaw, n: int, K: int) -> TruncatedSeries:
    """Exact pmf of the generation size Z(n) up to degree K."""
    for coeffs in iterates(law, n, K):
        pass
    return TruncatedSeries(coeffs=coeffs)


def derivative_jet(law: OffspringLaw, n: int, q: float, J: int) -> np.ndarray:
    """Derivatives (f_n(q), f_n'(q), ..., f_n^(J)(q)) of the n-th pgf
    iterate at a point q of [0, 1), read off the iterates of q + s at
    degree J >= 1: the k-th coefficient of f_n(q + s) is f_n^(k)(q)/k!."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"jet evaluation point {q} outside [0, 1)")
    J = whole_number("J", J, 1)
    for g in iterates(law, n, J, q):
        pass
    with np.errstate(over="ignore", invalid="ignore"):
        jet = g * np.cumprod(np.concatenate([[1.0], np.arange(1.0, J + 1)]))
    if not np.all(np.isfinite(jet)):
        raise JetOverflowError(f"jet of order {J} overflowed (point {q})")
    return jet
