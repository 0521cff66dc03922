"""Closed forms of the limiting reduced-process laws.

Two scaling regimes appear.  In the sublinear-window regime the
terminal bound grows like B*phi(n) with phi(n) = o(n), the intermediate
time sits x window-widths before the end, and the limiting reduced
count has pmf x * P(Gamma(j,1) <= 1/x).  In the linear-band regime the
bound is a*B*n, the intermediate time is t*n, and the limit picks up a
geometric factor in t.  Both regimes reduce to Poisson tail identities,
so everything here is elementary: regularized incomplete gamma with
integer shape via its exact finite sum, plus expm1 for the generating
functions near s = 1.

``LimitQuery`` pins a regime and its parameters, validates them once,
and is the one way to evaluate a law: ``gf``, ``pmf``, ``pmf_values``
and ``table``.  The limiting cdf of the ancestor distance needs no
formula of its own.  The most recent common ancestor of the survivors
is within look-back u exactly when one reduced line is left there, so
the cdf at u is ``pmf(1)`` of the law at that look-back, as it is for
the exact tables in ``reduced.mrca_distance_cdf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TERM_RATIO = 1e-16
MAX_TERMS = 100_000


def gamma_reg_lower(j: int, u: float) -> float:
    """Regularized lower incomplete gamma at integer shape j.

    Equals the Poisson tail P(N(u) >= j) = 1 - e^-u sum_{i<j} u^i/i!.
    For u >= j the complement sum is evaluated (the result is not
    small, so the subtraction is safe); for u < j the tail terms are
    summed directly from i = j, which stays accurate when the value is
    tiny.  The Poisson terms carry the e^-u factor throughout so
    nothing overflows for large u.
    """
    if j < 1:
        raise ValueError("shape must be a positive integer")
    if u < 0.0:
        raise ValueError("argument must be nonnegative")
    if u == 0.0:
        return 0.0
    if u >= j:
        term = math.exp(-u)
        acc = 0.0
        for i in range(j):
            acc += term
            term *= u / (i + 1)
        return 1.0 - acc
    # forward tail sum; the term ratio u/(i+1) < 1 keeps it convergent
    term = math.exp(-u + j * math.log(u) - math.lgamma(j + 1))
    acc = 0.0
    i = j
    while term > acc * 1e-18 and term > 0.0:
        acc += term
        i += 1
        term *= u / i
    return acc


def yaglom_cdf(y: float) -> float:
    """Limiting cdf of Z(n)/(Bn) given survival: standard exponential."""
    if y < 0.0:
        raise ValueError("population scale is nonnegative")
    return -math.expm1(-y)


def classical_reduced_gf(s: float, t: float) -> float:
    """Limiting reduced-count gf conditioned on bare survival."""
    _check_s(s)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"time fraction {t} outside [0, 1)")
    if s == 1.0:
        return 1.0
    return s * (1.0 - t) / (1.0 - t * s)


class Regime(str, Enum):
    SMALL_PHI = "small_phi"
    LINEAR_BAND = "linear_band"


@dataclass(frozen=True)
class LimitQuery:
    """One limiting law, pinned to a regime and its parameters."""

    regime: Regime
    x: float | None = None
    t: float | None = None
    a: float | None = None

    def __post_init__(self):
        if self.regime is Regime.SMALL_PHI:
            if self.x is None:
                raise ValueError("sublinear-window regime needs x")
            _check_positive("x", self.x)
            _check_positive("1/x", 1.0 / self.x)
        else:
            if self.t is None or self.a is None:
                raise ValueError("linear-band regime needs t and a")
            if not 0.0 <= self.t < 1.0:
                raise ValueError(f"time fraction {self.t} outside [0, 1)")
            _check_positive("a", self.a)
            _check_positive("a/(1-t)", self.a / (1.0 - self.t))

    def gf(self, s: float) -> float:
        """Limiting gf of the reduced count at ``s`` in [0, 1]."""
        _check_s(s)
        if s == 1.0:
            return 1.0
        if self.regime is Regime.SMALL_PHI:
            x = self.x
            return s * x * -math.expm1(-(1.0 - s) / x) / (1.0 - s)
        t, a = self.t, self.a
        geometric = s * (1.0 - t) / (1.0 - t * s)
        window = math.expm1(-(1.0 - t * s) * a / (1.0 - t)) / math.expm1(-a)
        return geometric * window

    def pmf(self, j: int) -> float:
        """Limiting probability of j reduced lines, j >= 1.

        ``pmf(1)``, the probability of a single line, is also the
        limiting cdf of the ancestor distance at the look-back the
        query sits at: u window widths is ``x = u``, and a fraction u
        of n is ``t = 1 - u``.
        """
        if j < 1:
            raise ValueError("reduced counts start at 1")
        if self.regime is Regime.SMALL_PHI:
            x = self.x
            return x * gamma_reg_lower(j, 1.0 / x)
        t, a = self.t, self.a
        scale = (1.0 - t) / -math.expm1(-a)
        return scale * t ** (j - 1) * gamma_reg_lower(j, a / (1.0 - t))

    def pmf_values(self) -> np.ndarray:
        """pmf values p_1, p_2, ... truncated once terms stop mattering."""
        values = []
        acc = 0.0
        for j in range(1, MAX_TERMS + 1):
            v = self.pmf(j)
            values.append(v)
            acc += v
            if v < TERM_RATIO * acc:
                break
        return np.asarray(values)

    def table(self, s_grid, j_max: int | None = None) -> LimitTable:
        """pmf rows 1..j_max (by default until terms stop mattering) and
        gf values at each s of ``s_grid``."""
        if j_max is None:
            pmf = [float(p) for p in self.pmf_values()]
        elif j_max < 1:
            raise ValueError(f"j_max must be at least 1, got {j_max}")
        else:
            pmf = [self.pmf(j) for j in range(1, j_max + 1)]
        return LimitTable(query=self, pmf=pmf, gf={s: self.gf(s) for s in s_grid})


@dataclass(frozen=True)
class LimitTable:
    """A limiting law's pmf p_1, p_2, ... and its gf on a grid."""

    query: LimitQuery
    pmf: list
    gf: dict

    def to_json_dict(self) -> dict:
        q = self.query
        params = {"x": q.x} if q.regime is Regime.SMALL_PHI else {"t": q.t, "a": q.a}
        return {
            "regime": q.regime.value,
            **params,
            "pmf": self.pmf,
            "gf": {repr(s): v for s, v in self.gf.items()},
        }

    def csv_rows(self):
        yield ("j", "p")
        yield from enumerate(self.pmf, start=1)


def _check_s(s: float) -> None:
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"gf argument {s} outside [0, 1]")


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
