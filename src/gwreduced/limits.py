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


def limit_gf_small_phi(s: float, x: float) -> float:
    """Limiting gf of the reduced count, sublinear-window regime."""
    _check_s(s)
    _check_positive("x", x)
    if s == 1.0:
        return 1.0
    return s * x * -math.expm1(-(1.0 - s) / x) / (1.0 - s)


def limit_reduced_small_pmf(x: float, j: int) -> float:
    """Limiting pmf of the reduced count, sublinear-window regime."""
    _check_positive("x", x)
    if j < 1:
        raise ValueError("reduced counts start at 1")
    return x * gamma_reg_lower(j, 1.0 / x)


def limit_mrca_cdf_small_phi(x: float) -> float:
    """Limiting cdf of the ancestor distance in window widths."""
    _check_positive("x", x)
    return x * -math.expm1(-1.0 / x)


def limit_gf_linear_band(s: float, t: float, a: float) -> float:
    """Limiting gf of the reduced count, linear-band regime."""
    _check_s(s)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"time fraction {t} outside [0, 1)")
    _check_positive("a", a)
    if s == 1.0:
        return 1.0
    geometric = s * (1.0 - t) / (1.0 - t * s)
    window = math.expm1(-(1.0 - t * s) * a / (1.0 - t)) / math.expm1(-a)
    return geometric * window


def limit_band_pmf(t: float, a: float, j: int) -> float:
    """Limiting pmf of the reduced count, linear-band regime."""
    if not 0.0 <= t < 1.0:
        raise ValueError(f"time fraction {t} outside [0, 1)")
    _check_positive("a", a)
    if j < 1:
        raise ValueError("reduced counts start at 1")
    scale = (1.0 - t) / -math.expm1(-a)
    return scale * t ** (j - 1) * gamma_reg_lower(j, a / (1.0 - t))


def limit_mrca_cdf_band(t: float, a: float) -> float:
    """Limiting cdf of the ancestor distance as a fraction of n."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"distance fraction {t} outside (0, 1]")
    _check_positive("a", a)
    return t * math.expm1(-a / t) / math.expm1(-a)


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


def small_phi_pmf_values(x: float, term_ratio: float = TERM_RATIO) -> np.ndarray:
    """pmf values p_1, p_2, ... truncated once terms stop mattering."""
    return _truncated_values(lambda j: limit_reduced_small_pmf(x, j), term_ratio)


def band_pmf_values(t: float, a: float, term_ratio: float = TERM_RATIO) -> np.ndarray:
    """pmf values p_1, p_2, ... truncated once terms stop mattering."""
    return _truncated_values(lambda j: limit_band_pmf(t, a, j), term_ratio)


def _truncated_values(term_fn, term_ratio: float) -> np.ndarray:
    values = []
    acc = 0.0
    for j in range(1, MAX_TERMS + 1):
        v = term_fn(j)
        values.append(v)
        acc += v
        if v < term_ratio * acc:
            break
    return np.asarray(values)


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
        else:
            if self.t is None or self.a is None:
                raise ValueError("linear-band regime needs t and a")
            if not 0.0 <= self.t < 1.0:
                raise ValueError(f"time fraction {self.t} outside [0, 1)")
            _check_positive("a", self.a)

    def gf(self, s: float) -> float:
        if self.regime is Regime.SMALL_PHI:
            return limit_gf_small_phi(s, self.x)
        return limit_gf_linear_band(s, self.t, self.a)

    def pmf(self, j: int) -> float:
        if self.regime is Regime.SMALL_PHI:
            return limit_reduced_small_pmf(self.x, j)
        return limit_band_pmf(self.t, self.a, j)

    def pmf_values(self, term_ratio: float = TERM_RATIO) -> np.ndarray:
        if self.regime is Regime.SMALL_PHI:
            return small_phi_pmf_values(self.x, term_ratio)
        return band_pmf_values(self.t, self.a, term_ratio)

    def table(self, s_grid, j_max: int | None = None) -> LimitTable:
        """pmf rows 1..j_max (by default until terms stop mattering) and
        gf values at each s of ``s_grid``."""
        if j_max is None:
            pmf = [float(p) for p in self.pmf_values()]
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
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
