"""Closed forms of the limiting reduced-process laws.

Two scaling regimes appear.  In the sublinear-window regime the
terminal bound grows like B*phi(n) with phi(n) = o(n) and the
intermediate time sits x window-widths before the end; in the
linear-band regime the bound is a*B*n and the intermediate time t*n.
Both limits have the one form p_j = w * r^(j-1) * P(N(u) >= j), with
gf(s) = w*s*(1 - e^(-u(1-r*s)))/(1 - r*s) and N(u) Poisson: the window
has w = x, r = 1, u = 1/x, and the band w = (1-t)/(1-e^-a), r = t and
u = a/(1-t).  ``LimitQuery`` pins a regime and its parameters, checks
them and reduces them to (w, r, u) once, and is the one way to evaluate
a law: ``gf``, ``pmf``, ``pmf_values`` and ``table``, the tails from one
``poisson_tails`` pass.  ``classical_reduced_gf``, the law conditioned
on bare survival, is the independent check of the wide band.
``GF_GRID`` is the one grid of s values on which a gf is tabulated and
compared.  The limiting cdf of the ancestor distance needs no formula
of its own: the most recent common ancestor of the survivors is within
look-back u exactly when one reduced line is left there, so the cdf at
u is ``pmf(1)`` of the law at that look-back, as it is for the exact
tables in ``reduced.mrca_distance_cdf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import whole_number

TERM_RATIO = 1e-16
GF_GRID = tuple(round(0.1 * i, 1) for i in range(11))  # 0.0, 0.1, ..., 1.0


def poisson_tails(u: float, J: int) -> np.ndarray:
    """Poisson tails P(N(u) >= j) for j = 1..J, in O(J + sqrt(u)) work.

    The terms P(N = i) over the mode's come from the ratios u/(i+1) and
    i/u, out to ``reach`` places past the mode and past J, beyond which
    they are below e^-72 of it.  A tail is the sum of the terms from the
    far end down to j over the whole sum: it lies in [0, 1], and is 1.0
    below the first term kept."""
    J = whole_number("tail count J", J, 1)
    if not 0.0 <= u < math.inf:
        raise ValueError(f"Poisson mean must be nonnegative and finite, got {u}")
    mode, reach = _mode_reach(u)
    lo = max(mode - reach, 0)
    tails = np.ones(J)
    if J <= lo:
        return tails
    right = np.cumprod(u / np.arange(mode + 1, max(mode, J) + reach + 1))
    left = np.cumprod(np.arange(mode, lo, -1) / u)
    far_end = np.cumsum(np.concatenate((right[::-1], [1.0], left)))[::-1]
    tails[lo:] = far_end[1 : J - lo + 1] / far_end[0]
    return tails


def classical_reduced_gf(s: float, t: float) -> float:
    """Limiting reduced-count gf conditioned on bare survival."""
    _check_s(s)
    if not 0.0 <= t < 1.0:
        raise ValueError(f"time fraction {t} outside [0, 1)")
    return s * (1.0 - t) / (1.0 - t * s)


class Regime(str, Enum):
    SMALL_PHI = "small_phi"
    LINEAR_BAND = "linear_band"


@dataclass(frozen=True)
class LimitQuery:
    """One limiting law: a regime, a ``Regime`` or its text, and its
    parameters, checked and reduced to (w, r, u) once.  The window keeps
    ``x`` and the band ``t`` and ``a``; the other regime's parameters
    are set to None, so two queries for one law are equal.  A given
    ``x`` must be positive and finite in either regime."""

    regime: Regime
    x: float | None = None
    t: float | None = None
    a: float | None = None

    def __post_init__(self):
        regime = Regime(self.regime)
        # a given x is checked in either regime, before the band drops it
        if self.x is not None:
            _check_positive("x", self.x)
        if regime is Regime.SMALL_PHI:
            if self.x is None:
                raise ValueError("sublinear-window regime needs x")
            w, r, u = self.x, 1.0, _check_positive("1/x", 1.0 / self.x)
            unused = dict(t=None, a=None)
        else:
            if self.t is None or self.a is None:
                raise ValueError("linear-band regime needs t and a")
            if not 0.0 <= self.t < 1.0:
                raise ValueError(f"time fraction {self.t} outside [0, 1)")
            _check_positive("a", self.a)
            u = _check_positive("a/(1-t)", self.a / (1.0 - self.t))
            w = _check_positive("(1-t)/(1-e^-a)", (1.0 - self.t) / -math.expm1(-self.a))
            r = self.t
            unused = dict(x=None)
        for name, value in dict(unused, regime=regime, _wru=(w, r, u)).items():
            object.__setattr__(self, name, value)

    def gf(self, s: float) -> float:
        """Limiting gf of the reduced count at ``s`` in [0, 1]."""
        _check_s(s)
        if s == 1.0:
            return 1.0
        w, r, u = self._wru
        return w * s * -math.expm1(-u * (1.0 - r * s)) / (1.0 - r * s)

    def pmf(self, j: int) -> float:
        """Limiting probability of j reduced lines, j >= 1.

        ``pmf(1)``, the probability of a single line, is also the
        limiting cdf of the ancestor distance at the look-back the
        query sits at: u window widths is ``x = u``, and a fraction u
        of n is ``t = 1 - u``.
        """
        return float(self._values(whole_number("reduced count j", j, 1))[-1])

    def pmf_values(self) -> np.ndarray:
        """pmf values p_1, p_2, ... up to the first p_j below TERM_RATIO
        times p_1 + ... + p_j, which comes by the tails' mode plus reach
        and, when r < 1, once r^(j-1) >= p_j/p_1 is below TERM_RATIO."""
        _, r, u = self._wru
        J = sum(_mode_reach(u))
        if r < 1.0:
            J = min(J, int(math.log(TERM_RATIO) / math.log(r)) + 3 if r > 0.0 else 2)
        values = self._values(J)
        below = values < TERM_RATIO * np.cumsum(values)
        return values[: np.flatnonzero(below)[0] + 1]

    def table(self) -> LimitTable:
        """The pmf rows of ``pmf_values`` and gf values at each s of
        ``GF_GRID``."""
        pmf = self.pmf_values().tolist()
        return LimitTable(query=self, pmf=pmf, gf={s: self.gf(s) for s in GF_GRID})

    def _values(self, J: int) -> np.ndarray:
        """p_1..p_J: w * r^(j-1) times the Poisson tails at u."""
        w, r, u = self._wru
        return w * r ** np.arange(J) * poisson_tails(u, J)


@dataclass(frozen=True)
class LimitTable:
    """A limiting law's pmf p_1, p_2, ... and its gf on GF_GRID."""

    query: LimitQuery
    pmf: list
    gf: dict

    def to_json_dict(self) -> dict:
        q = self.query
        params = {name: getattr(q, name) for name in ("x", "t", "a")}
        return {
            "regime": q.regime.value,
            **{name: value for name, value in params.items() if value is not None},
            "pmf": self.pmf,
            "gf": {repr(s): v for s, v in self.gf.items()},
        }

    def csv_rows(self):
        yield ("j", "p")
        yield from enumerate(self.pmf, start=1)


def _mode_reach(u: float) -> tuple[int, int]:
    # past mode + reach a Poisson(u) term is below e^-72 of the largest
    return math.floor(u), math.ceil(40.0 + 12.0 * math.sqrt(u))


def _check_s(s: float) -> None:
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"gf argument {s} outside [0, 1]")


def _check_positive(name: str, value: float) -> float:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value
