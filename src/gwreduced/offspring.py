"""Critical offspring distributions and exact evaluation of their pgf.

A law here is always critical (mean one child) with finite positive
variance.  Three built-in families have closed-form pgf derivatives of
every order; custom laws must have finite support, so that composing
the pgf with a series is a Horner evaluation of a polynomial.

``sample_offspring`` draws iid counts, for linear-fractional and finite
laws by inverting one uniform per draw (Devroye, *Non-Uniform Random
Variate Generation*, 1986, ch. X), which gives the integers numpy's own
samplers give from the same stream: the linear-fractional count is read
off the binary exponent of ``1 - u`` and equals ``geometric(0.5) - 1``,
and a finite law counts the cut points of its cumulative table at or
below ``u`` by comparing ``u`` with each of them.  Poisson draws come
from ``Generator.poisson``.  The Monte Carlo sampler does not call it:
``simulate`` draws whole generation totals from convolution powers.  It
stays in this module, out of ``gwreduced.__all__``, because the
benchmark's tracer (``perfbench/tracer.py``) wraps it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DegenerateVarianceError, NonCriticalError, whole_number

MEAN_TOL = 1e-9
MASS_TOL = 1e-12


class Family(str, Enum):
    LINEAR_FRACTIONAL = "linear_fractional"
    POISSON = "poisson"
    TERNARY_UNIFORM = "ternary_uniform"
    CUSTOM_FINITE = "custom"


@dataclass(frozen=True)
class OffspringLaw:
    """Immutable critical offspring distribution.

    ``half_variance`` is half the offspring variance; survival and
    conditioning scales downstream are all expressed through it.
    ``support_pmf`` stores the exact pmf for finite-support laws and is
    None for the two infinite-support built-ins.
    """

    family: Family
    half_variance: float
    support_pmf: np.ndarray | None = None

    @property
    def label(self) -> str:
        if self.family is Family.CUSTOM_FINITE:
            probs = ",".join(repr(float(p)) for p in self.support_pmf)
            return f"custom:{probs}"
        return self.family.value


def make_custom(pmf) -> OffspringLaw:
    """Validate a finite-support pmf and build a critical law from it.

    The sequence may carry rounding drift up to 1e-12 in total mass and
    is renormalized; a mean off 1 by more than 1e-9 is rejected.
    """
    arr = np.asarray(pmf, dtype=float)
    if arr.ndim != 1 or len(arr) < 2:
        raise ValueError("pmf must be a 1-d sequence with at least two entries")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("pmf entries must be finite and nonnegative")
    total = float(arr.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"pmf mass {total} differs from 1 by more than {MASS_TOL}")
    arr = arr / total
    k = np.arange(len(arr), dtype=float)
    mean = float(np.dot(k, arr))
    if abs(mean - 1.0) > MEAN_TOL:
        raise NonCriticalError(f"offspring mean {mean} is not 1 within {MEAN_TOL}")
    variance = float(np.dot(k * k, arr)) - mean * mean
    if variance <= MASS_TOL:
        raise DegenerateVarianceError("offspring variance is zero")
    # trim trailing zero probabilities: the last entry is the largest count
    last = int(np.max(np.nonzero(arr)[0]))
    arr = arr[: last + 1]
    return OffspringLaw(
        family=Family.CUSTOM_FINITE,
        half_variance=variance / 2.0,
        support_pmf=arr,
    )


def make_builtin(family: Family | str) -> OffspringLaw:
    """Construct one of the parameterless built-in critical laws."""
    fam = Family(family)
    if fam is Family.CUSTOM_FINITE:
        raise ValueError("custom laws take a pmf: use make_custom")
    if fam is Family.LINEAR_FRACTIONAL:
        # f(s) = 1/(2-s), geometric pmf 2^-(k+1), variance 2
        return OffspringLaw(fam, half_variance=1.0)
    if fam is Family.POISSON:
        return OffspringLaw(fam, half_variance=0.5)
    # ternary uniform on {0, 1, 2}
    return OffspringLaw(
        fam,
        half_variance=0.25,
        support_pmf=np.array([0.25, 0.5, 0.25]),
    )


def law_from_name(name: str) -> OffspringLaw:
    """Parse a law given as a config/CLI string.

    Accepts the built-in names plus ``custom:p0,p1,...``.
    """
    name = name.strip()
    if name.startswith("custom:"):
        probs = [float(tok) for tok in name[len("custom:"):].split(",") if tok.strip()]
        return make_custom(probs)
    try:
        return make_builtin(name)
    except ValueError:
        raise ValueError(f"unknown offspring law {name!r}") from None


def pgf_value(law: OffspringLaw, s: float) -> float:
    """The pgf at a point of [0, 1]."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"pgf argument {s} outside [0, 1]")
    if law.family is Family.LINEAR_FRACTIONAL:
        return 1.0 / (2.0 - s)
    if law.family is Family.POISSON:
        return math.exp(s - 1.0)
    return float(npoly.polyval(s, law.support_pmf))


def pgf_derivatives(law: OffspringLaw, q, J: int) -> np.ndarray:
    """Exact derivatives (f(q), f'(q), ..., f^(J)(q)) of the offspring pgf.

    ``q`` is one point of [0, 1) or an array of them; row j of the
    result holds f^(j) at every point.  Uses the family closed form:
    j!/(2-q)^(j+1) for the linear-fractional law, e^(q-1) at every order
    for Poisson(1), and direct polynomial differentiation for
    finite-support laws.
    """
    q = np.asarray(q, dtype=float)
    if not np.all((0.0 <= q) & (q < 1.0)):
        raise ValueError(f"derivative evaluation point {q} outside [0, 1)")
    J = whole_number("derivative order J", J)
    out = np.empty((J + 1,) + q.shape)
    if law.family is Family.LINEAR_FRACTIONAL:
        base = 1.0 / (2.0 - q)
        out[0] = base
        for j in range(1, J + 1):
            out[j] = out[j - 1] * j * base
        return out
    if law.family is Family.POISSON:
        # math.exp, as in pgf_value: np.exp may take a vectorised path
        # whose last bit differs from it
        out[:] = np.reshape([math.exp(x) for x in (q - 1.0).flat], q.shape)
        return out
    coeffs = law.support_pmf
    for j in range(J + 1):
        out[j] = npoly.polyval(q, coeffs) if len(coeffs) else 0.0
        coeffs = npoly.polyder(coeffs) if len(coeffs) > 1 else np.zeros(0)
    return out


def sample_offspring(law: OffspringLaw, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` iid offspring counts, one uniform per draw except
    for Poisson."""
    if law.family is Family.POISSON:
        return rng.poisson(1.0, size)
    u = rng.random(size)
    if law.family is Family.LINEAR_FRACTIONAL:
        # numpy's geometric(0.5) - 1 counts its exact partial sums 1 - 2^-k
        # below u, which is k just when the exact 1 - u lies in
        # [2^-(k+1), 2^-k), i.e. has biased exponent 1022 - k (-1 at u = 0)
        return np.maximum(1022 - ((1.0 - u).view(np.int64) >> 52), 0)
    cut = np.cumsum(law.support_pmf)
    # the number of cut points at or below u, not counting the last one
    draws = np.zeros(size, dtype=np.int64)
    for c in cut[:-1]:
        draws += u >= c
    return draws
