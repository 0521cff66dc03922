"""The one whole-number rule at every public entry point.

Each count, bound and generation argument takes an integral float or a
numpy integer as its int, with a result identical bit for bit to the
int call, and refuses a fractional, NaN or infinite value with a
ValueError that names the argument before any pass or draw starts.
Among them is target_accepted=nan, which no comparison with 1 refuses
and which no count of acceptances ever reaches.
"""

import dataclasses
import math

import numpy as np
import pytest

from gwreduced import errors, make_builtin, series, simulate
from gwreduced.limits import LimitQuery, Regime, poisson_tails
from gwreduced.offspring import pgf_derivatives
from gwreduced.reduced import (
    bounded_survival_prob,
    conditional_reduced_pmf,
    joint_reduced_bounded,
    mrca_distance_cdf,
    reduced_pmf,
)
from gwreduced.series import derivative_jet, iter_extinction_probs, iterates, pmf_Zn
from gwreduced.simulate import run_conditioned_batch

LF = make_builtin("linear_fractional")
TABLE = reduced_pmf(LF, 3, 6)
WINDOW = LimitQuery(Regime.SMALL_PHI, x=1.0)


def _batch(n, C, query, target_accepted, max_replicates, seed, workers, chunk_size):
    # a small replicate budget, so a check that lets a value through
    # draws a few chunks and fails fast
    return run_conditioned_batch(
        LF, n, C, [2, query], target_accepted, max_replicates, seed, workers, chunk_size
    )


# (entry point, its whole-number arguments at int values); each call
# passes them by keyword, a list element standing in for each distance
# and queried generation
ENTRY_POINTS = {
    "pgf_derivatives": (lambda order: pgf_derivatives(LF, 0.3, order), {"order": 3}),
    "poisson_tails": (lambda tails: poisson_tails(2.0, tails), {"tails": 5}),
    "LimitQuery.pmf": (WINDOW.pmf, {"j": 3}),
    "ReducedLawTable.prob": (TABLE.prob, {"j": 2}),
    "iter_extinction_probs": (lambda n: list(iter_extinction_probs(LF, n)), {"n": 6}),
    "iterates": (lambda n, K: list(iterates(LF, n, K)), {"n": 6, "K": 4}),
    "pmf_Zn": (lambda n, K: pmf_Zn(LF, n, K), {"n": 6, "K": 4}),
    "derivative_jet": (lambda n, J: derivative_jet(LF, n, 0.3, J), {"n": 6, "J": 4}),
    "reduced_pmf": (lambda m, n: reduced_pmf(LF, m, n), {"m": 3, "n": 6}),
    "joint_reduced_bounded": (
        lambda m, n, C: joint_reduced_bounded(LF, m, n, C), {"m": 3, "n": 6, "C": 4}
    ),
    "conditional_reduced_pmf": (
        lambda m, n, C: conditional_reduced_pmf(LF, m, n, C), {"m": 3, "n": 6, "C": 4}
    ),
    "bounded_survival_prob": (
        lambda n, C: bounded_survival_prob(LF, n, C), {"n": 6, "C": 4}
    ),
    "mrca_distance_cdf": (
        lambda n, C, distance: mrca_distance_cdf(LF, n, C, [0, distance, 6]),
        {"n": 6, "C": 4, "distance": 2},
    ),
    "run_conditioned_batch": (
        _batch,
        {"n": 6, "C": 4, "query": 5, "target_accepted": 5, "max_replicates": 512,
         "seed": 3, "workers": 1, "chunk_size": 256},
    ),
}
# how a refusal names each argument
MESSAGE_NAME = {
    "C": "bound C",
    "query": "query generation",
    "order": "derivative order J",
    "tails": "tail count J",
    "j": "reduced count j",
}
CASES = [
    pytest.param(entry, arg, id=f"{entry}-{arg}")
    for entry, (_, ints) in ENTRY_POINTS.items()
    for arg in ints
]


def _bits(result):
    """An image of a result that tells 5 from 5.0 and any two float
    bit patterns apart."""
    if dataclasses.is_dataclass(result):
        return tuple(
            (f.name, _bits(getattr(result, f.name))) for f in dataclasses.fields(result)
        )
    if isinstance(result, (list, tuple)):
        return tuple(_bits(v) for v in result)
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    return type(result), repr(result)


def _no_work(*args, **kwargs):
    raise AssertionError("a pass or draw started before the arguments were checked")


@pytest.mark.parametrize("entry, arg", CASES)
def test_whole_number_rule(entry, arg, monkeypatch):
    call, ints = ENTRY_POINTS[entry]
    want = _bits(call(**ints))
    value = ints[arg]
    for whole in (float(value), np.int64(value)):
        assert _bits(call(**dict(ints, **{arg: whole}))) == want, whole

    monkeypatch.setattr(series, "compose_step", _no_work)
    monkeypatch.setattr(series, "pgf_value", _no_work)
    monkeypatch.setattr(simulate, "_simulate_chunk", _no_work)
    name = MESSAGE_NAME.get(arg, arg)
    for bad in (value + 0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            call(**dict(ints, **{arg: bad}))


def test_rule_bounds_and_message():
    assert errors.whole_number("k", 3.0, 1, 3) == 3
    assert type(errors.whole_number("k", np.int64(0))) is int
    for bad, span in ((4, r"in \[1, 3\], got 4"), (0, r"in \[1, 3\], got 0"),
                      ("2", r"in \[1, 3\], got 2"), (None, r"in \[1, 3\], got None")):
        with pytest.raises(ValueError, match=f"^k must be a whole number {span}"):
            errors.whole_number("k", bad, 1, 3)
    with pytest.raises(ValueError, match="^k must be a whole number at least 0, got -1$"):
        errors.whole_number("k", -1)


def test_sweep_refuses_a_bad_n_when_called():
    # the check may not wait for the first value: np.fromiter with a
    # count of 0 never asks for one
    with pytest.raises(ValueError, match="^n must be a whole number at least 0, got -1$"):
        np.fromiter(iter_extinction_probs(LF, -1), float, 0)
    with pytest.raises(ValueError, match="^n must be a whole number at least 0, got 2.5$"):
        iter_extinction_probs(LF, 2.5)
