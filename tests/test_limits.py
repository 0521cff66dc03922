import hashlib
import math
import re

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from gwreduced.limits import (
    GF_GRID,
    LimitQuery,
    Regime,
    classical_reduced_gf,
    poisson_tails,
)

TOL = 1e-10

S_GRID = np.arange(0.1, 1.0, 0.1)
X_GRID = (0.25, 1.0, 4.0)
T_GRID = (0.2, 0.5, 0.8)
A_GRID = (0.5, 1.0, 2.0)


def window(x):
    return LimitQuery(Regime.SMALL_PHI, x=x)


def band(t, a):
    return LimitQuery(Regime.LINEAR_BAND, t=t, a=a)


def window_mrca_cdf(u):
    """Limiting ancestor-distance cdf at u window widths, closed form."""
    return u * -math.expm1(-1.0 / u)


def band_mrca_cdf(u, a):
    """Limiting ancestor-distance cdf at a fraction u of n, closed form."""
    return u * math.expm1(-a / u) / math.expm1(-a)


class TestPoissonTails:
    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_scipy(self, j, u):
        assert poisson_tails(u, j)[-1] == pytest.approx(
            float(scipy.special.gammainc(j, u)), abs=1e-12
        )

    def test_shape_one_is_exponential_cdf(self):
        assert poisson_tails(0.7, 1)[0] == pytest.approx(1 - math.exp(-0.7), abs=TOL)

    def test_large_argument_saturates(self):
        assert poisson_tails(800.0, 5)[-1] == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            poisson_tails(1.0, 0)
        with pytest.raises(ValueError):
            poisson_tails(-0.1, 2)
        for u in (math.nan, math.inf):
            with pytest.raises(ValueError, match="Poisson mean"):
                poisson_tails(u, 3)

    @pytest.mark.parametrize("u", [709.0, 746.0, 1000.0, 1e4])
    def test_matches_mpmath_where_exp_minus_u_underflows(self, u):
        # e^-u is subnormal from u ~ 708 and 0 from u ~ 745
        width = math.sqrt(u)
        js = [int(u - 8 * width), int(u) - 1, int(u), int(u) + 1, int(u + 8 * width)]
        tails = poisson_tails(u, max(js))
        assert 0.0 <= tails.min() and tails.max() <= 1.0
        for j in js:
            with mpmath.workdps(30):
                want = float(mpmath.gammainc(j, 0, u, regularized=True))
            assert tails[j - 1] == pytest.approx(want, rel=1e-13), j

    def test_tails_below_the_terms_need_no_terms(self):
        # the mode is 1e300 places away: no term is built
        assert np.array_equal(poisson_tails(1e300, 3), np.ones(3))
        assert np.array_equal(band(0.0, 1e308).pmf_values(), [1.0, 0.0])


class TestSmallWindowRegime:
    def test_gf_at_one(self):
        for x in X_GRID:
            assert window(x).gf(1.0) == 1.0

    def test_gf_at_zero(self):
        for x in X_GRID:
            assert window(x).gf(0.0) == 0.0

    def test_gf_midpoint_value(self):
        assert window(1.0).gf(0.5) == pytest.approx(
            1 - math.exp(-0.5), abs=TOL
        )

    def test_gf_continuous_at_one(self):
        for x in X_GRID:
            assert window(x).gf(1 - 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_pmf_sums_to_one(self):
        for x in X_GRID:
            assert window(x).pmf_values().sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [1e-3, 1e-4])
    def test_narrow_window_pmf_sums_to_one(self, x):
        # the tails' Poisson mean 1/x is past where e^-u underflows
        assert window(x).pmf_values().sum() == pytest.approx(1.0, abs=1e-12)

    def test_pmf_lead_value(self):
        assert window(1.0).pmf(1) == pytest.approx(
            1 - math.exp(-1), abs=TOL
        )

    def test_wide_window_forces_single_line(self):
        assert window(1e9).pmf(1) == pytest.approx(1.0, abs=1e-8)

    def test_mrca_cdf_equals_single_line_probability(self):
        for x in X_GRID:
            assert window_mrca_cdf(x) == pytest.approx(window(x).pmf(1), abs=TOL)
        for x in np.geomspace(1e-4, 1e6, 41):
            assert window(x).pmf(1) == pytest.approx(window_mrca_cdf(x), rel=1e-14)

    def test_mrca_cdf_values(self):
        assert window(1.0).pmf(1) == pytest.approx(0.6321205588285577, abs=TOL)
        assert window(1e-4).pmf(1) / 1e-4 == pytest.approx(1.0, abs=1e-8)
        assert window(1e6).pmf(1) == pytest.approx(1.0, abs=1e-6)

    def test_gf_pmf_duality(self):
        for x in X_GRID:
            pmf = window(x).pmf_values()
            js = np.arange(1, len(pmf) + 1)
            for s in S_GRID:
                direct = window(x).gf(s)
                summed = float(np.dot(s**js, pmf))
                assert abs(direct - summed) < TOL


class TestLinearBandRegime:
    def test_gf_at_one(self):
        for t in T_GRID:
            for a in A_GRID:
                assert band(t, a).gf(1.0) == 1.0

    def test_gf_at_t_zero(self):
        for s in S_GRID:
            assert band(0.0, 1.5).gf(s) == pytest.approx(s, abs=TOL)

    def test_pmf_sums_to_one(self):
        for t in T_GRID:
            for a in A_GRID:
                assert band(t, a).pmf_values().sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [0.999, 0.99999])
    def test_late_band_pmf_sums_to_one(self, t):
        # the tails' Poisson mean a/(1-t) is past where e^-u underflows
        assert band(t, 1.0).pmf_values().sum() == pytest.approx(1.0, abs=1e-12)

    def test_pmf_lead_matches_mrca_complement(self):
        for t in T_GRID:
            for a in A_GRID:
                want = (1 - t) * -math.expm1(-a / (1 - t)) / -math.expm1(-a)
                assert band(t, a).pmf(1) == pytest.approx(want, abs=TOL)

    def test_pmf_at_t_zero(self):
        assert band(0.0, 2.0).pmf(1) == pytest.approx(1.0, abs=TOL)

    def test_gf_pmf_duality(self):
        for t in T_GRID:
            for a in A_GRID:
                pmf = band(t, a).pmf_values()
                js = np.arange(1, len(pmf) + 1)
                for s in S_GRID:
                    direct = band(t, a).gf(s)
                    summed = float(np.dot(s**js, pmf))
                    assert abs(direct - summed) < TOL

    def test_wide_band_recovers_classical_gf(self):
        for t in T_GRID:
            for s in S_GRID:
                wide = band(t, 50.0).gf(s)
                assert abs(wide - classical_reduced_gf(s, t)) < TOL

    def test_gf_monotone_in_band_width(self):
        for t in T_GRID:
            for s in S_GRID:
                values = [band(t, a).gf(s) for a in (0.5, 1, 2, 5, 20)]
                diffs = np.diff(values)
                assert np.all(diffs <= TOL) or np.all(diffs >= -TOL)

    # the ancestor-distance cdf at a fraction u of n is pmf(1) at t = 1 - u

    def test_mrca_cdf_endpoints(self):
        assert band(0.0, 2.0).pmf(1) == pytest.approx(1.0, abs=TOL)
        assert band(0.5, 1.0).pmf(1) == pytest.approx(
            0.5 * -math.expm1(-2.0) / -math.expm1(-1.0), abs=TOL
        )
        assert band(0.5, 1.0).pmf(1) == pytest.approx(0.68393972, abs=1e-7)

    def test_mrca_cdf_wide_band_is_uniform(self):
        for u in (0.2, 0.5, 0.9):
            assert band(1.0 - u, 50.0).pmf(1) == pytest.approx(u, abs=TOL)

    def test_mrca_cdf_equals_single_line_probability(self):
        for t in np.linspace(0.0, 0.999, 37):
            for a in np.geomspace(0.01, 50.0, 9):
                # 1 - t is the look-back the law sees, exactly
                want = band_mrca_cdf(1.0 - t, a)
                assert band(t, a).pmf(1) == pytest.approx(want, rel=1e-14)


class TestBaselines:
    def test_classical_gf(self):
        assert classical_reduced_gf(1.0, 0.7) == 1.0
        assert classical_reduced_gf(0.3, 0.0) == pytest.approx(0.3, abs=TOL)
        with pytest.raises(ValueError, match="time fraction"):
            classical_reduced_gf(0.5, 1.0)


class TestRanges:
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=80, deadline=None)
    def test_small_window_gf_in_unit_interval(self, s, x):
        value = window(x).gf(s)
        assert -1e-12 <= value <= 1.0 + 1e-12

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=1e-3, max_value=1e2),
    )
    @settings(max_examples=80, deadline=None)
    def test_band_gf_in_unit_interval(self, s, t, a):
        value = band(t, a).gf(s)
        assert -1e-12 <= value <= 1.0 + 1e-12

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_small_window_pmf_nonnegative(self, x, j):
        assert window(x).pmf(j) >= 0.0


class TestLimitQuery:
    def test_small_window_query(self):
        query = LimitQuery(regime=Regime.SMALL_PHI, x=1.0)
        assert query.gf(0.5) == pytest.approx(-math.expm1(-0.5), abs=TOL)
        assert query.pmf(2) == pytest.approx(1 - 2 / math.e, abs=TOL)
        assert query.pmf_values().sum() == pytest.approx(1.0, abs=1e-12)

    def test_band_query(self):
        query = LimitQuery(regime=Regime.LINEAR_BAND, t=0.5, a=1.0)
        assert query.gf(0.5) == pytest.approx(
            math.expm1(-1.5) / math.expm1(-1.0) / 3, abs=TOL
        )
        assert query.pmf_values().sum() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LimitQuery(regime=Regime.SMALL_PHI)
        with pytest.raises(ValueError):
            LimitQuery(regime=Regime.LINEAR_BAND, t=1.0, a=1.0)
        with pytest.raises(ValueError):
            LimitQuery(regime=Regime.LINEAR_BAND, t=0.5, a=0.0)

    def test_argument_checks(self):
        query = LimitQuery(regime=Regime.LINEAR_BAND, t=0.5, a=1.0)
        for s in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError, match="gf argument"):
                query.gf(s)
        with pytest.raises(
            ValueError, match="reduced count j must be a whole number at least 1, got 0"
        ):
            query.pmf(0)
        # parameters that would give nan or inf probabilities
        for build, key in (
            (lambda: window(math.inf), "x"),
            (lambda: window(1e-320), "1/x"),
            (lambda: band(0.5, math.inf), "a"),
            (lambda: band(0.5, 1e308), "a/(1-t)"),
            (lambda: band(0.5, 1e-310), "(1-t)/(1-e^-a)"),
        ):
            with pytest.raises(ValueError, match=re.escape(key)):
                build()

    def test_table_serialises_pmf_and_gf(self):
        query = LimitQuery(regime=Regime.LINEAR_BAND, t=0.5, a=1.0)
        table = query.table()
        assert table.pmf == query.pmf_values().tolist()
        assert table.pmf == [query.pmf(j) for j in range(1, len(table.pmf) + 1)]
        payload = table.to_json_dict()
        assert list(payload) == ["regime", "t", "a", "pmf", "gf"]
        assert payload["regime"] == "linear_band"
        assert payload["gf"] == {repr(s): query.gf(s) for s in GF_GRID}
        assert (payload["gf"]["0.0"], payload["gf"]["1.0"]) == (0.0, 1.0)
        assert list(table.csv_rows()) == [("j", "p"), *enumerate(table.pmf, start=1)]

    @pytest.mark.parametrize(
        "text, params, query",
        [
            ("small_phi", {"x": 1.0}, window(1.0)),
            ("linear_band", {"t": 0.5, "a": 1.0}, band(0.5, 1.0)),
            # parameters of the other regime are dropped, whichever is set
            ("small_phi", {"x": 1.0, "t": 0.5, "a": 1.0}, window(1.0)),
            ("linear_band", {"x": 1.0, "t": 0.5, "a": 1.0}, band(0.5, 1.0)),
        ],
        ids=["window", "band", "window-all-set", "band-all-set"],
    )
    def test_regime_text_is_the_regime(self, text, params, query):
        spelled = LimitQuery(text, **params)
        assert spelled == LimitQuery(query.regime, **params)
        assert spelled == query
        assert spelled.regime is query.regime
        assert spelled.pmf_values().tobytes() == query.pmf_values().tobytes()
        assert [spelled.gf(s) for s in GF_GRID] == [query.gf(s) for s in GF_GRID]

    def test_unknown_regime_is_refused(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid Regime"):
            LimitQuery("bogus", x=1.0)

    def test_table_default_length_is_pmf_values(self):
        query = LimitQuery(regime=Regime.SMALL_PHI, x=1.0)
        table = query.table()
        assert table.pmf == [float(p) for p in query.pmf_values()]
        assert table.to_json_dict()["x"] == 1.0


# x from 1e-4 (10^4 rows) to 1e6, and t, a across the band, t = 0 included
PIN_WINDOWS = (1e-4, 3e-3, 0.05, 0.25, 1.0, 2.5, 10.0, 123.0, 1e4, 1e6)
PIN_BANDS = [
    (t, a)
    for t in (0.0, 0.2, 0.5, 0.8, 0.99, 0.999)
    for a in (0.01, 0.5, 1.0, 2.0, 50.0)
]


def test_pmf_outputs_are_pinned():
    # bit-for-bit over both regimes: any change to the arithmetic or the
    # row count behind pmf_values or pmf changes the digest (gf is left
    # out: its floating-point evaluation order may move it by an ulp)
    h = hashlib.sha256()
    queries = [window(x) for x in PIN_WINDOWS] + [band(t, a) for t, a in PIN_BANDS]
    for query in queries:
        h.update(query.pmf_values().tobytes())
        h.update(np.array([query.pmf(j) for j in range(1, 6)]).tobytes())
    assert h.hexdigest() == (
        "b11110b8b898f97047ab61adcec879dcc67774c01921e88f2ae605df594470a1"
    )
