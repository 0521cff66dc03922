import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from gwreduced.limits import (
    LimitQuery,
    Regime,
    band_pmf_values,
    classical_reduced_gf,
    gamma_reg_lower,
    limit_band_pmf,
    limit_gf_linear_band,
    limit_gf_small_phi,
    limit_mrca_cdf_band,
    limit_mrca_cdf_small_phi,
    limit_reduced_small_pmf,
    small_phi_pmf_values,
    yaglom_cdf,
)

TOL = 1e-10

S_GRID = np.arange(0.1, 1.0, 0.1)
X_GRID = (0.25, 1.0, 4.0)
T_GRID = (0.2, 0.5, 0.8)
A_GRID = (0.5, 1.0, 2.0)


class TestGammaReg:
    @given(
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_scipy(self, j, u):
        assert gamma_reg_lower(j, u) == pytest.approx(
            float(scipy.special.gammainc(j, u)), abs=1e-12
        )

    def test_shape_one_is_exponential_cdf(self):
        assert gamma_reg_lower(1, 0.7) == pytest.approx(1 - math.exp(-0.7), abs=TOL)

    def test_large_argument_saturates(self):
        assert gamma_reg_lower(5, 800.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_reg_lower(0, 1.0)
        with pytest.raises(ValueError):
            gamma_reg_lower(2, -0.1)


class TestSmallWindowRegime:
    def test_gf_at_one(self):
        for x in X_GRID:
            assert limit_gf_small_phi(1.0, x) == 1.0

    def test_gf_at_zero(self):
        for x in X_GRID:
            assert limit_gf_small_phi(0.0, x) == 0.0

    def test_gf_midpoint_value(self):
        assert limit_gf_small_phi(0.5, 1.0) == pytest.approx(
            1 - math.exp(-0.5), abs=TOL
        )

    def test_gf_continuous_at_one(self):
        for x in X_GRID:
            assert limit_gf_small_phi(1 - 1e-9, x) == pytest.approx(1.0, abs=1e-8)

    def test_pmf_sums_to_one(self):
        for x in X_GRID:
            assert small_phi_pmf_values(x).sum() == pytest.approx(1.0, abs=1e-12)

    def test_pmf_lead_value(self):
        assert limit_reduced_small_pmf(1.0, 1) == pytest.approx(
            1 - math.exp(-1), abs=TOL
        )

    def test_wide_window_forces_single_line(self):
        assert limit_reduced_small_pmf(1e9, 1) == pytest.approx(1.0, abs=1e-8)

    def test_mrca_cdf_equals_single_line_probability(self):
        for x in X_GRID:
            assert limit_mrca_cdf_small_phi(x) == pytest.approx(
                limit_reduced_small_pmf(x, 1), abs=TOL
            )

    def test_mrca_cdf_values(self):
        assert limit_mrca_cdf_small_phi(1.0) == pytest.approx(
            0.6321205588285577, abs=TOL
        )
        assert limit_mrca_cdf_small_phi(1e-4) / 1e-4 == pytest.approx(1.0, abs=1e-8)
        assert limit_mrca_cdf_small_phi(1e6) == pytest.approx(1.0, abs=1e-6)

    def test_gf_pmf_duality(self):
        for x in X_GRID:
            pmf = small_phi_pmf_values(x)
            js = np.arange(1, len(pmf) + 1)
            for s in S_GRID:
                direct = limit_gf_small_phi(s, x)
                summed = float(np.dot(s**js, pmf))
                assert abs(direct - summed) < TOL


class TestLinearBandRegime:
    def test_gf_at_one(self):
        for t in T_GRID:
            for a in A_GRID:
                assert limit_gf_linear_band(1.0, t, a) == 1.0

    def test_gf_at_t_zero(self):
        for s in S_GRID:
            assert limit_gf_linear_band(s, 0.0, 1.5) == pytest.approx(s, abs=TOL)

    def test_pmf_sums_to_one(self):
        for t in T_GRID:
            for a in A_GRID:
                assert band_pmf_values(t, a).sum() == pytest.approx(1.0, abs=1e-12)

    def test_pmf_lead_matches_mrca_complement(self):
        for t in T_GRID:
            for a in A_GRID:
                want = (1 - t) * -math.expm1(-a / (1 - t)) / -math.expm1(-a)
                assert limit_band_pmf(t, a, 1) == pytest.approx(want, abs=TOL)

    def test_pmf_at_t_zero(self):
        assert limit_band_pmf(0.0, 2.0, 1) == pytest.approx(1.0, abs=TOL)

    def test_gf_pmf_duality(self):
        for t in T_GRID:
            for a in A_GRID:
                pmf = band_pmf_values(t, a)
                js = np.arange(1, len(pmf) + 1)
                for s in S_GRID:
                    direct = limit_gf_linear_band(s, t, a)
                    summed = float(np.dot(s**js, pmf))
                    assert abs(direct - summed) < TOL

    def test_wide_band_recovers_classical_gf(self):
        for t in T_GRID:
            for s in S_GRID:
                wide = limit_gf_linear_band(s, t, 50.0)
                assert abs(wide - classical_reduced_gf(s, t)) < TOL

    def test_gf_monotone_in_band_width(self):
        for t in T_GRID:
            for s in S_GRID:
                values = [limit_gf_linear_band(s, t, a) for a in (0.5, 1, 2, 5, 20)]
                diffs = np.diff(values)
                assert np.all(diffs <= TOL) or np.all(diffs >= -TOL)

    def test_mrca_cdf_endpoints(self):
        assert limit_mrca_cdf_band(1.0, 2.0) == pytest.approx(1.0, abs=TOL)
        assert limit_mrca_cdf_band(0.5, 1.0) == pytest.approx(
            0.5 * -math.expm1(-2.0) / -math.expm1(-1.0), abs=TOL
        )
        assert limit_mrca_cdf_band(0.5, 1.0) == pytest.approx(0.68393972, abs=1e-7)

    def test_mrca_cdf_wide_band_is_uniform(self):
        for t in (0.2, 0.5, 0.9):
            assert limit_mrca_cdf_band(t, 50.0) == pytest.approx(t, abs=TOL)


class TestBaselines:
    def test_yaglom(self):
        assert yaglom_cdf(0.0) == 0.0
        assert yaglom_cdf(1.0) == pytest.approx(1 - math.exp(-1), abs=TOL)
        with pytest.raises(ValueError):
            yaglom_cdf(-0.5)

    def test_classical_gf(self):
        assert classical_reduced_gf(1.0, 0.7) == 1.0
        assert classical_reduced_gf(0.3, 0.0) == pytest.approx(0.3, abs=TOL)


class TestRanges:
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=80, deadline=None)
    def test_small_window_gf_in_unit_interval(self, s, x):
        value = limit_gf_small_phi(s, x)
        assert -1e-12 <= value <= 1.0 + 1e-12

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=1e-3, max_value=1e2),
    )
    @settings(max_examples=80, deadline=None)
    def test_band_gf_in_unit_interval(self, s, t, a):
        value = limit_gf_linear_band(s, t, a)
        assert -1e-12 <= value <= 1.0 + 1e-12

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_small_window_pmf_nonnegative(self, x, j):
        assert limit_reduced_small_pmf(x, j) >= 0.0


class TestLimitQuery:
    def test_small_window_query(self):
        query = LimitQuery(regime=Regime.SMALL_PHI, x=1.0)
        assert query.gf(0.5) == pytest.approx(limit_gf_small_phi(0.5, 1.0), abs=TOL)
        assert query.pmf(2) == pytest.approx(limit_reduced_small_pmf(1.0, 2), abs=TOL)
        assert query.pmf_values().sum() == pytest.approx(1.0, abs=1e-12)

    def test_band_query(self):
        query = LimitQuery(regime=Regime.LINEAR_BAND, t=0.5, a=1.0)
        assert query.gf(0.5) == pytest.approx(
            limit_gf_linear_band(0.5, 0.5, 1.0), abs=TOL
        )
        assert query.pmf_values().sum() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LimitQuery(regime=Regime.SMALL_PHI)
        with pytest.raises(ValueError):
            LimitQuery(regime=Regime.LINEAR_BAND, t=1.0, a=1.0)
        with pytest.raises(ValueError):
            LimitQuery(regime=Regime.LINEAR_BAND, t=0.5, a=0.0)

    def test_table_serialises_pmf_and_gf(self):
        query = LimitQuery(regime=Regime.LINEAR_BAND, t=0.5, a=1.0)
        table = query.table((0.0, 0.5, 1.0), j_max=3)
        assert table.pmf == [query.pmf(j) for j in (1, 2, 3)]
        payload = table.to_json_dict()
        assert list(payload) == ["regime", "t", "a", "pmf", "gf"]
        assert payload["regime"] == "linear_band"
        assert payload["gf"] == {"0.0": 0.0, "0.5": query.gf(0.5), "1.0": 1.0}
        assert list(table.csv_rows()) == [("j", "p"), *enumerate(table.pmf, start=1)]

    def test_table_default_length_is_pmf_values(self):
        query = LimitQuery(regime=Regime.SMALL_PHI, x=1.0)
        table = query.table(())
        assert table.pmf == [float(p) for p in query.pmf_values()]
        assert table.to_json_dict()["x"] == 1.0
        assert table.gf == {}
