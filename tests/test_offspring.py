import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwreduced import (
    DegenerateVarianceError,
    Family,
    NonCriticalError,
    law_from_name,
    make_builtin,
    make_custom,
    pgf_derivatives,
    pgf_value,
    sample_offspring,
)
from gwreduced.series import iter_extinction_probs, pmf_Zn

TOL = 1e-12
# uniforms on which a search over 1 - 2^-k and an exponent read could part
EDGE_UNIFORMS = [0.0, 0.5, 0.5 - 2.0**-53, 0.75, 1.0 - 2.0**-53]


class FixedUniforms:
    """A generator stub whose ``random(size)`` returns given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, size):
        assert size == len(self.uniforms)
        return self.uniforms.copy()


class TestBuiltins:
    def test_linear_fractional_pmf_and_variance(self):
        law = make_builtin(Family.LINEAR_FRACTIONAL)
        pmf = pmf_Zn(law, 1, 10).coeffs
        assert pmf[0] == pytest.approx(0.5, abs=TOL)
        assert pmf[1] == pytest.approx(0.25, abs=TOL)
        assert pmf[5] == pytest.approx(2.0**-6, abs=TOL)
        assert law.half_variance == 1.0
        assert law.support_pmf is None

    def test_poisson_pmf_and_variance(self):
        law = make_builtin("poisson")
        pmf = pmf_Zn(law, 1, 6).coeffs
        for k in range(7):
            assert pmf[k] == pytest.approx(math.exp(-1) / math.factorial(k), abs=TOL)
        assert law.half_variance == 0.5

    def test_ternary_uniform(self):
        law = make_builtin(Family.TERNARY_UNIFORM)
        assert np.allclose(law.support_pmf, [0.25, 0.5, 0.25])
        assert law.half_variance == 0.25
        assert len(law.support_pmf) == 3

    def test_builtins_reject_parameters(self):
        # a custom law needs its pmf, which only make_custom takes
        with pytest.raises(ValueError, match="make_custom"):
            make_builtin(Family.CUSTOM_FINITE)


class TestCustom:
    def test_ternary_via_custom_matches_builtin(self):
        law = make_custom([0.25, 0.5, 0.25])
        assert law.half_variance == pytest.approx(0.25, abs=TOL)

    def test_periodic_law_accepted(self):
        # mass on {0, 2} only: critical, positive variance, but periodic
        law = make_custom([0.5, 0.0, 0.5])
        assert law.half_variance == pytest.approx(0.5, abs=TOL)

    def test_noncritical_rejected(self):
        with pytest.raises(NonCriticalError):
            make_custom([0.3, 0.5, 0.2])

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            make_custom([0.0, 1.0])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            make_custom([0.5, -0.1, 0.6])

    def test_pmf_shape_rejected(self):
        for pmf in ([[0.5, 0.5], [0.5, 0.5]], [1.0]):
            with pytest.raises(ValueError, match="1-d sequence"):
                make_custom(pmf)

    def test_mass_drift_beyond_tolerance_rejected(self):
        with pytest.raises(ValueError):
            make_custom([0.25, 0.5, 0.2])

    def test_tiny_mass_drift_renormalized(self):
        law = make_custom([0.25 + 2e-13, 0.5, 0.25])
        assert float(law.support_pmf.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_trailing_zeros_trimmed(self):
        law = make_custom([0.25, 0.5, 0.25, 0.0, 0.0])
        assert len(law.support_pmf) == 3


class TestNameParsing:
    @pytest.mark.parametrize(
        "name,family",
        [
            ("linear_fractional", Family.LINEAR_FRACTIONAL),
            ("poisson", Family.POISSON),
            ("ternary_uniform", Family.TERNARY_UNIFORM),
        ],
    )
    def test_builtin_names(self, name, family):
        assert law_from_name(name).family is family

    def test_custom_name(self):
        law = law_from_name("custom:0.25,0.5,0.25")
        assert law.family is Family.CUSTOM_FINITE
        assert len(law.support_pmf) == 3

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            law_from_name("binary_splitting")


class TestPgf:
    def test_linear_fractional_value(self):
        law = make_builtin(Family.LINEAR_FRACTIONAL)
        assert pgf_value(law, 0.0) == pytest.approx(0.5, abs=TOL)
        assert pgf_value(law, 1.0) == pytest.approx(1.0, abs=TOL)
        assert pgf_value(law, 0.5) == pytest.approx(1.0 / 1.5, abs=TOL)

    def test_linear_fractional_derivatives_at_zero(self):
        law = make_builtin(Family.LINEAR_FRACTIONAL)
        vals = pgf_derivatives(law, 0.0, 2)
        assert vals == pytest.approx([0.5, 0.25, 0.25], abs=TOL)

    def test_ternary_derivatives_at_half(self):
        law = make_builtin(Family.TERNARY_UNIFORM)
        vals = pgf_derivatives(law, 0.5, 3)
        # f(s) = (1+s)^2/4: f(1/2) = 9/16, f' = 3/4, f'' = 1/2, f''' = 0
        assert vals == pytest.approx([9 / 16, 3 / 4, 1 / 2, 0.0], abs=TOL)

    def test_poisson_derivatives_constant(self):
        law = make_builtin(Family.POISSON)
        vals = pgf_derivatives(law, 0.3, 5)
        assert np.allclose(vals, math.exp(0.3 - 1.0), atol=TOL)

    def test_poisson_slope_is_pgf_value_bit_for_bit(self):
        # the mrca cdf's chain slopes and the extinction points q_k come
        # from the same e^(q-1), so they must agree to the last bit
        law = make_builtin(Family.POISSON)
        qs = np.concatenate([
            np.linspace(0.0, 0.999, 20_001),
            list(iter_extinction_probs(law, 800)),
        ])
        slopes = pgf_derivatives(law, qs, 1)[1]
        assert slopes.tolist() == [pgf_value(law, q) for q in qs]

    def test_domain_errors(self):
        law = make_builtin(Family.POISSON)
        with pytest.raises(ValueError):
            pgf_value(law, 1.5)
        with pytest.raises(ValueError):
            pgf_derivatives(law, 1.0, 2)
        with pytest.raises(ValueError):
            pgf_derivatives(law, np.array([0.2, 1.0]), 2)
        with pytest.raises(ValueError, match="order"):
            pgf_derivatives(law, 0.5, -1)

    @pytest.mark.parametrize("family, slope, curvature", [
        (Family.LINEAR_FRACTIONAL, lambda q: 1 / (2 - q) ** 2, lambda q: 2 / (2 - q) ** 3),
        (Family.POISSON, lambda q: math.exp(q - 1), lambda q: math.exp(q - 1)),
        (Family.TERNARY_UNIFORM, lambda q: (1 + q) / 2, lambda q: 0.5),
    ])
    def test_array_of_points_gives_one_row_per_order(self, family, slope, curvature):
        law = make_builtin(family)
        qs = np.array([0.0, 0.3, 0.75, 0.999])
        vals = pgf_derivatives(law, qs, 2)
        assert vals.shape == (3, len(qs))
        assert vals[0] == pytest.approx([pgf_value(law, q) for q in qs], rel=1e-15)
        assert vals[1] == pytest.approx([slope(q) for q in qs], rel=1e-15)
        assert vals[2] == pytest.approx([curvature(q) for q in qs], rel=1e-15)
        assert pgf_derivatives(law, qs[:0], 2).shape == (3, 0)

    @given(st.floats(min_value=0.0, max_value=0.999), st.integers(min_value=0, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_derivatives_match_finite_differences(self, q, J):
        law = make_builtin(Family.LINEAR_FRACTIONAL)
        vals = pgf_derivatives(law, q, J)
        # derivative sequence is log-recursive for this family
        for j in range(1, J + 1):
            assert vals[j] == pytest.approx(vals[j - 1] * j / (2.0 - q), rel=1e-12)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
        st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_custom_derivatives_match_series_sum(self, raw, q):
        # symmetrize raw weights into a critical pmf: put matching mass at 0
        w = np.asarray(raw)
        mean_w = float(np.dot(np.arange(1, len(w) + 1), w))
        pmf = np.concatenate([[mean_w], w])
        pmf = pmf / pmf.sum()
        k = np.arange(len(pmf), dtype=float)
        drift = float(np.dot(k, pmf)) - 1.0
        if abs(drift) > 1e-10:
            return
        law = make_custom(pmf)
        vals = pgf_derivatives(law, q, 3)
        for j in range(4):
            direct = sum(
                math.perm(kk, j) * law.support_pmf[kk] * q ** (kk - j)
                for kk in range(j, len(law.support_pmf))
            )
            assert vals[j] == pytest.approx(direct, rel=1e-10, abs=1e-12)


class TestSampling:
    @pytest.mark.parametrize("name", ["linear_fractional", "poisson", "ternary_uniform"])
    def test_mean_near_one(self, name):
        law = law_from_name(name)
        rng = np.random.default_rng(7)
        draws = sample_offspring(law, rng, 200_000)
        assert draws.min() >= 0
        # critical mean, sd of sample mean is about sqrt(2B/N)
        sd = math.sqrt(2.0 * law.half_variance / len(draws))
        assert abs(draws.mean() - 1.0) < 5 * sd

    def test_ternary_support(self):
        law = make_builtin(Family.TERNARY_UNIFORM)
        rng = np.random.default_rng(11)
        draws = sample_offspring(law, rng, 10_000)
        assert set(np.unique(draws)) <= {0, 1, 2}

    def test_reproducible(self):
        law = make_builtin(Family.LINEAR_FRACTIONAL)
        a = sample_offspring(law, np.random.default_rng(42), 1000)
        b = sample_offspring(law, np.random.default_rng(42), 1000)
        assert np.array_equal(a, b)

    def test_linear_fractional_matches_numpy_geometric(self):
        law = make_builtin(Family.LINEAR_FRACTIONAL)
        for seed in (0, 1):
            got = sample_offspring(law, np.random.default_rng(seed), 10**6)
            want = np.random.default_rng(seed).geometric(0.5, 10**6) - 1
            assert np.array_equal(got, want)

    def test_linear_fractional_inversion_counts_partial_sums(self):
        # the defining count #{k >= 1 : u > 1 - 2^-k}, whose partial sums
        # are exact in binary; beyond k = 53 they round to 1
        law = make_builtin(Family.LINEAR_FRACTIONAL)
        rng = np.random.default_rng(3)
        uniforms = EDGE_UNIFORMS + list(rng.random(1000))
        want = [sum(u > 1.0 - 2.0**-k for k in range(1, 60)) for u in uniforms]
        got = sample_offspring(law, FixedUniforms(uniforms), len(uniforms))
        assert list(got) == want
        assert list(got[:5]) == [0, 0, 0, 1, 52]

    @pytest.mark.parametrize("pmf", [
        [0.25, 0.5, 0.25],
        [0.35, 0.35, 0.25, 0.05],
        [0.741, 0.221] + [0.001] * 38,
    ], ids=["ternary", "custom4", "custom40"])
    def test_finite_draws_count_cut_points(self, pmf):
        # the comparison count equals min(searchsorted(cut, u, right), len - 1)
        # on every cut point and its predecessor
        law = make_custom(pmf)
        cut = np.cumsum(law.support_pmf)
        rng = np.random.default_rng(5)
        uniforms = np.concatenate([
            cut, np.nextafter(cut, 0.0),
            EDGE_UNIFORMS, rng.random(2000),
        ])
        want = np.minimum(np.searchsorted(cut, uniforms, "right"), len(cut) - 1)
        draws = sample_offspring(law, FixedUniforms(uniforms), len(uniforms))
        assert np.array_equal(draws, want)
        assert draws.dtype == np.int64
