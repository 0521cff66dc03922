import ast
import math
import pathlib

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lf_oracle
from gwreduced import (
    SeriesBudgetError,
    make_builtin,
    make_custom,
)
from gwreduced.errors import JetOverflowError
from gwreduced import series
from gwreduced.offspring import pgf_derivatives
from gwreduced.series import (
    compose_step,
    derivative_jet,
    extinction_prob,
    iter_extinction_probs,
    iterates,
    pmf_Zn,
)

TOL = 1e-10

LF = make_builtin("linear_fractional")
POIS = make_builtin("poisson")
TERNARY = make_builtin("ternary_uniform")
CUSTOM = make_custom([0.45, 0.3, 0.1, 0.1, 0.05])


class TestExtinction:
    def test_identity_generation(self):
        assert extinction_prob(LF, 0) == 0.0

    def test_lf_small_values(self):
        assert extinction_prob(LF, 2) == pytest.approx(2 / 3, abs=TOL)
        assert extinction_prob(LF, 10) == pytest.approx(10 / 11, abs=TOL)

    def test_lf_closed_form_to_100(self):
        qs = list(iter_extinction_probs(LF, 100))
        for n, q in enumerate(qs):
            assert q == pytest.approx(lf_oracle.extinction(n), abs=TOL)

    @pytest.mark.parametrize("law", [LF, POIS, TERNARY])
    def test_monotone_to_one(self, law):
        qs = np.array(list(iter_extinction_probs(law, 400)))
        assert np.all(np.diff(qs) >= 0.0)
        assert qs[-1] > 0.95

    @pytest.mark.parametrize("law", [LF, POIS, TERNARY, CUSTOM])
    def test_equals_constant_term_of_population_pass(self, law):
        # the scalar iteration and the composition steps do the same
        # arithmetic on the constant term, so they agree to the last bit
        constants = [float(g[0]) for g in iterates(law, 400, 3)]
        assert list(iter_extinction_probs(law, 400)) == constants

    def test_sweep_is_priced_when_called(self):
        # the sweep costs STEP_COST a generation, so the cap admits 5e6 of
        # them; the refusal comes before the first value is asked for
        with pytest.raises(SeriesBudgetError, match="^a pass of 5000001 steps at degree 0"):
            iter_extinction_probs(LF, 5 * 10**6 + 1)
        assert len(list(iter_extinction_probs(LF, 10**4))) == 10**4 + 1

    def test_survival_times_bn_near_one(self):
        # (1 - q_n) * B * n approaches 1 from below
        for law in (LF, POIS, TERNARY):
            q = extinction_prob(law, 3000)
            scaled = (1.0 - q) * law.half_variance * 3000
            assert 0.95 < scaled <= 1.001


class TestPmfZn:
    def test_generation_zero(self):
        series = pmf_Zn(TERNARY, 0, 5)
        expected = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.allclose(series.coeffs, expected, atol=TOL)

    def test_one_generation_is_offspring_law(self):
        series = pmf_Zn(TERNARY, 1, 2)
        assert np.allclose(series.coeffs, [0.25, 0.5, 0.25], atol=TOL)

    def test_lf_two_generations(self):
        series = pmf_Zn(LF, 2, 3)
        assert series.coeffs == pytest.approx([2 / 3, 1 / 9, 2 / 27, 4 / 81], abs=TOL)

    def test_poisson_one_generation(self):
        series = pmf_Zn(POIS, 1, 8)
        expected = [math.exp(-1) / math.factorial(k) for k in range(9)]
        assert series.coeffs == pytest.approx(expected, abs=TOL)

    @pytest.mark.parametrize("n", [1, 3, 10, 50, 100])
    def test_lf_closed_form_to_degree_200(self, n):
        series = pmf_Zn(LF, n, 200)
        assert np.max(np.abs(series.coeffs - lf_oracle.pmf(n, 200))) < TOL

    @pytest.mark.parametrize("n", [50, 800])
    def test_lf_tail_relative_to_degree_800(self, n):
        # every coefficient, down to 1e-7 of the head at n = 50, against
        # the closed form.  At n = 800 the margin is thin (about 9.97e-13):
        # the error is not the step's own (see
        # test_lf_step_from_exact_input_to_degree_800) but the rounding of
        # q_j = f_j(0), which grows relative to 1 - q_j ~ 1/j; the remedy
        # is to carry 1 - q_j through the steps, not a looser bound
        series = pmf_Zn(LF, n, 800)
        want = lf_oracle.pmf(n, 800)
        assert np.max(np.abs(series.coeffs[1:] - want[1:]) / want[1:]) < 1e-12

    @pytest.mark.parametrize("law", [LF, POIS, TERNARY])
    def test_mass_accounting(self, law):
        series = pmf_Zn(law, 25, 80)
        assert np.all(series.coeffs >= 0.0)
        assert np.all(series.coeffs <= 1.0)
        assert series.coeffs.sum() <= 1.0 + TOL

    def test_mass_nondecreasing_in_degree(self):
        sums = [pmf_Zn(POIS, 12, K).coeffs.sum() for K in (8, 16, 32, 64)]
        assert all(a <= b + TOL for a, b in zip(sums, sums[1:]))

    def test_budget_guard(self):
        # n*K^2 = 1e13 is over the cap; refused before any array is made
        with pytest.raises(SeriesBudgetError):
            pmf_Zn(LF, 10, 10**6)

    def test_narrow_long_pass_is_refused_at_once(self, monkeypatch):
        # 1e10 steps at K = 3 are 9e10 multiply-adds, under the cap, but
        # at 4-6 us a step they would run for about half a day
        steps = []
        monkeypatch.setattr(series, "compose_step", lambda *args: steps.append(args))
        with pytest.raises(SeriesBudgetError, match="10000000000 steps at degree 3 exceeds"):
            pmf_Zn(TERNARY, 10**10, 3)
        assert steps == []

    def test_budget_cap_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(series, "DEFAULT_COST_CAP", 1e4)
        with pytest.raises(SeriesBudgetError, match="exceeds cap"):
            pmf_Zn(LF, 10, 100)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            pmf_Zn(LF, -1, 10)
        with pytest.raises(ValueError, match="n must be a whole number at least 0"):
            next(iter_extinction_probs(LF, -1))
        with pytest.raises(ValueError):
            pmf_Zn(LF, 3, 0)


def _step_centered_generic(law, g):
    # reference implementation of the centered composition step; cost
    # O(K^3), kept for cross-checking the family recurrences
    K = len(g) - 1
    derivs = pgf_derivatives(law, g[0], K)
    ghat = g.copy()
    ghat[0] = 0.0
    h = np.zeros(K + 1)
    h[0] = derivs[K] / math.factorial(K)
    for j in range(K - 1, -1, -1):
        h = np.convolve(h, ghat)[: K + 1]
        h[0] += derivs[j] / math.factorial(j)
    return h


def _poisson_step_mp(g: np.ndarray) -> np.ndarray:
    # e^(g-1) in 40 digits from the same float input: h_0 = e^(g_0 - 1)
    # and k h_k = sum_{i=1..k} i g_i h_{k-i}
    with mpmath.workdps(40):
        w = [i * mpmath.mpf(float(x)) for i, x in enumerate(g)]
        h = [mpmath.exp(mpmath.mpf(float(g[0])) - 1)]
        for k in range(1, len(g)):
            h.append(mpmath.fdot(w[k:0:-1], h) / k)
        return np.array([float(x) for x in h])


def test_one_composition_loop_and_one_budget_check():
    # every exact quantity reads off series.iterates, so a second loop
    # over compose_step, or a second budget rule, fails here: the budget
    # prices each pass, the extinction sweep and the horizon question
    # that a table and the comparison config ask first, and no other
    # module reads its cap or its per-step cost
    calls = {"compose_step": [], "check_budget": [], "check_horizon": []}
    readers = set()
    for path in sorted(pathlib.Path(series.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if getattr(node, "id", getattr(node, "attr", None)) in {
                "DEFAULT_COST_CAP", "STEP_COST"
            }:
                readers.add(path.name)
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                # a bare name or an attribute such as series.check_budget
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in calls:
                    calls[name].append((path.name, func.name))
    assert calls == {
        "compose_step": [("series.py", "iterates")],
        "check_budget": [("series.py", "iter_extinction_probs"),
                         ("series.py", "check_horizon"), ("series.py", "iterates")],
        "check_horizon": [("harness.py", "__post_init__"), ("reduced.py", "_joint_rows"),
                          ("reduced.py", "mrca_distance_cdf")],
    }
    assert readers == {"series.py"}


# degree 150 takes the Poisson step through eight blocks past its
# first 16 degrees, and the linear-fractional step through eight
# doubling stages
@pytest.mark.parametrize("K", [8, 150])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.3, 1.0), (0.3, 0.7)])
@pytest.mark.parametrize(
    "law", [LF, POIS, TERNARY, make_custom([0.35, 0.35, 0.25, 0.05])]
)
def test_iterates_keep_every_coefficient_nonnegative(law, a, b, K):
    # a pgf with nonnegative coefficients composed with a start with
    # nonnegative coefficients has nonnegative coefficients, and no step
    # subtracts, so not even rounding may take one below zero
    for g in iterates(law, 40, K, a, b):
        assert np.all(g >= 0.0)


class TestComposeStepCrossCheck:
    """Family recurrences against the direct centered-sum evaluation."""

    @pytest.mark.parametrize(
        "law", [LF, POIS, TERNARY, make_custom([0.35, 0.35, 0.25, 0.05])]
    )
    def test_kernel_matches_generic(self, law):
        K = 30
        g = np.zeros(K + 1)
        g[1] = 1.0
        for _ in range(6):
            fast = compose_step(law, g)
            slow = _step_centered_generic(law, g)
            assert np.max(np.abs(fast - slow)) < 1e-13
            g = fast

    # the Poisson step solves degrees 1..16 one at a time and each later
    # block of 16 (17..32, 33..48, ...) by its inverse; these orders land
    # on and just past its seams
    @pytest.mark.parametrize("K", [15, 16, 17, 32, 33, 48, 49, 64, 65, 150])
    @pytest.mark.parametrize("start", [0.0, 0.7])
    def test_blocked_kernel_matches_generic_per_coefficient(self, start, K):
        g = np.zeros(K + 1)
        g[0] = start
        g[1] = 1.0
        for _ in range(4):
            fast = compose_step(POIS, g)
            slow = _step_centered_generic(POIS, g)
            assert np.all(slow > 0.0)
            assert np.max(np.abs(fast - slow) / slow) < 1e-13
            g = fast

    # the linear-fractional step doubles its known degrees 1, 2, 4, ...,
    # so these orders land on, just before, just past and between stage
    # seams; the reference overflows past K of about 170
    @pytest.mark.parametrize(
        "K", [1, 2, 3, 4, 7, 8, 9, 63, 64, 65, 80, 81, 97, 127, 128, 129, 150]
    )
    @pytest.mark.parametrize("start", [0.0, 0.7])
    def test_doubling_kernel_matches_generic_per_coefficient(self, start, K):
        g = np.zeros(K + 1)
        g[0] = start
        g[1] = 1.0
        for _ in range(4):
            fast = compose_step(LF, g)
            slow = _step_centered_generic(LF, g)
            assert np.all(slow > 0.0)
            assert np.max(np.abs(fast - slow) / slow) < 1e-13
            g = fast

    # coefficient k of a step should not depend on the truncation degree
    # K >= k.  The Poisson blocks start at fixed degrees, so it holds
    # there at every degree.  Finite-support steps miss it at the top
    # degree K <= 10: np.convolve takes the full overlap of two arrays
    # of at most 11 entries from an unrolled kernel, not a dot, and its
    # last bit differs.  The linear-fractional step is left out, since
    # its last doubling stage ends at K and its top coefficient moves
    # with K by about 1 ulp.  Every table reads its rows off one pass
    # at one order, so neither miss changes a result
    @pytest.mark.parametrize("K", [8, 16, 17, 31, 32, 33])
    @pytest.mark.parametrize(
        "law", [POIS, TERNARY, make_custom([0.35, 0.35, 0.25, 0.05])]
    )
    def test_truncation_keeps_every_lower_coefficient(self, law, K):
        for g in iterates(law, 20, 150, 0.3, 0.7):
            pass
        full = compose_step(law, g)
        step = compose_step(law, g[: K + 1])
        top = K if law is not POIS and K <= 10 else K + 1
        assert np.array_equal(step[:top], full[:top])

    # the Poisson step solves degrees 1..16 in Python floats, each sum
    # left to right; that order is fixed, so its bits are those of the
    # plain loop below at every K, with no BLAS kernel in between
    @pytest.mark.parametrize("K", [1, 5, 15, 16, 17, 40])
    @pytest.mark.parametrize(
        "q", [0.0, extinction_prob(POIS, 30)], ids=["from_s", "row_pass"]
    )
    def test_poisson_head_sums_left_to_right(self, q, K):
        # the steps from s (q = 0) and from a row-pass start q + (1-q)s
        for g in iterates(POIS, 4, K, q, 1.0 - q):
            w = [i * x for i, x in enumerate(g.tolist())]
            want = [math.exp(float(g[0]) - 1.0)]
            for k in range(1, min(K, series.BLOCK) + 1):
                acc = 0.0
                for i in range(k, 0, -1):
                    acc += w[i] * want[k - i]
                want.append(acc / k)
            got = compose_step(POIS, g)[: len(want)]
            assert got.tolist() == want

    @pytest.mark.parametrize("K", [400, 800])
    def test_poisson_step_to_band_degree(self, K):
        # the generic reference overflows past K of about 170, so one step
        # from f_50(s) is checked against the same recurrence in 40 digits
        for g in iterates(POIS, 50, K):
            pass
        want = _poisson_step_mp(g)
        got = compose_step(POIS, g)
        assert np.max(np.abs(got - want) / want) < 1e-14

    @pytest.mark.parametrize("j", [50, 799])
    def test_lf_step_from_exact_input_to_degree_800(self, j):
        # one step from the closed-form pmf of Z(j), against that of
        # Z(j+1): the step's own error, apart from any drift in q_j
        step = compose_step(LF, lf_oracle.pmf(j, 800))
        want = lf_oracle.pmf(j + 1, 800)
        assert np.max(np.abs(step[1:] - want[1:]) / want[1:]) < 1e-13


class TestJets:
    def test_identity_jet(self):
        jet = derivative_jet(TERNARY, 0, 0.3, 4)
        assert jet == pytest.approx([0.3, 1.0, 0.0, 0.0, 0.0], abs=TOL)

    def test_lf_first_derivative_example(self):
        q2 = 2 / 3
        jet = derivative_jet(LF, 3, q2, 1)
        assert jet[1] == pytest.approx(0.25, abs=TOL)

    def test_lf_second_derivative_matches_pmf(self):
        jet = derivative_jet(LF, 2, 0.0, 2)
        assert jet[2] == pytest.approx(4 / 27, abs=TOL)

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 100])
    @pytest.mark.parametrize("r", [0, 1, 7, 40])
    def test_lf_derivatives_at_extinction_points(self, n, r):
        q = lf_oracle.extinction(r)
        jet = derivative_jet(LF, n, q, 4)
        for k in range(5):
            want = lf_oracle.derivative_at_extinction(n, k, r)
            assert jet[k] == pytest.approx(want, rel=TOL, abs=TOL)

    @pytest.mark.parametrize("law", [LF, POIS, TERNARY])
    def test_jet_series_consistency_at_zero(self, law):
        # f_n^(j)(0) = j! P(Z(n)=j)
        n, J = 6, 8
        jet = derivative_jet(law, n, 0.0, J)
        series = pmf_Zn(law, n, J)
        for j in range(J + 1):
            assert jet[j] == pytest.approx(
                math.factorial(j) * series.coeffs[j], rel=1e-9, abs=TOL
            )

    def test_jet_values_nonnegative_and_value_in_range(self):
        for law in (LF, POIS, TERNARY):
            for n in range(1, 31):
                jet = derivative_jet(law, n, 0.2, 5)
                assert np.all(jet >= 0.0)
                assert 0.2 <= jet[0] < 1.0

    def test_lf_order_40_closed_form(self):
        # no order cap: every derivative up to 40 against the closed form
        for n, q in ((5, 0.3), (40, 0.9), (200, 0.99)):
            jet = derivative_jet(LF, n, q, 40)
            for k in range(41):
                want = lf_oracle.derivative(n, k, q)
                assert jet[k] == pytest.approx(want, rel=1e-10, abs=TOL)

    def test_overflow_is_reported(self):
        # 400! is beyond double range, so the jet cannot be represented
        with pytest.raises(JetOverflowError):
            derivative_jet(LF, 3, 0.1, 400)

    def test_budget_covers_jets(self, monkeypatch):
        # n*J^2 = 4e4 is over the lowered cap
        monkeypatch.setattr(series, "DEFAULT_COST_CAP", 1e4)
        with pytest.raises(SeriesBudgetError, match="exceeds cap"):
            derivative_jet(LF, 100, 0.5, 20)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            derivative_jet(LF, 3, 1.0, 2)
        with pytest.raises(ValueError):
            derivative_jet(LF, 3, 0.5, 0)


class TestAsymptoticTrends:
    def test_derivative_growth_scale_lf(self):
        # f_n^(k) at the point f_n(0) is about k! x^2 (Bxn)^(k-1)/(x+1)^(k+1)
        # with x = 1; moderate n already sits within ten percent
        n = 500
        q = extinction_prob(LF, n)
        jet = derivative_jet(LF, n, q, 4)
        for k in range(1, 5):
            predicted = math.factorial(k) * n ** (k - 1.0) / 2.0 ** (k + 1)
            assert 0.9 < jet[k] / predicted < 1.1

    def test_short_horizon_derivative_scale(self):
        # jets of f_m at f_phi(0) with m = n - phi, phi = ceil(sqrt(n)):
        # ratio against j! (B phi)^(j+1) / (B n)^2 tightens as n grows
        ratios = []
        for n in (400, 1600, 6400):
            phi = math.isqrt(n)
            q = extinction_prob(LF, phi)
            jet = derivative_jet(LF, n - phi, q, 2)
            predicted = 2.0 * phi**3 / n**2
            ratios.append(jet[2] / predicted)
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
        assert 0.8 < ratios[-1] < 1.2


@st.composite
def critical_pmfs(draw):
    weights = draw(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=5)
    )
    w = np.asarray(weights)
    # zero-class mass chosen so total mass equals total mean, hence the
    # normalized law is critical up to rounding
    zero_mass = float(np.dot(np.arange(len(w)), w))
    pmf = np.concatenate([[zero_mass], w])
    return pmf / pmf.sum()


class TestPropertyChecks:
    @given(critical_pmfs(), st.integers(min_value=0, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_series_is_probability_vector(self, pmf, n):
        law = make_custom(pmf)
        series = pmf_Zn(law, n, 40)
        assert np.all(series.coeffs >= 0.0)
        assert series.coeffs.sum() <= 1.0 + TOL

    @given(critical_pmfs())
    @settings(max_examples=40, deadline=None)
    def test_extinction_matches_series_constant(self, pmf):
        law = make_custom(pmf)
        n = 9
        series = pmf_Zn(law, n, 16)
        assert series.coeffs[0] == pytest.approx(extinction_prob(law, n), abs=TOL)

    @given(critical_pmfs(), st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_jet_value_matches_iterated_pgf(self, pmf, q):
        law = make_custom(pmf)
        jet = derivative_jet(law, 7, q, 3)
        value = q
        for _ in range(7):
            value = float(np.polynomial.polynomial.polyval(value, law.support_pmf))
        assert jet[0] == pytest.approx(value, abs=TOL)
