import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute_force
import lf_oracle
from gwreduced import (
    ConditioningImpossibleError,
    SeriesBudgetError,
    make_builtin,
    make_custom,
    pgf_derivatives,
    reduced,
    series,
)
from gwreduced.output import write_output
from gwreduced.reduced import (
    ReducedLawTable,
    bounded_survival_prob,
    conditional_reduced_pmf,
    joint_reduced_bounded,
    mrca_distance_cdf,
    reduced_pmf,
)
from gwreduced.series import extinction_prob, pmf_Zn

ORACLE_TOL = 1e-12

LF = make_builtin("linear_fractional")
POIS = make_builtin("poisson")
TERNARY = make_builtin("ternary_uniform")
TPMF = brute_force.TERNARY
# no single-child mass: f'(0) = 0, so every f_u'(0) is 0 as well
NO_SINGLE_PMF = (Fraction(1, 2), Fraction(0), Fraction(1, 2))
NO_SINGLE = make_custom([float(p) for p in NO_SINGLE_PMF])


def _poisson_rows_by_cauchy_integral(m, n, J, nodes):
    """P(Z(m,n)=j) for j = 1..J as coefficients of f_m(q + (1-q)s).

    Trapezoid rule on the unit circle, with the pgf iterated in 40-digit
    complex arithmetic.  Aliasing adds the coefficients j + nodes,
    j + 2*nodes, ... to coefficient j.
    """
    with mpmath.workdps(40):
        q = mpmath.mpf(0)
        for _ in range(n - m):
            q = mpmath.exp(q - 1)
        roots = [mpmath.expjpi(mpmath.mpf(2 * k) / nodes) for k in range(nodes)]
        # real coefficients: the lower half circle is the conjugate image
        values = []
        for root in roots[: nodes // 2 + 1]:
            x = q + (1 - q) * root
            for _ in range(m):
                x = mpmath.exp(x - 1)
            values.append(x)
        values += [mpmath.conj(v) for v in values[-2:0:-1]]
        return np.array([
            float(mpmath.re(mpmath.fsum(
                v * roots[-j * k % nodes] for k, v in enumerate(values)
            )) / nodes)
            for j in range(1, J + 1)
        ])


class TestReducedPmf:
    def test_single_ancestor(self):
        table = reduced_pmf(LF, 0, 12)
        assert table.prob(1) == pytest.approx(1 - 12 / 13, abs=ORACLE_TOL)
        assert table.prob(2) == 0.0

    def test_terminal_time_is_population(self):
        table = reduced_pmf(LF, 5, 5)
        expected = lf_oracle.pmf(5, table.j_max)[1:]
        assert np.max(np.abs(table.pmf - expected)) < ORACLE_TOL

    def test_lf_single_line_closed_form(self):
        # P(count at 2 of 4 = 1) = (1 - q_2) f_2'(q_2) = 3/25
        table = reduced_pmf(LF, 2, 4)
        want = (1 - lf_oracle.extinction(2)) * lf_oracle.derivative_at_extinction(2, 1, 2)
        assert want == pytest.approx(3 / 25, abs=ORACLE_TOL)
        assert table.prob(1) == pytest.approx(want, abs=ORACLE_TOL)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ternary_matches_enumeration(self, n):
        # every row up to 2^n, the most lines there can be, and the
        # rows the free table keeps
        for m in range(n + 1):
            q = extinction_prob(TERNARY, n - m)
            rows = reduced._reduced_rows(TERNARY, m, q, 2**n)
            table = reduced_pmf(TERNARY, m, n)
            for j in range(1, 2**n + 1):
                want = float(brute_force.reduced_pmf(TPMF, m, n, j))
                assert rows[j - 1] == pytest.approx(want, abs=ORACLE_TOL)
                if j <= table.j_max:
                    assert table.prob(j) == pytest.approx(want, abs=ORACLE_TOL)

    @pytest.mark.parametrize("law,m,n", [(LF, 3, 6), (TERNARY, 4, 8)])
    def test_mass_matches_survival(self, law, m, n):
        table = reduced_pmf(law, m, n, epsilon=1e-9)
        survival = 1.0 - extinction_prob(law, n)
        assert abs(table.mass_accounted - survival) < 1e-8

    def test_bad_generations(self):
        with pytest.raises(ValueError):
            reduced_pmf(LF, 5, 4)
        for m in (5, 6):
            with pytest.raises(ValueError, match=r"m must be a whole number in \[0, 4\]"):
                joint_reduced_bounded(LF, m, 5, 3)

    def test_bound_and_count_below_one_are_refused(self):
        with pytest.raises(ValueError, match="bound"):
            joint_reduced_bounded(LF, 3, 6, 0)
        with pytest.raises(
            ValueError, match="reduced count j must be a whole number at least 1, got 0"
        ):
            reduced_pmf(LF, 3, 6).prob(0)

    def test_positional_order_is_refused_as_epsilon(self):
        # a row count passed positionally lands on epsilon and must be
        # refused, never read as one
        with pytest.raises(ValueError, match="epsilon"):
            reduced_pmf(LF, 3, 6, 8)
        with pytest.raises(ValueError, match="epsilon"):
            conditional_reduced_pmf(LF, 3, 6, 4, 1)

    @pytest.mark.parametrize("m,n", [(3, 6), (40, 50), (300, 310)])
    def test_lf_rows_order_64_closed_form(self, m, n):
        rows = reduced._reduced_rows(LF, m, extinction_prob(LF, n - m), 64)
        want = lf_oracle.reduced_pmf(m, n, 64)
        assert len(rows) == 64
        assert np.max(np.abs(rows - want)) < ORACLE_TOL
        assert np.max(np.abs(rows - want) / want) < 1e-11

    @pytest.mark.parametrize(
        "m,n,j", [(3, 6, 5), (40, 50, 30), (300, 310, 64), (7911, 8000, 81),
                  (7911, 8000, 89)],
    )
    def test_lf_oracle_rows_match_exact_rationals(self, m, n, j):
        # the oracle's geometric form against (1-q)^j m^(j-1)/(m+1-mq)^(j+1)
        # in exact rationals, at rows where those powers overflow a float
        q = Fraction(n - m, n - m + 1)
        want = (1 - q) ** j * Fraction(m) ** (j - 1) / (m + 1 - m * q) ** (j + 1)
        got = lf_oracle.reduced_pmf(m, n, j)[-1]
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_poisson_rows_match_high_precision_cauchy_integral(self):
        # rows fall by about 1/3 per degree, so aliasing is below 1e-60
        m, n, J = 10, 30, 30
        want = _poisson_rows_by_cauchy_integral(m, n, J, nodes=128)
        rows = reduced._reduced_rows(POIS, m, extinction_prob(POIS, n - m), J)
        assert np.max(np.abs(rows - want) / want) < 1e-12

    def test_poisson_rows_past_scalar_prefix_match_cauchy_integral(self):
        # J = 150 takes the composition kernel through eight blocks past
        # its first 16 degrees; rows fall by about 0.89 per degree, so
        # aliasing is below 1e-25
        m, n, J = 100, 110, 150
        want = _poisson_rows_by_cauchy_integral(m, n, J, nodes=512)
        rows = reduced._reduced_rows(POIS, m, extinction_prob(POIS, n - m), J)
        assert np.max(np.abs(rows - want) / want) < 1e-12

    def test_terminal_table_meets_epsilon(self):
        # about 850 rows are needed; a fixed order of 20 holds a third
        n = 50
        table = reduced_pmf(LF, n, n)
        survival = 1.0 - lf_oracle.extinction(n)
        assert survival - table.mass_accounted < 1e-9
        want = lf_oracle.pmf(n, table.j_max)[1:]
        assert np.max(np.abs(table.pmf - want)) < ORACLE_TOL

    @pytest.mark.parametrize(
        "m, n", [pytest.param(30, 31, id="30"), pytest.param(50, 50, id="50")]
    )
    def test_budget_error_instead_of_short_table(self, monkeypatch, m, n):
        # the cap admits the sweep of n generations and no more, so the
        # row pass of m steps is refused at an order too small for
        # epsilon: J = 32 at m = 30 and J = 8 at m = 50
        monkeypatch.setattr(series, "DEFAULT_COST_CAP", n * series.STEP_COST)
        with pytest.raises(SeriesBudgetError, match="account for mass"):
            reduced_pmf(LF, m, n)

    def test_extinction_probabilities_are_not_kept(self):
        # q_{n-m} and q_n are read off one pass as it goes; a list of all
        # n + 1 Python floats would take about 6.4 MB at n = 200,000
        tracemalloc.start()
        try:
            reduced_pmf(LF, 5, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestConditionedPositive:
    # reduced._positive_part conditions a population pmf on Z > 0
    def test_ternary_one_generation(self):
        coeffs = reduced._positive_part(pmf_Zn(TERNARY, 1, 4).coeffs)
        assert coeffs[:3] == pytest.approx([0.0, 2 / 3, 1 / 3], abs=ORACLE_TOL)

    def test_lf_two_generations(self):
        coeffs = reduced._positive_part(pmf_Zn(LF, 2, 10).coeffs)
        assert coeffs[1] == pytest.approx(1 / 3, abs=ORACLE_TOL)

    def test_mass_accounting(self):
        # given Z(6) > 0 the LF population is geometric with ratio 6/7,
        # so K = 50 coefficients hold all but (6/7)**50 of the mass
        coeffs = reduced._positive_part(pmf_Zn(LF, 6, 50).coeffs)
        assert coeffs.sum() == pytest.approx(1.0 - (6 / 7) ** 50, abs=1e-12)


class TestBoundedSurvival:
    def test_empty_event(self):
        assert bounded_survival_prob(LF, 5, 0) == 0.0

    @pytest.mark.parametrize("n,C", [(3, 1), (5, 4), (10, 10)])
    def test_lf_geometric_closed_form(self, n, C):
        got = bounded_survival_prob(LF, n, C)
        ratio = n / (n + 1.0)
        want = (1 - ratio**C) / (n + 1.0)
        assert got == pytest.approx(want, abs=ORACLE_TOL)

    def test_ternary_matches_enumeration(self):
        for C in (1, 2, 5):
            want = float(brute_force.event_prob(TPMF, 4, C))
            assert bounded_survival_prob(TERNARY, 4, C) == pytest.approx(
                want, abs=ORACLE_TOL
            )

    def test_monotone_in_bound(self):
        vals = [bounded_survival_prob(TERNARY, 12, C) for C in range(1, 15)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_scale_matches_small_event_asymptotics(self):
        # P(0 < Z(n) <= C) with C about sqrt(n) behaves like C/(B n^2)
        n = 1000
        C = int(math.isqrt(n))
        got = bounded_survival_prob(LF, n, C)
        assert 0.9 < got / (C / n**2) < 1.1


class TestJointBounded:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ternary_matches_enumeration(self, n):
        for m in range(n):
            for C in (1, 2, 4):
                table = joint_reduced_bounded(TERNARY, m, n, C)
                for j in range(1, 2**n + 1):
                    want = float(brute_force.joint_bounded(TPMF, m, n, j, C))
                    assert table.prob(j) == pytest.approx(want, abs=ORACLE_TOL)

    def test_vacuous_bound_recovers_unconditional(self):
        wide = joint_reduced_bounded(LF, 3, 6, C=400)
        plain = reduced_pmf(LF, 3, 6)
        k = min(wide.j_max, plain.j_max)
        assert np.allclose(wide.pmf[:k], plain.pmf[:k], atol=1e-10)
        assert wide.mass_accounted == pytest.approx(plain.mass_accounted, abs=1e-9)

    def test_bound_one_forces_single_survivors(self):
        # with terminal size capped at 1 only a single reduced line can
        # occur, and its subtree must hold exactly one survivor
        m, n, C = 2, 5, 1
        r = n - m
        table = joint_reduced_bounded(LF, m, n, C)
        plain = reduced_pmf(LF, m, n)
        single = lf_oracle.pmf(r, 1)[1] / (1 - lf_oracle.extinction(r))
        assert table.prob(1) == pytest.approx(plain.prob(1) * single, abs=ORACLE_TOL)
        assert table.j_max == 1

    @pytest.mark.parametrize(
        "law,m,n,C", [(LF, 4, 8, 5), (TERNARY, 3, 6, 3), (LF, 0, 9, 4)]
    )
    def test_rows_sum_to_event_probability(self, law, m, n, C):
        table = joint_reduced_bounded(law, m, n, C)
        want = bounded_survival_prob(law, n, C)
        assert abs(table.mass_accounted - want) < 1e-8


def _route(build, *args, monkeypatch):
    """The output of one call, the (steps, degree) of each pass it asks
    of iterates and the degree of each composition step it makes."""
    passes, degrees = [], []
    step, run = series.compose_step, series.iterates

    def spied_step(law, g):
        degrees.append(len(g) - 1)
        return step(law, g)

    def spied_iterates(*args, **kwargs):
        passes.append(args[1:3])
        return run(*args, **kwargs)

    monkeypatch.setattr(series, "compose_step", spied_step)
    monkeypatch.setattr(reduced, "iterates", spied_iterates)
    out = build(*args)
    monkeypatch.undo()
    return out, passes, degrees


class TestConditionalTable:
    def test_normalization(self):
        table = conditional_reduced_pmf(TERNARY, 5, 10, C=3)
        assert table.mass_accounted == pytest.approx(1.0, abs=1e-8)

    def test_rows_are_joint_over_event(self):
        joint = joint_reduced_bounded(LF, 3, 7, C=4)
        cond = conditional_reduced_pmf(LF, 3, 7, C=4)
        event = bounded_survival_prob(LF, 7, 4)
        assert np.allclose(cond.pmf, joint.pmf / event, atol=1e-12)
        assert np.array_equal(cond.pmf, joint.pmf / joint.event_prob)

    def test_lf_late_generation_meets_epsilon(self):
        # about 27 rows are needed, more than a fixed order of 20 gives
        m, n, C = 90, 100, 100
        table = conditional_reduced_pmf(LF, m, n, C)
        assert 1.0 - table.mass_accounted < 1e-9
        want = lf_oracle.conditional_reduced_pmf(m, n, C)
        assert np.max(np.abs(table.pmf - want[: table.j_max])) < ORACLE_TOL

    def test_impossible_event(self):
        with pytest.raises(ConditioningImpossibleError):
            conditional_reduced_pmf(LF, 2, 5, C=0)

    @pytest.mark.parametrize("law", [LF, POIS, TERNARY, make_custom([0.35, 0.35, 0.25, 0.05])],
                             ids=["lf", "poisson", "ternary", "custom4"])
    @pytest.mark.parametrize("m, n", [(0, 3), (5, 10), (40, 200)])
    def test_bound_one_is_possible_and_leaves_one_line(self, law, m, n):
        # C = 1 is the smallest bound with an event of positive probability:
        # the one survivor's ancestral line is the only line at every m
        table = conditional_reduced_pmf(law, m, n, 1)
        assert table.pmf.tolist() == [1.0]

    @pytest.mark.parametrize("law,m,n,C", [(LF, 3, 7, 4), (TERNARY, 10, 40, 6)])
    def test_event_prob_is_the_bounded_survival_prob(self, law, m, n, C):
        # the row sum against the f_n pass and, for LF, the closed form
        wants = [bounded_survival_prob(law, n, C)]
        if law is LF:
            wants.append(lf_oracle.event_prob(n, C))
        for build in (conditional_reduced_pmf, joint_reduced_bounded):
            got = build(law, m, n, C).event_prob
            for want in wants:
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        assert reduced_pmf(law, m, n).event_prob is None

    @pytest.mark.parametrize("law", [LF, POIS, TERNARY], ids=["lf", "poisson", "ternary"])
    def test_split_table_stops_at_the_cdf_split(self, law, monkeypatch):
        # r0 degree-C steps, r0 that of the cdf at the same (law, n, C),
        # then a row pass of n - m - r0 steps and one of m steps, both at
        # degrees below C
        m, n = 400, 800
        C = _band_bound(law, n)
        _, _, cdf_degrees = _route(
            mrca_distance_cdf, law, n, C, [n // 2], monkeypatch=monkeypatch
        )
        r0 = cdf_degrees.count(C)
        assert r0 < n - m
        for build in (conditional_reduced_pmf, joint_reduced_bounded):
            table, passes, degrees = _route(build, law, m, n, C, monkeypatch=monkeypatch)
            assert degrees.count(C) == r0
            assert passes[0] == (n - m, C)
            (narrow, D), (steps, J) = passes[1:]
            assert narrow == n - m - r0 and D < C
            assert steps == m and table.j_max <= J <= D

    @pytest.mark.parametrize(
        "law,m,n,C",
        [(LF, 50, 60, 20), (POIS, 50, 60, 20), (TERNARY, 50, 60, 20), (LF, 720, 800, 800)],
        ids=["lf", "poisson", "ternary", "lf-band-t0.9"],
    )
    def test_two_short_passes_where_no_split_pays(self, law, m, n, C, monkeypatch):
        # n - m steps at degree C for the subtree sizes and m steps at one
        # degree J for the rows.  At t = 0.9 in the band the cdf splits at
        # r0 = 64, but r0 and the caps of the tries up to it pass n - m = 80
        for build in (conditional_reduced_pmf, joint_reduced_bounded):
            table, passes, degrees = _route(build, law, m, n, C, monkeypatch=monkeypatch)
            assert len(passes) == 2
            assert passes[0] == (n - m, C)
            steps, J = passes[1]
            assert steps == m
            assert table.j_max <= J <= C
            assert degrees == [C] * (n - m) + [J] * m

    @pytest.mark.parametrize(
        "law,m,n,C",
        [(POIS, 150, 200, 60), (LF, 150, 200, 60), (TERNARY, 30, 40, 12),
         (TERNARY, 15, 20, 2)],
    )
    def test_every_row_to_bound_keeps_event_prob(self, law, m, n, C):
        # Rows 1..C rebuilt from the row pass at order C and the j-fold
        # convolutions of the surviving-subtree size pmf: row j is zero
        # past C, so these rows hold the whole event.  The rows past the
        # tail-bound order move the event probability by under 2^-52,
        # and both tables carry that one value.
        r = n - m
        sizes = pmf_Zn(law, r, C).coeffs
        q = float(sizes[0])
        positive = np.concatenate(([0.0], sizes[1:] / (1.0 - q)))
        fits, conv = np.empty(C), np.array([1.0])
        for j in range(C):
            conv = np.convolve(conv, positive)[: C + 1]
            fits[j] = conv.sum()
        full = reduced._reduced_rows(law, m, extinction_prob(law, r), C) * fits
        event = float(full.sum())
        joint = joint_reduced_bounded(law, m, n, C)
        cond = conditional_reduced_pmf(law, m, n, C)
        assert joint.event_prob == cond.event_prob
        assert joint.event_prob == pytest.approx(event, rel=1e-13)
        assert joint.j_max <= C
        k = joint.j_max
        assert np.allclose(joint.pmf, full[:k], rtol=1e-12, atol=1e-300)
        assert full[k:].sum() <= joint.epsilon * event

    def test_parity_law_cannot_end_with_one_survivor(self):
        # under 1/2 + s^2/2 every Z(n) is even, so 0 < Z(n) <= 1 is empty
        n = 6
        for m in range(n):
            with pytest.raises(ConditioningImpossibleError):
                conditional_reduced_pmf(NO_SINGLE, m, n, C=1)
            joint = joint_reduced_bounded(NO_SINGLE, m, n, C=1)
            assert joint.event_prob == 0.0
            assert not np.any(joint.pmf)
        with pytest.raises(ConditioningImpossibleError):
            mrca_distance_cdf(NO_SINGLE, n, 1, np.arange(n + 1))

    @pytest.mark.parametrize(
        "m,n,C",
        [(400, 800, 800), (720, 800, 800), (7911, 8000, 89)],
        ids=["band-t0.5", "band-t0.9", "window-8000"],
    )
    def test_lf_band_and_window_match_closed_form(self, m, n, C):
        table = conditional_reduced_pmf(LF, m, n, C)
        assert 1.0 - table.mass_accounted < 1e-9
        want = lf_oracle.conditional_reduced_pmf(m, n, C, table.j_max)
        assert np.max(np.abs(table.pmf - want)) < ORACLE_TOL


class TestMrcaDistance:
    @pytest.mark.parametrize("n,C", [(3, 2), (4, 3), (4, 1)])
    def test_ternary_matches_enumeration(self, n, C):
        grid = np.arange(n + 1)
        got = mrca_distance_cdf(TERNARY, n, C, grid)
        for u, val in zip(grid, got):
            want = float(brute_force.mrca_cdf(TPMF, n, C, int(u)))
            assert val == pytest.approx(want, abs=ORACLE_TOL)

    def test_root_is_always_an_ancestor(self):
        got = mrca_distance_cdf(LF, 9, 4, [9])
        assert got[0] == pytest.approx(1.0, abs=ORACLE_TOL)

    def test_distance_zero_is_lone_survivor(self):
        n, C = 8, 3
        got = mrca_distance_cdf(LF, n, C, [0])
        want = lf_oracle.pmf(n, 1)[1] / bounded_survival_prob(LF, n, C)
        assert got[0] == pytest.approx(want, abs=ORACLE_TOL)

    def test_monotone(self):
        got = mrca_distance_cdf(TERNARY, 12, 3, np.arange(13))
        assert np.all(np.diff(got) >= -1e-12)

    @pytest.mark.parametrize("law", [LF, POIS, TERNARY, NO_SINGLE],
                             ids=["lf", "poisson", "ternary", "no_single"])
    def test_agrees_with_single_line_conditional(self, law):
        # the chain-rule product against a one-row table built by
        # composing f_{n-u}(q_u + (1 - q_u)s)
        n, C = 9, 3
        for u in range(n + 1):
            cdf = mrca_distance_cdf(law, n, C, [u])[0]
            if u == 0:
                want = pmf_Zn(law, n, 1).coeffs[1]
            else:
                want = joint_reduced_bounded(law, n - u, n, C).prob(1)
            want /= bounded_survival_prob(law, n, C)
            assert cdf == pytest.approx(want, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("law", [LF, POIS, TERNARY], ids=["lf", "poisson", "ternary"])
    def test_full_grid_is_one_population_pass(self, law, monkeypatch):
        # one degree-C pass, and at most one row pass at an order below C
        # that takes the horizons from where the first pass stopped
        passes = []

        def counted(*args, **kwargs):
            passes.append(args[1:3])
            return series.iterates(*args, **kwargs)

        monkeypatch.setattr(reduced, "iterates", counted)
        n, C = 60, 20
        cdf = mrca_distance_cdf(law, n, C, range(n + 1))
        assert passes[0] == (n, C)
        assert len(passes) <= 2
        for steps, J in passes[1:]:
            assert steps < n and J < C
        assert cdf[-1] == pytest.approx(1.0, rel=1e-14)

    def test_full_grid_matches_lf_closed_form(self):
        # n + 1 distances in one call: one pass of n steps at degree C
        n, C = 10_000, 100
        cdf = mrca_distance_cdf(LF, n, C, range(n + 1))
        for u in range(0, n + 1, 200):
            assert cdf[u] == pytest.approx(lf_oracle.mrca_cdf(n, C, u), rel=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            mrca_distance_cdf(LF, 5, 2, [6])
        with pytest.raises(ValueError, match="bound"):
            mrca_distance_cdf(LF, 5, 0, [2])


CUSTOM4 = make_custom([0.3, 0.45, 0.2, 0.05])
SPLIT_LAWS = {"lf": LF, "poisson": POIS, "ternary": TERNARY, "custom4": CUSTOM4}


def _full_pass_cdf(law, n, C, grid):
    """The ancestor-distance cdf from every mass of one degree-C pass to n."""
    qs, masses = np.empty(n + 1), np.empty(n + 1)
    for u, coeffs in enumerate(series.iterates(law, n, C)):
        qs[u], masses[u] = coeffs[0], coeffs[1:].sum()
    slopes = pgf_derivatives(law, qs[:-1], 1)[1]
    return reduced._single_line_chain(slopes)[grid] * masses[grid] / masses[n]


def _band_bound(law, n):
    return math.floor(law.half_variance * n)


def _window_bound(law, n):
    return math.floor(law.half_variance * math.sqrt(n))


SPLIT_GEOMETRIES = pytest.mark.parametrize(
    "n,bound",
    [(800, _band_bound), (2000, _band_bound), (1000, _window_bound),
     (4000, _window_bound)],
    ids=["band-800", "band-2000", "window-1000", "window-4000"],
)


class TestMrcaSplitRoute:
    """Past a split generation r0 the masses P(1 <= Z(u) <= C) come from
    one row pass at a small order J instead of the degree-C pass."""

    @staticmethod
    def _work(law, n, C, grid, monkeypatch):
        # the cdf, the degree-C composition steps and the bounded-sum
        # convolutions of one call, and the degrees of the other steps
        steps, drawn = [], []
        step, sums = series.compose_step, reduced._bounded_sum_masses

        def spied_step(law, g):
            steps.append(len(g) - 1)
            return step(law, g)

        def spied_sums(s1):
            drawn.append(0)
            for mass in sums(s1):
                drawn[-1] += 1
                yield mass

        monkeypatch.setattr(series, "compose_step", spied_step)
        monkeypatch.setattr(reduced, "_bounded_sum_masses", spied_sums)
        cdf = mrca_distance_cdf(law, n, C, grid)
        monkeypatch.undo()
        convolutions = sum(max(k - 1, 0) for k in drawn)
        degree_c = steps.count(C)
        return cdf, degree_c, convolutions, [k for k in steps if k != C]

    @pytest.mark.parametrize("law", SPLIT_LAWS.values(), ids=SPLIT_LAWS.keys())
    @SPLIT_GEOMETRIES
    def test_matches_full_pass(self, law, n, bound, monkeypatch):
        C = bound(law, n)
        full = list(range(n + 1))
        sparse = [0, 1, n // 4 - 3, n // 2, 3 * n // 4 + 5, n - 1, n]
        want = _full_pass_cdf(law, n, C, full)
        for grid in (full, sparse):
            cdf, degree_c, convolutions, rows = self._work(law, n, C, grid, monkeypatch)
            assert cdf == pytest.approx(want[grid], rel=1e-13, abs=0.0)
            assert degree_c + convolutions <= n
            # past the split, if any, one row pass at an order below C
            assert len(rows) == n - degree_c
            assert len(set(rows)) <= 1 and all(J < C for J in rows)

    @pytest.mark.parametrize("n", [800, 2000, 4000])
    def test_lf_band_matches_closed_form(self, n):
        # C = n; the error grows like n * 2^-52 through the extinction
        # probabilities, as it does on the full pass
        us = list(range(0, n + 1, n // 40))
        cdf = mrca_distance_cdf(LF, n, n, us)
        want = [lf_oracle.mrca_cdf(n, n, u) for u in us]
        assert cdf == pytest.approx(want, rel=n * 1e-15)

    @pytest.mark.parametrize("law", SPLIT_LAWS.values(), ids=SPLIT_LAWS.keys())
    def test_cdf_at_u_does_not_depend_on_other_distances(self, law):
        n = 800
        C = _band_bound(law, n)
        grid = [0, 5, 63, 64, 65, 200, 401, 799, 800]
        together = mrca_distance_cdf(law, n, C, grid)
        alone = [mrca_distance_cdf(law, n, C, [u])[0] for u in grid]
        assert together.tobytes() == np.array(alone).tobytes()
        assert together.tobytes() == mrca_distance_cdf(law, n, C, range(n + 1))[grid].tobytes()

    @pytest.mark.parametrize(
        "law,n,C,j_reaches_c",
        [(POIS, 60, 20, False), (TERNARY, 500, 8, True), (LF, 1000, 3, True),
         (CUSTOM4, 100, 5, True), (LF, 40, 1, True), (CUSTOM4, 3, 2, False)],
        ids=["poisson-60-20", "ternary-500-8", "lf-1000-3", "custom4-100-5",
             "lf-bound-1", "custom4-short"],
    )
    def test_fallback_is_the_full_pass(self, law, n, C, j_reaches_c, monkeypatch):
        # no split generation gives an order J <= r below C within n
        # steps, so the pass runs to n and the cdf keeps the full pass's
        # bits; where J would reach C, P(S_C <= C) = P(S_1 = 1)^C shows it
        # before any convolution
        grid = list(range(n + 1))
        cdf, degree_c, convolutions, rows = self._work(law, n, C, grid, monkeypatch)
        assert degree_c == n and rows == []
        assert cdf.tobytes() == _full_pass_cdf(law, n, C, grid).tobytes()
        if j_reaches_c:
            assert convolutions == 0

    @pytest.mark.parametrize("law", SPLIT_LAWS.values(), ids=SPLIT_LAWS.keys())
    def test_degree_c_steps_stop_at_the_split(self, law, monkeypatch):
        n = 800
        C = _band_bound(law, n)
        _, degree_c, convolutions, rows = self._work(law, n, C, [200, 400, 600], monkeypatch)
        assert degree_c == 64
        assert len(rows) == n - 64 and 40 <= rows[0] <= 64
        assert degree_c + convolutions <= n


TABLE_LAWS = {**SPLIT_LAWS, "no_single": NO_SINGLE}


def _full_pass_joint_rows(law, m, n, C, epsilon):
    """Joint rows and event probability from the subtree pmf of one
    degree-C pass of n - m steps, convolved at degree C."""
    h = n - m
    for subtree in series.iterates(law, h, C):
        pass
    qs = np.fromiter(series.iter_extinction_probs(law, n), float, n + 1)
    q, survival = qs[h], 1.0 - qs[n]
    p1 = (1.0 - q) * reduced._single_line_chain(pgf_derivatives(law, qs[h:-1], 1)[1])[0]
    sums = reduced._bounded_sum_masses(reduced._positive_part(subtree))
    masses = reduced._tail_order(sums, survival, p1, C)[:-1]
    rows = reduced._reduced_rows(law, m, q, len(masses)) * masses
    event_prob = float(rows.sum())
    return reduced._cut(rows, event_prob, epsilon * event_prob), event_prob


class TestJointSplitRoute:
    """Past the split generation r0 of (law, n, C) the joint rows read the
    subtree sizes as sums of copies of Z(r0) instead of running n - m
    steps at degree C."""

    @pytest.mark.parametrize("law", TABLE_LAWS.values(), ids=TABLE_LAWS.keys())
    @pytest.mark.parametrize("t", [0.5, 0.75, 0.9, 0.97])
    @SPLIT_GEOMETRIES
    def test_matches_full_pass(self, law, n, bound, t, monkeypatch):
        C, m = bound(law, n), round(t * n)
        table, passes, _ = _route(joint_reduced_bounded, law, m, n, C, monkeypatch=monkeypatch)
        rows, event_prob = _full_pass_joint_rows(law, m, n, C, table.epsilon)
        split = len(passes) > 2
        if bound is _band_bound and t <= 0.75:
            assert split
        if split:
            assert table.j_max == len(rows)
            assert table.pmf == pytest.approx(rows, rel=1e-13, abs=0.0)
            assert table.event_prob == pytest.approx(event_prob, rel=1e-13, abs=0.0)
        else:
            assert table.pmf.tobytes() == rows.tobytes()
            assert table.event_prob == event_prob

    @pytest.mark.parametrize("law", TABLE_LAWS.values(), ids=TABLE_LAWS.keys())
    @pytest.mark.parametrize("t", [0.5, 0.75, 0.9, 0.97])
    @SPLIT_GEOMETRIES
    def test_table_order_never_passes_the_split_order(self, law, n, bound, t, monkeypatch):
        # J <= J': by the chain rule the table's p_1 times P(R = 1) is the
        # split bound's p_1 at v = n, and P(S_j <= C) <= M_j; so the first
        # degree 2(J' + 1) of the sums over R always holds row J + 1
        orders, split_sums = [], reduced._split_sum_masses

        def spied(law, r, h, C, qs, fits, *rest):
            masses = split_sums(law, r, h, C, qs, fits, *rest)
            orders.append((len(masses), len(fits) - 1))
            return masses

        monkeypatch.setattr(reduced, "_split_sum_masses", spied)
        joint_reduced_bounded(law, round(t * n), n, bound(law, n))
        if bound is _band_bound and t <= 0.75:
            assert orders
        for J, J_split in orders:
            assert J <= J_split

    @pytest.mark.parametrize(
        "law,degrees",
        [(LF, [4, 8, 16, 32, 64, 128]), (POIS, [4, 8, 16, 32, 64, 128]),
         (TERNARY, [4, 8, 16, 32, 64])],
        ids=["lf", "poisson", "ternary"],
    )
    def test_degree_doubles_to_the_same_masses(self, law, degrees, monkeypatch):
        # no public geometry takes the sums over R past D = 2(J' + 1);
        # handed only M_1, M_2 they start at D = 4 and double until every
        # row keeps its accuracy, and must land on the split's own bits
        n, m = 800, 400
        C, h = _band_bound(law, n), n - m
        qs = np.fromiter(series.iter_extinction_probs(law, n), float, n + 1)
        slopes = pgf_derivatives(law, qs[:-1], 1)[1]
        r, subtree, _, (fits, sums) = reduced._split_pass(law, n, C, qs, slopes, h)
        assert r == 64
        survival = 1.0 - qs[n]
        p1 = (1.0 - qs[h]) * reduced._single_line_chain(slopes)[h]
        own, passes, _ = _route(reduced._split_sum_masses, law, r, h, C, qs, fits,
                                sums, survival, p1, monkeypatch=monkeypatch)
        assert passes == [(h - r, 2 * len(fits))]
        fresh = reduced._bounded_sum_masses(reduced._positive_part(subtree))
        short = [next(fresh), next(fresh)]
        doubled, passes, _ = _route(reduced._split_sum_masses, law, r, h, C, qs, short,
                                    fresh, survival, p1, monkeypatch=monkeypatch)
        assert passes == [(h - r, D) for D in degrees]
        assert doubled.tobytes() == own.tobytes()

    def test_split_table_is_budgeted_by_its_own_steps(self, monkeypatch):
        # n - m = 400 steps at degree C = 800 are over this cap, the 64
        # steps before the split are not; the route and its bits are the
        # same as under the default cap
        want = conditional_reduced_pmf(LF, 400, 800, 800)
        monkeypatch.setattr(series, "DEFAULT_COST_CAP", 1e8)
        got = conditional_reduced_pmf(LF, 400, 800, 800)
        assert got.pmf.tobytes() == want.pmf.tobytes()
        assert got.event_prob == want.event_prob

    def test_cdf_over_the_full_budget_splits(self):
        # n = 5000 steps at degree C = 5000 are over the default cap; the
        # split makes 128
        n = C = 5000
        cdf = mrca_distance_cdf(LF, n, C, [n // 2])
        assert cdf[0] == pytest.approx(lf_oracle.mrca_cdf(n, C, n // 2), rel=n * 1e-15)

    @pytest.mark.parametrize(
        "build, steps", [(lambda: mrca_distance_cdf(LF, 800, 800, [5]), 800),
                         (lambda: joint_reduced_bounded(LF, 400, 800, 800), 400)],
        ids=["cdf", "table"],
    )
    def test_fallback_over_budget_is_refused(self, build, steps, monkeypatch):
        # the least cap that admits the horizon admits 48 steps at degree
        # C = 800, short of the split at r0 = 64: the tries within them
        # fail, so the pass would run to its end and is refused
        monkeypatch.setattr(series, "DEFAULT_COST_CAP", 2 * 800 * (1 + series.STEP_COST))
        run = series.step_allowance(800)
        assert 32 <= run < 64
        with pytest.raises(SeriesBudgetError, match=(
            f"^no split generation qualifies within the {run} of {steps} steps at degree 800"
        )):
            build()

    @pytest.mark.parametrize("m, r", [(610, 64), (611, 189)])
    def test_tries_fit_at_equality(self, m, r, monkeypatch):
        # n - m = 190 holds the try at r0 = 64, its cap of 64 on J and
        # the earlier tries' caps 2 + 4 + ... + 32 exactly; one step
        # fewer, and the pass runs to its end
        splits, split_pass = [], reduced._split_pass

        def spied(*args):
            out = split_pass(*args)
            splits.append(out[0])
            return out

        monkeypatch.setattr(reduced, "_split_pass", spied)
        joint_reduced_bounded(LF, m, 800, 800)
        assert splits == [r]

    def test_two_affordable_steps_make_the_first_try(self, monkeypatch):
        # where the cap admits exactly 2 steps at degree C the try at
        # r = 2 (cap 2 on J) is still made; one multiply-add less and the
        # pass is refused before its first step
        n, C = 40, 800
        qs = np.fromiter(series.iter_extinction_probs(LF, n), float, n + 1)
        slopes = pgf_derivatives(LF, qs[:-1], 1)[1]
        tries, steps, tail_order, step = [], [], reduced._tail_order, series.compose_step

        def spied_tail_order(*args):
            tries.append(args[3])
            return tail_order(*args)

        def spied_step(*args):
            steps.append(1)
            return step(*args)

        monkeypatch.setattr(reduced, "_tail_order", spied_tail_order)
        monkeypatch.setattr(series, "compose_step", spied_step)
        two_steps = 2 * (C * C + series.STEP_COST)
        monkeypatch.setattr(series, "DEFAULT_COST_CAP", two_steps)
        with pytest.raises(SeriesBudgetError, match="within the 2 of 40 steps at degree 800"):
            reduced._split_pass(LF, n, C, qs, slopes, n)
        assert tries == [2] and len(steps) == 2
        tries.clear(), steps.clear()
        monkeypatch.setattr(series, "DEFAULT_COST_CAP", two_steps - 1)
        with pytest.raises(SeriesBudgetError, match="^a pass of 2 steps at degree 800 exceeds"):
            reduced._split_pass(LF, n, C, qs, slopes, n)
        assert tries == [] and steps == []


@pytest.mark.parametrize(
    "law,n,C",
    [(LF, 800, 800), (TERNARY, 4000, 40), (POIS, 60, 20), (CUSTOM4, 3, 2)],
    ids=["lf-band-split", "ternary-window", "poisson-no-split", "custom4-short"],
)
def test_one_slope_evaluation_per_call(law, n, C, monkeypatch):
    # f'(q_0), ..., f'(q_{n-1}) are evaluated once and serve both the
    # split's tries and the chain-rule product
    calls, derivs = [], reduced.pgf_derivatives

    def spied(*args):
        calls.append(args)
        return derivs(*args)

    monkeypatch.setattr(reduced, "pgf_derivatives", spied)
    m = n // 2
    builds = [lambda: mrca_distance_cdf(law, n, C, [0, m, n]),
              lambda: joint_reduced_bounded(law, m, n, C),
              lambda: conditional_reduced_pmf(law, m, n, C)]
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 1


class TestNoSingleChildLaw:
    """The law 1/2 + s^2/2 against exact enumeration; f_u'(0) = 0 here,
    so nothing may divide by a derivative at 0."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_reduced_rows(self, n):
        for m in range(n + 1):
            q = extinction_prob(NO_SINGLE, n - m)
            rows = reduced._reduced_rows(NO_SINGLE, m, q, 2**n)
            table = reduced_pmf(NO_SINGLE, m, n)
            for j in range(1, 2**n + 1):
                want = float(brute_force.reduced_pmf(NO_SINGLE_PMF, m, n, j))
                assert rows[j - 1] == pytest.approx(want, abs=ORACLE_TOL)
                if j <= table.j_max:
                    assert table.prob(j) == pytest.approx(want, abs=ORACLE_TOL)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_joint_and_conditional_rows(self, n):
        for C in (2, 4, 6):
            event = float(brute_force.event_prob(NO_SINGLE_PMF, n, C))
            for m in range(n):
                joint = joint_reduced_bounded(NO_SINGLE, m, n, C)
                cond = conditional_reduced_pmf(NO_SINGLE, m, n, C)
                assert joint.event_prob == pytest.approx(event, abs=ORACLE_TOL)
                for j in range(1, C + 1):
                    want = float(brute_force.joint_bounded(NO_SINGLE_PMF, m, n, j, C))
                    assert joint.prob(j) == pytest.approx(want, abs=ORACLE_TOL)
                    assert cond.prob(j) == pytest.approx(want / event, abs=ORACLE_TOL)

    @pytest.mark.parametrize("n,C", [(2, 2), (4, 2), (5, 4)])
    def test_mrca_cdf(self, n, C):
        got = mrca_distance_cdf(NO_SINGLE, n, C, np.arange(n + 1))
        for u, val in enumerate(got):
            want = float(brute_force.mrca_cdf(NO_SINGLE_PMF, n, C, u))
            assert val == pytest.approx(want, abs=ORACLE_TOL)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, 1.0])
def test_epsilon_outside_unit_interval_is_refused(epsilon):
    # refused before any composition: at m = 0 a zero epsilon would
    # otherwise double the table order without end
    for build in (
        lambda: reduced_pmf(LF, 0, 20, epsilon=epsilon),
        lambda: joint_reduced_bounded(LF, 0, 20, 5, epsilon=epsilon),
        lambda: conditional_reduced_pmf(LF, 10, 20, 5, epsilon=epsilon),
    ):
        with pytest.raises(ValueError, match="epsilon"):
            build()


class TestSerialization:
    def _table(self):
        return conditional_reduced_pmf(TERNARY, 2, 6, C=3)

    def test_json_schema(self, tmp_path):
        table = self._table()
        path = tmp_path / "table.json"
        write_output(table.to_json_dict(), path)
        data = json.loads(path.read_text())
        assert set(data) == {"law", "n", "m", "C", "epsilon", "pmf", "mass_accounted"}
        assert data["law"] == "ternary_uniform"
        assert data["n"] == 6
        assert data["m"] == 2
        assert data["C"] == 3
        assert data["pmf"] == [float(p) for p in table.pmf]

    def test_json_null_bound_for_unconditional(self, tmp_path):
        table = reduced_pmf(LF, 2, 4)
        path = tmp_path / "table.json"
        write_output(table.to_json_dict(), path)
        assert json.loads(path.read_text())["C"] is None

    def test_csv_roundtrip(self, tmp_path):
        table = self._table()
        path = tmp_path / "table.csv"
        write_output(table.csv_rows(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "j,p"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, table.j_max + 1))
        assert np.allclose([float(r[1]) for r in rows], table.pmf, atol=0.0)


@st.composite
def critical_pmfs(draw, max_size=4):
    # weights on 1..k, and the mass at 0 that brings the mean to 1
    weights = draw(
        st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=max_size)
    )
    w = np.asarray(weights)
    zero_mass = float(np.dot(np.arange(len(w)), w))
    pmf = np.concatenate([[zero_mass], w])
    return pmf / pmf.sum()


class TestDecompositionProperty:
    @given(
        critical_pmfs(),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_joint_rows_sum_to_event(self, pmf, n, C):
        # two independent routes to P(0 < Z(n) <= C): subtree
        # decomposition summed over j, and direct series coefficients
        law = make_custom(pmf)
        m = n // 2
        if m == n:
            return
        table = joint_reduced_bounded(law, m, n, C)
        want = bounded_survival_prob(law, n, C)
        assert abs(table.mass_accounted - want) < 1e-8


@given(
    st.one_of(st.sampled_from([LF, POIS, TERNARY]), critical_pmfs(8).map(make_custom)),
    st.integers(min_value=40, max_value=900),
    st.sampled_from(["one", "window", "band"]),
    st.floats(min_value=0.1, max_value=1.0),
)
@settings(max_examples=50, derandomize=True, deadline=None)
def test_routes_agree_through_the_split(law, n, bound, a):
    # laws on 3 to 9 values and the built-ins, at bounds from C = 1 to
    # a band a*B*n, where the tables and the cdf split: the event
    # probability of each joint table against the full degree-C pass,
    # and the cdf at u against row 1 of the table at n - u
    C = max(1, {"one": 1, "window": math.floor(law.half_variance * math.sqrt(n)),
                "band": math.floor(a * law.half_variance * n)}[bound])
    event = bounded_survival_prob(law, n, C)
    us = [1, n // 3, n - n // 3, n]
    for u, cdf in zip(us, mrca_distance_cdf(law, n, C, us)):
        joint = joint_reduced_bounded(law, n - u, n, C)
        assert joint.event_prob == pytest.approx(event, rel=1e-13, abs=0.0)
        assert cdf == pytest.approx(joint.pmf[0] / joint.event_prob, rel=1e-13, abs=0.0)


def _digest(law) -> str:
    """sha256 over the bytes of every exact output for one law: the
    three tables at the order epsilon picks, the event probability, the
    full-grid ancestor-distance cdf and derivative jets."""
    h = hashlib.sha256()

    def feed(x):
        h.update(b"-" if x is None else np.asarray(x, dtype=np.float64).tobytes())

    # passes run to degree 32, so the Poisson step solves its first 16
    # degrees one at a time and at most one block by its inverse; the
    # linear-fractional step solves by doubling at any degree
    for m, n, C in [(0, 8, 3), (3, 10, 5), (20, 40, 12), (60, 100, 30)]:
        for table in (
            reduced_pmf(law, m, n),
            joint_reduced_bounded(law, m, n, C),
            conditional_reduced_pmf(law, m, n, C),
        ):
            feed(table.pmf)
            feed(table.mass_accounted)
            feed(table.event_prob)
        feed(bounded_survival_prob(law, n, C))
        feed(mrca_distance_cdf(law, n, C, range(n + 1)))
        for q in (0.3, extinction_prob(law, n - m)):
            # a jet is its values array, or a record holding it
            jet = series.derivative_jet(law, n, q, 12)
            feed(getattr(jet, "values", jet))
    return h.hexdigest()


@pytest.mark.parametrize(
    "pmf,want",
    [
        ("linear_fractional",
         "daa28f071831d68acc59401b0167854e170c6f635c1ea843b91611ac627d0674"),
        ("poisson",
         "a574a987485b91db0fe3a3779dd9d7ac9c02cf8c4b05f2b47770d60725a8b5b3"),
        ("ternary_uniform",
         "c3744c0280f24ce4f50771d3ea2f2e16ed483bac14eda0972bd284321e1aebf3"),
        ([0.5, 0.0, 0.5],
         "5709c70ef8f9244b75f0c59ebda67b6bc0ac701d676752115eac2057c896b6ea"),
        ([0.3, 0.45, 0.2, 0.05],
         "441ebcdc9099a44ac81ca2fa3e33604cd2b4ec8fff6a347d722f06e9b48eb8ae"),
    ],
    ids=["lf", "poisson", "ternary", "no_single", "custom4"],
)
def test_exact_outputs_are_pinned(pmf, want):
    # bit-for-bit: any change to the arithmetic behind a table, the
    # event probability, the cdf or a jet changes the digest
    law = make_builtin(pmf) if isinstance(pmf, str) else make_custom(pmf)
    assert _digest(law) == want
