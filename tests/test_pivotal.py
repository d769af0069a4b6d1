import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from common_cv import pivotal
from common_cv.errors import DegenerateDenominatorError, DegenerateRateError, ValidationError
from common_cv.model import Alternative, Method, SampleSummary, Study
from common_cv.pivotal import (
    _MAX_DRAWS,
    PivotalDraws,
    _pivot_value_arrays,
    combined_draw,
    confidence_interval,
    generate_draws,
    gpq_interval,
    gpq_test,
    new_method_draw,
    quantile,
    tian_draw,
)
from common_cv.randgen import SeededStream

# 95% quantiles recomputed by tests/oracles/pivot_quantiles.py with plain
# numpy randomness at m = 2e6; package values at m = 2e5 must land nearby
SURVEY_ORACLE = {
    Method.TIAN: (0.033313, 0.042545),
    Method.NEW: (0.033007, 0.042072),
    Method.COMBINED: (0.033174, 0.042287),
}
HOSPITAL_ORACLE = {
    Method.TIAN: (-1.760133, 3.474580),
    Method.NEW: (0.455673, 1.158891),
    Method.COMBINED: (-0.496079, 2.182018),
}


class TestVariancePivot:
    def test_median_against_chi_square_median(self):
        s = SampleSummary(n=5, mean=10.0, sd=2.0)
        u = SeededStream(77).chi_square(4, 10**6)
        draws = 4.0 * s.variance / u
        expected = 4.0 * s.variance / stats.chi2.ppf(0.5, 4)
        assert np.median(draws) == pytest.approx(expected, rel=5e-3)


class TestDrawFormulas:
    def test_tian_single_group_identity(self):
        # u at its df and z = 0 reduce the draw to the observed CV
        g = [SampleSummary(n=8, mean=12.0, sd=3.0)]
        assert tian_draw(g, u=[7.0], z=[0.0]) == pytest.approx(0.25, rel=1e-14)

    def test_tian_two_equal_groups(self):
        gs = [SampleSummary(n=5, mean=2.0, sd=1.0), SampleSummary(n=5, mean=2.0, sd=1.0)]
        assert tian_draw(gs, u=[4.0, 4.0], z=[0.0, 0.0]) == pytest.approx(0.5, rel=1e-14)

    def test_tian_exact_zero_denominator(self):
        # n=4: r*sqrt(u/df) = 3 and z/sqrt(n) = 6/2 cancel exactly
        g = [SampleSummary(n=4, mean=3.0, sd=1.0), SampleSummary(n=4, mean=3.0, sd=1.0)]
        with pytest.raises(DegenerateDenominatorError):
            tian_draw(g, u=[3.0, 3.0], z=[6.0, 0.0])

    def test_new_single_group_hand_value(self):
        g = [SampleSummary(n=5, mean=2.0, sd=1.0)]
        assert new_method_draw(g, u=[4.0], z_common=0.0) == pytest.approx(0.5, rel=1e-14)

    def test_new_single_group_identity(self):
        g = [SampleSummary(n=8, mean=12.0, sd=3.0)]
        assert new_method_draw(g, u=[7.0], z_common=0.0) == pytest.approx(0.25, rel=1e-14)

    def test_new_exact_zero_denominator(self):
        g = [SampleSummary(n=4, mean=3.0, sd=1.0)]
        with pytest.raises(DegenerateDenominatorError):
            new_method_draw(g, u=[3.0], z_common=6.0)

    def test_new_pole_sign_flip(self):
        g = [SampleSummary(n=4, mean=3.0, sd=1.0)]
        below = new_method_draw(g, u=[3.0], z_common=6.0 - 1e-9)
        above = new_method_draw(g, u=[3.0], z_common=6.0 + 1e-9)
        assert below > 1e6
        assert above < -1e6

    def test_combined(self):
        assert combined_draw(0.5, 0.5) == 0.5
        assert combined_draw(0.0, 1.0) == 0.5

    @given(a=st.floats(-1e6, 1e6), b=st.floats(-1e6, 1e6))
    def test_combined_is_midpoint(self, a, b):
        assert combined_draw(a, b) == 0.5 * (a + b)

    def test_combined_observed_value_identity(self):
        g = [SampleSummary(n=8, mean=12.0, sd=3.0)]
        t1 = tian_draw(g, u=[7.0], z=[0.0])
        t2 = new_method_draw(g, u=[7.0], z_common=0.0)
        assert combined_draw(t1, t2) == pytest.approx(0.25, rel=1e-14)


class TestGenerateDraws:
    def test_clean_run_on_surveys(self, surveys):
        draws = generate_draws(surveys, Method.COMBINED, 5000, seed=0)
        assert draws.m == 5000
        assert draws.rejected == 0
        assert np.all(np.isfinite(draws.values))
        assert draws.method is Method.COMBINED
        assert draws.seed == 0

    def test_deterministic(self, surveys):
        a = generate_draws(surveys, Method.TIAN, 1000, seed=9)
        b = generate_draws(surveys, Method.TIAN, 1000, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_methods_differ_on_shared_randomness(self, surveys):
        a = generate_draws(surveys, Method.TIAN, 1000, seed=9)
        b = generate_draws(surveys, Method.NEW, 1000, seed=9)
        c = generate_draws(surveys, Method.COMBINED, 1000, seed=9)
        assert not np.array_equal(a.values, b.values)
        # combined shares the same base layout, so it is the midpoint
        assert np.allclose(c.values, 0.5 * (a.values + b.values))

    def test_seeds_differ(self, surveys):
        a = generate_draws(surveys, Method.NEW, 1000, seed=1)
        b = generate_draws(surveys, Method.NEW, 1000, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_minimum_draws(self, surveys):
        with pytest.raises(ValidationError):
            generate_draws(surveys, Method.NEW, 99, seed=0)
        assert generate_draws(surveys, Method.NEW, 100, seed=0).m == 100

    def test_maximum_draws(self, surveys):
        # checked before anything is allocated
        with pytest.raises(ValidationError, match="draws"):
            generate_draws(surveys, Method.NEW, _MAX_DRAWS + 1, seed=0)

    def test_rejects_non_pivotal_method(self, surveys):
        with pytest.raises(ValidationError):
            generate_draws(surveys, Method.VERRILL_JOHNSON, 1000, seed=0)

    def test_negative_draws_preserved(self, hospital):
        # small mean/sd ratios put real mass below zero; nothing is clamped
        draws = generate_draws(hospital, Method.TIAN, 5000, seed=0)
        assert np.count_nonzero(draws.values < 0.0) > 0

    def test_block_boundary_determinism(self, surveys):
        # draws are generated in blocks of 2^15; a prefix of a longer run
        # is not required to match, but equal m must match exactly
        m = (1 << 15) + 17
        a = generate_draws(surveys, Method.NEW, m, seed=4)
        b = generate_draws(surveys, Method.NEW, m, seed=4)
        assert np.array_equal(a.values, b.values)

    def test_scale_bit_identity_power_of_two(self, hospital):
        scaled = Study(groups=tuple(
            SampleSummary(n=g.n, mean=2.0 * g.mean, sd=2.0 * g.sd, label=g.label)
            for g in hospital
        ))
        a = generate_draws(hospital, Method.COMBINED, 2000, seed=5)
        b = generate_draws(scaled, Method.COMBINED, 2000, seed=5)
        assert np.array_equal(a.values, b.values)

    def test_scale_invariance_general_factor(self, hospital):
        scaled = Study(groups=tuple(
            SampleSummary(n=g.n, mean=3.7 * g.mean, sd=3.7 * g.sd, label=g.label)
            for g in hospital
        ))
        a = generate_draws(hospital, Method.COMBINED, 2000, seed=5)
        b = generate_draws(scaled, Method.COMBINED, 2000, seed=5)
        assert np.allclose(a.values, b.values, rtol=1e-11)


class TestDegenerateHandling:
    @staticmethod
    def _flag_first_rows(fraction, methods=(Method.TIAN, Method.NEW, Method.COMBINED)):
        original = pivotal._pivot_values

        def patched(groups, u, zg):
            pivots = original(groups, u, zg)
            b = len(u)
            if b > 1:  # block pass only; leave resampling attempts clean
                for method in methods:
                    vals, bad = pivots[method]
                    bad = bad.copy()
                    bad[: max(1, int(fraction * b))] = True
                    pivots[method] = vals, bad
            return pivots

        return patched

    def test_resampled_draws_counted(self, surveys, monkeypatch):
        monkeypatch.setattr(pivotal, "_pivot_values", self._flag_first_rows(0.005))
        draws = generate_draws(surveys, Method.NEW, 2000, seed=0)
        assert draws.rejected == 10
        assert np.all(np.isfinite(draws.values))

    def test_rate_error_above_one_percent(self, surveys, monkeypatch):
        monkeypatch.setattr(pivotal, "_pivot_values", self._flag_first_rows(0.02))
        with pytest.raises(DegenerateRateError):
            generate_draws(surveys, Method.NEW, 2000, seed=0)

    def test_unrecoverable_replicate(self, surveys, monkeypatch):
        def always_bad(groups, u, zg):
            vals = np.zeros(len(u))
            return {method: (vals, np.ones(len(u), dtype=bool)) for method in Method}

        monkeypatch.setattr(pivotal, "_pivot_values", always_bad)
        with pytest.raises(DegenerateRateError):
            generate_draws(surveys, Method.NEW, 100, seed=0)

    def test_failure_is_per_method(self, surveys, monkeypatch):
        methods = (Method.TIAN, Method.NEW, Method.COMBINED)
        clean, _ = _pivot_value_arrays(surveys, methods, 2000, seed=0)
        monkeypatch.setattr(pivotal, "_pivot_values", self._flag_first_rows(0.02, (Method.NEW,)))
        values, rejected = _pivot_value_arrays(surveys, methods, 2000, seed=0)
        assert isinstance(values[Method.NEW], DegenerateRateError)
        # the regenerated replicates of the failed method are still counted
        assert rejected == {Method.TIAN: 0, Method.NEW: 40, Method.COMBINED: 0}
        for method in (Method.TIAN, Method.COMBINED):
            assert np.array_equal(values[method], clean[method])


class TestQuantile:
    def test_order_statistic_convention(self):
        values = np.arange(1.0, 101.0)
        assert quantile(values, 0.5) == 50.0
        assert quantile(values, 0.975) == 98.0
        assert quantile(values, 0.025) == 3.0

    def test_exact_product_boundary(self):
        # p*m landing on an integer must not round up to the next rank
        values = np.arange(1.0, 1001.0)
        assert quantile(values, 0.5) == 500.0
        assert quantile(values, 0.025) == 25.0

    def test_accepts_pivotal_draws(self, surveys):
        draws = generate_draws(surveys, Method.NEW, 500, seed=3)
        assert quantile(draws, 0.5) == quantile(draws.values, 0.5)

    def test_unsorted_input_not_mutated(self):
        values = np.array([5.0, 1.0, 4.0, 2.0, 3.0])
        copy = values.copy()
        assert quantile(values, 0.5) == 3.0
        assert np.array_equal(values, copy)

    def test_single_value(self):
        assert quantile(np.array([7.0]), 0.3) == 7.0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValidationError):
            quantile(np.arange(10.0), p)

    @given(p=st.floats(min_value=0.001, max_value=0.999))
    def test_monotone_in_p(self, p):
        values = np.arange(1.0, 201.0)
        assert quantile(values, p * 0.5) <= quantile(values, p)

    def test_extreme_ranks_clamped(self):
        values = np.arange(1.0, 11.0)
        assert quantile(values, 1e-9) == 1.0
        assert quantile(values, 1.0 - 1e-12) == 10.0


class TestGpqInterval:
    @pytest.mark.parametrize("method", [Method.TIAN, Method.NEW, Method.COMBINED])
    def test_surveys_match_oracle(self, surveys, method):
        iv = gpq_interval(surveys, method, 0.95, 200_000, seed=42)
        lo, hi = SURVEY_ORACLE[method]
        assert iv.lower == pytest.approx(lo, abs=1e-4)
        assert iv.upper == pytest.approx(hi, abs=1e-4)

    def test_hospital_new_matches_oracle(self, hospital):
        iv = gpq_interval(hospital, Method.NEW, 0.95, 200_000, seed=42)
        lo, hi = HOSPITAL_ORACLE[Method.NEW]
        assert iv.lower == pytest.approx(lo, abs=5e-3)
        assert iv.upper == pytest.approx(hi, abs=5e-3)

    @pytest.mark.parametrize("method, tol", [(Method.TIAN, 0.3), (Method.COMBINED, 0.15)])
    def test_hospital_heavy_tails_match_oracle(self, hospital, method, tol):
        # quantiles of these pivots sit far out in very thin tails, so the
        # Monte Carlo error at m = 2e5 is orders larger than for the others
        iv = gpq_interval(hospital, method, 0.95, 200_000, seed=42)
        lo, hi = HOSPITAL_ORACLE[method]
        assert iv.lower == pytest.approx(lo, abs=tol)
        assert iv.upper == pytest.approx(hi, abs=tol)

    def test_hospital_new_median_inside_printed_interval(self, hospital):
        draws = generate_draws(hospital, Method.NEW, 200_000, seed=42)
        assert 0.4568 < quantile(draws, 0.5) < 1.1759

    def test_nesting(self, surveys):
        inner = gpq_interval(surveys, Method.COMBINED, 0.95, 5000, seed=11)
        outer = gpq_interval(surveys, Method.COMBINED, 0.99, 5000, seed=11)
        assert outer.lower <= inner.lower <= inner.upper <= outer.upper

    def test_metadata(self, surveys):
        iv = gpq_interval(surveys, Method.NEW, 0.90, 1000, seed=13)
        assert iv.method is Method.NEW
        assert iv.level == 0.90
        assert iv.draws == 1000
        assert iv.seed == 13
        assert iv.length == iv.upper - iv.lower

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.0001])
    def test_rejects_bad_level(self, surveys, level):
        with pytest.raises(ValidationError):
            gpq_interval(surveys, Method.NEW, level, 1000, seed=0)

    def test_endpoint_scale_bit_identity(self, surveys):
        scaled = Study(groups=tuple(
            SampleSummary(n=g.n, mean=0.5 * g.mean, sd=0.5 * g.sd, label=g.label)
            for g in surveys
        ))
        a = gpq_interval(surveys, Method.TIAN, 0.95, 2000, seed=21)
        b = gpq_interval(scaled, Method.TIAN, 0.95, 2000, seed=21)
        assert (a.lower, a.upper) == (b.lower, b.upper)


class TestGpqTest:
    def test_null_below_all_draws(self, surveys):
        res = gpq_test(surveys, Method.NEW, -100.0, Alternative.GREATER, 1000, seed=0)
        assert res.p_value == 0.0

    def test_null_above_all_draws(self, surveys):
        res = gpq_test(surveys, Method.NEW, 100.0, Alternative.GREATER, 1000, seed=0)
        assert res.p_value == 1.0
        res = gpq_test(surveys, Method.NEW, 100.0, Alternative.LESS, 1000, seed=0)
        assert res.p_value == 0.0

    def test_two_sided_at_median(self, surveys):
        m = 2000
        draws = generate_draws(surveys, Method.COMBINED, m, seed=6)
        med = quantile(draws, 0.5)
        res = gpq_test(surveys, Method.COMBINED, med, Alternative.TWO_SIDED, m, seed=6)
        assert res.p_value >= 1.0 - 2.0 / m

    def test_one_sided_p_values_sum_to_one(self, surveys):
        m = 1000
        phi0 = 0.039  # not equal to any draw with probability 1
        greater = gpq_test(surveys, Method.NEW, phi0, Alternative.GREATER, m, seed=8)
        less = gpq_test(surveys, Method.NEW, phi0, Alternative.LESS, m, seed=8)
        assert greater.p_value + less.p_value == pytest.approx(1.0, abs=1.0 / m)

    def test_duality_with_interval(self, surveys):
        """A two-sided test at either endpoint of the same-seed interval
        comes out at alpha, up to the 1-draw granularity."""
        m, level = 4000, 0.95
        iv = gpq_interval(surveys, Method.TIAN, level, m, seed=17)
        for endpoint in (iv.lower, iv.upper):
            res = gpq_test(surveys, Method.TIAN, endpoint, Alternative.TWO_SIDED, m, seed=17)
            assert abs(res.p_value - (1.0 - level)) <= 2.0 / m

    def test_rejects_non_finite_null(self, surveys):
        with pytest.raises(ValidationError):
            gpq_test(surveys, Method.NEW, float("nan"), Alternative.LESS, 1000, seed=0)

    def test_result_metadata(self, surveys):
        res = gpq_test(surveys, Method.TIAN, 0.04, Alternative.LESS, 500, seed=2)
        assert res.method is Method.TIAN
        assert res.phi0 == 0.04
        assert res.alternative is Alternative.LESS
        assert res.draws == 500
        assert res.seed == 2


class TestConfidenceIntervalDispatch:
    def test_pivotal_route(self, surveys):
        direct = gpq_interval(surveys, Method.NEW, 0.95, 1000, seed=3)
        routed = confidence_interval(surveys, Method.NEW, 0.95, 1000, seed=3)
        assert routed == direct

    def test_vj_route_ignores_draws_and_seed(self, surveys):
        from common_cv.estimators import vj_interval

        routed = confidence_interval(surveys, Method.VERRILL_JOHNSON, 0.95, 1000, seed=3)
        assert routed == vj_interval(surveys, 0.95)
        assert routed.draws == 0
        assert routed.seed is None


def test_pivotal_draws_value_object(surveys):
    draws = generate_draws(surveys, Method.NEW, 500, seed=1)
    assert isinstance(draws, PivotalDraws)
    assert draws.m == 500
    assert draws.rejected / (draws.m + draws.rejected) < 0.01
