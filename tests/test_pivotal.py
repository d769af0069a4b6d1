import sys
import threading
import time
import traceback
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from common_cv import pivotal
from common_cv.errors import (
    DegenerateDenominatorError,
    DegenerateRateError,
    NumericalError,
    TooFewGroupsError,
    ValidationError,
)
from common_cv.model import Alternative, IntervalResult, Method, SampleSummary, Study, group_arrays
from common_cv.pivotal import (
    _BLOCK,
    _MAX_DRAWS,
    PivotalDraws,
    _pivot_value_arrays,
    combined_draw,
    confidence_interval,
    generate_draws,
    gpq_interval,
    gpq_test,
    gpq_tests,
    intervals,
    new_method_draw,
    quantile,
    tian_draw,
)
from common_cv.randgen import ROLE_PIVOT_BLOCK, ROLE_RESAMPLE, SeededStream
from oracles.pivot_quantiles import pivot_formulas, pivots as oracle_pivots, variates as oracle_variates

# Values float() or a comparison may take, none of them a real number.
NOT_REAL = ("0.95", None, 1j, True)

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


PIVOTAL = (Method.TIAN, Method.NEW, Method.COMBINED)


def _traced_peak(call):
    """Peak bytes tracemalloc sees during call(), after one warm-up call;
    numpy reports its buffers to tracemalloc."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("u, z", [
        ([4.0], [0.0, 0.0]),
        ([4.0, 4.0, 4.0], [0.0, 0.0, 0.0]),
        ([4.0, 4.0], [0.0]),
        ([[4.0, 4.0], [4.0, 4.0]], [0.0, 0.0]),
        (["a", "a"], [0.1, 0.1]),
        ([4.0, 4.0], "x"),
        ([4.0, 4.0], None),
        ([4.0, 4.0], [1j, 0.0]),
        ([np.inf, 4.0], [0.0, 0.0]),
        ([4.0, np.nan], [0.0, 0.0]),
        ([-1.0, 4.0], [0.0, 0.0]),
        ([4.0, 4.0], [np.inf, 0.0]),
    ])
    def test_one_variate_per_group(self, u, z):
        gs = [SampleSummary(n=5, mean=2.0, sd=1.0), SampleSummary(n=5, mean=2.0, sd=1.0)]
        with pytest.raises(ValidationError):
            tian_draw(gs, u=u, z=z)

    def test_shape_message_names_both_shapes(self):
        gs = [SampleSummary(n=5, mean=2.0, sd=1.0), SampleSummary(n=5, mean=2.0, sd=1.0)]
        with pytest.raises(ValidationError, match=r"per group \(2\), got shapes \(2, 2\) and \(2,\)$"):
            tian_draw(gs, u=[[4.0, 4.0], [4.0, 4.0]], z=[0.0, 0.0])

    @pytest.mark.parametrize("z_common", [*NOT_REAL, np.inf, np.nan])
    def test_z_common_must_be_a_finite_real(self, z_common):
        g = [SampleSummary(n=5, mean=2.0, sd=1.0)]
        with pytest.raises(ValidationError, match="z_common"):
            new_method_draw(g, u=[4.0], z_common=z_common)

    def test_large_finite_z_common_does_not_overflow(self, hospital):
        # each z_i is z_common scaled by sqrt(n_i/n) <= 1, so stays finite
        assert str(new_method_draw(hospital, u=[1.0] * 4, z_common=1e308)) == "-0.0"

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

    def test_resampling_stops_at_one_percent(self, surveys, monkeypatch):
        # 40 rows are degenerate, but the 21st regenerated one already
        # makes 1% of all attempts, so no further row is begun
        monkeypatch.setattr(pivotal, "_pivot_values", self._flag_first_rows(0.02))
        values, rejected = _pivot_value_arrays(surveys, (Method.NEW,), 2000, seed=0)
        assert rejected == {Method.NEW: 21}
        assert str(values[Method.NEW]) == "21 degenerate draws out of 2021 attempts; data look pathological"

    def test_unrecoverable_replicate(self, surveys, monkeypatch):
        def always_bad(groups, u, zg):
            vals = np.zeros(len(u))
            return {method: (vals, np.ones(len(u), dtype=bool)) for method in PIVOTAL}

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
        assert rejected == {Method.TIAN: 0, Method.NEW: 21, Method.COMBINED: 0}
        for method in (Method.TIAN, Method.COMBINED):
            assert np.array_equal(values[method], clean[method])


def _broadcast(groups, u, zg):
    """{method: pivots} of (b, k) variates by the oracle's broadcast formulas."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = pivot_formulas(groups.ns, groups.means, groups.sds, u, zg)
    return dict(zip((Method.TIAN, Method.NEW, Method.COMBINED), values))


def _block_variates(seed, i, dfs, b):
    """Block i's (b, k) chi-squares and normals, read by the oracle from
    the generator its sub-stream is documented to seed."""
    stream = SeededStream(seed).substream(ROLE_PIVOT_BLOCK, i)
    return oracle_variates(_generator(stream), dfs, b)


def _generator(stream):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([stream.master_seed, stream.stream_id])))


def _broadcast_blocks(groups, seed, m):
    """{method: m pivots}: each block's (b, k) variates rebuilt whole from
    the documented layout, through the oracle's broadcast formulas."""
    blocks = [
        _broadcast(groups, *_block_variates(seed, i, groups.dfs, min(_BLOCK, m - start)))
        for i, start in enumerate(range(0, m, _BLOCK))
    ]
    return {method: np.concatenate([block[method] for block in blocks]) for method in blocks[0]}


def _wide_study(k):
    rng = np.random.default_rng(k)
    return Study(groups=tuple(
        SampleSummary(n=int(n), mean=float(mean), sd=float(sd))
        for n, mean, sd in zip(rng.integers(2, 40, k), rng.uniform(0.5, 5.0, k), rng.uniform(0.5, 3.0, k))
    ))


class TestEqualDfsDrawnFromOneDf:
    """A block's variates are those of the documented layout, bit for bit,
    whether its dfs are equal, and drawn from their one value as a scalar
    df, or not."""

    @pytest.mark.parametrize("b", [1, 2000, 2**15])
    @pytest.mark.parametrize("dfs, scalar", [
        ([4.0, 4.0, 4.0], True), ([1.0], True), ([29.0] * 10, True), ([4.0, 4.0, 9.0], False),
    ])
    def test_same_variates_as_the_df_array(self, monkeypatch, dfs, scalar, b):
        dfs, drawn_with, chi_square = np.array(dfs), [], SeededStream.chi_square

        def recorded(self, df, size):
            drawn_with.append(df)
            return chi_square(self, df, size)

        monkeypatch.setattr(SeededStream, "chi_square", recorded)
        stream = SeededStream(2**64 - 1).substream(ROLE_PIVOT_BLOCK, 3)
        u, zg = oracle_variates(_generator(stream), dfs, b)
        slices = list(pivotal._variate_slices(stream, dfs, b))
        assert np.concatenate([s[1] for s in slices]).tobytes() == u.tobytes()
        assert np.concatenate([s[2] for s in slices]).tobytes() == zg.tobytes()
        assert [isinstance(df, float) for df in drawn_with] == [scalar]


class TestDrawsPinnedToBroadcastFormulas:
    """The engine's draws equal, bit for bit, the broadcast formulas applied
    to each block's variates rebuilt from the documented layout."""

    ALONE_AND_ALL = [
        (Method.TIAN,), (Method.NEW,), (Method.COMBINED,), (Method.TIAN, Method.NEW, Method.COMBINED)
    ]

    @pytest.mark.parametrize("study_name", ["surveys", "hospital", "toy_study"])
    @pytest.mark.parametrize("m", [2000, _BLOCK, _BLOCK + 17])
    @pytest.mark.parametrize("methods", ALONE_AND_ALL)
    def test_blocks(self, request, study_name, m, methods):
        study = request.getfixturevalue(study_name)
        seed = 2718
        blocks = _broadcast_blocks(group_arrays(study), seed, m)
        values, rejected = _pivot_value_arrays(study, methods, m, seed)
        for method in methods:
            expected = blocks[method]
            assert np.all(np.isfinite(expected)) and rejected[method] == 0
            assert np.array_equal(values[method], expected)

    @pytest.mark.parametrize("k", [8, 9, 17, 130])
    def test_wide_studies(self, k):
        # from 8 columns on, a row-wise sum adds pairwise, not left to right
        study = _wide_study(k)
        groups, methods = group_arrays(study), (Method.TIAN, Method.NEW, Method.COMBINED)
        expected = _broadcast(groups, *_block_variates(k, 0, groups.dfs, 2000))
        values = _pivot_value_arrays(study, methods, 2000, k)[0]
        for method in methods:
            assert np.array_equal(values[method], expected[method])

    @pytest.mark.parametrize("k", [8, 17])
    def test_wide_studies_over_several_passes(self, k):
        # each block is computed in passes of _SLICE rows; a row's pairwise
        # sum does not depend on how many rows share the pass
        study, methods = _wide_study(k), (Method.TIAN, Method.NEW, Method.COMBINED)
        expected = _broadcast_blocks(group_arrays(study), k, _BLOCK + 17)
        values = _pivot_value_arrays(study, methods, _BLOCK + 17, k)[0]
        for method in methods:
            assert np.array_equal(values[method], expected[method])

    def test_single_draw_of_a_wide_study(self):
        # one row of 17 groups: the kernel's formulas from 8 groups on
        study = _wide_study(17)
        groups = group_arrays(study)
        u, zg = oracle_variates(np.random.default_rng(17), groups.dfs, 1)
        expected = pivot_formulas(groups.ns, groups.means, groups.sds, u, zg)[0][0]
        assert tian_draw(study, u[0], zg[0]) == expected

    @pytest.mark.parametrize("study_name", ["surveys", "wide_17"])
    def test_regenerated_replicates(self, request, monkeypatch, study_name):
        """Rows flagged in the block pass are redrawn from their own
        sub-stream; each first attempt is flagged too, so the kept value is
        the second full-layout replicate, after the first one's spare normal."""
        study = _wide_study(17) if study_name == "wide_17" else request.getfixturevalue(study_name)
        original = pivotal._pivot_values
        single_calls = []

        def patched(groups, u, zg):
            drawn = original(groups, u, zg)
            if len(u) > 1:
                flag = np.arange(len(u)) % 700 == 3
            else:
                single_calls.append(1)
                flag = np.full(1, len(single_calls) % 2 == 1)
            return {method: (vals, bad | flag) for method, (vals, bad) in drawn.items()}

        seed, m = 31, 2000
        clean = _pivot_value_arrays(study, (Method.COMBINED,), m, seed)[0][Method.COMBINED]
        monkeypatch.setattr(pivotal, "_pivot_values", patched)
        values, rejected = _pivot_value_arrays(study, (Method.COMBINED,), m, seed)
        rows = np.nonzero(np.arange(m) % 700 == 3)[0]
        assert rejected[Method.COMBINED] == 2 * rows.size
        expected = clean.copy()
        summary = [[g.n for g in study], [g.mean for g in study], [g.sd for g in study]]
        for r in rows:
            rng = _generator(SeededStream(seed).substream(ROLE_RESAMPLE, int(r)))
            oracle_pivots(rng, *summary, 1)  # the flagged first attempt
            expected[r] = oracle_pivots(rng, *summary, 1)[2][0]
        assert np.array_equal(values[Method.COMBINED], expected)
        assert not np.array_equal(values[Method.COMBINED], clean)


class TestBlocksOnThreads:
    """The blocks of one engine call are filled on up to ``_WORKERS``
    threads; values, rejected counts and errors do not depend on how many."""

    M = 3 * _BLOCK + 17  # four blocks, the last one short
    WORKER_COUNTS = (1, 2, 3, 7)
    ALL = (Method.TIAN, Method.NEW, Method.COMBINED)

    @pytest.fixture
    def fast_switching(self):
        # switch threads often, so unsynchronised shared writes would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def _per_worker_count(self, monkeypatch, run):
        results = []
        for workers in self.WORKER_COUNTS:
            monkeypatch.setattr(pivotal, "_WORKERS", workers)
            results.append(run())
        return results

    @pytest.mark.parametrize("study_name", ["surveys", "hospital"])
    @pytest.mark.parametrize("methods", TestDrawsPinnedToBroadcastFormulas.ALONE_AND_ALL)
    def test_values_do_not_depend_on_worker_count(self, request, monkeypatch, fast_switching, study_name, methods):
        study = request.getfixturevalue(study_name)
        runs = self._per_worker_count(monkeypatch, lambda: _pivot_value_arrays(study, methods, self.M, seed=4))
        (values, rejected), others = runs[0], runs[1:]
        for other_values, other_rejected in others:
            assert other_rejected == rejected == {method: 0 for method in methods}
            for method in methods:
                assert np.array_equal(other_values[method], values[method])

    @staticmethod
    def _flag_row_3(study, seed, also_single_rows):
        """Flags row 3 of every multi-row kernel pass outside block 0, whose
        passes it tells apart by their variates, and every single-row
        resampling attempt if ``also_single_rows``."""
        groups, original = group_arrays(study), pivotal._pivot_values
        first_block = _block_variates(seed, 0, groups.dfs, _BLOCK)[0]

        def patched(groups, u, zg):
            drawn = original(groups, u, zg)
            flag = np.zeros(len(u), dtype=bool)
            if len(u) > 1:
                flag[3] = not (first_block == u[0]).all(axis=1).any()
            else:
                flag[0] = also_single_rows
            return {method: (vals, bad | flag) for method, (vals, bad) in drawn.items()}

        return patched

    def test_regenerated_rows_do_not_depend_on_worker_count(self, hospital, monkeypatch, fast_switching):
        clean = _pivot_value_arrays(hospital, self.ALL, self.M, seed=9)[0]
        monkeypatch.setattr(pivotal, "_pivot_values", self._flag_row_3(hospital, 9, also_single_rows=False))
        runs = self._per_worker_count(monkeypatch, lambda: _pivot_value_arrays(hospital, self.ALL, self.M, seed=9))
        rows = np.arange(_BLOCK + 3, self.M, pivotal._SLICE)  # row 3 of each pass in blocks 1 to 3
        for values, rejected in runs:
            assert rejected == {method: rows.size for method in self.ALL}
            for method in self.ALL:
                assert np.array_equal(values[method], runs[0][0][method])
                assert np.array_equal(np.flatnonzero(values[method] != clean[method]), rows)

    def test_first_unrecoverable_replicate_named(self, surveys, monkeypatch):
        # rows are resampled in ascending order whichever thread filled them
        monkeypatch.setattr(pivotal, "_pivot_values", self._flag_row_3(surveys, 9, also_single_rows=True))
        runs = self._per_worker_count(monkeypatch, lambda: _pivot_value_arrays(surveys, self.ALL, self.M, seed=9))
        for values, rejected in runs:
            assert rejected == {method: 1000 for method in self.ALL}
            for method in self.ALL:
                assert isinstance(values[method], DegenerateRateError)
                assert str(values[method]) == f"replicate {_BLOCK + 3} stayed degenerate after 1000 attempts"

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_worker_error_raised_after_every_worker_joined(self, surveys, monkeypatch, workers):
        groups, seed = group_arrays(surveys), 5
        third_block = _block_variates(seed, 2, groups.dfs, _BLOCK)[0]
        third_block = third_block[:pivotal._SLICE]  # its first kernel pass
        original = pivotal._pivot_values

        def fail_third_block(groups, u, zg):
            if u.shape == third_block.shape and np.array_equal(u, third_block):
                raise RuntimeError("third block")
            time.sleep(0.05)  # the other passes are still running when it fails
            return original(groups, u, zg)

        monkeypatch.setattr(pivotal, "_WORKERS", workers)
        monkeypatch.setattr(pivotal, "_pivot_values", fail_third_block)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="third block"):
            _pivot_value_arrays(surveys, self.ALL, self.M, seed)
        assert threading.active_count() == before

    def test_shared_reducers_do_not_depend_on_worker_count(self, hospital, monkeypatch, fast_switching):
        # every thread feeds the same reducer per method: a lost feed would
        # move an interval end or a count
        runs = self._per_worker_count(monkeypatch, lambda: (
            intervals(hospital, self.ALL, 0.9, self.M, seed=6),
            gpq_tests(hospital, self.ALL, 0.8, Alternative.TWO_SIDED, self.M, seed=6),
        ))
        assert all(run == runs[0] for run in runs[1:])

    @pytest.mark.parametrize("m, started", [(2000, 0), (_BLOCK, 0), (_BLOCK + 1, 1), (M, 3)])
    def test_threads_started(self, surveys, monkeypatch, m, started):
        # one block stays on the calling thread; more start one thread per
        # extra worker, capped at the number of blocks
        starts = []
        original_start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread)
            original_start(thread)

        monkeypatch.setattr(pivotal, "_WORKERS", 7)
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        before = threading.active_count()
        _pivot_value_arrays(surveys, self.ALL, m, seed=1)
        assert len(starts) == started
        assert threading.active_count() == before


class TestReducedAsDrawn:
    """intervals keep only each method's tails, and gpq_tests two counts,
    of each kernel pass; the ends and p-values are those of the full draws
    generate_draws returns, for any worker count, with degenerate rows
    regenerated, and with a method asked for twice."""

    LEVELS = (1e-15, 0.01, 0.5, 0.75, 0.9, 0.95, 0.999999)  # at 1e-15 both ends are one rank
    ASKED = (Method.TIAN, Method.NEW, Method.TIAN, Method.COMBINED)
    PHI0 = 0.8

    @pytest.mark.parametrize("degenerate", [False, True], ids=["clean", "degenerate"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("m", [100, 8192, 8193, _BLOCK + 17, 3 * _BLOCK + 17])
    def test_match_the_full_draws(self, hospital, monkeypatch, m, workers, degenerate):
        seed = 23
        if degenerate:  # the first few rows of every multi-row pass
            monkeypatch.setattr(pivotal, "_pivot_values", TestDegenerateHandling._flag_first_rows(0.0005))
        draws = {method: generate_draws(hospital, method, m, seed) for method in PIVOTAL}
        assert all((d.rejected > 0) == degenerate for d in draws.values())
        monkeypatch.setattr(pivotal, "_WORKERS", workers)
        for level in self.LEVELS:
            alpha = 1.0 - level
            ivs = intervals(hospital, self.ASKED, level, m, seed)
            for method, d in draws.items():
                expected = quantile(d.values, alpha / 2.0), quantile(d.values, 1.0 - alpha / 2.0)
                assert (ivs[method].lower, ivs[method].upper) == expected
        tests = {alt: gpq_tests(hospital, self.ASKED, self.PHI0, alt, m, seed) for alt in Alternative}
        for method, d in draws.items():
            p_le = np.count_nonzero(d.values <= self.PHI0) / m
            p_ge = np.count_nonzero(d.values >= self.PHI0) / m
            assert tests[Alternative.GREATER][method].p_value == p_le
            assert tests[Alternative.LESS][method].p_value == p_ge
            assert tests[Alternative.TWO_SIDED][method].p_value == min(1.0, 2.0 * min(p_le, p_ge))

    def test_a_value_just_inside_a_cut_enters(self):
        # the first values fed hold both tails whole, so the cuts are the
        # exact ends; a later value just inside either cut is the new end
        m, lo, hi = 100_000, 4_999, 95_000
        values = np.full(m, 5e5)
        values[:lo + 1] = 2.0 * np.arange(lo + 1)
        values[lo + 1:m - hi + lo + 1] = 1e6 - 2.0 * np.arange(m - hi)
        values[-2:] = 2 * lo - 1, 1e6 - 2 * (m - hi - 1) + 1
        tails = pivotal._Tails(m, lo, hi)
        for first in range(0, m, pivotal._SLICE):
            tails.feed(first, values[first:first + pivotal._SLICE], values[first:first + pivotal._SLICE])
        assert tails.cuts is not None
        ordered = np.sort(values)
        assert tails.result() == (ordered[lo], ordered[hi]) == (values[-2], values[-1])


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

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, *NOT_REAL])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValidationError):
            quantile(np.arange(10.0), p)

    @given(p=st.floats(min_value=0.001, max_value=0.999))
    def test_monotone_in_p(self, p):
        values = np.arange(1.0, 201.0)
        assert quantile(values, p * 0.5) <= quantile(values, p)

    @pytest.mark.parametrize("values", [
        pytest.param([], id="empty"),
        pytest.param(3.0, id="scalar"),
        pytest.param([[1.0, 2.0], [3.0, 4.0]], id="2-D"),
        pytest.param([1.0, np.nan, 2.0], id="nan"),
        pytest.param([1.0, -np.inf], id="inf"),
        pytest.param(["a", "b"], id="str"),
        pytest.param([1 + 2j, 2.0], id="complex"),
    ])
    def test_rejects_bad_draws(self, values):
        with pytest.raises(ValidationError):
            quantile(np.asarray(values), 0.5)

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

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.0001, *NOT_REAL])
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

    @pytest.mark.parametrize("phi0", [float("nan"), *NOT_REAL])
    def test_rejects_non_finite_null(self, surveys, phi0):
        with pytest.raises(ValidationError, match="null value"):
            gpq_test(surveys, Method.NEW, phi0, Alternative.LESS, 1000, seed=0)

    @pytest.mark.parametrize("alternative", list(Alternative))
    def test_alternative_by_value(self, hospital, alternative):
        # a plain string names the same test as its enum member
        by_value = gpq_tests(hospital, PIVOTAL, 0.5, alternative.value, 1000, seed=0)
        assert by_value == gpq_tests(hospital, PIVOTAL, 0.5, alternative, 1000, seed=0)
        assert all(res.alternative is alternative for res in by_value.values())

    @pytest.mark.parametrize("alternative", [None, "two_sided", "GREATER", 1, ["less"]], ids=repr)
    def test_rejects_unknown_alternative(self, surveys, alternative):
        with pytest.raises(ValidationError, match="alternative"):
            gpq_tests(surveys, PIVOTAL, 0.04, alternative, 1000, seed=0)
        with pytest.raises(ValidationError, match="alternative"):
            gpq_test(surveys, Method.NEW, 0.04, alternative, 1000, seed=0)

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


class TestFrontDoor:
    ALL = (Method.TIAN, Method.VERRILL_JOHNSON, Method.NEW, Method.COMBINED)
    PIVOTAL = (Method.TIAN, Method.NEW, Method.COMBINED)

    # At m = 1000 the tian and new draws are rows of one kernel buffer, so
    # selecting one's ends in place must leave the other as it was; at
    # 2^15 + 17 they span two blocks.  The m = 1000 ids keep their names.
    @pytest.mark.parametrize("method, m", [
        *(pytest.param(method, 1000, id=str(method)) for method in ALL),
        *(pytest.param(method, _BLOCK + 17, id=f"{method}-{_BLOCK + 17}") for method in ALL),
    ])
    def test_interval_alone_matches_joint(self, hospital, method, m):
        joint = intervals(hospital, self.ALL, 0.95, m, seed=4)
        assert intervals(hospital, (method,), 0.95, m, seed=4) == {method: joint[method]}
        assert confidence_interval(hospital, method, 0.95, m, seed=4) == joint[method]
        if method is not Method.VERRILL_JOHNSON:
            values = generate_draws(hospital, method, m, seed=4).values
            assert (joint[method].lower, joint[method].upper) == (
                quantile(values, 0.025), quantile(values, 0.975)
            )

    def test_sequence_of_groups_matches_its_study(self, hospital):
        records = [(g.n, g.mean, g.sd) for g in hospital]
        expected = intervals(hospital, self.ALL, 0.95, 1000, seed=4)
        assert intervals(records, self.ALL, 0.95, 1000, seed=4) == expected
        for method in self.ALL:
            assert confidence_interval(records, method, 0.95, 1000, seed=4) == expected[method]

    def test_one_shot_iterator_matches_its_study(self, hospital):
        # intervals reads the groups for the engine and again for vj, and
        # the front doors for their key and again on a miss
        ivs = intervals(hospital, self.ALL, 0.95, 1000, seed=4)
        tests = gpq_tests(hospital, self.PIVOTAL, 0.5, Alternative.TWO_SIDED, 1000, seed=4)
        assert intervals(iter(hospital.groups), self.ALL, 0.95, 1000, seed=4) == ivs
        assert gpq_tests(iter(hospital.groups), self.PIVOTAL, 0.5, Alternative.TWO_SIDED, 1000, seed=4) == tests
        for method in self.ALL:
            pivotal._all_pivotal.cache_clear()
            assert confidence_interval(iter(hospital.groups), method, 0.95, 1000, seed=4) == ivs[method]
        for method in self.PIVOTAL:
            pivotal._all_pivotal.cache_clear()
            assert gpq_test(iter(hospital.groups), method, 0.5, "two-sided", 1000, seed=4) == tests[method]

    def test_one_shot_iterator_of_methods(self, hospital):
        # both read ``methods`` more than once: to pick or check the pivotal
        # methods, and again for the results
        expected = intervals(hospital, self.ALL, 0.95, 1000, seed=4)
        assert intervals(hospital, iter(self.ALL), 0.95, 1000, seed=4) == expected
        expected = gpq_tests(hospital, self.PIVOTAL, 0.5, "less", 1000, seed=4)
        assert gpq_tests(hospital, iter(self.PIVOTAL), 0.5, "less", 1000, seed=4) == expected

    @pytest.mark.parametrize("methods", [Method.TIAN, None, 3])
    def test_methods_not_iterable(self, hospital, methods):
        with pytest.raises(ValidationError, match="methods must be iterable"):
            intervals(hospital, methods, 0.95, 1000, seed=4)
        with pytest.raises(ValidationError, match="methods must be iterable"):
            gpq_tests(hospital, methods, 0.5, "less", 1000, seed=4)

    @pytest.mark.parametrize("call", [
        pytest.param(lambda groups: intervals(groups, (Method.VERRILL_JOHNSON,), 0.95, 1000, 4), id="intervals-vj"),
        pytest.param(lambda groups: intervals(groups, tuple(Method), 0.95, 1000, 4), id="intervals"),
        pytest.param(lambda groups: gpq_tests(groups, PIVOTAL, 0.5, "less", 1000, 4), id="gpq_tests"),
        pytest.param(lambda groups: confidence_interval(groups, Method.TIAN, 0.95, 1000, 4), id="ci-tian"),
        pytest.param(lambda groups: confidence_interval(groups, Method.VERRILL_JOHNSON, 0.95, 1000, 4), id="ci-vj"),
        pytest.param(lambda groups: gpq_interval(groups, Method.NEW, 0.95, 1000, 4), id="gpq_interval"),
        pytest.param(lambda groups: gpq_test(groups, Method.COMBINED, 0.5, "less", 1000, 4), id="gpq_test"),
        pytest.param(lambda groups: generate_draws(groups, Method.TIAN, 1000, 4), id="generate_draws"),
        pytest.param(lambda groups: tian_draw(groups, [], []), id="tian_draw"),
        pytest.param(lambda groups: new_method_draw(groups, [], 0.1), id="new_method_draw"),
    ])
    @pytest.mark.parametrize("empty", [lambda: [], lambda: iter(())], ids=["list", "iterator"])
    def test_no_groups_rejected(self, call, empty):
        with pytest.raises(TooFewGroupsError, match="empty study"):
            call(empty())

    def test_ends_selected_without_a_copy(self, hospital, monkeypatch):
        # one method at m = 10^6 holds at most one block's working set and
        # far less than a copy of its 8 MB of draws
        monkeypatch.setattr(pivotal, "_WORKERS", 1)
        m = 10**6
        assert _traced_peak(lambda: intervals(hospital, (Method.TIAN,), 0.95, m, seed=0)) < 1.5 * 8 * m

    @pytest.mark.parametrize("call", [
        pytest.param(lambda study: intervals(study, (Method.TIAN,), 0.95, 10**6, seed=0), id="intervals-tian"),
        pytest.param(
            lambda study: gpq_tests(study, PIVOTAL, 0.8, Alternative.TWO_SIDED, 10**6, seed=0), id="tests-all"
        ),
    ])
    def test_no_draw_array_held(self, hospital, monkeypatch, call):
        # one method's 10^6 draws alone would take 7.6 MiB: an interval keeps
        # its tails (about 0.1 m values while drawing), a test two counts
        monkeypatch.setattr(pivotal, "_WORKERS", 1)
        assert _traced_peak(lambda: call(hospital)) < 4 * 2**20

    def test_one_tails_buffer_for_all_worker_threads(self, hospital, monkeypatch):
        # two threads each hold a block's working set (about 1.5 MiB), but
        # feed one buffer of tails (0.8 MiB); one buffer per thread took
        # 4.8 MiB in all
        monkeypatch.setattr(pivotal, "_WORKERS", 2)
        assert _traced_peak(lambda: intervals(hospital, (Method.TIAN,), 0.95, 10**6, seed=0)) < 4.25 * 2**20

    def test_three_tails_buffers_for_two_worker_threads(self, hospital, monkeypatch):
        # each of three buffers of tails holds both tails, half as many
        # again and one pass (0.63 MiB); buffers of twice the tails and one
        # pass (0.83 MiB) give a peak of 5.68 MiB
        monkeypatch.setattr(pivotal, "_WORKERS", 2)
        assert _traced_peak(lambda: intervals(hospital, PIVOTAL, 0.95, 10**6, seed=0)) < 5.25 * 2**20

    def test_middle_levels_keep_only_the_tails(self, hospital, monkeypatch):
        # at level 0.75 each method's buffer of tails is under half its 8 MB
        # of draws: three methods keep less than two methods' draws
        monkeypatch.setattr(pivotal, "_WORKERS", 2)
        m = 10**6
        assert _traced_peak(lambda: intervals(hospital, PIVOTAL, 0.75, m, seed=0)) < 2 * 8 * m

    def test_low_levels_select_on_all_draws(self, hospital, monkeypatch):
        # from level 0.5 down the buffer of tails is three quarters of the
        # draws or all of them: at most m values (8 MB) per method, however
        # many threads feed it, and never more (twice the tails would be 16
        # MB per method at level 0.01)
        monkeypatch.setattr(pivotal, "_WORKERS", 2)
        m = 10**6
        for level in (0.5, 0.01):
            assert _traced_peak(lambda: intervals(hospital, PIVOTAL, level, m, seed=0)) < 4 * 8 * m

    @pytest.mark.parametrize("method", PIVOTAL)
    def test_test_alone_matches_joint(self, hospital, method):
        joint = gpq_tests(hospital, self.PIVOTAL, 0.5, Alternative.TWO_SIDED, 1000, seed=4)
        assert gpq_tests(hospital, (method,), 0.5, Alternative.TWO_SIDED, 1000, seed=4) == {
            method: joint[method]
        }
        assert gpq_test(hospital, method, 0.5, Alternative.TWO_SIDED, 1000, seed=4) == joint[method]

    def test_results_follow_the_requested_order(self, surveys):
        order = (Method.COMBINED, Method.VERRILL_JOHNSON, Method.TIAN)
        assert tuple(intervals(surveys, order, 0.95, 500, seed=0)) == order
        assert tuple(gpq_tests(surveys, order[::2], 0.04, Alternative.LESS, 500, seed=0)) == order[::2]

    def test_no_method_requested(self, surveys):
        assert intervals(surveys, [], 0.95, 1000, seed=0) == {}
        assert gpq_tests(surveys, [], 0.04, Alternative.TWO_SIDED, 100000, seed=0) == {}
        with pytest.raises(ValidationError):
            gpq_tests(surveys, [], 0.04, Alternative.TWO_SIDED, 99, seed=0)

    @pytest.mark.parametrize("seed", [2**64, -1, 1.5, True, "3", None])
    def test_seed_must_be_an_integer_in_range(self, surveys, seed):
        # 2**64 used to fold onto seed 0's stream, and 1.5 onto seed 1's
        with pytest.raises(ValidationError, match="seed"):
            intervals(surveys, self.ALL, 0.95, 1000, seed)
        with pytest.raises(ValidationError, match="seed"):
            gpq_tests(surveys, self.PIVOTAL, 0.04, Alternative.LESS, 1000, seed)
        with pytest.raises(ValidationError, match="seed"):
            generate_draws(surveys, Method.NEW, 1000, seed)

    @pytest.mark.parametrize("m", [1000.5, 1000.0, "1000", None])
    def test_draws_must_be_an_integer(self, surveys, m):
        with pytest.raises(ValidationError, match="draws"):
            intervals(surveys, self.ALL, 0.95, m, seed=0)
        with pytest.raises(ValidationError, match="draws"):
            gpq_tests(surveys, self.PIVOTAL, 0.04, Alternative.LESS, m, seed=0)
        with pytest.raises(ValidationError, match="draws"):
            generate_draws(surveys, Method.NEW, m, seed=0)

    def test_integer_arguments_stored_as_int(self, hospital):
        iv = intervals(hospital, (Method.TIAN,), 0.95, np.int64(1000), np.uint64(2**64 - 1))[Method.TIAN]
        assert (type(iv.draws), type(iv.seed)) == (int, int)
        assert iv == intervals(hospital, (Method.TIAN,), 0.95, 1000, 2**64 - 1)[Method.TIAN]
        res = gpq_tests(hospital, (Method.NEW,), 0.8, Alternative.LESS, np.int32(1000), np.int64(3))[Method.NEW]
        assert (type(res.draws), type(res.seed)) == (int, int)
        draws = generate_draws(hospital, Method.NEW, np.int64(1000), np.int64(3))
        assert type(draws.seed) is int and draws.m == 1000

    def test_real_arguments_stored_as_float(self, hospital):
        found = intervals(hospital, (Method.TIAN, Method.VERRILL_JOHNSON), np.float64(0.95), 1000, 0)
        assert all(type(iv.level) is float for iv in found.values())
        assert found == intervals(hospital, (Method.TIAN, Method.VERRILL_JOHNSON), 0.95, 1000, 0)
        res = gpq_tests(hospital, (Method.NEW,), np.float64(0.8), Alternative.LESS, 1000, 3)[Method.NEW]
        assert type(res.phi0) is float

    def test_vj_alone_ignores_draws_and_seed(self, surveys):
        from common_cv.estimators import vj_interval

        assert intervals(surveys, (Method.VERRILL_JOHNSON,), 0.9, 1, seed=-5) == {
            Method.VERRILL_JOHNSON: vj_interval(surveys, 0.9)
        }

    def test_pivotal_results_survive_a_vj_failure(self):
        # sd^2 and mean^2 overflow, so the MLE behind vj has no float to search;
        # group CVs of 1e100 and 1.1e100 give finite q_i above the MLE's bound 2^510
        for groups in [((5, 1e160, 1e159), (7, 2e160, 3e159)), ((5, 1.0, 1e100), (7, 1.0, 1.1e100))]:
            study = Study(groups=groups)
            results = intervals(study, self.ALL, 0.95, 1000, seed=0)
            assert isinstance(results[Method.VERRILL_JOHNSON], NumericalError)
            assert {m: r for m, r in results.items() if m is not Method.VERRILL_JOHNSON} == intervals(
                study, self.PIVOTAL, 0.95, 1000, seed=0
            )

    def test_vj_fails_where_inverse_cvs_sum_to_zero(self):
        study = Study(groups=((2, 1.0, 1.0), (2, -1.0, 1.0)))
        results = intervals(study, self.ALL, 0.95, 1000, seed=0)
        vj = results.pop(Method.VERRILL_JOHNSON)
        assert isinstance(vj, DegenerateDenominatorError)
        assert str(vj) == "weighted inverse CVs sum to zero"
        assert results == intervals(study, self.PIVOTAL, 0.95, 1000, seed=0)
        assert all(isinstance(r, IntervalResult) for r in results.values())

    def test_failed_method_maps_to_its_error(self, surveys, monkeypatch):
        clean = intervals(surveys, self.ALL, 0.95, 2000, seed=0)
        monkeypatch.setattr(
            pivotal, "_pivot_values", TestDegenerateHandling._flag_first_rows(0.02, (Method.NEW,))
        )
        results = intervals(surveys, self.ALL, 0.95, 2000, seed=0)
        assert isinstance(results[Method.NEW], DegenerateRateError)
        assert {m: r for m, r in results.items() if m is not Method.NEW} == {
            m: r for m, r in clean.items() if m is not Method.NEW
        }
        tests = gpq_tests(surveys, self.PIVOTAL, 0.04, Alternative.LESS, 2000, seed=0)
        assert isinstance(tests[Method.NEW], DegenerateRateError)
        with pytest.raises(DegenerateRateError):
            confidence_interval(surveys, Method.NEW, 0.95, 2000, seed=0)
        with pytest.raises(DegenerateRateError):
            gpq_test(surveys, Method.NEW, 0.04, Alternative.LESS, 2000, seed=0)

    @pytest.mark.parametrize("level, m, methods", [
        (1.0, 1000, ALL),  # level
        (0.95, 99, ALL),  # too few draws
        (0.95, _MAX_DRAWS + 1, ALL),  # too many draws
        (0.95, 1000, (Method.TIAN, "tian")),  # not a method
        ("0.95", 1000, ALL),  # not a real number
        (None, 1000, ALL),
        (1j, 1000, ALL),
        (True, 1000, ALL),
    ])
    def test_invalid_arguments_raise(self, surveys, level, m, methods):
        with pytest.raises(ValidationError):
            intervals(surveys, methods, level, m, seed=0)

    def test_tests_reject_vj(self, surveys):
        with pytest.raises(ValidationError):
            gpq_tests(surveys, self.ALL, 0.04, Alternative.LESS, 1000, seed=0)
        with pytest.raises(ValidationError):
            gpq_interval(surveys, Method.VERRILL_JOHNSON, 0.95, 1000, seed=0)

    @pytest.mark.parametrize("call", [
        lambda study: gpq_tests(study, TestFrontDoor.ALL, 0.04, Alternative.LESS, 1000, seed=0),
        lambda study: gpq_test(study, Method.VERRILL_JOHNSON, 0.04, Alternative.LESS, 1000, seed=0),
        lambda study: gpq_interval(study, Method.VERRILL_JOHNSON, 0.95, 1000, seed=0),
        lambda study: generate_draws(study, Method.VERRILL_JOHNSON, 1000, seed=0),
    ], ids=["gpq_tests", "gpq_test", "gpq_interval", "generate_draws"])
    def test_one_message_for_a_non_pivotal_method(self, surveys, call):
        with pytest.raises(ValidationError, match=r"^vj is not a pivotal method \(tian, new, combined\)$"):
            call(surveys)

    def test_non_method_named_by_repr(self, surveys):
        message = r"^'tian' is not a Method; pass Method\.TIAN, Method\.NEW or Method\.COMBINED$"
        with pytest.raises(ValidationError, match=message):
            intervals(surveys, ("tian",), 0.95, 1000, seed=0)


class TestFrontDoorMemo:
    """confidence_interval and gpq_test draw all three pivots in one engine
    call per group values, m and seed (and level or phi0), keep the ends or
    counts, and give each method what intervals or gpq_tests give it
    alone."""

    @staticmethod
    def _engine_calls(monkeypatch):
        calls, original = [], pivotal._pivot_value_arrays

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(pivotal, "_pivot_value_arrays", counting)
        return calls

    def test_intervals_share_one_engine_call(self, hospital, monkeypatch):
        alone = {method: intervals(hospital, (method,), 0.95, 1000, seed=4)[method] for method in PIVOTAL}
        calls = self._engine_calls(monkeypatch)
        for method in PIVOTAL:
            assert confidence_interval(hospital, method, 0.95, 1000, seed=4) == alone[method]
            assert gpq_interval(hospital, method, 0.95, 1000, seed=4) == alone[method]
        # equal group values share the entry, whatever holds them
        assert confidence_interval(Study(hospital.groups), Method.NEW, 0.95, 1000, seed=4) == alone[Method.NEW]
        records = [(g.n, g.mean, g.sd) for g in hospital]
        assert confidence_interval(records, Method.TIAN, np.float64(0.95), 1000, 4) == alone[Method.TIAN]
        assert calls == [PIVOTAL]

    def test_tests_share_one_engine_call(self, hospital, monkeypatch):
        alone = {
            (method, alt): gpq_tests(hospital, (method,), 0.8, alt, 1000, seed=4)[method]
            for method in PIVOTAL for alt in Alternative
        }
        calls = self._engine_calls(monkeypatch)
        for alt in Alternative:
            for method in PIVOTAL:
                assert gpq_test(hospital, method, 0.8, alt, 1000, seed=4) == alone[method, alt]
                assert gpq_test(hospital, method, 0.8, alt.value, 1000, seed=4) == alone[method, alt]
        assert calls == [PIVOTAL]

    def test_vj_draws_nothing(self, hospital, monkeypatch):
        calls = self._engine_calls(monkeypatch)
        confidence_interval(hospital, Method.VERRILL_JOHNSON, 0.95, 1000, seed=4)
        assert calls == [] and pivotal._all_pivotal.cache_info().currsize == 0

    OTHER_VALUES = Study([(5, 1.0, 0.2), (7, 2.0, 0.4), (9, 3.0, 0.5), (6, 1.5, 0.3)])

    @pytest.mark.parametrize("changed", [
        pytest.param({"level": 0.9}, id="level"),
        pytest.param({"m": 1001}, id="m"),
        pytest.param({"seed": 5}, id="seed"),
        pytest.param({"study": OTHER_VALUES}, id="group values"),
    ])
    def test_a_new_interval_key_draws_again(self, hospital, monkeypatch, changed):
        args = {"study": hospital, "level": 0.95, "m": 1000, "seed": 4}
        calls = self._engine_calls(monkeypatch)
        confidence_interval(method=Method.TIAN, **args)
        args.update(changed)
        assert confidence_interval(method=Method.NEW, **args) == intervals(
            args["study"], (Method.NEW,), args["level"], args["m"], args["seed"]
        )[Method.NEW]
        assert len(calls) == 3  # the two keys, and the check made alone

    @pytest.mark.parametrize("changed", [
        pytest.param({"phi0": 0.7}, id="phi0"),
        pytest.param({"m": 1001}, id="m"),
        pytest.param({"seed": 5}, id="seed"),
        pytest.param({"study": OTHER_VALUES}, id="group values"),
    ])
    def test_a_new_test_key_draws_again(self, hospital, monkeypatch, changed):
        args = {"study": hospital, "phi0": 0.8, "m": 1000, "seed": 4}
        calls = self._engine_calls(monkeypatch)
        gpq_test(method=Method.TIAN, alternative=Alternative.LESS, **args)
        args.update(changed)
        assert gpq_test(method=Method.NEW, alternative=Alternative.LESS, **args) == gpq_tests(
            args["study"], (Method.NEW,), args["phi0"], Alternative.LESS, args["m"], args["seed"]
        )[Method.NEW]
        assert len(calls) == 3

    def test_intervals_and_tests_kept_apart(self, hospital, monkeypatch):
        # a level and a null value of one number give different entries
        calls = self._engine_calls(monkeypatch)
        confidence_interval(hospital, Method.TIAN, 0.8, 1000, seed=4)
        assert gpq_test(hospital, Method.TIAN, 0.8, Alternative.LESS, 1000, seed=4) == gpq_tests(
            hospital, (Method.TIAN,), 0.8, Alternative.LESS, 1000, seed=4
        )[Method.TIAN]
        assert len(calls) == 3

    def test_a_kept_error_is_raised_afresh(self, surveys, monkeypatch):
        monkeypatch.setattr(
            pivotal, "_pivot_values", TestDegenerateHandling._flag_first_rows(0.02, (Method.NEW,))
        )
        calls = self._engine_calls(monkeypatch)
        message = "21 degenerate draws out of 2021 attempts; data look pathological"
        for call in [
            lambda: confidence_interval(surveys, Method.NEW, 0.95, 2000, seed=0),
            lambda: gpq_test(surveys, Method.NEW, 0.04, Alternative.LESS, 2000, seed=0),
        ]:
            frames = []
            for _ in range(3):
                with pytest.raises(DegenerateRateError, match=f"^{message}$") as info:
                    call()
                frames.append(len(traceback.extract_tb(info.value.__traceback__)))
            assert frames[0] == frames[1] == frames[2]
        assert confidence_interval(surveys, Method.TIAN, 0.95, 2000, seed=0) == intervals(
            surveys, (Method.TIAN,), 0.95, 2000, seed=0
        )[Method.TIAN]
        assert len(calls) == 3

    def test_holds_at_most_its_bound(self, surveys, monkeypatch):
        calls = self._engine_calls(monkeypatch)
        seeds = range(2 * pivotal._all_pivotal.cache_info().maxsize)
        for seed in seeds:
            confidence_interval(surveys, Method.TIAN, 0.95, 100, seed)
            gpq_test(surveys, Method.TIAN, 0.04, Alternative.LESS, 100, seed)
            assert pivotal._all_pivotal.cache_info().currsize <= pivotal._all_pivotal.cache_info().maxsize
        assert len(calls) == 2 * len(seeds)
        # the oldest entries went first: the last seed's are still kept
        confidence_interval(surveys, Method.NEW, 0.95, 100, seeds[-1])
        gpq_test(surveys, Method.NEW, 0.04, Alternative.LESS, 100, seeds[-1])
        assert len(calls) == 2 * len(seeds)
        confidence_interval(surveys, Method.NEW, 0.95, 100, seeds[0])
        assert len(calls) == 2 * len(seeds) + 1

    def test_threads_share_the_cache(self, hospital):
        # 4 threads call both front doors for every pivotal method at two
        # seeds; each gets what the method alone gets
        seeds = (4, 5)
        alone_ci = {(method, seed): intervals(hospital, (method,), 0.95, 2000, seed)[method]
                    for method in PIVOTAL for seed in seeds}
        alone_test = {(method, seed): gpq_tests(hospital, (method,), 0.8, "less", 2000, seed)[method]
                      for method in PIVOTAL for seed in seeds}
        found, sizes, start = [], [], threading.Barrier(4)

        def work():
            start.wait()
            for seed in seeds:
                for method in PIVOTAL:
                    found.append((alone_ci[method, seed], confidence_interval(hospital, method, 0.95, 2000, seed)))
                    found.append((alone_test[method, seed], gpq_test(hospital, method, 0.8, "less", 2000, seed)))
                    sizes.append(pivotal._all_pivotal.cache_info().currsize)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(found) == 4 * 2 * 2 * len(PIVOTAL)
        assert all(expected == got for expected, got in found)
        assert max(sizes) <= pivotal._all_pivotal.cache_info().maxsize


def test_pivotal_draws_value_object(surveys):
    draws = generate_draws(surveys, Method.NEW, 500, seed=1)
    assert isinstance(draws, PivotalDraws)
    assert draws.m == 500
    assert draws.rejected / (draws.m + draws.rejected) < 0.01
