import math
import warnings

import numpy as np
import pytest

from common_cv import pivotal, simulate
from common_cv.errors import DegenerateRateError, NumericalError, ValidationError
from common_cv.model import Method
from common_cv.simulate import (
    ALL_METHODS,
    MethodPerformance,
    SimConfig,
    SimResult,
    run_grid,
    run_study,
)

FAST = dict(reps=50, m=200, master_seed=7)
NOT_REAL = ("0.95", None, 1j, True)


def config(**overrides) -> SimConfig:
    base = dict(phi=0.3, mus=(1.0, 1.0, 2.0), ns=(10, 10, 10), **FAST)
    base.update(overrides)
    return SimConfig(**base)


class TestSimConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(mus=(1.0,), ns=(10,)),
            dict(mus=(1.0, 2.0), ns=(10, 10, 10)),
            dict(phi=0.0),
            dict(phi=-0.3),
            dict(mus=(1.0, 0.0, 2.0)),
            dict(ns=(10, 1, 10)),
            dict(reps=0),
            dict(level=1.0),
            dict(level=0.0),
            dict(methods=()),
            dict(methods=("tian",)),  # enums required, not strings
            dict(mus=(-1.0, 1.0, 2.0)),  # sigma_i = phi*mu_i > 0 needs one sign
            dict(master_seed=2**64),  # would run on seed 0's streams
            dict(master_seed=-1),
            dict(master_seed=1.5),
            dict(phi=math.nan),  # every method would fail, and coverage read nan
            dict(phi=math.inf),
            dict(mus=(1.0, math.inf, 2.0)),
            dict(mus=(1.0, math.nan, 2.0)),
            dict(reps=2.5),
            dict(ns=(5.7, 5, 5)),  # was truncated to 5
            dict(m=50),  # would fail every replication's intervals call
            dict(m=2000.5),
            dict(m=10**7 + 1),
            dict(m=50, methods=(Method.VERRILL_JOHNSON, Method.NEW)),
            *(dict(phi=v) for v in NOT_REAL),  # True was taken as phi = 1
            *(dict(level=v) for v in NOT_REAL),
            *(dict(mus=(1.0, v, 2.0)) for v in NOT_REAL),  # "0.95" and True were converted
            dict(mus=1.0),  # not iterable: was a bare TypeError
            dict(ns=5),
            dict(methods=Method.TIAN),
        ],
    )
    def test_rejects_invalid(self, overrides):
        with pytest.raises(ValidationError):
            config(**overrides)

    def test_seed_stored_as_int(self):
        cfg = config(master_seed=np.uint64(2**64 - 1))
        assert type(cfg.master_seed) is int and cfg == config(master_seed=2**64 - 1)

    def test_integer_fields_stored_as_int(self):
        cfg = config(ns=(np.int64(10), 10, 10), reps=np.int64(3), m=np.int64(300))
        assert cfg == config(ns=(10, 10, 10), reps=3, m=300)
        assert all(type(v) is int for v in (*cfg.ns, cfg.reps, cfg.m))

    def test_draw_count_unchecked_without_a_pivotal_method(self):
        # vj is closed-form and ignores m, as intervals does
        assert config(m=50, methods=(Method.VERRILL_JOHNSON,)).m == 50

    def test_negative_mus_allowed(self):
        assert config(mus=(-1.0, -1.0, -2.0)).mus == (-1.0, -1.0, -2.0)

    def test_defaults(self):
        cfg = SimConfig(phi=0.05, mus=(1.0, 1.0), ns=(5, 5))
        assert cfg.reps == 2000
        assert cfg.m == 2000
        assert cfg.level == 0.95
        assert cfg.methods == ALL_METHODS


class TestRunStudy:
    def test_single_replication_deterministic(self):
        cfg = config(reps=1)
        a = run_study(cfg)
        b = run_study(cfg)
        for method in cfg.methods:
            assert a.performance[method].coverage in (0.0, 1.0)
            assert a.performance[method] == b.performance[method]

    def test_full_run_reproducible(self):
        cfg = config()
        a = run_study(cfg)
        b = run_study(cfg)
        assert a.performance == b.performance

    def test_performance_fields(self):
        res = run_study(config(methods=(Method.TIAN, Method.NEW)))
        assert set(res.performance) == {Method.TIAN, Method.NEW}
        for method, perf in res.performance.items():
            assert perf.method is method
            assert 0.0 <= perf.coverage <= 1.0
            assert perf.avg_length > 0.0
            assert perf.failures == 0
        assert res.error is None

    def test_method_subset_matches_full_run(self):
        """A method's numbers do not depend on which other methods run
        alongside it (shared data, per-method pivot streams)."""
        full = run_study(config())
        solo = run_study(config(methods=(Method.COMBINED,)))
        assert solo.performance[Method.COMBINED] == full.performance[Method.COMBINED]

    def test_seed_changes_results(self):
        a = run_study(config(master_seed=1))
        b = run_study(config(master_seed=2))
        assert a.performance[Method.NEW] != b.performance[Method.NEW]

    def test_mu_scaling_bit_identical(self):
        # data scale linearly in mu, the pivotal draw formulas consume
        # only mean/sd ratios and the MLE's profile equation only the
        # ratios q_i, so doubling all means reproduces coverage and
        # lengths exactly for every method
        a = run_study(config(mus=(1.0, 1.0, 2.0)))
        b = run_study(config(mus=(2.0, 2.0, 4.0)))
        for method in ALL_METHODS:
            assert a.performance[method] == b.performance[method]

    def test_negative_means_cover_their_own_cv(self):
        # data drawn with negative means have CV -phi; that is what the
        # intervals are compared with
        pos = run_study(config(mus=(1.0, 1.0, 2.0), reps=200, m=500))
        neg = run_study(config(mus=(-1.0, -1.0, -2.0), reps=200, m=500))
        assert neg.performance[Method.VERRILL_JOHNSON] == pos.performance[Method.VERRILL_JOHNSON]
        for method in (Method.TIAN, Method.NEW, Method.COMBINED):
            assert neg.performance[method].coverage > 0.8

    def test_length_decreases_with_sample_size(self):
        lengths = []
        for n in (5, 10, 30):
            cfg = config(phi=0.05, mus=(1.0, 1.0, 1.0), ns=(n, n, n),
                         reps=100, methods=(Method.TIAN,))
            lengths.append(run_study(cfg).performance[Method.TIAN].avg_length)
        assert lengths[0] > lengths[1] > lengths[2]

    def test_overflowing_replications_fail_alone(self):
        # 10 of the 200 datasets have a sum of squared deviations that overflows
        res = run_study(SimConfig(phi=1.0, mus=(3e153,) * 3, ns=(10, 10, 10), reps=200, m=100))
        assert res.error is None
        assert [res.performance[m].failures for m in (Method.TIAN, Method.NEW, Method.COMBINED)] == [10] * 3
        assert res.performance[Method.VERRILL_JOHNSON].failures >= 10

    def test_overflowing_data_warn_nothing(self):
        # mu * (1 + phi * z) overflows; summarize rejects the values, and
        # numpy warns nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_study(SimConfig(phi=0.5, mus=(1e308, 1e308), ns=(5, 5), reps=3, m=100))
        assert res.error is None
        assert [perf.failures for perf in res.performance.values()] == [3] * len(ALL_METHODS)

    def test_every_replication_overflowing(self):
        # reads as an all-degenerate cell: every replication failed, coverage nan
        res = run_grid([SimConfig(phi=1.0, mus=(1e300,) * 3, ns=(10, 10, 10), reps=5, m=100)])[0]
        assert res.error is None
        for perf in res.performance.values():
            assert perf.failures == 5
            assert math.isnan(perf.coverage) and math.isnan(perf.avg_length)

    def test_coverage_sanity_at_moderate_scale(self):
        cfg = config(phi=0.05, mus=(1.0, 1.0, 1.0), ns=(30, 30, 30),
                     reps=200, m=500, methods=(Method.COMBINED,))
        coverage = run_study(cfg).performance[Method.COMBINED].coverage
        assert 0.88 <= coverage <= 1.0


class TestFailureAccounting:
    def test_vj_failures_counted_not_fatal(self, monkeypatch):
        real = pivotal.vj_interval
        calls = {"n": 0}

        def flaky(study, level):
            calls["n"] += 1
            if calls["n"] % 3 == 1:
                raise NumericalError("synthetic failure")
            return real(study, level)

        monkeypatch.setattr(pivotal, "vj_interval", flaky)
        cfg = config(reps=30, methods=(Method.VERRILL_JOHNSON, Method.NEW))
        res = run_study(cfg)
        vj = res.performance[Method.VERRILL_JOHNSON]
        assert vj.failures == 10
        assert 0.0 <= vj.coverage <= 1.0
        # covered counts divide by the 20 surviving replications
        assert (vj.coverage * 20) == pytest.approx(round(vj.coverage * 20))
        assert res.performance[Method.NEW].failures == 0

    def test_all_failed_yields_nan(self, monkeypatch):
        def broken(study, level):
            raise NumericalError("always")

        monkeypatch.setattr(pivotal, "vj_interval", broken)
        cfg = config(reps=3, methods=(Method.VERRILL_JOHNSON,))
        perf = run_study(cfg).performance[Method.VERRILL_JOHNSON]
        assert perf.failures == 3
        assert math.isnan(perf.coverage)
        assert math.isnan(perf.avg_length)

    def test_pivot_failure_counted_for_its_method_only(self, monkeypatch):
        """One method failing inside a multi-method engine call costs only
        that method its replication; the others match a clean run."""
        methods = (Method.TIAN, Method.NEW, Method.COMBINED)
        clean = run_study(config(methods=methods))
        original = pivotal._pivot_values

        def new_degenerate(groups, u, zg, requested):
            # 2% of every block degenerate for `new` alone: a rate error
            pivots = original(groups, u, zg, requested)
            if len(u) > 1 and Method.NEW in pivots:
                vals = pivots[Method.NEW][0]
                pivots[Method.NEW] = vals, np.arange(len(u)) < 0.02 * len(u)
            return pivots

        monkeypatch.setattr(pivotal, "_pivot_values", new_degenerate)
        patched = run_study(config(methods=methods))
        assert patched.performance[Method.NEW].failures == FAST["reps"]
        assert math.isnan(patched.performance[Method.NEW].coverage)
        for method in (Method.TIAN, Method.COMBINED):
            assert patched.performance[method] == clean.performance[method]


class TestRunGrid:
    def test_empty(self):
        assert run_grid([]) == []

    def test_preserves_order_and_echoes_config(self):
        configs = [config(phi=0.2), config(phi=0.4)]
        results = run_grid(configs)
        assert [r.config for r in results] == configs

    def test_identical_configs_identical_rows(self):
        cfg = config()
        a, b = run_grid([cfg, cfg])
        assert a.performance == b.performance

    def test_matches_run_study(self):
        # a cell's numbers do not depend on its position in a grid
        cfg = config()
        assert run_grid([cfg])[0].performance == run_study(cfg).performance

    def test_cell_error_isolated(self, monkeypatch):
        good, bad = config(), config(phi=0.4)
        run_study = simulate.run_study

        def failing_for_bad(cfg):
            if cfg == bad:
                raise DegenerateRateError("40 degenerate draws out of 2040 attempts; data look pathological")
            return run_study(cfg)

        monkeypatch.setattr(simulate, "run_study", failing_for_bad)
        results = run_grid([good, bad, good])
        assert results[0].error is None and results[0].performance
        assert results[1].error is not None and "draws" in results[1].error
        assert not results[1].performance
        assert results[2].error is None
        assert results[0].performance == results[2].performance


def test_result_types_are_value_objects():
    perf = MethodPerformance(method=Method.NEW, coverage=0.95, avg_length=0.1, failures=0)
    res = SimResult(config=config(), performance={Method.NEW: perf})
    assert res.performance[Method.NEW] == perf
    with pytest.raises(AttributeError):
        perf.coverage = 0.9
