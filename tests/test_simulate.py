import math
import threading
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
            dict(m="x", methods=(Method.VERRILL_JOHNSON,)),  # was stored, and printed as draws
            dict(m=2.5, methods=(Method.VERRILL_JOHNSON,)),
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

    def test_degenerate_data_fail_every_method_with_the_summarize_error(self, monkeypatch):
        tallied = []
        monkeypatch.setattr(simulate._Tally, "add", lambda self, interval, target: tallied.append(interval))
        run_study(SimConfig(phi=0.5, mus=(1e308, 1e308), ns=(5, 5), reps=2, m=100))
        assert len(tallied) == 2 * len(ALL_METHODS)
        assert all(isinstance(found, (ValidationError, NumericalError)) for found in tallied)

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

        def new_degenerate(groups, u, zg):
            # 2% of every block degenerate for `new` alone: a rate error
            pivots = original(groups, u, zg)
            if len(u) > 1:
                vals = pivots[Method.NEW][0]
                pivots[Method.NEW] = vals, np.arange(len(u)) < 0.02 * len(u)
            return pivots

        monkeypatch.setattr(pivotal, "_pivot_values", new_degenerate)
        patched = run_study(config(methods=methods))
        assert patched.performance[Method.NEW].failures == FAST["reps"]
        assert math.isnan(patched.performance[Method.NEW].coverage)
        for method in (Method.TIAN, Method.COMBINED):
            assert patched.performance[method] == clean.performance[method]


class TestLookahead:
    """With more than one CPU a helper thread draws each replication's
    first pivot block ahead of it; every result is the one a single CPU
    gives, and the helper is gone when run_study returns or raises."""

    CELLS = {
        "clean": dict(phi=0.3, mus=(1.0, 2.0, 3.0), ns=(4, 9, 20), reps=40, m=2000),
        # 10 of the 200 datasets overflow: their blocks are drawn and dropped
        "failing data": dict(phi=1.0, mus=(3e153,) * 3, ns=(10, 10, 10), reps=200, m=100),
        "two blocks": dict(phi=0.2, mus=(2.0, 3.0), ns=(6, 11), reps=3, m=2**15 + 17),
    }

    @staticmethod
    def _flagging(methods, period):
        """A kernel that marks every period-th row from row 7 degenerate for
        ``methods``, in each pass of more than one row."""
        original = pivotal._pivot_values

        def kernel(groups, u, zg):
            pivots = original(groups, u, zg)
            if len(u) > 1:
                for method in methods:
                    vals, bad = pivots[method]
                    pivots[method] = vals, bad | (np.arange(len(u)) % period == 7)
            return pivots

        return kernel

    @staticmethod
    def _on_one_and_two_cpus(monkeypatch, cfg):
        """run_study on one and on two CPUs, each result by its repr: a
        float's repr gives its value exactly, and a nan equals itself."""
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(pivotal, "_WORKERS", workers)
            runs.append(run_study(cfg))
        return runs, [repr(run) for run in runs]

    @pytest.mark.parametrize("cell", CELLS)
    def test_results_do_not_depend_on_worker_count(self, monkeypatch, cell):
        cfg = SimConfig(**self.CELLS[cell], master_seed=3)
        (one, _), (text_one, text_two) = self._on_one_and_two_cpus(monkeypatch, cfg)
        assert text_one == text_two
        failures = [perf.failures for perf in one.performance.values()]
        assert (cell == "failing data") == any(failures)

    @pytest.mark.parametrize("kernel", [
        pytest.param(((Method.TIAN, Method.NEW, Method.COMBINED), 199), id="0.5% of rows"),
        pytest.param(((Method.NEW,), 50), id="2% of new's rows"),
    ])
    def test_regenerated_rows_do_not_depend_on_worker_count(self, monkeypatch, kernel):
        # regenerated rows come from sub-streams of the helper's base stream
        monkeypatch.setattr(pivotal, "_pivot_values", self._flagging(*kernel))
        for cell in ("clean", "two blocks"):
            cfg = SimConfig(**self.CELLS[cell], master_seed=3)
            (one, _), (text_one, text_two) = self._on_one_and_two_cpus(monkeypatch, cfg)
            assert text_one == text_two
            assert (one.performance[Method.NEW].failures == one.config.reps) == (kernel[1] == 50)

    @staticmethod
    def _raise_on_call(n, error):
        calls = []

        def raising(*args):
            calls.append(args)
            if len(calls) == n:
                raise error

        return raising

    @pytest.mark.parametrize("error", [RuntimeError("mid-cell"), KeyboardInterrupt()])
    def test_helper_joined_when_the_caller_raises(self, monkeypatch, error):
        add = simulate._Tally.add
        raising = self._raise_on_call(9, error)
        monkeypatch.setattr(simulate._Tally, "add", lambda self, *args: raising() or add(self, *args))
        monkeypatch.setattr(pivotal, "_WORKERS", 2)
        before = threading.active_count()
        with pytest.raises(type(error)):
            run_study(config())
        assert threading.active_count() == before

    def test_helper_error_raised_by_the_caller(self, monkeypatch):
        first_block = simulate._first_block
        raising = self._raise_on_call(3, ValueError("third block"))
        monkeypatch.setattr(simulate, "_first_block", lambda *args: raising(*args) or first_block(*args))
        monkeypatch.setattr(pivotal, "_WORKERS", 2)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^third block$"):
            run_study(config())
        assert threading.active_count() == before

    def test_helper_joined_on_return(self, monkeypatch):
        monkeypatch.setattr(pivotal, "_WORKERS", 2)
        before = threading.active_count()
        run_study(config())
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers, methods, started", [
        (1, ALL_METHODS, 0),
        (2, (Method.VERRILL_JOHNSON,), 0),
        (2, ALL_METHODS, 1),
    ])
    def test_helper_started_with_a_second_cpu_and_a_pivotal_method(self, monkeypatch, workers, methods, started):
        starts = []
        original_start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread)
            original_start(thread)

        monkeypatch.setattr(pivotal, "_WORKERS", workers)
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        run_study(config(methods=methods))
        assert len(starts) == started


class TestRunGrid:
    def test_empty(self):
        assert run_grid([]) == []

    @pytest.mark.parametrize("configs", [5, None])
    def test_configs_not_iterable(self, configs):
        # was a bare TypeError
        with pytest.raises(ValidationError, match="^configs must be iterable"):
            run_grid(configs)

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
