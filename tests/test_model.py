import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from common_cv import model
from common_cv.errors import (
    NonPositiveSigmaError,
    NumericalError,
    TooFewGroupsError,
    TooFewObservationsError,
    ValidationError,
    ZeroMeanError,
    ZeroVarianceError,
)
from common_cv.estimators import newton_mle
from common_cv.model import (
    ALL_METHODS,
    Alternative,
    GroupArrays,
    IntervalResult,
    Method,
    PIVOTAL_METHODS,
    ParameterVector,
    SampleSummary,
    Study,
    TestResult,
    group_arrays,
    summarize,
    validate_study,
)
from common_cv.pivotal import intervals
from common_cv.simulate import SimConfig, run_study

# Values float() or a comparison may take, none of them a real number.
NOT_REAL = ("0.95", None, 1j, True)
# Groups that are neither a SampleSummary nor an (n, mean, sd[, label]) record.
NOT_RECORDS = [(5, 1.0), (5, 1.0, 0.2, "a", "b"), 5, None]
# Collections of groups, or of observations, that are not iterable.
NOT_ITERABLE = [5, None, 1.5, np.float64(2.0), np.array(3.0)]


class TestSummarize:
    def test_five_survival_times(self):
        s = summarize([176, 105, 266, 227, 66])
        assert s.n == 5
        assert s.mean == pytest.approx(168.0, abs=5e-5)
        assert s.variance == pytest.approx(6880.5, abs=5e-2)
        assert s.cv == pytest.approx(0.4937, abs=5e-5)

    def test_four_survival_times(self):
        s = summarize([24, 5, 155, 54])
        assert s.n == 4
        assert s.mean == pytest.approx(59.5, abs=5e-5)
        assert s.variance == pytest.approx(4460.3, abs=5e-2)
        assert s.cv == pytest.approx(1.1224, abs=5e-5)

    @given(
        c=st.floats(min_value=-1e6, max_value=1e6).filter(lambda v: abs(v) > 1e-3),
        d=st.floats(min_value=1e-3, max_value=1e6),
    )
    def test_symmetric_deviations(self, c, d):
        s = summarize([c, c + d, c - d])
        assert s.mean == pytest.approx(c, rel=1e-9, abs=1e-9)
        assert s.sd == pytest.approx(d, rel=1e-6)

    @given(
        values=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=30),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_equivariance(self, values, scale):
        try:
            base = summarize(values)
        except (ZeroVarianceError, ZeroMeanError):
            return
        # Rounding scale*v moves each value by about 1e-16 * max(values), so
        # the property only holds for a spread well above that: at 1e-6 the
        # scaled sd is off by about 1e-10 relative.
        assume(base.sd > 1e-6 * max(values))
        scaled = summarize([scale * v for v in values])
        assert scaled.mean == pytest.approx(scale * base.mean, rel=1e-9)
        assert scaled.sd == pytest.approx(scale * base.sd, rel=1e-6, abs=1e-12)
        assert scaled.cv == pytest.approx(base.cv, rel=1e-6)

    def test_too_few(self):
        with pytest.raises(TooFewObservationsError):
            summarize([1.0])
        with pytest.raises(TooFewObservationsError):
            summarize([])

    def test_constant_sample(self):
        with pytest.raises(ZeroVarianceError):
            summarize([3.0, 3.0, 3.0])

    def test_zero_mean(self):
        with pytest.raises(ZeroMeanError):
            summarize([-1.0, 0.0, 1.0])

    def test_near_zero_mean_relative_to_magnitude(self):
        # offsets of 1e-4 around +-1e9 leave the mean ~17 orders below max|x|
        with pytest.raises(ZeroMeanError):
            summarize([1e9 + 1e-4, -1e9 + 1e-4])

    def test_label_carried(self):
        assert summarize([1.0, 2.0], label="g7").label == "g7"

    @pytest.mark.parametrize("values", [
        [1.0, "x"],
        [1.0, None],
        ["1.5", "2"],
        [True, 2.0, 3.0],
        [1.0, b"2"],
        np.array(["1.5", "2"]),
        np.array([1.0, -np.inf, np.inf]),
    ], ids=repr)
    def test_rejects_non_real_observations(self, values):
        with pytest.raises(ValidationError, match="group g7: an observation"):
            summarize(values, label="g7")

    @pytest.mark.parametrize("values", [[1e200, 3e200], [1e308, 1e308], np.array([1e200, 3e200])], ids=repr)
    def test_overflow_is_numerical_error(self, values):
        with pytest.raises(NumericalError, match="group g7"):
            summarize(values, label="g7")

    @pytest.mark.parametrize("values", NOT_ITERABLE, ids=repr)
    def test_not_iterable(self, values):
        with pytest.raises(ValidationError, match="^group g7: the observations must be iterable"):
            summarize(values, label="g7")


class TestSampleSummary:
    def test_cv_and_variance(self):
        s = SampleSummary(n=5, mean=4.0, sd=1.0)
        assert s.cv == 0.25
        assert s.variance == 1.0

    def test_negative_mean_allowed(self):
        s = SampleSummary(n=5, mean=-4.0, sd=1.0)
        assert s.cv == -0.25

    @pytest.mark.parametrize(
        "kwargs, exc",
        [
            (dict(n=1, mean=1.0, sd=1.0), TooFewObservationsError),
            (dict(n=2, mean=0.0, sd=1.0), ZeroMeanError),
            (dict(n=2, mean=float("nan"), sd=1.0), ZeroMeanError),
            (dict(n=2, mean=1.0, sd=0.0), ZeroVarianceError),
            (dict(n=2, mean=1.0, sd=-1.0), ZeroVarianceError),
            (dict(n=2, mean=1.0, sd=float("inf")), ZeroVarianceError),
            *((dict(n=2, mean=v, sd=1.0), ZeroMeanError) for v in NOT_REAL),
            *((dict(n=2, mean=1.0, sd=v), ZeroVarianceError) for v in NOT_REAL),
        ],
    )
    def test_invariants(self, kwargs, exc):
        with pytest.raises(exc):
            SampleSummary(**kwargs)

    @pytest.mark.parametrize("n", [np.int64(5), np.int32(5), np.uint8(5)], ids=repr)
    def test_numpy_integer_n_stored_as_int(self, n):
        s = SampleSummary(n=n, mean=4.0, sd=1.0)
        assert type(s.n) is int and s.n == 5

    def test_frozen(self):
        s = SampleSummary(n=5, mean=4.0, sd=1.0)
        with pytest.raises(AttributeError):
            s.mean = 5.0


class TestStudy:
    def test_totals(self, toy_study):
        assert toy_study.k == 2
        assert toy_study.n == 25
        assert len(toy_study) == 2
        assert [g.n for g in toy_study] == [10, 15]

    def test_needs_two_groups(self):
        with pytest.raises(TooFewGroupsError):
            Study(groups=(SampleSummary(n=5, mean=1.0, sd=0.5),))

    def test_default_labels(self):
        s = Study(groups=(
            SampleSummary(n=5, mean=1.0, sd=0.5),
            SampleSummary(n=5, mean=2.0, sd=0.5, label="named"),
        ))
        assert s.labels == ("group1", "named")

    def test_loose_records(self):
        study = Study(groups=((5, 1.0, 0.2), (7, 2.0, 0.4, "b")))
        assert study.groups == (SampleSummary(5, 1.0, 0.2), SampleSummary(7, 2.0, 0.4, "b"))

    @pytest.mark.parametrize("record, exc", [
        *(pytest.param(record, ValidationError, id=repr(record)) for record in NOT_RECORDS),
        pytest.param((5, 0.0, 0.2), ZeroMeanError, id="zero mean"),
        pytest.param((5.0, 1.0, 0.2), TooFewObservationsError, id="float n"),
        pytest.param((1, 1.0, 0.2), TooFewObservationsError, id="n=1"),
    ])
    def test_checks_every_group(self, record, exc):
        with pytest.raises(exc, match="^group 1: "):
            Study(groups=((5, 1.0, 0.2), record))

    @pytest.mark.parametrize("groups", NOT_ITERABLE, ids=repr)
    def test_groups_not_iterable(self, groups):
        with pytest.raises(ValidationError, match="groups must be iterable"):
            Study(groups=groups)

    def test_any_iterable_of_groups(self):
        groups = ((5, 1.0, 0.2), (7, 2.0, 0.4))
        assert Study(groups=iter(groups)) == Study(groups=list(groups)) == Study(groups=groups)


def counting(monkeypatch, name):
    """Replace model.<name> by a wrapper that counts its calls."""
    calls, original = [], getattr(model, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(model, name, wrapper)
    return calls


class TestArrayView:
    GROUPS = ((5, 1.0, 0.2), (7, 2.0, 0.4, "b"), (9, -3.0, 0.5))

    def test_built_once_from_the_checked_groups(self):
        study = Study(self.GROUPS)
        assert group_arrays(study) is study.arrays
        assert [a.tolist() for a in study.arrays] == [[5, 7, 9], [1.0, 2.0, -3.0], [0.2, 0.4, 0.5], [4, 6, 8]]
        assert all(a.dtype == np.float64 for a in study.arrays)

    @pytest.mark.parametrize("field", GroupArrays._fields)
    def test_read_only(self, field):
        study = Study(self.GROUPS)
        with pytest.raises(ValueError, match="read-only"):
            getattr(study.arrays, field)[0] = 1.0

    def test_not_part_of_equality_hash_or_repr(self):
        a, b = Study(self.GROUPS), Study(list(self.GROUPS))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"Study(groups={a.groups!r})"
        with pytest.raises(TypeError):
            Study(self.GROUPS, arrays=a.arrays)

    @pytest.mark.parametrize("copied", [
        pytest.param(copy.copy, id="copy"),
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(lambda study: pickle.loads(pickle.dumps(study)), id="pickle"),
    ])
    def test_copies_keep_read_only_arrays(self, copied):
        study = Study(self.GROUPS)
        twin = copied(study)
        assert twin == study and type(twin) is Study
        for field in GroupArrays._fields:
            assert np.array_equal(getattr(twin.arrays, field), getattr(study.arrays, field))
            assert not getattr(twin.arrays, field).flags.writeable

    @pytest.mark.parametrize("groups, rows", [
        pytest.param([], [[], [], [], []], id="empty"),
        pytest.param([(5, 1.0, 0.2)], [[5.0], [1.0], [0.2], [4.0]], id="one group"),
        pytest.param(GROUPS, [[5, 7, 9], [1.0, 2.0, -3.0], [0.2, 0.4, 0.5], [4, 6, 8]], id="a plain tuple"),
    ])
    def test_any_iterable_of_groups(self, groups, rows):
        arrays = group_arrays(groups)
        assert [a.tolist() for a in arrays] == rows
        assert all(a.dtype == np.float64 and a.shape == (len(groups),) for a in arrays)

    def test_readers_of_a_study_check_no_group(self, monkeypatch):
        study = Study(self.GROUPS[:2])
        checks = counting(monkeypatch, "_checked_groups")
        intervals(study, ALL_METHODS, 0.95, 500, seed=1)
        newton_mle(study)
        assert checks == []

    def test_one_check_and_one_build_per_replication(self, monkeypatch):
        checks, builds = counting(monkeypatch, "_checked_groups"), counting(monkeypatch, "_group_arrays")
        reps = 12
        result = run_study(SimConfig(phi=0.2, mus=(1.0, 2.0, 3.0), ns=(5, 5, 5), reps=reps, m=200, master_seed=3))
        assert all(p.failures == 0 for p in result.performance.values())
        assert len(checks) == len(builds) == reps


class TestReadOnce:
    """model._read_once: how every estimator and pivotal front door reads its groups."""

    def test_study_passes_untouched(self, hospital):
        assert model._read_once(hospital) is hospital

    @pytest.mark.parametrize("groups", [
        pytest.param(lambda: iter(TestArrayView.GROUPS), id="iterator"),
        pytest.param(lambda: list(TestArrayView.GROUPS), id="list"),
        pytest.param(lambda: (g for g in TestArrayView.GROUPS[:1]), id="one group"),
    ])
    def test_other_iterables_read_into_a_tuple(self, groups):
        read = model._read_once(groups())
        assert type(read) is tuple and read == tuple(groups())

    @pytest.mark.parametrize("groups", [[], (), iter([])], ids=["list", "tuple", "iterator"])
    def test_no_groups_rejected(self, groups):
        with pytest.raises(TooFewGroupsError, match="need at least 1 group, got an empty study"):
            model._read_once(groups)

    def test_not_iterable_rejected(self):
        with pytest.raises(ValidationError, match="a study's groups must be iterable"):
            model._read_once(3)


class TestValidateStudy:
    def test_two_valid_groups(self):
        study = validate_study([(5, 1.0, 0.2), (7, 2.0, 0.4)])
        assert study.k == 2
        assert study.n == 12

    def test_accepts_summaries(self, toy_study):
        assert validate_study(toy_study.groups) == toy_study

    def test_one_group(self):
        with pytest.raises(TooFewGroupsError):
            validate_study([(5, 1.0, 0.2)])

    def test_zero_mean_names_index(self):
        with pytest.raises(ZeroMeanError, match="group 1"):
            validate_study([(5, 1.0, 0.2), (5, 0.0, 0.2)])

    @pytest.mark.parametrize("record", NOT_RECORDS, ids=repr)
    def test_not_a_record_names_index(self, record):
        with pytest.raises(ValidationError, match="^group 1: not an"):
            validate_study([(5, 1.0, 0.2), record])

    @pytest.mark.parametrize("groups", NOT_ITERABLE, ids=repr)
    def test_groups_not_iterable(self, groups):
        with pytest.raises(ValidationError, match="groups must be iterable"):
            validate_study(groups)

    @pytest.mark.parametrize("field", [1, 2])
    @pytest.mark.parametrize("value", NOT_REAL)
    def test_non_number_names_index(self, field, value):
        record = [5, 1.0, 0.2]
        record[field] = value
        with pytest.raises((ZeroMeanError, ZeroVarianceError)[field - 1], match="group 0"):
            validate_study([tuple(record), (7, 2.0, 0.4)])


class TestParameterVector:
    def test_eta(self):
        pv = ParameterVector(phi=0.25, sigmas=(1.0, 2.0))
        assert pv.eta == 4.0

    def test_rejects_zero_phi(self):
        with pytest.raises(ZeroMeanError):
            ParameterVector(phi=0.0, sigmas=(1.0,))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(NonPositiveSigmaError):
            ParameterVector(phi=0.5, sigmas=(1.0, 0.0))

    @pytest.mark.parametrize("value", ["x", *NOT_REAL])
    def test_rejects_non_number_phi(self, value):
        with pytest.raises(ZeroMeanError):
            ParameterVector(phi=value, sigmas=(1.0,))

    @pytest.mark.parametrize("value", NOT_REAL)
    def test_rejects_non_number_sigma(self, value):
        with pytest.raises(NonPositiveSigmaError):
            ParameterVector(phi=0.5, sigmas=(1.0, value))

    def test_negative_phi_allowed(self):
        assert ParameterVector(phi=-0.5, sigmas=(1.0,)).eta == -2.0

    @pytest.mark.parametrize("sigmas", NOT_ITERABLE, ids=repr)
    def test_rejects_sigmas_not_iterable(self, sigmas):
        with pytest.raises(ValidationError, match="sigmas must be iterable"):
            ParameterVector(phi=0.5, sigmas=sigmas)


class TestResultTypes:
    def test_interval_length_fills_in(self):
        iv = IntervalResult(method=Method.NEW, level=0.95, lower=0.1, upper=0.3, draws=100, seed=1)
        assert iv.length == 0.3 - 0.1
        assert iv.contains(0.2)
        assert not iv.contains(0.31)

    def test_interval_rejects_disorder(self):
        with pytest.raises(ValueError):
            IntervalResult(method=Method.NEW, level=0.95, lower=0.3, upper=0.1)

    def test_test_result_bounds(self):
        with pytest.raises(ValueError):
            TestResult(
                method=Method.TIAN, phi0=0.1, alternative=Alternative.LESS,
                p_value=1.5, draws=100, seed=1,
            )

    def test_method_values(self):
        assert {m.value for m in Method} == {"tian", "vj", "new", "combined"}
        assert Method.VERRILL_JOHNSON not in PIVOTAL_METHODS
        assert len(PIVOTAL_METHODS) == 3

    def test_alternative_values(self):
        assert {a.value for a in Alternative} == {"greater", "less", "two-sided"}


def test_bundled_hospital_matches_descriptives(hospital):
    # printed reference: means / variances / CVs per ward
    means = [168.0, 59.5, 45.7, 154.6]
    variances = [6880.5, 4460.3, 714.3, 8894.7]
    cvs = [0.4937, 1.1224, 0.5853, 0.6100]
    assert hospital.k == 4
    for g, m, v, c in zip(hospital.groups, means, variances, cvs):
        assert round(g.mean, 1) == m
        assert round(g.variance, 1) == v
        assert round(g.cv, 4) == c
