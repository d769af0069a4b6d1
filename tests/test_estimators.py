import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from common_cv import estimators
from common_cv.errors import (
    DegenerateDenominatorError,
    NoConvergenceError,
    NonPositiveSigmaError,
    NumericalError,
    TooFewGroupsError,
    ValidationError,
    ZeroMeanError,
)
from common_cv.estimators import (
    _bracketed_root,
    feltz_miller_estimate,
    group_cvs,
    log_likelihood,
    new_estimate,
    newton_mle,
    score_and_hessian,
    vj_interval,
)
from common_cv.model import ALL_METHODS, Method, ParameterVector, SampleSummary, Study, group_arrays, summarize
from common_cv.pivotal import intervals
from oracles.mle_profile import loglik, profile_sigmas


def rounded_cv_surveys() -> Study:
    # same group sizes and CVs as the bundled survey file, but with the CVs
    # rounded to 4 d.p. first; the pooled estimators depend only on (n_i, cv_i)
    return Study(groups=(
        SampleSummary(n=63, mean=1.0, sd=0.0406),
        SampleSummary(n=72, mean=1.0, sd=0.0346),
    ))


def study_of(ns, means, sds) -> list[SampleSummary]:
    return [SampleSummary(n=n, mean=m, sd=s) for n, m, s in zip(ns, means, sds)]


# independently recomputed by tests/oracles/mle_profile.py (profile
# likelihood: closed-form sigma root + 1-D grid/Brent search)
SURVEY_MLE = (0.03697852, (3.111718, 3.167682), -346.08874016)
HOSPITAL_MLE = (0.60148473, (91.065665, 47.14074, 25.305681, 91.536011), -124.04751399)
PAIR_MLE = (0.31220289, (0.677612, 0.886868), -14.24094546)
WIDE_MLE = (0.45376740, (2.4871, 11.197559), -60.67504775)
CV3_MLE = (0.97296113, (2.395415, 0.610457), -16.08943342)
# the studies of PROFILE_ROOTS_60 other than the bundled ones: a pair, one
# huge group CV beside an ordinary or a large one, every q_i <= 2^510, and
# mixed-sign means, whose root can lie above every q_i
ROOT_STUDIES = {
    "pair": [(5, 2.0, 1.0), (7, 3.0, 0.6)],
    **{f"sd {sd} beside 0.4": [(5, 1.0, float(sd)), (7, 2.0, 0.4)] for sd in ("1e16", "1e17", "1e30", "1e50")},
    "sd 1e50 beside 1e20": [(5, 1.0, 1e50), (7, 2.0, 1e20)],
    "sd 1e76 beside 1e77": [(5, 1.0, 1e76), (7, 2.0, 1e77)],
    "mixed pair": [(5, 2.0, 1.0), (7, -3.0, 0.6)],
    "mixed three": [(10, 5.0, 1.0), (8, 4.0, 1.5), (6, -1.0, 2.0)],
    **{f"mixed CV {sd:g}": [(20, 1.0, sd), (5, -1.0, sd)] for sd in (3.0, 30.0)},
    "mixed 10 beside 9": [(10, 1.0, 1.0), (9, -1.0, 1.0)],
}
# roots of the profile score to 60 digits, printed by
# tests/oracles/mle_roots_60.py (mpmath bisection on log p at 70 digits)
PROFILE_ROOTS_60 = {
    "surveys": "0.0369785182483431035918673173694512585928290637372702232324898",
    "hospital": "0.601484747623201608855722385023754665228185920914477706839432",
    "pair": "0.312202885655139313208333602708282589930747073382658188371891",
    "sd 1e16 beside 0.4": "1.15119408155665849666699552110108709125034326185228380609192",
    "sd 1e17 beside 0.4": "1.15119408155665858816650601147513171969174346498524879484468",
    "sd 1e30 beside 0.4": "1.15119408155665859833311828818234257431491641080151839708024",
    "sd 1e50 beside 0.4": "1.1511940815566585983331182881833592355425872335362265168487",
    "sd 1e50 beside 1e20": "79356008551932982419.9914379928849086194336890356582941233835",
    "sd 1e76 beside 1e77": "1.68958333649850444972240119554884383521369057428213343917486e+76",
    "mixed pair": "-2.76232638766670341962543570433937105406380792272613115194125",
    "mixed three": "0.888789078537579898808546310829694528105370341891191065306486",
    "mixed CV 3": "5.00159297659352966838391968686726963086439321176890061415511",
    "mixed CV 30": "50.2333026585944675750417326721155564401461555979718545754592",
    "mixed 10 beside 9": "19.7987214116498053091143686122582085352363789111559035880799",
}
# newton_mle's message when a q_i is not a finite positive float <= 2^510
NOT_FINITE_Q = r"not a finite positive float <= 2\^510"


class TestGroupCvs:
    def test_hospital(self, hospital):
        assert np.round(group_cvs(hospital), 4).tolist() == [0.4937, 1.1224, 0.5853, 0.6100]

    def test_surveys_full_precision(self, surveys):
        assert np.round(group_cvs(surveys), 4).tolist() == [0.0403, 0.0344]

    def test_surveys_rounded_variant(self):
        assert np.round(group_cvs(rounded_cv_surveys()), 4).tolist() == [0.0406, 0.0346]

    def test_scale_invariant(self, toy_study):
        scaled = [SampleSummary(n=g.n, mean=3.0 * g.mean, sd=3.0 * g.sd) for g in toy_study]
        assert group_cvs(scaled) == pytest.approx(group_cvs(toy_study), rel=1e-12)

    def test_loose_records(self):
        assert group_cvs([(5, 1.0, 0.2), (5, 2.0, 0.1)]).tolist() == [0.2, 0.05]

    @pytest.mark.parametrize("record", [(5, 1.0), 5, (5, 0.0, 0.2)], ids=repr)
    def test_bad_record_names_index(self, record):
        with pytest.raises(ValidationError, match="^group 1: "):
            group_cvs([(5, 1.0, 0.2), record])

    @pytest.mark.parametrize("view", [group_arrays, group_cvs])
    @pytest.mark.parametrize("groups", [5, None, 1.5], ids=repr)
    def test_groups_not_iterable(self, view, groups):
        with pytest.raises(ValidationError, match="groups must be iterable"):
            view(groups)


class TestPooledEstimates:
    def test_feltz_miller_surveys(self):
        assert round(feltz_miller_estimate(rounded_cv_surveys()), 4) == 0.0374

    def test_feltz_miller_hospital(self, hospital):
        assert round(feltz_miller_estimate(hospital), 4) == 0.6734

    def test_new_estimate_hospital(self, hospital):
        assert round(new_estimate(hospital), 4) == 0.6248

    def test_new_estimate_surveys_full_precision(self, surveys):
        assert round(new_estimate(surveys), 4) == 0.0369

    def test_new_estimate_surveys_rounded_variant(self):
        assert round(new_estimate(rounded_cv_surveys()), 4) == 0.0372

    @pytest.mark.parametrize("estimate", [feltz_miller_estimate, new_estimate])
    def test_constant_cv(self, estimate):
        groups = study_of([5, 9, 14], [1.0, 2.0, 4.0], [0.3, 0.6, 1.2])
        assert estimate(groups) == pytest.approx(0.3, rel=1e-12)

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=2, max_value=50),
                st.floats(min_value=0.1, max_value=100.0),
                st.floats(min_value=0.01, max_value=50.0),
            ),
            min_size=2,
            max_size=6,
        )
    )
    def test_ordering(self, rows):
        """Weighted harmonic mean <= weighted arithmetic mean, both inside
        the group CV range, whenever every group CV is positive."""
        groups = study_of(*zip(*rows))
        cvs = group_cvs(groups)
        fm = feltz_miller_estimate(groups)
        new = new_estimate(groups)
        eps = 1e-12 * max(cvs)
        assert min(cvs) - eps <= new <= fm + eps <= max(cvs) + 2 * eps

    @pytest.mark.parametrize("estimate", [
        pytest.param(new_estimate, id="new"),
        pytest.param(newton_mle, id="mle"),
        pytest.param(lambda groups: vj_interval(groups, 0.95), id="vj"),
    ])
    def test_inverse_cvs_summing_to_zero(self, estimate):
        # n*mean/sd is +2 and -2: the weighted inverse CVs cancel exactly
        groups = study_of([2, 2], [1.0, -1.0], [1.0, 1.0])
        with pytest.raises(DegenerateDenominatorError, match="^weighted inverse CVs sum to zero$"):
            estimate(groups)


class TestLogLikelihood:
    def test_hand_value(self):
        # k=1, n=2, xbar=2, s=1 at phi=1, sigma=1: residual 1, so
        # lnL = -(1 + 2)/2 - ln 2pi
        groups = [SampleSummary(n=2, mean=2.0, sd=1.0)]
        expected = -1.5 - math.log(2.0 * math.pi)
        assert log_likelihood(groups, (1.0, [1.0])) == pytest.approx(expected, rel=1e-14)

    @given(c=st.floats(min_value=0.1, max_value=10.0))
    def test_change_of_scale(self, c):
        groups = study_of([10, 15], [10.0, 20.0], [2.0, 3.0])
        scaled = study_of([10, 15], [10.0 * c, 20.0 * c], [2.0 * c, 3.0 * c])
        sig = np.array([2.0, 5.0])
        expected = log_likelihood(groups, (0.4, sig)) - 25 * math.log(c)
        assert log_likelihood(scaled, (0.4, c * sig)) == pytest.approx(expected, rel=1e-9)


@pytest.mark.filterwarnings("error")
class TestTheta:
    GROUPS = [(5, 1.0, 0.2), (7, 2.0, 0.4), (9, 3.0, 0.5)]
    VIEWS = [
        pytest.param(log_likelihood, id="log_likelihood"),
        pytest.param(lambda study, theta: score_and_hessian(study, theta)[0], id="score"),
    ]

    @pytest.mark.parametrize("view", VIEWS)
    @pytest.mark.parametrize("theta, error, message", [
        pytest.param((0.2, [1.0]), ValidationError, r"one sigma per group \(3\), got 1", id="one sigma"),
        pytest.param((0.2, [1.0, 2.0]), ValidationError, r"one sigma per group \(3\), got 2", id="two sigmas"),
        pytest.param(
            ParameterVector(0.2, (1.0, 2.0, 3.0, 4.0)), ValidationError, r"\(3\), got 4", id="four-sigma vector"
        ),
        pytest.param((0.0, [1.0, 2.0, 3.0]), ZeroMeanError, "phi must be", id="zero phi"),
        pytest.param((math.inf, [1.0, 2.0, 3.0]), ZeroMeanError, "phi must be", id="infinite phi"),
        pytest.param((0.2, [1.0, -2.0, 3.0]), NonPositiveSigmaError, "a sigma must be", id="negative sigma"),
        pytest.param((0.2, 1.0), ValidationError, "sigmas must be iterable", id="scalar sigma"),
        pytest.param((0.2,), ValidationError, r"a \(phi, sigmas\) pair, got \(0.2,\)", id="phi alone"),
        pytest.param((0.2, [1.0, 2.0, 3.0], 4.0), ValidationError, r"\(phi, sigmas\) pair", id="three items"),
        pytest.param(0.2, ValidationError, r"\(phi, sigmas\) pair, got 0.2", id="scalar theta"),
    ])
    def test_tuple_checked_as_parameter_vector(self, view, theta, error, message):
        with pytest.raises(error, match=message):
            view(self.GROUPS, theta)

    @pytest.mark.parametrize("view", VIEWS)
    def test_tuple_matches_parameter_vector(self, view):
        phi, sigmas = 0.2, (1.0, 2.0, 3.0)
        expected = view(Study(self.GROUPS), ParameterVector(phi, sigmas))
        for theta in [(phi, sigmas), (phi, list(sigmas)), (phi, np.array(sigmas))]:
            assert np.array_equal(view(self.GROUPS, theta), expected)


def _fd_gradient(groups, phi, sig):
    theta = np.concatenate(([phi], sig))
    out = np.empty_like(theta)
    for j in range(len(theta)):
        h = 1e-5 * abs(theta[j]) + 1e-8
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        out[j] = (
            log_likelihood(groups, (up[0], up[1:]))
            - log_likelihood(groups, (dn[0], dn[1:]))
        ) / (2.0 * h)
    return out


def _fd_hessian(groups, phi, sig):
    theta = np.concatenate(([phi], sig))
    cols = []
    for j in range(len(theta)):
        h = 1e-5 * abs(theta[j]) + 1e-8
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        g_up, _ = score_and_hessian(groups, (up[0], up[1:]))
        g_dn, _ = score_and_hessian(groups, (dn[0], dn[1:]))
        cols.append((g_up - g_dn) / (2.0 * h))
    return np.column_stack(cols)


class TestScoreAndHessian:
    def random_thetas(self, k, count=10):
        rng = np.random.default_rng(20260815)
        for i in range(count):
            phi = float(rng.uniform(0.05, 1.5))
            if i % 4 == 3:
                phi = -phi  # negative CVs are valid parameters
            yield phi, rng.uniform(0.5, 5.0, size=k)

    def test_gradient_matches_finite_differences(self, toy_study):
        for phi, sig in self.random_thetas(k=2):
            analytic, _ = score_and_hessian(toy_study, (phi, sig))
            fd = _fd_gradient(toy_study, phi, sig)
            scale = np.max(np.abs(analytic))
            assert np.allclose(fd, analytic, rtol=1e-6, atol=1e-6 * scale), (phi, sig)

    def test_hessian_matches_finite_differences(self, toy_study):
        for phi, sig in self.random_thetas(k=2):
            _, analytic = score_and_hessian(toy_study, (phi, sig))
            fd = _fd_hessian(toy_study, phi, sig)
            scale = np.max(np.abs(analytic))
            assert np.allclose(fd, analytic, rtol=1e-4, atol=1e-4 * scale), (phi, sig)

    def test_hessian_symmetric_with_diagonal_sigma_block(self, hospital):
        _, hess = score_and_hessian(hospital, (0.5, np.array([80.0, 60.0, 30.0, 90.0])))
        assert np.array_equal(hess, hess.T)
        sigma_block = hess[1:, 1:]
        off_diagonal = sigma_block - np.diag(np.diag(sigma_block))
        assert np.all(off_diagonal == 0.0)

    def test_stationary_at_mle(self, surveys):
        mle = newton_mle(surveys)
        gradient, _ = score_and_hessian(surveys, mle)
        assert np.max(np.abs(gradient)) < 1e-8 * surveys.n


class TestNewtonStep:
    def test_full_step_direction_on_hospital(self, hospital):
        """From the consistent start the raw Newton displacement points
        from 0.6248 down toward the MLE 0.6015."""
        phi0 = new_estimate(hospital)
        sds = np.array([g.sd for g in hospital])
        gradient, hessian = score_and_hessian(hospital, (phi0, sds))
        move = -np.linalg.solve(hessian, gradient)
        assert phi0 > 0.6015
        assert move[0] < 0.0


class TestNewtonMle:
    @pytest.mark.parametrize(
        "fixture_name, expected",
        [("surveys", SURVEY_MLE), ("hospital", HOSPITAL_MLE)],
    )
    def test_bundled_studies(self, request, fixture_name, expected):
        study = request.getfixturevalue(fixture_name)
        phi, sigmas, ll = expected
        mle = newton_mle(study)
        assert mle.phi == pytest.approx(phi, abs=2e-7)
        assert np.allclose(mle.sigmas, sigmas, atol=2e-5)
        assert log_likelihood(study, mle) == pytest.approx(ll, abs=1e-6)

    @pytest.mark.parametrize("name", sorted(PROFILE_ROOTS_60))
    def test_within_4_ulp_of_60_digit_root(self, request, name):
        study = Study(groups=ROOT_STUDIES[name]) if name in ROOT_STUDIES else request.getfixturevalue(name)
        phi = newton_mle(study).phi
        # Decimal holds the float exactly, so the error is exact too
        error = abs(Decimal(phi) - Decimal(PROFILE_ROOTS_60[name]))
        assert error <= 4 * Decimal(math.ulp(phi))

    def test_bracketed_root_moves_both_ends(self):
        # plain regula falsi keeps the left end of 1 - x**10 on [0, 1.3] for
        # hundreds of steps; the Illinois step reaches the root x = 1 in a few
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 - x**10

        assert _bracketed_root(f, 0.0, 1.3, 1.0, 1.0 - 1.3**10) == 1.0
        assert len(calls) < 30

    def test_secant_within_an_ulp_steps_off_the_end(self, monkeypatch):
        # once the secant point rounds onto an end of the bracket, stepping
        # inward from that end by doubling ulps closes the bracket in a few
        # steps; replacing it by the midpoint took 41 evaluations of h here
        study = study_of(
            [10, 20, 20],
            [1.3160974672289751, 1.048400747866781, 1.1287316249753352],
            [0.6165515787745521, 0.4929610279660905, 0.5628632935100111],
        )
        calls = []

        def counted(f, *bracket):
            return _bracketed_root(lambda p: calls.append(p) or f(p), *bracket)

        monkeypatch.setattr(estimators, "_bracketed_root", counted)
        assert newton_mle(study).phi == float.fromhex("0x1.dde95e3a4032ap-2")
        assert len(calls) <= 10

    def test_printed_precision(self, surveys, hospital):
        assert newton_mle(surveys).phi == pytest.approx(0.0369, abs=1e-4)
        assert newton_mle(hospital).phi == pytest.approx(0.6015, abs=5e-4)

    def test_two_group_oracle(self):
        groups = study_of([5, 7], [2.0, 3.0], [1.0, 0.6])
        phi, sigmas, ll = PAIR_MLE
        mle = newton_mle(groups)
        assert mle.phi == pytest.approx(phi, abs=2e-7)
        assert np.allclose(mle.sigmas, sigmas, atol=2e-5)
        assert log_likelihood(groups, mle) == pytest.approx(ll, abs=1e-6)

    def test_single_group_closed_form(self):
        # k=1 stationarity gives phi = (s/xbar) * sqrt((n-1)/n)
        groups = [SampleSummary(n=10, mean=10.0, sd=2.0)]
        mle = newton_mle(groups)
        assert mle.phi == pytest.approx(0.2 * math.sqrt(0.9), rel=1e-9)

    def test_local_maximum(self, hospital):
        mle = newton_mle(hospital)
        best = log_likelihood(hospital, mle)
        theta = np.concatenate(([mle.phi], mle.sigmas))
        for j in range(len(theta)):
            for bump in (0.99, 1.01, 0.999, 1.001):
                trial = theta.copy()
                trial[j] *= bump
                assert log_likelihood(hospital, (trial[0], trial[1:])) <= best

    def test_scale_invariance(self, hospital):
        for c in (2.0, 0.37):
            scaled = [SampleSummary(n=g.n, mean=c * g.mean, sd=c * g.sd) for g in hospital]
            assert newton_mle(scaled).phi == pytest.approx(newton_mle(hospital).phi, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        base_cv=st.floats(min_value=0.02, max_value=1.5),
        rows=st.lists(
            st.tuples(
                st.integers(min_value=3, max_value=40),
                st.floats(min_value=0.5, max_value=50.0),
                st.floats(min_value=0.5, max_value=2.0),  # per-group CV jitter
            ),
            min_size=2,
            max_size=5,
        ),
    )
    def test_converges_to_stationary_point(self, base_cv, rows):
        """Studies whose group CVs are within a factor ~4 of each other,
        i.e. data the common-CV model is meant for, always converge."""
        groups = study_of(
            [r[0] for r in rows],
            [r[1] for r in rows],
            [r[1] * base_cv * r[2] for r in rows],
        )
        mle = newton_mle(groups)
        gradient, _ = score_and_hessian(groups, mle)
        n = sum(r[0] for r in rows)
        assert np.max(np.abs(gradient)) < 1e-9 * n

    def check_oracle(self, groups, expected):
        phi, sigmas, ll = expected
        mle = newton_mle(groups)
        assert mle.phi == pytest.approx(phi, abs=2e-7)
        assert np.allclose(mle.sigmas, sigmas, atol=2e-5)
        assert log_likelihood(groups, mle) == pytest.approx(ll, abs=1e-6)

    def test_interior_maximum_on_wildly_misspecified_data(self):
        # group CVs of 4.0 and 0.0043 (ratio ~930): the interior maximum
        # lies two orders of magnitude above the consistent start
        groups = study_of([3, 14], [1.0, 29.0], [4.0, 0.125])
        assert new_estimate(groups) < 0.01
        self.check_oracle(groups, WIDE_MLE)

    def test_maximum_far_above_consistent_start(self):
        # group CVs 3.0 and 0.01: the start is 0.0199, the MLE 0.973
        groups = study_of([5, 5], [1.0, 1.0], [3.0, 0.01])
        assert new_estimate(groups) == pytest.approx(0.0199, abs=1e-4)
        self.check_oracle(groups, CV3_MLE)

    def test_mixed_sign_means_with_a_maximum(self):
        # phi follows the sign of the consistent start; the group of the
        # other sign takes the other root for its sigma
        groups = study_of([5, 5], [1.0, -1.0], [0.1, 0.2])
        mle = newton_mle(groups)
        assert mle.phi > 0.0
        gradient, hessian = score_and_hessian(groups, mle)
        assert np.max(np.abs(gradient)) < 1e-9 * 10  # n = 10
        assert np.all(np.linalg.eigvalsh(hessian) < 0.0)

    # Valid studies whose (n_i-1) sd_i^2 / (n_i mean_i^2) leaves the float range:
    # sd^2 and mean^2 overflow (q is NaN), mean^2 underflows, and q underflows.
    # Then finite q_i above 2^510 (about 3.4e153), where h or a sigma could
    # overflow: one huge group CV, two of them, and a max q_i of 8e153.
    @pytest.mark.parametrize("ns, means, sds", [
        pytest.param([5, 7], [1e160, 2e160], [1e159, 3e159], id="squares overflow"),
        pytest.param([5, 7], [1e-170, 2e-170], [1e-170, 3e-170], id="mean squared underflows"),
        pytest.param([5, 7], [1.0, 2.0], [1e-170, 0.4], id="q underflows"),
        *(pytest.param([5, 7], [1.0, 2.0], [sd, 0.4], id=f"group CV {sd:g}") for sd in (1e100, 1e150)),
        pytest.param([5, 7], [1.0, 1.0], [1e100, 1.1e100], id="group CVs 1e100 and 1.1e100"),
        pytest.param([5, 7], [1.0, 2.0], [1e77, 2e77], id="group CVs 1e77 and 1e77"),
    ])
    def test_scale_outside_float_range_is_numerical_error(self, ns, means, sds):
        with pytest.raises(NumericalError, match=NOT_FINITE_Q):
            newton_mle(study_of(ns, means, sds))

    def test_mixed_sign_means_without_a_maximum(self):
        # the group of the other sign outweighs the rest: the profile score
        # stays positive for every |phi| up to the search limit 1e6
        groups = study_of([10, 12], [1.0, -1.0], [0.1, 0.15])
        with pytest.raises(NoConvergenceError):
            newton_mle(groups)

    @settings(max_examples=50, deadline=None)
    @given(
        base_cv=st.floats(min_value=0.02, max_value=1.5),
        rows=st.lists(
            st.tuples(
                st.integers(min_value=3, max_value=40),
                st.floats(min_value=0.5, max_value=50.0),
                st.floats(min_value=-3.0, max_value=3.0),  # log10 of the CV jitter
            ),
            min_size=2,
            max_size=5,
        ),
        negative=st.booleans(),
    )
    def test_profile_maximum(self, base_cv, rows, negative):
        """Group CVs up to 1e6 apart, means of either sign: the estimate is
        odd in the means, a strict local maximum of the likelihood, and the
        oracle's profile likelihood is no higher a relative 1e-6 away."""
        counts = [r[0] for r in rows]
        means = (-1.0 if negative else 1.0) * np.array([r[1] for r in rows])
        sds = np.abs(means) * base_cv * 10.0 ** np.array([r[2] for r in rows])
        groups = study_of(counts, means, sds)
        mle = newton_mle(groups)

        flipped = newton_mle(study_of(counts, -means, sds))
        assert flipped.phi == -mle.phi
        assert flipped.sigmas == mle.sigmas

        _, hessian = score_and_hessian(groups, mle)
        assert np.all(np.linalg.eigvalsh(hessian) < 0.0)

        ns = np.array(counts, dtype=float)
        a = (ns - 1.0) * sds**2
        def profile(phi):
            return loglik(phi, profile_sigmas(phi, ns, means, a), ns, means, a)
        best = profile(mle.phi)
        # the drop a relative 1e-6 away is about n*1e-12/(1 + 2*phi^2); for
        # |phi| above a few it falls under the rounding of the sum itself
        slack = 1e-14 * (abs(best) + ns.sum())
        for bump in (1.0 - 1e-6, 1.0 + 1e-6):
            assert profile(mle.phi * bump) <= best + slack


class TestVjInterval:
    def test_surveys_regression(self, surveys):
        iv = vj_interval(surveys, 0.95)
        assert iv.lower == pytest.approx(0.0325617077941677, rel=1e-12)
        assert iv.upper == pytest.approx(0.0413953287025185, rel=1e-12)
        assert iv.length == pytest.approx(0.0088336209083508, rel=1e-10)

    def test_hospital_regression(self, hospital):
        iv = vj_interval(hospital, 0.95)
        assert iv.lower == pytest.approx(0.3681601324676382, rel=1e-12)
        assert iv.upper == pytest.approx(0.8348093627786493, rel=1e-12)

    def test_metadata(self, surveys):
        iv = vj_interval(surveys, 0.95)
        assert iv.method is Method.VERRILL_JOHNSON
        assert iv.draws == 0
        assert iv.seed is None

    def test_centered_at_mle(self, surveys):
        iv = vj_interval(surveys, 0.95)
        mid = (iv.lower + iv.upper) / 2.0
        assert mid == pytest.approx(newton_mle(surveys).phi, rel=1e-12)

    def test_half_width_formula(self, hospital):
        phi = newton_mle(hospital).phi
        iv = vj_interval(hospital, 0.90)
        z = 1.6448536269514722  # standard normal 95th percentile
        half = z * math.sqrt((phi**4 + phi**2 / 2.0) / hospital.n)
        assert (iv.upper - iv.lower) / 2.0 == pytest.approx(half, rel=1e-9)

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99, 0.999999])
    def test_normal_quantile_matches_scipy(self, monkeypatch, level):
        # with phi = 2**40 and n = 4 the half-width is exactly z * 2**79, so
        # the endpoints give z back to within one rounding of each
        monkeypatch.setattr(
            "common_cv.estimators.newton_mle",
            lambda study: ParameterVector(phi=2.0**40, sigmas=(1.0, 1.0)),
        )
        iv = vj_interval(Study(groups=tuple(study_of([2, 2], [1.0, 2.0], [0.5, 0.5]))), level)
        z = (iv.upper - iv.lower) / 2.0**80
        assert z == pytest.approx(norm.ppf(0.5 + level / 2.0), rel=1e-15, abs=0.0)

    def test_largest_level_below_one(self, surveys):
        # 0.5 + level / 2 rounds to 1.0 here, where the normal quantile is infinite
        widest = vj_interval(surveys, 0.9999999999999999)
        inner = vj_interval(surveys, 0.999999)
        assert math.isfinite(widest.lower) and math.isfinite(widest.upper)
        assert widest.lower < inner.lower < inner.upper < widest.upper
        assert (widest.upper - widest.lower) / (inner.upper - inner.lower) == pytest.approx(
            norm.isf((1.0 - 0.9999999999999999) / 2.0) / norm.ppf(0.5 + 0.999999 / 2.0), rel=1e-9
        )

    def test_level_shrinks_to_point(self, surveys):
        tiny = vj_interval(surveys, 1e-9)
        assert tiny.length < 1e-9
        assert tiny.contains(newton_mle(surveys).phi)

    def test_nested_levels(self, surveys):
        inner = vj_interval(surveys, 0.90)
        outer = vj_interval(surveys, 0.99)
        assert outer.lower < inner.lower < inner.upper < outer.upper

    def test_sequence_of_groups_matches_its_study(self, hospital):
        records = [(g.n, g.mean, g.sd) for g in hospital]
        assert vj_interval(records, 0.9) == vj_interval(list(hospital.groups), 0.9) == vj_interval(hospital, 0.9)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, "0.95", None, 1j, True])
    def test_rejects_bad_level(self, surveys, level):
        with pytest.raises(ValidationError):
            vj_interval(surveys, level)

    def test_scale_invariant(self, hospital):
        scaled = Study(groups=tuple(
            SampleSummary(n=g.n, mean=0.5 * g.mean, sd=0.5 * g.sd) for g in hospital
        ))
        base = vj_interval(hospital, 0.95)
        other = vj_interval(scaled, 0.95)
        assert other.lower == pytest.approx(base.lower, rel=1e-9)
        assert other.upper == pytest.approx(base.upper, rel=1e-9)


# a group whose inverse CV (an sd of 1e-320 beside a mean of 1) or CV (an sd
# of 1e300 beside a mean of 1e-300) leaves the float range
OVERFLOWING = {
    "tiny sd": study_of((5, 5), (1.0, 1.0), (1e-320, 0.3)),
    "huge cv": study_of((5, 5), (1e-300, 1.0), (1e300, 0.3)),
}


class TestOverflowingGroup:
    """An overflowing CV or inverse CV reads inf, with no RuntimeWarning,
    and the MLE rejects the group's q_i of 0 or inf."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("name, cvs", [("tiny sd", [1e-320, 0.3]), ("huge cv", [math.inf, 0.3])])
    def test_group_cvs(self, name, cvs):
        assert group_cvs(OVERFLOWING[name]).tolist() == cvs

    @pytest.mark.parametrize("name, estimate", [("tiny sd", 0.15), ("huge cv", math.inf)])
    def test_feltz_miller(self, name, estimate):
        assert feltz_miller_estimate(OVERFLOWING[name]) == pytest.approx(estimate, rel=1e-15)

    @pytest.mark.parametrize("name, estimate", [("tiny sd", 0.0), ("huge cv", 0.6)])
    def test_new_estimate(self, name, estimate):
        assert new_estimate(OVERFLOWING[name]) == pytest.approx(estimate, rel=1e-15)

    @pytest.mark.parametrize("name", OVERFLOWING)
    def test_newton_mle(self, name):
        with pytest.raises(NumericalError, match=NOT_FINITE_Q):
            newton_mle(OVERFLOWING[name])

    @pytest.mark.parametrize("name", OVERFLOWING)
    def test_vj_interval(self, name):
        with pytest.raises(NumericalError, match=NOT_FINITE_Q):
            vj_interval(OVERFLOWING[name], 0.95)

    @pytest.mark.parametrize("name", OVERFLOWING)
    def test_intervals(self, name):
        results = intervals(OVERFLOWING[name], ALL_METHODS, 0.95, 300, 0)
        assert list(results) == list(ALL_METHODS)
        assert isinstance(results.pop(Method.VERRILL_JOHNSON), NumericalError)
        assert all(result.lower <= result.upper for result in results.values())


class TestGroupsReadOnce:
    ESTIMATES = [
        pytest.param(feltz_miller_estimate, id="feltz_miller"),
        pytest.param(new_estimate, id="new"),
        pytest.param(newton_mle, id="mle"),
        pytest.param(lambda groups: vj_interval(groups, 0.95), id="vj"),
    ]

    @pytest.mark.parametrize("estimate", ESTIMATES)
    def test_one_shot_iterator_matches_its_list(self, hospital, estimate):
        # newton_mle and vj_interval read their groups more than once
        groups = list(hospital.groups)
        assert estimate(iter(groups)) == estimate(groups) == estimate(hospital)

    @pytest.mark.parametrize("estimate", [
        *ESTIMATES,
        pytest.param(group_cvs, id="group_cvs"),
        pytest.param(lambda groups: log_likelihood(groups, (0.5, ())), id="log_likelihood"),
        pytest.param(lambda groups: score_and_hessian(groups, (0.5, ())), id="score_and_hessian"),
    ])
    @pytest.mark.parametrize("empty", [lambda: [], lambda: iter(())], ids=["list", "iterator"])
    def test_no_groups_rejected(self, estimate, empty):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooFewGroupsError, match="empty study"):
                estimate(empty())

    @pytest.mark.parametrize("estimate", ESTIMATES)
    def test_one_group_estimated(self, hospital, estimate):
        one = hospital.groups[:1]
        assert estimate(one) == estimate(list(one))


def test_summarize_feeds_estimators():
    a = summarize([176, 105, 266, 227, 66], label="w1")
    b = summarize([24, 5, 155, 54], label="w2")
    est = new_estimate([a, b])
    assert 0 < est < group_cvs([a, b]).max()
