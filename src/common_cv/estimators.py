"""Point estimators and the likelihood machinery for the common CV model.

Groups are independent samples x_ij ~ Normal(mu_i, sigma_i^2), j = 1..n_i,
constrained to share one coefficient of variation phi = sigma_i/mu_i.  With
theta = (phi, sigma_1..sigma_k) and mu_i = sigma_i/phi, the log likelihood
in terms of the sufficient statistics (n_i, mean_i, sd_i) is

    sum_i [ -n_i*ln(sigma_i)
            - ((n_i-1)*sd_i^2 + n_i*(mean_i - sigma_i/phi)^2) / (2*sigma_i^2) ]
    - (n/2)*ln(2*pi),            n = sum_i n_i.

Three closed-form estimators are provided, plus the maximum likelihood
estimate, found as the root of the one-dimensional profile score in phi,
and the asymptotic (Wald) interval built on it.  The two pooled
estimators, the MLE, the interval and the likelihood functions each take
a Study or any iterable of groups, which they read once; an empty one
raises TooFewGroupsError, while a single group is estimated.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import DegenerateDenominatorError, NoConvergenceError, NumericalError, ValidationError
from .model import IntervalResult, Method, ParameterVector, SampleSummary, Study, _read_once, group_arrays
from .randgen import checked_real

_PHI_MAX = 1e6  # largest |phi| searched for the MLE
_Q_MAX = 2.0**510  # largest q_i searched: with p and every q_i at most 2^510, no product in h or sigma overflows


def group_cvs(study: Study | Sequence[SampleSummary]) -> np.ndarray:
    """Per-group sample coefficients of variation sd_i/mean_i."""
    g = group_arrays(_read_once(study))
    with np.errstate(over="ignore"):  # a CV beyond the float range reads inf
        return g.sds / g.means


def feltz_miller_estimate(study: Study | Sequence[SampleSummary]) -> float:
    """Pooled CV as the size-weighted arithmetic mean of group CVs.

    NumericalError if the CVs include both +inf and -inf, which have no sum.
    """
    ns, means, sds, _ = group_arrays(_read_once(study))
    with np.errstate(over="ignore", invalid="ignore"):  # a CV beyond the float range reads inf; inf - inf, nan
        total = float(np.sum(ns * (sds / means)))
    if math.isnan(total):
        raise NumericalError("group CVs of +inf and -inf have no weighted mean")
    return total / float(np.sum(ns))


def new_estimate(study: Study | Sequence[SampleSummary]) -> float:
    """Pooled CV as the size-weighted harmonic mean of group CVs.

    Equals n / sum_i(n_i * mean_i/sd_i); errors if the weighted sum of
    inverse CVs cancels to exactly zero (possible with mixed-sign means) or
    adds inverse CVs of +inf and -inf.
    """
    ns, means, sds, _ = group_arrays(_read_once(study))
    return float(np.sum(ns)) / _inverse_cv_sum(ns, means, sds)


def _inverse_cv_sum(ns, means, sds) -> float:
    """sum_i n_i*mean_i/sd_i, the denominator of :func:`new_estimate`, or
    DegenerateDenominatorError if it is exactly zero or has no value, as
    when the inverse CVs include both +inf and -inf."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inverse CV beyond the float range reads inf; inf - inf, nan
        denom = float(np.sum(ns * (means / sds)))
    if denom == 0.0:
        raise DegenerateDenominatorError("weighted inverse CVs sum to zero")
    if math.isnan(denom):
        raise DegenerateDenominatorError("weighted inverse CVs of +inf and -inf have no sum")
    return denom


def _theta_arrays(study: Study | Sequence[SampleSummary], theta: ParameterVector | tuple) -> tuple:
    """(ns, means, phi, sigmas, resid, ss) of the likelihood at theta.

    The groups are read once first, so no groups raise TooFewGroupsError
    whatever theta is.  theta, a ParameterVector or a (phi, sigmas) pair,
    is checked by ParameterVector and must hold one sigma for each group;
    anything else raises ValidationError.  resid_i = mean_i - sigma_i/phi
    and ss_i = (n_i-1)*sd_i^2 + n_i*resid_i^2, as in the module docstring.
    """
    ns, means, sds, _ = group_arrays(_read_once(study))
    if not isinstance(theta, ParameterVector):
        if not isinstance(theta, (Sequence, np.ndarray)) or len(theta) != 2:
            raise ValidationError(f"theta must be a ParameterVector or a (phi, sigmas) pair, got {theta!r}")
        theta = ParameterVector(*theta)
    if len(theta.sigmas) != len(ns):
        raise ValidationError(f"need one sigma per group ({len(ns)}), got {len(theta.sigmas)}")
    sig = np.asarray(theta.sigmas, dtype=float)
    resid = means - sig / theta.phi  # d(resid)/d(phi) = sig/phi^2, d/d(sigma_i) = -1/phi
    return ns, means, theta.phi, sig, resid, (ns - 1.0) * sds**2 + ns * resid**2


def log_likelihood(study: Study | Sequence[SampleSummary], theta: ParameterVector | tuple) -> float:
    """Log likelihood of the study at theta, a ParameterVector or a
    (phi, sigmas) pair.

    A pair is checked as :class:`ParameterVector` checks its fields, so a
    zero or non-finite phi and a sigma that is not a finite positive real
    raise ValidationError; so does a sigma count other than the study's k.
    No groups at all raise TooFewGroupsError.
    """
    ns, _, _, sig, _, ss = _theta_arrays(study, theta)
    return float(np.sum(-ns * np.log(sig) - ss / (2.0 * sig * sig)) - 0.5 * float(ns.sum()) * math.log(2.0 * math.pi))


def score_and_hessian(
    study: Study | Sequence[SampleSummary], theta: ParameterVector | tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian of the log likelihood at theta.

    Ordering is (phi, sigma_1..sigma_k).  The sigma block of the Hessian is
    diagonal because groups only interact through phi.  theta and the
    groups are checked as :func:`log_likelihood` checks them.
    """
    ns, means, phi, sig, resid, ss = _theta_arrays(study, theta)

    g_phi = float(np.sum(-ns * resid / (sig * phi**2)))
    g_sig = -ns / sig + ss / sig**3 + ns * resid / (sig**2 * phi)

    h_phiphi = float(np.sum(-ns / phi**4 + 2.0 * ns * resid / (sig * phi**3)))
    h_phisig = ns * means / (phi**2 * sig**2)
    h_sigsig = ns / sig**2 - 3.0 * ss / sig**4 - 4.0 * ns * resid / (phi * sig**3) - ns / (phi**2 * sig**2)

    hessian = np.diag((h_phiphi, *h_sigsig))
    hessian[0, 1:] = hessian[1:, 0] = h_phisig
    return np.concatenate(([g_phi], g_sig)), hessian


def _bracketed_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f in [a, b], given fa = f(a) >= 0 >= f(b) = fb.

    Regula falsi with the Illinois step: an endpoint kept twice in a row has
    its f value halved in the secant, so both ends of the bracket move.  A
    secant point that rounds onto an end of the bracket, as it does once
    the secant lands within an ulp of the root, is replaced by a point that
    far inside that end: one ulp, doubled on each repeat in a row, and never
    past the midpoint.  Stops when f is exactly zero at an end, or when the
    bracket holds no float between its ends, and returns the end with the
    smaller |f|.
    """
    wa, wb = fa, fb  # secant weights: f at the ends, halved by the Illinois step
    moved = 0  # +1 if a moved last, -1 if b did
    ulps = 1  # the step inside an end, in ulps of that end
    while True:
        mid = 0.5 * (a + b)
        if fa == 0.0 or fb == 0.0 or mid == a or mid == b:
            return a if fa <= -fb else b
        c = a + (b - a) * (wa / (wa - wb))
        if a < c < b:
            ulps = 1
        else:
            c = min(a + ulps * math.ulp(a), mid) if c <= a else max(b - ulps * math.ulp(b), mid)
            ulps *= 2
        fc = f(c)
        if fc >= 0.0:
            if moved == 1:
                wb *= 0.5
            a, fa, wa, moved = c, fc, fc, 1
        else:
            if moved == -1:
                wa *= 0.5
            b, fb, wb, moved = c, fc, fc, -1


def newton_mle(study: Study | Sequence[SampleSummary]) -> ParameterVector:
    """Maximum likelihood estimate of (phi, sigma_1..sigma_k).

    For fixed phi the likelihood is maximized by sigma_i = phi*mean_i*u_i,
    where u_i is the root of p*u^2 + u = 1 + q_i that makes sigma_i
    positive (p = phi^2, q_i = (n_i-1)*sd_i^2/(n_i*mean_i^2)).  The profile
    score is then h(p)/phi^3 with h(p) = sum_i n_i*(1 - 1/u_i), so the MLE
    is the root of h, located by a bracketed secant search that narrows
    the bracket to adjacent floats (:func:`_bracketed_root`); phi takes the
    sign of :func:`new_estimate`, read from its denominator, so a study
    whose inverse CVs sum to exactly zero raises as it does.

    A group whose mean has phi's sign contributes
    n_i*2*(q_i - p)/(1 + 2*q_i + R_i), with R_i = sqrt(1 + 4*p*(1 + q_i)):
    one division, free of cancellation, with the exact sign of q_i - p.
    A group of the other sign contributes a positive term.  So the root
    lies in [min q_i, max q_i] over the groups of phi's sign, except that
    with mixed signs the upper end is quadrupled until h < 0.  Raises
    NumericalError before the search if a q_i is not a positive float of
    at most 2^510, as when sd_i^2 or mean_i^2 leaves the float range, and
    NoConvergenceError, only with mixed signs, if h stays positive up to
    |phi| = 1e6.

    h is evaluated on plain floats: k is small, and a numpy call costs more
    than the arithmetic on a few groups.
    """
    ns, means, sds, _ = group_arrays(_read_once(study))
    sign = math.copysign(1.0, _inverse_cv_sum(ns, means, sds))
    # per group: n_i, q_i, and whether the mean has phi's sign
    groups = [
        (n, (n - 1.0) * (sd * sd) / (n * (mean * mean)) if mean * mean else math.nan, sign * mean > 0.0)
        for n, mean, sd in zip(ns.tolist(), means.tolist(), sds.tolist())
    ]
    if not all(0.0 < q <= _Q_MAX for _, q, _ in groups):
        raise NumericalError("a group's (n-1) sd^2 / (n mean^2) is not a finite positive float <= 2^510")

    def h(p: float) -> float:
        total = 0.0
        for n, q, same in groups:
            s = 1.0 + 2.0 * q + math.sqrt(1.0 + 4.0 * p * (1.0 + q))
            total += n * (2.0 * (q - p) / s if same else s / (2.0 * (1.0 + q)))
        return total

    same_qs = [q for _, q, same in groups if same]
    lo, hi = min(same_qs), max(same_qs)
    h_lo, h_hi = h(lo), h(hi)
    while h_hi > 0.0:
        if hi >= _PHI_MAX**2:
            raise NoConvergenceError(f"profile score stays positive up to |phi| = {_PHI_MAX:g}")
        lo, h_lo, hi = hi, h_hi, 4.0 * hi
        h_hi = h(hi)
    p = _bracketed_root(h, lo, hi, h_lo, h_hi)
    phi = sign * math.sqrt(p)
    sigmas = []
    for (_, q, same), mean in zip(groups, means.tolist()):
        r = math.sqrt(1.0 + 4.0 * p * (1.0 + q))
        u = 1.0 + 4.0 * (q - p) * (1.0 + q) / ((1.0 + r) * (1.0 + 2.0 * q + r)) if same else -(1.0 + r) / (2.0 * p)
        sigmas.append(phi * mean * u)
    return ParameterVector(phi=phi, sigmas=tuple(sigmas))


def vj_interval(study: Study | Sequence[SampleSummary], level: float) -> IntervalResult:
    """Asymptotic (Wald) interval around the maximum likelihood CV.

    phi_hat +/- z_{alpha/2} * sqrt((phi_hat^4 + phi_hat^2/2) / n), where n
    is the total observation count.  ``study`` is a Study or a sequence of
    groups, each checked as :class:`Study` checks it.  Deterministic, so
    the result carries draws=0 and no seed.
    """
    level = checked_real(level, "confidence level", 0.0, 1.0)
    study = _read_once(study)
    phi = newton_mle(study).phi
    p = 0.5 + level / 2.0
    # p rounds to 1.0 at the largest level below 1, where the lower tail still gives z
    z = NormalDist().inv_cdf(p) if p < 1.0 else -NormalDist().inv_cdf((1.0 - level) / 2.0)
    half = z * math.sqrt((phi**4 + phi**2 / 2.0) / group_arrays(study).ns.sum())
    return IntervalResult(method=Method.VERRILL_JOHNSON, level=level, lower=phi - half, upper=phi + half)
