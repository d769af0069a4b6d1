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
and the asymptotic (Wald) interval built on it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.stats import norm

from .errors import (
    DegenerateDenominatorError,
    NoConvergenceError,
    ValidationError,
)
from .model import IntervalResult, Method, ParameterVector, SampleSummary, Study, group_arrays

_PHI_MAX = 1e6  # largest |phi| searched for the MLE
_EPS = float(np.finfo(float).eps)
_XTOL = float(np.finfo(float).tiny)


def group_cvs(study: Study | Sequence[SampleSummary]) -> np.ndarray:
    """Per-group sample coefficients of variation sd_i/mean_i."""
    g = group_arrays(study)
    return g.sds / g.means


def feltz_miller_estimate(study: Study | Sequence[SampleSummary]) -> float:
    """Pooled CV as the size-weighted arithmetic mean of group CVs."""
    ns, means, sds, _ = group_arrays(study)
    return float(np.sum(ns * (sds / means)) / np.sum(ns))


def new_estimate(study: Study | Sequence[SampleSummary]) -> float:
    """Pooled CV as the size-weighted harmonic mean of group CVs.

    Equals n / sum_i(n_i * mean_i/sd_i); errors if the weighted sum of
    inverse CVs cancels to exactly zero (possible with mixed-sign means).
    """
    ns, means, sds, _ = group_arrays(study)
    denom = float(np.sum(ns * (means / sds)))
    if denom == 0.0:
        raise DegenerateDenominatorError("weighted inverse CVs sum to zero")
    return float(np.sum(ns)) / denom


def _theta_arrays(theta: ParameterVector | tuple) -> tuple[float, np.ndarray]:
    if isinstance(theta, ParameterVector):
        return theta.phi, np.asarray(theta.sigmas, dtype=float)
    phi, sigmas = theta
    return float(phi), np.asarray(sigmas, dtype=float)


class _Likelihood:
    """Sufficient statistics of one study, with the likelihood, gradient and
    Hessian as plain-array evaluations (no per-call Study traversal)."""

    def __init__(self, study):
        self.ns, self.means, self.sds, _ = group_arrays(study)
        self.a = (self.ns - 1.0) * self.sds**2
        self.constant = 0.5 * float(self.ns.sum()) * math.log(2.0 * math.pi)

    def value(self, phi: float, sig: np.ndarray) -> float:
        resid = self.means - sig / phi
        ss = self.a + self.ns * resid * resid
        return float(np.sum(-self.ns * np.log(sig) - ss / (2.0 * sig * sig)) - self.constant)

    def score_hessian(self, phi: float, sig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ns, means = self.ns, self.means
        k = len(ns)
        resid = means - sig / phi  # d(resid)/d(phi) = sig/phi^2, d/d(sigma_i) = -1/phi
        ss = self.a + ns * resid**2

        g_phi = float(np.sum(-ns * resid / (sig * phi**2)))
        g_sig = -ns / sig + ss / sig**3 + ns * resid / (sig**2 * phi)

        h_phiphi = float(np.sum(-ns / phi**4 + 2.0 * ns * resid / (sig * phi**3)))
        h_phisig = ns * means / (phi**2 * sig**2)
        h_sigsig = ns / sig**2 - 3.0 * ss / sig**4 - 4.0 * ns * resid / (phi * sig**3) - ns / (phi**2 * sig**2)

        gradient = np.concatenate(([g_phi], g_sig))
        hessian = np.zeros((k + 1, k + 1))
        hessian[0, 0] = h_phiphi
        hessian[0, 1:] = h_phisig
        hessian[1:, 0] = h_phisig
        hessian[np.arange(1, k + 1), np.arange(1, k + 1)] = h_sigsig
        return gradient, hessian


def log_likelihood(study: Study | Sequence[SampleSummary], theta: ParameterVector | tuple) -> float:
    phi, sig = _theta_arrays(theta)
    return _Likelihood(study).value(phi, sig)


def score_and_hessian(
    study: Study | Sequence[SampleSummary], theta: ParameterVector | tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient and Hessian of the log likelihood at theta.

    Ordering is (phi, sigma_1..sigma_k).  The sigma block of the Hessian is
    diagonal because groups only interact through phi.
    """
    phi, sig = _theta_arrays(theta)
    return _Likelihood(study).score_hessian(phi, sig)


def newton_mle(study: Study | Sequence[SampleSummary]) -> ParameterVector:
    """Maximum likelihood estimate of (phi, sigma_1..sigma_k).

    For fixed phi the likelihood is maximized by sigma_i = phi*mean_i*u_i,
    where u_i is the root of p*u^2 + u = 1 + q_i that makes sigma_i
    positive (p = phi^2, q_i = (n_i-1)*sd_i^2/(n_i*mean_i^2)).  The profile
    score is then h(p)/phi^3 with h(p) = sum_i n_i*(1 - 1/u_i), so the MLE
    is the root of h, located by Brent's method to rounding accuracy; phi
    takes the sign of :func:`new_estimate`.

    A group whose mean has phi's sign contributes n_i*d_i/(1 + d_i), with
    d_i = u_i - 1 written free of cancellation; it has the sign of q_i - p.
    A group of the other sign contributes a positive term.  So the root
    lies in [min q_i, max q_i] over the groups of phi's sign, except that
    with mixed signs the upper end is quadrupled until h < 0.  Raises
    NoConvergenceError if h stays positive up to |phi| = 1e6.
    """
    ns, means, sds, _ = group_arrays(study)
    sign = math.copysign(1.0, new_estimate(study))
    q = (ns - 1.0) * sds**2 / (ns * means**2)
    same = sign * means > 0.0

    def parts(p: float) -> tuple[np.ndarray, np.ndarray]:
        root_s = np.sqrt(1.0 + 4.0 * p * (1.0 + q))
        d = 4.0 * (q - p) * (1.0 + q) / ((1.0 + root_s) * (1.0 + 2.0 * q + root_s))
        return d, root_s

    def h(p: float) -> float:
        d, root_s = parts(p)
        other = (1.0 + 2.0 * q + root_s) / (2.0 * (1.0 + q))
        return float(np.sum(ns * np.where(same, d / (1.0 + d), other)))

    lo, hi = float(q[same].min()), float(q[same].max())
    while h(hi) > 0.0:
        if hi >= _PHI_MAX**2:
            raise NoConvergenceError(f"profile score stays positive up to |phi| = {_PHI_MAX:g}")
        lo, hi = hi, 4.0 * hi
    p = brentq(h, lo, hi, xtol=_XTOL, rtol=4.0 * _EPS)
    d, root_s = parts(p)
    u = np.where(same, 1.0 + d, -(1.0 + root_s) / (2.0 * p))
    phi = sign * math.sqrt(p)
    return ParameterVector(phi=phi, sigmas=tuple(phi * means * u))


def vj_interval(study: Study, level: float) -> IntervalResult:
    """Asymptotic (Wald) interval around the maximum likelihood CV.

    phi_hat +/- z_{alpha/2} * sqrt((phi_hat^4 + phi_hat^2/2) / n), where n
    is the total observation count.  Deterministic, so the result carries
    draws=0 and no seed.
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"confidence level must be in (0, 1), got {level}")
    phi = newton_mle(study).phi
    n_total = study.n
    z = float(norm.ppf(0.5 + level / 2.0))
    half = z * math.sqrt((phi**4 + phi**2 / 2.0) / n_total)
    return IntervalResult(
        method=Method.VERRILL_JOHNSON,
        level=level,
        lower=phi - half,
        upper=phi + half,
        draws=0,
        seed=None,
    )
