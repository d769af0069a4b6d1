"""Monte Carlo pivotal draws for the common coefficient of variation.

Each replicate substitutes fresh chi-square and normal variates into the
observed summary statistics, yielding one draw from a pivotal quantity
whose percentiles bound phi.  Per replicate the base randomness layout is
fixed: k chi-squares U_i with n_i - 1 degrees of freedom, then k normals
Z_i, then one spare normal.  Every method reads from that same layout
(spare and unused variates are still drawn), so under one seed the Tian,
new, and combined pivotal values are different functions of identical
randomness.

Draw formulas, with r_i = mean_i/sd_i, n = sum n_i, and
D_i = r_i*sqrt(U_i/(n_i-1)) - Z_i/sqrt(n_i):

    tian:      weighted mean of the 1/D_i:  sum_i w_i/D_i / sum_i w_i,  w_i = n_i - 1
    new:       weighted harmonic counterpart:  n / sum_i n_i*D_i
    combined:  the plain average of the two

All three come from the same D: the engine builds it once per block of
replicates and derives every pivot from it.

The new pivot is often written with a single standard normal Z against the
pooled rate, n / (sum_i n_i*sqrt(U_i/(n_i-1))*r_i - sqrt(n)*Z).  That Z
stands for the standardized deviation of the pooled inverse-CV estimate,
which the per-group deviations determine: sqrt(n)*Z = sum_i sqrt(n_i)*Z_i.
Realizing Z this way leaves the new pivot's own distribution unchanged (an
independent draw would too) but fixes the joint distribution of the two
pivots, which is what the combined average depends on.

A replicate whose value is not finite (an exactly zero denominator, or
overflow) is degenerate for that method.  It is regenerated from a
per-replicate sub-stream and counted in ``rejected``; results are
therefore independent of how replicates are scheduled.  Degeneracy is
judged per method, and so is failure: a method whose degenerate draws
exceed 1%, or whose replicate stays degenerate, fails alone.  Draws can be negative: the pivotal distributions have heavy
tails when any group's mean/sd ratio is small, and no truncation is
applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DegenerateRateError,
    NumericalError,
    ValidationError,
)
from .estimators import vj_interval
from .model import (
    Alternative,
    GroupArrays,
    IntervalResult,
    Method,
    PIVOTAL_METHODS,
    SampleSummary,
    Study,
    TestResult,
    group_arrays,
)
from .randgen import ROLE_PIVOT_BLOCK, ROLE_RESAMPLE, SeededStream

_MIN_DRAWS = 100
_MAX_DRAWS = 10**7  # one float array and one mask per method: about 90 MB each
_BLOCK = 1 << 15
_MAX_RESAMPLE_ATTEMPTS = 1000
_MAX_REJECTED_FRACTION = 0.01


@dataclass(frozen=True)
class PivotalDraws:
    """Monte Carlo draws of one pivotal quantity.

    ``rejected`` counts degenerate draws that were discarded and
    regenerated; ``values`` always holds exactly the requested m draws.
    """

    method: Method
    values: np.ndarray
    seed: int
    rejected: int

    @property
    def m(self) -> int:
        return int(self.values.size)


def _variates(stream: SeededStream, dfs: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """One block of the base layout: (b, k) chi-squares and normals.  The
    spare normal of each replicate is drawn but no pivot uses it."""
    u = stream.chi_square(dfs, size=(b, dfs.size))
    zg = stream.standard_normal((b, dfs.size))
    stream.standard_normal(b)
    return u, zg


def _pivot_values(groups: GroupArrays, u: np.ndarray, zg: np.ndarray) -> dict:
    """All three pivots from one D per replicate.

    u and zg are (b, k) arrays; returns {method: (values, degenerate_mask)},
    both of length b.  A value is degenerate when it is not finite, which
    includes every zero denominator.
    """
    ns, means, sds, dfs = groups
    d = means / sds * np.sqrt(u / dfs) - zg / np.sqrt(ns)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tian = np.sum(dfs / d, axis=1) / dfs.sum()
        new = ns.sum() / np.sum(ns * d, axis=1)
        combined = 0.5 * (tian + new)
    return {
        method: (vals, ~np.isfinite(vals))
        for method, vals in ((Method.TIAN, tian), (Method.NEW, new), (Method.COMBINED, combined))
    }


def _single_draw(groups: GroupArrays, method: Method, u, z) -> float:
    vals, bad = _pivot_values(groups, np.atleast_2d(u), np.atleast_2d(z))[method]
    if bad[0]:
        raise DegenerateDenominatorError("pivotal draw is not finite (zero denominator or overflow)")
    return float(vals[0])


def tian_draw(study: Study | Sequence[SampleSummary], u: Sequence[float], z: Sequence[float]) -> float:
    """One draw of the group-weighted pivotal (weights n_i - 1)."""
    return _single_draw(group_arrays(study), Method.TIAN, u, z)


def new_method_draw(study: Study | Sequence[SampleSummary], u: Sequence[float], z_common: float) -> float:
    """One draw of the pooled inverse-CV pivotal.

    z_common is the standard normal attached to the pooled estimate; it
    enters as per-group normals z_i = z_common*sqrt(n_i)/sqrt(n), for which
    sum_i sqrt(n_i)*z_i = sqrt(n)*z_common.  To pair a draw with given z_i
    (as the engine does), pass sum_i sqrt(n_i)*z_i / sqrt(n).
    """
    groups = group_arrays(study)
    z = z_common * np.sqrt(groups.ns) / math.sqrt(groups.ns.sum())
    return _single_draw(groups, Method.NEW, u, z)


def combined_draw(tian_value: float, new_value: float) -> float:
    """Average of the two pivotal draws for one replicate."""
    return 0.5 * (tian_value + new_value)


def _resample(groups, method, base, rows, values):
    """Regenerate each listed degenerate replicate of ``values`` from the
    sub-stream keyed by its index until it is finite.  Returns (draws
    made, error or None)."""
    m, count = values.size, 0
    for r in rows:
        stream = base.substream(ROLE_RESAMPLE, int(r))
        for _ in range(_MAX_RESAMPLE_ATTEMPTS):
            count += 1
            vals, bad = _pivot_values(groups, *_variates(stream, groups.dfs, 1))[method]
            if not bad[0]:
                values[r] = vals[0]
                break
        else:
            return count, DegenerateRateError(
                f"replicate {int(r)} stayed degenerate after {_MAX_RESAMPLE_ATTEMPTS} attempts"
            )
    if count and count / (m + count) >= _MAX_REJECTED_FRACTION:
        return count, DegenerateRateError(
            f"{count} degenerate draws out of {m + count} attempts; data look pathological"
        )
    return count, None


def _pivot_value_arrays(study, methods, m, seed):
    """Shared engine: m draws per requested method from one base layout.

    Returns ({method: values}, {method: rejected_count}).  A method whose
    draws failed maps to its NumericalError instead of an array, and the
    other methods are unaffected.  Per-method degenerate replicates are
    regenerated independently, each from the sub-stream keyed by its
    replicate index, so a method's output is identical whether it is
    computed alone or alongside others.  The rejected count is the number
    of regenerated replicates drawn, also for a method that failed.
    """
    if m < _MIN_DRAWS:
        raise ValidationError(f"need at least {_MIN_DRAWS} draws, got {m}")
    if m > _MAX_DRAWS:
        raise ValidationError(f"at most {_MAX_DRAWS} draws are supported, got {m}")
    for method in methods:
        if method not in PIVOTAL_METHODS:
            raise ValidationError(f"not a pivotal method: {method}")
    groups = group_arrays(study)
    base = SeededStream(seed)

    values = {method: np.empty(m) for method in methods}
    bad_masks = {method: np.empty(m, dtype=bool) for method in methods}
    for start in range(0, m, _BLOCK):
        stop = min(start + _BLOCK, m)
        stream = base.substream(ROLE_PIVOT_BLOCK, start // _BLOCK)
        pivots = _pivot_values(groups, *_variates(stream, groups.dfs, stop - start))
        for method in methods:
            values[method][start:stop], bad_masks[method][start:stop] = pivots[method]

    rejected = {}
    for method in methods:
        rows = np.nonzero(bad_masks[method])[0]
        rejected[method], error = _resample(groups, method, base, rows, values[method])
        if error is not None:
            values[method] = error
    return values, rejected


def generate_draws(study: Study | Sequence[SampleSummary], method: Method, m: int, seed: int) -> PivotalDraws:
    """Generate m pivotal draws for one method.

    Deterministic in (study, method, m, seed); methods sharing a seed
    share the underlying chi-square/normal variates.
    """
    values, rejected = _pivot_value_arrays(study, (method,), m, seed)
    if isinstance(values[method], NumericalError):
        raise values[method]
    return PivotalDraws(method=method, values=values[method], seed=seed, rejected=rejected[method])


def quantile(draws: PivotalDraws | np.ndarray, p: float) -> float:
    """Lower empirical quantile: the ceil(p*m)-th order statistic (1-based).

    No interpolation.  The product p*m is evaluated with a 1e-9 slack so
    that fractions like 0.025 * 10**6, which float arithmetic carries a
    hair above the exact integer, still select the intended rank.
    """
    if not 0.0 < p < 1.0:
        raise ValidationError(f"quantile level must be in (0, 1), got {p}")
    vals = draws.values if isinstance(draws, PivotalDraws) else np.asarray(draws, float)
    m = vals.size
    rank = math.ceil(p * m - 1e-9)
    rank = min(max(rank, 1), m)
    return float(np.partition(vals, rank - 1)[rank - 1])


def gpq_interval(study: Study, method: Method, level: float, m: int, seed: int) -> IntervalResult:
    """Equal-tailed Monte Carlo interval from m pivotal draws."""
    if not 0.0 < level < 1.0:
        raise ValidationError(f"confidence level must be in (0, 1), got {level}")
    draws = generate_draws(study, method, m, seed)
    alpha = 1.0 - level
    return IntervalResult(
        method=method,
        level=level,
        lower=quantile(draws, alpha / 2.0),
        upper=quantile(draws, 1.0 - alpha / 2.0),
        draws=m,
        seed=seed,
    )


def gpq_test(
    study: Study,
    method: Method,
    phi0: float,
    alternative: Alternative,
    m: int,
    seed: int,
) -> TestResult:
    """Monte Carlo p-value for H0 about phi, from the same draws a
    same-seed interval would use.

    The proportion of draws at or below phi0 estimates the evidence for
    phi > phi0 and vice versa; the two-sided p-value doubles the smaller
    tail and is capped at 1.
    """
    if not math.isfinite(phi0):
        raise ValidationError(f"null value must be finite, got {phi0}")
    draws = generate_draws(study, method, m, seed)
    p_le = float(np.count_nonzero(draws.values <= phi0)) / m
    p_ge = float(np.count_nonzero(draws.values >= phi0)) / m
    if alternative is Alternative.GREATER:
        p = p_le
    elif alternative is Alternative.LESS:
        p = p_ge
    else:
        p = min(1.0, 2.0 * min(p_le, p_ge))
    return TestResult(
        method=method, phi0=phi0, alternative=alternative, p_value=p, draws=m, seed=seed
    )


def confidence_interval(study: Study, method: Method, level: float, m: int, seed: int) -> IntervalResult:
    """Uniform front door over all four methods."""
    if method is Method.VERRILL_JOHNSON:
        return vj_interval(study, level)
    return gpq_interval(study, method, level, m, seed)
