"""Monte Carlo pivotal draws for the common coefficient of variation.

Each replicate substitutes fresh chi-square and normal variates into the
observed summary statistics, giving one draw from a pivotal quantity
whose percentiles bound phi.  With r_i = mean_i/sd_i, n = sum n_i and
D_i = r_i*sqrt(U_i/(n_i-1)) - Z_i/sqrt(n_i):

    tian:      weighted mean of the 1/D_i:  sum_i w_i/D_i / sum_i w_i,  w_i = n_i - 1
    new:       weighted harmonic counterpart:  n / sum_i n_i*D_i
    combined:  the plain average of the two

Each sum over groups is taken left to right from +0.0, one column at a
time, at every k (:func:`_pivot_values`); that is what numpy's row sum
does below 8 groups, so there every pivot equals, bit for bit, these
formulas evaluated with numpy on (b, k) arrays of variates.  From 8 groups
on, numpy adds a row pairwise, and the two differ by rounding only.

The new pivot is often written with one standard normal Z against the
pooled rate, n / (sum_i n_i*sqrt(U_i/(n_i-1))*r_i - sqrt(n)*Z).  Here
sqrt(n)*Z = sum_i sqrt(n_i)*Z_i: the new pivot's own distribution is the
same, and the joint distribution of the two pivots, on which the
combined average depends, is fixed.

The variate layout is a compatibility contract.  Per replicate it is k
chi-squares U_i with n_i - 1 degrees of freedom, then k normals Z_i,
then one spare normal that no pivot uses.  Every method reads the same
layout, so under one seed the three pivots are functions of the same
randomness.  Replicates come in blocks of 2^15, each drawn from the
sub-stream keyed by its block index (:func:`_variate_slices`).  The
blocks of one call are filled on up to one thread per CPU, so each
value is the same bit for bit for any thread count; a call of at most
2^15 draws is one block and starts no thread.

A value that is not finite (a zero denominator, or overflow) is
degenerate for its method.  The kernel pass that finds it draws that
replicate again, from the sub-stream keyed by its index, until it is
finite, and counts each draw in ``rejected``, so results do not depend on
scheduling.  A method fails alone as soon as its regenerated draws reach
1% of its attempts.  Draws can be negative: the pivots have heavy tails
when a mean/sd ratio is small, and no truncation is applied.

Each kernel pass hands each method's values, all finite, to one reducer
per method, which every thread of the call feeds under one lock.  A
reducer keeps only what the caller reads: every draw (:class:`_Values`),
the two tails beyond the interval ends (:class:`_Tails`), or the two
counts of a test (:class:`_Counts`).  An order statistic or a count does
not depend on the order its values arrive in, so every end and p-value
is the one all m draws in one array give.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
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
    _checked_groups,
    _iterated,
    _read_once,
    group_arrays,
)
from .randgen import ROLE_PIVOT_BLOCK, ROLE_RESAMPLE, SeededStream, checked_int, checked_real, checked_seed

_MIN_DRAWS = 100
_MAX_DRAWS = 10**7  # generate_draws holds one float array of m values: about 80 MB at the cap
_BLOCK = 1 << 15
_SLICE = 1 << 13  # replicates per kernel pass: bounds the working set a thread holds
# threads that fill the blocks of one engine call: every CPU this process may use
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
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


def _variate_slices(stream: SeededStream, dfs: np.ndarray, b: int):
    """One block of b replicates of the base layout, in kernel passes of
    ``_SLICE`` rows: yields (first row, u rows, zg rows).  The stream is
    read as all (b, k) chi-squares, then the (b, k) normals row by row,
    then the b spare normals, which no pivot uses; only one pass's normals
    are held at a time.  Equal dfs are drawn from their one value as a
    scalar df: numpy draws every value by the same sampler in the same
    order as for the array, so to the same bits, but without broadcasting
    the dfs over the (b, k) output."""
    distinct = set(dfs.tolist())
    u = stream.chi_square(distinct.pop() if len(distinct) == 1 else dfs, size=(b, dfs.size))
    for first in range(0, b, _SLICE):
        zg = stream.standard_normal((min(_SLICE, b - first), dfs.size))
        yield first, u[first:first + _SLICE], zg
    stream.standard_normal(b)


def _pivot_values(groups: GroupArrays, u: np.ndarray, zg: np.ndarray) -> dict:
    """All three pivots of the module docstring's formulas, with each sum
    over groups taken left to right from +0.0.

    u and zg are (b, k) arrays; returns {method: (values, degenerate_mask)}
    for each of ``PIVOTAL_METHODS``, both of length b, the rows of one
    (3, b) array of values and one of masks.  Both sums are formed, since
    combined reads them both: the Tian sum of w_j/D_j and the new sum of
    n_j*D_j, so a caller for one method pays for the other's sum too.
    D_j is built one column at a time in a reused buffer from plain-float
    r_j, df_j and sqrt(n_j), and its two terms are added to the sums, so
    every operation is element-wise.  A value is degenerate when it is not
    finite, which includes every zero denominator.
    """
    ns, means, sds, dfs = groups
    tian, new, combined = pivots = np.zeros((3, len(u)))
    # D_j, one column at a time, in the row that ends up holding combined
    d, term = combined, np.empty((2, len(u)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(ns.size):
            n, df = float(ns[j]), float(dfs[j])
            np.divide(u[:, j], df, out=d)
            np.sqrt(d, out=d)
            np.multiply(d, float(means[j]) / float(sds[j]), out=d)
            np.subtract(d, np.divide(zg[:, j], math.sqrt(n), out=term[1]), out=d)
            np.divide(df, d, out=term[0])
            np.multiply(d, n, out=term[1])
            pivots[:2] += term
        tian /= dfs.sum()
        np.divide(ns.sum(), new, out=new)
        np.add(tian, new, out=combined)
        combined *= 0.5
    bad = ~np.isfinite(pivots)
    return {method: (pivots[i], bad[i]) for i, method in enumerate(PIVOTAL_METHODS)}


def _reals(values, what: str) -> np.ndarray:
    """``values`` as a float array, or ValidationError naming ``what``
    unless numpy reads them as finite real numbers: a str, a complex
    number, None, a NaN, an infinity or ragged rows is not one."""
    with contextlib.suppress(TypeError, ValueError):  # not read as reals: raised below
        vals = np.asarray(values).astype(float, casting="safe", copy=False)
        if np.isfinite(vals).all():
            return vals
    raise ValidationError(f"{what} must be finite real numbers")


def _single_draw(groups: GroupArrays, method: Method, u, z) -> float:
    u, z, k = _reals(u, "u"), _reals(z, "z"), groups.ns.size
    if np.atleast_2d(u).shape != (1, k) or np.atleast_2d(z).shape != (1, k):
        raise ValidationError(f"need one u and one z per group ({k}), got shapes {u.shape} and {z.shape}")
    if (u < 0).any():
        raise ValidationError("u must be >= 0")
    vals, bad = _pivot_values(groups, u.reshape(1, k), z.reshape(1, k))[method]
    if bad[0]:
        raise DegenerateDenominatorError("pivotal draw is not finite (zero denominator or overflow)")
    return float(vals[0])


def tian_draw(study: Study | Sequence[SampleSummary], u: Sequence[float], z: Sequence[float]) -> float:
    """One draw of the group-weighted pivotal (weights n_i - 1).

    ``u`` and ``z`` hold one value per group: each u a finite real >= 0 and
    each z a finite real, or ValidationError is raised.  A draw that is
    not finite raises DegenerateDenominatorError.
    """
    return _single_draw(group_arrays(_read_once(study)), Method.TIAN, u, z)


def new_method_draw(study: Study | Sequence[SampleSummary], u: Sequence[float], z_common: float) -> float:
    """One draw of the pooled inverse-CV pivotal.

    z_common is the standard normal attached to the pooled estimate; it
    enters as per-group normals z_i = z_common*sqrt(n_i)/sqrt(n), for which
    sum_i sqrt(n_i)*z_i = sqrt(n)*z_common.  To pair a draw with given z_i
    (as the engine does), pass sum_i sqrt(n_i)*z_i / sqrt(n).  ``u`` is
    checked as :func:`tian_draw` checks it, and z_common must be a finite
    real number, or ValidationError is raised.
    """
    groups = group_arrays(_read_once(study))
    z = checked_real(z_common, "z_common") * (np.sqrt(groups.ns) / math.sqrt(groups.ns.sum()))
    return _single_draw(groups, Method.NEW, u, z)


def combined_draw(tian_value: float, new_value: float) -> float:
    """Average of the two pivotal draws for one replicate."""
    return 0.5 * (tian_value + new_value)


# The engine hands each kernel pass to one reducer per method, shared by
# all its worker threads under one lock: ``feed(first, vals)`` gets the
# pass's first replicate's index and its values, degenerate ones already
# regenerated, and ``result()`` is what the engine returns for the method.


class _Values:
    """Every draw in replicate order, in one m-array: serves
    :func:`generate_draws`."""

    def __init__(self, m):
        self.values = np.empty(m)

    def feed(self, first, vals):
        self.values[first:first + vals.size] = vals

    def result(self):
        return self.values


class _Tails:
    """The ends of an equal-tailed interval: the order statistics at the
    0-based ranks lo and hi of all m draws.  Serves :func:`intervals`.

    The reducer keeps the lo + 1 smallest and the m - hi largest values
    fed to it, among a few more, in one buffer of both tails, half as many
    again (at least one pass) and one pass, or of all m values where that
    is fewer; m values never fill it.  Values enter until the buffer is
    full; then it is partitioned in place, both tails kept, and their
    inner ends become cuts: from then on only a value below the low cut or
    above the high cut enters.  A value between the cuts has lo + 1 values
    at or below it and m - hi at or above it already, so it is neither
    end.  A feed brings at most one pass.
    """

    def __init__(self, m, lo, hi):
        self.lo, self.high = lo, m - hi  # high: the values at ranks hi and above
        tails = lo + 1 + self.high
        self.buf = np.empty(min(m, tails + max(tails // 2, _SLICE) + _SLICE))
        self.size, self.cuts = 0, None

    def feed(self, first, vals):
        if self.cuts is not None:
            below = vals < self.cuts[0]
            vals = vals[np.logical_or(below, vals > self.cuts[1], out=below)]
        if self.size + vals.size > self.buf.size:
            self._compact()
        self.buf[self.size:self.size + vals.size] = vals
        self.size += vals.size

    def _select(self):
        """The buffer's values at the ranks of the two ends, as floats,
        selected in place: afterwards the buffer holds the lo + 1 smallest
        values up to lo and the m - hi largest from hi on.  One single-kth
        partition at lo, then one of the values above it: a multi-kth
        np.partition(vals, [lo, hi]) is several times slower than two of
        them at m = 10^6."""
        vals, lo, hi = self.buf[:self.size], self.lo, self.size - self.high
        vals.partition(lo)
        if hi > lo:  # equal where both ends are one rank: below a level of about 1/m (odd m) or 2e-9/m
            vals[lo + 1:].partition(hi - lo - 1)
        return float(vals[lo]), float(vals[hi])

    def _compact(self):
        # called on a full buffer, which holds both tails and at least one
        # pass more; keeping just them leaves room for the pass being fed
        self.cuts = self._select()
        self.buf[self.lo + 1:self.lo + 1 + self.high] = self.buf[self.size - self.high:self.size]
        self.size = self.lo + 1 + self.high

    def result(self):
        return self._select()


class _Counts:
    """How many draws lie at or below phi0 and at or above it: serves
    :func:`gpq_tests`."""

    def __init__(self, phi0):
        self.phi0, self.at_most, self.at_least = phi0, 0, 0

    def feed(self, first, vals):
        self.at_most += int(np.count_nonzero(vals <= self.phi0))
        self.at_least += int(np.count_nonzero(vals >= self.phi0))

    def result(self):
        return self.at_most, self.at_least


def _check_pivotal(methods):
    """ValidationError naming the first of ``methods`` that is not pivotal:
    a Method by its value, anything else by its repr as not a Method."""
    for method in methods:
        if not isinstance(method, Method):
            raise ValidationError(f"{method!r} is not a Method; pass Method.TIAN, Method.NEW or Method.COMBINED")
        if method not in PIVOTAL_METHODS:
            raise ValidationError(f"{method.value} is not a pivotal method (tian, new, combined)")


def _draw_args(m, seed):
    """(m, seed) as plain ints, or ValidationError."""
    m = checked_int(m, "the number of draws")
    if m < _MIN_DRAWS:
        raise ValidationError(f"need at least {_MIN_DRAWS} draws, got {m}")
    if m > _MAX_DRAWS:
        raise ValidationError(f"at most {_MAX_DRAWS} draws are supported, got {m}")
    return m, checked_seed(seed)


def _pivot_value_arrays(study, methods, m, seed, reduce=None):
    """Shared engine: m draws per requested method from one base layout,
    each method's reduced as it is drawn.

    ``reduce`` makes one reducer per method (the default keeps every draw:
    :class:`_Values`).  Returns ({method: its reducer's result},
    {method: rejected_count}), both empty when no method is requested; a
    method named twice is drawn and reduced once.  A method whose draws
    failed maps to its NumericalError instead, and the other methods are
    unaffected.  Each degenerate row is drawn again, in the pass that finds
    it, from the sub-stream keyed by its replicate index, until it is
    finite, so a method's output is identical whether it is computed alone
    or alongside others.  The rejected count is the number of regenerated
    draws, also for a method that failed.  A method fails as soon as that
    count c reaches 1% of its m + c attempts, checked after every draw, so
    it always stops at the least such c, whichever thread finds the rows.

    Blocks are filled on W = min(_WORKERS, blocks) threads, the calling
    thread included: worker w takes blocks w, w + W, w + 2W, ...  Every
    worker regenerates the degenerate rows of each kernel pass and feeds
    the pass to the same reducer per method, under one lock per call, so
    an interval holds one buffer of tails however many threads fill it.  A
    reducer's result does not depend on the order passes arrive in, so the
    result is bit-identical for any worker count.  One block stays on the
    calling thread.  An exception in any worker is raised here once every
    worker has joined.  The callers have checked (m, seed) with
    :func:`_draw_args`.
    """
    _check_pivotal(methods)
    if not methods:
        return {}, {}
    groups = group_arrays(study)
    base = SeededStream(seed)
    blocks = -(-m // _BLOCK)
    workers = min(_WORKERS, blocks)
    reducers = {method: reduce() if reduce else _Values(m) for method in methods}
    rejected = dict.fromkeys(reducers, 0)
    lock = threading.Lock()
    errors = [None] * workers

    def regenerated(method, row):
        # replicate ``row`` drawn again until it is finite; called under the lock
        stream = base.substream(ROLE_RESAMPLE, row)
        while True:
            # run to the end, so that the spare normal is drawn before the next attempt
            for _, u, zg in _variate_slices(stream, groups.dfs, 1):
                vals, bad = _pivot_values(groups, u, zg)[method]
            count = rejected[method] = rejected[method] + 1
            if count / (m + count) >= _MAX_REJECTED_FRACTION:
                raise DegenerateRateError(
                    f"{count} degenerate draws out of {m + count} attempts; data look pathological"
                )
            if not bad[0]:
                return vals[0]

    def feed(first, pivots):
        with lock:
            for method, reducer in reducers.items():
                if isinstance(reducer, NumericalError):  # the method has failed: its later passes are dropped
                    continue
                vals, bad = pivots[method]
                try:
                    for row in np.flatnonzero(bad):
                        vals[row] = regenerated(method, first + int(row))
                except DegenerateRateError as exc:
                    reducers[method] = exc
                else:
                    reducer.feed(first, vals)

    def fill_block(i):
        # a function, so that a block's arrays are freed before the next
        # block is drawn: a thread holds one block's working set at a time
        start = i * _BLOCK
        stream = base.substream(ROLE_PIVOT_BLOCK, i)
        for first, u, zg in _variate_slices(stream, groups.dfs, min(_BLOCK, m - start)):
            feed(start + first, _pivot_values(groups, u, zg))

    def fill(worker):
        try:
            for i in range(worker, blocks, workers):
                fill_block(i)
        except BaseException as exc:  # raised by the caller once every worker has joined
            errors[worker] = exc

    threads = []
    try:
        for worker in range(1, workers):
            thread = threading.Thread(target=fill, args=(worker,))
            thread.start()
            threads.append(thread)
        fill(0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error

    results = {method: r if isinstance(r, NumericalError) else r.result() for method, r in reducers.items()}
    return results, rejected


def _returned(result):
    """``result``, or a fresh copy of it raised if it is a NumericalError.
    A kept error may be raised many times (see :func:`_all_pivotal`), and
    each raise of one instance would add its frames to that instance's
    traceback."""
    if isinstance(result, NumericalError):
        raise type(result)(*result.args)
    return result


def generate_draws(study: Study | Sequence[SampleSummary], method: Method, m: int, seed: int) -> PivotalDraws:
    """Generate m pivotal draws for one method.

    Deterministic in (study, method, m, seed); methods sharing a seed
    share the underlying chi-square/normal variates.  ``m`` must be an
    integer in [100, 10^7] and ``seed`` one in [0, 2^64), or
    ValidationError is raised.
    """
    m, seed = _draw_args(m, seed)
    values, rejected = _pivot_value_arrays(_read_once(study), (method,), m, seed)
    return PivotalDraws(method=method, values=_returned(values[method]), seed=seed, rejected=rejected[method])


def _order_index(p: float, m: int) -> int:
    """0-based index of the ceil(p*m)-th order statistic of m values.

    The product p*m is evaluated with a 1e-9 slack so that fractions like
    0.025 * 10**6, which float arithmetic carries a hair above the exact
    integer, still select the intended rank; the rank is clamped to
    [1, m].
    """
    return min(max(math.ceil(p * m - 1e-9), 1), m) - 1


def quantile(draws: PivotalDraws | np.ndarray, p: float) -> float:
    """Lower empirical quantile: the ceil(p*m)-th order statistic (1-based).

    No interpolation; see :func:`_order_index` for the rank rule.  The
    draws must be a non-empty 1-D array of finite real numbers, or
    ValidationError is raised.  The caller's array is left as it was, so
    selecting costs one copy of it; :func:`intervals` keeps only the tails
    of its draws instead.
    """
    p = checked_real(p, "quantile level", 0.0, 1.0)
    vals = _reals(draws.values if isinstance(draws, PivotalDraws) else draws, "draws")
    if vals.ndim != 1 or vals.size == 0:
        raise ValidationError(f"need a non-empty 1-D array of draws, got shape {vals.shape}")
    i = _order_index(p, vals.size)
    return float(np.partition(vals, i)[i])


def intervals(study: Study, methods: Sequence[Method], level: float, m: int, seed: int) -> dict:
    """{method: IntervalResult or its NumericalError}, in ``methods`` order.

    The pivotal methods share one engine call, each getting exactly the
    equal-tailed interval it gets alone; ``vj`` is closed-form and ignores
    m and seed.  ``study`` is a Study or, as for every function here, an
    iterable of groups, each checked as :class:`Study` checks it; it is
    read once, as is ``methods``, and no groups at all raise
    TooFewGroupsError.  Invalid arguments raise ValidationError.

    Each end is the order statistic :func:`quantile` would give on all m
    draws.  The engine keeps per method one buffer of both tails beyond
    the ends (see :class:`_Tails`), about 1.5(1 - level) m + 2^13 values,
    shared by its worker threads, and selects the ends in place on it.
    The buffer holds all m draws where they are fewer: at m = 10^6 below
    a level of about 0.34, and in a call of one kernel pass.
    """
    methods = tuple(_iterated(methods, "methods"))
    level = checked_real(level, "confidence level", 0.0, 1.0)
    study = _read_once(study)
    if any(method is not Method.VERRILL_JOHNSON for method in methods):
        m, seed = _draw_args(m, seed)
    results = _interval_ends(study, methods, level, m, seed)
    for method, ends in results.items():
        if isinstance(ends, tuple):
            results[method] = IntervalResult(method, level, *ends, draws=m, seed=seed)
    return results


def _interval_ends(study, methods, level, m, seed):
    """{method: its ends or its NumericalError}, in ``methods`` order, for
    arguments :func:`intervals` has checked (a SimConfig checks them once
    per cell): ``vj``'s IntervalResult, and each pivotal method's
    (lower, upper), which :func:`intervals` wraps in a result.  The
    pivotal methods share one engine call; ``vj`` ignores m and seed."""
    pivotal = tuple(method for method in methods if method is not Method.VERRILL_JOHNSON)
    found = {}
    if pivotal:
        alpha = 1.0 - level
        lo, hi = _order_index(alpha / 2.0, m), _order_index(1.0 - alpha / 2.0, m)
        found = _pivot_value_arrays(study, pivotal, m, seed, lambda: _Tails(m, lo, hi))[0]
    ends = {}
    for method in methods:
        if method is Method.VERRILL_JOHNSON:
            try:
                ends[method] = vj_interval(study, level)
            except NumericalError as exc:
                ends[method] = exc
        else:
            ends[method] = found[method]
    return ends


def _test_args(phi0, alternative):
    """(phi0, alternative) as a float and an Alternative, or ValidationError."""
    phi0 = checked_real(phi0, "null value")
    try:
        return phi0, Alternative(alternative)
    except ValueError:
        choices = ", ".join(repr(alt.value) for alt in Alternative)
        raise ValidationError(f"alternative must be one of {choices}, got {alternative!r}") from None


def _test_result(method, counts, phi0, alternative, m, seed):
    """The TestResult of one method's two counts (see :class:`_Counts`),
    or its NumericalError as it is."""
    if isinstance(counts, NumericalError):
        return counts
    p_le, p_ge = (float(count) / m for count in counts)
    if alternative is Alternative.GREATER:
        p = p_le
    elif alternative is Alternative.LESS:
        p = p_ge
    else:
        p = min(1.0, 2.0 * min(p_le, p_ge))
    return TestResult(method, phi0, alternative, p_value=p, draws=m, seed=seed)


def _counts(study, methods, phi0, m, seed):
    """{method: its :class:`_Counts` result or its NumericalError}, from one
    engine call on the groups read once."""
    return _pivot_value_arrays(_read_once(study), methods, m, seed, lambda: _Counts(phi0))[0]


def gpq_tests(
    study: Study, methods: Sequence[Method], phi0: float, alternative: Alternative, m: int, seed: int
) -> dict:
    """Monte Carlo p-values, mapped as in :func:`intervals`, from the draws
    a same-seed interval would use.

    The proportion of draws at or below phi0 estimates the evidence for
    phi > phi0 and vice versa; the two-sided p-value doubles the smaller
    tail and is capped at 1.  The engine keeps only the two counts per
    method, no draws.  ``alternative`` is an :class:`Alternative` or its
    value, such as "greater"; anything else raises ValidationError.
    """
    methods = tuple(_iterated(methods, "methods"))
    phi0, alternative = _test_args(phi0, alternative)
    m, seed = _draw_args(m, seed)
    counts = _counts(study, methods, phi0, m, seed)
    return {method: _test_result(method, c, phi0, alternative, m, seed) for method, c in counts.items()}


# The one-method front doors draw all three pivots at once and keep what
# each method reads for the four most recently used keys, so the sibling
# calls at one study, m and seed draw nothing.  Entries hold only ends,
# counts and errors.
@functools.lru_cache(maxsize=4)
def _all_pivotal(reduce, groups, arg, m, seed):
    """``reduce`` (:func:`intervals` or :func:`_counts`) for all three
    pivotal methods at ``groups``, the checked groups' (n, mean, sd)
    triples, and at ``arg`` (the level or phi0), m and seed."""
    return reduce(groups, PIVOTAL_METHODS, arg, m, seed)


def _key_groups(study):
    """The checked groups' (n, mean, sd) triples, without labels, read once,
    so that equal group values share an entry of :func:`_all_pivotal`; no
    groups give (), which :func:`intervals` and :func:`_counts` reject."""
    return tuple((g.n, g.mean, g.sd) for g in _checked_groups(study))


def confidence_interval(study: Study, method: Method, level: float, m: int, seed: int) -> IntervalResult:
    """Uniform front door over all four methods, one at a time.

    A pivotal method is computed by :func:`intervals` for all three
    pivotal methods at once, and the result is kept: a call for a sibling
    at the same group values, level, m and seed draws nothing.  A lone
    call so costs what three methods do, about 1.15 times one method's
    cost at m = 10^6.  Every result is the one ``intervals`` gives for the
    method alone, and a method's error is raised afresh on each call.
    """
    if method not in PIVOTAL_METHODS:
        return _returned(intervals(study, (method,), level, m, seed)[method])
    level = checked_real(level, "confidence level", 0.0, 1.0)
    m, seed = _draw_args(m, seed)
    return _returned(_all_pivotal(intervals, _key_groups(study), level, m, seed)[method])


def gpq_interval(study: Study, method: Method, level: float, m: int, seed: int) -> IntervalResult:
    """Equal-tailed Monte Carlo interval from m pivotal draws."""
    _check_pivotal((method,))
    return confidence_interval(study, method, level, m, seed)


def gpq_test(
    study: Study, method: Method, phi0: float, alternative: Alternative, m: int, seed: int
) -> TestResult:
    """Monte Carlo p-value for H0 about phi, for one method.

    As in :func:`confidence_interval`, the two counts of all three pivotal
    methods are drawn at once and kept, keyed by the group values, phi0, m
    and seed, so a sibling call, under any alternative, draws nothing.  A
    lone call costs about 1.05 times one method's at m = 10^6.  Every
    result is the one :func:`gpq_tests` gives for the method alone.
    """
    phi0, alternative = _test_args(phi0, alternative)
    m, seed = _draw_args(m, seed)
    _check_pivotal((method,))
    counts = _all_pivotal(_counts, _key_groups(study), phi0, m, seed)[method]
    return _returned(_test_result(method, counts, phi0, alternative, m, seed))
