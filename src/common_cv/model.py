"""Core value types for studies of a shared coefficient of variation.

A *study* is a collection of independent normal samples, one per group,
that are assumed to share a single coefficient of variation phi = sigma/mu.
Groups enter either as raw observations (reduced by :func:`summarize`) or
as precomputed summary statistics.  Standard deviations always use the
n - 1 divisor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    NonPositiveSigmaError,
    NumericalError,
    TooFewGroupsError,
    TooFewObservationsError,
    ValidationError,
    ZeroMeanError,
    ZeroVarianceError,
)
from .randgen import checked_int, checked_real


class Method(enum.Enum):
    """Interval/test construction."""

    TIAN = "tian"
    VERRILL_JOHNSON = "vj"
    NEW = "new"
    COMBINED = "combined"


#: Every method, in the enum's order.
ALL_METHODS = tuple(Method)
#: Methods whose intervals come from Monte Carlo pivotal draws; only they give a test.
PIVOTAL_METHODS = (Method.TIAN, Method.NEW, Method.COMBINED)


class Alternative(enum.Enum):
    GREATER = "greater"
    LESS = "less"
    TWO_SIDED = "two-sided"


@dataclass(frozen=True)
class SampleSummary:
    """Sufficient statistics (n, mean, sd) of one group.

    ``sd`` uses the n - 1 divisor.  The mean must be nonzero and the sd
    positive, otherwise the coefficient of variation is undefined.
    """

    n: int
    mean: float
    sd: float
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int(self.n, "group size", error=TooFewObservationsError))
        if self.n < 2:
            raise TooFewObservationsError(f"need at least 2 observations, got n={self.n}")
        object.__setattr__(self, "mean", checked_real(self.mean, "group mean", error=ZeroMeanError))
        if self.mean == 0.0:
            raise ZeroMeanError(f"group mean must be finite and nonzero, got {self.mean!r}")
        object.__setattr__(self, "sd", checked_real(self.sd, "group sd", 0.0, error=ZeroVarianceError))

    @property
    def cv(self) -> float:
        """Sample coefficient of variation sd/mean."""
        return self.sd / self.mean

    @property
    def variance(self) -> float:
        return self.sd * self.sd


def _iterated(items, what: str):
    """iter(items), or ValidationError naming ``what`` if items is not iterable."""
    try:
        return iter(items)
    except TypeError:
        raise ValidationError(f"{what} must be iterable, got {items!r}") from None


def _read_once(study):
    """A Study as it is, and any other iterable of groups read once into a
    tuple, so that a one-shot iterator gives every reader all its groups;
    no groups at all raise TooFewGroupsError.  The groups are not checked."""
    if isinstance(study, Study):
        return study
    groups = tuple(_iterated(study, "a study's groups"))
    if not groups:
        raise TooFewGroupsError("need at least 1 group, got an empty study")
    return groups


def _checked_group(group, index: int) -> SampleSummary:
    """``group`` as a SampleSummary, checked as :class:`Study` describes;
    ``index`` is its 0-based place in the study."""
    try:
        return group if isinstance(group, SampleSummary) else SampleSummary(*group)
    except TypeError:  # not iterable, or not 3 or 4 fields
        raise ValidationError(f"group {index}: not an (n, mean, sd[, label]) record: {group!r}") from None
    except ValidationError as exc:
        raise type(exc)(f"group {index}: {exc}") from None


def _checked_groups(groups) -> tuple[SampleSummary, ...]:
    """Each of ``groups`` checked by :func:`_checked_group`."""
    return tuple(_checked_group(g, i) for i, g in enumerate(_iterated(groups, "a study's groups")))


@dataclass(frozen=True)
class Study:
    """Two or more groups assumed to share one coefficient of variation.

    Each group is a SampleSummary or a loose ``(n, mean, sd[, label])``
    record, which is checked as :class:`SampleSummary` checks its fields.
    A ValidationError from a record is re-raised with the group's 0-based
    index prepended, anything that is not such a record raises
    ValidationError, as does a collection of groups that is not iterable,
    and fewer than two groups raise TooFewGroupsError.

    ``arrays`` is the checked groups' :class:`GroupArrays`, built once
    here and read-only; :func:`group_arrays` returns it, so no reader of a
    Study checks its groups again.  It is not an argument, and it takes no
    part in ``repr``, ``==`` or ``hash``.  A copy or an unpickled Study is
    made anew from its groups, so its ``arrays`` are read-only too.
    """

    groups: tuple[SampleSummary, ...]
    arrays: GroupArrays = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        groups = _checked_groups(self.groups)
        object.__setattr__(self, "groups", groups)
        if len(groups) < 2:
            raise TooFewGroupsError(f"need at least 2 groups, got {len(groups)}")
        object.__setattr__(self, "arrays", _group_arrays(groups))

    def __reduce__(self):
        return type(self), (self.groups,)

    def __iter__(self):
        return iter(self.groups)

    def __len__(self):
        return len(self.groups)

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def n(self) -> int:
        """Total observation count across groups."""
        return sum(g.n for g in self.groups)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(g.label or f"group{i + 1}" for i, g in enumerate(self.groups))


class GroupArrays(NamedTuple):
    """Per-group statistics as read-only float arrays; ``dfs`` is n_i - 1."""

    ns: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    dfs: np.ndarray


def _group_arrays(groups: tuple[SampleSummary, ...]) -> GroupArrays:
    """The read-only arrays of already checked groups: the four rows of one
    (4, k) float array."""
    rows = np.array([(g.n, g.mean, g.sd, g.n - 1) for g in groups], dtype=float).reshape(-1, 4).T
    rows.setflags(write=False)
    return GroupArrays(*rows)


def group_arrays(study: Study | Sequence[SampleSummary]) -> GroupArrays:
    """Array view of a study: a Study's own ``arrays``, with no check, or
    the arrays of any other iterable of groups (even an empty or a single
    one), each checked as :class:`Study` checks it.  The arrays are
    read-only."""
    return study.arrays if isinstance(study, Study) else _group_arrays(_checked_groups(study))


@dataclass(frozen=True)
class ParameterVector:
    """Model parameters (phi, sigma_1..sigma_k); the group means are
    mu_i = sigma_i/phi.

    phi must be a finite nonzero real (else ZeroMeanError), ``sigmas`` an
    iterable (else ValidationError) of finite positive reals (else
    NonPositiveSigmaError); they are stored as floats.
    """

    phi: float
    sigmas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "phi", checked_real(self.phi, "phi", error=ZeroMeanError))
        if self.phi == 0.0:
            raise ZeroMeanError(f"phi must be finite and nonzero, got {self.phi!r}")
        sigmas = _iterated(self.sigmas, "sigmas")
        sigmas = tuple(checked_real(s, "a sigma", 0.0, error=NonPositiveSigmaError) for s in sigmas)
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def eta(self) -> float:
        """Inverse coefficient of variation 1/phi."""
        return 1.0 / self.phi


@dataclass(frozen=True)
class IntervalResult:
    """Two-sided confidence interval for the common coefficient of variation.

    ``draws`` is the Monte Carlo size (0 for the asymptotic method, which
    also carries no seed).
    """

    method: Method
    level: float
    lower: float
    upper: float
    draws: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"interval endpoints out of order: ({self.lower}, {self.upper})")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """Closed-interval containment."""
        return self.lower <= value <= self.upper


@dataclass(frozen=True)
class TestResult:
    """Monte Carlo p-value for H0: phi = phi0 (or a one-sided variant)."""

    __test__ = False  # not a pytest class, despite the name

    method: Method
    phi0: float
    alternative: Alternative
    p_value: float
    draws: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value out of [0, 1]: {self.p_value}")


def summarize(observations: Iterable[float], label: str = "") -> SampleSummary:
    """Reduce raw observations to a SampleSummary.

    Each observation must be a finite real number, as :func:`checked_real`
    rules, or ValidationError names the group, as it does when the
    observations are not iterable; a 1-D float64 array, as the simulator
    passes, is checked as a whole.  Rejects groups with fewer than two
    values, zero spread, or a mean smaller in magnitude than
    1e-12 * max(1, max|x|), which would make the coefficient of variation
    meaningless.  Values whose sum or squared deviations overflow a float
    raise NumericalError.
    """
    name = f"group {label or '?'}"
    floats = isinstance(observations, np.ndarray) and observations.dtype == np.float64 and observations.ndim == 1
    if floats and np.isfinite(observations).all():
        values = observations.tolist()
    else:
        observations = _iterated(observations, f"{name}: the observations")
        values = [checked_real(v, f"{name}: an observation") for v in observations]
    n = len(values)
    if n < 2:
        raise TooFewObservationsError(f"{name}: need at least 2 observations, got {n}")
    try:
        mean = math.fsum(values) / n
        ss = math.fsum((v - mean) ** 2 for v in values)
    except OverflowError:
        raise NumericalError(f"{name}: a sum over the observations overflows") from None
    if ss == 0.0:
        raise ZeroVarianceError(f"{name}: all observations are equal")
    scale = max(1.0, max(abs(v) for v in values))
    if abs(mean) < 1e-12 * scale:
        raise ZeroMeanError(f"{name}: mean {mean!r} is indistinguishable from zero")
    sd = math.sqrt(ss / (n - 1))
    return SampleSummary(n=n, mean=mean, sd=sd, label=label)


def validate_study(groups: Sequence) -> Study:
    """The Study of an iterable of groups, checked as :class:`Study` checks
    them."""
    return Study(groups)
