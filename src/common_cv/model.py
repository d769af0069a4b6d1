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
    TooFewGroupsError,
    TooFewObservationsError,
    ValidationError,
    ZeroMeanError,
    ZeroVarianceError,
)


class Method(enum.Enum):
    """Interval/test construction."""

    TIAN = "tian"
    VERRILL_JOHNSON = "vj"
    NEW = "new"
    COMBINED = "combined"


#: Methods whose intervals come from Monte Carlo pivotal draws.
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
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise TooFewObservationsError(f"group size must be an integer, got {self.n!r}")
        if self.n < 2:
            raise TooFewObservationsError(f"need at least 2 observations, got n={self.n}")
        if not math.isfinite(self.mean) or self.mean == 0.0:
            raise ZeroMeanError(f"group mean must be finite and nonzero, got {self.mean!r}")
        if not math.isfinite(self.sd) or self.sd <= 0.0:
            raise ZeroVarianceError(f"group sd must be finite and positive, got {self.sd!r}")

    @property
    def cv(self) -> float:
        """Sample coefficient of variation sd/mean."""
        return self.sd / self.mean

    @property
    def variance(self) -> float:
        return self.sd * self.sd


@dataclass(frozen=True)
class Study:
    """Two or more groups assumed to share one coefficient of variation."""

    groups: tuple[SampleSummary, ...]

    def __post_init__(self):
        groups = tuple(self.groups)
        object.__setattr__(self, "groups", groups)
        if len(groups) < 2:
            raise TooFewGroupsError(f"need at least 2 groups, got {len(groups)}")

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
    """Per-group statistics as float arrays; ``dfs`` is n_i - 1."""

    ns: np.ndarray
    means: np.ndarray
    sds: np.ndarray
    dfs: np.ndarray


def group_arrays(study: Study | Sequence[SampleSummary]) -> GroupArrays:
    """Array view of a Study, or of any sequence of SampleSummary (even a
    single group)."""
    groups = study.groups if isinstance(study, Study) else tuple(study)
    ns = np.array([g.n for g in groups], dtype=float)
    means = np.array([g.mean for g in groups], dtype=float)
    sds = np.array([g.sd for g in groups], dtype=float)
    return GroupArrays(ns, means, sds, ns - 1.0)


@dataclass(frozen=True)
class ParameterVector:
    """Model parameters (phi, sigma_1..sigma_k); the group means are
    mu_i = sigma_i/phi."""

    phi: float
    sigmas: tuple[float, ...]

    def __post_init__(self):
        sigmas = tuple(float(s) for s in self.sigmas)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "phi", float(self.phi))
        if self.phi == 0.0 or not math.isfinite(self.phi):
            raise ZeroMeanError(f"phi must be finite and nonzero, got {self.phi!r}")
        for s in sigmas:
            if s <= 0.0 or not math.isfinite(s):
                raise NonPositiveSigmaError(f"sigmas must be finite and positive, got {s!r}")

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
    length: float = field(default=None)  # type: ignore[assignment]
    draws: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.length is None:
            object.__setattr__(self, "length", self.upper - self.lower)
        if self.lower > self.upper:
            raise ValueError(f"interval endpoints out of order: ({self.lower}, {self.upper})")

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

    Rejects groups with fewer than two values, zero spread, or a mean
    smaller in magnitude than 1e-12 * max(1, max|x|), which would make
    the coefficient of variation meaningless.
    """
    values = [float(v) for v in observations]
    n = len(values)
    if n < 2:
        raise TooFewObservationsError(f"group {label or '?'}: need at least 2 observations, got {n}")
    mean = math.fsum(values) / n
    ss = math.fsum((v - mean) ** 2 for v in values)
    if ss == 0.0:
        raise ZeroVarianceError(f"group {label or '?'}: all observations are equal")
    scale = max(1.0, max(abs(v) for v in values))
    if abs(mean) < 1e-12 * scale:
        raise ZeroMeanError(f"group {label or '?'}: mean {mean!r} is indistinguishable from zero")
    sd = math.sqrt(ss / (n - 1))
    return SampleSummary(n=n, mean=mean, sd=sd, label=label)


def validate_study(groups: Sequence) -> Study:
    """Assemble groups into a Study (needs k >= 2).

    Each element may be a SampleSummary or a loose ``(n, mean, sd)`` /
    ``(n, mean, sd, label)`` record; loose records are validated here and
    any per-group validation error is re-raised with the 0-based group
    index prepended.
    """
    validated = []
    for i, g in enumerate(groups):
        if not isinstance(g, SampleSummary):
            try:
                g = SampleSummary(*g)
            except ValidationError as exc:
                raise type(exc)(f"group {i}: {exc}") from None
        validated.append(g)
    return Study(groups=tuple(validated))
