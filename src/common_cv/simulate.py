"""Coverage and length study for the interval methods.

Each replication draws one synthetic study (group i gets n_i observations
from Normal(mu_i, (phi*mu_i)^2)), builds every requested interval on it,
and records the interval length and whether it contains the true CV: phi,
or -phi when the means are negative.  All methods see the same datasets,
and the pivotal methods the same draws, so a difference between two
methods usually carries less Monte Carlo noise than it would on separate
datasets, though not none.
Per-replication randomness is derived from (master_seed,
replication_index), which makes every cell and every replication
individually reproducible and independent of execution order.

A method failing on one replication (no likelihood maximum found,
degenerate draw rate) is counted in ``failures`` and excluded from that
method's denominator; it never aborts the study, and the pivotal methods
fail one by one, so the others keep their results.  A replication whose
data cannot be summarized (zero mean or spread, or a sum that overflows)
fails every method.

Replications run one at a time, in order, on the calling thread.  A
replication's engine call starts threads only when it makes more than
2^15 draws, and then fills its blocks on up to one thread per CPU (see
:mod:`.pivotal`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .model import ALL_METHODS, PIVOTAL_METHODS, IntervalResult, Method, Study, _iterated, summarize
# None of these four is called here; perfbench/tracer.py wraps these bindings.
from .pivotal import _pivot_value_arrays, generate_draws, quantile, vj_interval  # noqa: F401
from .pivotal import _draw_args, _interval_ends
from .randgen import ROLE_SIM_DATA, ROLE_SIM_PIVOTS, SeededStream, checked_int, checked_real, checked_seed
from .randgen import mix_components


@dataclass(frozen=True)
class SimConfig:
    """One cell of a simulation grid."""

    phi: float
    mus: tuple[float, ...]
    ns: tuple[int, ...]
    reps: int = 2000
    m: int = 2000
    level: float = 0.95
    methods: tuple[Method, ...] = ALL_METHODS
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mus", tuple(checked_real(v, "a group mean") for v in _iterated(self.mus, "mus")))
        object.__setattr__(self, "ns", tuple(checked_int(v, "a group size") for v in _iterated(self.ns, "ns")))
        object.__setattr__(self, "reps", checked_int(self.reps, "reps"))
        object.__setattr__(self, "methods", tuple(_iterated(self.methods, "methods")))
        object.__setattr__(self, "master_seed", checked_seed(self.master_seed))
        object.__setattr__(self, "m", checked_int(self.m, "the number of draws"))
        if any(method in PIVOTAL_METHODS for method in self.methods):
            _draw_args(self.m, self.master_seed)
        if len(self.mus) < 2 or len(self.mus) != len(self.ns):
            raise ValidationError(
                f"need matching mus/ns with at least 2 groups, got {len(self.mus)} and {len(self.ns)}"
            )
        object.__setattr__(self, "phi", checked_real(self.phi, "phi", 0.0))
        if 0.0 in self.mus:
            raise ValidationError(f"group means must be finite and nonzero, got {self.mus}")
        if min(self.mus) < 0.0 < max(self.mus):
            raise ValidationError(f"group means must share one sign, got {self.mus}")
        if any(n < 2 for n in self.ns):
            raise ValidationError(f"group sizes must be >= 2, got {self.ns}")
        if self.reps < 1:
            raise ValidationError(f"reps must be >= 1, got {self.reps}")
        object.__setattr__(self, "level", checked_real(self.level, "level", 0.0, 1.0))
        if not self.methods or any(m not in ALL_METHODS for m in self.methods):
            raise ValidationError(f"methods must be a nonempty subset of {ALL_METHODS}")


@dataclass(frozen=True)
class MethodPerformance:
    """One method's results over the replications of a cell.

    ``coverage`` is the share of non-failed replications whose closed
    interval holds the true CV (-phi when the means are negative), and
    ``avg_length`` their mean interval length; ``failures`` counts the
    failed replications.  Both values are nan when every replication
    failed.
    """

    method: Method
    coverage: float
    avg_length: float
    failures: int


@dataclass(frozen=True)
class SimResult:
    """Per-method coverage/length for one cell (error set if the whole
    cell failed)."""

    config: SimConfig
    performance: dict[Method, MethodPerformance] = field(default_factory=dict)
    error: str | None = None


def _simulate_study(config: SimConfig, data_stream) -> Study:
    groups = []
    with np.errstate(over="ignore"):  # summarize rejects the values that overflow
        for i, (mu, n) in enumerate(zip(config.mus, config.ns)):
            z = data_stream.standard_normal(n)
            groups.append(summarize(mu * (1.0 + config.phi * z), label=f"g{i + 1}"))
    return Study(groups=tuple(groups))


class _Tally:
    """One method's running counts over the replications of a cell."""

    def __init__(self):
        self.covered, self.length_sum, self.failures = 0, 0.0, 0

    def add(self, ends, target: float):
        """Count one replication's ends, vj's IntervalResult or a pivotal
        method's (lower, upper), or a failure for its error; the closed
        interval covers a target at either end."""
        if isinstance(ends, Exception):
            self.failures += 1
            return
        lower, upper = (ends.lower, ends.upper) if isinstance(ends, IntervalResult) else ends
        self.covered += lower <= target <= upper
        self.length_sum += upper - lower

    def performance(self, method: Method, reps: int) -> MethodPerformance:
        effective = reps - self.failures
        return MethodPerformance(
            method=method,
            coverage=self.covered / effective if effective else float("nan"),
            avg_length=self.length_sum / effective if effective else float("nan"),
            failures=self.failures,
        )


def run_study(config: SimConfig) -> SimResult:
    """Estimate coverage and average length for one cell.

    Coverage is the fraction of non-failed replications whose closed
    interval contains the true CV.
    """
    root = SeededStream(config.master_seed)
    # Data drawn with negative means have CV -phi.
    target = math.copysign(config.phi, config.mus[0])
    tallies = {m: _Tally() for m in config.methods}

    # The 0 in both stream keys stays: dropping it would change every replication's data and draws.
    for r in range(config.reps):
        try:
            study = _simulate_study(config, root.substream(ROLE_SIM_DATA, 0, r))
        except (ValidationError, NumericalError) as exc:
            # Data that cannot be summarized (zero mean or spread, an overflowing sum) fail every method.
            found = dict.fromkeys(config.methods, exc)
        else:
            pivot_seed = mix_components(config.master_seed, ROLE_SIM_PIVOTS, 0, r)
            found = _interval_ends(study, config.methods, config.level, config.m, pivot_seed)
        for m, ends in found.items():
            tallies[m].add(ends, target)

    return SimResult(config=config, performance={m: t.performance(m, config.reps) for m, t in tallies.items()})


def run_grid(configs) -> list[SimResult]:
    """Run every cell, in order; a cell-level error is recorded in its row
    rather than aborting the rest of the grid."""
    results = []
    for config in _iterated(configs, "configs"):
        try:
            results.append(run_study(config))
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            results.append(SimResult(config=config, performance={}, error=str(exc)))
    return results
