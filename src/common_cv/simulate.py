"""Coverage and length study for the interval methods.

Each replication draws one synthetic study (group i gets n_i observations
from Normal(mu_i, (phi*mu_i)^2)), builds every requested interval on it,
and records containment of the true phi and the interval length.  All
methods see the same datasets, so differences between methods are not
Monte Carlo noise.  Per-replication randomness is derived from
(master_seed, cell_index, replication_index), which makes every cell and
every replication individually reproducible and independent of execution
order.

A method failing on one replication (no likelihood maximum found,
degenerate draw rate) is counted in ``failures`` and excluded from that
method's denominator; it never aborts the study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NumericalError, ValidationError
from .estimators import vj_interval
from .model import Method, PIVOTAL_METHODS, Study, summarize
from .pivotal import _pivot_value_arrays, generate_draws, quantile
from .randgen import ROLE_SIM_DATA, ROLE_SIM_PIVOTS, SeededStream, mix_components

ALL_METHODS = (Method.TIAN, Method.VERRILL_JOHNSON, Method.NEW, Method.COMBINED)


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
        object.__setattr__(self, "mus", tuple(float(v) for v in self.mus))
        object.__setattr__(self, "ns", tuple(int(v) for v in self.ns))
        object.__setattr__(self, "methods", tuple(self.methods))
        if len(self.mus) < 2 or len(self.mus) != len(self.ns):
            raise ValidationError(
                f"need matching mus/ns with at least 2 groups, got {len(self.mus)} and {len(self.ns)}"
            )
        if self.phi <= 0.0:
            raise ValidationError(f"phi must be positive, got {self.phi}")
        if any(mu == 0.0 for mu in self.mus):
            raise ValidationError("group means must be nonzero")
        if min(self.mus) < 0.0 < max(self.mus):
            raise ValidationError(f"group means must share one sign, got {self.mus}")
        if any(n < 2 for n in self.ns):
            raise ValidationError(f"group sizes must be >= 2, got {self.ns}")
        if self.reps < 1:
            raise ValidationError(f"reps must be >= 1, got {self.reps}")
        if not 0.0 < self.level < 1.0:
            raise ValidationError(f"level must be in (0, 1), got {self.level}")
        if not self.methods or any(m not in ALL_METHODS for m in self.methods):
            raise ValidationError(f"methods must be a nonempty subset of {ALL_METHODS}")


@dataclass(frozen=True)
class MethodPerformance:
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
    for i, (mu, n) in enumerate(zip(config.mus, config.ns)):
        z = data_stream.standard_normal(n)
        x = mu * (1.0 + config.phi * z)
        groups.append(summarize(x, label=f"g{i + 1}"))
    return Study(groups=tuple(groups))


def run_study(config: SimConfig, cell_index: int = 0) -> SimResult:
    """Estimate coverage and average length for one cell.

    Coverage is the fraction of non-failed replications whose closed
    interval contains the true phi.
    """
    root = SeededStream(config.master_seed)
    gpq_methods = tuple(m for m in config.methods if m in PIVOTAL_METHODS)
    alpha = 1.0 - config.level

    covered = {m: 0 for m in config.methods}
    length_sum = {m: 0.0 for m in config.methods}
    failures = {m: 0 for m in config.methods}

    for r in range(config.reps):
        try:
            study = _simulate_study(config, root.substream(ROLE_SIM_DATA, cell_index, r))
        except ValidationError:
            # A degenerate dataset (zero mean/variance) fails every method.
            for m in config.methods:
                failures[m] += 1
            continue

        if gpq_methods:
            pivot_seed = mix_components(config.master_seed, ROLE_SIM_PIVOTS, cell_index, r)
            per_method = {}
            try:
                values, _ = _pivot_value_arrays(study, gpq_methods, config.m, pivot_seed)
                per_method = {m: values[m] for m in gpq_methods}
            except NumericalError:
                # Retry one method at a time so only the culprit is counted.
                for m in gpq_methods:
                    try:
                        per_method[m] = generate_draws(study, m, config.m, pivot_seed).values
                    except NumericalError:
                        failures[m] += 1
            for m, vals in per_method.items():
                lower = quantile(vals, alpha / 2.0)
                upper = quantile(vals, 1.0 - alpha / 2.0)
                if lower <= config.phi <= upper:
                    covered[m] += 1
                length_sum[m] += upper - lower

        if Method.VERRILL_JOHNSON in config.methods:
            try:
                interval = vj_interval(study, config.level)
            except NumericalError:
                failures[Method.VERRILL_JOHNSON] += 1
            else:
                if interval.contains(config.phi):
                    covered[Method.VERRILL_JOHNSON] += 1
                length_sum[Method.VERRILL_JOHNSON] += interval.length

    performance = {}
    for m in config.methods:
        effective = config.reps - failures[m]
        performance[m] = MethodPerformance(
            method=m,
            coverage=covered[m] / effective if effective else float("nan"),
            avg_length=length_sum[m] / effective if effective else float("nan"),
            failures=failures[m],
        )
    return SimResult(config=config, performance=performance)


def run_grid(configs) -> list[SimResult]:
    """Run every cell, in order; a cell-level error is recorded in its row
    rather than aborting the rest of the grid."""
    results = []
    for config in configs:
        try:
            results.append(run_study(config))
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            results.append(SimResult(config=config, performance={}, error=str(exc)))
    return results
