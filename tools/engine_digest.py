"""Digest the Monte Carlo engine's outputs on a fixed set of cases, to
compare two versions of the package bit for bit.

The package is imported from SRC (default: src/).  The tool prints one
line per case group: one SHA-256 over every value, end, p-value, rejected
count, and error class and message the group's cases give, then the number
of cases and the group's name.  The groups are:

- ``engine values``, ``engine tails`` and ``engine counts``:
  ``pivotal._pivot_value_arrays`` with each of its reducers (every draw,
  the tails beyond the interval ends at several levels, the two counts of
  a test), on a balanced three-group study and on both bundled datasets,
  at every m and seed below, on one and on two worker threads, with the
  kernel as it is, with a kernel that marks about 0.5% of each pass's rows
  degenerate, and with one that marks 2% of them for ``new`` alone, which
  fails that method;
- ``intervals`` (all four methods) and ``gpq_tests`` (every alternative);
- ``generate_draws`` for each pivotal method;
- ``run_study`` on a balanced and an unbalanced cell.

The kernel patches go through ``pivotal._pivot_values`` and the thread
count through ``pivotal._WORKERS``; a version that renames a private name
used here needs this tool updated with it.  Diff the output of two
checkouts:

    python3 tools/engine_digest.py [SRC]
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

MS = (100, 2**15 + 17, 10**5)
SEEDS = (0, 12345, 2**64 - 1)
LEVELS = (1e-15, 0.5, 0.95, 0.999999)
REPS = 30
KERNELS = ("clean", "0.5% of rows", "2% of new's rows")
GROUPS = ("engine values", "engine tails", "engine counts", "intervals", "gpq_tests", "generate_draws", "run_study")


def _update(digest, value):
    """Fold one value into ``digest``: an array by its bytes, an error by
    its class and message, anything else by its repr."""
    if hasattr(value, "tobytes"):
        part = value.dtype.str.encode() + value.tobytes()
    elif isinstance(value, BaseException):
        part = f"{type(value).__name__}: {value}".encode()
    else:
        part = repr(value).encode()
    digest.update(len(part).to_bytes(8, "big") + part)


def _outcome(call):
    """What ``call()`` returns, or the error it raises."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - an error is an outcome to digest
        return exc


def _flagging(original, method_fractions):
    """A kernel that marks rows degenerate in every pass of more than one
    row: for each (method, period), every period-th row, from row 7.
    Resampling attempts are left as they are."""

    def kernel(groups, u, zg):
        pivots = original(groups, u, zg)
        if len(u) > 1:
            for method, period in method_fractions:
                vals, bad = pivots[method]
                pivots[method] = vals, bad | (np.arange(len(u)) % period == 7)
        return pivots

    return kernel


@contextlib.contextmanager
def _patched(pivotal, workers, kernel):
    saved = pivotal._WORKERS, pivotal._pivot_values
    pivotal._WORKERS, pivotal._pivot_values = workers, kernel
    try:
        yield
    finally:
        pivotal._WORKERS, pivotal._pivot_values = saved


def lines(ms=MS, seeds=SEEDS, reps=REPS) -> list[str]:
    """One line per case group, at the given m values, seeds and
    replications per ``run_study`` cell."""
    import common_cv as cv
    from common_cv import pivotal
    from common_cv.simulate import SimConfig, run_study

    pivotal_methods = (cv.Method.TIAN, cv.Method.NEW, cv.Method.COMBINED)
    studies = {
        "balanced": cv.Study([cv.SampleSummary(n=5, mean=1.0 + i, sd=0.2 * (1.0 + i)) for i in range(3)]),
        "surveys": cv.load_mcv_surveys(),
        "hospital": cv.load_hospital_survival(),
    }
    original = pivotal._pivot_values
    kernels = {
        KERNELS[0]: original,
        KERNELS[1]: _flagging(original, [(method, 199) for method in pivotal_methods]),
        KERNELS[2]: _flagging(original, [(cv.Method.NEW, 50)]),
    }
    groups = {name: hashlib.sha256() for name in GROUPS}
    counts = dict.fromkeys(groups, 0)

    def add(group, case, value):
        _update(groups[group], case)
        _update(groups[group], value)
        counts[group] += 1

    def engine(study, m, seed, reduce):
        found = _outcome(lambda: pivotal._pivot_value_arrays(study, pivotal_methods, m, seed, reduce))
        if isinstance(found, Exception):
            return found
        values, rejected = found
        return [(method, values[method], rejected[method]) for method in pivotal_methods]

    for (name, study), m, seed, workers, kernel in itertools.product(studies.items(), ms, seeds, (1, 2), kernels):
        case = (name, m, seed, workers, kernel)
        with _patched(pivotal, workers, kernels[kernel]):
            add("engine values", case, engine(study, m, seed, None))
            for level in LEVELS:
                alpha = 1.0 - level
                lo, hi = pivotal._order_index(alpha / 2.0, m), pivotal._order_index(1.0 - alpha / 2.0, m)
                add("engine tails", case + (level,),
                    engine(study, m, seed, lambda: pivotal._Tails(m, lo, hi)))
            add("engine counts", case, engine(study, m, seed, lambda: pivotal._Counts(0.3)))

    for (name, study), m, seed in itertools.product(studies.items(), ms, seeds):
        for level in LEVELS:
            add("intervals", (name, m, seed, level),
                _outcome(lambda: list(cv.intervals(study, cv.ALL_METHODS, level, m, seed).items())))
        for alternative in cv.Alternative:
            add("gpq_tests", (name, m, seed, alternative),
                _outcome(lambda: list(cv.gpq_tests(study, pivotal_methods, 0.3, alternative, m, seed).items())))
        for method in pivotal_methods:
            draws = _outcome(lambda: cv.generate_draws(study, method, m, seed))
            add("generate_draws", (name, m, seed, method),
                draws if isinstance(draws, Exception) else (draws.values, draws.rejected, draws.seed))

    cells = {
        "balanced": dict(phi=0.1, mus=(1.0, 1.0, 1.0), ns=(5, 5, 5)),
        "unbalanced": dict(phi=0.3, mus=(-1.0, -2.0, -3.0), ns=(4, 9, 20)),
    }
    for (name, cell), seed in itertools.product(cells.items(), seeds):
        add("run_study", (name, seed), run_study(SimConfig(**cell, reps=reps, m=2000, master_seed=seed)))

    return [f"{digest.hexdigest()} {counts[group]:>5} {group}" for group, digest in groups.items()]


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src").resolve()
    sys.path.insert(0, str(src))
    for line in lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
