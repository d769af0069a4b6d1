"""Digest the Monte Carlo engine's outputs on a fixed set of cases, to
compare two versions of the package bit for bit.

The package is imported from SRC (default: src/).  The tool prints one
line per case group: one SHA-256 over every value, end, p-value, rejected
count, and error class and message the group's cases give, then the number
of cases and the group's name.  The groups are:

- ``engine values``, ``engine tails`` and ``engine counts``:
  ``pivotal._pivot_value_arrays`` with each of its reducers (every draw,
  the tails beyond the interval ends at several levels, the two counts of
  a test), on a balanced three-group study, on both bundled datasets and
  on a wide study of 17 groups of unequal sizes (n_i = 5 + (7i mod 26)),
  whose chi-squares take the array-df path and whose pivots the kernel
  forms by its branch for 8 groups or more, at every m and seed below, on
  one and on two worker threads, with the kernel as it is, with a kernel
  that marks about 0.5% of each pass's rows degenerate, and with one that
  marks 2% of them for ``new`` alone, which fails that method (the marked
  rows of the wide study are redrawn one row at a time, through the same
  branch);
- ``intervals`` (all four methods) and ``gpq_tests`` (every alternative);
- ``generate_draws`` for each pivotal method;
- ``run_study`` on a balanced and an unbalanced cell and on a cell of two
  blocks per engine call (m = 2^15 + 17), at every seed below, on one and
  on two worker threads, with each of the three kernels;
- ``mle``: ``newton_mle`` (phi and the sigmas) and ``vj_interval`` at
  each of ``VJ_LEVELS``, on the studies above, on the profile-root studies
  of the estimator tests, on pairs of n and n - 1 observations whose means
  nearly cancel, on a pair whose inverse CVs sum to zero and on a study
  with a tiny mean;
- ``csv``: ``read_summary_csv``, ``read_raw_csv`` and ``read_grid_csv`` on
  each of ``CSV_TEXTS``, read as a text stream, a binary stream (UTF-8)
  and a file path: each result, or its error's class and message.

The kernel patches go through ``pivotal._pivot_values`` and the thread
count through ``pivotal._WORKERS``; a version that renames a private name
used here needs this tool updated with it.  Diff the output of two
checkouts:

    python3 tools/engine_digest.py [SRC]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

MS = (100, 2**15 + 17, 10**5)
SEEDS = (0, 12345, 2**64 - 1)
LEVELS = (1e-15, 0.5, 0.95, 0.999999)
REPS = 30
KERNELS = ("clean", "0.5% of rows", "2% of new's rows")
VJ_LEVELS = (0.5, 0.95, 0.9999999999999999)
GROUPS = (
    "engine values", "engine tails", "engine counts", "intervals", "gpq_tests", "generate_draws", "run_study", "mle",
    "csv",
)
# (n, mean, sd) rows of the MLE's studies beyond the engine's: the roots of
# the profile score that the estimator tests pin, mixed-sign pairs of n and
# n - 1 observations that nearly balance, inverse CVs that sum to zero, and
# a mean whose q_i leaves the float range
MLE_STUDIES = {
    "pair": [(5, 2.0, 1.0), (7, 3.0, 0.6)],
    **{f"sd {sd} beside 0.4": [(5, 1.0, float(sd)), (7, 2.0, 0.4)] for sd in ("1e16", "1e17", "1e30", "1e50")},
    "sd 1e50 beside 1e20": [(5, 1.0, 1e50), (7, 2.0, 1e20)],
    "sd 1e76 beside 1e77": [(5, 1.0, 1e76), (7, 2.0, 1e77)],
    "mixed pair": [(5, 2.0, 1.0), (7, -3.0, 0.6)],
    "mixed three": [(10, 5.0, 1.0), (8, 4.0, 1.5), (6, -1.0, 2.0)],
    **{f"mixed CV {sd:g}": [(20, 1.0, sd), (5, -1.0, sd)] for sd in (3.0, 30.0)},
    "mixed 10 beside 9": [(10, 1.0, 1.0), (9, -1.0, 1.0)],
    **{f"mixed {n} beside {n - 1}": [(n, 1.0, 1.0), (n - 1, -1.0, 1.0)] for n in (20, 100, 1000, 10000)},
    "zero sum": [(2, 1.0, 1.0), (2, -1.0, 1.0)],
    "tiny mean": [(5, 1e-160, 1.0), (6, 2.0, 0.5), (7, 1.5, 0.4)],
}

SUMMARY = "group,n,mean,sd\nA,10,1.5,0.3\nB,12,2.5,0.4\n"
RAW = "group,value\nA,1.0\nA,2.0\nB,3.0\nB,4.5\n"
GRID = "phi,mu1,mu2,n1,n2\n0.1,1,2,10,10\n0.3,-1,-2.5,5,8\n"
# inputs of the three CSV readers: each layout as written, and the quoting,
# line breaks, byte order mark, blank lines and bad fields the readers meet
CSV_TEXTS = {
    "summary": SUMMARY,
    "raw": RAW,
    "grid": GRID,
    "CRLF": SUMMARY.replace("\n", "\r\n"),
    "BOM": "\ufeff" + RAW,
    "header spaces": " phi , mu1,mu2 ,n1, n2\n 0.1 ,1,2,10,10\n",
    "quoted comma": 'group,n,mean,sd\n"a, b",10,1.5,0.3\nB,12,2.5,0.4\n',
    "quoted quote": 'group,value\n"say ""hi""",1.0\n"say ""hi""",2.0\nB,3.0\nB,4.0\n',
    "quoted line break": 'group,n,mean,sd\n"two\nlines",10,1.5,0.3\nB,12,x,0.4\n',
    "form feed": "group,value\nA\f,1.0\n\f\nA,2.0\nB,3.0\nB,\f4.0\n",
    "line separator": "group,value\nA\u2028B,1.0\nA\u2028B,2.0\nC,3.0\nC,4.5\n",
    "blank lines": "\n".join(["group,n,mean,sd", "", "A,10,1.5,0.3", "   ", "B,12,2.5,0.4", "", ""]),
    "short row": "group,n,mean,sd\nA,10,1.5\n",
    "long row": "phi,mu1,mu2,n1,n2\n0.1,1,2,10,10,7\n",
    "non-numeric": "group,value\nA,1.0\nA,abc\n",
    "not finite": "phi,mu1,mu2,n1,n2\n0.1,1,inf,10,10\n",
    "n not whole": "group,n,mean,sd\nA,10,1.5,0.3\nB,2.5,1,1\n",
    "empty label": "group,value\n ,1.0\n ,2.0\n",
    "header only": "group,n,mean,sd\n",
    "empty": "",
}


def _update(digest, value):
    """Fold one value into ``digest``: a list or tuple by its length and
    then item by item, an array by its bytes, an error by its class and
    message, anything else by its repr.  An array inside a list is folded
    by its bytes too: numpy's repr rounds to 8 digits and elides all but
    6 of more than 1000 elements."""
    if isinstance(value, (list, tuple)):
        _update(digest, f"{type(value).__name__} of {len(value)}")
        for item in value:
            _update(digest, item)
        return
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
    from common_cv.io import read_grid_csv, read_raw_csv, read_summary_csv
    from common_cv.simulate import SimConfig, run_study

    pivotal_methods = (cv.Method.TIAN, cv.Method.NEW, cv.Method.COMBINED)
    studies = {
        "balanced": cv.Study([cv.SampleSummary(n=5, mean=1.0 + i, sd=0.2 * (1.0 + i)) for i in range(3)]),
        "surveys": cv.load_mcv_surveys(),
        "hospital": cv.load_hospital_survival(),
        "wide": cv.Study([cv.SampleSummary(n=5 + (7 * i) % 26, mean=1.0 + 0.25 * i, sd=0.3 + 0.05 * (i % 5))
                          for i in range(17)]),
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
        "balanced": dict(phi=0.1, mus=(1.0, 1.0, 1.0), ns=(5, 5, 5), m=2000),
        "unbalanced": dict(phi=0.3, mus=(-1.0, -2.0, -3.0), ns=(4, 9, 20), m=2000),
        "two blocks": dict(phi=0.2, mus=(2.0, 3.0), ns=(6, 11), m=2**15 + 17),
    }
    for (name, cell), seed, workers, kernel in itertools.product(cells.items(), seeds, (1, 2), kernels):
        with _patched(pivotal, workers, kernels[kernel]):
            result = _outcome(lambda: run_study(SimConfig(**cell, reps=reps, master_seed=seed)))
        add("run_study", (name, seed, workers, kernel), result)

    mle_studies = {**studies, **{
        name: [cv.SampleSummary(n=n, mean=mean, sd=sd) for n, mean, sd in rows] for name, rows in MLE_STUDIES.items()
    }}
    for name, study in mle_studies.items():
        add("mle", (name, "newton_mle"), _outcome(lambda: cv.newton_mle(study)))
        for level in VJ_LEVELS:
            add("mle", (name, level), _outcome(lambda: cv.vj_interval(study, level)))

    readers = {"summary": read_summary_csv, "raw": read_raw_csv, "grid": read_grid_csv}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        for name, text in CSV_TEXTS.items():
            path.write_bytes(text.encode("utf-8"))
            sources = {"text": lambda: io.StringIO(text), "binary": lambda: io.BytesIO(text.encode("utf-8")),
                       "path": lambda: path}
            for (reader, read), (form, source) in itertools.product(readers.items(), sources.items()):
                add("csv", (name, reader, form), _outcome(lambda: read(source())))

    return [f"{digest.hexdigest()} {counts[group]:>5} {group}" for group, digest in groups.items()]


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src").resolve()
    sys.path.insert(0, str(src))
    for line in lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
