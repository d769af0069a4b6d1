"""The three benchmark workloads and the inputs each derives from its seed.

Every workload is a closed loop: one caller, one process, and each pass
starts when the previous one returns.  Pass ``i`` of a run with workload
seed ``s`` always receives the same inputs (program seeds derived from
``(workload, s, i)``), so two runs with one seed repeat each other pass
by pass, while no two passes of a run repeat the same call.

This module imports nothing from ``common_cv`` itself: the caller imports
the package (timing the import) and hands it in, so the reference checker
can derive the same inputs without the package.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib
import time
from pathlib import Path

LEVEL = 0.95

# Every benchmark process runs numpy single-threaded.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# Sizes per profile.  "full" is what the benchmark measures; "tiny" runs
# every code path in well under a second per pass, for the self-test.
SIZES = {
    "full": {"bundled_m": 10**6, "n5_reps": 125, "cli_reps": 250, "sim_m": 2000},
    "tiny": {"bundled_m": 20_000, "n5_reps": 6, "cli_reps": 6, "sim_m": 500},
}

# (key, loader in common_cv.io, null value for the two-sided test).  The
# nulls sit near each dataset's estimate, so p-values are not all 0.
BUNDLED = (
    ("mcv_surveys", "load_mcv_surveys", 0.04),
    ("hospital_survival", "load_hospital_survival", 0.5),
)
N5_CELL = {"phi": 0.05, "mus": (1.0, 1.0, 1.0), "ns": (5, 5, 5)}
CLI_CELL = {"phi": 0.3, "mus": (1.0, 5.0, 10.0), "ns": (10, 20, 30)}
METHOD_NAMES = ("tian", "vj", "new", "combined")
PIVOTAL_NAMES = ("tian", "new", "combined")


def _nothing():
    pass


def derive_seed(workload: str, seed: int, pass_index: int, slot: str = "") -> int:
    """Program seed for one pass (and one slot of it), from the workload seed."""
    key = f"{workload}/{seed}/{pass_index}/{slot}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "little")


class Bundled:
    """Four intervals and three two-sided tests on each bundled dataset at
    large m: a few big calls, dominated by variate generation, the pivot
    formulas and million-element partitions."""

    name = "bundled-1e6"

    def __init__(self, cv, size: str, seed: int, workdir: Path):
        self.seed = seed
        self.m = SIZES[size]["bundled_m"]
        self.pivotal = cv.pivotal
        self.methods = cv.simulate.ALL_METHODS
        self.pivotal_methods = cv.PIVOTAL_METHODS
        self.two_sided = cv.Alternative.TWO_SIDED
        self.errors = (cv.errors.ValidationError, cv.errors.NumericalError)
        self.studies = [(key, getattr(cv.io, loader)(), phi0) for key, loader, phi0 in BUNDLED]

    def run_pass(self, i: int, before_step=_nothing):
        """Return (outputs, operations attempted, operations failed, pivotal
        draws, seconds per step); a step is one call."""
        out, failed, draws, steps = {}, 0, 0, []
        calls = [("ci", m) for m in self.methods] + [("test", m) for m in self.pivotal_methods]
        for key, study, phi0 in self.studies:
            seed = derive_seed(self.name, self.seed, i, key)
            for kind, method in calls:
                name = f"{key}.{kind}.{method.value}"
                before_step()
                start = time.perf_counter()
                try:
                    if kind == "ci":
                        iv = self.pivotal.confidence_interval(study, method, LEVEL, self.m, seed)
                        out[name] = [iv.lower, iv.upper]
                    else:
                        res = self.pivotal.gpq_test(study, method, phi0, self.two_sided, self.m, seed)
                        out[name] = [res.p_value]
                except self.errors as exc:
                    out[name] = f"error: {type(exc).__name__}"
                    failed += 1
                    continue
                finally:
                    steps.append(time.perf_counter() - start)
                if method in self.pivotal_methods:
                    draws += self.m
        return out, len(calls) * len(self.studies), failed, draws, steps


def _performance_outputs(rows):
    """{method: {coverage, avg_length, failures}} from (method, perf) pairs."""
    return {
        method: {"coverage": coverage, "avg_length": avg_length, "failures": failures}
        for method, coverage, avg_length, failures in rows
    }


def _coverage_counts(out, reps: int, m: int, seconds: float):
    """(attempted, failed, draws, steps) of a coverage pass, which is one
    call and so one step."""
    failed = sum(v["failures"] for v in out.values())
    draws = sum((reps - out[name]["failures"]) * m for name in PIVOTAL_NAMES if name in out)
    return reps * len(METHOD_NAMES), failed, draws, [seconds]


class CoverageN5:
    """``run_study`` on one small-sample cell: many small calls, where the
    damped-Newton MLE is about half of each replication."""

    name = "coverage-n5"

    def __init__(self, cv, size: str, seed: int, workdir: Path):
        self.seed = seed
        self.reps = SIZES[size]["n5_reps"]
        self.m = SIZES[size]["sim_m"]
        self.simulate = cv.simulate
        self.config = cv.SimConfig(
            **N5_CELL, reps=self.reps, m=self.m, level=LEVEL,
            methods=cv.simulate.ALL_METHODS, master_seed=0,
        )

    def run_pass(self, i: int, before_step=_nothing):
        config = dataclasses.replace(self.config, master_seed=derive_seed(self.name, self.seed, i))
        before_step()
        start = time.perf_counter()
        result = self.simulate.run_study(config)
        seconds = time.perf_counter() - start
        out = _performance_outputs(
            (m.value, p.coverage, p.avg_length, p.failures) for m, p in result.performance.items()
        )
        return (out, *_coverage_counts(out, self.reps, self.m, seconds))


class CoverageCli:
    """``common-cv simulate`` in-process on a one-row grid file: the same
    small-call path with a cheaper MLE, plus grid parsing and CSV output."""

    name = "coverage-cli-n10-30"

    def __init__(self, cv, size: str, seed: int, workdir: Path):
        self.seed = seed
        self.reps = SIZES[size]["cli_reps"]
        self.m = SIZES[size]["sim_m"]
        self.cli = importlib.import_module(f"{cv.__name__}.cli")
        k = len(CLI_CELL["ns"])
        grid = workdir / "grid.csv"
        with open(grid, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["phi"] + [f"mu{j + 1}" for j in range(k)] + [f"n{j + 1}" for j in range(k)])
            writer.writerow([CLI_CELL["phi"], *CLI_CELL["mus"], *CLI_CELL["ns"]])
        self.out_path = workdir / "simulate.csv"
        self.argv = [
            "simulate", "--config", str(grid), "--reps", str(self.reps), "--draws", str(self.m),
            "--level", repr(LEVEL), "--method", "all", "--out", str(self.out_path),
        ]

    def run_pass(self, i: int, before_step=_nothing):
        seed = derive_seed(self.name, self.seed, i)
        before_step()
        start = time.perf_counter()
        code = self.cli.main([*self.argv, "--seed", str(seed)])
        rows = []
        if code == 0:
            with open(self.out_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        seconds = time.perf_counter() - start
        errors = [row["error"] for row in rows if row["error"]]
        if code != 0 or errors:
            attempted = self.reps * len(METHOD_NAMES)
            return {"exit_code": code, "errors": errors}, attempted, attempted, 0, [seconds]
        out = _performance_outputs(
            (row["method"], float(row["coverage"]), float(row["avg_length"]), int(row["failures"]))
            for row in rows
        )
        return (out, *_coverage_counts(out, self.reps, self.m, seconds))


WORKLOADS = {w.name: w for w in (Bundled, CoverageN5, CoverageCli)}
