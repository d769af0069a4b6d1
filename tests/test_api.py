"""The package's public surface: its names, where an addition or removal
must be deliberate, and its runtime dependencies (numpy alone)."""

import os
import subprocess
import sys
from pathlib import Path

import common_cv

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports the package and runs three commands on small inputs, then prints
# every scipy module that got loaded on the way.
NO_SCIPY_SCRIPT = """
import contextlib, io, sys
from importlib import resources
from common_cv import cli

surveys = str(resources.files("common_cv").joinpath("data").joinpath("mcv_surveys.csv"))
grid, out = sys.argv[1:]
for argv in (
    ["estimate", "--input", surveys, "--summary"],
    ["ci", "--input", surveys, "--summary", "--method", "all", "--draws", "200"],
    ["simulate", "--config", grid, "--reps", "3", "--draws", "200", "--out", out],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""

PUBLIC = {
    # value types and method tags
    "ALL_METHODS", "Alternative", "IntervalResult", "Method", "MethodPerformance",
    "PIVOTAL_METHODS", "ParameterVector", "PivotalDraws", "SampleSummary", "SimConfig",
    "SimResult", "Study", "TestResult", "errors",
    # point estimates and the likelihood
    "feltz_miller_estimate", "group_cvs", "log_likelihood", "new_estimate", "newton_mle",
    "score_and_hessian",
    # intervals, tests and pivotal draws
    "combined_draw", "confidence_interval", "generate_draws", "gpq_interval", "gpq_test",
    "gpq_tests", "intervals", "new_method_draw", "quantile", "tian_draw", "vj_interval",
    # data
    "load_hospital_survival", "load_mcv_surveys", "read_raw_csv", "read_summary_csv",
    "summarize", "validate_study", "write_summary_csv",
    # simulation and randomness
    "SeededStream", "run_grid", "run_study",
}


def test_all_is_pinned():
    assert len(common_cv.__all__) == len(set(common_cv.__all__))
    assert set(common_cv.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in common_cv.__all__:
        assert getattr(common_cv, name) is not None


def test_runtime_needs_no_scipy(tmp_path):
    grid, out = tmp_path / "grid.csv", tmp_path / "out.csv"
    grid.write_text("phi,mu1,mu2,n1,n2\n0.3,1.0,2.0,10,10\n")
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(grid), str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert out.read_text().count("\n") == 5  # header and four methods
