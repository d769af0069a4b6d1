"""Inference for a coefficient of variation shared by several normal
populations: point estimates, confidence intervals (three Monte Carlo
pivotal constructions and one asymptotic), hypothesis tests, and a
coverage simulation harness."""

from . import errors
from .estimators import (
    feltz_miller_estimate,
    group_cvs,
    log_likelihood,
    new_estimate,
    newton_mle,
    score_and_hessian,
    vj_interval,
)
from .io import (
    load_hospital_survival,
    load_mcv_surveys,
    read_raw_csv,
    read_summary_csv,
    write_summary_csv,
)
from .model import (
    Alternative,
    IntervalResult,
    Method,
    PIVOTAL_METHODS,
    ParameterVector,
    SampleSummary,
    Study,
    TestResult,
    summarize,
    validate_study,
)
from .pivotal import (
    PivotalDraws,
    combined_draw,
    confidence_interval,
    generate_draws,
    gpq_interval,
    gpq_test,
    new_method_draw,
    quantile,
    tian_draw,
)
from .randgen import SeededStream
from .simulate import ALL_METHODS, MethodPerformance, SimConfig, SimResult, run_grid, run_study

__version__ = "0.1.0"

__all__ = [
    "ALL_METHODS",
    "Alternative",
    "IntervalResult",
    "Method",
    "MethodPerformance",
    "PIVOTAL_METHODS",
    "ParameterVector",
    "PivotalDraws",
    "SampleSummary",
    "SeededStream",
    "SimConfig",
    "SimResult",
    "Study",
    "TestResult",
    "combined_draw",
    "confidence_interval",
    "errors",
    "feltz_miller_estimate",
    "generate_draws",
    "gpq_interval",
    "gpq_test",
    "group_cvs",
    "load_hospital_survival",
    "load_mcv_surveys",
    "log_likelihood",
    "new_estimate",
    "new_method_draw",
    "newton_mle",
    "quantile",
    "read_raw_csv",
    "read_summary_csv",
    "run_grid",
    "run_study",
    "score_and_hessian",
    "summarize",
    "tian_draw",
    "validate_study",
    "vj_interval",
    "write_summary_csv",
]
