"""The package's public names: an addition or removal must be deliberate."""

import common_cv

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
    "new_method_draw", "quantile", "tian_draw", "vj_interval",
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
