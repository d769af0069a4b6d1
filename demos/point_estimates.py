"""
Point estimates of a shared coefficient of variation
=====================================================

Three estimators on the two bundled datasets.  The weighted estimators
need only each group's size and CV; the maximum likelihood estimate uses
the full summaries and anchors the asymptotic interval.
"""

from common_cv import (
    feltz_miller_estimate,
    group_cvs,
    load_hospital_survival,
    load_mcv_surveys,
    new_estimate,
    newton_mle,
)

surveys = load_mcv_surveys()
hospital = load_hospital_survival()

for study, name in [(surveys, "blood-analyte surveys"), (hospital, "hospital survival times")]:
    print(name)
    for g, cv in zip(study.groups, group_cvs(study)):
        print(f"  {g.label:>10}  n={g.n:<3d} mean={g.mean:<10.4g} sd={g.sd:<10.5g} cv={cv:.4f}")

    # The Feltz-Miller estimate is the mean of the group CVs weighted by
    # group size; the harmonic-style one averages the inverse CVs with the
    # same weights.  Both are closed-form.
    fm = feltz_miller_estimate(study)
    harm = new_estimate(study)

    # Maximum likelihood: for fixed phi each sigma_i has a closed form, so
    # the estimate is the root of a one-dimensional profile score in phi.
    mle = newton_mle(study)

    print(f"  size weighted       : {fm:.4f}")
    print(f"  inverse-CV weighted : {harm:.4f}")
    print(f"  maximum likelihood  : {mle.phi:.4f}")
    print(f"  MLE group sigmas    : {', '.join(f'{s:.2f}' for s in mle.sigmas)}")
    print()
