"""
Four confidence intervals, side by side
========================================

The three pivotal intervals are Monte Carlo percentile intervals from
draws of a pivotal quantity; under one seed all three consume identical
randomness, so their draws differ only by formula.  The asymptotic
interval is closed-form around the MLE and needs no draws.

On well-behaved data (many groups of decent size, small CV) the four
agree closely.  On small heavy-tailed data the group-weighted pivot can
put real probability mass at negative values, and its percentile
interval honestly reports that; nothing is clamped.
"""

from common_cv import Method, intervals, load_hospital_survival, load_mcv_surveys

LEVEL = 0.95
DRAWS = 200_000
SEED = 2026

for study, name in [
    (load_mcv_surveys(), "blood-analyte surveys"),
    (load_hospital_survival(), "hospital survival times"),
]:
    print(f"{name}, {LEVEL:.0%} intervals, {DRAWS} draws, seed {SEED}")
    # one call: the three pivotal methods share one set of draws
    for method, iv in intervals(study, tuple(Method), LEVEL, DRAWS, SEED).items():
        print(f"  {method.value:>8}: ({iv.lower:9.4f}, {iv.upper:9.4f})   length {iv.length:.4f}")
    print()

# The combined pivot is the per-replicate average of the other two, so
# its interval always sits between theirs and inherits a share of the
# group-weighted pivot's tail width on hard data.
