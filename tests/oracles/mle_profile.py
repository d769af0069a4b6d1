"""Profile-likelihood recomputation of the maximum likelihood CV.

Independent cross-check for ``newton_mle``: for fixed phi the sigma score
has a closed-form positive root, so the joint maximization reduces to a
1-D profile search, done here by a grid and Brent's minimizer instead of
a root of the profile score. Run: python3 tests/oracles/mle_profile.py
to print the table; importing the module prints nothing.  The hospital
summaries are recomputed from the bundled raw CSV without importing the
package.
"""
import csv
import math
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar


def profile_sigmas(phi, ns, means, a):
    # positive root of s^2 + b*s - c; for b > 0 the product of the roots
    # gives it without the cancellation of -b + sqrt(b^2 + 4c) at small phi
    b = means / phi
    c = a / ns + means**2
    root = np.sqrt(b * b + 4.0 * c)
    return np.where(b > 0.0, 2.0 * c / (b + root), (root - b) / 2.0)


def loglik(phi, sig, ns, means, a):
    resid = means - sig / phi
    ss = a + ns * resid**2
    return float(np.sum(-ns * np.log(sig) - ss / (2.0 * sig**2))
                 - 0.5 * ns.sum() * math.log(2.0 * math.pi))


def mle(ns, means, sds, lo=1e-4, hi=50.0):
    ns = np.asarray(ns, float); means = np.asarray(means, float)
    a = (ns - 1.0) * np.asarray(sds, float) ** 2
    grid = np.geomspace(lo, hi, 20000)
    vals = [loglik(p, profile_sigmas(p, ns, means, a), ns, means, a) for p in grid]
    i = int(np.argmax(vals))
    res = minimize_scalar(
        lambda p: -loglik(p, profile_sigmas(p, ns, means, a), ns, means, a),
        bracket=(grid[max(i - 1, 0)], grid[i], grid[min(i + 1, len(grid) - 1)]),
    )
    phi = float(res.x)
    return phi, profile_sigmas(phi, ns, means, a), -float(res.fun)


def raw_summaries(path):
    """(ns, means, sds) per group of a ``group,value`` CSV, groups in order
    of first appearance; sd uses the n - 1 divisor."""
    groups = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault(row["group"], []).append(float(row["value"]))
    ns, means, sds = [], [], []
    for values in groups.values():
        n = len(values)
        mean = math.fsum(values) / n
        ns.append(n)
        means.append(mean)
        sds.append(math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1)))
    return ns, means, sds


HOSPITAL_CSV = Path(__file__).resolve().parents[2] / "src" / "common_cv" / "data" / "hospital_survival.csv"


if __name__ == "__main__":
    for name, ns, means, sds in [
        ("survey  ", [63, 72], [84.13, 85.68], [3.390, 2.946]),
        ("hospital", *raw_summaries(HOSPITAL_CSV)),
        ("single  ", [10], [10.0], [2.0]),
        ("pair    ", [5, 7], [2.0, 3.0], [1.0, 0.6]),
        ("wide    ", [3, 14], [1.0, 29.0], [4.0, 0.125]),
        ("cv3/0.01", [5, 5], [1.0, 1.0], [3.0, 0.01]),
    ]:
        phi, sig, ll = mle(ns, means, sds)
        print(f"{name} phi={phi:.8f} sigmas={np.round(sig, 6)} loglik={ll:.8f}")
