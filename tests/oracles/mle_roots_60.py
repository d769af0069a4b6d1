"""60-digit roots of the profile score, for last-bit checks of ``newton_mle``.

For fixed phi the likelihood is maximized by sigma_i = phi*mean_i*u_i, with
u_i the root of p*u^2 + u = 1 + q_i of the sign of phi*mean_i (p = phi^2,
q_i = (n_i-1)*sd_i^2/(n_i*mean_i^2)).  The MLE is the root of
h(p) = sum_i n_i*(1 - 1/u_i), found here by bisection in mpmath at 60
significant digits over [min q_i, max q_i], with the study values exactly as
the package holds them in floats.  Needs mpmath, which the tests do not.
Run: PYTHONPATH=src python3 tests/oracles/mle_roots_60.py
"""
import mpmath as mp

from common_cv import load_hospital_survival, load_mcv_surveys
from common_cv.model import SampleSummary

mp.mp.dps = 70  # ten guard digits over the 60 printed


def profile_root(groups):
    rows = [(mp.mpf(g.n), mp.mpf(g.mean), mp.mpf(g.sd)) for g in groups]
    sign = 1 if sum(n * mean / sd for n, mean, sd in rows) > 0 else -1
    qs = [(n - 1) * sd**2 / (n * mean**2) for n, mean, sd in rows]

    def h(p):
        total = mp.mpf(0)
        for (n, mean, _), q in zip(rows, qs):
            root = mp.sqrt(1 + 4 * p * (1 + q))
            u = (root - 1) / (2 * p) if sign * mean > 0 else -(root + 1) / (2 * p)
            total += n * (1 - 1 / u)
        return total

    lo, hi = min(qs), max(qs)
    h_lo = h(lo)
    for _ in range(400):
        mid = (lo + hi) / 2
        h_mid = h(mid)
        if (h_mid > 0) == (h_lo > 0):
            lo, h_lo = mid, h_mid
        else:
            hi = mid
    return sign * mp.sqrt((lo + hi) / 2)


if __name__ == "__main__":
    pair = [SampleSummary(n=5, mean=2.0, sd=1.0), SampleSummary(n=7, mean=3.0, sd=0.6)]
    for name, groups in [
        ("surveys", load_mcv_surveys().groups),
        ("hospital", load_hospital_survival().groups),
        ("pair", pair),
    ]:
        print(f'"{name}": "{mp.nstr(profile_root(groups), 60)}",')
