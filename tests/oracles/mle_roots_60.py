"""60-digit roots of the profile score, for last-bit checks of ``newton_mle``.

For fixed phi the likelihood is maximized by sigma_i = phi*mean_i*u_i, with
u_i the root of p*u^2 + u = 1 + q_i of the sign of phi*mean_i (p = phi^2,
q_i = (n_i-1)*sd_i^2/(n_i*mean_i^2)).  The MLE is the root of
h(p) = sum_i n_i*(1 - 1/u_i), found here by bisection on log p in mpmath at
70 digits over [min q_i, max q_i], with the study values exactly as the
package holds them in floats.  With mixed signs the root can lie above
max q_i, so the upper end is quadrupled until h < 0, as ``newton_mle``
widens its own.  Bisecting on log p takes a bracket that spans
hundreds of orders of magnitude to 60 digits in 1200 steps.  Needs mpmath,
which the tests do not.
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

    lo, hi = mp.log(min(qs)), mp.log(max(qs))
    h_lo, h_hi = h(mp.exp(lo)), h(mp.exp(hi))
    while h_hi > 0:  # with mixed signs the root can lie above every q_i
        lo, h_lo, hi = hi, h_hi, hi + mp.log(4)
        h_hi = h(mp.exp(hi))
    for _ in range(1200):
        mid = (lo + hi) / 2
        h_mid = h(mp.exp(mid))
        if (h_mid > 0) == (h_lo > 0):
            lo, h_lo = mid, h_mid
        else:
            hi = mid
    return sign * mp.sqrt(mp.exp((lo + hi) / 2))


if __name__ == "__main__":
    def study(*rows):
        return [SampleSummary(n=n, mean=mean, sd=sd) for n, mean, sd in rows]

    for name, groups in [
        ("surveys", load_mcv_surveys().groups),
        ("hospital", load_hospital_survival().groups),
        ("pair", study((5, 2.0, 1.0), (7, 3.0, 0.6))),
        *((f"sd {sd} beside 0.4", study((5, 1.0, float(sd)), (7, 2.0, 0.4))) for sd in ("1e16", "1e17", "1e30", "1e50")),
        ("sd 1e50 beside 1e20", study((5, 1.0, 1e50), (7, 2.0, 1e20))),
        ("sd 1e76 beside 1e77", study((5, 1.0, 1e76), (7, 2.0, 1e77))),
        ("mixed pair", study((5, 2.0, 1.0), (7, -3.0, 0.6))),
        ("mixed three", study((10, 5.0, 1.0), (8, 4.0, 1.5), (6, -1.0, 2.0))),
        *((f"mixed CV {sd:g}", study((20, 1.0, sd), (5, -1.0, sd))) for sd in (3.0, 30.0)),
        ("mixed 10 beside 9", study((10, 1.0, 1.0), (9, -1.0, 1.0))),
    ]:
        print(f'"{name}": "{mp.nstr(profile_root(groups), 60)}",')
