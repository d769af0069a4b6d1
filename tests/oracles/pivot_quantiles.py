"""Direct single-file recomputation of the pivotal-interval reference values.

Independent of the package: plain numpy default_rng, scalar formulas written
straight from the definitions. Used to freeze expected quantiles for the
regression tests; tests/test_pivotal.py also pins the package's draws to
pivot_formulas bit for bit. Run: python3 tests/oracles/pivot_quantiles.py
"""
import numpy as np

M = 2_000_000


def variates(rng, dfs, m):
    """(m, k) chi-squares and normals of the documented layout: all the
    chi-squares, then the normals, then one spare normal per replicate."""
    u = rng.chisquare(dfs, size=(m, len(dfs)))
    zg = rng.standard_normal((m, len(dfs)))
    rng.standard_normal(m)  # spare slot in the layout, not consumed
    return u, zg


def pivots(rng, ns, means, sds, m):
    dfs = np.array(ns, dtype=float) - 1.0
    return pivot_formulas(ns, means, sds, *variates(rng, dfs, m))


def pivot_formulas(ns, means, sds, u, zg):
    """The three pivots of (m, k) chi-squares u and normals zg, by broadcasting."""
    ratios = np.array(means) / np.array(sds)
    nsa = np.array(ns, dtype=float)
    dfs = nsa - 1.0
    d = ratios * np.sqrt(u / dfs) - zg / np.sqrt(nsa)
    t1 = (dfs / d).sum(axis=1) / dfs.sum()
    # The pooled pivot's single normal is sqrt(n)*(pooled deviation), i.e.
    # sum_i sqrt(n_i)*Z_i / sqrt(n); its denominator reduces to sum_i n_i*D_i.
    t2 = nsa.sum() / (nsa * d).sum(axis=1)
    t3 = 0.5 * (t1 + t2)
    return t1, t2, t3


def q(x, p):
    m = len(x)
    rank = int(np.ceil(p * m - 1e-9))
    return np.partition(x, rank - 1)[rank - 1]


def report(name, ns, means, sds):
    rng = np.random.default_rng(20260815)
    t1, t2, t3 = pivots(rng, ns, means, sds, M)
    for label, t in [("t1", t1), ("t2", t2), ("t3", t3)]:
        lo, med, hi = q(t, 0.025), q(t, 0.5), q(t, 0.975)
        print(f"{name} {label}: 2.5%={lo:.6f} median={med:.6f} 97.5%={hi:.6f} length={hi-lo:.6f}")


if __name__ == "__main__":
    report("survey  ", [63, 72], [84.13, 85.68], [3.390, 2.946])
    report("hospital", [5, 4, 3, 10], [168.0, 59.5, 45.666666666666664, 154.6],
           [82.94877938166561, 66.78573150530814, 26.727020033405, 94.31177020842435])
