"""Independent recomputation of every workload output, for any seed.

Written from the documented contracts, not from the package: the stream
derivation (splitmix64 folding of ``(stream_id, *components)``, numpy
PCG64 seeded with ``SeedSequence([master_seed, stream_id])``), the role
tags and 2**15 block size, the per-replicate variate layout (k
chi-squares, k normals, one spare normal), the pivot formulas written as
``tian = sum(df_i/D_i)/sum(df_i)`` and ``new = n/sum(n_i*D_i)``, the
lower empirical quantile, and the maximum likelihood CV found as the root
of the profile score by bisection (the package runs damped Newton on the
full parameter vector).  The normal quantile comes from the standard
library, not scipy.

It imports nothing from ``common_cv``.  Degenerate pivot draws, which the
package regenerates, are not reproduced here: :class:`Unsupported` is
raised instead, and the check reports the output as unverifiable.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from workloads import BUNDLED, CLI_CELL, LEVEL, N5_CELL, PIVOTAL_NAMES, SIZES, derive_seed

_MASK64 = (1 << 64) - 1
_BLOCK = 1 << 15
_ROLE_PIVOT_BLOCK, _ROLE_SIM_DATA, _ROLE_SIM_PIVOTS = 1, 3, 4

# Bundled datasets as (n, mean, sd) per group, in file order.  The raw
# hospital data are reduced here with the same summary rules as the
# package (fsum mean, n - 1 divisor).
_HOSPITAL_RAW = (
    (176, 105, 266, 227, 66),
    (24, 5, 155, 54),
    (58, 64, 15),
    (147, 42, 305, 92, 30, 82, 256, 237, 208, 147),
)
_SURVEYS = ((63, 84.13, 3.390), (72, 85.68, 2.946))


class Unsupported(Exception):
    """The reference does not cover this input (a degenerate draw)."""


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _mix(*components):
    acc = 0
    for c in components:
        acc = _splitmix64(acc ^ (c & _MASK64))
    return acc


def _generator(master_seed, stream_id):
    seq = np.random.SeedSequence([master_seed & _MASK64, stream_id & _MASK64])
    return np.random.Generator(np.random.PCG64(seq))


def _summary(values):
    n = len(values)
    mean = math.fsum(values) / n
    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    return n, mean, sd


def pivots(groups, m, seed):
    """(tian, new, combined) draw arrays for one study and seed."""
    ns = np.array([g[0] for g in groups], dtype=float)
    dfs_int = np.array([g[0] - 1 for g in groups])
    dfs = dfs_int.astype(float)
    ratios = np.array([g[1] / g[2] for g in groups])
    k = len(groups)
    out = np.empty((3, m))
    for block, start in enumerate(range(0, m, _BLOCK)):
        b = min(_BLOCK, m - start)
        rng = _generator(seed, _mix(0, _ROLE_PIVOT_BLOCK, block))
        u = rng.chisquare(dfs_int, size=(b, k))
        z = rng.standard_normal((b, k))
        rng.standard_normal(b)  # the spare normal
        d = ratios * np.sqrt(u / dfs) - z / np.sqrt(ns)
        with np.errstate(divide="ignore", invalid="ignore"):
            tian = (dfs / d).sum(axis=1) / dfs.sum()
            new = ns.sum() / (ns * d).sum(axis=1)
        out[0, start:start + b] = tian
        out[1, start:start + b] = new
        out[2, start:start + b] = 0.5 * (tian + new)
    if not np.all(np.isfinite(out)):
        raise Unsupported("degenerate pivot draw")
    return out


def _quantile(values, p):
    rank = min(max(math.ceil(p * values.size - 1e-9), 1), values.size)
    return float(np.partition(values, rank - 1)[rank - 1])


def mle_phi(ns, means, sds):
    """Maximum likelihood CV per study, for arrays of shape (R, k).

    For fixed phi the likelihood is maximized by
    sigma_i = (-b_i + sqrt(b_i^2 + 4(a_i/n_i + mean_i^2)))/2, b_i = mean_i/phi;
    the profile score is then sum_i n_i*(sigma_i/phi - mean_i)/(sigma_i*phi^2),
    positive below the maximum and negative above it.  Bisection on log phi
    runs until the bracket cannot shrink further.
    """
    ns, means, sds = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (ns, means, sds))
    a = (ns - 1.0) * sds**2

    def score(phi):
        p = phi[:, None]
        b = means / p
        sig = (-b + np.sqrt(b * b + 4.0 * (a / ns + means**2))) / 2.0
        return np.sum(ns * (sig / p - means) / (sig * p * p), axis=1)

    start = ns.sum(axis=1) / np.sum(ns * means / sds, axis=1)
    if np.any(start <= 0.0):
        raise Unsupported("non-positive pooled CV")
    lo, hi = start.copy(), start.copy()
    for _ in range(200):
        low_bad, high_bad = score(lo) <= 0.0, score(hi) >= 0.0
        if not (low_bad.any() or high_bad.any()):
            break
        lo[low_bad] /= 2.0
        hi[high_bad] *= 2.0
    else:
        raise Unsupported("profile score has no sign change")
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if np.all((mid <= lo) | (mid >= hi)):
            break
        up = score(mid) > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return 0.5 * (lo + hi)


def _vj(phi, n_total, level):
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * math.sqrt((phi**4 + phi**2 / 2.0) / n_total)
    return phi - half, phi + half


def bundled_groups():
    return {
        "mcv_surveys": _SURVEYS,
        "hospital_survival": tuple(_summary([float(v) for v in g]) for g in _HOSPITAL_RAW),
    }


def bundled_pass(workload, size, seed, i):
    m = SIZES[size]["bundled_m"]
    alpha = 1.0 - LEVEL
    out = {}
    for key, _, phi0 in BUNDLED:
        groups = bundled_groups()[key]
        draws = pivots(groups, m, derive_seed(workload, seed, i, key))
        for name, values in zip(PIVOTAL_NAMES, draws):
            out[f"{key}.ci.{name}"] = [_quantile(values, alpha / 2.0), _quantile(values, 1.0 - alpha / 2.0)]
            p_le = np.count_nonzero(values <= phi0) / m
            p_ge = np.count_nonzero(values >= phi0) / m
            out[f"{key}.test.{name}"] = [min(1.0, 2.0 * min(p_le, p_ge))]
        ns, means, sds = zip(*groups)
        phi = float(mle_phi(ns, means, sds)[0])
        out[f"{key}.ci.vj"] = list(_vj(phi, sum(ns), LEVEL))
    return out


def coverage_pass(cell, reps, m, master_seed):
    """Per-method coverage, average length and failures of one cell."""
    phi = cell["phi"]
    alpha = 1.0 - LEVEL
    studies = []
    for r in range(reps):
        rng = _generator(master_seed, _mix(0, _ROLE_SIM_DATA, 0, r))
        groups = []
        for mu, n in zip(cell["mus"], cell["ns"]):
            z = rng.standard_normal(n)
            groups.append(_summary([float(x) for x in mu * (1.0 + phi * z)]))
        studies.append(groups)

    covered = dict.fromkeys(("tian", "vj", "new", "combined"), 0)
    length_sum = dict.fromkeys(covered, 0.0)
    for r, groups in enumerate(studies):
        draws = pivots(groups, m, _mix(master_seed, _ROLE_SIM_PIVOTS, 0, r))
        for name, values in zip(PIVOTAL_NAMES, draws):
            lower = _quantile(values, alpha / 2.0)
            upper = _quantile(values, 1.0 - alpha / 2.0)
            covered[name] += lower <= phi <= upper
            length_sum[name] += upper - lower
    ns, means, sds = (np.array([[g[j] for g in groups] for groups in studies]) for j in range(3))
    n_total = int(sum(cell["ns"]))
    for phi_hat in mle_phi(ns, means, sds):
        lower, upper = _vj(float(phi_hat), n_total, LEVEL)
        covered["vj"] += lower <= phi <= upper
        length_sum["vj"] += upper - lower
    return {
        name: {"coverage": covered[name] / reps, "avg_length": length_sum[name] / reps, "failures": 0}
        for name in covered
    }


def expected_pass(workload, size, seed, i):
    """The outputs pass ``i`` of a run must produce."""
    if workload == "bundled-1e6":
        return bundled_pass(workload, size, seed, i)
    cell, reps_key = (N5_CELL, "n5_reps") if workload == "coverage-n5" else (CLI_CELL, "cli_reps")
    sizes = SIZES[size]
    return coverage_pass(cell, sizes[reps_key], sizes["sim_m"], derive_seed(workload, seed, i))
