"""A fixed reference job, timed beside the workload to correct for load.

On a shared virtual machine, identical work can take 1.5-2 times as long
for minutes at a time because of load outside the machine; the guest sees
no steal time, and process CPU time slows down just as much as wall time.
The benchmark therefore times this job, which uses only numpy and never
changes, right before every step of a workload, and reports times as
*load-corrected seconds*:

    measured seconds * REF_S / fastest time of this job in the same process

that is, seconds on a machine that runs this job in ``REF_S`` seconds.
The job does the kind of work the package does (chi-square and normal
variates, element-wise arithmetic, a partition), so slowdowns from outside
hit both alike and cancel in the ratio.
"""

from __future__ import annotations

import time

import numpy as np

# The job's fastest time on the machine the benchmark was built on
# (2-vCPU Intel Xeon virtual machine, numpy single-threaded).
REF_S = 0.016


def reference_job():
    rng = np.random.default_rng(12345)
    for _ in range(20):
        x = rng.chisquare(4.0, 20_000)
        y = rng.standard_normal(20_000)
        np.partition(np.sqrt(x) * y / (1.0 + x), 500)


def time_reference() -> float:
    """Seconds one run of the reference job takes."""
    start = time.perf_counter()
    reference_job()
    return time.perf_counter() - start
