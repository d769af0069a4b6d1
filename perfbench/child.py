"""One benchmark process: import the package, set up a workload, run passes.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP threads
pinned to 1.  Protocol on standard output, one JSON object per line:

  {"ready": ..., "import_s": ...}   as soon as set-up is done
  {"ref_s": ...}                    then, in --setup-only, the reference
                                    job's fastest time (``yardstick.py``)
  {"passes": [...], ...}            after the last pass (not in --setup-only)

The parent times set-up from process start to the first line.  Every step
of a pass is preceded by one timed run of the reference job.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_TIMED_PASSES = 3
# A pass never starts once this many times --seconds have gone by, so a
# run stays bounded even when the program gets much slower.
HARD_CAP = 2.5
SETUP_REF_RUNS = 5


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0, help="run exactly this many passes")
    parser.add_argument("--trace", default="", help="write a span trace to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import common_cv  # noqa: E402 - timed, and resolved from this checkout's src

    import_s = time.perf_counter() - start
    if Path(common_cv.__file__).resolve().parent != ROOT / "src" / "common_cv":
        raise SystemExit(f"common_cv resolved outside this checkout: {common_cv.__file__}")

    from tracer import Tracer
    from workloads import WORKLOADS
    from yardstick import time_reference

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](common_cv, args.size, args.seed, workdir)
        _emit({"ready": True, "import_s": import_s})
        if args.setup_only:
            _emit({"ref_s": min(time_reference() for _ in range(SETUP_REF_RUNS))})
            return 0

        passes = []
        loop_start = time.perf_counter()
        i = 0
        while True:
            if tracer:
                tracer.pass_index = i
            ref = []
            outputs, attempted, failed, draws, steps = workload.run_pass(
                i, lambda: ref.append(time_reference()))
            t1 = time.perf_counter()
            passes.append({"steps": steps, "ref_s": ref, "outputs": outputs,
                           "attempted": attempted, "failed": failed, "draws": draws})
            i += 1
            if args.passes:
                if i >= args.passes:
                    break
                continue
            elapsed, timed = t1 - loop_start, i - 1  # pass 0 warms up
            if timed >= MIN_TIMED_PASSES and elapsed >= args.seconds:
                break
            if timed >= 1 and elapsed >= HARD_CAP * args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.pass_index = -2
            tracer.write(args.trace)
        _emit({"passes": passes, "peak_rss_mb": peak_rss_mb})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
