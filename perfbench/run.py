"""The common-cv benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/common_cv``.  Every
process is a fresh single-threaded interpreter (BLAS/OpenMP pinned to one
thread).  The run:

1. starts the package ``SETUP_STARTS`` times to time set-up (import,
   data loading or grid writing, config building);
2. runs the workload untraced in one more process, pass after pass, for
   ``--seconds`` (pass 0 warms up and is not timed), timing the reference
   job of ``yardstick.py`` before every step;
3. with ``--trace 1``, repeats the same passes in a traced process;
4. checks every pass against recorded and recomputed values
   (``check.py``) and, traced, that the traced outputs are identical and
   that the layer counts repeat pass after pass.

Times are load-corrected seconds (see ``yardstick.py``).  The
next-to-last line of standard output is a run record (versions, machine,
pins, seed, and each metric's median, quartiles and sample count); the
last line is the result.  End-to-end metrics are reported
with ``--trace 0`` and per-layer metrics with ``--trace 1``.  A failed
check prints the result with ``"correct": false`` and no metrics, and
exits 1; a run that cannot start prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, analyze  # noqa: E402
from workloads import SIZES, THREAD_PINS, WORKLOADS  # noqa: E402

os.environ.update(THREAD_PINS)  # before numpy loads, here and in every child

from child import HARD_CAP  # noqa: E402
from yardstick import REF_S  # noqa: E402

SETUP_STARTS = 5
# Allowance for everything but the measuring loops: set-up starts, each
# child's import, the pass that runs past the cap, the checks.
MARGIN_S = 60.0

class BenchError(Exception):
    pass


class Child:
    """One benchmark process; its JSON lines arrive with their arrival times."""

    def __init__(self, args):
        cmd = [sys.executable, "-E", str(HERE / "child.py"), *args]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line))
        self.lines.put((time.perf_counter(), None))

    def message(self, deadline):
        try:
            at, line = self.lines.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            raise BenchError("benchmark process timed out") from None
        if line is None:
            raise BenchError(f"benchmark process exited with code {self.proc.wait()}")
        return at, json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.reader.join(timeout=30)
        self.proc.stdout.close()


def _child_args(ns, workdir, *extra):
    return ["--workload", ns.workload, "--seed", str(ns.seed), "--size", ns.size,
            "--workdir", str(workdir), *extra]


def _setup_start(ns, workdir, deadline, *extra):
    """Start a child; return (it, seconds from start to ready, import seconds)."""
    child = Child(_child_args(ns, workdir, *extra))
    try:
        at, ready = child.message(deadline)
    except BaseException:
        child.close()
        raise
    return child, at - child.start, ready["import_s"]


def _run(ns, workdir, deadline, *extra):
    child, _, _ = _setup_start(ns, workdir, deadline, *extra)
    try:
        _, done = child.message(deadline)
        if child.proc.wait(timeout=max(1.0, deadline - time.perf_counter())) != 0:
            raise BenchError("benchmark process failed after reporting")
    finally:
        child.close()
    return done


def _deadline_s(seconds):
    """Seconds the whole run may take.  The untraced loop stops by
    ``HARD_CAP`` times its share of ``seconds``; traced, repeating its
    passes takes about as long again."""
    return MARGIN_S + 2 * HARD_CAP * seconds


def _fastest(passes):
    """Load-corrected seconds per pass: the fastest pass's time in its steps
    (its calls, or the pass itself; the reference job left out), scaled by
    REF_S over the lowest per-pass mean of the reference job's times."""
    steps = min(sum(p["steps"]) for p in passes)
    return steps * REF_S / min(statistics.fmean(p["ref_s"]) for p in passes)


def _pass_seconds(p):
    """Load-corrected seconds of one pass, for the run record's quartiles."""
    return sum(p["steps"]) * REF_S / statistics.fmean(p["ref_s"])


def _stats(values, kind, unit, value=None):
    """A metric record: ``value`` (by default the median of ``values``), the
    number of samples and, from two samples on, their median and quartiles."""
    values = list(values)
    record = {"kind": kind, "unit": unit, "samples": len(values),
              "value": statistics.median(values) if value is None else value}
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        record.update(median=median, q1=q1, q3=q3)
    return record


def _commit():
    """The checkout's commit if it is a git checkout, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "common_cv").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _versions():
    import numpy

    try:
        from importlib.metadata import version

        scipy_version = version("scipy")
    except Exception:  # noqa: BLE001 - reported, not needed to run
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy_version}


def _run_record(ns, metrics, extra):
    return {
        "run_record": {
            "workload": ns.workload,
            "seed": ns.seed,
            "size": ns.size,
            "seconds": ns.seconds,
            "trace": ns.trace,
            "commit": _commit(),
            "source_sha256": _source_digest(),
            **_versions(),
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "thread_pins": THREAD_PINS,
            "metrics": metrics,
            **extra,
        }
    }


def bench(ns):
    deadline = time.perf_counter() + _deadline_s(ns.seconds)
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    workdir = outdir / f"work-{os.getpid()}"

    setup_samples, import_samples = [], []
    for _ in range(SETUP_STARTS):
        child, setup_s, import_s = _setup_start(ns, workdir, deadline, "--setup-only")
        try:
            _, ref = child.message(deadline)
            if child.proc.wait(timeout=max(1.0, deadline - time.perf_counter())) != 0:
                raise BenchError("set-up process failed")
        finally:
            child.close()
        scale = REF_S / ref["ref_s"]
        setup_samples.append(setup_s * scale)
        import_samples.append(import_s * scale)

    # Traced, the untraced and traced processes share the time: the
    # traced one repeats exactly the passes the untraced one ran.
    seconds = ns.seconds / 2 if ns.trace else ns.seconds
    run = _run(ns, workdir, deadline, "--seconds", str(seconds))
    passes = run["passes"]
    timed = passes[1:]

    traced = None
    if ns.trace:
        trace_path = outdir / f"trace-{ns.workload}-seed{ns.seed}.json"
        traced = _run(ns, workdir, deadline, "--passes", str(len(passes)), "--trace", str(trace_path))

    from check import verify

    problems, recorded = verify(
        ns.workload, ns.size, ns.seed, [p["outputs"] for p in passes],
        [p["outputs"] for p in traced["passes"]] if traced else None,
    )
    extra = {
        "passes": len(passes),
        "pass_steps_s": [sum(p["steps"]) for p in passes],
        "pass_ref_s": [statistics.fmean(p["ref_s"]) for p in passes],
        "checked_against_recording": recorded,
        "checked_against_reference": len(passes),
        "fail_frac": sum(p["failed"] for p in passes) / sum(p["attempted"] for p in passes),
    }

    if ns.trace:
        trace = json.loads(Path(trace_path).read_text())
        layer, samples, count_problems, unobserved = analyze(trace, range(1, len(passes)))
        problems += count_problems
        scale = REF_S / min(statistics.fmean(p["ref_s"]) for p in traced["passes"][1:])
        for name, unit, _ in LAYER_METRICS:
            if unit in ("s", "ms") and name in layer:
                layer[name] *= scale
                if name in samples:
                    samples[name] = [v * scale for v in samples[name]]
        samples["setup.import_s"] = import_samples
        layer["setup.import_s"] = statistics.median(import_samples)
        layer["trace.overhead_frac"] = _fastest(traced["passes"][1:]) / _fastest(timed) - 1.0
        metrics = {
            name: _stats(samples.get(name, [layer[name]]), "layer", unit, layer[name])
            for name, unit, _ in LAYER_METRICS
        }
        extra.update(missing_boundaries=trace["missing"], not_observed=unobserved,
                     trace_file=str(Path(trace_path).relative_to(ROOT)))
    else:
        # Load from outside slows stretches of passes by up to 90%; the
        # fastest pass over the reference job's fastest time tracks the
        # program's own cost far more steadily (see README.md).
        wall = _fastest(timed)
        pass_s = [_pass_seconds(p) for p in timed]
        draws = [p["draws"] for p in timed]
        ops = [p["attempted"] - p["failed"] for p in timed]
        metrics = {
            "setup_s": _stats(setup_samples, "e2e", "s"),
            "wall_s": _stats(pass_s, "e2e", "s", wall),
            "draws_per_s": _stats([d / s for d, s in zip(draws, pass_s)], "e2e", "1/s",
                                  statistics.median(draws) / wall),
            "ops_per_s": _stats([o / s for o, s in zip(ops, pass_s)], "e2e", "1/s",
                                statistics.median(ops) / wall),
            "peak_rss_mb": _stats([run["peak_rss_mb"]], "e2e", "MB"),
        }

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if problems:
        extra["problems"] = problems
        print(json.dumps(_run_record(ns, {}, extra)))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps(_run_record(ns, metrics, extra)))
    result = {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    ns = parser.parse_args(argv)
    if not (ROOT / "src" / "common_cv" / "__init__.py").is_file():
        print(f"perfbench: no common_cv source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return bench(ns)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
