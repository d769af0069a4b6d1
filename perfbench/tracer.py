"""Spans at the module boundaries of ``common_cv``, recorded from outside.

The traced run replaces the names one module takes from another (and the
few class methods every layer calls) with wrappers that record one span
per call: id, name, layer, start, end, parent span, pass index, whether
it returned, and up to three counts read from the call's arguments or
result.  Nothing in the package is edited; untraced runs install nothing.
A boundary that no longer exists is listed as missing instead of failing
the run.

Layer self time is each span's duration minus the time its direct child
spans cover, summed over the layer's spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import time

def _size(size, default=1):
    if size is None:
        return default
    return math.prod(size) if isinstance(size, (tuple, list)) else int(size)


def _chi_square(args, kwargs, result):
    size = args[2] if len(args) > 2 else kwargs.get("size")
    return (_size(size, default=math.prod(getattr(result, "shape", ()))),)


def _standard_normal(args, kwargs, result):
    size = args[1] if len(args) > 1 else kwargs.get("size")
    return (_size(size),)


def _engine(args, kwargs, result):
    # _pivot_value_arrays(study, methods, m, seed) -> (values, rejected):
    # draws delivered, draws rejected, and the variates the layout implies
    # (k chi-squares, k normals and one spare normal per replicate drawn).
    study, methods, m = args[0], args[1], args[2]
    rejected = sum(result[1].values())
    return m * len(methods), rejected, (m + rejected) * (2 * len(study) + 1)


def _replication(args, kwargs, result):
    # _simulate_study(config, stream): one normal per simulated observation.
    return (sum(args[0].ns),)


def _run_study(args, kwargs, result):
    return args[0].reps, sum(p.failures for p in result.performance.values())


# (module, attribute, span name, layer, count reader).  Where one module
# imports a name from another, both bindings are wrapped, so calls are
# seen whichever namespace the caller resolves them in.
BOUNDARIES = (
    ("common_cv.randgen", "SeededStream.__init__", "randgen.stream", "randgen.stream", None),
    ("common_cv.randgen", "SeededStream.substream", "randgen.substream", "randgen.stream", None),
    ("common_cv.randgen", "SeededStream.chi_square", "randgen.chi_square", "randgen.draw", _chi_square),
    ("common_cv.randgen", "SeededStream.standard_normal", "randgen.standard_normal", "randgen.draw",
     _standard_normal),
    ("common_cv.pivotal", "_pivot_value_arrays", "pivotal.engine", "pivotal", _engine),
    ("common_cv.simulate", "_pivot_value_arrays", "pivotal.engine", "pivotal", _engine),
    ("common_cv.pivotal", "generate_draws", "pivotal.generate_draws", "pivotal", None),
    ("common_cv.simulate", "generate_draws", "pivotal.generate_draws", "pivotal", None),
    ("common_cv.pivotal", "confidence_interval", "pivotal.confidence_interval", "pivotal", None),
    ("common_cv.pivotal", "gpq_interval", "pivotal.gpq_interval", "pivotal", None),
    ("common_cv.pivotal", "gpq_test", "pivotal.gpq_test", "pivotal", None),
    ("common_cv.pivotal", "quantile", "pivotal.quantile", "pivotal.quantile", None),
    ("common_cv.simulate", "quantile", "pivotal.quantile", "pivotal.quantile", None),
    ("common_cv.pivotal", "vj_interval", "estimators.vj_interval", "estimators", None),
    ("common_cv.simulate", "vj_interval", "estimators.vj_interval", "estimators", None),
    ("common_cv.estimators", "newton_mle", "estimators.newton_mle", "estimators", None),
    ("common_cv.cli", "newton_mle", "estimators.newton_mle", "estimators", None),
    ("common_cv.simulate", "summarize", "model.summarize", "model", None),
    ("common_cv.io", "summarize", "model.summarize", "model", None),
    ("common_cv.simulate", "run_study", "simulate.run_study", "simulate", _run_study),
    ("common_cv.simulate", "_simulate_study", "simulate.replication", "simulate", _replication),
    ("common_cv.cli", "run_grid", "simulate.run_grid", "simulate", None),
    ("common_cv.cli", "main", "cli.main", "cli", None),
    ("common_cv.io", "read_raw_csv", "io.read_csv", "io", None),
    ("common_cv.io", "read_summary_csv", "io.read_csv", "io", None),
    ("common_cv.io", "load_mcv_surveys", "io.load", "io", None),
    ("common_cv.io", "load_hospital_survival", "io.load", "io", None),
)


class Tracer:
    """In-memory span recorder; ``pass_index`` tags spans with the pass
    that was running (-1 during set-up)."""

    def __init__(self):
        self.spans = []
        self.pass_index = -1
        self.missing = []
        self._stack = []
        self._next_id = 0

    def install(self, boundaries=BOUNDARIES):
        for module_name, attr, name, layer, reader in boundaries:
            owner_path, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            # Only a function the owner defines itself, never an inherited one.
            fn = vars(owner).get(leaf) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(fn, name, layer, reader))

    def _wrap(self, fn, name, layer, reader):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = reader(args, kwargs, result) if reader and ok else ()
                self.spans.append((span_id, name, layer, start, end, parent, self.pass_index, ok, *counts))

        return wrapper

    def write(self, path):
        """Write the trace as JSON: missing boundaries and one list per span."""
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh, separators=(",", ":"))


# Per-layer metrics: (name, unit, span names it is read from).  Counts are
# per pass and must repeat; times are seconds per pass (median over timed
# passes).  A metric none of whose spans occurred (or whose boundaries are
# missing) is reported as not observed.
LAYER_METRICS = (
    ("setup.import_s", "s", None),
    ("io.load_s", "s", ("io.load", "io.read_csv")),
    ("io.calls", "count", ("io.read_csv",)),
    ("randgen.streams", "count", ("randgen.stream",)),
    ("randgen.stream_s", "s", ("randgen.stream", "randgen.substream")),
    ("randgen.variates", "count", ("randgen.chi_square", "randgen.standard_normal")),
    ("randgen.draw_s", "s", ("randgen.chi_square", "randgen.standard_normal")),
    ("pivotal.calls", "count", ("pivotal.engine",)),
    ("pivotal.draws", "count", ("pivotal.engine",)),
    ("pivotal.rejected", "count", ("pivotal.engine",)),
    ("pivotal.accept_ratio", "ratio", ("pivotal.engine",)),
    ("pivotal.self_s", "s", ("pivotal.engine",)),
    ("pivotal.call_ms_p50", "ms", ("pivotal.engine",)),
    ("pivotal.call_ms_p90", "ms", ("pivotal.engine",)),
    ("pivotal.quantile_calls", "count", ("pivotal.quantile",)),
    ("pivotal.quantile_s", "s", ("pivotal.quantile",)),
    ("estimators.mle_calls", "count", ("estimators.newton_mle",)),
    ("estimators.mle_s", "s", ("estimators.newton_mle", "estimators.vj_interval")),
    ("estimators.mle_ms_p50", "ms", ("estimators.newton_mle",)),
    ("estimators.mle_ms_p90", "ms", ("estimators.newton_mle",)),
    ("estimators.mle_failures", "count", ("estimators.newton_mle",)),
    ("model.summarize_calls", "count", ("model.summarize",)),
    ("model.summarize_s", "s", ("model.summarize",)),
    ("simulate.reps", "count", ("simulate.replication",)),
    ("simulate.method_failures", "count", ("simulate.run_study",)),
    ("simulate.self_s", "s", ("simulate.run_study", "simulate.run_grid", "simulate.replication")),
    ("cli.self_s", "s", ("cli.main",)),
    ("trace.overhead_frac", "ratio", None),
)

# Counts fixed by the input sizes alone: they must be equal in every pass.
LAYOUT_COUNTS = (
    "randgen.streams", "randgen.variates", "pivotal.calls", "pivotal.draws",
    "pivotal.quantile_calls", "estimators.mle_calls", "model.summarize_calls", "simulate.reps",
)


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _pass_summary(spans, child_time):
    """Counts and self times of one pass (or of set-up)."""
    by_name = {}
    self_by_layer = {}
    for span in spans:
        span_id, name, layer, start, end = span[:5]
        by_name.setdefault(name, []).append(span)
        own = end - start - child_time.get(span_id, 0.0)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own

    def count(name):
        return len(by_name.get(name, ()))

    def total(name, field):
        return sum(s[field] for s in by_name.get(name, ()) if len(s) > field)

    engine = by_name.get("pivotal.engine", ())
    mle = by_name.get("estimators.newton_mle", ())
    draws, rejected = total("pivotal.engine", 8), total("pivotal.engine", 9)
    return {
        "names": set(by_name),
        "counts": {
            "io.calls": count("io.read_csv"),
            "randgen.streams": count("randgen.stream"),
            "randgen.variates": total("randgen.chi_square", 8) + total("randgen.standard_normal", 8),
            "pivotal.calls": len(engine),
            "pivotal.draws": draws,
            "pivotal.rejected": rejected,
            "pivotal.quantile_calls": count("pivotal.quantile"),
            "estimators.mle_calls": len(mle),
            "estimators.mle_failures": sum(1 for s in mle if not s[7]),
            "model.summarize_calls": count("model.summarize"),
            "simulate.reps": count("simulate.replication"),
            "simulate.method_failures": total("simulate.run_study", 9),
        },
        "times": {
            "io.load_s": self_by_layer.get("io", 0.0),
            "randgen.stream_s": self_by_layer.get("randgen.stream", 0.0),
            "randgen.draw_s": self_by_layer.get("randgen.draw", 0.0),
            "pivotal.self_s": self_by_layer.get("pivotal", 0.0),
            "pivotal.quantile_s": self_by_layer.get("pivotal.quantile", 0.0),
            "estimators.mle_s": self_by_layer.get("estimators", 0.0),
            "model.summarize_s": self_by_layer.get("model", 0.0),
            "simulate.self_s": self_by_layer.get("simulate", 0.0),
            "cli.self_s": self_by_layer.get("cli", 0.0),
        },
        "engine_ms": [(s[4] - s[3]) * 1e3 for s in engine],
        "mle_ms": [(s[4] - s[3]) * 1e3 for s in mle],
        # Variates the RNG layout implies: per engine call, and one normal
        # per simulated observation; None when an engine call raised.
        "layout_variates": None if any(not s[7] for s in engine)
        else total("pivotal.engine", 10) + total("simulate.replication", 8),
    }


def analyze(trace, timed_passes):
    """Layer metrics from a written trace.

    Returns (values, samples, problems, unobserved).  Counts come from
    pass 0, whose inputs every run with the same seed repeats; times are
    medians over ``timed_passes``, whose per-pass values are in
    ``samples``; call-time percentiles pool the timed passes' calls.
    ``problems`` lists counts that did not repeat across passes and RNG
    layouts that did not match.
    """
    spans = trace["spans"]
    child_time = {}
    for span in spans:
        if span[5] >= 0:
            child_time[span[5]] = child_time.get(span[5], 0.0) + span[4] - span[3]
    by_pass = {}
    for span in spans:
        by_pass.setdefault(span[6], []).append(span)
    passes = sorted(p for p in by_pass if p >= 0)
    summaries = {p: _pass_summary(by_pass[p], child_time) for p in passes}
    setup = _pass_summary(by_pass.get(-1, []), child_time)

    problems = []
    first = summaries[passes[0]] if passes else _pass_summary([], child_time)
    for p in passes:
        for name in LAYOUT_COUNTS:
            if summaries[p]["counts"][name] != first["counts"][name]:
                problems.append(
                    f"{name} differs between passes {passes[0]} and {p}: "
                    f"{first['counts'][name]} vs {summaries[p]['counts'][name]}"
                )
        expected = summaries[p]["layout_variates"]
        observed = summaries[p]["counts"]["randgen.variates"]
        if expected is not None and observed != expected:
            problems.append(f"pass {p}: {observed} variates drawn, the RNG layout implies {expected}")

    values = dict(first["counts"])
    values["io.calls"] = setup["counts"]["io.calls"]
    values["io.load_s"] = setup["times"]["io.load_s"]
    timed = [summaries[p] for p in timed_passes if p in summaries]
    samples = {}
    for name in first["times"]:
        if name != "io.load_s":
            samples[name] = [s["times"][name] for s in timed]
            values[name] = statistics.median(samples[name]) if timed else 0.0
    for key, prefix in (("engine_ms", "pivotal.call_ms"), ("mle_ms", "estimators.mle_ms")):
        pooled = sorted(ms for s in timed for ms in s[key])
        samples[f"{prefix}_p50"] = samples[f"{prefix}_p90"] = pooled
        values[f"{prefix}_p50"] = _percentile(pooled, 50)
        values[f"{prefix}_p90"] = _percentile(pooled, 90)
    draws, rejected = values["pivotal.draws"], values["pivotal.rejected"]
    values["pivotal.accept_ratio"] = draws / (draws + rejected) if draws else 0.0

    seen = set(setup["names"]).union(*(s["names"] for s in summaries.values()))
    unobserved = sorted(
        metric for metric, _, sources in LAYER_METRICS
        if sources is not None and not seen.intersection(sources)
    )
    return values, samples, problems, unobserved
