"""The correctness gate: every pass's outputs against their expected values.

Pass 0 of a seed listed in ``expected.json`` (values recorded by
``record.py`` from the unmodified package) must match the recording; every
pass of every seed must match the independent recomputation in
``reference.py``.  Interval endpoints, p-values and average lengths may
differ by 1e-9 relative; coverage and failure counts must be equal.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import reference

RECORDED_PATH = Path(__file__).resolve().parent / "expected.json"
REL_TOL = 1e-9


def _close(a, b):
    return (
        isinstance(a, float) and isinstance(b, float)
        and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)
    )


def compare(workload, got, want):
    """Mismatch descriptions (empty when ``got`` passes against ``want``)."""
    if set(got) != set(want):
        return [f"outputs {sorted(got)} != expected {sorted(want)}"]
    problems = []
    for key in sorted(want):
        g, w = got[key], want[key]
        if workload == "bundled-1e6":
            ok = isinstance(g, list) and len(g) == len(w) and all(map(_close, g, w))
        else:
            ok = (
                isinstance(g, dict) and set(g) == set(w)
                and g["coverage"] == w["coverage"] and g["failures"] == w["failures"]
                and _close(g["avg_length"], w["avg_length"])
            )
        if not ok:
            problems.append(f"{key}: got {g!r}, expected {w!r}")
    return problems


def recorded(size, workload, seed):
    """Outputs recorded for pass 0 of this seed, or None."""
    table = json.loads(RECORDED_PATH.read_text())
    return table.get(size, {}).get(workload, {}).get(str(seed))


def verify(workload, size, seed, outputs, traced_outputs=None, table=None):
    """Check every pass; return (problems, number of passes checked against a recording).

    ``table`` replaces ``expected.json`` (the self-test perturbs it).
    """
    problems = []
    want0 = table.get(str(seed)) if table is not None else recorded(size, workload, seed)
    if want0 is not None:
        problems += [f"pass 0 vs recorded: {p}" for p in compare(workload, outputs[0], want0)]
    for i, got in enumerate(outputs):
        try:
            want = reference.expected_pass(workload, size, seed, i)
        except reference.Unsupported as exc:
            problems.append(f"pass {i}: reference cannot check this input ({exc})")
            continue
        problems += [f"pass {i} vs reference: {p}" for p in compare(workload, got, want)]
    for i, (untraced, traced) in enumerate(zip(outputs, traced_outputs or ())):
        if untraced != traced:
            problems.append(f"pass {i}: traced outputs differ from untraced ones")
    return problems, int(want0 is not None)
