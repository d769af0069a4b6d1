"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench

Runs every workload untraced and traced, parses the trace, checks that the
gate rejects perturbed expected values (in process and end to end), that
a held-out seed gets a full result, and that a directory without the
package yields no result.  Scratch copies go under ``perfbench/out``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from tracer import analyze  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = HERE / "out" / "selftest"


def bench(root, workload, seed, trace, seconds="0.5"):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-2])["run_record"] if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, record, result


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    code, record, result = bench(ROOT, workload, 1, 0)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert all(m["kind"] == "e2e" for m in record["metrics"].values())
    assert record["checked_against_recording"] == 1
    assert record["checked_against_reference"] == record["passes"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_repeats_its_counts(workload):
    runs = [bench(ROOT, workload, 2, 1) for _ in range(2)]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for code, record, result in runs:
        assert code == 0 and result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
        assert record["missing_boundaries"] == []
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["randgen.variates"] > 0 and counts[0]["pivotal.draws"] > 0

    record = runs[-1][1]
    trace = json.loads((ROOT / record["trace_file"]).read_text())
    values, samples, problems, unobserved = analyze(trace, range(1, record["passes"]))
    assert problems == []
    assert values["pivotal.calls"] == counts[-1]["pivotal.calls"]
    assert set(unobserved) == set(record["not_observed"])
    cli_seen = workload == "coverage-cli-n10-30"
    assert ("cli.self_s" in unobserved) != cli_seen


def test_load_correction_cancels_a_uniform_slowdown():
    import run

    passes = [{"steps": [0.2, 0.3], "ref_s": [0.02, 0.03]}, {"steps": [0.25, 0.3], "ref_s": [0.025, 0.02]}]
    slowed = [{"steps": [2 * t for t in p["steps"]], "ref_s": [2 * t for t in p["ref_s"]]} for p in passes]
    assert run._fastest(passes) == pytest.approx(0.5 * run.REF_S / 0.0225)
    assert run._fastest(slowed) == pytest.approx(run._fastest(passes))


def test_missing_boundary_is_reported_not_fatal():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install((("json", "no_such_function", "x", "x", None), ("no_such_module", "f", "y", "y", None)))
    assert tracer.missing == ["json.no_such_function", "no_such_module.f"]
    values, _, problems, unobserved = analyze({"missing": tracer.missing, "spans": []}, [])
    assert problems == [] and "pivotal.self_s" in unobserved and values["pivotal.calls"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_gate_rejects_a_perturbed_expected_value(workload):
    table = json.loads(check.RECORDED_PATH.read_text())["tiny"][workload]
    outputs = table["0"]
    assert check.verify(workload, "tiny", 0, [outputs], table=table)[0] == []

    perturbed = copy.deepcopy(table)
    entry = perturbed["0"]
    key = sorted(entry)[0]
    if workload == "bundled-1e6":
        entry[key][0] *= 1.0 + 1e-7
    else:
        entry[key]["avg_length"] *= 1.0 + 1e-7
    problems, _ = check.verify(workload, "tiny", 0, [outputs], table=perturbed)
    assert problems and all("vs recorded" in p for p in problems)

    # The same perturbation of the program's output fails both checks.
    problems, _ = check.verify(workload, "tiny", 0, [perturbed["0"]], table=table)
    assert any("vs recorded" in p for p in problems) and any("vs reference" in p for p in problems)


def _copy_checkout(dest, with_package=True):
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_package:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_perturbed_recording_fails_the_run_end_to_end():
    dest = SCRATCH / "perturbed"
    _copy_checkout(dest)
    path = dest / "perfbench" / "expected.json"
    table = json.loads(path.read_text())
    table["tiny"]["coverage-n5"]["3"]["vj"]["coverage"] += 0.5
    path.write_text(json.dumps(table))
    try:
        code, record, result = bench(dest, "coverage-n5", 3, 0)
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    assert code == 1 and result == {"correct": False, "attempted": result["attempted"], "failed": 0, "metrics": {}}
    assert any("vs recorded" in p for p in record["problems"])


def test_held_out_seed_gets_a_full_result():
    code, record, result = bench(ROOT, "coverage-cli-n10-30", 987654321, 0)
    assert code == 0 and result["correct"] is True
    assert record["checked_against_recording"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_directory_without_the_package_gives_no_result():
    dest = SCRATCH / "bare"
    _copy_checkout(dest, with_package=False)
    try:
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "bundled-1e6", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=dest, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""
