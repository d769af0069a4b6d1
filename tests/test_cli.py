"""Command line behavior: output formats, seeds, and exit codes.

Everything runs in-process through main(argv) so coverage and monkeypatching
work; no subprocesses.
"""

import csv
import io
import json
from importlib import resources

import pytest

from common_cv.cli import main
from common_cv.estimators import feltz_miller_estimate, new_estimate, newton_mle
from common_cv.model import Method
from common_cv.pivotal import _MAX_DRAWS, confidence_interval

SURVEYS_PATH = str(resources.files("common_cv").joinpath("data").joinpath("mcv_surveys.csv"))
HOSPITAL_PATH = str(resources.files("common_cv").joinpath("data").joinpath("hospital_survival.csv"))


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("COMMON_CV_SEED", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "estimate", "--input", SURVEYS_PATH, "--bogus")
        assert code == 1

    def test_missing_required_input(self, capsys):
        code, _, err = run(capsys, "ci")
        assert code == 1

    def test_bad_method_choice(self, capsys):
        code, _, err = run(capsys, "ci", "--input", SURVEYS_PATH, "--method", "nope")
        assert code == 1

    @pytest.mark.parametrize("level", ["1.5", "0", "1", "-0.2"])
    def test_ci_level_out_of_range(self, capsys, level):
        code, _, err = run(
            capsys, "ci", "--input", SURVEYS_PATH, "--summary", "--level", level
        )
        assert code == 1
        assert "--level" in err and "between 0 and 1" in err


class TestEstimate:
    def test_table_output(self, capsys, hospital):
        code, out, err = run(capsys, "estimate", "--input", HOSPITAL_PATH)
        assert code == 0 and err == ""
        assert "hospital1" in out and "0.4937" in out
        assert f"pooled estimates (k=4, n={hospital.n})" in out
        assert "feltz_miller  0.673" in out
        assert "mle           0.601485" in out

    def test_json_matches_library(self, capsys, hospital):
        code, out, _ = run(capsys, "estimate", "--input", HOSPITAL_PATH, "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["feltz_miller"] == feltz_miller_estimate(hospital)
        assert rec["new"] == new_estimate(hospital)
        mle = newton_mle(hospital)
        assert rec["mle"] == mle.phi
        assert rec["mle_sigmas"] == list(mle.sigmas)
        assert [g["group"] for g in rec["groups"]] == list(hospital.labels)

    def test_summary_input(self, capsys, surveys):
        code, out, _ = run(
            capsys, "estimate", "--input", SURVEYS_PATH, "--summary", "--json"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["mle"] == pytest.approx(0.03697852, abs=1e-6)
        assert rec["new"] == new_estimate(surveys)

    def test_stdin_input(self, capsys, monkeypatch):
        text = "group,value\na,1.0\na,2.0\na,3.0\nb,4.0\nb,5.0\nb,6.0\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "estimate", "--input", "-", "--json")
        assert code == 0
        rec = json.loads(out)
        assert [g["group"] for g in rec["groups"]] == ["a", "b"]


class TestCi:
    def test_all_methods_by_default(self, capsys):
        code, out, _ = run(
            capsys, "ci", "--input", SURVEYS_PATH, "--summary", "--draws", "500"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert [ln.split()[0] for ln in lines] == [
            "method=tian",
            "method=vj",
            "method=new",
            "method=combined",
        ]
        assert all("lower=" in ln and "length=" in ln for ln in lines)

    def test_json_records(self, capsys, surveys):
        code, out, _ = run(
            capsys, "ci", "--input", SURVEYS_PATH, "--summary",
            "--draws", "500", "--seed", "7", "--json",
        )
        assert code == 0
        records = [json.loads(ln) for ln in out.strip().splitlines()]
        by_method = {r["method"]: r for r in records}
        assert set(by_method) == {"tian", "vj", "new", "combined"}
        # vj is closed form: no Monte Carlo metadata
        assert by_method["vj"]["draws"] == 0 and by_method["vj"]["seed"] is None
        assert by_method["new"]["draws"] == 500 and by_method["new"]["seed"] == 7
        iv = confidence_interval(surveys, Method.NEW, 0.95, 500, 7)
        assert by_method["new"]["lower"] == iv.lower
        assert by_method["new"]["upper"] == iv.upper

    def test_method_subset_matches_joint_run(self, capsys):
        args = ("ci", "--input", SURVEYS_PATH, "--summary", "--draws", "400",
                "--seed", "3", "--json")
        code, solo, _ = run(capsys, *args, "--method", "tian")
        assert code == 0
        code, joint, _ = run(capsys, *args)
        assert code == 0
        tian_joint = next(
            json.loads(ln) for ln in joint.strip().splitlines()
            if json.loads(ln)["method"] == "tian"
        )
        assert json.loads(solo.strip()) == tian_joint

    def test_runs_are_deterministic(self, capsys):
        args = ("ci", "--input", HOSPITAL_PATH, "--draws", "400", "--seed", "5")
        first = run(capsys, *args)
        second = run(capsys, *args)
        assert first == second

    def test_env_seed_used_when_no_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMON_CV_SEED", "123")
        code, out, _ = run(
            capsys, "ci", "--input", SURVEYS_PATH, "--summary",
            "--draws", "300", "--method", "new", "--json",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 123

    def test_explicit_seed_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMON_CV_SEED", "123")
        code, out, _ = run(
            capsys, "ci", "--input", SURVEYS_PATH, "--summary",
            "--draws", "300", "--method", "new", "--seed", "9", "--json",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 9

    def test_default_seed_is_zero(self, capsys):
        code, out, _ = run(
            capsys, "ci", "--input", SURVEYS_PATH, "--summary",
            "--draws", "300", "--method", "new", "--json",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 0

    def test_non_integer_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("COMMON_CV_SEED", "lots")
        code, _, err = run(
            capsys, "ci", "--input", SURVEYS_PATH, "--summary", "--draws", "300"
        )
        assert code == 1
        assert "COMMON_CV_SEED" in err

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "ci", "--input", str(tmp_path / "nope.csv"))
        assert code == 3
        assert "i/o error" in err

    def test_malformed_input_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        code, _, err = run(capsys, "ci", "--input", str(path))
        assert code == 1
        assert "invalid input" in err

    def test_too_few_draws(self, capsys):
        code, _, err = run(
            capsys, "ci", "--input", SURVEYS_PATH, "--summary", "--draws", "50"
        )
        assert code == 1
        assert "invalid input" in err

    def test_too_many_draws(self, capsys):
        # rejected before anything is allocated
        code, _, err = run(
            capsys, "ci", "--input", SURVEYS_PATH, "--summary", "--draws", str(_MAX_DRAWS + 1)
        )
        assert code == 1
        assert "invalid input" in err and "draws" in err


class TestTest:
    def test_pivotal_methods_only(self, capsys):
        code, out, _ = run(
            capsys, "test", "--input", SURVEYS_PATH, "--summary",
            "--null", "0.04", "--draws", "400", "--seed", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert [ln.split()[0] for ln in lines] == [
            "method=tian",
            "method=new",
            "method=combined",
        ]

    def test_vj_is_rejected(self, capsys):
        code, _, err = run(
            capsys, "test", "--input", SURVEYS_PATH, "--summary",
            "--null", "0.04", "--method", "vj",
        )
        assert code == 1
        assert "pivotal" in err

    def test_json_p_values_in_range(self, capsys):
        code, out, _ = run(
            capsys, "test", "--input", SURVEYS_PATH, "--summary",
            "--null", "0.04", "--draws", "400", "--seed", "3", "--json",
        )
        assert code == 0
        for ln in out.strip().splitlines():
            rec = json.loads(ln)
            assert 0.0 <= rec["p_value"] <= 1.0
            assert rec["null"] == 0.04
            assert rec["alternative"] == "two-sided"

    def test_one_sided_extremes(self, capsys):
        base = ("test", "--input", SURVEYS_PATH, "--summary", "--null", "1000",
                "--draws", "200", "--method", "new", "--json")
        code, out, _ = run(capsys, *base, "--alternative", "greater")
        assert code == 0 and json.loads(out)["p_value"] == 1.0
        code, out, _ = run(capsys, *base, "--alternative", "less")
        assert code == 0 and json.loads(out)["p_value"] == 0.0


GRID = "phi,mu1,mu2,n1,n2\n0.3,1.0,2.0,10,10\n"


def write_grid(tmp_path, text=GRID):
    path = tmp_path / "grid.csv"
    path.write_text(text)
    return str(path)


class TestSimulate:
    def test_stdout_csv(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "simulate", "--config", write_grid(tmp_path),
            "--reps", "5", "--draws", "200", "--seed", "11",
        )
        assert code == 0 and err == ""
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "phi", "mu1", "mu2", "n1", "n2", "reps", "draws", "level", "seed",
            "method", "coverage", "avg_length", "failures", "error",
        ]
        body = rows[1:]
        assert [r[9] for r in body] == ["tian", "vj", "new", "combined"]
        for r in body:
            assert r[:9] == ["0.3", "1.0", "2.0", "10", "10", "5", "200", "0.95", "11"]
            assert 0.0 <= float(r[10]) <= 1.0
            assert float(r[11]) > 0.0
            assert r[13] == ""

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        args = ("simulate", "--config", write_grid(tmp_path),
                "--reps", "4", "--draws", "150", "--seed", "2")
        code, stdout_text, _ = run(capsys, *args)
        assert code == 0
        out_path = tmp_path / "results.csv"
        code, empty, _ = run(capsys, *args, "--out", str(out_path))
        assert code == 0 and empty == ""
        assert out_path.read_text() == stdout_text

    def test_method_filter(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "simulate", "--config", write_grid(tmp_path),
            "--reps", "4", "--draws", "150", "--method", "tian",
        )
        assert code == 0
        body = list(csv.reader(io.StringIO(out)))[1:]
        assert [r[9] for r in body] == ["tian"]

    def test_deterministic(self, capsys, tmp_path):
        args = ("simulate", "--config", write_grid(tmp_path),
                "--reps", "4", "--draws", "150", "--seed", "8")
        assert run(capsys, *args) == run(capsys, *args)

    def test_config_from_stdin(self, capsys, tmp_path, monkeypatch):
        args = ("--reps", "3", "--draws", "150", "--seed", "4")
        code, from_file, _ = run(
            capsys, "simulate", "--config", write_grid(tmp_path), *args
        )
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(GRID))
        code, from_stdin, _ = run(capsys, "simulate", "--config", "-", *args)
        assert code == 0
        assert from_stdin == from_file

    def test_multi_cell_grid(self, capsys, tmp_path):
        text = "phi,mu1,mu2,n1,n2\n0.3,1.0,2.0,10,10\n0.1,1.0,1.0,15,5\n"
        code, out, _ = run(
            capsys, "simulate", "--config", write_grid(tmp_path, text),
            "--reps", "3", "--draws", "150", "--method", "new",
        )
        assert code == 0
        body = list(csv.reader(io.StringIO(out)))[1:]
        assert [r[0] for r in body] == ["0.3", "0.1"]
        assert body[1][3:5] == ["15", "5"]

    @pytest.mark.parametrize(
        "header", ["phi,mu1,n1,n2", "x,mu1,n1", "phi,mu1,mu2,n1,nn2", ""]
    )
    def test_bad_grid_header(self, capsys, tmp_path, header):
        code, _, err = run(
            capsys, "simulate", "--config", write_grid(tmp_path, header + "\n")
        )
        assert code == 1
        assert "invalid input" in err

    def test_grid_row_width_mismatch(self, capsys, tmp_path):
        text = "phi,mu1,mu2,n1,n2\n0.3,1.0,2.0,10\n"
        code, _, err = run(capsys, "simulate", "--config", write_grid(tmp_path, text))
        assert code == 1
        assert "does not match" in err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("abc,1.0,2.0,10,10", "not a number: 'abc'"),
            ("0.3,1.0,abc,10,10", "not a number: 'abc'"),
            ("0.3,1.0,2.0,10,5.5", "n must be an integer, got '5.5'"),
            ("0.3,1,-1,5,5", "means must share one sign"),
        ],
    )
    def test_bad_grid_value(self, capsys, tmp_path, row, message):
        text = "phi,mu1,mu2,n1,n2\n" + row + "\n"
        code, out, err = run(capsys, "simulate", "--config", write_grid(tmp_path, text))
        assert code == 1 and out == ""
        assert "invalid input" in err and message in err

    def test_bad_level(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--config", write_grid(tmp_path), "--level", "1.0"
        )
        assert code == 1
        assert "--level" in err

    def test_cell_failure_becomes_error_row(self, capsys, tmp_path):
        # draws below the Monte Carlo minimum fails inside the cell, not the run
        code, out, err = run(
            capsys, "simulate", "--config", write_grid(tmp_path),
            "--reps", "3", "--draws", "50",
        )
        assert code == 0 and err == ""
        body = list(csv.reader(io.StringIO(out)))[1:]
        assert len(body) == 1
        assert body[0][9:13] == ["", "", "", ""]
        assert "draws" in body[0][13]

    def test_draw_cap_becomes_error_row(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "simulate", "--config", write_grid(tmp_path),
            "--reps", "3", "--draws", str(_MAX_DRAWS + 1),
        )
        assert code == 0 and err == ""
        body = list(csv.reader(io.StringIO(out)))[1:]
        assert len(body) == 1
        assert body[0][9:13] == ["", "", "", ""]
        assert "draws" in body[0][13]


class TestExamples:
    def test_text_report(self, capsys):
        code, out, err = run(capsys, "examples", "--draws", "300", "--seed", "2")
        assert code == 0 and err == ""
        assert "=== blood-analyte surveys ===" in out
        assert "=== hospital survival times ===" in out
        assert out.count("95% confidence intervals:") == 2
        assert out.count("method=combined") == 2

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "examples", "--draws", "300", "--seed", "2", "--json")
        assert code == 0
        records = [json.loads(ln) for ln in out.strip().splitlines()]
        assert len(records) == 2
        for rec in records:
            assert {"dataset", "groups", "mle", "intervals"} <= set(rec)
            assert len(rec["intervals"]) == 4
