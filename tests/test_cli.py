"""Command line behavior: output formats, seeds, and exit codes.

Everything runs in-process through main(argv) so coverage and monkeypatching
work; no subprocesses.
"""

import csv
import io
import json
import re
import warnings
from importlib import resources

import pytest

from common_cv import cli, pivotal, simulate
from common_cv.cli import main
from common_cv.errors import DegenerateRateError
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


    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_byte_order_mark_accepted(self, capsys, monkeypatch, tmp_path, source):
        text = "\ufeff" + resources.files("common_cv").joinpath("data").joinpath(
            "mcv_surveys.csv").read_text(encoding="utf-8")
        if source == "path":
            path = tmp_path / "surveys.csv"
            path.write_text(text, encoding="utf-8")
            arg = str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            arg = "-"
        code, out, err = run(capsys, "estimate", "--input", arg, "--summary", "--json")
        assert code == 0 and err == ""
        _, plain, _ = run(capsys, "estimate", "--input", SURVEYS_PATH, "--summary", "--json")
        assert out == plain


    def test_non_utf8_stdin_is_validation_error(self, capsys, monkeypatch, tmp_path):
        # stdin as Python opens it in UTF-8 mode, where undecodable bytes
        # become lone surrogates instead of an error
        data = "group,n,mean,sd\ncafé,5,1.0,0.5\nbar,6,2.0,0.5\n".encode("latin-1")
        monkeypatch.setattr(
            "sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        )
        code, out, err = run(capsys, "estimate", "--input", "-", "--summary")
        assert code == 1 and out == ""
        assert "not UTF-8" in err
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        assert run(capsys, "estimate", "--input", str(path), "--summary")[:2] == (1, "")


def _count_engine_calls(monkeypatch):
    calls = []
    engine = pivotal._pivot_value_arrays

    def counted(*args):
        calls.append(args[1])
        return engine(*args)

    monkeypatch.setattr(pivotal, "_pivot_value_arrays", counted)
    return calls


def _fail_new(monkeypatch):
    """Make 2% of every block degenerate for `new` alone: a rate error."""
    original = pivotal._pivot_values

    def patched(groups, u, zg, requested):
        pivots = original(groups, u, zg, requested)
        if len(u) > 1 and Method.NEW in pivots:  # block pass only; leave resampling attempts clean
            vals, bad = pivots[Method.NEW]
            bad = bad.copy()
            bad[: max(1, len(u) // 50)] = True
            pivots[Method.NEW] = vals, bad
        return pivots

    monkeypatch.setattr(pivotal, "_pivot_values", patched)


class TestOneEngineCallPerStudy:
    @pytest.mark.parametrize("argv, engine_calls", [
        (("ci", "--input", SURVEYS_PATH, "--summary", "--method", "all"), 1),
        (("test", "--input", SURVEYS_PATH, "--summary", "--null", "0.04"), 1),
        (("examples",), 2),
    ])
    def test_engine_calls(self, capsys, monkeypatch, argv, engine_calls):
        calls = _count_engine_calls(monkeypatch)
        code, _, _ = run(capsys, *argv, "--draws", "300")
        assert code == 0
        assert len(calls) == engine_calls
        assert all(tuple(methods) == (Method.TIAN, Method.NEW, Method.COMBINED) for methods in calls)

    @pytest.mark.parametrize("argv, lines_before", [
        (("ci", "--input", SURVEYS_PATH, "--summary"), 2),  # tian and vj
        (("test", "--input", SURVEYS_PATH, "--summary", "--null", "0.04"), 1),  # tian
    ])
    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    def test_failure_mid_list_keeps_earlier_lines(self, capsys, monkeypatch, argv, lines_before, fmt):
        args = (*argv, *fmt, "--draws", "2000", "--seed", "5")
        code, clean, _ = run(capsys, *args)
        assert code == 0
        _fail_new(monkeypatch)
        code, out, err = run(capsys, *args)
        assert code == 2
        assert "numerical failure" in err
        assert out.splitlines() == clean.splitlines()[:lines_before]


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

    @pytest.mark.parametrize("flag, env", [
        ("18446744073709551616", None), ("-1", None), (None, "18446744073709551616"), (None, "-3"),
    ])
    @pytest.mark.parametrize("command", ["ci", "test", "simulate", "examples"])
    def test_seed_out_of_range(self, capsys, monkeypatch, tmp_path, command, flag, env):
        # 2^64 used to run on seed 0's stream while reporting 2^64
        args = {
            "ci": ("ci", "--input", SURVEYS_PATH, "--summary", "--draws", "300"),
            "test": ("test", "--input", SURVEYS_PATH, "--summary", "--draws", "300", "--null", "0.04"),
            "simulate": ("simulate", "--config", write_grid(tmp_path), "--reps", "2", "--draws", "200"),
            "examples": ("examples", "--draws", "300"),
        }[command]
        if env is not None:
            monkeypatch.setenv("COMMON_CV_SEED", env)
        code, out, err = run(capsys, *args, *(("--seed", flag) if flag else ()))
        assert (code, out) == (1, "")
        assert ("seed" if flag else "COMMON_CV_SEED") in err

    def test_largest_seed(self, capsys):
        code, out, _ = run(
            capsys, "ci", "--input", SURVEYS_PATH, "--summary",
            "--draws", "300", "--method", "new", "--seed", str(2**64 - 1), "--json",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 2**64 - 1

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

    # valid inputs that float arithmetic cannot reduce: raw values whose squares
    # overflow, and an sd whose square underflows in the vj MLE (tian prints first),
    # or CVs so large that (n-1) sd^2 / (n mean^2) passes the MLE's bound 2^510
    @pytest.mark.parametrize("content, summary, lines_before", [
        pytest.param("group,value\na,1e200\na,3e200\nb,1\nb,2\n", (), 0, id="raw"),
        pytest.param("group,n,mean,sd\na,5,1,1e-170\nb,7,2,0.4\n", ("--summary",), 1, id="summary"),
        pytest.param("group,n,mean,sd\na,5,1,1e100\nb,7,1,1.1e100\n", ("--summary",), 1, id="summary CVs 1e100"),
    ])
    def test_beyond_float_range_is_numerical_failure(self, capsys, tmp_path, content, summary, lines_before):
        path = tmp_path / "extreme.csv"
        path.write_text(content)
        code, out, err = run(capsys, "ci", "--input", str(path), *summary, "--draws", "500")
        assert code == 2
        assert err.startswith("common-cv: numerical failure: ") and "Traceback" not in err
        assert len(out.splitlines()) == lines_before

    def test_huge_group_cv_is_estimated(self, capsys, tmp_path):
        # a group CV of 1e50 beside 0.4: q_i = 8e99 is inside the MLE's bound
        path = tmp_path / "huge.csv"
        path.write_text("group,n,mean,sd\na,5,1,1e50\nb,7,2,0.4\n")
        code, out, err = run(capsys, "ci", "--input", str(path), "--summary", "--draws", "500")
        assert (code, err) == (0, "")
        methods = [line.split()[0] for line in out.splitlines()]
        assert methods == ["method=tian", "method=vj", "method=new", "method=combined"]

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
        assert err == "common-cv: invalid input: vj is not a pivotal method (tian, new, combined)\n"

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

    def test_overflowing_cell_warns_nothing(self, capsys, tmp_path):
        # the simulated data overflow: every replication fails, and numpy
        # warns nothing that would reach stderr
        grid = write_grid(tmp_path, "phi,mu1,mu2,n1,n2\n0.5,1e308,1e308,5,5\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "simulate", "--config", grid, "--reps", "3", "--draws", "100")
        assert code == 0 and err == "" and caught == []
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [r[10:] for r in rows] == [["nan", "nan", "3", ""]] * 4

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

    def test_grid_without_cells(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "simulate", "--config", write_grid(tmp_path, "phi,mu1,mu2,n1,n2\n\n")
        )
        assert code == 1 and out == ""
        assert "invalid input: grid has no cells" in err

    def test_bad_level(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--config", write_grid(tmp_path), "--level", "1.0"
        )
        assert code == 1
        assert "--level" in err

    def test_cell_failure_becomes_error_row(self, capsys, tmp_path, monkeypatch):
        # a cell that fails while it runs becomes an error row, not a failed run
        def failing(config):
            raise DegenerateRateError("40 degenerate draws out of 2040 attempts; data look pathological")

        monkeypatch.setattr(simulate, "run_study", failing)
        code, out, err = run(
            capsys, "simulate", "--config", write_grid(tmp_path),
            "--reps", "3", "--draws", "500",
        )
        assert code == 0 and err == ""
        body = list(csv.reader(io.StringIO(out)))[1:]
        assert len(body) == 1
        assert body[0][9:13] == ["", "", "", ""]
        assert "draws" in body[0][13]

    def test_unwritable_out_fails_before_the_grid_runs(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_grid", lambda configs: calls.append(configs) or [])
        code, out, err = run(
            capsys, "simulate", "--config", write_grid(tmp_path),
            "--reps", "3", "--draws", "500", "--out", str(tmp_path / "missing" / "results.csv"),
        )
        assert code == 3 and out == ""
        assert "i/o error" in err
        assert calls == []

    @pytest.mark.parametrize("draws", ["50", str(_MAX_DRAWS + 1)])
    def test_draws_out_of_range(self, capsys, tmp_path, draws):
        # each cell is checked when it is built, as ci checks --draws
        code, out, err = run(
            capsys, "simulate", "--config", write_grid(tmp_path), "--reps", "3", "--draws", draws,
        )
        assert code == 1 and out == ""
        assert "invalid input" in err and "draws" in err


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


SURVEY = ("--input", SURVEYS_PATH, "--summary")
FIXED = r"-?\d+\.\d{6}"  # a float printed with 6 decimals
REPR = r"-?\d+\.\d+(e[-+]\d+)?"  # a float printed by repr
INTERVAL_KEYS = ["method", "level", "lower", "upper", "length", "draws", "seed"]
ESTIMATE_KEYS = [
    "groups", *(f"groups.{key}" for key in ("group", "n", "mean", "sd", "cv")),
    "feltz_miller", "new", "mle", "mle_sigmas",
]


def key_paths(record, prefix=""):
    """A JSON record's keys in order; a list of records gives its first record's keys as list.key."""
    for key, value in record.items():
        yield prefix + key
        if isinstance(value, list) and value and isinstance(value[0], dict):
            yield from key_paths(value[0], f"{prefix}{key}.")


def interval_line(method, draws, seed):
    return rf"method={method:<9} level=0\.95 draws={draws} seed={seed} lower={FIXED} upper={FIXED} length={FIXED}"


def p_value_line(method):
    return rf"method={method:<9} null=0\.04 alternative=two-sided draws=300 seed=0 p_value={FIXED}"


def sim_row(method, draws):
    return rf"0\.3,1\.0,2\.0,10,10,2,{draws},0\.95,0,{method},{REPR},{REPR},\d+,"


class TestOutputLayout:
    """Every record's layout: the JSON key order, the key= order and number
    formats of text lines, and the simulate CSV header and columns.  A JSON
    layout is a list of key paths per line; a text layout is one regex per line."""

    @pytest.mark.parametrize("argv, layout", [
        pytest.param(("ci", *SURVEY, "--draws", "300", "--json"), [INTERVAL_KEYS] * 4, id="ci json"),
        pytest.param(("ci", *SURVEY, "--draws", "300"), [
            interval_line("tian", 300, 0), interval_line("vj", 0, "-"),
            interval_line("new", 300, 0), interval_line("combined", 300, 0),
        ], id="ci text"),
        pytest.param(
            ("test", *SURVEY, "--draws", "300", "--null", "0.04", "--json"),
            [["method", "null", "alternative", "p_value", "draws", "seed"]] * 3, id="test json",
        ),
        pytest.param(
            ("test", *SURVEY, "--draws", "300", "--null", "0.04"),
            [p_value_line("tian"), p_value_line("new"), p_value_line("combined")], id="test text",
        ),
        pytest.param(("estimate", *SURVEY, "--json"), [ESTIMATE_KEYS], id="estimate json"),
        pytest.param(
            ("examples", "--draws", "300", "--json"),
            [["dataset", *ESTIMATE_KEYS, "intervals", *(f"intervals.{key}" for key in INTERVAL_KEYS)]] * 2,
            id="examples json",
        ),
        # "<grid>" stands for the path of a one-cell grid file
        pytest.param(("simulate", "--config", "<grid>", "--reps", "2", "--draws", "200"), [
            re.escape("phi,mu1,mu2,n1,n2,reps,draws,level,seed,method,coverage,avg_length,failures,error"),
            sim_row("tian", 200), sim_row("vj", 200), sim_row("new", 200), sim_row("combined", 200),
        ], id="simulate csv"),
    ])
    def test_record_layout(self, capsys, tmp_path, argv, layout):
        argv = [write_grid(tmp_path) if arg == "<grid>" else arg for arg in argv]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        if isinstance(layout[0], list):
            assert [list(key_paths(json.loads(line))) for line in lines] == layout
        else:
            assert len(lines) == len(layout)
            for line, pattern in zip(lines, layout):
                assert re.fullmatch(pattern, line), line


class TestTextMatchesJson:
    """A text line holds the values of the JSON record of the same call, as
    the line formats them: 6 decimals for an end, a length or a p-value,
    :g for a level or a null value, and - for a missing seed."""

    FORMATS = {"level": "g", "null": "g", "lower": ".6f", "upper": ".6f", "length": ".6f", "p_value": ".6f"}

    def shown(self, key, value):
        return "-" if value is None else format(value, self.FORMATS.get(key, ""))

    @pytest.mark.parametrize("dataset", [SURVEY, ("--input", HOSPITAL_PATH)], ids=["surveys", "hospital"])
    @pytest.mark.parametrize("command, method", [
        *((("ci",), method) for method in ("tian", "vj", "new", "combined")),
        *((("test", "--null", "0.05"), method) for method in ("tian", "new", "combined")),
    ], ids=lambda value: value if isinstance(value, str) else value[0])
    def test_same_values(self, capsys, dataset, command, method):
        argv = (*command, *dataset, "--method", method, "--draws", "300")
        code, text, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        [line], [record] = text.splitlines(), [json.loads(line) for line in out.splitlines()]
        pairs = dict(token.split("=", 1) for token in line.split())
        assert pairs == {key: self.shown(key, value) for key, value in record.items()}
