import hashlib
import importlib.util
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"
TOOL = TOOLS / "count_code_lines.py"
DIGEST = TOOLS / "cli_digest.py"


def load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


count_code_lines = load(TOOL)
cli_digest = load(DIGEST)
engine_digest = load(TOOLS / "engine_digest.py")
record_digests = load(TOOLS / "record_digests.py")

SOURCE = b'''"""Module docstring,
over two lines."""

import math  # a comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        # a comment line
        text = """a multi-line
string that is not a docstring"""
        return (x +
                1)


async def g():
    "one-line docstring"
    return "not a docstring"
'''


def test_counts_lines_with_a_code_token():
    # import, class, def, text (2 lines), return (2 lines), async def, return
    assert count_code_lines.code_lines(SOURCE) == 9


def test_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_bytes(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_bytes(b"x = 1\n\n# c\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True)
    assert out.stdout.split("\n") == ["     9  a.py", "     1  pkg/b.py", "    10  total", ""]


# calls that fail: a test of the non-pivotal vj, an unknown method, an empty
# group label, n = 1 and a grid's non-numeric mean are validation errors,
# inverse CVs that sum to zero and a pivot term beyond 2^510 numerical
# failures, a missing input file an i/o error
FAILING_CALLS = {
    "--null 0.6 --method vj": "1", "--method bogus": "1", "blank_label.csv": "1", "n1.csv": "1",
    "word_mean.csv": "1", "zero.csv": "2", "tiny_mean.csv": "2", "missing.csv": "3",
}


def test_cli_digest_one_line_per_call_on_every_run():
    runs = [subprocess.run([sys.executable, str(DIGEST)], capture_output=True, text=True, check=True) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout and runs[0].stderr == ""
    calls = cli_digest.calls()
    lines = runs[0].stdout.splitlines()
    assert len(lines) == len(calls)
    for line, call in zip(lines, calls):
        code, _, argv = re.fullmatch(r"(\d) ([0-9a-f]{64}) (.+)", line).groups()
        assert argv == shlex.join(call)
        assert code == next((found for part, found in FAILING_CALLS.items() if part in argv), "0")


def test_engine_digest_one_line_per_group_on_every_run():
    # a small size: m = 100 only, two seeds and 3 replications per cell
    runs = [engine_digest.lines(ms=(100,), seeds=(0, 2**64 - 1), reps=3) for _ in range(2)]
    assert runs[0] == runs[1]
    groups = [re.fullmatch(r"[0-9a-f]{64} +[1-9]\d* (.+)", line).group(1) for line in runs[0]]
    assert groups == list(engine_digest.GROUPS)


def test_engine_digest_folds_an_array_in_a_list_by_its_bytes():
    # numpy's repr of a 2000-element array shows 6 elements, to 8 digits
    values = np.linspace(0.0, 1.0, 2000)
    moved = values.copy()
    moved[1000] = np.nextafter(moved[1000], 2.0)
    digests = []
    for array in (values, moved):
        digest = hashlib.sha256()
        engine_digest._update(digest, [("tian", array, 0)])
        digests.append(digest.hexdigest())
    assert digests[0] != digests[1]


def test_digests_match_the_committed_records():
    # every output of the CLI calls and of the small engine digest is as
    # recorded; a change that moves one on purpose re-records them
    # (python3 tools/record_digests.py) and says so
    recorded, fresh = record_digests.recorded(), record_digests.fresh()
    assert sorted(recorded) == sorted(fresh)
    moved = []
    for name, lines in fresh.items():
        # a line's key is its call (CLI) or its group (engine): the text after two fields
        before = {line.split(maxsplit=2)[2]: line for line in recorded[name][1:]}
        after = {line.split(maxsplit=2)[2]: line for line in lines}
        moved += [f"{name}: {key}" for key in {**before, **after} if before.get(key) != after.get(key)]
    made = " and ".join(sorted({lines[0].removeprefix("# ") for lines in recorded.values()}))
    versions = f"recorded on {made}; running on {record_digests.header().removeprefix('# ')}"
    assert not moved, f"{len(moved)} digest lines moved ({versions}):\n" + "\n".join(moved)
