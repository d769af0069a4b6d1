import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

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
