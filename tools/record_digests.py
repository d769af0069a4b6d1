"""Record the CLI digest and the small engine digest as committed values.

``tests/test_tools.py`` compares fresh digests with the records in
``tests/digests/``, so Tier-1 itself shows that a change leaves every
output as it was.  Each record is headed by the numpy and Python versions
that made it: numpy gives ``Generator`` streams no guarantee across
releases, and argparse's help text changes across Python releases.  The
small engine digest is the size the tests run: m = 100, two seeds and 3
replications per ``run_study`` cell.  Re-record only when a change moves
an output on purpose:

    python3 tools/record_digests.py
"""

from __future__ import annotations

import platform
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
RECORDS = TOOLS.parent / "tests" / "digests"
SMALL = {"ms": (100,), "seeds": (0, 2**64 - 1), "reps": 3}


def header() -> str:
    """The first line of a record: the numpy and Python versions in use."""
    import numpy as np

    return f"# numpy {np.__version__}, Python {platform.python_version()}"


def fresh() -> dict[str, list[str]]:
    """Each record's file name and its lines from this interpreter, the
    engine's from the ``common_cv`` already on ``sys.path``."""
    sys.path.insert(0, str(TOOLS))
    import engine_digest

    cli = subprocess.run([sys.executable, str(TOOLS / "cli_digest.py")], capture_output=True, text=True, check=True)
    return {"cli.txt": cli.stdout.splitlines(), "engine_small.txt": engine_digest.lines(**SMALL)}


def recorded() -> dict[str, list[str]]:
    """Each record's file name and its committed lines, header first."""
    return {path.name: path.read_text().splitlines() for path in sorted(RECORDS.glob("*.txt"))}


def main() -> int:
    sys.path.insert(0, str(TOOLS.parent / "src"))
    RECORDS.mkdir(exist_ok=True)
    for name, lines in fresh().items():
        (RECORDS / name).write_text("\n".join([header(), *lines]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
