"""Digest a fixed set of command line calls, to compare the CLI's output
across two versions of the package byte for byte.

Each call runs in-process through ``common_cv.cli.main`` imported from SRC
(default: src/), with COMMON_CV_SEED unset and a fixed terminal width.  The
tool prints one line per call: the exit code, one SHA-256 over the call's
stdout, stderr and ``--out`` file, and the argv.  The calls' temporary
directory reads ``<tmp>`` and SRC reads ``<src>``, in the argv and in
everything hashed, so the lines are the same on every run and in every
checkout.  Diff the output of two checkouts:

    python3 tools/cli_digest.py [SRC]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

TMP, SRC = "<tmp>", "<src>"  # stand for the calls' temporary directory and SRC
GRID = (
    "phi,mu1,mu2,n1,n2\n"
    "0.1,1.0,2.0,5,8\n"
    "0.3,1.0,2.0,10,10\n"
    "0.2,-1.0,-3.0,6,6\n"  # negative means
    "0.5,1e308,1e308,5,5\n"  # the simulated data overflow
    "0.05,10.0,20.0,20,30\n"
)
# the calls' input files, written to TMP
FILES = {
    "grid.csv": GRID,
    "zero.csv": "group,n,mean,sd\na,2,1.0,1.0\nb,2,-1.0,1.0\n",  # n*mean/sd sums to zero
    "blank_label.csv": "group,value\na,1.0\na,1.5\n,2.0\n",
    "n1.csv": "group,n,mean,sd\na,5,1.0,0.2\nb,1,2.0,0.3\n",
    "word_mean.csv": "phi,mu1,mu2,n1,n2\n0.1,1.0,two,5,8\n",
    # the tiny mean overflows (n-1) sd^2 / (n mean^2) in the pivots, not in tian
    "tiny_mean.csv": "group,n,mean,sd\na,5,1e-160,1.0\nb,6,2.0,0.5\nc,7,1.5,0.4\n",
    # quoted labels holding a line break and a comma
    "labels.csv": 'group,n,mean,sd\n"a\nb",5,1.0,0.2\n"c,d",6,2.0,0.3\n',
}


def calls() -> list[list[str]]:
    """The argv of every call, with TMP and SRC in its paths."""
    surveys = ["--input", f"{SRC}/common_cv/data/mcv_surveys.csv", "--summary"]
    hospital = ["--input", f"{SRC}/common_cv/data/hospital_survival.csv"]
    argvs = [[command, "--help"] for command in ("estimate", "ci", "test", "simulate", "examples")]
    for dataset, null in ((surveys, "0.05"), (hospital, "0.6")):
        for output in ([], ["--json"]):
            argvs += [
                ["estimate", *dataset, *output],
                ["ci", *dataset, *output],
                ["test", *dataset, "--null", null, *output],
            ]
    argvs += [
        ["ci", *hospital, "--method", "vj"],
        ["ci", *hospital, "--method", "tian", "--json"],
        ["ci", *surveys, "--level", "0.9", "--method", "new"],
        ["test", *surveys, "--null", "0.05", "--method", "combined", "--alternative", "less"],
        ["test", *hospital, "--null", "0.6", "--method", "vj"],
        ["examples"],
        ["examples", "--json"],
        ["examples", "--draws", "1000", "--seed", "7"],
    ]
    simulate = ["simulate", "--config", f"{TMP}/grid.csv", "--reps", "20", "--draws", "200", "--seed", "3"]
    return argvs + [
        simulate,
        [*simulate, "--out", f"{TMP}/out.csv"],
        [*simulate, "--method", "tian"],
        ["estimate", "--input", f"{TMP}/zero.csv", "--summary"],
        ["estimate", "--input", f"{TMP}/blank_label.csv"],
        ["estimate", "--input", f"{TMP}/n1.csv", "--summary"],
        ["simulate", "--config", f"{TMP}/word_mean.csv"],
        ["ci", "--input", f"{TMP}/tiny_mean.csv", "--summary", "--method", "all"],
        ["ci", *surveys, "--method", "bogus"],
        ["ci", "--input", f"{TMP}/missing.csv"],
        ["ci", *surveys, "--method", "vj", "--level", "0.9999999999999999"],  # 0.5 + level / 2 rounds to 1.0
        ["estimate", "--input", f"{TMP}/labels.csv", "--summary"],
    ]


def run(main, argv: list[str], paths: dict[str, str]) -> tuple[int, str]:
    """(exit code, SHA-256 hex digest) of one call of ``main``, where
    ``paths`` maps TMP and SRC to the paths they stand for."""
    for mark, path in paths.items():
        argv = [arg.replace(mark, path) for arg in argv]
    out_path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    digest = hashlib.sha256()
    for part in (stdout.getvalue(), stderr.getvalue(), out_path.read_text() if out_path else ""):
        for mark, path in paths.items():
            part = part.replace(path, mark)
        part = part.encode()
        digest.update(len(part).to_bytes(8, "big") + part)
    if out_path:
        out_path.unlink()
    return code, digest.hexdigest()


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src").resolve()
    sys.path.insert(0, str(src))
    os.environ.pop("COMMON_CV_SEED", None)
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    from common_cv.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text)
        for call in calls():
            code, digest = run(cli_main, call, {TMP: tmp, SRC: str(src)})
            print(f"{code} {digest} {shlex.join(call)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
