"""CSV ingestion and the bundled example datasets.

Two input layouts are understood, both with a mandatory header and '.'
as the decimal separator:

  raw observations   header ``group,value``; one observation per row,
                     groups ordered by first appearance
  summaries          header ``group,n,mean,sd``; one group per row

Simulation grids (header ``phi,mu1..muK,n1..nK``, one cell per row) are
read by the same row reader.

Group labels are arbitrary nonempty strings.  Values must parse as finite
numbers, and n as an integer >= 2.  Files and binary streams are decoded
strictly as UTF-8, and text streams are taken as decoded; a leading byte
order mark (Excel's "CSV UTF-8") is dropped from all three.
"""

from __future__ import annotations

import contextlib
import csv
import math
from importlib import resources
from io import StringIO
from pathlib import Path

from .errors import (
    InvalidCountError,
    MalformedHeaderError,
    NonNumericValueError,
    ValidationError,
)
from .model import SampleSummary, Study, summarize

RAW_HEADER = ["group", "value"]
SUMMARY_HEADER = ["group", "n", "mean", "sd"]


def _rows(source, expected_header):
    """Yield (line number, stripped fields) for each nonblank data row.

    ``expected_header`` is the header list, or a function from the file's
    header to the list it must equal (for layouts of varying width).
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
            text = text.decode("utf-8-sig") if isinstance(text, bytes) else text.removeprefix("\ufeff")
        else:
            text = Path(source).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input is not UTF-8 text: {exc}") from None
    reader = csv.reader(text.splitlines())
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise MalformedHeaderError("empty input, expected a header row") from None
    if callable(expected_header):
        expected_header = expected_header(header)
    if header != expected_header:
        raise MalformedHeaderError(
            f"expected header {','.join(expected_header)!r}, got {','.join(header)!r}"
        )
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore blank lines
        if len(row) != len(expected_header):
            raise ValidationError(
                f"line {lineno}: expected {len(expected_header)} fields, got {len(row)}; "
                "the row does not match the header"
            )
        yield lineno, [f.strip() for f in row]


def _parse_float(field, lineno):
    try:
        value = float(field)
    except ValueError:
        raise NonNumericValueError(f"line {lineno}: not a number: {field!r}") from None
    if not math.isfinite(value):
        raise NonNumericValueError(f"line {lineno}: value must be finite, got {field!r}")
    return value


def _parse_count(field, lineno):
    try:
        n = int(field)
    except ValueError:
        raise InvalidCountError(f"line {lineno}: n must be an integer, got {field!r}") from None
    if n < 2:
        raise InvalidCountError(f"line {lineno}: n must be >= 2, got {n}")
    return n


def read_raw_csv(source) -> Study:
    """Parse ``group,value`` rows into a Study, one group per label."""
    by_group: dict[str, list[float]] = {}
    for lineno, (label, field) in _rows(source, RAW_HEADER):
        if not label:
            raise ValidationError(f"line {lineno}: empty group label")
        by_group.setdefault(label, []).append(_parse_float(field, lineno))
    return Study(tuple(summarize(vals, label=lab) for lab, vals in by_group.items()))


def read_summary_csv(source) -> Study:
    """Parse ``group,n,mean,sd`` rows into a Study."""
    groups = []
    for lineno, (label, n_field, mean_field, sd_field) in _rows(source, SUMMARY_HEADER):
        if not label:
            raise ValidationError(f"line {lineno}: empty group label")
        n = _parse_count(n_field, lineno)
        mean = _parse_float(mean_field, lineno)
        sd = _parse_float(sd_field, lineno)
        groups.append(SampleSummary(n=n, mean=mean, sd=sd, label=label))
    return Study(tuple(groups))


def grid_header(k: int) -> list[str]:
    """Header of a simulation grid with k groups: phi,mu1..muK,n1..nK."""
    return ["phi", *(f"mu{i + 1}" for i in range(k)), *(f"n{i + 1}" for i in range(k))]


def read_grid_csv(source) -> list[tuple[float, tuple[float, ...], tuple[int, ...]]]:
    """Parse ``phi,mu1..muK,n1..nK`` rows into (phi, mus, ns) cells (at least one)."""
    cells = []
    for lineno, fields in _rows(source, lambda header: grid_header((len(header) - 1) // 2)):
        k = (len(fields) - 1) // 2
        cells.append((
            _parse_float(fields[0], lineno),
            tuple(_parse_float(v, lineno) for v in fields[1 : k + 1]),
            tuple(_parse_count(v, lineno) for v in fields[k + 1 :]),
        ))
    if not cells:
        raise ValidationError("grid has no cells")
    return cells


def write_summary_csv(study: Study, dest) -> None:
    """Write a Study in the ``group,n,mean,sd`` layout.

    Floats are written in shortest round-trip form, so reading the file
    back reproduces the study (and therefore all inference results) exactly.
    """
    with contextlib.nullcontext(dest) if hasattr(dest, "write") else open(dest, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for label, g in zip(study.labels, study.groups):
            writer.writerow([label, g.n, repr(g.mean), repr(g.sd)])


def _bundled(name: str) -> str:
    return resources.files("common_cv").joinpath("data").joinpath(name).read_text()


def load_mcv_surveys() -> Study:
    """Two annual blood-analyte quality-control surveys (summary data)."""
    return read_summary_csv(StringIO(_bundled("mcv_surveys.csv")))


def load_hospital_survival() -> Study:
    """Patient survival times from four hospitals (raw data)."""
    return read_raw_csv(StringIO(_bundled("hospital_survival.csv")))
