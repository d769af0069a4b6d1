"""CSV ingestion and the bundled example datasets.

Two input layouts are understood, both with a mandatory header and '.'
as the decimal separator:

  raw observations   header ``group,value``; one observation per row,
                     groups ordered by first appearance
  summaries          header ``group,n,mean,sd``; one group per row

Simulation grids (header ``phi,mu1..muK,n1..nK``, one cell per row) are
read by the same row reader.

Fields are read as the csv module quotes them: a quoted field may hold
commas, doubled double quotes and line breaks.  Every field is stripped
of surrounding whitespace.  Group labels are arbitrary nonempty strings.
Values must parse as finite numbers, and n as an integer >= 2.  Files
and binary streams are decoded strictly as UTF-8, and text streams are
taken as decoded; a leading byte order mark (Excel's "CSV UTF-8") is
dropped from all three.
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


def _rows(source, columns):
    """Yield each nonblank data row's fields, stripped and parsed, in column order.

    ``columns`` is the layout's (name, parser) pairs, or a function from the
    file's header to them (for layouts of varying width).  The header must
    list the names; each parser takes a field and the line its record ends on.
    """
    try:
        text = source.read() if hasattr(source, "read") else Path(source).read_bytes()
        text = text.decode("utf-8-sig") if isinstance(text, bytes) else text.removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input is not UTF-8 text: {exc}") from None
    # one record may span lines, inside a quoted field
    reader = csv.reader(StringIO(text, newline=""))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise MalformedHeaderError("empty input, expected a header row") from None
    if callable(columns):
        columns = columns(header)
    names = [name for name, _ in columns]
    if header != names:
        raise MalformedHeaderError(f"expected header {','.join(names)!r}, got {','.join(header)!r}")
    for row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore blank lines
        if len(row) != len(columns):
            raise ValidationError(
                f"line {reader.line_num}: expected {len(columns)} fields, got {len(row)}; "
                "the row does not match the header"
            )
        yield [parse(field.strip(), reader.line_num) for (_, parse), field in zip(columns, row)]


def _parse_label(field, lineno):
    if not field:
        raise ValidationError(f"line {lineno}: empty group label")
    return field


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


# Each layout's columns: (name, parser) in header order.
_RAW_COLUMNS = (("group", _parse_label), ("value", _parse_float))
_SUMMARY_COLUMNS = (("group", _parse_label), ("n", _parse_count), ("mean", _parse_float), ("sd", _parse_float))


def _grid_columns(k: int):
    means = [(f"mu{i + 1}", _parse_float) for i in range(k)]
    counts = [(f"n{i + 1}", _parse_count) for i in range(k)]
    return (("phi", _parse_float), *means, *counts)


def read_raw_csv(source) -> Study:
    """Parse ``group,value`` rows into a Study, one group per label."""
    by_group: dict[str, list[float]] = {}
    for label, value in _rows(source, _RAW_COLUMNS):
        by_group.setdefault(label, []).append(value)
    return Study(tuple(summarize(vals, label=lab) for lab, vals in by_group.items()))


def read_summary_csv(source) -> Study:
    """Parse ``group,n,mean,sd`` rows into a Study."""
    rows = _rows(source, _SUMMARY_COLUMNS)
    return Study(tuple(SampleSummary(n=n, mean=mean, sd=sd, label=label) for label, n, mean, sd in rows))


def grid_header(k: int) -> list[str]:
    """Header of a simulation grid with k groups: phi,mu1..muK,n1..nK."""
    return [name for name, _ in _grid_columns(k)]


def read_grid_csv(source) -> list[tuple[float, tuple[float, ...], tuple[int, ...]]]:
    """Parse ``phi,mu1..muK,n1..nK`` rows into (phi, mus, ns) cells (at least one)."""
    cells = []
    for phi, *fields in _rows(source, lambda header: _grid_columns((len(header) - 1) // 2)):
        k = len(fields) // 2
        cells.append((phi, tuple(fields[:k]), tuple(fields[k:])))
    if not cells:
        raise ValidationError("grid has no cells")
    return cells


def write_summary_csv(study, dest) -> None:
    """Write a Study, or any iterable of groups it accepts, in the
    ``group,n,mean,sd`` layout.

    The groups are checked before ``dest`` is opened, so a bad study writes
    no file.  Floats are written in shortest round-trip form, so reading the
    file back reproduces every group's n, mean and sd (and therefore all
    inference results) exactly.  A label is quoted where it holds a comma,
    a double quote or a line break and reads back as written, except that
    its surrounding whitespace is not kept and an empty label is written
    as ``groupN``, N its 1-based position.
    """
    study = Study(study)
    with contextlib.nullcontext(dest) if hasattr(dest, "write") else open(dest, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(name for name, _ in _SUMMARY_COLUMNS)
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
