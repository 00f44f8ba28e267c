"""Cohort data model and CSV interchange.

A cohort is one ``Cohort`` of parallel columns (patient ids, visual and
Simpson's LVEF, follow-up time, event flag, and an optional true LVEF), row i
of every column being one patient.  Every row is validated in one place, when
the columns are put together; the parser and the simulator both build their
cohorts that way, and every later stage reads the columns directly.

The canonical cohort file is a UTF-8 CSV with header

    patient_id,visual_lvef,simpson_lvef,time_days,event

plus an optional trailing ``true_lvef`` column, which ``write_cohort_csv``
emits for cohorts that carry the truth (simulated ones) and the parser accepts
without a warning but does not read.  Numeric CSV output is fixed at 4 decimal
places; anything needing full double precision travels as JSON instead.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateIdError,
    EmptyCohortWarning,
    ExtraColumnWarning,
    InvalidParameterError,
    OffGridWarning,
    RowError,
    SchemaError,
)

__all__ = [
    "REQUIRED_COLUMNS",
    "Cohort",
    "parse_cohort_csv",
    "write_cohort_csv",
    "write_fused_csv",
]

REQUIRED_COLUMNS = ("patient_id", "visual_lvef", "simpson_lvef", "time_days", "event")
OPTIONAL_COLUMNS = ("true_lvef",)
VISUAL_GRID = 5.0


@dataclass(frozen=True, eq=False)
class Cohort:
    """Paired LVEF readings and follow-up outcomes, one column per field.

    Construction converts the columns (ids to a tuple, readings and times to
    float arrays, events to int64) and validates every row; the first invalid
    row raises RowError with its 1-based index, a repeated patient_id raises
    DuplicateIdError at the later row.  Columns of unequal length raise
    InvalidParameterError.
    """

    patient_id: tuple
    visual: np.ndarray
    simpson: np.ndarray
    time: np.ndarray
    event: np.ndarray
    true_lvef: np.ndarray | None = None

    def __post_init__(self):
        ids = tuple(self.patient_id)
        columns = {
            "visual": np.asarray(self.visual, dtype=float),
            "simpson": np.asarray(self.simpson, dtype=float),
            "time": np.asarray(self.time, dtype=float),
            "event": np.asarray(self.event),
        }
        if self.true_lvef is not None:
            columns["true_lvef"] = np.asarray(self.true_lvef, dtype=float)
        for name, column in columns.items():
            if column.shape != (len(ids),):
                raise InvalidParameterError(
                    f"{name} has shape {column.shape}, expected ({len(ids)},) like patient_id"
                )
        _check_rows(ids, columns["visual"], columns["simpson"], columns["time"],
                    columns["event"])
        columns["event"] = columns["event"].astype(np.int64)
        object.__setattr__(self, "patient_id", ids)
        for name, column in columns.items():
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.patient_id)

    def __eq__(self, other):
        if not isinstance(other, Cohort):
            return NotImplemented
        if (self.true_lvef is None) != (other.true_lvef is None):
            return False
        return self.patient_id == other.patient_id and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("visual", "simpson", "time", "event", "true_lvef")
        )


def _first(mask: np.ndarray) -> int:
    """Index of the first True in mask, or its length when there is none."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else mask.size


def _first_repeat(ids: tuple) -> int:
    """Index of the first id already seen earlier, or len(ids)."""
    seen = set()
    for index, patient_id in enumerate(ids):
        if patient_id in seen:
            return index
        seen.add(patient_id)
    return len(ids)


def _check_rows(ids, visual, simpson, time, event) -> None:
    """Raise for the first invalid row; within a row, fields in column order,
    then the uniqueness of its id."""
    n = len(ids)
    failures = (
        (ids.index("") if "" in ids else n, lambda i: "patient_id must be non-empty"),
        (_first(~((visual >= 0.0) & (visual <= 100.0))),
         lambda i: f"visual_lvef must be in [0, 100], got {visual[i].item()!r}"),
        (_first(~((simpson >= 0.0) & (simpson <= 100.0))),
         lambda i: f"simpson_lvef must be in [0, 100], got {simpson[i].item()!r}"),
        (_first(~((time > 0.0) & (time < np.inf))),
         lambda i: f"time_days must be finite and > 0, got {time[i].item()!r}"),
        (_first(~((event == 0) | (event == 1))),
         lambda i: f"event must be 0 or 1, got {event[i].item()!r}"),
    )
    row, message = min(failures, key=lambda failure: failure[0])
    repeat_row = _first_repeat(ids)
    if repeat_row < row:
        raise DuplicateIdError(repeat_row + 1, f"duplicate patient_id {ids[repeat_row]!r}")
    if row < n:
        raise RowError(row + 1, message(row))


def _open_source(source):
    """Yield a text-mode handle for a path, text stream, or byte stream.

    Bytes decode as utf-8-sig, so a leading byte-order mark (as spreadsheet
    exports write) is dropped instead of becoming part of the first column name.
    """
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8-sig", newline=""), True
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8-sig")), True
    if hasattr(source, "read"):
        probe = source.read(0)
        if isinstance(probe, bytes):
            return io.TextIOWrapper(source, encoding="utf-8-sig", newline=""), False
        return source, False
    raise InvalidParameterError(f"cannot read cohort from {type(source).__name__}")


def parse_cohort_csv(source) -> Cohort:
    """Read and validate a cohort CSV from a path or stream.

    Header names are matched with surrounding whitespace stripped.
    Validation failures carry the 1-based data row index (blank lines are
    skipped and not counted).  A header-only file yields an empty Cohort with
    a warning; off-grid visual values warn but pass.
    """
    handle, close_after = _open_source(source)
    try:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise SchemaError("input is empty: expected a cohort CSV header")
        # Spreadsheet exports often pad names after the comma.
        header = [name.strip() for name in header]
        missing = [c for c in REQUIRED_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"missing required column(s): {', '.join(missing)}")
        unknown = [c for c in header if c not in REQUIRED_COLUMNS + OPTIONAL_COLUMNS]
        if unknown:
            warnings.warn(
                f"ignoring unrecognized column(s): {', '.join(unknown)}",
                ExtraColumnWarning,
                stacklevel=2,
            )

        # A repeated header name reads its last column.
        where = {name: i for i, name in enumerate(header)}
        id_at, numbers_at = where["patient_id"], [where[c] for c in REQUIRED_COLUMNS[1:]]
        iv, js, it, ie = numbers_at
        ids, visual, simpson, time, event = [], [], [], [], []
        failure, index = None, 0
        for row in reader:
            if not row:
                continue
            index += 1
            try:
                v, s, t, e = float(row[iv]), float(row[js]), float(row[it]), float(row[ie])
            except (IndexError, ValueError):
                failure = _number_failure(index, row, numbers_at)
                break
            if e != 0.0 and e != 1.0:
                failure = RowError(index, f"event must be 0 or 1, got {row[ie]!r}")
                break
            ids.append(row[id_at].strip() if id_at < len(row) else "")
            visual.append(v)
            simpson.append(s)
            time.append(t)
            event.append(int(e))
    finally:
        if close_after:
            handle.close()

    cohort = None
    try:
        cohort = Cohort(ids, visual, simpson, time, event)
    except RowError as exc:
        failure = exc
    # Rows before the first invalid one warn, in order, before it raises.
    valid = np.asarray(visual[:failure.row_index - 1] if failure else visual)
    for i in np.flatnonzero(np.abs(valid / VISUAL_GRID - np.round(valid / VISUAL_GRID)) > 1e-9):
        warnings.warn(
            f"row {i + 1}: visual_lvef {valid[i]:g} is off the "
            "conventional 5-point reporting grid",
            OffGridWarning,
            stacklevel=2,
        )
    if failure is not None:
        raise failure
    if not len(cohort):
        warnings.warn("cohort file contains a header but no data rows",
                      EmptyCohortWarning, stacklevel=2)
    return cohort


def _number_failure(index: int, row: list, numbers_at: list) -> RowError:
    """The RowError for the first numeric field of a row that does not parse."""
    for column, i in zip(REQUIRED_COLUMNS[1:], numbers_at):
        raw = row[i] if i < len(row) else None
        if raw is None or raw.strip() == "":
            return RowError(index, f"missing value for {column}")
        try:
            float(raw)
        except ValueError:
            return RowError(index, f"cannot parse {column}={raw!r} as a number")


def _open_destination(destination):
    if isinstance(destination, (str, Path)):
        return open(destination, "w", encoding="utf-8", newline=""), True
    if hasattr(destination, "write"):
        return destination, False
    raise InvalidParameterError(f"cannot write CSV to {type(destination).__name__}")


# Every number a CSV artifact carries has 4 decimal places.
_fmt = "{:.4f}".format


def _write_rows(cohort: Cohort, destination, extra_header: list, extra_columns: list) -> None:
    """The canonical cohort columns, then the extra ones, one row per patient."""
    handle, close_after = _open_destination(destination)
    try:
        writer = csv.writer(handle)
        writer.writerow(list(REQUIRED_COLUMNS) + extra_header)
        writer.writerows(zip(
            cohort.patient_id, map(_fmt, cohort.visual.tolist()),
            map(_fmt, cohort.simpson.tolist()), map(_fmt, cohort.time.tolist()),
            cohort.event.tolist(), *extra_columns,
        ))
    finally:
        if close_after:
            handle.close()


def write_cohort_csv(cohort: Cohort, destination) -> None:
    """Write a cohort in the canonical schema, 4-decimal numeric precision.

    A cohort that carries true_lvef gets it as the optional trailing column.
    """
    if cohort.true_lvef is None:
        _write_rows(cohort, destination, [], [])
    else:
        _write_rows(cohort, destination, ["true_lvef"], [map(_fmt, cohort.true_lvef.tolist())])


def write_fused_csv(cohort: Cohort, theta, theta_sigma: float, destination) -> None:
    """Cohort columns plus per-patient theta and the cohort's theta_sigma."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(cohort),):
        raise InvalidParameterError(
            f"fused length {theta.size} does not match {len(cohort)} records"
        )
    _write_rows(cohort, destination, ["theta", "theta_sigma"],
                [map(_fmt, theta.tolist()), repeat(_fmt(theta_sigma))])
