"""The row-by-row cohort CSV parser and the csv.writer writer, kept as
references for the column-wise I/O in ``lvef_fusion.cohort``.

``parse_cohort_csv`` reads every record through ``csv.reader`` and converts
it field by field (a ``csv.Error`` reading the header is a SchemaError,
reading a record a RowError for that record); ``write_cohort_csv`` and
``write_fused_csv`` format each number with ``"{:.4f}".format`` and write
rows through ``csv.writer``.  The library must give the same Cohort, the
same warnings in the same order, the same exception and message, and the
same bytes.
"""

import csv
import warnings
from itertools import repeat

import numpy as np

from lvef_fusion.cohort import (
    OPTIONAL_COLUMNS,
    REQUIRED_COLUMNS,
    VISUAL_GRID,
    Cohort,
    _reading,
    _writing,
)
from lvef_fusion.errors import (
    EmptyCohortWarning,
    ExtraColumnWarning,
    InvalidParameterError,
    OffGridWarning,
    RowError,
    SchemaError,
)


def parse_cohort_csv(source) -> Cohort:
    """Read and validate a cohort CSV from a path or stream, row by row."""
    with _reading(source) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except csv.Error as error:
            raise SchemaError(f"cannot read the header as CSV: {error}") from None
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
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as error:
                failure = RowError(index + 1, f"cannot read the row as CSV: {error}")
                break
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


# Every number a CSV artifact carries has 4 decimal places.
_fmt = "{:.4f}".format


def _write_rows(cohort: Cohort, destination, extra_header: list, extra_columns: list) -> None:
    """The canonical cohort columns, then the extra ones, one row per patient."""
    with _writing(destination) as handle:
        writer = csv.writer(handle)
        writer.writerow(list(REQUIRED_COLUMNS) + extra_header)
        writer.writerows(zip(
            cohort.patient_id, map(_fmt, cohort.visual.tolist()),
            map(_fmt, cohort.simpson.tolist()), map(_fmt, cohort.time.tolist()),
            cohort.event.tolist(), *extra_columns,
        ))


def write_cohort_csv(cohort: Cohort, destination) -> None:
    """Write a cohort in the canonical schema, 4-decimal numeric precision."""
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
