"""Cohort data model and CSV interchange.

The canonical cohort file is a UTF-8 CSV with header

    patient_id,visual_lvef,simpson_lvef,time_days,event

plus an optional trailing ``true_lvef`` column emitted by the simulator.
Numeric CSV output is fixed at 4 decimal places; anything needing full double
precision travels as JSON instead.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DomainError,
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
    "PairedMeasurement",
    "parse_cohort_csv",
    "write_cohort_csv",
    "write_fused_csv",
    "cohort_arrays",
]

REQUIRED_COLUMNS = ("patient_id", "visual_lvef", "simpson_lvef", "time_days", "event")
OPTIONAL_COLUMNS = ("true_lvef",)
VISUAL_GRID = 5.0


@dataclass(frozen=True)
class PairedMeasurement:
    """One patient's paired LVEF readings and follow-up outcome."""

    patient_id: str
    visual_lvef: float
    simpson_lvef: float
    time_days: float
    event: int

    def __post_init__(self):
        if not self.patient_id:
            raise InvalidParameterError("patient_id must be non-empty")
        for name in ("visual_lvef", "simpson_lvef"):
            value = getattr(self, name)
            if not (np.isfinite(value) and 0.0 <= value <= 100.0):
                raise DomainError(f"{name} must be in [0, 100], got {value!r}")
        if not (np.isfinite(self.time_days) and self.time_days > 0):
            raise DomainError(f"time_days must be finite and > 0, got {self.time_days!r}")
        if self.event not in (0, 1):
            raise InvalidParameterError(f"event must be 0 or 1, got {self.event!r}")


def _off_grid(value: float) -> bool:
    return abs(value / VISUAL_GRID - round(value / VISUAL_GRID)) > 1e-9


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


def parse_cohort_csv(source) -> list[PairedMeasurement]:
    """Read and validate a cohort CSV from a path or stream.

    Validation failures carry the 1-based data row index.  A header-only file
    yields an empty list with a warning; off-grid visual values warn but pass.
    """
    handle, close_after = _open_source(source)
    try:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise SchemaError("input is empty: expected a cohort CSV header")
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

        records: list[PairedMeasurement] = []
        seen_ids: set[str] = set()
        for index, row in enumerate(reader, start=1):
            record = _parse_row(index, row)
            if record.patient_id in seen_ids:
                raise DuplicateIdError(f"row {index}: duplicate patient_id {record.patient_id!r}")
            seen_ids.add(record.patient_id)
            if _off_grid(record.visual_lvef):
                warnings.warn(
                    f"row {index}: visual_lvef {record.visual_lvef:g} is off the "
                    "conventional 5-point reporting grid",
                    OffGridWarning,
                    stacklevel=2,
                )
            records.append(record)
        if not records:
            warnings.warn("cohort file contains a header but no data rows",
                          EmptyCohortWarning, stacklevel=2)
        return records
    finally:
        if close_after:
            handle.close()


def _parse_row(index: int, row: dict) -> PairedMeasurement:
    def number(column):
        raw = row.get(column)
        if raw is None or raw.strip() == "":
            raise RowError(index, f"missing value for {column}")
        try:
            return float(raw)
        except ValueError:
            raise RowError(index, f"cannot parse {column}={raw!r} as a number") from None

    patient_id = (row.get("patient_id") or "").strip()
    visual = number("visual_lvef")
    simpson = number("simpson_lvef")
    time_days = number("time_days")
    event_raw = number("event")
    if event_raw not in (0.0, 1.0):
        raise RowError(index, f"event must be 0 or 1, got {row.get('event')!r}")
    try:
        return PairedMeasurement(patient_id, visual, simpson, time_days, int(event_raw))
    except (DomainError, InvalidParameterError) as exc:
        raise RowError(index, str(exc)) from exc


def _open_destination(destination):
    if isinstance(destination, (str, Path)):
        return open(destination, "w", encoding="utf-8", newline=""), True
    if hasattr(destination, "write"):
        return destination, False
    raise InvalidParameterError(f"cannot write CSV to {type(destination).__name__}")


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def write_cohort_csv(records, destination, true_lvef=None) -> None:
    """Write records in the canonical schema, 4-decimal numeric precision.

    true_lvef, when given, must align with records by index and is appended as
    the optional trailing column.
    """
    records = list(records)
    if true_lvef is not None and len(true_lvef) != len(records):
        raise InvalidParameterError(
            f"true_lvef length {len(true_lvef)} does not match {len(records)} records"
        )
    handle, close_after = _open_destination(destination)
    try:
        writer = csv.writer(handle)
        header = list(REQUIRED_COLUMNS) + (["true_lvef"] if true_lvef is not None else [])
        writer.writerow(header)
        for i, r in enumerate(records):
            row = [r.patient_id, _fmt(r.visual_lvef), _fmt(r.simpson_lvef),
                   _fmt(r.time_days), r.event]
            if true_lvef is not None:
                row.append(_fmt(true_lvef[i]))
            writer.writerow(row)
    finally:
        if close_after:
            handle.close()


def write_fused_csv(records, fused, destination) -> None:
    """Cohort columns plus per-patient theta and theta_sigma, row-aligned."""
    records = list(records)
    fused = list(fused)
    if len(records) != len(fused):
        raise InvalidParameterError(
            f"fused length {len(fused)} does not match {len(records)} records"
        )
    handle, close_after = _open_destination(destination)
    try:
        writer = csv.writer(handle)
        writer.writerow(list(REQUIRED_COLUMNS) + ["theta", "theta_sigma"])
        for r, f in zip(records, fused):
            writer.writerow([
                r.patient_id, _fmt(r.visual_lvef), _fmt(r.simpson_lvef),
                _fmt(r.time_days), r.event, _fmt(f.theta), _fmt(f.theta_sigma),
            ])
    finally:
        if close_after:
            handle.close()


def cohort_arrays(records):
    """(visual, simpson, time, event) as parallel numpy arrays."""
    records = list(records)
    return (
        np.array([r.visual_lvef for r in records], dtype=float),
        np.array([r.simpson_lvef for r in records], dtype=float),
        np.array([r.time_days for r in records], dtype=float),
        np.array([r.event for r in records], dtype=np.int64),
    )
