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

The reader and the writers take a path or a stream, and only the opener
closes a handle: a path is opened and closed within the call, a caller's
stream is borrowed and left open, and the text wrapper put around a caller's
byte stream is detached, not closed (``_reading`` and ``_writing``, one per
direction).

I/O is column-wise.  The parser reads the body in blocks of whole lines.  A
plain block (no quote, NUL or bare carriage return, one comma fewer per line
than the header has names) is split once at its commas and converted a
column at a time with ``float()``.  From the first block that is not plain,
or whose numbers or events do not convert, the rest of the file goes through
``csv.reader`` row by row, so errors, row indexes and warnings are the row
parser's; a record csv cannot read is an error of its row.  A quoted file,
including one of the program's own outputs whose ids hold a comma, is read
row by row from its first quoted block.  The writers spell a chunk of rows at
a time, each number column in one pass of numpy digit arithmetic
(``_fmt_column``, exactly ``"%.4f" % x``), and join the columns into lines
(``_csv_lines``) with the bytes ``csv.writer`` gives.
"""

from __future__ import annotations

import csv
import functools
import io
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, repeat
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
    "Cohort",
    "parse_cohort_csv",
    "write_cohort_csv",
    "write_fused_csv",
]

REQUIRED_COLUMNS = ("patient_id", "visual_lvef", "simpson_lvef", "time_days", "event")
OPTIONAL_COLUMNS = ("true_lvef",)
VISUAL_GRID = 5.0
# The parser reads the body in blocks of whole lines of about this many
# characters; the writers spell this many rows per write, in byte matrices of
# about 80 bytes a row.  Small blocks keep each block's buffers below the
# allocator's mmap threshold: 2^18 raised the peak RSS of a report on 40k
# patients by 0.6 MB over the row parser, 2^16 lowered it by 2.5 MB, at the
# same parse speed.
BLOCK_CHARS = 1 << 16
WRITE_ROWS = 1 << 14


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
    """Index of the first id already seen earlier; ids must repeat one."""
    seen = set()
    for index, patient_id in enumerate(ids):
        if patient_id in seen:
            return index
        seen.add(patient_id)


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
    # Building the set is cheaper than the scan that names the repeat.
    repeat_row = _first_repeat(ids) if len(set(ids)) < n else n
    if repeat_row < row:
        raise DuplicateIdError(repeat_row + 1, f"duplicate patient_id {ids[repeat_row]!r}")
    if row < n:
        raise RowError(row + 1, message(row))


@contextmanager
def _reading(source):
    """A text handle on a path or a text or byte stream, for one with block,
    owned as the module docstring says.

    Bytes decode as utf-8-sig, so a leading byte-order mark (as spreadsheet
    exports write) is dropped instead of becoming part of the first column name.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            yield handle
    elif not hasattr(source, "read"):
        raise InvalidParameterError(f"cannot read cohort from {type(source).__name__}")
    elif isinstance(source.read(0), bytes):
        wrapper = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
        try:
            yield wrapper
        finally:
            wrapper.detach()
    else:
        yield source


def parse_cohort_csv(source) -> Cohort:
    """Read and validate a cohort CSV from a path or stream.

    Header names are matched with surrounding whitespace stripped.
    Validation failures carry the 1-based data row index (blank lines are
    skipped and not counted).  A header-only file yields an empty Cohort with
    a warning; off-grid visual values warn but pass.
    """
    with _reading(source) as handle:
        try:
            header = next(csv.reader(handle), None)
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
        ids, blocks = [], []
        rest = _plain_blocks(handle, header, id_at, numbers_at, ids, blocks)
        iv, js, it, ie = numbers_at
        failure, index, rows = None, len(ids), []
        try:
            for row in csv.reader(rest):
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
                rows.append((v, s, t, e))
        except csv.Error as error:
            # Only reading the next record raises it.
            failure = RowError(index + 1, f"cannot read the row as CSV: {error}")

    blocks.append(np.array(rows, dtype=float).reshape(-1, 4).T)
    visual, simpson, time, event = np.concatenate(blocks, axis=1)
    cohort = None
    try:
        cohort = Cohort(ids, visual, simpson, time, event)
    except RowError as exc:
        failure = exc
    # Rows before the first invalid one warn, in order, before it raises.
    valid = visual[:failure.row_index - 1] if failure else visual
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


def _plain_blocks(handle, header: list, id_at: int, numbers_at: list, ids: list,
                  blocks: list):
    """Parse the body column-wise, one block of whole lines at a time, while
    each block is plain; return the lines left for the row parser.

    A block is plain, and split at its commas as csv.reader would split it,
    when it has no quote, NUL or bare carriage return, every line has exactly
    len(header) - 1 commas and no line outgrows csv's field limit.  Its
    numbers must also convert with float() and its events be 0 or 1.  Each
    block read appends its ids to ids and its (4, rows) numbers to blocks.
    The lines returned start at the first block not read; every line before
    it is one whole record, so that block starts a record.
    """
    ncols, limit = len(header), csv.field_size_limit()
    count = max(1, BLOCK_CHARS // len(",".join(header)))
    while True:
        lines = []
        try:
            # extend keeps the lines read before a decode error; the row
            # parser must see them before the error is raised.
            lines.extend(islice(handle, count))
        except UnicodeDecodeError as error:
            return chain(lines, _raising(error))
        if not lines:
            return lines
        text = ",".join(lines)
        if ('"' in text or "\0" in text or text.count("\r") != text.count("\r\n")
                or set(map(str.count, lines, repeat(","))) != {ncols - 1}
                or max(map(len, lines)) > limit):
            return chain(lines, handle)
        # The last cell of each line keeps its line break, which float() and
        # str.strip() ignore.
        cells = text.split(",")
        try:
            block = np.array([np.fromiter(map(float, cells[j::ncols]), float, len(lines))
                              for j in numbers_at])
        except ValueError:
            return chain(lines, handle)
        if not np.all((block[3] == 0.0) | (block[3] == 1.0)):
            return chain(lines, handle)
        ids.extend(map(str.strip, cells[id_at::ncols]))
        blocks.append(block)
        count = max(1, BLOCK_CHARS * len(lines) // len(text))


def _raising(error: Exception):
    """An iterator that raises error when it is first advanced."""
    raise error
    yield


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


@contextmanager
def _writing(destination):
    """A text handle on a path or a text stream, for one with block, owned as
    the module docstring says."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            yield handle
    elif hasattr(destination, "write"):
        yield destination
    else:
        raise InvalidParameterError(f"cannot write to {type(destination).__name__}")


# Every number a CSV artifact carries has 4 decimal places.
_fmt = "{:.4f}".format
# csv.writer's QUOTE_MINIMAL quotes a field holding any of these.
_NEEDS_QUOTES = re.compile('[,"\r\n]')
# Pads the byte matrices a chunk of CSV lines is put together from; it is
# dropped before the chunk is written.  No UTF-8 text holds this byte.
_FILL = 0xFF


@functools.cache
def _digit_words() -> np.ndarray:
    """The 4-byte words numbers are spelled with, as uint32: "0000" to "9999"
    from 0, the same with leading zeros as _FILL (0 keeps its "0") from
    _LEAD, then three _FILL before nothing, "-" or ".".

    Built on first use, so that importing the package allocates nothing: a
    report's peak RSS moves with the heap layout its imports leave."""
    ten = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    digits = np.stack(np.meshgrid(ten, ten, ten, ten, indexing="ij"), axis=-1).reshape(-1, 4)
    lead = digits.copy()
    lead[np.arange(10_000)[:, None] < np.array([1000, 100, 10, 0])] = _FILL
    marks = np.array([[_FILL] * 3 + [mark] for mark in (_FILL, ord("-"), ord("."))], np.uint8)
    return np.concatenate([digits, lead, marks]).view(np.uint32).ravel()


_LEAD, _BLANK, _DOT = 10_000, 20_000, 20_002


def _quoted(ids: list) -> list:
    """ids as csv.writer writes them: one holding a comma, a quote or a line
    break is quoted, its quotes doubled."""
    joined = "".join(ids)
    if not any(mark in joined for mark in ',"\r\n'):
        return ids
    return ['"%s"' % i.replace('"', '""') if _NEEDS_QUOTES.search(i) else i for i in ids]


def _fmt_column(values: np.ndarray) -> np.ndarray:
    """"%.4f" % x for each x of a float array, as the rows of a uint8 matrix
    padded with _FILL.

    %-formatting rounds the exact |x| * 10^4 to an integer, half to even.  Its
    float product s is within spacing(s)/2 of that, so np.rint(s) gives the
    same integer where |x| < 1e11 (s < 2^50: halves are representable and
    rint is exact) and s is more than spacing(s) from the nearest half.  Each
    other value (a tie or near tie, nan, an infinity, a larger value) is
    formatted by Python.  The sign is "-" exactly when the sign bit is set,
    as %-formatting gives for -0.0 and for negatives that round to zero.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        magnitude = np.abs(values)
        scaled = magnitude * 1e4
        exact = (magnitude < 1e11) & (np.abs(scaled - np.floor(scaled) - 0.5) > np.spacing(scaled))
    units = np.rint(np.where(exact, scaled, 0.0))
    whole = np.floor(units / 1e4)
    # Words of 4 digits: each value's integer part needs `shown`, the column
    # as many as its widest value; the words above a value's are blank.
    shown = 1 + (whole >= 1e4) + (whole >= 1e8)
    width = int(shown.max(initial=1))
    index = np.empty((values.size, width + 3), np.intp)
    index[:, 0] = _BLANK + np.signbit(values)  # the "-" word follows the blank one
    above = whole
    for rank in range(width):
        below, above = above, np.floor(above / 1e4)
        index[:, width - rank] = (below - above * 1e4
                                  + _LEAD * ((shown == rank + 1) + 2 * (shown <= rank)))
    index[:, -2] = _DOT
    index[:, -1] = units - whole * 1e4
    matrix = _digit_words()[index].view(np.uint8)
    slow = np.flatnonzero(~exact)
    if slow.size:
        text = [("%.4f" % x).encode() for x in values[slow].tolist()]
        lengths = np.array(list(map(len, text)))
        spelled = np.full((slow.size, max(matrix.shape[1], lengths.max())), _FILL, np.uint8)
        data = np.frombuffer(b"".join(text), np.uint8)
        spelled[np.arange(spelled.shape[1]) < lengths[:, None]] = data
        matrix = np.pad(matrix, ((0, 0), (0, spelled.shape[1] - matrix.shape[1])),
                        constant_values=_FILL)
        matrix[slow] = spelled
    return matrix


def _repeated(text: str, rows: int) -> np.ndarray:
    """text's UTF-8 bytes as each of rows rows of a read-only uint8 matrix."""
    data = np.frombuffer(text.encode(), np.uint8)
    return np.broadcast_to(data, (rows, data.size))


def _csv_lines(heads: list, fields: list, tail: str) -> str:
    """CSV text, one line per row of the fields: the line's head, a comma and
    each field in turn, then tail.

    Each field is a uint8 matrix of its rows' bytes padded with _FILL; heads
    holds each line's own str.  The heads are joined in as text: a matrix as
    wide as the longest would take rows times its length, whatever the
    others'.
    """
    rows = len(heads)
    parts = []
    for field in fields:
        parts += [_repeated(",", rows), field]
    matrix = np.concatenate(parts + [_repeated(tail, rows)], axis=1)
    text = matrix.tobytes().translate(None, bytes([_FILL])).decode()
    # The fields' bytes hold no line break, so each line ends at its tail.
    pieces = [""] * (2 * rows)
    pieces[0::2] = heads
    pieces[1::2] = text.splitlines(keepends=True)
    return "".join(pieces)


def _write_rows(cohort: Cohort, destination, extra_header: list, extra_columns: list,
                tail: str = "\r\n") -> None:
    """The canonical cohort columns, then the extra float columns, then tail
    (which ends the line), one row per patient, WRITE_ROWS rows per write,
    in the bytes csv.writer gives."""
    with _writing(destination) as handle:
        handle.write(",".join(list(REQUIRED_COLUMNS) + extra_header) + "\r\n")
        for start in range(0, len(cohort), WRITE_ROWS):
            chunk = slice(start, start + WRITE_ROWS)
            fields = [_fmt_column(column[chunk])
                      for column in (cohort.visual, cohort.simpson, cohort.time)]
            fields.append((cohort.event[chunk] + ord("0")).astype(np.uint8)[:, None])
            fields += [_fmt_column(column[chunk]) for column in extra_columns]
            ids = _quoted(list(map(str, cohort.patient_id[chunk])))
            handle.write(_csv_lines(ids, fields, tail))


def write_cohort_csv(cohort: Cohort, destination) -> None:
    """Write a cohort in the canonical schema, 4-decimal numeric precision.

    A cohort that carries true_lvef gets it as the optional trailing column.
    """
    if cohort.true_lvef is None:
        _write_rows(cohort, destination, [], [])
    else:
        _write_rows(cohort, destination, ["true_lvef"], [cohort.true_lvef])


def write_fused_csv(cohort: Cohort, theta, theta_sigma: float, destination) -> None:
    """Cohort columns plus per-patient theta and the cohort's theta_sigma."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(cohort),):
        raise InvalidParameterError(
            f"fused length {theta.size} does not match {len(cohort)} records"
        )
    _write_rows(cohort, destination, ["theta", "theta_sigma"], [theta],
                f",{_fmt(theta_sigma)}\r\n")
