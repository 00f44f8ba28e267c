"""Exception and warning types shared across the toolkit.

Every error raised on purpose by this package derives from LvefFusionError so
callers (and the command-line front end) can tell deliberate rejections apart
from genuine bugs.  Each concrete error is also exactly one of ValueError (the
input or settings are at fault: the CLI exits 2) or RuntimeError (a numerical
failure: the CLI exits 3 with a JSON diagnostic).
"""

from __future__ import annotations

__all__ = [
    "LvefFusionError",
    "LvefFusionWarning",
    "InvalidParameterError",
    "DomainError",
    "EmptyInputError",
    "DegenerateDataError",
    "SeparationError",
    "NonConvergenceError",
    "InvalidStateError",
    "PropagationError",
    "SchemaError",
    "RowError",
    "DuplicateIdError",
]


class LvefFusionError(Exception):
    """Base class for all deliberate errors raised by this package."""


class InvalidParameterError(LvefFusionError, ValueError):
    """A configuration value or argument violates its declared constraints."""


class DomainError(LvefFusionError, ValueError):
    """A numeric input lies outside its valid domain (e.g. LVEF not in [0, 100])."""


class EmptyInputError(LvefFusionError, ValueError):
    """An operation that needs at least one record received none."""


class DegenerateDataError(LvefFusionError, ValueError):
    """The data admit no fit (e.g. a survival dataset with zero events)."""


class SeparationError(LvefFusionError, RuntimeError):
    """Monotone partial likelihood: the Cox coefficient diverged (|beta| > bound)."""


class NonConvergenceError(LvefFusionError, RuntimeError):
    """An iterative fit hit its iteration cap before meeting tolerance.

    Carries the last iterate so callers can inspect how far the fit got.
    """

    def __init__(self, message: str, last_fit=None):
        super().__init__(message)
        self.last_fit = last_fit


class InvalidStateError(LvefFusionError, RuntimeError):
    """A derived quantity was requested from an object in an unusable state."""


class PropagationError(LvefFusionError, RuntimeError):
    """Monte-Carlo propagation could not produce any usable replicate."""


class SchemaError(LvefFusionError, ValueError):
    """A cohort file is missing required columns or has a malformed header."""


class RowError(LvefFusionError, ValueError):
    """A cohort row failed validation.  Carries the 1-based data row index."""

    def __init__(self, row_index: int, message: str):
        super().__init__(f"row {row_index}: {message}")
        self.row_index = row_index


class DuplicateIdError(RowError):
    """Two cohort rows share a patient_id; the row index is the later one's."""


class LvefFusionWarning(UserWarning):
    """Base class for warnings emitted by this package."""


class OffGridWarning(LvefFusionWarning):
    """A visual LVEF value does not sit on the conventional 5-point grid."""


class ExtraColumnWarning(LvefFusionWarning):
    """A cohort file carries unrecognized columns (they are ignored)."""


class EmptyCohortWarning(LvefFusionWarning):
    """A cohort file parsed to zero data rows."""
