"""The row-by-row KM band writer, kept as the reference for the column-wise
writer in ``lvef_fusion.report``.

``write_km_band_csv`` checks and clamps one row at a time in
``_checked_row``, formats each number with ``"{:.4f}".format`` and writes
the rows through ``csv.writer``.  The library must write the same bytes, or
raise the same InvalidStateError with the same message.
"""

import csv

from lvef_fusion.cohort import _fmt, _writing
from lvef_fusion.errors import InvalidStateError
from lvef_fusion.propagation import PropagationSummary
from lvef_fusion.report import _NESTING_SLACK


def _checked_row(source, label, t, lo, me, up):
    # Nesting is re-checked at write time; float noise inside the slack is
    # clamped so every emitted row satisfies lower <= mean <= upper exactly.
    slack = _NESTING_SLACK * (1.0 + abs(me))
    if me < lo - slack or me > up + slack or up < lo - slack:
        raise InvalidStateError(
            f"band nesting violated for {source}/{label} at t={t}: "
            f"lower={float(lo)} mean={float(me)} upper={float(up)}"
        )
    me = min(max(me, lo), up)
    return [source, label, _fmt(t), _fmt(lo), _fmt(me), _fmt(up)]


def write_km_band_csv(summaries, destination) -> None:
    """Long-format band CSV: source, stratum, time_days, lower, mean, upper.

    Accepts one PropagationSummary or a sequence; absent strata emit no rows.
    Step-function points appear at every band time.
    """
    if isinstance(summaries, PropagationSummary):
        summaries = [summaries]
    summaries = list(summaries)

    try:
        with _writing(destination) as handle:
            writer = csv.writer(handle)
            writer.writerow(["source", "stratum", "time_days", "lower", "mean", "upper"])
            for summary in summaries:
                for label, band in summary.km_bands.items():
                    if band is None:
                        continue
                    for t, lo, me, up in zip(band.times, band.lower, band.mean, band.upper):
                        writer.writerow(_checked_row(summary.source, label, t, lo, me, up))
    except OSError as exc:
        raise OSError(f"cannot write KM band CSV to {destination}: {exc}") from exc
