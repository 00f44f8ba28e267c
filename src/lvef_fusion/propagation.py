"""Monte-Carlo propagation of measurement uncertainty into survival results.

The three-step procedure: (1) resample every patient's LVEF from the chosen
source's error distribution, (2) rerun the Kaplan-Meier strata and the Cox fit
as if the resampled values were exact, (3) compile the replicate statistics
into percentile bands.  Replicate r always runs on substream (seed, r), so
results are bit-reproducible and independent of execution order.

The stratum rule (low below the lower band edge, mid in the closed band,
high above it) is written once, in ``_strata_masks``: ``stratify`` (string
labels) and ``stratum_km`` (one Kaplan-Meier curve per stratum) are views of
its masks, and ``propagate`` applies it to a whole chunk of replicates.

``propagate`` runs the replicates in chunks of about CHUNK_ELEMENTS draws:
one ``km_segmented`` pass per stratum fits every replicate's Kaplan-Meier
curve of a chunk as compact (replicate, time, S) rows, one ``_cox_fit_rows``
call fits every replicate's Cox model of the chunk as one batch of Newton
iterations (a replicate whose fit fails fails alone), and the bands are read
from the rows in blocks of about BAND_ELEMENTS values.  The results are bit
for bit those of one replicate at a time (``stratum_km``,
``cox_fit_from_arrays`` and a per-curve band); the budgets only bound memory.

The chunks are split into one contiguous share per CPU the process may run
on (never more shares than chunks).  This process fits the first share; a
child forked for each other share fits it and sends its chunks' results
back over a pipe.  The results are stored in replicate order, so every
number is the same whatever the CPU count; with one CPU, or where processes
cannot be forked, no child is started.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InvalidParameterError, PropagationError
from .fusion import InstrumentSigma, fused_estimates, fused_sigma
from .stochastics import _integer, make_stream, summarize
from .survival import (
    CoxFit,
    _check_horizon,
    _checked,
    _cox_fit_rows,
    hazard_ratio_per,
    km_event_rate_at,
    km_from_arrays,
    km_segmented,
)
# Not called here: perfbench/tracing.py still wraps this name.
from .survival import cox_fit_from_arrays  # noqa: F401

__all__ = [
    "PropagationConfig",
    "StratumSummary",
    "KmBand",
    "PropagationSummary",
    "stratify",
    "propagate",
]

SOURCES = ("visual", "simpson", "assimilated")
STRATA = ("low", "mid", "high")
HR_DELTA = 5.0
# Every replicate draw is clipped into this LVEF range.
CLAMP_RANGE = (1.0, 99.0)
# Replicates are drawn and fitted in chunks whose (replicate, patient) matrix
# holds about CHUNK_ELEMENTS values, which bounds memory at any cohort size.
CHUNK_ELEMENTS = 2**16
# Band columns are read in blocks of about BAND_ELEMENTS (curve, column) values.
BAND_ELEMENTS = 2**16


@dataclass(frozen=True)
class PropagationConfig:
    source: str
    sigmas: InstrumentSigma
    seed: int
    replicates: int = 1000
    horizon: float = 365.0
    band_edges: tuple[float, float] = (35.0, 50.0)

    def __post_init__(self):
        if self.source not in SOURCES:
            raise InvalidParameterError(f"source must be one of {SOURCES}, got {self.source!r}")
        object.__setattr__(self, "seed", _integer("seed", self.seed, uint64=True))
        object.__setattr__(self, "replicates", _integer("replicates", self.replicates))
        if self.replicates < 2:
            raise InvalidParameterError(f"replicates must be >= 2, got {self.replicates}")
        _check_horizon(self.horizon)
        _check_band_edges(self.band_edges)


def _check_band_edges(band_edges) -> None:
    """Reject band edges that are not strictly increasing inside (0, 100)."""
    lo, hi = band_edges
    if not (0.0 < lo < hi < 100.0):
        raise InvalidParameterError(
            f"band_edges must be strictly increasing inside (0, 100), got {band_edges!r}"
        )


@dataclass(frozen=True)
class StratumSummary:
    mean_event_rate: float | None
    quantiles: dict | None
    n_present: int


@dataclass(frozen=True)
class KmBand:
    """Pointwise percentile envelope of replicate survival curves."""

    times: np.ndarray
    lower: np.ndarray
    mean: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class PropagationSummary:
    source: str
    replicates: int
    failed_replicates: int
    event_rates: dict
    hazard_ratio_mean: float
    hazard_ratio_q025: float
    hazard_ratio_q975: float
    km_bands: dict
    horizon: float


def _strata_masks(values, band_edges) -> dict:
    """{stratum: membership mask} over STRATA: low below the lower edge, mid
    in the closed band, high above it (or NaN).  The one statement of the
    stratum rule; stratify, stratum_km and propagate all read it."""
    lo, hi = band_edges
    low = values < lo
    mid = ~low & (values <= hi)
    return {"low": low, "mid": mid, "high": ~(low | mid)}


def stratify(lvef_values, band_edges=PropagationConfig.band_edges) -> np.ndarray:
    """Label each value low, mid or high by _strata_masks."""
    masks = _strata_masks(np.asarray(lvef_values, dtype=float), band_edges)
    labels = np.full(masks["high"].shape, "high")
    labels[masks["low"]] = "low"
    labels[masks["mid"]] = "mid"
    return labels


def stratum_km(values, time, event, band_edges, horizon) -> dict:
    """Stratify by values, then fit each stratum's Kaplan-Meier curve.

    Returns {stratum: (patients, KmCurve, event rate by horizon)} over STRATA,
    with None for a stratum no value falls in.  The follow-up is checked as
    km_from_arrays checks it, so no records at all is an error, not three
    empty strata.
    """
    time, event = _checked(time, event)
    out = {}
    for label, mask in _strata_masks(np.asarray(values, dtype=float), band_edges).items():
        n = int(np.count_nonzero(mask))
        if n == 0:
            out[label] = None
            continue
        curve = km_from_arrays(time[mask], event[mask])
        out[label] = (n, curve, km_event_rate_at(curve, horizon))
    return out


def source_values(cohort, source: str, sigmas: InstrumentSigma):
    """(centers, spread) of one source: a reading column with its instrument
    sigma, or the fused theta (fused_estimates) with fused_sigma."""
    if source == "visual":
        return cohort.visual, sigmas.visual_sigma
    if source == "simpson":
        return cohort.simpson, sigmas.simpson_sigma
    return fused_estimates(cohort, sigmas), fused_sigma(sigmas)


class _StratumCurves:
    """One stratum's KM curves over all replicates, as compact rows.

    Row i is the i-th event time of replicate rep[i], with its survival; the
    rows run in (replicate, time) order.  present[r] tells whether any
    patient fell in the stratum in replicate r, and rate[r] is then its
    event rate by the horizon.
    """

    def __init__(self, replicates: int):
        self.present = np.zeros(replicates, dtype=bool)
        self.rate = np.zeros(replicates)
        self.rows: list = []

    def add(self, first, present, rate, rows):
        """Store one chunk's fit of the stratum (see _fit_stratum), the
        chunk starting at replicate first."""
        self.present[first:first + present.size] = present
        self.rate[first:first + rate.size] = rate
        if rows is not None:
            self.rows.append(rows)

    def summary(self) -> StratumSummary:
        if not self.present.any():
            return StratumSummary(mean_event_rate=None, quantiles=None, n_present=0)
        s = summarize(self.rate[self.present], (0.025, 0.5, 0.975))
        return StratumSummary(mean_event_rate=s.mean, quantiles=s.quantiles,
                              n_present=int(self.present.sum()))

    def band(self) -> KmBand | None:
        """Pointwise percentile envelope of the present replicates' curves on
        the union of their event times; releases the rows it reads."""
        curves = np.flatnonzero(self.present)
        if curves.size == 0:
            return None
        keys, times, survival = (np.concatenate(parts) for parts in zip(*self.rows))
        self.rows.clear()
        grid = np.unique(times)
        if grid.size == 0:
            return KmBand(times=grid, lower=grid.copy(), mean=grid.copy(), upper=grid.copy())
        # Key (replicate, grid column): searching the rows' keys for a
        # column's key counts the replicate's rows up to that time.
        keys *= grid.size
        keys += np.searchsorted(grid, times)
        del times
        first_row = np.searchsorted(keys, curves * grid.size)[:, None]
        padded = np.concatenate(([1.0], survival))
        lower = np.empty(grid.size)
        mean = np.empty(grid.size)
        upper = np.empty(grid.size)
        # A one-column block would average its column by pairwise summation,
        # unlike the row-by-row sums of wider blocks: a one-column tail joins
        # the block before it.
        edges = list(range(0, grid.size, max(2, BAND_ELEMENTS // curves.size))) + [grid.size]
        if len(edges) > 2 and edges[-1] - edges[-2] == 1:
            del edges[-2]
        for start, stop in zip(edges[:-1], edges[1:]):
            query = curves[:, None] * grid.size + np.arange(start, stop)
            row = np.searchsorted(keys, query, side="right")
            row[row <= first_row] = 0  # no event yet: S = 1.0
            block = padded[row]
            lower[start:stop] = np.quantile(block, 0.025, axis=0)
            upper[start:stop] = np.quantile(block, 0.975, axis=0)
            # Columns where every curve agrees must average to that value
            # bit-exactly (zero-noise collapse), which summed means do not give.
            col_mean = block.mean(axis=0)
            constant = block.min(axis=0) == block.max(axis=0)
            col_mean[constant] = block[0, constant]
            mean[start:stop] = col_mean
        # When nearly all curves coincide at a grid point, the interpolated
        # percentiles can exclude the mean; widen so nesting always holds.
        lower = np.minimum(lower, mean)
        upper = np.maximum(upper, mean)
        return KmBand(times=grid, lower=lower, mean=mean, upper=upper)


def _fit_stratum(mask, first, time, event, horizon):
    """Fit one stratum in replicates first, first + 1, ... of one chunk, mask
    being the chunk's (replicate, patient) membership matrix.

    Returns (present, rate, rows): whether any patient fell in the stratum in
    each replicate, its event rate by the horizon (0.0 where absent), and the
    chunk's compact (replicate, time, S) rows, or None when no replicate has
    a patient in the stratum.
    """
    chunk = mask.shape[0]
    present = mask.any(axis=1)
    rep, patient = np.nonzero(mask)
    if rep.size == 0:
        return present, np.zeros(chunk), None
    rep, curve = km_segmented(time[patient], event[patient], rep)
    # S(horizon): the last row at or before the horizon, else 1.0.
    due = np.bincount(rep[curve.times <= horizon], minlength=chunk)
    last = np.searchsorted(rep, np.arange(chunk)) + due
    padded = np.concatenate(([1.0], curve.survival))
    rate = 1.0 - padded[np.where(due > 0, last, 0)]
    return present, rate, (rep + first, curve.times, curve.survival)


def _fit_chunk(first, stop, time, event, order, centers, spread, config):
    """Draw and fit replicates first, ..., stop - 1 on their substreams.

    Returns ({stratum: _fit_stratum's (present, rate, rows)}, the hazard
    ratios of the fits that succeeded in replicate order, the names of the
    failures).
    """
    realized = np.empty((stop - first, time.size))
    for row, r in zip(realized, range(first, stop)):
        draws = make_stream(config.seed, r).generator.normal(loc=centers, scale=spread)
        row[:] = np.clip(draws, *CLAMP_RANGE)[order]
    strata = {label: _fit_stratum(mask, first, time, event, config.horizon)
              for label, mask in _strata_masks(realized, config.band_edges).items()}
    hazard_ratios, failures = [], set()
    for outcome in _cox_fit_rows(time, event, realized):
        if isinstance(outcome, CoxFit):
            hazard_ratios.append(hazard_ratio_per(outcome, HR_DELTA)[0])
        else:
            failures.add(type(outcome).__name__)
    return strata, hazard_ratios, failures


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _send_share(fit, share, sender):
    """A forked child's whole work: send fit(share), or what it raised."""
    try:
        result = fit(share)
    except BaseException as exc:  # the parent re-raises it
        result = exc
    sender.send(result)


def _map_shares(fit, items) -> list:
    """fit over contiguous shares of items, one share per CPU, concatenated
    in item order: this process runs the first share and a forked child
    each other one.  fit(share) returns a list; a child's exception is
    raised here, and no child outlives the call."""
    import multiprocessing

    k = min(_cpu_count(), len(items))
    bounds = [len(items) * i // k for i in range(k + 1)]
    shares = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    children = []
    try:
        for share in shares[1:]:
            # A forked child starts with the cohort and the modules in place
            # (the program starts no threads).  Reached only with a second
            # share, hence where fork exists.
            context = multiprocessing.get_context("fork")
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_send_share, args=(fit, share, sender))
            with sender:
                process.start()
            children.append((process, receiver))
        results = fit(shares[0])
        for process, receiver in children:
            try:
                result = receiver.recv()
            except EOFError:
                process.join()
                raise PropagationError(
                    f"replicate worker exited with code {process.exitcode} "
                    "before sending its results") from None
            if isinstance(result, BaseException):
                raise result
            results += result
        return results
    except BaseException:
        for process, _ in children:
            process.terminate()
        raise
    finally:
        for process, receiver in children:
            process.join()
            receiver.close()


def propagate(cohort, config: PropagationConfig) -> PropagationSummary:
    """Run all replicates on substreams (seed, r) and compile the bands."""
    if int(cohort.event.sum()) == 0:
        raise DegenerateDataError("cohort has no events")
    centers, spread = source_values(cohort, config.source, config.sigmas)
    # Follow-up sorted once; each replicate draws in patient order, then
    # its draws are permuted into time order.
    order = np.argsort(cohort.time, kind="stable")
    time, event = cohort.time[order], cohort.event[order]
    per_chunk = max(1, CHUNK_ELEMENTS // time.size)
    chunks = [(first, min(first + per_chunk, config.replicates))
              for first in range(0, config.replicates, per_chunk)]

    def fit(share):
        return [_fit_chunk(first, stop, time, event, order, centers, spread, config)
                for first, stop in share]

    strata = {label: _StratumCurves(config.replicates) for label in STRATA}
    hazard_ratios, failures = [], set()
    for (first, _), (parts, ratios, names) in zip(chunks, _map_shares(fit, chunks)):
        for label, part in parts.items():
            strata[label].add(first, *part)
        hazard_ratios += ratios
        failures |= names

    if not hazard_ratios:
        raise PropagationError(
            f"all {config.replicates} replicates failed the Cox fit ({', '.join(sorted(failures))})"
        )
    hr_summary = summarize(hazard_ratios, (0.025, 0.975))
    return PropagationSummary(
        source=config.source,
        replicates=config.replicates,
        failed_replicates=config.replicates - len(hazard_ratios),
        event_rates={label: s.summary() for label, s in strata.items()},
        hazard_ratio_mean=hr_summary.mean,
        hazard_ratio_q025=hr_summary.quantiles[0.025],
        hazard_ratio_q975=hr_summary.quantiles[0.975],
        km_bands={label: s.band() for label, s in strata.items()},
        horizon=config.horizon,
    )
