"""Monte-Carlo propagation of measurement uncertainty into survival results.

The three-step procedure: (1) resample every patient's LVEF from the chosen
source's error distribution, (2) rerun the Kaplan-Meier strata and the Cox fit
as if the resampled values were exact, (3) summarize the hazard ratios and
each stratum's event rates as ``SampleSummary``s and its curves as a
percentile ``KmBand``.  Replicate r always runs on substream (seed, r), so
results are bit-reproducible and independent of execution order.

``PropagationConfig`` holds one run's settings.  Its source is one of
SOURCES, or "all" for a run of every source, which ``report`` splits into
one config per source; ``propagate`` runs exactly one source and rejects
"all" (``source_values``).

The stratum rule (low below the lower band edge, mid in the closed band,
high above it) is written once, in ``_strata_masks``: ``stratum_km`` fits one
Kaplan-Meier curve per stratum of its masks, and ``propagate`` applies it to
a whole chunk of replicates.

``propagate`` ranks the time-sorted follow-up once (the fits compare times
only for order and ties) and runs the replicates in chunks of about
CHUNK_ELEMENTS draws.  Each replicate's standard normals, drawn by one
Generator per chunk restarted at the replicate's key, are scaled, shifted and
permuted into time order in its row of the chunk, and the chunk is clipped at
once; each stratum's (replicate, patient) members come from the flat indexes
of its membership mask.  One ``km_segmented`` pass per stratum fits every
replicate's Kaplan-Meier curve of a chunk as per-replicate step counts plus
the steps' (time rank, S), and one ``_cox_fit_rows`` call fits every
replicate's Cox model of the chunk as one batch of Newton iterations against
an event layout that each process builds once per source (a replicate whose
fit fails fails alone).  ``_read_curves`` reads the joined curves of a stratum
through the steps' sorted (curve, rank) keys: the event rates by one binary
search per curve at the horizon's rank, the band on the union of the step
ranks in blocks of about BAND_ELEMENTS cells.  In a block, two searches per
curve bound its steps; each row starts from the step the curve carries in from
before the block, takes the block's step numbers at their columns and is
filled forward, so the read costs about steps + cells and holds no per-step
array beyond the keys.  The results are bit for bit those of one replicate at
a time (``normal(loc, scale)`` draws, ``stratum_km``, ``cox_fit_from_arrays``
and a per-curve band); the budgets only bound memory.

The chunks are split into one contiguous share per CPU the process may run
on (never more shares than chunks).  This process fits the first share; a
plain ``os.fork`` child fits each other one, pickles its chunks' results
into a pipe and leaves through ``os._exit``.  The results are read back in
replicate order and each stratum's parts are concatenated, so every number
is the same whatever the CPU count or platform; with one CPU, or where
processes cannot be forked, no child is started.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InvalidParameterError, PropagationError
from .fusion import LVEF_RANGE, InstrumentSigma, fused_estimates, fused_sigma
from .stochastics import SampleSummary, _integer, _restart_stream, make_stream, summarize
from .survival import (
    CoxFit,
    _CoxLayout,
    _check_horizon,
    _checked,
    _cox_fit_rows,
    _group_starts,
    hazard_ratio_per,
    km_event_rate_at,
    km_from_arrays,
    km_segmented,
)

__all__ = [
    "PropagationConfig",
    "KmBand",
    "PropagationSummary",
    "stratum_km",
    "propagate",
]

SOURCES = ("visual", "simpson", "assimilated")
STRATA = ("low", "mid", "high")
HR_DELTA = 5.0
# Replicates are drawn and fitted in chunks whose (replicate, patient) matrix
# holds about CHUNK_ELEMENTS values, which bounds memory at any cohort size.
CHUNK_ELEMENTS = 2**16
# Band columns are read in blocks of about BAND_ELEMENTS (curve, column) values.
BAND_ELEMENTS = 2**16


@dataclass(frozen=True)
class PropagationConfig:
    """One run's settings.  source is one of SOURCES, or "all" for a run of
    every source (report, propagate_sources); propagate runs one source."""

    source: str
    sigmas: InstrumentSigma
    seed: int = 0
    replicates: int = 1000
    horizon: float = 365.0
    band_edges: tuple[float, float] = (35.0, 50.0)

    def __post_init__(self):
        if self.source not in SOURCES + ("all",):
            raise InvalidParameterError(
                f"source must be one of {SOURCES} or 'all', got {self.source!r}")
        object.__setattr__(self, "seed", _integer("seed", self.seed, uint64=True))
        object.__setattr__(self, "replicates", _integer("replicates", self.replicates))
        if self.replicates < 2:
            raise InvalidParameterError(f"replicates must be >= 2, got {self.replicates}")
        _check_horizon(self.horizon)
        _check_band_edges(self.band_edges)
        object.__setattr__(self, "band_edges", tuple(self.band_edges))

    @property
    def sources(self) -> tuple:
        """The sources the run propagates, in SOURCES order."""
        return SOURCES if self.source == "all" else (self.source,)


def _check_band_edges(band_edges) -> None:
    """Reject band edges that are not two numbers strictly increasing inside (0, 100)."""
    try:
        lo, hi = band_edges
        increasing = 0.0 < lo < hi < 100.0
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"band_edges must be two numbers, got {band_edges!r}") from None
    if not increasing:
        raise InvalidParameterError(
            f"band_edges must be strictly increasing inside (0, 100), got {band_edges!r}"
        )


@dataclass(frozen=True)
class KmBand:
    """Pointwise percentile envelope of replicate survival curves."""

    times: np.ndarray
    lower: np.ndarray
    mean: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class PropagationSummary:
    """One source's replicate statistics: hazard_ratio summarizes the hazard
    ratios per HR_DELTA-point decrease (levels 0.025 and 0.975) of the Cox
    fits that succeeded, failed_replicates counts the others; event_rates and
    km_bands map each of STRATA to its event rates by the horizon summarized
    over the replicates it is present in (n counts them) and to its KmBand,
    or to None when no replicate has a patient in it."""

    source: str
    replicates: int
    failed_replicates: int
    event_rates: dict[str, SampleSummary | None]
    hazard_ratio: SampleSummary
    km_bands: dict[str, KmBand | None]
    horizon: float


def _strata_masks(values, band_edges) -> dict:
    """{stratum: membership mask} over STRATA: low below the lower edge, mid
    in the closed band, high above it (or NaN).  The one statement of the
    stratum rule; stratum_km and propagate both read it."""
    lo, hi = band_edges
    low = values < lo
    mid = ~low & (values <= hi)
    return {"low": low, "mid": mid, "high": ~(low | mid)}


def stratum_km(values, time, event, band_edges, horizon) -> dict:
    """Stratify by values, then fit each stratum's Kaplan-Meier curve.

    Returns {stratum: (patients, KmCurve, event rate by horizon)} over STRATA,
    with None for a stratum no value falls in.  The band edges are checked
    as PropagationConfig checks them, and the follow-up as km_from_arrays
    checks it, so no records at all is an error, not three empty strata.
    """
    _check_band_edges(band_edges)
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
    if source == "assimilated":
        return fused_estimates(cohort, sigmas), fused_sigma(sigmas)
    raise InvalidParameterError(f"one source of {SOURCES} is needed, got {source!r}")


def _read_curves(parts: list, times: np.ndarray, horizon_rank) -> tuple:
    """One stratum's event rates by the horizon and its KmBand, read from its
    replicate curves through one set of sorted step keys.

    parts holds the chunks' (present, steps, ranks, survival) parts
    (_fit_stratum) in replicate order, a rank indexing times, and is emptied
    so that each part is released once it is joined; horizon_rank is the
    rank of the last time at or before the horizon, -1 before them all.
    Returns (the present replicates' event rates as a SampleSummary, their
    pointwise percentile envelope on the union of their step times), or
    (None, None) when no replicate has a patient in the stratum.
    """
    present, steps, ranks, survival = zip(*parts)
    parts.clear()
    present = np.concatenate(present)
    curves = int(np.count_nonzero(present))
    if curves == 0:
        return None, None
    # One steps-long array at a time.  Step i is read as padded[i + 1],
    # padded[0] being S = 1.0 before a curve's first step.
    padded = np.concatenate(((1.0,), *survival))
    del survival
    ranks = np.concatenate(ranks)
    # The grid is the union of the step ranks; column[rank] counts the grid
    # ranks at or before rank, the 1-based grid column of a step's rank.
    column = np.bincount(ranks, minlength=times.size)
    grid = np.flatnonzero(column)
    np.cumsum(column > 0, out=column)
    steps = np.concatenate(steps)
    # Key (curve, rank), ascending in step order: the steps run in
    # (replicate, time) order and each is its curve's only one at its rank.
    keys = np.repeat(np.arange(steps.size) * times.size, steps)
    keys += ranks
    del ranks
    base = np.flatnonzero(present) * times.size
    first = (np.cumsum(steps) - steps)[present]

    # A curve's 1-based number of its last step at or before the horizon, 0
    # before its first (S = 1.0).
    step = np.searchsorted(keys, base + horizon_rank, side="right")
    step[step <= first] = 0
    rates = summarize(1.0 - padded[step])
    percentiles = np.empty((2, grid.size))
    mean = np.empty(grid.size)
    # A one-column block would average its column by pairwise summation,
    # unlike the row-by-row sums of wider blocks: a one-column tail joins
    # the block before it.
    edges = list(range(0, grid.size, max(2, BAND_ELEMENTS // curves))) + [grid.size]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    for start, stop in zip(edges[:-1], edges[1:]):
        # Each cell (curve, column) reads the number of the curve's last step
        # at or before the column: each row starts from the step carried in
        # from before the block, takes the block's own steps at their columns
        # and is filled forward, step numbers rising along a curve.
        lo = np.searchsorted(keys, base + grid[start])
        hi = np.searchsorted(keys, base + grid[stop - 1], side="right")
        cells = np.empty((curves, stop - start), dtype=np.int64)
        cells[:] = np.where(lo > first, lo, 0)[:, None]
        count = hi - lo
        step = np.repeat(lo - (np.cumsum(count) - count), count)
        step += np.arange(step.size)
        cell = column[keys[step] % times.size] - 1 - start
        cell += np.repeat(np.arange(curves) * (stop - start), count)
        cells.ravel()[cell] = step + 1
        np.maximum.accumulate(cells, axis=1, out=cells)
        block = padded[cells]
        del cells
        # Columns where every curve agrees must average to that value
        # bit-exactly (zero-noise collapse), which summed means do not give.
        col_mean = block.mean(axis=0)
        constant = block.min(axis=0) == block.max(axis=0)
        col_mean[constant] = block[0, constant]
        mean[start:stop] = col_mean
        # The percentiles are read last: they partition the block in place.
        np.quantile(block, (0.025, 0.975), axis=0, overwrite_input=True,
                    out=percentiles[:, start:stop])
    # When nearly all curves coincide at a grid point, the interpolated
    # percentiles can exclude the mean; widen so nesting always holds.
    lower = np.minimum(percentiles[0], mean)
    upper = np.maximum(percentiles[1], mean)
    return rates, KmBand(times=times[grid], lower=lower, mean=mean, upper=upper)


def _fit_stratum(mask, rank, event):
    """Fit one stratum in every replicate of one chunk, mask being the
    chunk's (replicate, patient) membership matrix.

    Returns (present, steps, ranks, survival): whether any patient fell in
    the stratum in each replicate, each replicate's number of curve steps,
    and the steps' time ranks and S values in (replicate, time) order.
    """
    chunk, n = mask.shape
    present = mask.any(axis=1)
    # Flat (replicate, patient) indexes, turned into patients in place.
    patient = np.flatnonzero(mask)
    rep = patient // n
    patient -= rep * n
    members = rank[patient], event[patient]
    del patient  # the segmented fit below sets the chunk's memory peak
    rep, curve = km_segmented(*members, rep)
    return present, np.bincount(rep, minlength=chunk), curve.times, curve.survival


def _fit_chunk(first, stop, follow_up, layout, order, centers, spread, config):
    """Draw and fit replicates first, ..., stop - 1 on their substreams;
    follow_up is (rank, event) as _fit_stratum takes them, layout their Cox
    event layout and order the time order of the patients.

    Returns ({stratum: _fit_stratum's part}, each replicate's outcome in
    replicate order: its hazard ratio, or the exception its Cox fit raised).
    """
    # Generator.normal(loc, scale) draws loc + scale * z from the stream's
    # standard normals z, one rounding per operation: the same numbers, made
    # in place.
    realized = np.empty((stop - first, order.size))
    stream = make_stream(config.seed, first)
    for row, r in zip(realized, range(first, stop)):
        _restart_stream(stream, config.seed, r)
        stream.standard_normal(out=row)
        row *= spread
        row += centers
        row[:] = row[order]
    # Every draw is clipped into the reportable LVEF range.
    np.clip(realized, *LVEF_RANGE, out=realized)
    strata = {label: _fit_stratum(mask, *follow_up)
              for label, mask in _strata_masks(realized, config.band_edges).items()}
    return strata, [hazard_ratio_per(o, HR_DELTA)[0] if isinstance(o, CoxFit) else o
                    for o in _cox_fit_rows(layout, realized)]


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map_shares(fit, items) -> list:
    """fit over contiguous shares of items, one share per CPU, concatenated
    in item order: this process runs the first share and a forked child
    each other one.  fit(share) returns a list; a child's exception is
    raised here, and no child outlives the call."""
    k = min(_cpu_count(), len(items))
    bounds = [len(items) * i // k for i in range(k + 1)]
    shares = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    pids, pipes = [], []  # of the forked shares; pipes holds the read ends
    try:
        for share in shares[1:]:  # only where fork exists (_cpu_count)
            reader, writer = os.pipe()
            pipes.append(open(reader, "rb"))
            with open(writer, "wb") as sender:
                pid = os.fork()
                if pid == 0:
                    # With the cohort and modules in place (the program starts
                    # no threads), the child pickles fit(share), or what it
                    # raised, and skips the parent's exit handlers and buffers.
                    try:
                        for pipe in pipes:
                            pipe.close()
                        try:
                            result = fit(share)
                        except BaseException as exc:  # the parent re-raises it
                            result = exc
                        pickle.dump(result, sender)
                        sender.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)
        results = fit(shares[0])
        for pid, pipe in zip(pids, pipes):
            try:
                result = pickle.load(pipe)
            except Exception:  # end of file, or a torn pickle
                pipe.close()  # first, so that a child still writing fails
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pids.remove(pid)
                raise PropagationError(f"replicate worker exited with code {code} "
                                       "before sending its results") from None
            if isinstance(result, BaseException):
                raise result
            results += result
        return results
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


def propagate(cohort, config: PropagationConfig) -> PropagationSummary:
    """Run all replicates of config.source on substreams (seed, r) and
    compile the bands."""
    if int(cohort.event.sum()) == 0:
        raise DegenerateDataError("cohort has no events")
    centers, spread = source_values(cohort, config.source, config.sigmas)
    # Follow-up sorted once and ranked: times holds the distinct times and
    # rank each patient's int32 index into them.  Each replicate draws in
    # patient order, then its draws are permuted into time order.
    order = np.argsort(cohort.time, kind="stable")
    starts = _group_starts(cohort.time[order])
    times = cohort.time[order[starts]]
    rank = np.repeat(np.arange(starts.size, dtype=np.int32), np.diff(starts, append=order.size))
    del starts
    event = cohort.event[order]
    per_chunk = max(1, CHUNK_ELEMENTS // order.size)
    chunks = [(first, min(first + per_chunk, config.replicates))
              for first in range(0, config.replicates, per_chunk)]

    def fit(share):
        # One Cox event layout serves every chunk of the share; it is freed
        # with the share, before the other shares' results arrive.
        layout = _CoxLayout(rank, event)
        return [_fit_chunk(first, stop, (rank, event), layout, order, centers, spread, config)
                for first, stop in share]

    results = _map_shares(fit, chunks)
    outcomes = [outcome for _, chunk_outcomes in results for outcome in chunk_outcomes]
    hazard_ratios = [o for o in outcomes if not isinstance(o, Exception)]
    if not hazard_ratios:
        if all(type(o) is DegenerateDataError for o in outcomes):
            # Too few events, or values without spread: a data error, as in cox.
            raise DegenerateDataError(str(outcomes[0]))
        failures = sorted({type(o).__name__ for o in outcomes})
        raise PropagationError(f"all {config.replicates} replicates failed the Cox fit "
                               f"({', '.join(failures)})")
    # Each stratum's chunk parts, in replicate order.  The chunk results are
    # let go before any stratum is read, so that each reading releases the
    # parts it joins.
    strata = {label: [parts[label] for parts, _ in results] for label in STRATA}
    del results
    horizon_rank = np.searchsorted(times, config.horizon, side="right") - 1
    read = {label: _read_curves(parts, times, horizon_rank)
            for label, parts in strata.items()}
    return PropagationSummary(
        source=config.source,
        replicates=config.replicates,
        failed_replicates=config.replicates - len(hazard_ratios),
        event_rates={label: rates for label, (rates, _) in read.items()},
        hazard_ratio=summarize(hazard_ratios, (0.025, 0.975)),
        km_bands={label: band for label, (_, band) in read.items()},
        horizon=config.horizon,
    )
