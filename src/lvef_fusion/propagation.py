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
replicate's Kaplan-Meier curve of a chunk, and one ``_cox_fit_rows`` call
fits every replicate's Cox model of the chunk as one batch of Newton
iterations against an event layout that each process builds once per source
(a replicate whose fit fails fails alone).

A chunk's curves go straight into its stratum's ``_BandSummary`` and are not
kept.  The summary's grid has one column per event time of the cohort, which
holds every step of every curve.  It evaluates the curves on the grid in
blocks of about BAND_ELEMENTS cells (two searches per curve bound its steps
in a block; each row starts from the step it carries in and is filled
forward) and keeps, per column, the k smallest and k largest values, which
are all that np.quantile reads at the band's levels, a seen mask, and the
column sums; and one event rate by the horizon per present curve.  The
mean's sums follow a fixed order: each chunk in replicate order, the chunks
of a group (_group_bounds) in chunk order, the groups in group order.  The
results are bit for bit those of one replicate at a time (``normal(loc,
scale)`` draws, ``stratum_km``, ``cox_fit_from_arrays`` and a per-curve band
whose mean is summed in the same chunks and groups); the budgets only bound
memory, which grows with R only by one rate and one hazard ratio per
replicate, the k values per column and the groups' sums (SUM_CELLS).

The groups of chunks are split into one contiguous share per CPU the process
may run on (never more shares than groups).  This process fits the first
share; a plain ``os.fork`` child fits each other one, pickles its hazard
ratios and failures, then each stratum's summary apart, into a pipe and
leaves through ``os._exit``.  The parent merges the shares in order, each
part as it is read, so every number is the same whatever the CPU count or
platform; with one CPU, or where processes cannot be forked, no child is
started.
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
    _safe_exp,
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
# Band columns are evaluated and read in blocks of about BAND_ELEMENTS
# (curve, column) values.
BAND_ELEMENTS = 2**16
# Each group of chunks keeps its own band column sums; the groups' sums
# together hold at most SUM_CELLS values per stratum.
SUM_CELLS = 2**19


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


def _smallest(kept, new, rows):
    """The rows smallest values of each column of kept and new stacked,
    sorted ascending, kept being a previous result.  Once kept holds rows
    values, only the columns that a new value undercuts change, in kept."""
    if kept.shape[0] < rows:
        return np.sort(np.concatenate((kept, new)), axis=0)[:rows]
    columns = np.flatnonzero((new < kept[-1]).any(axis=0))
    part = kept[:, columns]
    if new.shape[0] == 1:
        _insert(part, new[0, columns])
    else:
        part = np.sort(np.concatenate((part, new[:, columns])), axis=0)[:rows]
    kept[:, columns] = part
    return kept


def _insert(kept, value) -> None:
    """Put value into each column of kept, sorted ascending, in place of its
    largest entry where value is smaller, keeping the columns sorted: of a
    column s and its value v, the len(s) smallest are min(s[0], v) and
    min(s[j], max(s[j - 1], v)) for j >= 1."""
    shifted = np.maximum(kept[:-1], value)
    np.minimum(kept[1:], shifted, out=kept[1:])
    np.minimum(kept[0], value, out=kept[0])


def _percentiles(low, high, curves):
    """np.quantile at 0.025 and 0.975 of each column of curves values, given
    the column's smallest values (low) and largest (high), each sorted
    ascending and holding enough rows for both levels.

    Each column is rebuilt in order: its kept smallest, its kept largest,
    and between them the largest kept small value in every other row, so
    np.quantile reads the order statistics it reads among all the values.
    """
    percentiles = np.empty((2, low.shape[1]))
    block = max(1, BAND_ELEMENTS // curves)
    for start in range(0, low.shape[1], block):
        stop = min(start + block, low.shape[1])
        column = np.empty((curves, stop - start))
        column[:] = low[-1, start:stop]
        column[:low.shape[0]] = low[:, start:stop]
        column[curves - high.shape[0]:] = high[:, start:stop]
        np.quantile(column, (0.025, 0.975), axis=0, overwrite_input=True,
                    out=percentiles[:, start:stop])
    return percentiles


def _group_bounds(chunks: int, columns: int) -> list:
    """Chunk bounds of the groups whose band sums are added up apart: one
    group per chunk while their column sums fit in SUM_CELLS values, fewer
    groups of consecutive chunks otherwise.  A function of the chunk and
    grid column counts alone, so of n and R, never of the CPU count."""
    groups = max(1, min(chunks, SUM_CELLS // columns))
    return [chunks * i // groups for i in range(groups + 1)]


class _BandSummary:
    """One stratum's event rates and KM band over some chunks, as numbers
    that merge.

    The grid holds one column per event time of the cohort, a superset of
    any curve's step times.  Per column the summary keeps the k smallest
    present-curve values (low) and the k largest (high, negated), each
    sorted ascending, which is enough for np.quantile at the band's levels
    over up to 40 * (k - 1) curves; whether any curve stepped there (seen);
    and in sums, per group of chunks in group order, the column sums, each
    chunk summed in replicate order and the chunks added in chunk order.  A
    summary that starts at the first group (leading) adds each group it has
    finished into sums[0] at once, which the read's sum over the groups in
    order, from zero, turns into the same bits.  rates[:curves] holds the
    present curves' event rates by the grid column horizon_column, in
    replicate order, among room for one per replicate.
    """

    def __init__(self, columns: int, k: int, horizon_column: int, leading: bool,
                 replicates: int):
        self.k = k
        self.horizon_column = horizon_column
        self.leading = leading
        self.curves = 0
        self.low = np.empty((0, columns))
        self.high = np.empty((0, columns))
        self.seen = np.zeros(columns, dtype=bool)
        self.rates = np.empty(replicates)
        self.sums = []
        self.group = None

    def add(self, present, steps, columns, survival, group) -> None:
        """Take in one chunk's curves: whether each replicate is present,
        its number of curve steps, and the steps' grid columns and S values
        in (replicate, time) order; group numbers the chunk's group."""
        curves = int(np.count_nonzero(present))
        if curves == 0:
            return
        width = self.seen.size
        self.seen[columns] = True
        steps = steps[present]
        # Step i is read as padded[i + 1], padded[0] being S = 1.0 before a
        # curve's first step.  Keys (curve, column) ascend in step order.
        padded = np.concatenate(((1.0,), survival))
        base = np.arange(curves) * width
        keys = np.repeat(base, steps)
        keys += columns
        first = np.cumsum(steps) - steps
        # Each curve's 1-based number of its last step at or before the
        # horizon, 0 before its first (S = 1.0).
        step = np.searchsorted(keys, base + self.horizon_column)
        step[step <= first] = 0
        np.subtract(1.0, padded[step], out=self.rates[self.curves:self.curves + curves])

        if group != self.group:
            if self.leading and len(self.sums) == 2:
                self.sums[0] += self.sums.pop()
            self.sums.append(np.zeros(width))
            self.group = group
        rows = min(self.k, self.curves + curves)
        low, high = self._room(rows)
        block = max(1, BAND_ELEMENTS // curves)
        for start in range(0, width, block):
            stop = min(start + block, width)
            # Each cell (curve, column) reads the number of the curve's last
            # step at or before the column: each row starts from the step
            # carried in from before the block, takes the block's own steps
            # at their columns and is filled forward, step numbers rising
            # along a curve.
            lo = np.searchsorted(keys, base + start)
            hi = np.searchsorted(keys, base + stop)
            cells = np.empty((curves, stop - start), dtype=np.int64)
            cells[:] = np.where(lo > first, lo, 0)[:, None]
            count = hi - lo
            step = np.repeat(lo - (np.cumsum(count) - count), count)
            step += np.arange(step.size)
            cell = columns[step] - start
            cell += np.repeat(np.arange(curves) * (stop - start), count)
            cells.ravel()[cell] = step + 1
            np.maximum.accumulate(cells, axis=1, out=cells)
            values = padded[cells]
            del cells
            # Row by row, so the chunk's sum runs in replicate order whatever
            # the block's shape (numpy sums a lone column pairwise).
            total = np.zeros(stop - start)
            for row in values:
                total += row
            self.sums[-1][start:stop] += total
            self._keep(low, high, start, stop, values, rows)
        self.low, self.high = low, high
        self.curves += curves

    def merge(self, other: _BandSummary) -> None:
        """Take in the summary of the whole groups right after this one's."""
        if other.curves == 0:
            return
        rows = min(self.k, self.curves + other.curves)
        low, high = self._room(rows)
        # In column blocks, so that merging needs no more than a block's
        # room beyond both summaries.
        block = max(1, BAND_ELEMENTS // (2 * self.k))
        for start in range(0, self.seen.size, block):
            stop = min(start + block, self.seen.size)
            self._keep(low, high, start, stop, other.low[:, start:stop], rows,
                       other.high[:, start:stop])
        self.low, self.high = low, high
        self.rates = np.concatenate((self.rates[:self.curves], other.rates[:other.curves]))
        self.curves += other.curves
        self.seen |= other.seen
        self.sums += other.sums

    def _room(self, rows: int) -> tuple:
        """The arrays that will hold rows kept values per side: low and high
        themselves once they hold that many, which then change in place."""
        if self.low.shape[0] == rows:
            return self.low, self.high
        width = self.seen.size
        return np.empty((rows, width)), np.empty((rows, width))

    def _keep(self, low, high, start, stop, values, rows, negated=None) -> None:
        """Keep the rows smallest and largest values of columns start, ...,
        stop - 1 among the kept ones and values, writing them to low and
        high (_room).  negated holds the new values to keep the largest of,
        negated as in high: values, negated in place, unless given."""
        kept = _smallest(self.low[:, start:stop], values, rows)
        if negated is None:
            negated = np.negative(values, out=values)
        negated = _smallest(self.high[:, start:stop], negated, rows)
        if low is not self.low:
            low[:, start:stop], high[:, start:stop] = kept, negated

    def read(self, times: np.ndarray) -> tuple:
        """(the event rates as a SampleSummary, the KmBand on the seen
        columns, times holding each grid column's time), or (None, None)
        when no replicate has a patient in the stratum."""
        if self.curves == 0:
            return None, None
        rates = summarize(self.rates[:self.curves])
        seen = np.flatnonzero(self.seen)
        total = np.zeros(seen.size)
        for sums in self.sums:
            total += sums[seen]
        mean = total / self.curves
        low, high = self.low[:, seen], -self.high[::-1, seen]
        # Columns where every curve agrees must average to that value
        # bit-exactly (zero-noise collapse), which summed means do not give.
        constant = low[0] == high[-1]
        mean[constant] = low[0, constant]
        percentiles = _percentiles(low, high, self.curves)
        # When nearly all curves coincide at a grid point, the interpolated
        # percentiles can exclude the mean; widen so nesting always holds.
        lower = np.minimum(percentiles[0], mean)
        upper = np.maximum(percentiles[1], mean)
        return rates, KmBand(times=times[seen], lower=lower, mean=mean, upper=upper)


def _fit_stratum(mask, rank, event, column, summary, group) -> None:
    """Fit one stratum in every replicate of one chunk, mask being the
    chunk's (replicate, patient) membership matrix, column each time rank's
    grid column, and add the curves to the stratum's summary."""
    chunk, n = mask.shape
    present = mask.any(axis=1)
    # Flat (replicate, patient) indexes, turned into patients in place.
    patient = np.flatnonzero(mask)
    rep = patient // n
    patient -= rep * n
    members = rank[patient], event[patient]
    del patient  # the segmented fit below sets the chunk's memory peak
    rep, curve = km_segmented(*members, rep)
    summary.add(present, np.bincount(rep, minlength=chunk), column[curve.times],
                curve.survival, group)


def _fit_chunk(first, stop, follow_up, layout, order, centers, spread, config, bands, group):
    """Draw and fit replicates first, ..., stop - 1 on their substreams;
    follow_up is (rank, event, column) as _fit_stratum takes them, layout
    their Cox event layout, order the time order of the patients, and bands
    each stratum's summary, which the chunk's curves join under group.

    Returns (each replicate's hazard ratio, NaN where its Cox fit failed,
    and the exceptions the failed fits raised), both in replicate order.
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
    for label, mask in _strata_masks(realized, config.band_edges).items():
        _fit_stratum(mask, *follow_up, bands[label], group)
    outcomes = _cox_fit_rows(layout, realized)
    # hazard_ratio_per's point estimate, without its Wald endpoints: finite
    # or inf for every converged fit, so NaN marks only the failures.
    hazard_ratios = np.array([_safe_exp(-HR_DELTA * o.beta) if isinstance(o, CoxFit)
                              else np.nan for o in outcomes])
    return hazard_ratios, [o for o in outcomes if not isinstance(o, CoxFit)]


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map_shares(fit, items, merge) -> None:
    """fit over contiguous shares of items, one share per CPU: this process
    runs the first share and a forked child each other one.  fit(share)
    returns a list of parts, and merge takes every part of every share in
    item order, each as soon as it arrives, so that no more than one part of
    a child is held here at a time.  A child's exception is raised here, and
    no child outlives the call."""
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
                    # no threads), the child pickles the number of parts of
                    # fit(share) and then each part, or what fit raised, and
                    # skips the parent's exit handlers and buffers.
                    try:
                        for pipe in pipes:
                            pipe.close()
                        try:
                            parts = fit(share)
                            head = len(parts)
                        except BaseException as exc:  # the parent re-raises it
                            parts, head = [], exc
                        pickle.dump(head, sender)
                        for part in parts:
                            pickle.dump(part, sender)
                        sender.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)

        def receive(pid, pipe):
            try:
                return pickle.load(pipe)
            except Exception:  # end of file, or a torn pickle
                pipe.close()  # first, so that a child still writing fails
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pids.remove(pid)
                raise PropagationError(f"replicate worker exited with code {code} "
                                       "before sending its results") from None

        for part in fit(shares[0]):
            merge(part)
        for pid, pipe in zip(pids, pipes):
            head = receive(pid, pipe)
            if isinstance(head, BaseException):
                raise head
            for _ in range(head):
                merge(receive(pid, pipe))
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
    # The band grid: one column per event time; column maps each time rank
    # to its column (a curve steps only at event times).
    is_event = np.zeros(times.size, dtype=bool)
    is_event[rank[event > 0]] = True
    grid = np.flatnonzero(is_event)
    column = np.cumsum(is_event) - 1
    del is_event
    bounds = _group_bounds(len(chunks), grid.size)
    groups = [[(group, *chunk) for chunk in chunks[a:b]]
              for group, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    # np.quantile at 0.025 and 0.975 over m <= R values reads ranks up to
    # floor((m - 1) / 40) + 1 from either end.
    k = (config.replicates - 1) // 40 + 2
    horizon_column = int(np.searchsorted(times[grid], config.horizon, side="right"))

    def fit(share):
        # One Cox event layout serves every chunk of the share; it is freed
        # with the share, before the other shares' results arrive.
        layout = _CoxLayout(rank, event)
        share = [chunk for group in share for chunk in group]
        start, end = share[0][1], share[-1][2]
        bands = {label: _BandSummary(grid.size, k, horizon_column, start == 0, end - start)
                 for label in STRATA}
        hazard_ratios, failures = np.empty(end - start), []
        for group, first, stop in share:
            hazard_ratios[first - start:stop - start], chunk_failures = _fit_chunk(
                first, stop, (rank, event, column), layout, order, centers, spread, config,
                bands, group)
            failures += chunk_failures
        return [(None, (hazard_ratios, failures)), *bands.items()]

    # Each share's parts, in share order: its hazard ratios and failures,
    # then one summary per stratum.
    bands, hazard_ratios, failures = {}, [], []

    def merge(part):
        label, value = part
        if label is None:
            hazard_ratios.append(value[0])
            failures.extend(value[1])
        elif label in bands:
            bands[label].merge(value)
        else:
            bands[label] = value

    _map_shares(fit, groups, merge)
    hazard_ratios = np.concatenate(hazard_ratios)
    hazard_ratios = hazard_ratios[~np.isnan(hazard_ratios)]
    if not hazard_ratios.size:
        if all(type(o) is DegenerateDataError for o in failures):
            # Too few events, or values without spread: a data error, as in cox.
            raise DegenerateDataError(str(failures[0]))
        names = sorted({type(o).__name__ for o in failures})
        raise PropagationError(f"all {config.replicates} replicates failed the Cox fit "
                               f"({', '.join(names)})")
    read = {label: summary.read(times[grid]) for label, summary in bands.items()}
    return PropagationSummary(
        source=config.source,
        replicates=config.replicates,
        failed_replicates=len(failures),
        event_rates={label: rates for label, (rates, _) in read.items()},
        hazard_ratio=summarize(hazard_ratios, (0.025, 0.975)),
        km_bands={label: band for label, (_, band) in read.items()},
        horizon=config.horizon,
    )
