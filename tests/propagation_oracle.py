"""The per-replicate propagation loop, kept as the oracle of the chunked engine.

Replicate r draws every patient's LVEF from its own stream make_stream(seed, r),
fits the strata's Kaplan-Meier curves with stratum_km and the Cox model with
cox_fit_from_arrays; the bands read every curve at every grid time with its
own searchsorted, and sum the curves for the mean in the engine's chunks and
groups (chunk_groups).  When every replicate's Cox fit fails, and each fails
with a DegenerateDataError, the first replicate's error is raised; any other
mix of failures raises a PropagationError naming them.  ``propagate`` here
must equal ``lvef_fusion.propagation.propagate`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lvef_fusion import propagation
from lvef_fusion.errors import (
    DegenerateDataError,
    NonConvergenceError,
    PropagationError,
    SeparationError,
)
from lvef_fusion.fusion import LVEF_RANGE
from lvef_fusion.propagation import (
    HR_DELTA,
    STRATA,
    KmBand,
    PropagationSummary,
    source_values,
    stratum_km,
)
from lvef_fusion.stochastics import make_stream, summarize
from lvef_fusion.survival import cox_fit_from_arrays, hazard_ratio_per


@dataclass(frozen=True)
class Replicate:
    """One resampled analysis.  Absent strata and failed fits stay None."""

    replicate_index: int
    event_rate_by_stratum: dict
    km_curves: dict
    hazard_ratio: float | None
    hr_failure: Exception | None


def realize(cohort, config, r: int) -> np.ndarray:
    """Replicate r's clamped LVEF draw, in patient order."""
    centers, spread = source_values(cohort, config.source, config.sigmas)
    draws = make_stream(config.seed, r).normal(loc=centers, scale=spread)
    return np.clip(draws, *LVEF_RANGE)


def run_replicate(cohort, config, r: int) -> Replicate:
    """Resample, stratify, estimate: one full analysis under draw r."""
    if int(cohort.event.sum()) == 0:
        raise DegenerateDataError("cohort has no events")
    order = np.argsort(cohort.time, kind="stable")
    time, event = cohort.time[order], cohort.event[order]
    realized = realize(cohort, config, r)[order]
    strata = stratum_km(realized, time, event, config.band_edges, config.horizon)

    hazard_ratio, failure = None, None
    try:
        fit = cox_fit_from_arrays(time, event, realized)
        hazard_ratio, _, _ = hazard_ratio_per(fit, HR_DELTA)
    except (SeparationError, NonConvergenceError, DegenerateDataError) as exc:
        failure = exc
    return Replicate(
        replicate_index=r,
        event_rate_by_stratum={k: None if s is None else s[2] for k, s in strata.items()},
        km_curves={k: None if s is None else s[1] for k, s in strata.items()},
        hazard_ratio=hazard_ratio,
        hr_failure=failure,
    )


def km_band(chunks, groups=None) -> KmBand | None:
    """Pointwise percentile envelope of KmCurves, read curve by curve.

    chunks lists each chunk's curves in replicate order; groups holds the
    chunk bounds of the groups, one chunk each by default.  The mean adds
    each chunk's curves in order, each group's chunk sums in order, then
    the group sums in order, as the chunked engine does.
    """
    curves = [curve for chunk in chunks for curve in chunk]
    if not curves:
        return None
    if groups is None:
        groups = range(len(chunks) + 1)
    grid = np.unique(np.concatenate([c.times for c in curves]))
    if grid.size == 0:
        return KmBand(times=grid, lower=grid.copy(), mean=grid.copy(), upper=grid.copy())

    def values(curve):
        return np.r_[1.0, curve.survival][np.searchsorted(curve.times, grid, side="right")]

    total = np.zeros(grid.size)
    for a, b in zip(groups[:-1], groups[1:]):
        group = np.zeros(grid.size)
        for chunk in chunks[a:b]:
            chunk_sum = np.zeros(grid.size)
            for curve in chunk:
                chunk_sum += values(curve)
            group += chunk_sum
        total += group
    mean = total / len(curves)
    block = np.array([values(curve) for curve in curves])
    lower = np.quantile(block, 0.025, axis=0)
    upper = np.quantile(block, 0.975, axis=0)
    constant = block.min(axis=0) == block.max(axis=0)
    mean[constant] = block[0, constant]
    lower = np.minimum(lower, mean)
    upper = np.maximum(upper, mean)
    return KmBand(times=grid, lower=lower, mean=mean, upper=upper)


def chunk_groups(cohort, config) -> tuple:
    """(chunk bounds in replicates, group bounds in chunks) of the chunked
    engine: chunks of max(1, CHUNK_ELEMENTS // n) replicates, and one group
    per chunk unless the groups' column sums, one per distinct event time,
    would exceed SUM_CELLS, then as many equal-as-can-be groups as fit."""
    per_chunk = max(1, propagation.CHUNK_ELEMENTS // len(cohort.time))
    chunks = list(range(0, config.replicates, per_chunk)) + [config.replicates]
    count = len(chunks) - 1
    columns = np.unique(cohort.time[cohort.event > 0]).size
    groups = max(1, min(count, propagation.SUM_CELLS // columns))
    return chunks, [count * i // groups for i in range(groups + 1)]


def propagate(cohort, config) -> PropagationSummary:
    """All replicates one at a time, then the summaries and bands."""
    results = [run_replicate(cohort, config, r) for r in range(config.replicates)]

    hazard_ratios = np.array([r.hazard_ratio for r in results if r.hazard_ratio is not None])
    if hazard_ratios.size == 0:
        failures = [r.hr_failure for r in results]
        if all(type(f) is DegenerateDataError for f in failures):
            raise DegenerateDataError(str(failures[0]))
        reasons = sorted({type(f).__name__ for f in failures})
        raise PropagationError(
            f"all {config.replicates} replicates failed the Cox fit ({', '.join(reasons)})"
        )

    chunks, groups = chunk_groups(cohort, config)
    event_rates, km_bands = {}, {}
    for label in STRATA:
        present = [r.event_rate_by_stratum[label] for r in results
                   if r.event_rate_by_stratum[label] is not None]
        event_rates[label] = summarize(present, (0.025, 0.5, 0.975)) if present else None
        km_bands[label] = km_band([[r.km_curves[label] for r in results[a:b]
                                    if r.km_curves[label] is not None]
                                   for a, b in zip(chunks[:-1], chunks[1:])], groups)

    return PropagationSummary(
        source=config.source,
        replicates=config.replicates,
        failed_replicates=config.replicates - hazard_ratios.size,
        event_rates=event_rates,
        hazard_ratio=summarize(hazard_ratios, (0.025, 0.975)),
        km_bands=km_bands,
        horizon=config.horizon,
    )
