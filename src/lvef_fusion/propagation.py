"""Monte-Carlo propagation of measurement uncertainty into survival results.

The three-step procedure: (1) resample every patient's LVEF from the chosen
source's error distribution, (2) rerun the Kaplan-Meier strata and the Cox fit
as if the resampled values were exact, (3) compile the replicate statistics
into percentile bands.  Replicate r always runs on substream (seed, r), so
results are bit-reproducible and independent of execution order.

Every entry point takes the cohort as a ``Cohort`` and, for the assimilated
source, the per-patient theta array from ``fused_estimates`` (``fused``, which
may be None for the visual and Simpson's sources).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDataError,
    InvalidParameterError,
    NonConvergenceError,
    PropagationError,
    SeparationError,
)
from .fusion import InstrumentSigma, fused_sigma
from .stochastics import RngStream, make_stream, summarize
from .survival import KmCurve, cox_fit_from_arrays, hazard_ratio_per, km_event_rate_at, km_from_arrays

__all__ = [
    "SOURCES",
    "STRATA",
    "PropagationConfig",
    "ReplicateResult",
    "StratumSummary",
    "KmBand",
    "PropagationSummary",
    "source_values",
    "realize_lvef",
    "stratify",
    "run_replicate",
    "propagate",
]

SOURCES = ("visual", "simpson", "assimilated")
STRATA = ("low", "mid", "high")
HR_DELTA = 5.0


@dataclass(frozen=True)
class PropagationConfig:
    source: str
    sigmas: InstrumentSigma
    seed: int
    replicates: int = 1000
    horizon: float = 365.0
    band_edges: tuple[float, float] = (35.0, 50.0)
    clamp_range: tuple[float, float] = (1.0, 99.0)

    def __post_init__(self):
        if self.source not in SOURCES:
            raise InvalidParameterError(f"source must be one of {SOURCES}, got {self.source!r}")
        if self.replicates < 2:
            raise InvalidParameterError(f"replicates must be >= 2, got {self.replicates}")
        if not self.horizon > 0:
            raise InvalidParameterError(f"horizon must be > 0, got {self.horizon!r}")
        lo, hi = self.band_edges
        if not (0.0 < lo < hi < 100.0):
            raise InvalidParameterError(
                f"band_edges must be strictly increasing inside (0, 100), got {self.band_edges!r}"
            )
        clo, chi = self.clamp_range
        if not clo < chi:
            raise InvalidParameterError(f"clamp_range must be increasing, got {self.clamp_range!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class ReplicateResult:
    """One resampled analysis.  Absent strata and failed fits stay None."""

    event_rate_by_stratum: dict
    hazard_ratio: float | None
    replicate_index: int
    hr_failure: str | None = None
    km_curves: dict = field(default_factory=dict, repr=False)


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


def stratify(lvef_values, band_edges=(35.0, 50.0)) -> np.ndarray:
    """Label each value low (< lower edge), mid (closed band), or high."""
    values = np.asarray(lvef_values, dtype=float)
    lo, hi = band_edges
    return np.where(values < lo, "low", np.where(values <= hi, "mid", "high"))


def source_values(cohort, fused, source: str, sigmas: InstrumentSigma):
    """(centers, spread) of one source: a reading column with its instrument
    sigma, or the fused theta (from fused_estimates) with fused_sigma."""
    if fused is not None and len(fused) != len(cohort):
        raise InvalidParameterError(
            f"fused length {len(fused)} does not match cohort size {len(cohort)}"
        )
    if source == "visual":
        return cohort.visual, sigmas.visual_sigma
    if source == "simpson":
        return cohort.simpson, sigmas.simpson_sigma
    if fused is None:
        raise InvalidParameterError("assimilated source requires fused estimates")
    return np.asarray(fused, dtype=float), fused_sigma(sigmas)


def realize_lvef(cohort, fused, config: PropagationConfig, stream: RngStream) -> np.ndarray:
    """One resampled LVEF per patient from the configured source, clamped."""
    return _realize(*source_values(cohort, fused, config.source, config.sigmas), config, stream)


def _realize(centers, spread, config, stream):
    draws = stream.generator.normal(loc=centers, scale=spread)
    return np.clip(draws, *config.clamp_range)


def _time_sorted(cohort):
    """(order, time, event) with the cohort's follow-up sorted once by time.

    order maps time order to patient order: replicates draw per patient, so
    the Philox draws stay those of patient order, and are then permuted by it.
    A cohort without events raises DegenerateDataError.
    """
    if int(cohort.event.sum()) == 0:
        raise DegenerateDataError("cohort has no events")
    order = np.argsort(cohort.time, kind="stable")
    return order, cohort.time[order], cohort.event[order]


def _replicate_from_arrays(centers, spread, order, time, event, config, stream) -> ReplicateResult:
    """One replicate on follow-up arrays already sorted by time (see _time_sorted)."""
    realized = _realize(centers, spread, config, stream)[order]
    labels = stratify(realized, config.band_edges)

    rates, curves = {}, {}
    for label in STRATA:
        mask = labels == label
        if not mask.any():
            rates[label] = None
            curves[label] = None
            continue
        curve = km_from_arrays(time[mask], event[mask])
        rates[label] = km_event_rate_at(curve, config.horizon)
        curves[label] = curve

    hazard_ratio, failure = None, None
    try:
        fit = cox_fit_from_arrays(time, event, realized)
        hazard_ratio, _, _ = hazard_ratio_per(fit, HR_DELTA)
    except (SeparationError, NonConvergenceError, DegenerateDataError) as exc:
        failure = type(exc).__name__
    return ReplicateResult(
        event_rate_by_stratum=rates,
        hazard_ratio=hazard_ratio,
        replicate_index=stream.stream_index,
        hr_failure=failure,
        km_curves=curves,
    )


def run_replicate(cohort, fused, config: PropagationConfig, stream: RngStream) -> ReplicateResult:
    """Resample, stratify, estimate: one full analysis under one noise draw."""
    centers, spread = source_values(cohort, fused, config.source, config.sigmas)
    return _replicate_from_arrays(centers, spread, *_time_sorted(cohort), config, stream)


def _km_band(curves: list[KmCurve]) -> KmBand | None:
    if not curves:
        return None
    grid = np.unique(np.concatenate([c.times for c in curves]))
    if grid.size == 0:
        return KmBand(times=grid, lower=grid.copy(), mean=grid.copy(), upper=grid.copy())
    n = len(curves)
    lower = np.empty(grid.size)
    mean = np.empty(grid.size)
    upper = np.empty(grid.size)
    chunk = max(1, 2_000_000 // n)
    padded = [(c.times, np.r_[1.0, c.survival]) for c in curves]
    for start in range(0, grid.size, chunk):
        cols = grid[start:start + chunk]
        block = np.empty((n, cols.size))
        for i, (times, surv) in enumerate(padded):
            block[i] = surv[np.searchsorted(times, cols, side="right")]
        lower[start:start + chunk] = np.quantile(block, 0.025, axis=0)
        upper[start:start + chunk] = np.quantile(block, 0.975, axis=0)
        # Columns where every curve agrees must average to that value
        # bit-exactly (zero-noise collapse), which summed means do not give.
        col_mean = block.mean(axis=0)
        constant = block.min(axis=0) == block.max(axis=0)
        col_mean[constant] = block[0, constant]
        mean[start:start + chunk] = col_mean
    # When nearly all curves coincide at a grid point, the interpolated
    # percentiles can exclude the mean; widen so nesting always holds.
    lower = np.minimum(lower, mean)
    upper = np.maximum(upper, mean)
    return KmBand(times=grid, lower=lower, mean=mean, upper=upper)


def propagate(cohort, fused, config: PropagationConfig) -> PropagationSummary:
    """Run all replicates on substreams (seed, r) and compile the bands."""
    centers, spread = source_values(cohort, fused, config.source, config.sigmas)
    order, time, event = _time_sorted(cohort)
    results = [
        _replicate_from_arrays(centers, spread, order, time, event, config,
                               make_stream(config.seed, r))
        for r in range(config.replicates)
    ]

    hazard_ratios = np.array([r.hazard_ratio for r in results if r.hazard_ratio is not None])
    failed = config.replicates - hazard_ratios.size
    if hazard_ratios.size == 0:
        reasons = sorted({r.hr_failure for r in results if r.hr_failure})
        raise PropagationError(
            f"all {config.replicates} replicates failed the Cox fit ({', '.join(reasons)})"
        )
    hr_summary = summarize(hazard_ratios, (0.025, 0.975))

    event_rates, km_bands = {}, {}
    for label in STRATA:
        present = [r.event_rate_by_stratum[label] for r in results
                   if r.event_rate_by_stratum[label] is not None]
        if present:
            s = summarize(present, (0.025, 0.5, 0.975))
            event_rates[label] = StratumSummary(
                mean_event_rate=s.mean, quantiles=s.quantiles, n_present=len(present)
            )
        else:
            event_rates[label] = StratumSummary(mean_event_rate=None, quantiles=None, n_present=0)
        km_bands[label] = _km_band([r.km_curves[label] for r in results
                                    if r.km_curves[label] is not None])

    return PropagationSummary(
        source=config.source,
        replicates=config.replicates,
        failed_replicates=failed,
        event_rates=event_rates,
        hazard_ratio_mean=hr_summary.mean,
        hazard_ratio_q025=hr_summary.quantiles[0.025],
        hazard_ratio_q975=hr_summary.quantiles[0.975],
        km_bands=km_bands,
        horizon=config.horizon,
    )
