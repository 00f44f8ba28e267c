"""Analysis report assembly and artifact serialization.

The report JSON is deterministic for a fixed cohort, configuration, and seed:
keys are sorted, floats are emitted at full double precision, and the only
run-dependent field is metadata.generated_at.  CSV artifacts round to 4
decimal places.  The band CSV checks each band's nesting whole with numpy,
then spells each (source, stratum)'s columns with the cohort writers' kernel
(``cohort._fmt_column`` and ``cohort._csv_lines``), WRITE_ROWS rows per write,
in the bytes csv.writer gave.

The sections other artifacts share are built here once: the metadata block
(artifact_metadata), the sigma echo (sigma_echo), the calibration section
(calibration_section) and the per-source propagation (propagate_sources).
The CLI commands call these, so their artifacts match the report's.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .calibration import CalibrationConfig, paired_calibration
from .cohort import _csv_lines, _fmt_column, _open_destination
from .errors import InvalidParameterError, InvalidStateError
from .fusion import (
    InstrumentSigma,
    fused_estimates,
    fused_sigma,
    precision_ratio,
    relative_reduction,
    total_variation,
)
from .propagation import (
    CLAMP_RANGE,
    HR_DELTA,
    SOURCES,
    PropagationConfig,
    PropagationSummary,
    propagate,
)
from .stochastics import (SIMPSON_STREAM_INDEX, VISUAL_STREAM_INDEX, SampleSummary,
                          make_stream, summarize)
from .survival import CoxFit, hazard_ratio_per

__all__ = [
    "ReportOptions",
    "run_report",
    "render_report_json",
    "write_report_json",
    "write_km_band_csv",
]

TOOL_NAME = "lvef-fusion"
# The one version literal: the package's __version__ and its build metadata
# (pyproject.toml) both read it from here.
TOOL_VERSION = "0.1.0"

# Slack for re-checking band nesting at write time; replicate means can sit
# a few ulps outside the percentile envelope when all replicates agree.
_NESTING_SLACK = 1e-9
# Band rows per write.  A block's arrays and text live until it is written,
# and after propagation they can set a report's peak RSS: the benchmark's
# 40k-patient report peaked about 0.25 MB higher with 2^10 rows than with
# 2^9, which writes 51k band rows in 31 ms against 21 ms.
WRITE_ROWS = 1 << 9


@dataclass(frozen=True)
class ReportOptions:
    """Everything the full pipeline needs beyond the cohort itself."""

    sigmas: InstrumentSigma
    seed: int = 0
    replicates: int = PropagationConfig.replicates
    horizon: float = PropagationConfig.horizon
    band_edges: tuple = PropagationConfig.band_edges
    sources: tuple = SOURCES
    calibration: CalibrationConfig = CalibrationConfig()

    def __post_init__(self):
        unknown = [s for s in self.sources if s not in SOURCES]
        if unknown:
            raise InvalidParameterError(f"unknown sources {unknown}; expected subset of {SOURCES}")
        if not self.sources:
            raise InvalidParameterError("at least one source is required")
        self.propagation_config(self.sources[0])  # checks the run settings up front

    def propagation_config(self, source: str) -> PropagationConfig:
        return PropagationConfig(
            source=source,
            sigmas=self.sigmas,
            seed=self.seed,
            replicates=self.replicates,
            horizon=self.horizon,
            band_edges=tuple(self.band_edges),
        )


def summary_to_dict(summary: SampleSummary) -> dict:
    return {
        "mean": float(summary.mean),
        "sd": float(summary.sd),
        "n": int(summary.n),
        "quantiles": {str(level): float(v) for level, v in summary.quantiles.items()},
    }


def posterior_to_dict(posterior) -> dict:
    """Parameter and predictive summaries plus the sampler's acceptance rate."""
    return {
        "acceptance_rate": float(posterior.acceptance_rate),
        "parameter": summary_to_dict(summarize(posterior.parameter_draws)),
        "predictive": summary_to_dict(posterior.summary),
    }


def _stratum_to_dict(stratum) -> dict:
    if stratum.n_present == 0:
        return {"present": False, "n_present": 0}
    return {
        "present": True,
        "n_present": int(stratum.n_present),
        "mean_event_rate": float(stratum.mean_event_rate),
        "quantiles": {str(level): float(v) for level, v in stratum.quantiles.items()},
    }


def propagation_to_dict(summary: PropagationSummary) -> dict:
    return {
        "source": summary.source,
        "replicates": int(summary.replicates),
        "failed_replicates": int(summary.failed_replicates),
        "horizon_days": float(summary.horizon),
        "hazard_ratio": {
            "per_lvef_decrease": HR_DELTA,
            "mean": float(summary.hazard_ratio_mean),
            "q0.025": float(summary.hazard_ratio_q025),
            "q0.975": float(summary.hazard_ratio_q975),
            "band_width": float(summary.hazard_ratio_q975 - summary.hazard_ratio_q025),
        },
        "event_rates": {label: _stratum_to_dict(s) for label, s in summary.event_rates.items()},
        "km_band_points": {
            label: (0 if band is None else int(band.times.size))
            for label, band in summary.km_bands.items()
        },
    }


def cox_fit_to_dict(fit: CoxFit, delta: float = HR_DELTA) -> dict:
    """Serializable fit summary; non-finite interval endpoints become null."""
    out = {
        "beta": float(fit.beta),
        "standard_error": _finite_or_none(fit.standard_error),
        "iterations": int(fit.iterations),
        "converged": bool(fit.converged),
        "log_partial_likelihood": float(fit.log_partial_likelihood),
    }
    if fit.converged:
        estimate, lower, upper = hazard_ratio_per(fit, delta)
        out["hazard_ratio"] = {
            "per_lvef_decrease": float(delta),
            "estimate": _finite_or_none(estimate),
            "wald_lower": _finite_or_none(lower),
            "wald_upper": _finite_or_none(upper),
        }
    return out


def _finite_or_none(value: float):
    value = float(value)
    return value if math.isfinite(value) else None


def config_hash(config: dict) -> str:
    """Stable sha256 over the canonical JSON encoding of the configuration."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def artifact_metadata(seed=None, config=None) -> dict:
    """The metadata block every JSON artifact carries: tool, version and
    generation time, plus the seed when there is one and the hash of the
    config echo when there is one."""
    out = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if seed is not None:
        out["seed"] = int(seed)
    if config is not None:
        out["config_hash"] = config_hash(config)
    return out


def sigma_echo(sigmas: InstrumentSigma) -> dict:
    """The fusion mode and both instrument sigmas, as every artifact echoes them."""
    return {
        "mode": sigmas.mode,
        "sigma_visual": float(sigmas.visual_sigma),
        "sigma_simpson": float(sigmas.simpson_sigma),
    }


def _config_echo(options: ReportOptions, calibration: CalibrationConfig | None) -> dict:
    echo = {
        **sigma_echo(options.sigmas),
        "seed": int(options.seed),
        "replicates": int(options.replicates),
        "horizon_days": float(options.horizon),
        "band_edges": [float(v) for v in options.band_edges],
        "sources": list(options.sources),
        "clamp_range": [float(v) for v in CLAMP_RANGE],
    }
    if calibration is not None:
        echo["calibration"] = calibration_echo(calibration)
    return echo


def calibration_echo(calibration: CalibrationConfig) -> dict:
    """Every CalibrationConfig setting, plus the stream indices.  The
    instrument sigmas the calibration reads are in sigma_echo."""
    echo = {f.name: getattr(calibration, f.name) for f in fields(calibration)}
    echo["visual_stream_index"] = VISUAL_STREAM_INDEX
    echo["simpson_stream_index"] = SIMPSON_STREAM_INDEX
    return echo


def calibration_section(sigmas: InstrumentSigma, seed: int,
                        calibration: CalibrationConfig) -> dict:
    """Both instruments' error posteriors and the reduction R, calibrated on
    the (seed, VISUAL/SIMPSON_STREAM_INDEX) streams: each instrument from its
    own sigma in `sigmas`, under the settings in `calibration`."""
    visual, simpson, reduction = paired_calibration(
        sigmas,
        make_stream(seed, VISUAL_STREAM_INDEX),
        make_stream(seed, SIMPSON_STREAM_INDEX),
        calibration,
    )
    return {
        "visual": posterior_to_dict(visual),
        "simpson": posterior_to_dict(simpson),
        "relative_reduction": summary_to_dict(reduction.summary),
    }


def propagate_sources(cohort, options: ReportOptions):
    """Propagate each of options.sources in turn.

    Yields (PropagationSummary, exclusion message or None) per source, one
    source at a time, so a caller can write each source's artifacts before
    the next one runs.
    """
    for source in options.sources:
        summary = propagate(cohort, options.propagation_config(source))
        message = None
        if summary.failed_replicates:
            message = (f"source {source}: {summary.failed_replicates} of "
                       f"{summary.replicates} replicates excluded from "
                       "hazard-ratio aggregation")
        yield summary, message


def run_report(cohort, options: ReportOptions, parse_warnings=()) -> tuple[dict, dict]:
    """Run fusion, calibration, and propagation; assemble the report.

    Returns (report dict, {source: PropagationSummary}).  The propagation
    summaries carry the KM bands, which go to CSV rather than the JSON.  The
    report's warnings are the parse warnings passed in, then one
    ReplicateExclusion entry per source that excluded replicates.
    """
    sigmas = options.sigmas
    report_warnings = [{"category": "ParseWarning", "message": str(m)} for m in parse_warnings]

    fused = fused_estimates(cohort, sigmas)
    fusion_section = sigma_echo(sigmas)
    positive = sigmas.visual_sigma > 0 and sigmas.simpson_sigma > 0
    if positive:
        fusion_section.update(
            omega=precision_ratio(sigmas),
            total_variation=total_variation(sigmas),
            relative_reduction=relative_reduction(sigmas),
        )
    fusion_section["theta_sigma"] = fused_sigma(sigmas)
    fusion_section["cohort_theta"] = summary_to_dict(summarize(fused))
    fusion_section["n_patients"] = len(cohort)

    if positive:
        calibration = calibration_section(sigmas, options.seed, options.calibration)
    else:
        calibration = {
            "skipped": True,
            "reason": "error calibration requires strictly positive sigmas",
        }

    propagation_section: dict = {}
    summaries: dict = {}
    for summary, message in propagate_sources(cohort, options):
        summaries[summary.source] = summary
        propagation_section[summary.source] = propagation_to_dict(summary)
        if message:
            report_warnings.append({"category": "ReplicateExclusion", "message": message})

    config_echo = _config_echo(options, options.calibration if positive else None)
    report = {
        "metadata": artifact_metadata(options.seed, config_echo),
        "config": config_echo,
        "units": {
            "lvef": "percent",
            "time": "days",
            "event_rate": "cumulative event probability by the horizon",
            "hazard_ratio": f"per {HR_DELTA:g}-point LVEF decrease",
        },
        "fusion": fusion_section,
        "error_calibration": calibration,
        "propagation": propagation_section,
        "warnings": report_warnings,
    }
    return report, summaries


def render_report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report_json(report: dict, destination) -> None:
    handle, close_after = _open_destination(destination)
    try:
        handle.write(render_report_json(report))
    finally:
        if close_after:
            handle.close()


def _nested_columns(source, label, band) -> list:
    """The band's columns, checked whole before any row is written: a row
    outside the nesting slack raises InvalidStateError, and the means are
    clamped into [lower, upper] as min(max(mean, lower), upper) clamps them."""
    t, lo, me, up = band.times, band.lower, band.mean, band.upper
    slack = _NESTING_SLACK * (1.0 + np.abs(me))
    bad = np.flatnonzero((me < lo - slack) | (me > up + slack) | (up < lo - slack))
    if bad.size:
        i = bad[0]
        raise InvalidStateError(
            f"band nesting violated for {source}/{label} at t={t[i]}: "
            f"lower={lo[i]!r} mean={me[i]!r} upper={up[i]!r}"
        )
    me = np.where(lo > me, lo, me)
    return [t, lo, np.where(up < me, up, me), up]


def write_km_band_csv(summaries, destination) -> None:
    """Long-format band CSV: source, stratum, time_days, lower, mean, upper.

    Accepts one PropagationSummary or a sequence; absent strata emit no rows.
    Step-function points appear at every band time.
    """
    if isinstance(summaries, PropagationSummary):
        summaries = [summaries]
    summaries = list(summaries)

    try:
        handle, close_after = _open_destination(destination)
    except OSError as exc:
        raise OSError(f"cannot write KM band CSV to {destination}: {exc}") from exc
    try:
        handle.write("source,stratum,time_days,lower,mean,upper\r\n")
        for summary in summaries:
            for label, band in summary.km_bands.items():
                if band is None:
                    continue
                columns = _nested_columns(summary.source, label, band)
                for first in range(0, band.times.size, WRITE_ROWS):
                    fields = [_fmt_column(column[first:first + WRITE_ROWS]) for column in columns]
                    handle.write(_csv_lines(f"{summary.source},{label}", fields, "\r\n"))
    except OSError as exc:
        raise OSError(f"cannot write KM band CSV to {destination}: {exc}") from exc
    finally:
        if close_after:
            handle.close()
