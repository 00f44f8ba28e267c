"""Analysis report assembly and artifact serialization.

The report JSON is deterministic for a fixed cohort, configuration, and seed:
keys are sorted, floats are emitted at full double precision, and the only
run-dependent field is metadata.generated_at.  CSV artifacts round to 4
decimal places.  The band CSV checks every band's nesting whole with numpy
before it opens its destination, then spells each (source, stratum)'s
columns with the cohort writers' kernel (``cohort._fmt_column`` and
``cohort._csv_lines``), WRITE_ROWS rows per write, in the bytes csv.writer
gave.

A run is described by one ``PropagationConfig`` (source "all" for every
source) and, when it calibrates, one ``CalibrationConfig``.  The sections
other artifacts share are built here once: every JSON artifact (artifact,
which echoes the sigmas and the command's settings as its config and hashes
that echo into its metadata), the run's settings (config_echo), the
calibration section (calibration_section) and the per-source propagation
(propagate_sources), which runs every source of the config before it
returns, so that a command writes nothing until every result exists.  The
CLI commands call these, so their artifacts match the report's.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, replace
from datetime import datetime, timezone

import numpy as np

from .calibration import CalibrationConfig, paired_calibration
from .cohort import _csv_lines, _fmt_column, _writing
from .errors import InvalidStateError
from .fusion import (
    LVEF_RANGE,
    InstrumentSigma,
    fused_estimates,
    fused_sigma,
    precision_ratio,
    relative_reduction,
    total_variation,
)
from .propagation import HR_DELTA, PropagationConfig, PropagationSummary, propagate
from .stochastics import (SIMPSON_STREAM_INDEX, VISUAL_STREAM_INDEX, SampleSummary,
                          make_stream, summarize)
from .survival import CoxFit, hazard_ratio_per

__all__ = [
    "run_report",
    "write_report_json",
    "write_km_band_csv",
]

TOOL_NAME = "lvef-fusion"
# The one version literal: the package's __version__ and its build metadata
# (pyproject.toml) both read it from here.
TOOL_VERSION = "0.1.0"

# Slack for re-checking band nesting at write time.  propagate widens its
# bands to take in the mean, but a PropagationSummary built by hand can carry
# a mean a few ulps outside its envelope.
_NESTING_SLACK = 1e-9
# Band rows per write.  A block's arrays and text live until it is written,
# and after propagation they can set a report's peak RSS: the benchmark's
# 40k-patient report peaked about 0.25 MB higher with 2^10 rows than with
# 2^9, which writes 51k band rows in 31 ms against 21 ms.
WRITE_ROWS = 1 << 9


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


def _stratum_to_dict(rates: SampleSummary | None) -> dict:
    if rates is None:
        return {"present": False, "n_present": 0}
    return {
        "present": True,
        "n_present": int(rates.n),
        "mean_event_rate": float(rates.mean),
        "quantiles": {str(level): float(v) for level, v in rates.quantiles.items()},
    }


def propagation_to_dict(summary: PropagationSummary) -> dict:
    hazard_ratio = summary.hazard_ratio
    lower, upper = hazard_ratio.quantiles[0.025], hazard_ratio.quantiles[0.975]
    return {
        "source": summary.source,
        "replicates": int(summary.replicates),
        "failed_replicates": int(summary.failed_replicates),
        "horizon_days": float(summary.horizon),
        "hazard_ratio": {
            "per_lvef_decrease": HR_DELTA,
            "mean": float(hazard_ratio.mean),
            "q0.025": float(lower),
            "q0.975": float(upper),
            "band_width": float(upper - lower),
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


def artifact(sigmas: InstrumentSigma, settings: dict, /, **sections) -> dict:
    """A JSON artifact: its config echoes the sigmas and `settings`, its
    metadata holds the tool, version, generation time and the config's hash,
    plus the config's seed when it echoes one, and the sections follow."""
    config = {**sigma_echo(sigmas), **settings}
    metadata = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config_hash": config_hash(config),
    }
    if "seed" in config:
        metadata["seed"] = config["seed"]
    return {"metadata": metadata, "config": config, **sections}


def sigma_echo(sigmas: InstrumentSigma) -> dict:
    """The fusion mode and both instrument sigmas, as every artifact echoes them."""
    return {
        "mode": sigmas.mode,
        "sigma_visual": float(sigmas.visual_sigma),
        "sigma_simpson": float(sigmas.simpson_sigma),
    }


def config_echo(config: PropagationConfig,
                calibration: CalibrationConfig | None = None) -> dict:
    """The run's settings as report and propagate echo them beside the
    sigmas, with the calibration settings when the run calibrates."""
    echo = {
        "seed": int(config.seed),
        "replicates": int(config.replicates),
        "horizon_days": float(config.horizon),
        "band_edges": [float(v) for v in config.band_edges],
        "sources": list(config.sources),
        "clamp_range": [float(v) for v in LVEF_RANGE],
    }
    if calibration is not None:
        echo["calibration"] = calibration_echo(calibration)
    return echo


def calibration_echo(calibration: CalibrationConfig) -> dict:
    """Every CalibrationConfig setting, plus the stream indices.  The
    instrument sigmas the calibration reads are in the artifact's sigma echo."""
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


def propagate_sources(cohort, config: PropagationConfig) -> tuple[dict, list]:
    """Propagate every one of config.sources, in order, each on the config
    with that source.

    Returns ({source: PropagationSummary}, exclusion messages), with one
    message per source that excluded replicates from the hazard-ratio
    aggregation.
    """
    summaries = {source: propagate(cohort, replace(config, source=source))
                 for source in config.sources}
    exclusions = [f"source {s.source}: {s.failed_replicates} of {s.replicates} replicates "
                  "excluded from hazard-ratio aggregation"
                  for s in summaries.values() if s.failed_replicates]
    return summaries, exclusions


def run_report(cohort, config: PropagationConfig, calibration=CalibrationConfig(),
               parse_warnings=()) -> tuple[dict, dict]:
    """Run fusion, calibration under `calibration`, and propagation of
    config.sources; assemble the report.

    Returns (report dict, {source: PropagationSummary}).  The propagation
    summaries carry the KM bands, which go to CSV rather than the JSON.  The
    report's warnings are the parse warnings passed in, then one
    ReplicateExclusion entry per source that excluded replicates.
    """
    sigmas = config.sigmas
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
        calibrated = calibration_section(sigmas, config.seed, calibration)
    else:
        calibrated = {
            "skipped": True,
            "reason": "error calibration requires strictly positive sigmas",
        }

    summaries, exclusions = propagate_sources(cohort, config)
    report_warnings += [{"category": "ReplicateExclusion", "message": m} for m in exclusions]

    report = artifact(
        sigmas, config_echo(config, calibration if positive else None),
        units={
            "lvef": "percent",
            "time": "days",
            "event_rate": "cumulative event probability by the horizon",
            "hazard_ratio": f"per {HR_DELTA:g}-point LVEF decrease",
        },
        fusion=fusion_section,
        error_calibration=calibrated,
        propagation={source: propagation_to_dict(s) for source, s in summaries.items()},
        warnings=report_warnings,
    )
    return report, summaries


def write_report_json(report: dict, destination) -> None:
    """The report as sorted, two-space-indented JSON ending in a newline."""
    with _writing(destination) as handle:
        handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _check_nesting(source, label, band) -> None:
    """Raise InvalidStateError at the band's first row outside the nesting slack."""
    lo, me, up = band.lower, band.mean, band.upper
    slack = _NESTING_SLACK * (1.0 + np.abs(me))
    bad = np.flatnonzero((me < lo - slack) | (me > up + slack) | (up < lo - slack))
    if bad.size:
        i = bad[0]
        raise InvalidStateError(
            f"band nesting violated for {source}/{label} at t={band.times[i]}: "
            f"lower={float(lo[i])} mean={float(me[i])} upper={float(up[i])}"
        )


def write_km_band_csv(summaries, destination) -> None:
    """Long-format band CSV: source, stratum, time_days, lower, mean, upper.

    Accepts one PropagationSummary or a sequence; absent strata emit no rows.
    Step-function points appear at every band time.  Every band's nesting
    is checked before the destination is opened; the means are written
    clamped into [lower, upper] as min(max(mean, lower), upper) clamps them.
    """
    if isinstance(summaries, PropagationSummary):
        summaries = [summaries]
    bands = [(summary.source, label, band) for summary in summaries
             for label, band in summary.km_bands.items() if band is not None]
    for source, label, band in bands:
        _check_nesting(source, label, band)

    try:
        with _writing(destination) as handle:
            handle.write("source,stratum,time_days,lower,mean,upper\r\n")
            for source, label, band in bands:
                lo, up = band.lower, band.upper
                me = np.where(lo > band.mean, lo, band.mean)
                columns = [band.times, lo, np.where(up < me, up, me), up]
                for first in range(0, band.times.size, WRITE_ROWS):
                    fields = [_fmt_column(column[first:first + WRITE_ROWS])
                              for column in columns]
                    heads = [f"{source},{label}"] * len(fields[0])
                    handle.write(_csv_lines(heads, fields, "\r\n"))
    except OSError as exc:
        raise OSError(f"cannot write KM band CSV to {destination}: {exc}") from exc
