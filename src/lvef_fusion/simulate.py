"""Synthetic paired-measurement cohorts with known ground truth.

True LVEF is drawn from a normal population, clamped to the reportable range;
each instrument sees the truth plus its own normal noise and reports on its
own grid (5-point for visual readings, 0.1 for Simpson's biplane).  Event
times are exponential with a log-linear hazard in the true LVEF anchored at
50%, censored administratively at the horizon.  Everything is deterministic
given config, whose seed keys the simulation stream, so pipeline claims can
be tested against the truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import Cohort
from .errors import InvalidParameterError
from .fusion import LVEF_RANGE
from .stochastics import SIM_STREAM_INDEX, _integer, make_stream

__all__ = [
    "SimConfig",
    "simulate",
]

# Generative noise defaults: the published per-instrument error sds.
LITERATURE_VISUAL_SD = 18.1
LITERATURE_SIMPSON_SD = 8.8


@dataclass(frozen=True)
class SimConfig:
    """Generative settings; defaults describe the reference cohort."""

    n_patients: int = 1366
    true_lvef_mean: float = 55.78
    true_lvef_sd: float = 11.37
    visual_noise_sd: float = LITERATURE_VISUAL_SD
    simpson_noise_sd: float = LITERATURE_SIMPSON_SD
    visual_rounding: float = 5.0
    simpson_rounding: float = 0.1
    baseline_hazard: float = 4.5e-4
    log_hazard_per_lvef_point: float = -0.0152
    censor_horizon: float = 365.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_patients", _integer("n_patients", self.n_patients))
        object.__setattr__(self, "seed", _integer("seed", self.seed, uint64=True))
        if self.n_patients < 1:
            raise InvalidParameterError(f"n_patients must be >= 1, got {self.n_patients}")
        for name in ("true_lvef_sd", "visual_noise_sd", "simpson_noise_sd"):
            if not getattr(self, name) >= 0:
                raise InvalidParameterError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("visual_rounding", "simpson_rounding", "baseline_hazard", "censor_horizon"):
            if not getattr(self, name) > 0:
                raise InvalidParameterError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if not np.isfinite(self.true_lvef_mean) or not np.isfinite(self.log_hazard_per_lvef_point):
            raise InvalidParameterError("true_lvef_mean and log_hazard_per_lvef_point must be finite")


def _round_to_grid(values: np.ndarray, grid: float) -> np.ndarray:
    lo, hi = LVEF_RANGE
    rounded = np.round(values / grid) * grid
    return np.clip(rounded, grid * np.ceil(lo / grid), grid * np.floor(hi / grid + 1e-9))


def simulate(config: SimConfig) -> Cohort:
    """Generate one cohort, carrying the truth that produced it as true_lvef,
    from the stream (config.seed, SIM_STREAM_INDEX)."""
    gen = make_stream(config.seed, SIM_STREAM_INDEX)
    n = config.n_patients

    true = np.clip(gen.normal(config.true_lvef_mean, config.true_lvef_sd, size=n), *LVEF_RANGE)
    visual = _round_to_grid(
        np.clip(true + gen.normal(0.0, config.visual_noise_sd, size=n), *LVEF_RANGE),
        config.visual_rounding,
    )
    simpson = _round_to_grid(
        np.clip(true + gen.normal(0.0, config.simpson_noise_sd, size=n), *LVEF_RANGE),
        config.simpson_rounding,
    )

    rate = config.baseline_hazard * np.exp(config.log_hazard_per_lvef_point * (true - 50.0))
    raw_times = gen.exponential(scale=1.0 / rate, size=n)
    event = raw_times < config.censor_horizon
    time = np.where(event, raw_times, config.censor_horizon)

    width = len(str(n))
    return Cohort(
        patient_id=[f"P{i + 1:0{width}d}" for i in range(n)],
        visual=visual,
        simpson=simpson,
        time=time,
        event=event,
        true_lvef=true,
    )
