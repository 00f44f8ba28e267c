"""Simulation helpers the tests share: a low-noise cohort preset and the
error of per-patient estimates against the simulated truth."""

import numpy as np

from lvef_fusion.cohort import Cohort
from lvef_fusion.errors import InvalidParameterError
from lvef_fusion.simulate import LITERATURE_SIMPSON_SD, LITERATURE_VISUAL_SD, SimConfig

# The "concordant" preset shrinks both published sds so the simulated
# visual-Simpson paired difference has sd ~3.2 points, the much tighter
# agreement regime reported within a single trial.
CONCORDANT_FACTOR = 0.158


def concordant_config(**overrides) -> SimConfig:
    """Preset with noise sds scaled to the tight within-trial agreement regime."""
    settings = dict(
        visual_noise_sd=CONCORDANT_FACTOR * LITERATURE_VISUAL_SD,
        simpson_noise_sd=CONCORDANT_FACTOR * LITERATURE_SIMPSON_SD,
    )
    settings.update(overrides)
    return SimConfig(**settings)


def rmse_vs_truth(cohort: Cohort, estimates) -> float:
    """Root-mean-square deviation of per-patient estimates from the truth."""
    if cohort.true_lvef is None:
        raise InvalidParameterError("rmse_vs_truth requires a cohort with true_lvef")
    estimates = np.asarray(estimates, dtype=float)
    if estimates.shape != cohort.true_lvef.shape:
        raise InvalidParameterError(
            f"estimates length {estimates.size} does not match cohort size {cohort.true_lvef.size}"
        )
    return float(np.sqrt(np.mean((estimates - cohort.true_lvef) ** 2)))
