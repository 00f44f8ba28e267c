"""Closed-form Bayesian fusion of paired LVEF measurements.

A visual estimate V and a Simpson's-biplane estimate S of the same ejection
fraction are combined by precision weighting.  Two interpretations of the
instrument spreads are supported:

* ``paper-sd`` (default): the published standard deviations enter the weights
  directly, i.e. theta = (sV*S + sS*V)/(sV + sS) and the posterior spread is
  the harmonic combination 1/(1/sV + 1/sS).  This mode reproduces the source
  study's reported ~-33% spread reduction.
* ``variance``: textbook conjugate-normal updating with the same formulas
  applied to sV^2 and sS^2; the reported spread is the square root of the
  resulting posterior variance.

The precision ratio omega = (1/sS)/(1/sV), total variation T = sV + sS, the
MAP identity theta = (omega*S + V)/(omega + 1) and the relative spread
reduction R = -1/(omega + 1) are all expressed in the active mode's units.

``fuse`` combines one pair into a ``FusedEstimate``; ``fused_estimates`` fuses
a whole cohort's columns at once with the same arithmetic, and
``fused_sigma`` gives the posterior spread every patient shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyInputError, InvalidParameterError

__all__ = [
    "InstrumentSigma",
    "FusedEstimate",
    "fuse",
    "fused_estimates",
    "fused_sigma",
    "precision_ratio",
    "total_variation",
    "relative_reduction",
]

MODES = ("paper-sd", "variance")
# The reportable LVEF range, inside the [0, 100] domain _check_lvef accepts:
# simulated readings and every propagation replicate draw are clipped into it.
LVEF_RANGE = (1.0, 99.0)


@dataclass(frozen=True)
class InstrumentSigma:
    """Cohort-level spread of each instrument, in LVEF percentage points.

    Zero sigmas are representable (degenerate, noise-free instruments appear
    in simulation studies) but the fusion formulas below require both to be
    strictly positive and will reject zeros.
    """

    visual_sigma: float
    simpson_sigma: float
    mode: str = "paper-sd"

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("visual_sigma", "simpson_sigma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise InvalidParameterError(f"{name} must be finite and >= 0, got {value!r}")
            if self.mode == "variance" and value > 0:
                square = float(value) * float(value)
                if not 0 < square < np.inf:
                    raise InvalidParameterError(
                        f"{name} {value!r} squares to {square!r}; variance mode "
                        "needs a positive, finite square"
                    )
        # The posterior mean multiplies a weight by an LVEF of up to 100 and
        # divides by the weights' sum; both must stay finite.
        power = 2 if self.mode == "variance" else 1
        a, b = float(self.visual_sigma) ** power, float(self.simpson_sigma) ** power
        if not (np.isfinite(a + b) and np.isfinite(100.0 * max(a, b))):
            raise InvalidParameterError(
                f"sigmas {self.visual_sigma!r} and {self.simpson_sigma!r} give fusion "
                f"weights that overflow in {self.mode} mode"
            )

    def weights(self) -> tuple[float, float]:
        """(visual weight, simpson weight) in the active mode's spread units."""
        if self.visual_sigma == 0 or self.simpson_sigma == 0:
            raise InvalidParameterError("fusion requires strictly positive sigmas")
        if self.mode == "variance":
            return self.visual_sigma**2, self.simpson_sigma**2
        return self.visual_sigma, self.simpson_sigma


@dataclass(frozen=True)
class FusedEstimate:
    """Posterior LVEF after combining one visual / Simpson's pair."""

    theta: float
    theta_sigma: float
    omega: float
    total_variation: float
    relative_reduction: float


def _check_lvef(name: str, value: float):
    if not (np.isfinite(value) and 0.0 <= value <= 100.0):
        raise DomainError(f"{name} must be an LVEF in [0, 100], got {value!r}")


def precision_ratio(sigmas: InstrumentSigma) -> float:
    """omega: Simpson's precision divided by visual precision (> 1 when the
    Simpson's instrument is the sharper one).

    Sigmas whose ratio overflows raise InvalidParameterError.
    """
    a, b = sigmas.weights()
    omega = a / b
    if not np.isfinite(omega):
        raise InvalidParameterError(
            f"sigmas {sigmas.visual_sigma!r} and {sigmas.simpson_sigma!r} give a "
            f"precision ratio omega = {omega!r} in {sigmas.mode} mode; it must be finite"
        )
    return omega


def total_variation(sigmas: InstrumentSigma) -> float:
    """T: sum of the two spreads in the active mode's units."""
    a, b = sigmas.weights()
    return a + b


def relative_reduction(sigmas: InstrumentSigma) -> float:
    """R = (posterior spread - Simpson's spread) / Simpson's spread = -1/(omega+1).

    Always in (-1, 0): fusing can only shrink the spread, never below zero.
    """
    return -1.0 / (precision_ratio(sigmas) + 1.0)


def _posterior_mean(visual, simpson, a: float, b: float):
    """(a*S + b*V)/(a + b) for weights (a, b); scalars and arrays alike."""
    return (a * simpson + b * visual) / (a + b)


def fused_sigma(sigmas: InstrumentSigma) -> float:
    """Posterior spread of every fused estimate under these sigmas.

    It depends on the sigmas only: the harmonic combination of the two
    spreads (square-rooted back to percentage points in variance mode), and
    0.0 when either instrument is exact.
    """
    if sigmas.visual_sigma == 0 or sigmas.simpson_sigma == 0:
        return 0.0
    a, b = sigmas.weights()
    posterior = 1.0 / (1.0 / a + 1.0 / b)
    return float(np.sqrt(posterior)) if sigmas.mode == "variance" else posterior


def fuse(visual: float, simpson: float, sigmas: InstrumentSigma) -> FusedEstimate:
    """Combine one measurement pair into a FusedEstimate.

    The posterior mean weights each measurement by the *other* instrument's
    spread: theta = (wV*S + wS*V)/(wV + wS) with (wV, wS) in the active mode's
    units.  The posterior spread is fused_sigma(sigmas).
    """
    _check_lvef("visual", visual)
    _check_lvef("simpson", simpson)
    a, b = sigmas.weights()
    omega = precision_ratio(sigmas)
    return FusedEstimate(
        theta=float(_posterior_mean(visual, simpson, a, b)),
        theta_sigma=fused_sigma(sigmas),
        omega=float(omega),
        total_variation=float(a + b),
        relative_reduction=float(-1.0 / (omega + 1.0)),
    )


def fused_estimates(cohort, sigmas: InstrumentSigma) -> np.ndarray:
    """Per-patient theta of a whole cohort, continuity-extended to zero sigmas.

    With strictly positive sigmas each entry equals fuse(v, s, sigmas).theta
    bit-for-bit.  With both sigmas zero each instrument is exact and theta is
    the equal-weight midpoint; with exactly one sigma zero the exact
    instrument wins outright.  Every patient shares the spread
    fused_sigma(sigmas).
    """
    if not len(cohort):
        raise EmptyInputError("fused_estimates requires a non-empty cohort")
    visual, simpson = cohort.visual, cohort.simpson
    a, b = sigmas.visual_sigma, sigmas.simpson_sigma
    if a > 0 and b > 0:
        return _posterior_mean(visual, simpson, *sigmas.weights())
    if a == 0 and b == 0:
        return (visual + simpson) / 2.0
    return visual.copy() if a == 0 else simpson.copy()
