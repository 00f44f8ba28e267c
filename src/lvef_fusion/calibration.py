"""Posterior calibration of instrument measurement error via Metropolis-Hastings.

Each instrument's published error figure is treated as the summary of a small
batch of replicated error observations, each Gamma(likelihood_shape, rate =
likelihood_shape / mu) around a latent mean error mu with a non-informative
Gamma prior on mu.  A random-walk Metropolis chain explores mu; each kept draw
yields one posterior-predictive measurement error.  Pairing predictive errors
from two instruments gives the distribution of the relative spread reduction
R = -1/(omega + 1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import AcceptanceRateWarning, InitializationError, InvalidParameterError
from .stochastics import RngStream, SampleSummary, summarize

__all__ = [
    "CalibrationConfig",
    "ErrorPosterior",
    "ReductionDistribution",
    "ChainDiagnostics",
    "calibrate",
    "reduction_distribution",
    "chain_diagnostics",
    "paired_calibration",
    "VISUAL_STREAM_INDEX",
    "SIMPSON_STREAM_INDEX",
]

SUMMARY_LEVELS = (0.025, 0.5, 0.975)
ACCEPTANCE_BAND = (0.1, 0.6)
# Pre-run tuning targets the classic random-walk efficiency band.
TUNING_BAND = (0.25, 0.45)

# Canonical substream indexes for the two instrument chains.  Kept at and
# above 2**32 so they never collide with propagation replicate indexes,
# which count up from zero under the same seed.
VISUAL_STREAM_INDEX = 2**32
SIMPSON_STREAM_INDEX = 2**32 + 1


@dataclass(frozen=True)
class CalibrationConfig:
    """Settings for one instrument's error calibration.

    observation_weight is the number of replicated error observations the
    published figure is taken to summarize.  A single observation leaves the
    latent mean too diffuse to reproduce published predictive intervals; the
    default of 12 was fixed by matching those intervals and is exposed here
    rather than buried in the sampler.
    """

    observed_sigma: float
    likelihood_shape: float = 8.0
    prior_shape: float = 1e-3
    prior_rate: float = 1e-3
    chain_length: int = 20_000
    kept_samples: int = 5_000
    proposal_sd: float | None = None  # None -> 0.25 * observed_sigma
    burn_in: int = 1_000
    observation_weight: float = 12.0
    tune_proposal: bool = False

    def __post_init__(self):
        positive = {
            "observed_sigma": self.observed_sigma,
            "likelihood_shape": self.likelihood_shape,
            "prior_shape": self.prior_shape,
            "prior_rate": self.prior_rate,
            "chain_length": self.chain_length,
            "kept_samples": self.kept_samples,
            "burn_in": self.burn_in,
            "observation_weight": self.observation_weight,
        }
        if self.proposal_sd is not None:
            positive["proposal_sd"] = self.proposal_sd
        for name, value in positive.items():
            if not (np.isfinite(value) and value > 0):
                raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")
        if self.kept_samples > self.chain_length - self.burn_in:
            raise InvalidParameterError(
                f"kept_samples ({self.kept_samples}) exceeds chain_length - burn_in "
                f"({self.chain_length - self.burn_in})"
            )

    def initial_proposal_sd(self) -> float:
        return self.proposal_sd if self.proposal_sd is not None else 0.25 * self.observed_sigma


@dataclass(frozen=True)
class ErrorPosterior:
    """Kept chain and posterior-predictive errors for one instrument."""

    parameter_chain: np.ndarray
    predictive_draws: np.ndarray
    acceptance_rate: float
    summary: SampleSummary


@dataclass(frozen=True)
class ReductionDistribution:
    """Draws of the relative spread reduction R, each in (-1, 0)."""

    r_draws: np.ndarray
    summary: SampleSummary


@dataclass(frozen=True)
class ChainDiagnostics:
    acceptance_rate: float
    lag1_autocorrelation: float
    effective_sample_size: float


def _log_posterior(mu: float, config: CalibrationConfig) -> float:
    """Unnormalized log posterior of the latent mean error mu (mu > 0)."""
    if mu <= 0:
        return -math.inf
    k = config.likelihood_shape
    m = config.observation_weight
    y = config.observed_sigma
    loglik = m * k * (math.log(k) - math.log(mu)) - (m * k * y) / mu
    logprior = (config.prior_shape - 1.0) * math.log(mu) - config.prior_rate * mu
    return loglik + logprior


def _run_chain(start, proposal_sd, n_steps, config, stream):
    """Random-walk Metropolis from `start`; returns (states, acceptance_rate).

    Proposal noise and acceptance uniforms are pre-drawn in blocks so the
    stream's draw layout is fixed regardless of the accept/reject pattern.
    """
    gen = stream.generator
    steps = gen.normal(0.0, proposal_sd, size=n_steps)
    log_us = np.log(gen.uniform(size=n_steps))
    states = np.empty(n_steps)
    current = start
    log_post = _log_posterior(current, config)
    accepted = 0
    for i in range(n_steps):
        proposal = current + steps[i]
        if proposal > 0:
            log_post_prop = _log_posterior(proposal, config)
            if log_us[i] < log_post_prop - log_post:
                current = proposal
                log_post = log_post_prop
                accepted += 1
        states[i] = current
    return states, accepted / n_steps


def _tune_proposal_sd(config, stream, max_rounds=30, pilot_steps=100):
    """Multiplicative pilot adaptation toward the 25-45% acceptance band."""
    sd = config.initial_proposal_sd()
    current = config.observed_sigma
    for _ in range(max_rounds):
        states, rate = _run_chain(current, sd, pilot_steps, config, stream)
        current = states[-1]
        if rate < 0.02:
            sd *= 0.1
        elif rate < TUNING_BAND[0]:
            sd *= 0.7
        elif rate > 0.8:
            sd *= 5.0
        elif rate > TUNING_BAND[1]:
            sd *= 1.4
        else:
            break
    return sd


def calibrate(config: CalibrationConfig, stream: RngStream) -> ErrorPosterior:
    """Run the Metropolis chain and return kept draws plus predictive errors.

    The chain starts at mu = observed_sigma, runs chain_length steps (rejected
    proposals repeat the previous state; proposals <= 0 are rejected outright),
    drops burn_in states and thins the remainder uniformly to kept_samples.
    Each kept mu yields one predictive error from Gamma(likelihood_shape,
    likelihood_shape / mu).  Deterministic given (config, stream).
    """
    start = config.observed_sigma
    if not np.isfinite(_log_posterior(start, config)):
        raise InitializationError(f"log posterior is not finite at initial state {start}")

    proposal_sd = _tune_proposal_sd(config, stream) if config.tune_proposal else config.initial_proposal_sd()
    chain, acceptance = _run_chain(start, proposal_sd, config.chain_length, config, stream)

    kept_idx = np.linspace(config.burn_in, config.chain_length - 1, config.kept_samples)
    kept = chain[np.round(kept_idx).astype(int)]

    k = config.likelihood_shape
    predictive = stream.generator.gamma(shape=k, scale=kept / k)

    if not ACCEPTANCE_BAND[0] <= acceptance <= ACCEPTANCE_BAND[1]:
        warnings.warn(
            f"Metropolis acceptance rate {acceptance:.3f} outside {list(ACCEPTANCE_BAND)}; "
            "consider adjusting proposal_sd or enabling tune_proposal",
            AcceptanceRateWarning,
            stacklevel=2,
        )
    return ErrorPosterior(
        parameter_chain=kept,
        predictive_draws=predictive,
        acceptance_rate=acceptance,
        summary=summarize(predictive, SUMMARY_LEVELS),
    )


def reduction_distribution(visual: ErrorPosterior, simpson: ErrorPosterior, mode: str = "paper-sd") -> ReductionDistribution:
    """Distribution of R = -1/(omega + 1) from index-paired predictive errors.

    omega is the per-pair precision ratio (visual error / simpson error) in
    the given mode's units: the ratio itself for paper-sd, its square for
    variance.
    """
    if mode not in ("paper-sd", "variance"):
        raise InvalidParameterError(f"mode must be 'paper-sd' or 'variance', got {mode!r}")
    v = np.asarray(visual.predictive_draws, dtype=float)
    s = np.asarray(simpson.predictive_draws, dtype=float)
    if v.shape != s.shape:
        raise InvalidParameterError(
            f"predictive draw sequences differ in length ({v.size} vs {s.size})"
        )
    omega = v / s
    if mode == "variance":
        omega = omega**2
    r = -1.0 / (omega + 1.0)
    return ReductionDistribution(r_draws=r, summary=summarize(r, SUMMARY_LEVELS))


def _autocorrelation(chain: np.ndarray, lag: int) -> float:
    centered = chain - chain.mean()
    c0 = float(np.dot(centered, centered))
    if c0 == 0.0:
        return 0.0
    return float(np.dot(centered[:-lag], centered[lag:]) / c0)


def chain_diagnostics(posterior: ErrorPosterior) -> ChainDiagnostics:
    """Acceptance rate, lag-1 autocorrelation of the kept chain, and effective
    sample size via the initial-positive-sequence estimator.

    A zero-variance chain reports lag-1 autocorrelation 0 and the ESS floor 1.
    """
    chain = np.asarray(posterior.parameter_chain, dtype=float)
    if chain.size == 0:
        raise InvalidParameterError("chain_diagnostics requires a non-empty chain")
    n = chain.size
    if n == 1 or np.var(chain) == 0.0:
        return ChainDiagnostics(posterior.acceptance_rate, 0.0, 1.0)

    lag1 = _autocorrelation(chain, 1)

    # Geyer's initial positive sequence: sum paired autocorrelations
    # Gamma_m = rho(2m) + rho(2m+1) while the pairs stay positive.
    max_lag = min(n - 1, 1000)
    rho = np.array([1.0] + [_autocorrelation(chain, t) for t in range(1, max_lag + 1)])
    tau = 0.0
    for m in range(0, (max_lag - 1) // 2 + 1):
        gamma_m = rho[2 * m] + rho[2 * m + 1]
        if gamma_m <= 0.0:
            break
        tau += 2.0 * gamma_m
    tau -= 1.0
    ess = n / max(tau, 1.0)
    return ChainDiagnostics(posterior.acceptance_rate, lag1, float(np.clip(ess, 1.0, n)))


def paired_calibration(visual_sigma: float, simpson_sigma: float, stream_visual: RngStream,
                       stream_simpson: RngStream, mode: str = "paper-sd",
                       config: CalibrationConfig | None = None):
    """Convenience wrapper: calibrate both instruments and their R distribution.

    config supplies every setting except observed_sigma, which each chain
    takes from its instrument's sigma; None means the CalibrationConfig
    defaults.  Returns (visual posterior, simpson posterior, reduction
    distribution).
    """
    if config is None:
        config = CalibrationConfig(observed_sigma=visual_sigma)
    visual = calibrate(replace(config, observed_sigma=visual_sigma), stream_visual)
    simpson = calibrate(replace(config, observed_sigma=simpson_sigma), stream_simpson)
    return visual, simpson, reduction_distribution(visual, simpson, mode)
