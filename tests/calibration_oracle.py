"""The per-step Metropolis chain and the per-lag autocorrelation, kept as
references for ``lvef_fusion.calibration``.

``_run_chain`` calls ``_log_posterior(mu, config)`` at every step and stores
each state by index; ``chain_diagnostics`` re-centres the chain for every
lag.  The library must give the same states byte for byte, the same
acceptance rate and the same diagnostics.
"""

import math

import numpy as np

from lvef_fusion.calibration import ChainDiagnostics
from lvef_fusion.errors import InvalidParameterError


def _log_posterior(mu: float, config) -> float:
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


def _autocorrelation(chain: np.ndarray, lag: int) -> float:
    centered = chain - chain.mean()
    c0 = float(np.dot(centered, centered))
    if c0 == 0.0:
        return 0.0
    return float(np.dot(centered[:-lag], centered[lag:]) / c0)


def chain_diagnostics(posterior) -> ChainDiagnostics:
    """Acceptance rate, lag-1 autocorrelation of the kept chain, and effective
    sample size via the initial-positive-sequence estimator.

    A zero-variance chain reports lag-1 autocorrelation 0 and the ESS floor 1;
    a chain whose autocorrelations overflow raises InvalidParameterError.
    """
    chain = np.asarray(posterior.parameter_chain, dtype=float)
    if chain.size == 0:
        raise InvalidParameterError("chain_diagnostics requires a non-empty chain")
    n = chain.size
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 1 or np.var(chain) == 0.0:
            return ChainDiagnostics(posterior.acceptance_rate, 0.0, 1.0)
        # Geyer's initial positive sequence: sum paired autocorrelations
        # Gamma_m = rho(2m) + rho(2m+1) while the pairs stay positive.
        max_lag = min(n - 1, 1000)
        rho = np.array([1.0] + [_autocorrelation(chain, t) for t in range(1, max_lag + 1)])
    if not np.all(np.isfinite(rho)):
        raise InvalidParameterError(
            "chain values spread too widely for finite autocorrelations"
        )
    lag1 = float(rho[1])
    tau = 0.0
    for m in range(0, (max_lag - 1) // 2 + 1):
        gamma_m = rho[2 * m] + rho[2 * m + 1]
        if gamma_m <= 0.0:
            break
        tau += 2.0 * gamma_m
    tau -= 1.0
    ess = n / max(tau, 1.0)
    return ChainDiagnostics(posterior.acceptance_rate, lag1, float(np.clip(ess, 1.0, n)))
