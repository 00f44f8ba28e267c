"""The per-step random-walk Metropolis chain, kept as a reference for
``lvef_fusion.calibration``.

``_run_chain`` calls ``_log_posterior(mu, config)`` at every step and stores
each state by index.  Thinned far enough, its states are close to independent
draws of mu's posterior, which the library draws exactly: the two must agree
in distribution.
"""

import math

import numpy as np


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
    steps = stream.normal(0.0, proposal_sd, size=n_steps)
    log_us = np.log(stream.uniform(size=n_steps))
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
