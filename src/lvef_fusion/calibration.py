"""Exact posterior calibration of instrument measurement error.

Each instrument's published error figure, its sigma in InstrumentSigma, is
the datum: it is treated as the summary of a small batch of replicated error
observations, each Gamma(likelihood_shape, rate = likelihood_shape / mu)
around a latent mean error mu with a non-informative Gamma prior on mu, and
CalibrationConfig holds only these model and sampler settings.  The
posterior of mu is then a generalized inverse Gaussian.  In x = log mu its
log density is strictly concave, so rejection from a three-piece envelope
draws it exactly: the draws are independent, and need no burn-in, thinning
or tuning.  Each draw yields one posterior-predictive measurement error.
Pairing predictive errors from two instruments gives the distribution of
the relative spread reduction R = -1/(omega + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParameterError
from .fusion import MODES, InstrumentSigma
from .stochastics import SampleSummary, _integer, summarize

__all__ = [
    "CalibrationConfig",
    "ErrorPosterior",
    "ReductionDistribution",
    "calibrate",
    "reduction_distribution",
    "paired_calibration",
]

# Proposals per rejection round.  Every round draws ROUND_SIZE uniforms, then
# 2 * ROUND_SIZE exponentials, whatever the accept/reject pattern.
ROUND_SIZE = 1 << 10
# Bracket doublings and bisection steps that find the envelope's drop points;
# 2100 doublings take any positive double past the largest one.
DOUBLINGS, BISECTIONS = 2100, 20
# 1/n! for n = 9 down to 2: the Taylor series of exp(t) - 1 - t, over t**2.
PHI_SERIES = [1.0 / math.factorial(n) for n in range(9, 1, -1)]


@dataclass(frozen=True)
class CalibrationConfig:
    """Model and sampler settings for an instrument's error calibration.  The
    instrument's observed sigma is the datum, not a setting: calibrate takes
    it as an argument, and paired_calibration takes both from InstrumentSigma.

    observation_weight is the number of replicated error observations the
    published figure is taken to summarize.  A single observation leaves the
    latent mean too diffuse to reproduce published predictive intervals; the
    default of 12 was fixed by matching those intervals and is exposed here
    rather than buried in the sampler.
    """

    likelihood_shape: float = 8.0
    prior_shape: float = 1e-3
    prior_rate: float = 1e-3
    kept_samples: int = 5_000
    observation_weight: float = 12.0

    def __post_init__(self):
        object.__setattr__(self, "kept_samples", _integer("kept_samples", self.kept_samples))
        for f in fields(self):
            _check_positive(f.name, getattr(self, f.name))


def _check_positive(name: str, value) -> None:
    if not (np.isfinite(value) and value > 0):
        raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class ErrorPosterior:
    """Independent posterior draws of mu and predictive errors for one
    instrument; acceptance_rate is the sampler's accepted / proposed."""

    parameter_draws: np.ndarray
    predictive_draws: np.ndarray
    acceptance_rate: float
    summary: SampleSummary


@dataclass(frozen=True)
class ReductionDistribution:
    """Draws of the relative spread reduction R, each in (-1, 0)."""

    r_draws: np.ndarray
    summary: SampleSummary


def _too_large(observed_sigma: float, what: str) -> InvalidParameterError:
    return InvalidParameterError(
        f"observed_sigma {observed_sigma!r} is too large: {what} is not finite")


def _log_density(observed_sigma: float, config: CalibrationConfig):
    """(g, slope, x0, curvature): the log posterior density of x = log mu as
    g(t) at x = x0 + t, shifted so that its mode is t = 0 and g(0) = 0; its
    derivative; and -g''(0).

    In x the log density is p*x - A*exp(-x) - B*exp(x), with p = prior_shape
    - mk, A = mk * observed_sigma and B = prior_rate: strictly concave, as A
    and B are positive.  At the mode, a = A*exp(-x0) and b = B*exp(x0)
    satisfy b - a = p and a*b = A*B.  The larger of the two is (r + |p|) / 2
    with r = hypot(p, 2*sqrt(A*B)), the smaller is A*B over the larger, and
    x0 is read from the larger.  With b - a = p the linear terms cancel, so g
    is -a*phi(-t) - b*phi(t), a sum of two terms <= 0, and no step cancels.
    """
    mk = config.observation_weight * config.likelihood_shape
    p, big_a, big_b = config.prior_shape - mk, mk * observed_sigma, config.prior_rate
    half_q = np.sqrt(big_a) * np.sqrt(big_b)
    larger = (np.hypot(p, 2.0 * half_q) + abs(p)) / 2.0
    smaller = half_q * (half_q / larger)
    if p <= 0:
        a, b, x0 = larger, smaller, np.log(big_a) - np.log(larger)
    else:
        a, b, x0 = smaller, larger, np.log(larger) - np.log(big_b)

    def g(t):
        return -a * _phi(-t) - b * _phi(t)

    def slope(t):
        return a * np.expm1(-t) - b * np.expm1(t)

    return g, slope, x0, a + b


def _phi(t):
    """exp(t) - 1 - t, from its Taylor series where |t| < 0.1."""
    return np.where(np.abs(t) < 0.1, t * t * np.polyval(PHI_SERIES, t), np.expm1(t) - t)


def _drop_point(g, step: float) -> float:
    """A point on `step`'s side of the mode where g has fallen to -1 or
    below, within 2**-BISECTIONS of the bracket that doubling `step` finds."""
    inner, outer = 0.0, step
    for _ in range(DOUBLINGS):
        if g(outer) <= -1.0:
            break
        inner, outer = outer, 2.0 * outer
    for _ in range(BISECTIONS):
        middle = 0.5 * (inner + outer)
        inner, outer = (middle, outer) if g(middle) > -1.0 else (inner, middle)
    return outer


def _draw_log_mu(observed_sigma: float, config: CalibrationConfig, gen: np.random.Generator):
    """kept_samples exact draws of log mu, and accepted / proposed.

    Rejection from Devroye's envelope for a log-concave density (Non-Uniform
    Random Variate Generation, 1986, ch. VII): flat at the mode's height
    between the points t_l < 0 < t_r where g has dropped by 1, exponential
    beyond them along g's tangents there.  By concavity at least
    (1 - 1/e) / (1 + 1/e), about 0.46, of the envelope's mass lies under the
    density; the rounds are capped all the same.  Floating-point errors are
    the caller's to silence.
    """
    g, slope, x0, curvature = _log_density(observed_sigma, config)
    step = np.sqrt(2.0 / curvature)
    t_l, t_r = _drop_point(g, -step), _drop_point(g, step)
    g_l, g_r, s_l, s_r = g(t_l), g(t_r), slope(t_l), slope(t_r)
    m_l, m_r = np.exp(g_l) / s_l, np.exp(g_r) / -s_r
    if not (np.all(np.isfinite([x0, t_l, t_r, g_l, g_r, m_l, m_r])) and m_l > 0 and m_r > 0):
        raise _too_large(observed_sigma, "its posterior envelope")
    kept, total = config.kept_samples, m_l + (t_r - t_l) + m_r
    draws, accepted, proposed = [], 0, 0
    for _ in range(4 * (kept // ROUND_SIZE + 2)):  # enough down to acceptance ~1/4
        u = gen.uniform(0.0, total, size=ROUND_SIZE)
        e = gen.standard_exponential(size=(2, ROUND_SIZE))
        left, right = u < m_l, u >= total - m_r
        t = np.where(left, t_l - e[0] / s_l, np.where(right, t_r - e[0] / s_r, t_l + (u - m_l)))
        log_envelope = np.where(left, g_l - e[0], np.where(right, g_r - e[0], 0.0))
        keep = g(t) - log_envelope + e[1] >= 0.0
        draws.append(t[keep])
        accepted, proposed = accepted + int(keep.sum()), proposed + ROUND_SIZE
        if accepted >= kept:
            return x0 + np.concatenate(draws)[:kept], accepted / proposed
    raise InvalidParameterError(
        f"observed_sigma {observed_sigma!r}: the posterior sampler accepted "
        f"only {accepted} of {proposed} proposals")


def calibrate(observed_sigma: float, stream: np.random.Generator,
              config: CalibrationConfig = CalibrationConfig()) -> ErrorPosterior:
    """kept_samples independent draws of mu from its exact posterior given the
    instrument's observed_sigma (finite and > 0), and one predictive error per
    draw from Gamma(likelihood_shape, likelihood_shape / mu), both drawn
    from `stream`, a fresh make_stream Generator.  Deterministic given
    (observed_sigma, the stream's key, config).
    """
    _check_positive("observed_sigma", observed_sigma)
    # A sigma near the top of the double range overflows the envelope, mu,
    # or the spreads, which square deviations of the order of observed_sigma.
    with np.errstate(all="ignore"):
        log_mu, acceptance = _draw_log_mu(observed_sigma, config, stream)
        mu = np.exp(log_mu)
        k = config.likelihood_shape
        predictive = stream.gamma(shape=k, scale=mu / k)
        summary = summarize(predictive)
        spread = np.var(mu)
    if not np.all(np.isfinite([spread, summary.mean, summary.sd, *summary.quantiles.values()])):
        raise _too_large(observed_sigma, "the spread of its error draws")
    return ErrorPosterior(
        parameter_draws=mu,
        predictive_draws=predictive,
        acceptance_rate=acceptance,
        summary=summary,
    )


def reduction_distribution(visual: ErrorPosterior, simpson: ErrorPosterior, mode: str = "paper-sd") -> ReductionDistribution:
    """Distribution of R = -1/(omega + 1) from index-paired predictive errors.

    omega is the per-pair precision ratio (visual error / simpson error) in
    the given mode's units: the ratio itself for paper-sd, its square for
    variance.  Draws whose omega overflows raise InvalidParameterError, so
    every R is finite and in [-1, 0).
    """
    if mode not in MODES:
        raise InvalidParameterError(f"mode must be 'paper-sd' or 'variance', got {mode!r}")
    v = np.asarray(visual.predictive_draws, dtype=float)
    s = np.asarray(simpson.predictive_draws, dtype=float)
    if v.shape != s.shape:
        raise InvalidParameterError(
            f"predictive draw sequences differ in length ({v.size} vs {s.size})"
        )
    with np.errstate(over="ignore"):
        omega = v / s
        if mode == "variance":
            omega = omega**2
    overflowed = omega[~np.isfinite(omega)]
    if overflowed.size:
        raise InvalidParameterError(
            f"predictive errors give a precision ratio omega = {float(overflowed[0])!r} "
            f"in {mode} mode; it must be finite")
    r = -1.0 / (omega + 1.0)
    return ReductionDistribution(r_draws=r, summary=summarize(r))


def paired_calibration(sigmas: InstrumentSigma, stream_visual: np.random.Generator,
                       stream_simpson: np.random.Generator,
                       config: CalibrationConfig = CalibrationConfig()):
    """Convenience wrapper: calibrate both instruments and their R distribution.

    Each instrument is calibrated from its own sigma in `sigmas` on its own
    stream, under the shared settings in `config`; an InvalidParameterError
    is re-raised naming its InstrumentSigma field.  R is taken in sigmas.mode.
    Returns (visual posterior, simpson posterior, reduction distribution).
    """
    posteriors = []
    for name, stream in (("visual_sigma", stream_visual), ("simpson_sigma", stream_simpson)):
        try:
            posteriors.append(calibrate(getattr(sigmas, name), stream, config))
        except InvalidParameterError as error:
            raise InvalidParameterError(f"cannot calibrate {name}: {error}") from error
    return (*posteriors, reduction_distribution(*posteriors, sigmas.mode))
