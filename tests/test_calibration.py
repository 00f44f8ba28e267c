"""Exact error calibration: determinism, shapes, and agreement in
distribution with an independent GIG sampler and the Metropolis oracle."""

import dataclasses
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import calibration_oracle
from lvef_fusion import calibration
from lvef_fusion.calibration import (
    CalibrationConfig,
    ErrorPosterior,
    calibrate,
    paired_calibration,
    reduction_distribution,
)
from lvef_fusion.errors import InvalidParameterError
from lvef_fusion.fusion import MODES, InstrumentSigma
from lvef_fusion.stochastics import (
    SIMPSON_STREAM_INDEX,
    VISUAL_STREAM_INDEX,
    make_stream,
    summarize,
)

# Every KS comparison below is deterministic; this is the p-value it must
# clear.
KS_ALPHA = 1e-3
# Positive, finite predictive errors from 1e-300 to 1e300, with every power
# of ten among them so that ratios overflow as well as stay in range.
_PREDICTIVE = (st.floats(1e-300, 1e300)
               | st.integers(-300, 300).map(lambda e: float(f"1e{e}")))


def _posterior(draws):
    draws = np.asarray(draws, dtype=float)
    return ErrorPosterior(
        parameter_draws=draws,
        predictive_draws=draws,
        acceptance_rate=0.4,
        summary=summarize(draws),
    )


def _oracle_config(sigma, config):
    """The settings the Metropolis oracle reads: config's, plus the sigma."""
    return types.SimpleNamespace(observed_sigma=sigma, **dataclasses.asdict(config))


class TestCalibrate:
    def test_deterministic_for_fixed_stream(self):
        a = calibrate(17.68, make_stream(7, VISUAL_STREAM_INDEX))
        b = calibrate(17.68, make_stream(7, VISUAL_STREAM_INDEX))
        assert np.array_equal(a.parameter_draws, b.parameter_draws)
        assert np.array_equal(a.predictive_draws, b.predictive_draws)
        assert a.acceptance_rate == b.acceptance_rate

    def test_different_streams_differ(self):
        a = calibrate(17.68, make_stream(7, VISUAL_STREAM_INDEX))
        b = calibrate(17.68, make_stream(7, SIMPSON_STREAM_INDEX))
        assert not np.array_equal(a.parameter_draws, b.parameter_draws)

    def test_kept_sizes_and_positivity(self):
        post = calibrate(8.63, make_stream(0, 0), CalibrationConfig(kept_samples=1200))
        assert post.parameter_draws.shape == (1200,)
        assert post.predictive_draws.shape == (1200,)
        assert np.all(post.parameter_draws > 0)
        assert np.all(post.predictive_draws > 0)
        assert 0.5 <= post.acceptance_rate <= 1.0

    def test_posterior_concentrates_near_observed_value(self):
        post = calibrate(17.68, make_stream(7, 0))
        assert np.mean(post.parameter_draws) == pytest.approx(17.68, abs=1.2)

    def test_heavier_observation_weight_tightens_posterior(self):
        light = calibrate(17.68, make_stream(3, 0), CalibrationConfig(observation_weight=4.0))
        heavy = calibrate(17.68, make_stream(3, 0), CalibrationConfig(observation_weight=48.0))
        assert np.std(heavy.parameter_draws) < np.std(light.parameter_draws)


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("likelihood_shape", -1.0),
        ("prior_shape", 0.0),
        ("prior_rate", 0.0),
        ("kept_samples", 0),
        ("observation_weight", 0.0),
        ("kept_samples", 500.0),
        ("kept_samples", "10"),
    ])
    def test_nonpositive_parameters_rejected(self, field, value):
        with pytest.raises(InvalidParameterError):
            CalibrationConfig(**{field: value})

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_observed_sigma_rejected(self, sigma):
        with pytest.raises(InvalidParameterError,
                           match=f"observed_sigma must be finite and > 0, got {sigma!r}"):
            calibrate(sigma, make_stream(0, VISUAL_STREAM_INDEX))

    @pytest.mark.parametrize("sigmas,name,message", [
        (InstrumentSigma(0.0, 8.8), "visual_sigma", "observed_sigma must be finite and > 0"),
        (InstrumentSigma(18.1, 1e305), "simpson_sigma", "observed_sigma 1e\\+305 is too large"),
    ])
    def test_paired_calibration_names_the_instrument(self, sigmas, name, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidParameterError,
                               match=f"^cannot calibrate {name}: {message}") as caught:
                paired_calibration(sigmas, make_stream(1, VISUAL_STREAM_INDEX),
                                   make_stream(1, SIMPSON_STREAM_INDEX),
                                   CalibrationConfig(kept_samples=100))
        assert isinstance(caught.value.__cause__, InvalidParameterError)


class TestReductionDistribution:
    def test_r_matches_pairwise_formula(self):
        v, s, red = paired_calibration(InstrumentSigma(18.1, 8.8),
                                       make_stream(1, VISUAL_STREAM_INDEX),
                                       make_stream(1, SIMPSON_STREAM_INDEX))
        omega = v.predictive_draws / s.predictive_draws
        assert np.array_equal(red.r_draws, -1.0 / (omega + 1.0))
        assert np.all(red.r_draws > -1.0) and np.all(red.r_draws < 0.0)

    def test_variance_mode_squares_the_ratio(self):
        v, s, red = paired_calibration(InstrumentSigma(18.1, 8.8, "variance"),
                                       make_stream(1, VISUAL_STREAM_INDEX),
                                       make_stream(1, SIMPSON_STREAM_INDEX))
        omega = (v.predictive_draws / s.predictive_draws) ** 2
        assert np.array_equal(red.r_draws, -1.0 / (omega + 1.0))

    def test_length_mismatch_rejected(self):
        a = _posterior(np.ones(10))
        b = _posterior(np.ones(11))
        with pytest.raises(InvalidParameterError):
            reduction_distribution(a, b)

    def test_unknown_mode_rejected(self):
        a = _posterior(np.ones(10))
        with pytest.raises(InvalidParameterError):
            reduction_distribution(a, a, mode="sd")

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(_PREDICTIVE, _PREDICTIVE), min_size=1, max_size=20),
           mode=st.sampled_from(MODES))
    def test_r_in_range_or_omega_rejected(self, pairs, mode):
        """Positive, finite predictive errors either give every R finite and
        in [-1, 0), or an overflowing omega is rejected by name, without a
        floating-point warning either way."""
        visual, simpson = zip(*pairs)
        with np.errstate(all="ignore"):  # the stand-ins' own summaries
            visual, simpson = _posterior(visual), _posterior(simpson)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                r = reduction_distribution(visual, simpson, mode).r_draws
            except InvalidParameterError as exc:
                assert "precision ratio omega = inf" in str(exc) and mode in str(exc)
                return
        assert np.all(np.isfinite(r)) and np.all(r >= -1.0) and np.all(r < 0.0)


# Instrument sigmas over a wide range; 1e300 and 1e307 sit at and past the
# largest sigma whose draws stay finite.
_SIGMAS = (st.sampled_from([1e-3, 0.5, 8.8, 18.1, 1e4, 1e300, 1e307])
           | st.floats(1e-3, 1e3, allow_subnormal=False))


@st.composite
def _configs(draw):
    """Every setting over a wide range."""
    return CalibrationConfig(
        likelihood_shape=draw(st.sampled_from([0.5, 2.0, 8.0, 3.7])),
        prior_shape=draw(st.sampled_from([1e-3, 1.0, 3.0])),
        prior_rate=draw(st.sampled_from([1e-3, 0.5])),
        kept_samples=draw(st.integers(1, 400)),
        observation_weight=draw(st.sampled_from([1.0, 12.0, 40.0, 6.3])),
    )


def _gig(sigma, config, size, seed):
    """mu's posterior drawn by scipy's generalized inverse Gaussian: density
    mu**(p - 1) * exp(-A/mu - B*mu) with p = prior_shape - mk,
    A = mk * sigma and B = prior_rate."""
    mk = config.observation_weight * config.likelihood_shape
    p, big_a, big_b = config.prior_shape - mk, mk * sigma, config.prior_rate
    return stats.geninvgauss(p, 2.0 * np.sqrt(big_a * big_b), scale=np.sqrt(big_a / big_b)).rvs(
        size, random_state=np.random.default_rng(seed))


class TestExactSampler:
    @pytest.mark.parametrize("settings", [
        (18.1, {}),
        (8.8, {}),
        (1e-3, {}),
        (1e4, {"prior_rate": 1.0}),
        (2.0, {"likelihood_shape": 0.5, "observation_weight": 1.0, "prior_shape": 3.0}),
        (50.0, {"likelihood_shape": 3.7, "observation_weight": 6.3,
                "prior_shape": 1.0, "prior_rate": 0.5}),
    ])
    def test_matches_geninvgauss(self, settings):
        sigma, config = settings[0], CalibrationConfig(**settings[1])
        draws = calibrate(sigma, make_stream(5, VISUAL_STREAM_INDEX), config).parameter_draws
        assert stats.ks_2samp(draws, _gig(sigma, config, 5000, 5)).pvalue > KS_ALPHA

    @pytest.mark.parametrize("sigma", [18.1, 8.8])
    def test_matches_oracle_chain_at_defaults(self, sigma):
        """The chain's lag-20 autocorrelation is under 0.01 at the defaults,
        so every 20th state after a burn-in is close to an independent draw."""
        states, _ = calibration_oracle._run_chain(
            sigma, 0.25 * sigma, 60_000, _oracle_config(sigma, CalibrationConfig()),
            make_stream(1, 0))
        draws = calibrate(sigma, make_stream(1, VISUAL_STREAM_INDEX)).parameter_draws
        assert stats.ks_2samp(draws, states[1000::20]).pvalue > KS_ALPHA

    @settings(max_examples=200, deadline=None)
    @given(sigma=_SIGMAS, config=_configs(), seed=st.integers(0, 2**32))
    def test_finite_draws_healthy_acceptance_and_determinism(self, sigma, config, seed):
        try:
            post = calibrate(sigma, make_stream(seed, VISUAL_STREAM_INDEX), config)
        except InvalidParameterError as exc:
            assert "is too large" in str(exc)
            return
        for draws in (post.parameter_draws, post.predictive_draws):
            assert draws.shape == (config.kept_samples,)
            assert np.all(np.isfinite(draws)) and np.all(draws > 0)
        assert 0.5 <= post.acceptance_rate <= 1.0
        again = calibrate(sigma, make_stream(seed, VISUAL_STREAM_INDEX), config)
        assert again.parameter_draws.tobytes() == post.parameter_draws.tobytes()
        assert again.predictive_draws.tobytes() == post.predictive_draws.tobytes()
        assert again.acceptance_rate == post.acceptance_rate

    @settings(max_examples=200, deadline=None)
    @given(sigma=_SIGMAS.filter(lambda s: s < 1e300), config=_configs(),
           z=st.floats(-4.0, 4.0))
    def test_log_density_matches_oracle(self, sigma, config, z):
        """The shifted, cancellation-free log density of log mu is the
        oracle's log posterior of mu plus log mu's Jacobian, less its value at
        the mode; z counts curvature-scaled steps from the mode."""
        g, _, x0, curvature = calibration._log_density(sigma, config)
        t = z / np.sqrt(curvature)

        def direct(x):
            return calibration_oracle._log_posterior(np.exp(x), _oracle_config(sigma, config)) + x

        assert g(t) == pytest.approx(direct(x0 + t) - direct(x0), rel=1e-6, abs=1e-6)
