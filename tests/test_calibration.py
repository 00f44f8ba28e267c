"""Metropolis error calibration: determinism, shapes, and sampler health."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import calibration_oracle
from lvef_fusion import calibration
from lvef_fusion.calibration import (
    SIMPSON_STREAM_INDEX,
    VISUAL_STREAM_INDEX,
    CalibrationConfig,
    ErrorPosterior,
    calibrate,
    chain_diagnostics,
    paired_calibration,
    reduction_distribution,
)
from lvef_fusion.errors import AcceptanceRateWarning, InvalidParameterError, LvefFusionError
from lvef_fusion.stochastics import make_stream, summarize


def _posterior(chain):
    chain = np.asarray(chain, dtype=float)
    return ErrorPosterior(
        parameter_chain=chain,
        predictive_draws=chain,
        acceptance_rate=0.4,
        summary=summarize(chain),
    )


class TestCalibrate:
    def test_deterministic_for_fixed_stream(self):
        config = CalibrationConfig(observed_sigma=17.68)
        a = calibrate(config, make_stream(7, VISUAL_STREAM_INDEX))
        b = calibrate(config, make_stream(7, VISUAL_STREAM_INDEX))
        assert np.array_equal(a.parameter_chain, b.parameter_chain)
        assert np.array_equal(a.predictive_draws, b.predictive_draws)
        assert a.acceptance_rate == b.acceptance_rate

    def test_different_streams_differ(self):
        config = CalibrationConfig(observed_sigma=17.68)
        a = calibrate(config, make_stream(7, VISUAL_STREAM_INDEX))
        b = calibrate(config, make_stream(7, SIMPSON_STREAM_INDEX))
        assert not np.array_equal(a.parameter_chain, b.parameter_chain)

    def test_kept_sizes_and_positivity(self):
        config = CalibrationConfig(observed_sigma=8.63, chain_length=4000,
                                   kept_samples=1200, burn_in=400)
        post = calibrate(config, make_stream(0, 0))
        assert post.parameter_chain.shape == (1200,)
        assert post.predictive_draws.shape == (1200,)
        assert np.all(post.parameter_chain > 0)
        assert np.all(post.predictive_draws > 0)
        assert 0.0 < post.acceptance_rate < 1.0

    def test_posterior_concentrates_near_observed_value(self):
        post = calibrate(CalibrationConfig(observed_sigma=17.68), make_stream(7, 0))
        assert np.mean(post.parameter_chain) == pytest.approx(17.68, abs=1.2)

    def test_heavier_observation_weight_tightens_posterior(self):
        light = calibrate(CalibrationConfig(observed_sigma=17.68, observation_weight=4.0,
                                            proposal_sd=7.0), make_stream(3, 0))
        heavy = calibrate(CalibrationConfig(observed_sigma=17.68, observation_weight=48.0,
                                            proposal_sd=7.0), make_stream(3, 0))
        assert np.std(heavy.parameter_chain) < np.std(light.parameter_chain)

    def test_oversized_proposal_warns(self):
        config = CalibrationConfig(observed_sigma=17.68, proposal_sd=500.0,
                                   chain_length=3000, kept_samples=500, burn_in=300)
        with pytest.warns(AcceptanceRateWarning):
            calibrate(config, make_stream(0, 0))

    def test_self_tuning_restores_healthy_acceptance(self):
        config = CalibrationConfig(observed_sigma=17.68, proposal_sd=500.0,
                                   tune_proposal=True)
        post = calibrate(config, make_stream(0, 0))
        assert 0.1 <= post.acceptance_rate <= 0.6


class TestConfigValidation:
    def test_kept_cannot_exceed_post_burn_chain(self):
        with pytest.raises(InvalidParameterError):
            CalibrationConfig(observed_sigma=10.0, chain_length=1000,
                              burn_in=900, kept_samples=200)

    @pytest.mark.parametrize("field,value", [
        ("observed_sigma", 0.0),
        ("likelihood_shape", -1.0),
        ("prior_shape", 0.0),
        ("prior_rate", 0.0),
        ("chain_length", 0),
        ("kept_samples", 0),
        ("burn_in", -1),
        ("observation_weight", 0.0),
        ("proposal_sd", -0.5),
        ("chain_length", 20000.5),
        ("kept_samples", 500.0),
        ("burn_in", 10.0),
        ("burn_in", "10"),
    ])
    def test_nonpositive_parameters_rejected(self, field, value):
        kwargs = {"observed_sigma": 10.0, field: value}
        with pytest.raises(InvalidParameterError):
            CalibrationConfig(**kwargs)


class TestReductionDistribution:
    def test_r_matches_pairwise_formula(self):
        v, s, red = paired_calibration(18.1, 8.8, make_stream(1, VISUAL_STREAM_INDEX),
                                       make_stream(1, SIMPSON_STREAM_INDEX))
        omega = v.predictive_draws / s.predictive_draws
        assert np.array_equal(red.r_draws, -1.0 / (omega + 1.0))
        assert np.all(red.r_draws > -1.0) and np.all(red.r_draws < 0.0)

    def test_variance_mode_squares_the_ratio(self):
        v, s, red = paired_calibration(18.1, 8.8, make_stream(1, VISUAL_STREAM_INDEX),
                                       make_stream(1, SIMPSON_STREAM_INDEX),
                                       mode="variance")
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


class TestChainDiagnostics:
    def test_constant_chain_reports_floor_values(self):
        diag = chain_diagnostics(_posterior(np.full(200, 2.0)))
        assert diag.lag1_autocorrelation == 0.0
        assert diag.effective_sample_size == 1.0

    def test_iid_chain_has_near_full_ess(self):
        chain = np.random.default_rng(5).normal(size=2000)
        diag = chain_diagnostics(_posterior(chain))
        assert abs(diag.lag1_autocorrelation) < 0.1
        assert 1000 <= diag.effective_sample_size <= 2000

    def test_random_walk_chain_has_small_ess(self):
        chain = np.cumsum(np.random.default_rng(5).normal(size=2000))
        diag = chain_diagnostics(_posterior(chain))
        assert diag.lag1_autocorrelation > 0.9
        assert diag.effective_sample_size < 400

    def test_empty_chain_rejected(self):
        empty = ErrorPosterior(
            parameter_chain=np.array([]),
            predictive_draws=np.array([]),
            acceptance_rate=0.4,
            summary=summarize([1.0]),
        )
        with pytest.raises(InvalidParameterError):
            chain_diagnostics(empty)

    def test_ess_never_exceeds_chain_length(self):
        post = calibrate(CalibrationConfig(observed_sigma=17.68), make_stream(11, 0))
        diag = chain_diagnostics(post)
        assert 1.0 <= diag.effective_sample_size <= post.parameter_chain.size


@st.composite
def _chain_configs(draw):
    """Small chains; proposal_sd up to 20 observed sigmas proposes mu <= 0
    about half the time."""
    sigma = draw(st.sampled_from([1e-3, 0.5, 8.8, 18.1, 1e4])
                 | st.floats(1e-3, 1e3, allow_subnormal=False))
    chain_length = draw(st.integers(2, 400))
    burn_in = draw(st.integers(1, chain_length - 1))
    return CalibrationConfig(
        observed_sigma=sigma,
        likelihood_shape=draw(st.sampled_from([0.5, 2.0, 8.0, 3.7])),
        prior_shape=draw(st.sampled_from([1e-3, 1.0, 3.0])),
        prior_rate=draw(st.sampled_from([1e-3, 0.5])),
        chain_length=chain_length,
        burn_in=burn_in,
        kept_samples=draw(st.integers(1, chain_length - burn_in)),
        proposal_sd=draw(st.none() | st.floats(0.01, 20.0).map(lambda f: f * sigma)),
        observation_weight=draw(st.sampled_from([1.0, 12.0, 40.0, 6.3])),
        tune_proposal=draw(st.booleans()),
    )


def _calibration_outcome(config, seed):
    """calibrate's posterior bytes, acceptance, warnings and diagnostics from
    the library and the oracle, or the error either raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            posterior = calibrate(config, make_stream(seed, VISUAL_STREAM_INDEX))
        except LvefFusionError as exc:
            return type(exc).__name__, str(exc)
    outcome = [posterior.parameter_chain.tobytes(), posterior.predictive_draws.tobytes(),
               posterior.acceptance_rate, [str(w.message) for w in caught]]
    for diagnose in (chain_diagnostics, calibration_oracle.chain_diagnostics):
        try:
            outcome.append(repr(diagnose(posterior)))
        except LvefFusionError as exc:
            outcome.append((type(exc).__name__, str(exc)))
    return outcome


class TestChainMatchesOracle:
    """The block-wise chain gives the per-step oracle's states byte for byte,
    its acceptance rate, and the per-lag oracle's diagnostics."""

    @settings(max_examples=200, deadline=None)
    @given(config=_chain_configs(), seed=st.integers(0, 2**32),
           block=st.sampled_from((1, 3, 64, calibration.CHAIN_BLOCK)))
    def test_matches_oracle(self, config, seed, block):
        sd = config.initial_proposal_sd()
        expected = calibration_oracle._run_chain(
            config.observed_sigma, sd, config.chain_length, config, make_stream(seed, 0))
        with mock.patch.object(calibration, "CHAIN_BLOCK", block):
            states, rate = calibration._run_chain(
                config.observed_sigma, sd, config.chain_length, config, make_stream(seed, 0))
            outcome = _calibration_outcome(config, seed)
        assert states.tobytes() == expected[0].tobytes()
        assert rate == expected[1]
        with mock.patch.object(calibration, "_run_chain", calibration_oracle._run_chain):
            assert outcome == _calibration_outcome(config, seed)
        if isinstance(outcome, list):
            assert outcome[-1] == outcome[-2]

    @settings(max_examples=300, deadline=None)
    @given(config=_chain_configs(),
           mu=st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e300])
           | st.floats(-10.0, 1e4, allow_nan=False))
    def test_log_posterior_matches_oracle(self, config, mu):
        """The hoisted terms keep the per-step arithmetic and its order."""
        value = calibration._log_posterior(config)(mu)
        assert repr(value) == repr(calibration_oracle._log_posterior(mu, config))

    @pytest.mark.parametrize("sigma", [8.8, 18.1])
    def test_default_chain_matches_oracle(self, sigma):
        """The full default chain spans several blocks, and its diagnostics
        run to the 1000-lag cap."""
        config = CalibrationConfig(observed_sigma=sigma)
        outcome = _calibration_outcome(config, 1)
        with mock.patch.object(calibration, "_run_chain", calibration_oracle._run_chain):
            assert outcome == _calibration_outcome(config, 1)
        assert outcome[-1] == outcome[-2]
