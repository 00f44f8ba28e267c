"""Synthetic cohort generator: grids, clipping, hazards, determinism."""

import numpy as np
import pytest

from lvef_fusion.errors import InvalidParameterError
from lvef_fusion.fusion import InstrumentSigma, fused_estimates
from lvef_fusion.fusion import LVEF_RANGE
from lvef_fusion.simulate import SimConfig, simulate
from lvef_fusion.stochastics import SIM_STREAM_INDEX, make_stream
from sim_helpers import concordant_config, rmse_vs_truth


def _arrays(cohort):
    return cohort.visual, cohort.simpson, cohort.time, cohort.event


class TestDeterminism:
    def test_same_seed_reproduces_cohort(self):
        a = simulate(SimConfig(n_patients=200, seed=5))
        b = simulate(SimConfig(n_patients=200, seed=5))
        assert a == b
        assert np.array_equal(a.true_lvef, b.true_lvef)

    def test_different_seeds_differ(self):
        a = simulate(SimConfig(n_patients=200, seed=5))
        b = simulate(SimConfig(n_patients=200, seed=6))
        assert a != b

    def test_seed_field_keys_the_simulation_stream(self):
        truth = simulate(SimConfig(n_patients=50, seed=5)).true_lvef
        expected = np.clip(make_stream(5, SIM_STREAM_INDEX).normal(55.78, 11.37, 50), *LVEF_RANGE)
        assert np.array_equal(truth, expected)


class TestGeneratedValues:
    def setup_method(self):
        self.cohort = simulate(SimConfig(seed=7))
        self.visual, self.simpson, self.time, self.event = _arrays(self.cohort)

    def test_cohort_size_and_unique_ids(self):
        assert len(self.cohort) == 1366
        ids = list(self.cohort.patient_id)
        assert len(set(ids)) == len(ids)

    def test_visual_on_5_point_grid(self):
        assert np.all(np.abs(self.visual / 5.0 - np.round(self.visual / 5.0)) < 1e-9)
        assert self.visual.min() >= 5.0 and self.visual.max() <= 95.0

    def test_simpson_on_tenth_point_grid(self):
        assert np.all(np.abs(self.simpson * 10.0 - np.round(self.simpson * 10.0)) < 1e-6)
        assert self.simpson.min() >= 1.0 and self.simpson.max() <= 99.0

    def test_truth_clipped_to_physiologic_range(self):
        assert self.cohort.true_lvef.min() >= 1.0
        assert self.cohort.true_lvef.max() <= 99.0

    def test_truth_moments_match_generative_settings(self):
        assert np.mean(self.cohort.true_lvef) == pytest.approx(55.78, abs=1.0)
        assert np.std(self.cohort.true_lvef) == pytest.approx(11.37, abs=1.0)

    def test_event_iff_time_before_horizon(self):
        assert np.array_equal(self.event == 1, self.time < 365.0)
        assert np.all(self.time[self.event == 0] == 365.0)

    def test_composite_event_rate_is_plausible(self):
        assert 0.10 <= np.mean(self.event) <= 0.22

    def test_lower_lvef_raises_hazard(self):
        low = self.event[self.cohort.true_lvef < 45.0].mean()
        high = self.event[self.cohort.true_lvef > 65.0].mean()
        assert low > high


class TestRmse:
    def test_noisier_instrument_has_larger_rmse(self):
        for seed in range(5):
            cohort = simulate(SimConfig(seed=seed))
            visual, simpson, _, _ = _arrays(cohort)
            assert rmse_vs_truth(cohort, visual) > rmse_vs_truth(cohort, simpson)

    def test_fusion_beats_both_instruments_on_average(self):
        cohort = simulate(SimConfig(seed=7))
        visual, simpson, _, _ = _arrays(cohort)
        theta = fused_estimates(cohort, InstrumentSigma(18.1, 8.8))
        assert rmse_vs_truth(cohort, theta) < rmse_vs_truth(cohort, simpson)
        assert rmse_vs_truth(cohort, theta) < rmse_vs_truth(cohort, visual)

    def test_shape_mismatch_rejected(self):
        cohort = simulate(SimConfig(n_patients=10, seed=0))
        with pytest.raises(InvalidParameterError):
            rmse_vs_truth(cohort, np.zeros(9))


class TestConfig:
    def test_concordant_preset_shrinks_both_noise_scales(self):
        config = concordant_config()
        assert config.visual_noise_sd == pytest.approx(0.158 * 18.1)
        assert config.simpson_noise_sd == pytest.approx(0.158 * 8.8)

    def test_concordant_preset_accepts_overrides(self):
        config = concordant_config(n_patients=10, seed=3)
        assert config.n_patients == 10 and config.seed == 3

    @pytest.mark.parametrize("field,value", [
        ("n_patients", 0),
        ("true_lvef_sd", -0.5),
        ("visual_noise_sd", -1.0),
        ("baseline_hazard", 0.0),
        ("censor_horizon", 0.0),
        ("n_patients", 10.0),
        ("seed", 1.5),
        ("seed", -1),
        ("true_lvef_mean", float("nan")),
    ])
    def test_validation(self, field, value):
        with pytest.raises(InvalidParameterError):
            SimConfig(**{field: value})

    def test_paired_difference_scale_under_concordant_preset(self):
        cohort = simulate(concordant_config(seed=1))
        visual, simpson, _, _ = _arrays(cohort)
        diff_sd = np.std(visual - simpson)
        assert diff_sd == pytest.approx(3.2, abs=0.8)
