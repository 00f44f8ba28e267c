"""Uncertainty propagation: resampling, strata, percentile bands, sources."""

import multiprocessing
import os
from dataclasses import asdict
from time import monotonic, sleep
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import propagation_oracle as oracle
from lvef_fusion import propagation
from lvef_fusion.cohort import Cohort
from lvef_fusion.errors import (
    DegenerateDataError,
    InvalidParameterError,
    PropagationError,
)
from lvef_fusion.fusion import InstrumentSigma, fuse, fused_estimates, fused_sigma
from lvef_fusion.propagation import (
    SOURCES,
    STRATA,
    PropagationConfig,
    propagate,
    stratify,
)
from lvef_fusion.simulate import SimConfig, simulate
from lvef_fusion.stochastics import make_stream
from lvef_fusion.survival import (
    cox_fit_from_arrays,
    hazard_ratio_per,
    km_from_arrays,
    km_survival_at,
)
from sim_helpers import concordant_config

SIGMAS = InstrumentSigma(18.1, 8.8)


def _cohort(n=300, seed=11):
    return simulate(SimConfig(n_patients=n, seed=seed))


def _measurement(i, value, time, event):
    return (f"p{i}", value, value, time, event)


def _rows(rows):
    """A Cohort from (patient_id, visual, simpson, time, event) rows."""
    return Cohort(*zip(*rows))


def _config(**overrides):
    base = dict(source="visual", sigmas=SIGMAS, seed=0, replicates=50)
    base.update(overrides)
    return PropagationConfig(**base)


class TestFusedEstimates:
    def test_positive_sigmas_delegate_to_fusion(self):
        cohort = _cohort(n=50)
        assert fused_estimates(cohort, SIGMAS).tolist() == [
            fuse(v, s, SIGMAS).theta for v, s in zip(cohort.visual, cohort.simpson)]

    def test_both_sigmas_zero_gives_midpoint(self):
        cohort = _rows([("p0", 40.0, 50.0, 100.0, 1)])
        sigmas = InstrumentSigma(0.0, 0.0)
        (theta,) = fused_estimates(cohort, sigmas)
        assert theta == 45.0
        assert fused_sigma(sigmas) == 0.0

    def test_exact_visual_wins_outright(self):
        cohort = _rows([("p0", 40.0, 50.0, 100.0, 1)])
        sigmas = InstrumentSigma(0.0, 8.8)
        (theta,) = fused_estimates(cohort, sigmas)
        assert theta == 40.0
        assert fused_sigma(sigmas) == 0.0

    def test_exact_simpson_wins_outright(self):
        cohort = _rows([("p0", 40.0, 50.0, 100.0, 1)])
        sigmas = InstrumentSigma(18.1, 0.0)
        (theta,) = fused_estimates(cohort, sigmas)
        assert theta == 50.0
        assert fused_sigma(sigmas) == 0.0

    def test_continuous_at_vanishing_visual_sigma(self):
        cohort = _rows([("p0", 40.0, 50.0, 100.0, 1)])
        (limit,) = fused_estimates(cohort, InstrumentSigma(0.0, 8.8))
        (near,) = fused_estimates(cohort, InstrumentSigma(1e-8, 8.8))
        assert abs(near - limit) < 1e-5
        assert fused_sigma(InstrumentSigma(1e-8, 8.8)) < 1e-5


class TestStratify:
    def test_closed_middle_band(self):
        labels = stratify([34.999, 35.0, 42.0, 50.0, 50.001])
        assert list(labels) == ["low", "mid", "mid", "mid", "high"]

    def test_custom_edges(self):
        labels = stratify([30.0, 40.0, 60.0], band_edges=(40.0, 55.0))
        assert list(labels) == ["low", "mid", "high"]


def _assert_identical(a, b, path="summary"):
    """Equal bit for bit: same types, same float bits, same array dtypes."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            _assert_identical(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), path
    else:
        assert type(a) is type(b), path
        assert a == b or (a != a and b != b), f"{path}: {a!r} != {b!r}"


def _assert_matches_oracle(cohort, config):
    """propagate and the per-replicate oracle agree, in results or in errors."""
    try:
        expected = oracle.propagate(cohort, config)
    except Exception as exc:  # the engine must fail the same way
        with pytest.raises(type(exc)) as caught:
            propagate(cohort, config)
        assert str(caught.value) == str(exc)
        return None
    summary = propagate(cohort, config)
    _assert_identical(asdict(summary), asdict(expected))
    return summary


class TestRealizeLvef:
    """Replicate r draws from stream (seed, r): the oracle spells the draw
    out, and propagate must agree with the oracle."""

    def test_deterministic_per_stream(self):
        cohort = _cohort(n=100)
        config = _config(seed=9, replicates=5)
        a = oracle.realize(cohort, config, 4)
        b = oracle.realize(cohort, config, 4)
        assert np.array_equal(a, b)
        _assert_matches_oracle(cohort, config)

    def test_zero_spread_returns_centers(self):
        cohort = _cohort(n=100)
        config = _config(sigmas=InstrumentSigma(0.0, 0.0), seed=9, replicates=5)
        realized = oracle.realize(cohort, config, 4)
        assert np.array_equal(realized, cohort.visual)
        _assert_matches_oracle(cohort, config)

    def test_clamped_to_configured_range(self):
        cohort = _rows([_measurement(i, 50.0, 100.0, 1) for i in range(500)])
        config = _config(sigmas=InstrumentSigma(200.0, 8.8), replicates=3)
        realized = oracle.realize(cohort, config, 0)
        assert realized.min() == 1.0 and realized.max() == 99.0
        _assert_matches_oracle(cohort, config)

    def test_assimilated_uses_fused_centers(self):
        cohort = _cohort(n=100)
        config = _config(source="assimilated", seed=9, replicates=5)
        realized = oracle.realize(cohort, config, 4)
        theta = fused_estimates(cohort, SIGMAS)
        sigma = np.full(len(theta), fused_sigma(SIGMAS))
        expected = np.clip(make_stream(9, 4).generator.normal(theta, sigma), 1.0, 99.0)
        assert np.array_equal(realized, expected)
        _assert_matches_oracle(cohort, config)


class TestRunReplicate:
    """One replicate's analysis, through the oracle and through propagate."""

    def test_rates_in_unit_interval(self):
        cohort = _cohort()
        result = oracle.run_replicate(cohort, _config(), 7)
        assert result.replicate_index == 7
        assert set(result.event_rate_by_stratum) == set(STRATA)
        for rate in result.event_rate_by_stratum.values():
            assert rate is None or 0.0 <= rate <= 1.0
        assert result.hazard_ratio is None or result.hazard_ratio > 0

        summary = _assert_matches_oracle(cohort, _config(replicates=8))
        assert set(summary.event_rates) == set(STRATA)
        for stratum in summary.event_rates.values():
            rates = [] if stratum.quantiles is None else list(stratum.quantiles.values())
            assert all(0.0 <= rate <= 1.0 for rate in rates)
        assert summary.hazard_ratio_q025 > 0

    def test_no_events_rejected(self):
        censored = _rows([_measurement(i, 50.0 + i, 400.0, 0) for i in range(20)])
        with pytest.raises(DegenerateDataError):
            propagate(censored, _config())
        with pytest.raises(DegenerateDataError):
            oracle.run_replicate(censored, _config(), 0)


@st.composite
def _propagation_cases(draw):
    """Small cohorts with tied times, censorings tied with events, heavy
    censoring, narrow or far strata (absent ones, event-free ones), spreads
    from zero to wide (separating fits included), several replicate chunks
    and several band blocks."""
    n = draw(st.one_of(st.integers(2, 6), st.integers(2, 30)))
    times = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    event_share = draw(st.sampled_from([0.1, 0.5, 0.9]))
    events = draw(st.lists(st.floats(0, 1), min_size=n, max_size=n))
    # Values 0.005 apart separate the Cox fit in some draws and not others.
    values = st.one_of(st.lists(st.floats(20.0, 80.0), min_size=n, max_size=n),
                       st.just([21.0 + 0.005 * i for i in range(n)]))
    visual, simpson = draw(values), draw(values)
    cohort = _rows([(f"p{i}", visual[i], simpson[i], 30.0 * times[i],
                     int(events[i] < event_share)) for i in range(n)])
    sigmas = InstrumentSigma(draw(st.sampled_from([0.0, 1e-3, 0.5, 2.0, 18.1])),
                             draw(st.sampled_from([0.0, 0.5, 8.8])))
    config = PropagationConfig(
        source=draw(st.sampled_from(SOURCES)),
        sigmas=sigmas,
        seed=draw(st.integers(0, 2**32)),
        replicates=draw(st.integers(2, 12)),
        horizon=draw(st.sampled_from([45.0, 200.0, 365.0])),
        band_edges=draw(st.sampled_from([(35.0, 50.0), (10.0, 11.0), (49.0, 51.0)])),
    )
    per_chunk = draw(st.integers(1, config.replicates + 1))
    band_elements = draw(st.sampled_from([1, 5, 16, propagation.BAND_ELEMENTS]))
    cpus = draw(st.sampled_from([1, 2, 3]))
    return cohort, sigmas, config, per_chunk * n, band_elements, cpus


def _cpus(count):
    """Patch the CPU count propagate splits its chunks over."""
    return mock.patch.object(propagation, "_cpu_count", return_value=count)


class TestMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(_propagation_cases())
    def test_bit_identical_to_per_replicate_loop(self, case):
        cohort, sigmas, config, chunk_elements, band_elements, cpus = case
        with mock.patch.object(propagation, "CHUNK_ELEMENTS", chunk_elements), \
                mock.patch.object(propagation, "BAND_ELEMENTS", band_elements), _cpus(cpus):
            _assert_matches_oracle(cohort, config)

    @pytest.mark.parametrize("chunk_elements", [1, 7 * 300, propagation.CHUNK_ELEMENTS])
    def test_chunks_on_a_simulated_cohort(self, chunk_elements):
        cohort = _cohort()
        # 3 CPUs split 20 one-replicate chunks 6/7/7 and 3 seven-replicate
        # chunks one each; one chunk of 20 starts no child.
        for cpus in (1, 2, 3):
            with mock.patch.object(propagation, "CHUNK_ELEMENTS", chunk_elements), _cpus(cpus):
                for source in SOURCES:
                    _assert_matches_oracle(cohort, _config(source=source, replicates=20))


class TestWorkers:
    """Forked children: errors reach the caller, and none outlives propagate."""

    @staticmethod
    def _propagate(cpus=2):
        cohort = _cohort()
        with mock.patch.object(propagation, "CHUNK_ELEMENTS", 300), _cpus(cpus):
            return propagate(cohort, _config(replicates=12))

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_share_error_is_raised_with_its_type_and_message(self, failing):
        pid = os.getpid()
        fit = propagation._cox_fit_rows

        def cox(*args):
            in_parent = os.getpid() == pid
            if in_parent == (failing == "parent"):
                raise InvalidParameterError("boom")
            if not in_parent:
                sleep(60)  # only being terminated ends these children early
            return fit(*args)

        start = monotonic()
        with mock.patch.object(propagation, "_cox_fit_rows", cox):
            with pytest.raises(InvalidParameterError) as caught:
                self._propagate(cpus=3)
        assert monotonic() - start < 30
        assert type(caught.value) is InvalidParameterError
        assert str(caught.value) == "boom"
        assert multiprocessing.active_children() == []

    def test_child_exit_is_named(self):
        pid = os.getpid()
        fit = propagation._cox_fit_rows

        def cox(*args):
            if os.getpid() != pid:
                os._exit(7)
            return fit(*args)

        with mock.patch.object(propagation, "_cox_fit_rows", cox):
            with pytest.raises(PropagationError, match="exited with code 7"):
                self._propagate()
        assert multiprocessing.active_children() == []

    def test_children_joined_after_success(self):
        summary = self._propagate(cpus=3)
        assert multiprocessing.active_children() == []
        _assert_identical(asdict(summary), asdict(self._propagate(cpus=1)))


class TestPropagateDeterminism:
    def test_bit_reproducible(self):
        cohort = _cohort()
        a = propagate(cohort, _config(seed=21))
        b = propagate(cohort, _config(seed=21))
        assert a.hazard_ratio_mean == b.hazard_ratio_mean
        assert a.hazard_ratio_q025 == b.hazard_ratio_q025
        assert a.hazard_ratio_q975 == b.hazard_ratio_q975
        for label in STRATA:
            band_a, band_b = a.km_bands[label], b.km_bands[label]
            if band_a is None:
                assert band_b is None
                continue
            assert np.array_equal(band_a.times, band_b.times)
            assert np.array_equal(band_a.lower, band_b.lower)
            assert np.array_equal(band_a.mean, band_b.mean)
            assert np.array_equal(band_a.upper, band_b.upper)

    def test_seed_changes_results(self):
        cohort = _cohort()
        a = propagate(cohort, _config(seed=21))
        b = propagate(cohort, _config(seed=22))
        assert a.hazard_ratio_mean != b.hazard_ratio_mean


class TestBands:
    @pytest.mark.parametrize("source", SOURCES)
    def test_nesting_everywhere(self, source):
        cohort = _cohort()
        summary = propagate(cohort, _config(source=source, seed=3, replicates=60))
        assert summary.hazard_ratio_q025 <= summary.hazard_ratio_mean
        assert summary.hazard_ratio_mean <= summary.hazard_ratio_q975
        for stratum in summary.event_rates.values():
            if stratum.mean_event_rate is None:
                assert stratum.n_present == 0
                continue
            assert stratum.quantiles[0.025] <= stratum.mean_event_rate
            assert stratum.mean_event_rate <= stratum.quantiles[0.975]
        for band in summary.km_bands.values():
            if band is None:
                continue
            assert np.all(band.lower <= band.mean)
            assert np.all(band.mean <= band.upper)
            assert np.all(np.diff(band.times) > 0)

    def test_band_mean_escaping_percentiles_is_absorbed(self):
        # 3 replicate curves drop at t=10, 197 stay flat: the pointwise mean
        # (0.9925) lies below the interpolated 2.5% percentile (1.0), and the
        # envelope must widen to keep the nesting invariant.
        time = np.array([10.0, 400.0, 400.0])
        event = np.array([1, 0, 0])
        drop, flat = [True, True, False], [False, True, True]
        curves = propagation._StratumCurves(200)
        mask = np.array([drop] * 3 + [flat] * 197)
        curves.add(0, *propagation._fit_stratum(mask, 0, time, event, 365.0))
        band = curves.band()
        assert band.lower[0] == band.mean[0] == pytest.approx(0.9925)
        assert band.upper[0] == 1.0

        expected = oracle.km_band([km_from_arrays(time[drop], event[drop])] * 3
                                  + [km_from_arrays(time[flat], event[flat])] * 197)
        _assert_identical(asdict(band), asdict(expected))

    def test_zero_noise_collapses_to_exact_analysis(self):
        cohort = _cohort()
        sigmas = InstrumentSigma(0.0, 0.0)
        config = _config(source="assimilated", sigmas=sigmas, replicates=20)
        summary = propagate(cohort, config)

        assert summary.hazard_ratio_q025 == summary.hazard_ratio_mean
        assert summary.hazard_ratio_mean == summary.hazard_ratio_q975

        values = fused_estimates(cohort, sigmas)
        time = cohort.time
        event = cohort.event
        fit = cox_fit_from_arrays(time, event, values)
        exact_hr, _, _ = hazard_ratio_per(fit, 5.0)
        assert summary.hazard_ratio_mean == exact_hr

        labels = stratify(values)
        for label in STRATA:
            band = summary.km_bands[label]
            mask = labels == label
            if not mask.any():
                assert band is None
                continue
            assert np.array_equal(band.lower, band.mean)
            assert np.array_equal(band.upper, band.mean)
            curve = km_from_arrays(time[mask], event[mask])
            assert np.array_equal(band.times, curve.times)
            assert np.array_equal(band.mean, km_survival_at(curve, band.times))


class TestSourceComparisons:
    @staticmethod
    def _band_width(cohort, sigmas, source):
        config = PropagationConfig(source=source, sigmas=sigmas, seed=0,
                                   replicates=200)
        summary = propagate(cohort, config)
        return summary.hazard_ratio_q975 - summary.hazard_ratio_q025

    def test_assimilated_band_no_wider_than_simpson(self):
        sim = SimConfig(seed=0)
        cohort = simulate(sim)
        sigmas = InstrumentSigma(sim.visual_noise_sd, sim.simpson_noise_sd)
        assim = self._band_width(cohort, sigmas, "assimilated")
        simpson = self._band_width(cohort, sigmas, "simpson")
        assert assim <= simpson

    def test_assimilated_band_narrower_than_visual_when_concordant(self):
        sim = concordant_config(seed=0)
        cohort = simulate(sim)
        sigmas = InstrumentSigma(sim.visual_noise_sd, sim.simpson_noise_sd)
        assim = self._band_width(cohort, sigmas, "assimilated")
        visual = self._band_width(cohort, sigmas, "visual")
        assert assim < visual

    def test_low_stratum_event_rate_highest(self):
        # The generative hazard decreases with LVEF, so the low stratum must
        # carry the highest event rate and mid sits close to high.
        cohort = simulate(SimConfig(seed=0))
        summary = propagate(cohort, _config(source="assimilated", replicates=200))
        rates = {k: v.mean_event_rate for k, v in summary.event_rates.items()}
        assert rates["low"] > rates["mid"]
        assert rates["low"] > rates["high"]
        assert abs(rates["mid"] - rates["high"]) < 0.06


class TestFailureHandling:
    # Four patients whose events sit at the extreme low end of a covariate
    # with 0.005-point gaps: any order-preserving resample separates.
    _SEPARABLE = _rows([
        ("p0", 21.000, 21.000, 10.0, 1),
        ("p1", 21.005, 21.005, 20.0, 1),
        ("p2", 21.010, 21.010, 400.0, 0),
        ("p3", 21.015, 21.015, 400.0, 0),
    ])

    def test_all_replicates_failed_raises(self):
        config = _config(sigmas=InstrumentSigma(1e-6, 8.8), replicates=5)
        with pytest.raises(PropagationError, match="all 5 replicates"):
            propagate(self._SEPARABLE, config)

    def test_partial_failures_counted_not_dropped(self):
        # Noise comparable to the gaps reshuffles the order in some
        # replicates, so only a subset of fits separates.
        config = _config(sigmas=InstrumentSigma(5e-3, 8.8), replicates=40)
        summary = propagate(self._SEPARABLE, config)
        assert 0 < summary.failed_replicates < 40

    def test_healthy_run_has_no_failures(self):
        summary = propagate(_cohort(), _config())
        assert summary.failed_replicates == 0
        assert summary.replicates == 50

    def test_absent_stratum_marked_not_zero(self):
        high = _rows([_measurement(i, 70.0 + (i % 20), 30.0 + 10.0 * i, i % 2)
                      for i in range(30)])
        config = _config(sigmas=InstrumentSigma(0.5, 8.8), replicates=10)
        summary = propagate(high, config)
        for label in ("low", "mid"):
            assert summary.event_rates[label].n_present == 0
            assert summary.event_rates[label].mean_event_rate is None
            assert summary.km_bands[label] is None
        assert summary.event_rates["high"].n_present == 10

    def test_no_events_rejected(self):
        censored = _rows([_measurement(i, 50.0 + i, 400.0, 0) for i in range(20)])
        with pytest.raises(DegenerateDataError):
            propagate(censored, _config())


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        {"source": "bogus"},
        {"replicates": 1},
        {"horizon": 0.0},
        {"horizon": -5.0},
        {"horizon": float("inf")},
        {"horizon": float("nan")},
        {"band_edges": (50.0, 35.0)},
        {"band_edges": (0.0, 50.0)},
        {"band_edges": (35.0, 100.0)},
        {"seed": -1},
        {"seed": 2**64},
        {"seed": 1.5},
        {"seed": 1.0},
        {"seed": "1"},
        {"replicates": 20.0},
        {"replicates": "20"},
    ])
    def test_invalid_config_rejected(self, overrides):
        with pytest.raises(InvalidParameterError):
            _config(**overrides)

    def test_defaults(self):
        config = PropagationConfig(source="visual", sigmas=SIGMAS, seed=0)
        assert config.replicates == 1000
        assert config.horizon == 365.0
        assert config.band_edges == (35.0, 50.0)
