"""Uncertainty propagation: resampling, strata, percentile bands, sources."""

import os
import pickle
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from fractions import Fraction
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
    _strata_masks,
    propagate,
    stratum_km,
)
from lvef_fusion.simulate import SimConfig, simulate
from lvef_fusion.stochastics import make_stream, summarize
from lvef_fusion.survival import (
    KmCurve,
    cox_fit_from_arrays,
    hazard_ratio_per,
    km_event_rate_at,
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


def _labels(values, band_edges=PropagationConfig.band_edges) -> list:
    """Each value's stratum under _strata_masks, whose masks must partition them."""
    masks = _strata_masks(np.asarray(values, dtype=float), band_edges)
    assert list(masks) == list(STRATA)
    assert np.array_equal(sum(m.astype(int) for m in masks.values()), np.ones(len(values)))
    return [next(label for label, mask in masks.items() if mask[i])
            for i in range(len(values))]


class TestStratify:
    def test_closed_middle_band(self):
        labels = _labels([34.999, 35.0, 42.0, 50.0, 50.001])
        assert labels == ["low", "mid", "mid", "mid", "high"]

    def test_custom_edges(self):
        labels = _labels([30.0, 40.0, 60.0], band_edges=(40.0, 55.0))
        assert labels == ["low", "mid", "high"]

    def test_stratum_km_refuses_reversed_edges(self):
        # Reversed edges would leave mid empty and put 40 in low.
        with pytest.raises(InvalidParameterError, match="band_edges"):
            stratum_km([30.0, 40.0, 60.0], [1.0, 2.0, 3.0], [1, 1, 1], (50.0, 35.0), 365.0)


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

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**64 - 1),
           centers=st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=40),
           spread=st.one_of(st.sampled_from([0.0, 5.92, 8.8, 18.1]), st.floats(0.0, 300.0)))
    def test_normal_is_shifted_scaled_standard_normal(self, seed, index, centers, spread):
        # propagate draws standard normals and scales and shifts them in
        # place, which gives normal(loc, scale)'s numbers only while numpy
        # rounds loc + scale * z once per operation.
        centers = np.array(centers)
        expected = make_stream(seed, index).normal(loc=centers, scale=spread)
        z = make_stream(seed, index).standard_normal(centers.size)
        z *= spread
        z += centers
        assert z.tobytes() == expected.tobytes(), (
            "Generator.normal(loc, scale) is not loc + scale * standard_normal() "
            "bit for bit; a numpy built to fuse the multiply-add (an FMA "
            "platform) breaks this, and with it propagate's match with its oracle")

    def test_assimilated_uses_fused_centers(self):
        cohort = _cohort(n=100)
        config = _config(source="assimilated", seed=9, replicates=5)
        realized = oracle.realize(cohort, config, 4)
        theta = fused_estimates(cohort, SIGMAS)
        sigma = np.full(len(theta), fused_sigma(SIGMAS))
        expected = np.clip(make_stream(9, 4).normal(theta, sigma), 1.0, 99.0)
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
            rates = [] if stratum is None else list(stratum.quantiles.values())
            assert all(0.0 <= rate <= 1.0 for rate in rates)
        assert summary.hazard_ratio.quantiles[0.025] > 0

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
    and several band blocks.  The follow-up runs from 30 to 360 days, so a
    15-day horizon lies before every time and a 360-day one may tie one."""
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
        horizon=draw(st.sampled_from([15.0, 45.0, 200.0, 360.0, 365.0])),
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

    def test_chunking_does_not_shape_the_band(self):
        # The same summary, bit for bit, from 200 one-replicate chunks, from
        # 29 chunks of 7 and from one chunk of 200, in one process or split
        # between three.
        cohort = _cohort()
        summaries = []
        for chunk_elements in (1, 7 * 300, propagation.CHUNK_ELEMENTS):
            for cpus in (1, 3):
                with mock.patch.object(propagation, "CHUNK_ELEMENTS", chunk_elements), \
                        _cpus(cpus):
                    summaries.append(asdict(propagate(cohort, _config(seed=5, replicates=200))))
        for summary in summaries[1:]:
            _assert_identical(summary, summaries[0])


def _open_fds():
    """This process's open file descriptors, or None where /proc is absent."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _assert_nothing_left(fds):
    """No child process is left, reaped or not, and no fd beyond fds is open."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if fds is not None:
        assert _open_fds() == fds


class TestWorkers:
    """Forked children: errors reach the caller, and none outlives propagate."""

    @staticmethod
    def _propagate(cpus=2):
        cohort = _cohort()
        with mock.patch.object(propagation, "CHUNK_ELEMENTS", 300), _cpus(cpus):
            return propagate(cohort, _config(replicates=12))

    @staticmethod
    def _in_child(act):
        """A patch of _cox_fit_rows that runs act() first in every forked child."""
        pid = os.getpid()
        fit = propagation._cox_fit_rows

        def cox(*args):
            if os.getpid() != pid:
                act()
            return fit(*args)

        return mock.patch.object(propagation, "_cox_fit_rows", cox)

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_share_error_is_raised_with_its_type_and_message(self, failing):
        fds = _open_fds()
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
        _assert_nothing_left(fds)

    def test_child_exit_is_named(self):
        fds = _open_fds()
        with self._in_child(lambda: os._exit(7)):
            with pytest.raises(PropagationError, match="exited with code 7"):
                self._propagate()
        _assert_nothing_left(fds)

    def test_killed_child_is_named_by_its_signal(self):
        fds = _open_fds()
        with self._in_child(lambda: os.kill(os.getpid(), signal.SIGKILL)):
            with pytest.raises(PropagationError, match="exited with code -9 before sending"):
                self._propagate()
        _assert_nothing_left(fds)

    def test_torn_pickle_is_named(self):
        fds = _open_fds()

        def half(result, pipe):
            data = pickle.dumps(result)
            pipe.write(data[:len(data) // 2])
            pipe.flush()
            os._exit(5)

        with mock.patch.object(pickle, "dump", half):
            with pytest.raises(PropagationError, match="exited with code 5 before sending"):
                self._propagate()
        _assert_nothing_left(fds)

    def test_children_joined_after_success(self):
        fds = _open_fds()
        summary = self._propagate(cpus=3)
        _assert_nothing_left(fds)
        _assert_identical(asdict(summary), asdict(self._propagate(cpus=1)))

    def test_forking_imports_no_multiprocessing(self):
        script = (
            "import os, sys\n"
            "from lvef_fusion import propagation\n"
            "from lvef_fusion.fusion import InstrumentSigma\n"
            "from lvef_fusion.simulate import SimConfig, simulate\n"
            "fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(None) or fork()\n"
            "propagation.CHUNK_ELEMENTS, propagation._cpu_count = 300, lambda: 2\n"
            "propagation.propagate(simulate(SimConfig(n_patients=300, seed=11)),\n"
            "    propagation.PropagationConfig('visual', InstrumentSigma(18.1, 8.8),\n"
            "                                  replicates=12))\n"
            "print(len(forks), 'multiprocessing' in sys.modules)\n"
        )
        # The package this process imported, installed or from src.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(propagation.__file__)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1 False\n"


class TestPropagateDeterminism:
    def test_bit_reproducible(self):
        cohort = _cohort()
        a = propagate(cohort, _config(seed=21))
        b = propagate(cohort, _config(seed=21))
        assert a.hazard_ratio == b.hazard_ratio
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
        assert a.hazard_ratio.mean != b.hazard_ratio.mean


@st.composite
def _band_cases(draw):
    """One stratum's (present, steps, columns, survival) chunk parts, as
    _fit_stratum hands them to its summary: random distinct follow-up
    times, each a grid column, replicates absent from the stratum, present
    curves without steps, survival values that often coincide across
    curves, and a horizon from before the first time to the last.  The
    chunks fall in shares."""
    times = np.cumsum(draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=12)))
    # From about 64 curves on, a column's first-part sum reaches 2**6, past
    # which adding the second parts rounds, so the order in which the read
    # adds the three sums shows.
    replicates = draw(st.one_of(st.integers(1, 4), st.integers(9, 24), st.integers(64, 160)))
    present = np.array(draw(st.lists(st.sampled_from([True, True, True, False]),
                                     min_size=replicates, max_size=replicates)))
    # A share of the values comes from a small common pool, the rest are
    # uniform draws whose sums round differently in different orders.
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    shared = draw(st.sampled_from([0.0, 0.5, 1.0]))
    curves = [None] * replicates
    # An absent replicate has no steps.
    steps = [(np.empty(0, dtype=np.intp), np.empty(0))] * replicates
    for r in np.flatnonzero(present):
        columns = np.array(sorted(draw(st.sets(st.integers(0, times.size - 1)))),
                           dtype=np.intp)
        survival = np.where(rng.random(columns.size) < shared,
                            rng.choice([0.25, 0.5, 1.0], columns.size),
                            rng.uniform(0.0, 1.0, columns.size))
        survival = np.sort(survival)[::-1]
        curves[r] = KmCurve(times=times[columns], survival=survival,
                            at_risk=np.ones(columns.size, dtype=np.int64),
                            events=np.ones(columns.size, dtype=np.int64))
        steps[r] = (columns, survival)
    per_chunk = draw(st.integers(1, replicates))
    parts = []
    for first in range(0, replicates, per_chunk):
        chunk = steps[first:first + per_chunk]
        parts.append((present[first:first + per_chunk],
                      np.array([columns.size for columns, _ in chunk]),
                      np.concatenate([columns for columns, _ in chunk]),
                      np.concatenate([survival for _, survival in chunk])))
    horizon_column = draw(st.integers(0, times.size))
    horizon = times[horizon_column - 1] if horizon_column else times[0] / 2
    return dict(parts=parts, times=times, horizon_column=horizon_column,
                shares=draw(st.integers(1, 3)),
                k=max(draw(st.sampled_from([2, 3, 30])), (replicates - 1) // 40 + 2),
                band_elements=draw(st.sampled_from([1, 2, 3, 5, 16, 2**16]))), \
        ([curve for curve in curves if curve is not None], horizon)


def _summarize(parts, times, horizon_column, shares=1, k=2):
    """One stratum's summary of parts, each chunk's (present, steps,
    columns, survival), taken in as propagate takes them: chunk by chunk
    into one summary per share of the chunks, then the shares merged in
    order."""
    cuts = [len(parts) * i // shares for i in range(shares + 1)]
    summaries = []
    for a, b in zip(cuts, cuts[1:]):
        share = parts[a:b]
        summary = propagation._BandSummary(times.size, k, horizon_column,
                                           sum(present.size for present, *_ in share))
        for part in share:
            summary.add(*part)
        summaries.append(summary)
    for other in summaries[1:]:
        summaries[0].merge(other)
    return summaries[0]


@st.composite
def _part_values(draw):
    """(n, a (replicate, column) matrix of band values of a cohort of n
    patients): 0, 1.0, Kaplan-Meier products of (r - d) / r factors whose
    risk sets shrink by at least the deaths, and uniform floats in [1/n, 1]."""
    n = draw(st.integers(1, 2**20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    replicates, columns = draw(st.integers(1, 300)), draw(st.integers(1, 4))

    def product():
        at_risk, survival = n, 1.0
        while at_risk > 1 and rng.random() < 0.9:
            deaths = int(rng.integers(1, at_risk))
            survival *= (at_risk - deaths) / at_risk
            at_risk = int(rng.integers(1, at_risk - deaths + 1))
        return survival

    kinds = rng.integers(0, 4, (replicates, columns))
    values = rng.uniform(1.0 / n, 1.0, (replicates, columns))
    values[kinds == 0] = 0.0
    values[kinds == 1] = 1.0
    values[kinds == 2] = [product() for _ in range(np.count_nonzero(kinds == 2))]
    return n, values


def _oracle_rates(curves, horizon):
    """The curves' event rates by the horizon, read curve by curve."""
    return summarize([km_event_rate_at(curve, horizon) for curve in curves])


class TestBands:
    @pytest.mark.parametrize("source", SOURCES)
    def test_nesting_everywhere(self, source):
        cohort = _cohort()
        summary = propagate(cohort, _config(source=source, seed=3, replicates=60))
        hazard_ratio = summary.hazard_ratio
        assert hazard_ratio.quantiles[0.025] <= hazard_ratio.mean
        assert hazard_ratio.mean <= hazard_ratio.quantiles[0.975]
        for label, stratum in summary.event_rates.items():
            if stratum is None:
                assert summary.km_bands[label] is None
                continue
            assert stratum.quantiles[0.025] <= stratum.mean
            assert stratum.mean <= stratum.quantiles[0.975]
        for band in summary.km_bands.values():
            if band is None:
                continue
            assert np.all(band.lower <= band.mean)
            assert np.all(band.mean <= band.upper)
            assert np.all(np.diff(band.times) > 0)

    @settings(max_examples=300, deadline=None)
    @given(_band_cases())
    def test_band_matches_oracle(self, case):
        case, (curves, horizon) = case
        band_elements = case.pop("band_elements")
        with mock.patch.object(propagation, "BAND_ELEMENTS", band_elements):
            rates, band = _summarize(**case).read(case["times"])
        expected = oracle.km_band(curves)
        if expected is None:
            assert rates is None and band is None
        else:
            _assert_identical(asdict(band), asdict(expected))
            _assert_identical(asdict(rates), asdict(_oracle_rates(curves, horizon)))

    @settings(max_examples=200, deadline=None)
    @given(_part_values(), st.data())
    def test_parts_sum_exactly_in_any_order(self, case, data):
        n, values = case
        parts = propagation._parts(values.copy())
        for value, high, middle, rest in zip(values.ravel(), *(p.ravel() for p in parts)):
            assert Fraction(high) + Fraction(middle) + Fraction(rest) == Fraction(value)
            # Each part on its grid: multiples of 2**-23 in [0, 1], of 2**-47
            # up to 2**-24 in size, and of 2**-52 / 2**bit_length(n) up to
            # 2**-48 in size.
            assert 0.0 <= high <= 1.0 and (Fraction(high) * 2**23).denominator == 1
            assert abs(middle) <= 2**-24 and (Fraction(middle) * 2**47).denominator == 1
            assert abs(rest) <= 2**-48
            assert (Fraction(rest) * 2**(52 + n.bit_length())).denominator == 1
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        replicates = values.shape[0]
        cuts = np.sort(rng.integers(0, replicates + 1, rng.integers(0, 6)))
        for part in parts:
            exact = [float(sum(map(Fraction, column))) for column in part.T]
            in_order, reversed_order = np.zeros(part.shape[1]), np.zeros(part.shape[1])
            for row in part:
                in_order += row
            for row in part[::-1]:
                reversed_order += row
            chunked = np.zeros(part.shape[1])
            for chunk in np.split(part, cuts):
                chunked += chunk.sum(axis=0)
            shuffled = part[rng.permutation(replicates)].sum(axis=0)
            for sums in (in_order, reversed_order, chunked, shuffled):
                assert [x.hex() for x in sums] == [x.hex() for x in exact]

    def test_band_mean_escaping_percentiles_is_absorbed(self):
        # 3 replicate curves drop at t=10, 197 stay flat: the pointwise mean
        # (0.9925) lies below the interpolated 2.5% percentile (1.0), and the
        # envelope must widen to keep the nesting invariant.
        time = np.array([10.0, 400.0, 400.0])
        event = np.array([1, 0, 0])
        # Each patient's rank among the distinct times, each rank's grid
        # column (one event time), and the 365-day horizon after it.
        rank, column = np.array([0, 1, 1]), np.array([0, 0])
        drop, flat = [True, True, False], [False, True, True]
        mask = np.array([drop] * 3 + [flat] * 197)
        summary = propagation._BandSummary(1, 6, 1, 200)
        propagation._fit_stratum(mask, rank, event, column, summary)
        rates, band = summary.read(np.array([10.0]))
        assert band.lower[0] == band.mean[0] == pytest.approx(0.9925)
        assert band.upper[0] == 1.0
        # The dropping curves reach S = 0.5 by the horizon, the flat ones 1.0.
        assert rates.mean == pytest.approx(0.0075)
        assert rates.quantiles[0.025] == 0.0
        assert rates.n == 200

        curves = ([km_from_arrays(time[drop], event[drop])] * 3
                  + [km_from_arrays(time[flat], event[flat])] * 197)
        _assert_identical(asdict(band), asdict(oracle.km_band(curves)))
        _assert_identical(asdict(rates), asdict(_oracle_rates(curves, 365.0)))

    def test_row_lookup_carries_across_block_edges(self):
        # Five replicates on a grid of 12 event times; 4 present curves in
        # blocks of 3 columns give 4 blocks.  Replicate 0 has a row in every
        # block, replicate 1 none in blocks 1 and 2, replicate 3 its first
        # event in the last block, replicate 4 no event at all, and
        # replicate 2 no patient in the stratum.  The follow-up also holds
        # 13 censoring times (15, 45, ..., 375 days), which are no column.
        events = {0: [1, 4, 5, 6, 7, 8, 9, 11], 1: [2, 3, 12], 3: [10, 12], 4: []}
        present = np.array([True, True, False, True, True])
        follow_up = 15.0 * np.arange(1, 26)
        grid = follow_up[1::2]
        rng = np.random.default_rng(5)
        chunks, stored = [], []
        for first, stop in ((0, 2), (2, 5)):
            steps, curves = [], []
            for r in range(first, stop):
                columns = np.array(events.get(r, []), dtype=np.intp) - 1
                survival = np.sort(rng.uniform(0.1, 1.0, columns.size))[::-1]
                if present[r]:
                    curves.append(KmCurve(times=grid[columns], survival=survival,
                                          at_risk=np.ones(columns.size, dtype=np.int64),
                                          events=np.ones(columns.size, dtype=np.int64)))
                steps.append((columns, survival))
            columns, survival = zip(*steps)
            stored.append((present[first:stop], np.array([c.size for c in columns]),
                           np.concatenate(columns), np.concatenate(survival)))
            chunks.append(curves)
        # A 200-day horizon follows 6 event times (30, ..., 180 days):
        # replicates 0 and 1 read a step before it, replicate 3 none yet
        # (S = 1.0).
        with mock.patch.object(propagation, "BAND_ELEMENTS", 12):
            rates, band = _summarize(stored, grid, 6).read(grid)
        assert band.times.size == 12
        _assert_identical(asdict(band), asdict(oracle.km_band(chunks[0] + chunks[1])))
        _assert_identical(asdict(rates),
                          asdict(_oracle_rates(chunks[0] + chunks[1], 200.0)))

    @pytest.mark.parametrize("unblocked", [False, True])
    def test_band_read_memory_is_bounded_by_its_blocks(self, unblocked):
        # 400 curves of 1000 steps each among 5000 columns, in four chunks.
        # Beyond its parts, the summary holds its own arrays (k = 11
        # smallest and largest values, three sums and one rate per curve), a
        # chunk's step keys and S values while it takes the chunk in, and
        # at a time one block of about BAND_ELEMENTS cells: their step
        # numbers, their S values, the partition's union with the kept
        # values and the rebuilt columns the percentiles are read from, all
        # within 8 * BAND_ELEMENTS * 8 bytes.  One block of a whole chunk's
        # cells (100 x 5000) takes far more.
        curves, columns, steps = 400, 5000, 1000
        times = np.arange(1.0, columns + 1.0)
        rng = np.random.default_rng(3)
        k = (curves - 1) // 40 + 2
        bound = ((2 * k + 3) * columns + curves + 2 * (curves // 4) * steps
                 + 8 * propagation.BAND_ELEMENTS) * 8
        tracemalloc.start()
        try:
            parts = [(np.ones(100, dtype=bool), np.full(100, steps),
                      np.concatenate([np.sort(rng.choice(columns, steps, replace=False))
                                      for _ in range(100)]),
                      np.sort(rng.random((100, steps)), axis=1)[:, ::-1].ravel())
                     for _ in range(curves // 100)]
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            band_elements = 100 * columns if unblocked else propagation.BAND_ELEMENTS
            with mock.patch.object(propagation, "BAND_ELEMENTS", band_elements):
                _, band = _summarize(parts, times, columns // 2, k=k).read(times)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert band.times.size == columns
        assert (peak > bound) if unblocked else (peak < bound)

    def test_peak_memory_does_not_grow_with_the_replicates(self):
        # From R = 50 to R = 1000 each stratum's summary grows by its kept
        # values, k = (R - 1) // 40 + 2 per side and grid column, and by
        # one event rate per replicate, and the source by one hazard ratio
        # per replicate; its three sums per column do not grow, nor does
        # anything with the curves' steps, which at R = 1000 take about
        # 2 MB more than at R = 50 on this cohort.
        cohort = simulate(SimConfig(n_patients=1366, seed=1))
        columns = np.unique(cohort.time[cohort.event > 0]).size

        def state(replicates):
            k = (replicates - 1) // 40 + 2
            return 8 * (len(STRATA) * ((2 * k + 3) * columns + replicates) + replicates)

        peaks = {}
        with _cpus(1):
            propagate(cohort, _config(source="assimilated", replicates=2))
            for replicates in (50, 1000):
                tracemalloc.start()
                try:
                    propagate(cohort, _config(source="assimilated", replicates=replicates))
                    peaks[replicates] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[1000] - peaks[50] < state(1000) - state(50) + 0.25e6

    @settings(max_examples=200, deadline=None)
    @given(m=st.one_of(st.integers(1, 90), st.integers(1, 3001)),
           extra=st.sampled_from([0, 1, 500]), columns=st.integers(1, 6),
           pool=st.sampled_from([0, 1, 2, 7]), constant=st.booleans(),
           seed=st.integers(0, 2**32))
    def test_percentiles_from_kept_extremes_are_the_full_columns(
            self, m, extra, columns, pool, constant, seed):
        # m values per column, from a pool of a few values (ties) or uniform
        # on [0, 1], one column constant or not; k as propagate sets it for
        # R = m + extra replicates.
        rng = np.random.default_rng(seed)
        values = rng.random((m, columns))
        if pool:
            values = rng.choice(rng.random(pool), (m, columns))
        if constant:
            values[:, 0] = values[0, 0]
        k = (m + extra - 1) // 40 + 2
        ordered = np.sort(values, axis=0)
        low, high = ordered[:k], ordered[max(0, m - k):]
        got = propagation._percentiles(low, high, m)
        expected = np.quantile(values, (0.025, 0.975), axis=0)
        assert [x.hex() for x in got.ravel()] == [x.hex() for x in expected.ravel()]

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 400), cuts=st.lists(st.integers(1, 399), max_size=8),
           k=st.integers(2, 12), pool=st.sampled_from([0, 3]), shares=st.integers(1, 3),
           data=st.data())
    def test_kept_extremes_do_not_depend_on_the_chunk_order(
            self, m, cuts, k, pool, shares, data):
        # Each row a curve that steps at every column with the row's values;
        # the chunks are taken in, in replicate order and shuffled, by one
        # summary per share merged in order.  Either way the summary keeps
        # exactly the min(k, m) smallest and largest values per column, in
        # order.
        columns = 5
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        values = rng.random((m, columns))
        if pool:
            values = rng.choice(rng.random(pool), (m, columns))
        bounds = sorted({0, m, *(c for c in cuts if c < m)})
        chunks = [values[a:b] for a, b in zip(bounds, bounds[1:])]
        ordered = np.sort(values, axis=0)
        rows = min(k, m)
        for order in (list(range(len(chunks))), data.draw(st.permutations(range(len(chunks))))):
            parts = [(np.ones(len(chunks[i]), dtype=bool), np.full(len(chunks[i]), columns),
                      np.tile(np.arange(columns), len(chunks[i])), chunks[i].ravel())
                     for i in order]
            summary = _summarize(parts, np.arange(1.0, columns + 1.0), columns,
                                 shares=shares, k=k)
            assert np.array_equal(summary.low, ordered[:rows])
            assert np.array_equal(-summary.high[::-1], ordered[m - rows:])

    def test_zero_noise_collapses_to_exact_analysis(self):
        cohort = _cohort()
        sigmas = InstrumentSigma(0.0, 0.0)
        config = _config(source="assimilated", sigmas=sigmas, replicates=20)
        summary = propagate(cohort, config)

        hazard_ratio = summary.hazard_ratio
        assert hazard_ratio.quantiles[0.025] == hazard_ratio.mean
        assert hazard_ratio.mean == hazard_ratio.quantiles[0.975]

        values = fused_estimates(cohort, sigmas)
        time = cohort.time
        event = cohort.event
        fit = cox_fit_from_arrays(time, event, values)
        exact_hr, _, _ = hazard_ratio_per(fit, 5.0)
        assert summary.hazard_ratio.mean == exact_hr

        for label, mask in _strata_masks(values, config.band_edges).items():
            band = summary.km_bands[label]
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
        return summary.hazard_ratio.quantiles[0.975] - summary.hazard_ratio.quantiles[0.025]

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
        rates = {k: v.mean for k, v in summary.event_rates.items()}
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
            assert summary.event_rates[label] is None
            assert summary.km_bands[label] is None
        assert summary.event_rates["high"].n == 10

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
        {"band_edges": (30.0, 40.0, 50.0)},
        {"band_edges": "35,50"},
        {"band_edges": (35.0,)},
        {"horizon": "365"},
        {"horizon": None},
        {"source": "all", "replicates": 1},
        {"source": "all", "horizon": -1.0},
        {"source": "all", "horizon": float("inf")},
        {"source": "all", "band_edges": (50.0, 35.0)},
        {"source": "all", "seed": -1},
    ])
    def test_invalid_config_rejected(self, overrides):
        with pytest.raises(InvalidParameterError):
            _config(**overrides)

    def test_defaults(self):
        config = PropagationConfig(source="visual", sigmas=SIGMAS)
        assert config.seed == 0
        assert config.replicates == 1000
        assert config.horizon == 365.0
        assert config.band_edges == (35.0, 50.0)

    def test_all_runs_every_source(self):
        config = PropagationConfig("all", SIGMAS, band_edges=[30, 45])
        assert config.sources == SOURCES
        assert config.band_edges == (30, 45)
        assert _config(source="simpson").sources == ("simpson",)

    def test_one_source_needed_to_propagate(self):
        cohort = _cohort(n=50)
        with pytest.raises(InvalidParameterError, match="one source of"):
            propagate(cohort, _config(source="all"))
        with pytest.raises(InvalidParameterError, match="one source of"):
            propagation.source_values(cohort, "all", SIGMAS)
