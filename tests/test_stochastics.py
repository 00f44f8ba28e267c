"""Seeded substream construction and sample summaries."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lvef_fusion.errors import EmptyInputError, InvalidParameterError
from lvef_fusion.stochastics import (
    SIM_STREAM_INDEX,
    SIMPSON_STREAM_INDEX,
    VISUAL_STREAM_INDEX,
    _restart_stream,
    make_stream,
    summarize,
)

# Key components across the whole uint64 range, as Python and numpy integers.
_KEYS = st.integers(0, 2**64 - 1).flatmap(lambda k: st.sampled_from(
    [k, np.uint64(k)] + [t(k) for t in (np.int64, np.uint32, np.int32) if k <= np.iinfo(t).max]))


class TestMakeStream:
    def test_same_key_reproduces_draws(self):
        a = make_stream(42, 7).normal(size=100)
        b = make_stream(42, 7).normal(size=100)
        assert np.array_equal(a, b)

    def test_distinct_indexes_are_independent_streams(self):
        a = make_stream(42, 0).normal(size=100)
        b = make_stream(42, 1).normal(size=100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = make_stream(1, 0).normal(size=100)
        b = make_stream(2, 0).normal(size=100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,index", [(-1, 0), (0, -2), (2**64, 0), (0, 2**64)])
    def test_key_range_is_validated(self, seed, index):
        with pytest.raises(InvalidParameterError):
            make_stream(seed, index)

    @pytest.mark.parametrize("seed,index", [(1.5, 0), (1.0, 0), (0, 2.0), ("1", 0), (None, 0)])
    def test_non_integral_key_is_rejected(self, seed, index):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            make_stream(seed, index)

    def test_numpy_integers_key_like_ints(self):
        assert np.array_equal(make_stream(np.uint64(42), np.int32(7)).normal(size=10),
                              make_stream(42, 7).normal(size=10))

    @given(seed=_KEYS, index=_KEYS)
    def test_stream_is_the_philox_generator_keyed_by_the_pair(self, seed, index):
        key = np.array([int(seed), int(index)], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key))
        stream = make_stream(seed, index)
        assert type(stream) is np.random.Generator
        assert stream.random(8).tobytes() == expected.random(8).tobytes()
        assert stream.integers(0, 2**63, 4).tobytes() == expected.integers(0, 2**63, 4).tobytes()

    def test_reserved_indexes_are_distinct_and_above_replicates(self):
        reserved = [VISUAL_STREAM_INDEX, SIMPSON_STREAM_INDEX, SIM_STREAM_INDEX]
        assert len(set(reserved)) == len(reserved)
        assert min(reserved) >= 2**32

    @given(seed=_KEYS, index=_KEYS, used=st.integers(0, 9))
    def test_restarted_stream_draws_as_a_new_one(self, seed, index, used):
        # A stream part-way through its counter, with a buffered 64-bit word
        # and a half-used one, draws after the restart what a new stream of
        # the pair draws.
        stream = make_stream(3, 5)
        stream.standard_normal(used)
        stream.integers(0, 2**32, 1 + used % 2, dtype=np.uint32)
        _restart_stream(stream, seed, index)
        expected = make_stream(seed, index)
        assert stream.standard_normal(9).tobytes() == expected.standard_normal(9).tobytes()
        assert stream.integers(0, 2**32, 3, dtype=np.uint32).tobytes() == \
            expected.integers(0, 2**32, 3, dtype=np.uint32).tobytes()
        assert stream.random(5).tobytes() == expected.random(5).tobytes()

    @pytest.mark.parametrize("seed,index", [(-1, 0), (0, 2**64), (1.5, 0)])
    def test_restart_validates_the_key(self, seed, index):
        with pytest.raises(InvalidParameterError):
            _restart_stream(make_stream(0, 0), seed, index)


class TestSummarize:
    def test_known_quantiles_linear_interpolation(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)
        assert s.n == 4
        assert s.quantiles[0.025] == pytest.approx(1.075)
        assert s.quantiles[0.5] == pytest.approx(2.5)
        assert s.quantiles[0.975] == pytest.approx(3.925)

    def test_sample_sd_uses_n_minus_one(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.sd == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_singleton_has_zero_sd(self):
        s = summarize([7.0])
        assert s.sd == 0.0 and s.mean == 7.0 and s.n == 1

    def test_constant_sample_is_bit_exact(self):
        # 20-fold summed mean of this value drifts by an ulp; a degenerate
        # sample must collapse onto its value with no drift at all.
        value = 1.0923632554828429
        s = summarize([value] * 20)
        assert s.mean == value and s.sd == 0.0
        assert all(q == value for q in s.quantiles.values())

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInputError):
            summarize([])

    def test_levels_must_lie_in_unit_interval(self):
        with pytest.raises(InvalidParameterError):
            summarize([1.0, 2.0], probability_levels=(0.5, 1.5))

    def test_custom_levels_round_trip(self):
        s = summarize(np.arange(101, dtype=float), probability_levels=(0.1, 0.9))
        assert set(s.quantiles) == {0.1, 0.9}
        assert s.quantiles[0.1] == pytest.approx(10.0)
        assert s.quantiles[0.9] == pytest.approx(90.0)
        assert summarize([1.0, 2.0], ()).quantiles == {}
