"""Seeded substream construction and sample summaries."""

import numpy as np
import pytest

from lvef_fusion.errors import EmptyInputError, InvalidParameterError
from lvef_fusion.stochastics import make_stream, summarize


class TestMakeStream:
    def test_same_key_reproduces_draws(self):
        a = make_stream(42, 7).generator.normal(size=100)
        b = make_stream(42, 7).generator.normal(size=100)
        assert np.array_equal(a, b)

    def test_distinct_indexes_are_independent_streams(self):
        a = make_stream(42, 0).generator.normal(size=100)
        b = make_stream(42, 1).generator.normal(size=100)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = make_stream(1, 0).generator.normal(size=100)
        b = make_stream(2, 0).generator.normal(size=100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,index", [(-1, 0), (0, -2), (2**64, 0), (0, 2**64)])
    def test_key_range_is_validated(self, seed, index):
        with pytest.raises(InvalidParameterError):
            make_stream(seed, index)


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
