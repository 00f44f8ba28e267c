"""Closed-form fusion: frozen hand-computed oracles and property sweeps."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lvef_fusion.cohort import Cohort
from lvef_fusion.errors import DomainError, EmptyInputError, InvalidParameterError
from lvef_fusion.fusion import (
    MODES,
    InstrumentSigma,
    fuse,
    fused_estimates,
    precision_ratio,
    relative_reduction,
    total_variation,
)

from fusion_oracles import theta_map

SD = InstrumentSigma(18.1, 8.8, "paper-sd")
VAR = InstrumentSigma(18.1, 8.8, "variance")


class TestPaperSdOracle:
    """Hand-derived values for V=50, S=55 with spreads (18.1, 8.8).

    theta = (18.1*55 + 8.8*50) / 26.9, posterior spread = 18.1*8.8 / 26.9,
    omega = 18.1/8.8, R = -8.8/26.9.
    """

    def test_theta(self):
        assert fuse(50.0, 55.0, SD).theta == pytest.approx(53.36431226765799, rel=1e-14)

    def test_theta_sigma(self):
        assert fuse(50.0, 55.0, SD).theta_sigma == pytest.approx(5.921189591078067, rel=1e-14)

    def test_omega(self):
        assert fuse(50.0, 55.0, SD).omega == pytest.approx(2.0568181818181817, rel=1e-14)

    def test_total_variation(self):
        assert fuse(50.0, 55.0, SD).total_variation == pytest.approx(26.9, rel=1e-14)

    def test_relative_reduction(self):
        assert fuse(50.0, 55.0, SD).relative_reduction == pytest.approx(
            -0.3271375464684015, rel=1e-14
        )

    def test_scalar_helpers_match_fuse(self):
        est = fuse(50.0, 55.0, SD)
        assert precision_ratio(SD) == est.omega
        assert total_variation(SD) == est.total_variation
        assert relative_reduction(SD) == est.relative_reduction


class TestVarianceOracle:
    """Same inputs under conjugate-normal variance weighting.

    Weights are the squared spreads; the reported spread is the square root
    of the harmonic-combined variance.
    """

    def test_theta(self):
        assert fuse(50.0, 55.0, VAR).theta == pytest.approx(54.044068633502036, rel=1e-14)

    def test_theta_sigma(self):
        assert fuse(50.0, 55.0, VAR).theta_sigma == pytest.approx(7.9141983166761465, rel=1e-14)

    def test_omega(self):
        assert fuse(50.0, 55.0, VAR).omega == pytest.approx(4.230501033057852, rel=1e-14)

    def test_relative_reduction(self):
        assert fuse(50.0, 55.0, VAR).relative_reduction == pytest.approx(
            -0.19118627329959262, rel=1e-14
        )


class TestProperties:
    @pytest.mark.parametrize("mode", ["paper-sd", "variance"])
    def test_random_sweep_invariants(self, mode):
        rng = np.random.default_rng(20240817)
        n = 5000
        visual = rng.uniform(0.0, 100.0, n)
        simpson = rng.uniform(0.0, 100.0, n)
        sig_v = rng.uniform(0.5, 30.0, n)
        sig_s = rng.uniform(0.5, 30.0, n)
        for v, s, sv, ss in zip(visual, simpson, sig_v, sig_s):
            sigmas = InstrumentSigma(sv, ss, mode)
            est = fuse(v, s, sigmas)
            lo, hi = min(v, s), max(v, s)
            assert lo - 1e-12 <= est.theta <= hi + 1e-12
            assert est.theta_sigma < min(sv, ss)
            assert -1.0 < est.relative_reduction < 0.0
            assert est.omega > 0.0

    def test_theta_map_equals_fuse_theta(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            v, s = rng.uniform(0, 100, 2)
            sigmas = InstrumentSigma(*rng.uniform(0.5, 30.0, 2))
            assert theta_map(v, s, sigmas) == pytest.approx(
                fuse(v, s, sigmas).theta, rel=1e-10
            )

    def test_sharper_simpson_pulls_theta_toward_simpson(self):
        est = fuse(30.0, 60.0, SD)
        assert abs(est.theta - 60.0) < abs(est.theta - 30.0)

    def test_equal_sigmas_average_the_pair(self):
        eq = InstrumentSigma(10.0, 10.0)
        est = fuse(40.0, 50.0, eq)
        assert est.theta == pytest.approx(45.0)
        assert est.omega == pytest.approx(1.0)
        assert est.relative_reduction == pytest.approx(-0.5)

    def test_symmetry_under_instrument_swap(self):
        a = fuse(42.0, 57.0, InstrumentSigma(12.0, 6.0))
        b = fuse(57.0, 42.0, InstrumentSigma(6.0, 12.0))
        assert a.theta == pytest.approx(b.theta, rel=1e-14)
        assert a.theta_sigma == pytest.approx(b.theta_sigma, rel=1e-14)


# Weights whose sum, or a hundred times one of them, is not finite.
OVERFLOWING_SIGMAS = [
    ("paper-sd", 1e308, 1e308),
    ("paper-sd", 1e307, 1.0),
    ("variance", 1e154, 1e154),
    ("variance", 5e153, 1.0),
]


class TestValidation:
    def test_mode_is_checked_at_construction(self):
        with pytest.raises(InvalidParameterError):
            InstrumentSigma(18.1, 8.8, "sd")

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_sigma_must_be_finite_nonnegative(self, bad):
        with pytest.raises(InvalidParameterError):
            InstrumentSigma(bad, 8.8)

    @pytest.mark.parametrize("visual,simpson", [(1e-200, 1e-200), (1e200, 1.0), (1.0, 1e-170)])
    def test_variance_mode_sigma_must_square_to_positive_finite(self, visual, simpson):
        with pytest.raises(InvalidParameterError):
            InstrumentSigma(visual, simpson, "variance")
        # the same spreads are valid weights in paper-sd mode
        assert np.isfinite(fuse(50.0, 55.0, InstrumentSigma(visual, simpson)).theta)

    @pytest.mark.parametrize("mode,visual,simpson", OVERFLOWING_SIGMAS)
    def test_overflowing_weights_rejected(self, mode, visual, simpson):
        with pytest.raises(InvalidParameterError, match="overflow"):
            fused_estimates(_cohort([50.0], [55.0]), InstrumentSigma(visual, simpson, mode))
        with pytest.raises(InvalidParameterError, match="overflow"):
            fuse(50.0, 55.0, InstrumentSigma(visual, simpson, mode))

    @pytest.mark.parametrize("mode,visual,simpson", [
        ("paper-sd", 1e306, 1e306), ("variance", 1e153, 1e153)])
    def test_largest_weights_still_fuse(self, mode, visual, simpson):
        sigmas = InstrumentSigma(visual, simpson, mode)
        assert fused_estimates(_cohort([50.0], [55.0]), sigmas)[0] == pytest.approx(52.5)
        assert fuse(50.0, 55.0, sigmas).theta == pytest.approx(52.5)

    def test_zero_sigma_is_representable_but_not_fusable(self):
        degenerate = InstrumentSigma(0.0, 8.8)
        with pytest.raises(InvalidParameterError):
            fuse(50.0, 55.0, degenerate)

    @pytest.mark.parametrize("v,s", [(-0.1, 50.0), (50.0, 100.1), (float("nan"), 50.0)])
    def test_lvef_domain(self, v, s):
        with pytest.raises(DomainError):
            fuse(v, s, SD)

    def test_boundary_lvef_values_pass(self):
        assert fuse(0.0, 100.0, SD).theta == pytest.approx(18.1 * 100.0 / 26.9)


def _cohort(visual, simpson):
    n = len(visual)
    return Cohort([f"P{i}" for i in range(n)], visual, simpson, [100.0] * n, [1] * n)


class TestFuseCohort:
    def _cohort(self):
        return _cohort([50.0, 30.0], [55.0, 28.4])

    def test_order_preserved(self):
        fused = fused_estimates(self._cohort(), SD)
        assert len(fused) == 2
        assert fused[0] == fuse(50.0, 55.0, SD).theta
        assert fused[1] == fuse(30.0, 28.4, SD).theta

    def test_empty_cohort_raises(self):
        with pytest.raises(EmptyInputError):
            fused_estimates(_cohort([], []), SD)


LVEF = st.floats(0.0, 100.0)
# Exact zeros exercise the continuity cases; the rest span realistic spreads.
SIGMA = st.one_of(st.just(0.0), st.floats(1e-3, 100.0))


class TestFusedEstimatesProperties:
    @given(st.lists(st.tuples(LVEF, LVEF), min_size=1, max_size=40), SIGMA, SIGMA,
           st.sampled_from(MODES))
    def test_cohort_fusion_matches_scalar_fuse_and_stays_between_readings(
            self, pairs, sigma_v, sigma_s, mode):
        visual, simpson = (np.array(column) for column in zip(*pairs))
        sigmas = InstrumentSigma(sigma_v, sigma_s, mode)
        theta = fused_estimates(_cohort(visual, simpson), sigmas)
        if sigma_v > 0 and sigma_s > 0:
            scalar = [fuse(v, s, sigmas).theta for v, s in pairs]
            assert theta.tolist() == scalar
        # Same float slack as the random sweep above: a weighted mean of two
        # equal readings can round an ulp away from them.
        assert np.all(np.minimum(visual, simpson) - 1e-12 <= theta)
        assert np.all(theta <= np.maximum(visual, simpson) + 1e-12)
