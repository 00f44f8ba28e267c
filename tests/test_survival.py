"""Kaplan-Meier and Cox regression against independent oracles."""

import math
import time as clock
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import cox_oracle
from lvef_fusion import survival as survival_module
from lvef_fusion.errors import (
    DegenerateDataError,
    DomainError,
    EmptyInputError,
    InvalidParameterError,
    InvalidStateError,
    NonConvergenceError,
    SeparationError,
)
from lvef_fusion.survival import (
    CoxFit,
    _CoxLayout,
    _cox_fit_rows,
    cox_fit_from_arrays,
    cox_loglik_from_arrays,
    hazard_ratio_per,
    km_event_rate_at,
    km_from_arrays,
    km_survival_at,
)


def _counting_survival(times, horizon):
    """Uncensored oracle: S(t) is simply the fraction still beyond t."""
    times = np.asarray(times, dtype=float)
    return np.mean(times > horizon)


def _product_limit_oracle(times, events):
    """Exact product-limit S at each distinct event time, straight from the
    definition: r counts subjects with time >= t, d the events at t."""
    survival, product = [], Fraction(1)
    for t in sorted({t for t, e in zip(times, events) if e}):
        r = sum(1 for u in times if u >= t)
        d = sum(1 for u, e in zip(times, events) if u == t and e)
        product *= Fraction(r - d, r)
        survival.append(product)
    return survival


# Integer-valued times on a short range force ties between events and censorings.
SUBJECTS = st.lists(st.tuples(st.integers(1, 30), st.integers(0, 1)), min_size=1, max_size=60)


@st.composite
def _censored_outside_event_span(draw):
    """Subjects whose censorings all fall before the first event time or at or
    after the last one."""
    event_times = draw(st.lists(st.integers(2, 30), min_size=1, max_size=40))
    lo, hi = min(event_times), max(event_times)
    censor_times = draw(st.lists(
        st.one_of(st.integers(1, lo - 1), st.integers(hi, 40)) if lo > 1
        else st.integers(hi, 40), max_size=40))
    return [(t, 1) for t in event_times] + [(t, 0) for t in censor_times]


@st.composite
def _many_blocks(draw):
    """(subjects, blocks): up to 2000 blocks of event times, each followed by
    a censoring that is tied with its last event time or falls just after
    it, so the curve has exactly blocks blocks.  A quarter of the blocks
    hold a second event time and a quarter of the event times a second,
    tied event."""
    blocks = draw(st.integers(1, 2000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subjects, t = [], 0
    for _ in range(blocks):
        for _ in range(1 + (rng.random() < 0.25)):
            t += 1
            subjects += [(t, 1)] * (1 + (rng.random() < 0.25))
        t += int(rng.integers(0, 2))
        subjects.append((t, 0))
    return subjects, blocks


def _km_of(subjects):
    times = np.array([t for t, _ in subjects], dtype=float)
    events = np.array([e for _, e in subjects], dtype=np.int64)
    return km_from_arrays(times, events)


def _simulated_cohort(rng, n, beta=-0.05, censor=365.0):
    x = rng.uniform(20.0, 80.0, n)
    rate = 2e-3 * np.exp(beta * (x - 50.0))
    raw = rng.exponential(1.0 / rate)
    event = (raw < censor).astype(int)
    time = np.where(event == 1, raw, censor)
    return time, event, x


class TestKaplanMeier:
    def test_single_event(self):
        curve = _km_of([(5.0, 1)])
        assert curve.times.tolist() == [5.0]
        assert curve.survival.tolist() == [0.0]
        assert curve.at_risk.tolist() == [1]
        assert curve.events.tolist() == [1]

    def test_three_records_with_trailing_censor(self):
        records = [(1.0, 1), (2.0, 1), (3.0, 0)]
        curve = _km_of(records)
        assert curve.times.tolist() == [1.0, 2.0]
        assert curve.survival.tolist() == [2.0 / 3.0, 1.0 / 3.0]
        assert curve.at_risk.tolist() == [3, 2]

    def test_censor_tied_with_event_stays_at_risk(self):
        # censoring at an event time counts toward that time's risk set
        curve = _km_of([(1.0, 1), (1.0, 0)])
        assert curve.at_risk.tolist() == [2]
        assert curve.survival.tolist() == [0.5]

    def test_earlier_censor_shrinks_risk_set(self):
        curve = _km_of([(1.0, 0), (2.0, 1)])
        assert curve.at_risk.tolist() == [1]
        assert curve.survival.tolist() == [0.0]

    def test_matches_counting_oracle_exactly_without_censoring(self):
        rng = np.random.default_rng(404)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            # integer-valued times force heavy ties
            times = rng.integers(1, 12, n).astype(float)
            curve = km_from_arrays(times, np.ones(n, dtype=int))
            for t, s in zip(curve.times, curve.survival):
                assert s == _counting_survival(times, t)

    def test_survival_is_monotone_within_unit_interval(self):
        rng = np.random.default_rng(11)
        times = rng.exponential(100.0, 300)
        event = rng.integers(0, 2, 300)
        if event.sum() == 0:
            event[0] = 1
        curve = km_from_arrays(times, event)
        assert np.all(np.diff(curve.survival) <= 0)
        assert np.all((curve.survival >= 0) & (curve.survival <= 1))

    @settings(deadline=None)
    @given(SUBJECTS)
    def test_curve_is_non_increasing_within_unit_interval(self, subjects):
        survival = _km_of(subjects).survival
        assert np.all(np.diff(survival) <= 0)
        assert np.all((survival >= 0) & (survival <= 1))

    @settings(deadline=None)
    @given(st.data())
    def test_input_order_does_not_matter(self, data):
        subjects = data.draw(SUBJECTS)
        shuffled = data.draw(st.permutations(subjects))
        a, b = _km_of(subjects), _km_of(shuffled)
        for field in ("times", "survival", "at_risk", "events"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    @settings(deadline=None)
    @given(SUBJECTS)
    def test_matches_exact_product_limit(self, subjects):
        curve = _km_of(subjects)
        oracle = _product_limit_oracle([t for t, _ in subjects], [e for _, e in subjects])
        assert len(curve.survival) == len(oracle)
        for s, exact in zip(curve.survival.tolist(), oracle):
            assert s == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    # Each of the B block factors and each product is one float64 rounding,
    # as are the within-block quotient and its product: a relative error of
    # about B ulps (Higham 2002, section 3.1) on any platform.
    @settings(max_examples=8, deadline=None)
    @given(_many_blocks())
    def test_float64_product_within_block_count_ulps(self, case):
        subjects, blocks = case
        curve = _km_of(subjects)
        oracle = _product_limit_oracle([t for t, _ in subjects], [e for _, e in subjects])
        assert len(curve.survival) == len(oracle)
        bound = Fraction(blocks + 2, 2**52)
        for s, exact in zip(curve.survival.tolist(), oracle):
            assert abs(Fraction(s) - exact) <= bound * exact

    @settings(deadline=None)
    @given(_censored_outside_event_span())
    def test_bit_exact_without_censoring_inside_event_span(self, subjects):
        curve = _km_of(subjects)
        oracle = _product_limit_oracle([t for t, _ in subjects], [e for _, e in subjects])
        assert curve.survival.tolist() == [float(exact) for exact in oracle]

    @pytest.mark.parametrize("case", ["uniform_censoring", "distinct_event_times"])
    def test_one_curve_at_200k_takes_under_a_second(self, case):
        # An exact big-integer product is quadratic in the number of event
        # times: 20 s and 123 s for these two cases on a 2-core x86-64 host.
        n = 200_000
        rng = np.random.default_rng(2024)
        if case == "uniform_censoring":
            raw = rng.exponential(2000.0, n)
            censor = rng.uniform(0.0, 1095.0, n)
            times, events = np.minimum(raw, censor), (raw <= censor).astype(np.int64)
        else:
            times, events = rng.permutation(np.arange(1.0, n + 1.0)), np.ones(n, dtype=np.int64)
        start = clock.perf_counter()
        curve = km_from_arrays(times, events)
        elapsed = clock.perf_counter() - start
        assert curve.times.size == np.unique(times[events == 1]).size
        assert elapsed < 1.0

    def test_step_evaluation_is_right_continuous(self):
        curve = _km_of([(1.0, 1), (2.0, 1), (3.0, 0)])
        assert km_survival_at(curve, 0.5) == 1.0
        assert km_survival_at(curve, 1.0) == pytest.approx(2.0 / 3.0)
        assert km_survival_at(curve, 1.5) == pytest.approx(2.0 / 3.0)
        assert km_survival_at(curve, 2.0) == pytest.approx(1.0 / 3.0)
        assert km_survival_at(curve, 99.0) == pytest.approx(1.0 / 3.0)

    def test_nan_time_is_rejected(self):
        # searchsorted would place NaN after every time and read the last S.
        curve = _km_of([(1.0, 1), (2.0, 1), (3.0, 0)])
        with pytest.raises(InvalidParameterError, match="NaN"):
            km_survival_at(curve, math.nan)
        with pytest.raises(InvalidParameterError, match="NaN"):
            km_survival_at(curve, np.array([0.5, math.nan]))
        assert km_survival_at(curve, 0.0) == km_survival_at(curve, -1.0) == 1.0

    def test_array_evaluation_matches_scalars(self):
        curve = _km_of([(1.0, 1), (2.0, 1)])
        grid = np.array([0.5, 1.0, 1.7, 2.4])
        vec = km_survival_at(curve, grid)
        assert vec.tolist() == [km_survival_at(curve, t) for t in grid]

    def test_event_rate_complements_survival(self):
        curve = _km_of([(10.0, 1), (20.0, 0)])
        assert km_event_rate_at(curve, 15.0) == pytest.approx(0.5)
        for horizon in (0.0, float("inf"), float("nan")):
            with pytest.raises(InvalidParameterError):
                km_event_rate_at(curve, horizon)

    def test_input_validation(self):
        with pytest.raises(EmptyInputError):
            km_from_arrays(np.array([]), np.array([], dtype=np.int64))
        with pytest.raises(DomainError):
            km_from_arrays(np.array([0.0]), np.array([1]))
        with pytest.raises(DomainError):
            km_from_arrays(np.array([np.nan]), np.array([1]))


def _three_cumsum_evaluate(layout, beta, xc):
    """The objective as three separate suffix cumsums over the event groups'
    sums of the time-sorted, centered covariate's terms: the oracle of
    cox_loglik_from_arrays."""
    eta = beta * xc
    shift = eta.max()
    w = np.exp(eta - shift)
    wx = w * xc

    def suffix_sums(terms):
        return np.cumsum(np.add.reduceat(terms, layout.event_first)[::-1])[::-1]

    s0, s1, s2 = suffix_sums(w), suffix_sums(wx), suffix_sums(wx * xc)
    sum_event_x = float(np.sum(xc[layout.events]))

    with np.errstate(divide="ignore", invalid="ignore"):
        log_s0 = np.log(s0)
        mean_x = s1 / s0
        var_x = np.maximum(s2 / s0 - mean_x**2, 0.0)

    value = float(beta * sum_event_x - np.sum(layout.deaths * (log_s0 + shift)))
    gradient = float(sum_event_x - np.sum(layout.deaths * mean_x))
    hessian = float(-np.sum(layout.deaths * var_x))
    return value, gradient, hessian


class TestCoxObjective:
    @settings(max_examples=200, deadline=None)
    @given(subjects=st.lists(st.tuples(st.integers(1, 12), st.integers(0, 1),
                                       st.floats(-100.0, 100.0)), min_size=1, max_size=80),
           beta=st.one_of(st.floats(-2.0, 2.0), st.floats(-800.0, 800.0)))
    def test_evaluate_matches_three_cumsum_oracle(self, subjects, beta):
        # Tied times, and betas whose exponents need the shift to stay finite.
        time = np.array([t for t, _, _ in subjects], dtype=float)
        event = np.array([e for _, e, _ in subjects], dtype=np.int64)
        assume(event.sum() > 0)
        x = np.array([v for _, _, v in subjects])
        layout = _CoxLayout(time, event)
        xc = (x - x.mean())[layout.order]
        new = cox_loglik_from_arrays(beta, time, event, x)
        old = _three_cumsum_evaluate(layout, beta, xc)
        assert [v.hex() for v in new] == [v.hex() for v in old]

    def test_two_record_hand_oracle_at_zero(self):
        # risk set {both} at t=1 then {second} at t=2, covariate 1 vs 0
        value, gradient, hessian = cox_loglik_from_arrays(
            0.0, np.array([1.0, 2.0]), np.array([1, 1]), np.array([1.0, 0.0]))
        assert value == pytest.approx(-math.log(2.0), rel=1e-15)
        assert gradient == pytest.approx(0.5, rel=1e-15)
        assert hessian == pytest.approx(-0.25, rel=1e-15)

    def test_shift_invariance_of_objective(self):
        rng = np.random.default_rng(2)
        time, event, x = _simulated_cohort(rng, 120)
        for beta in (-0.3, 0.0, 0.2):
            a = cox_loglik_from_arrays(beta, time, event, x)
            b = cox_loglik_from_arrays(beta, time, event, x + 500.0)
            assert a[0] == pytest.approx(b[0], rel=1e-11)
            assert a[1] == pytest.approx(b[1], rel=1e-9, abs=1e-11)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(31)
        h = 1e-5
        for _ in range(20):
            time, event, x = _simulated_cohort(rng, 150)
            beta = float(rng.uniform(-0.2, 0.2))
            v_minus, g_minus, _ = cox_loglik_from_arrays(beta - h, time, event, x)
            value, gradient, hessian = cox_loglik_from_arrays(beta, time, event, x)
            v_plus, g_plus, _ = cox_loglik_from_arrays(beta + h, time, event, x)
            fd_gradient = (v_plus - v_minus) / (2 * h)
            fd_hessian = (g_plus - g_minus) / (2 * h)
            assert gradient == pytest.approx(fd_gradient, rel=1e-6, abs=1e-8)
            assert hessian == pytest.approx(fd_hessian, rel=1e-5, abs=1e-8)

    def test_concave_in_beta(self):
        rng = np.random.default_rng(8)
        time, event, x = _simulated_cohort(rng, 100)
        for beta in np.linspace(-1.0, 1.0, 9):
            assert cox_loglik_from_arrays(beta, time, event, x)[2] <= 0.0

    def test_zero_events_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            cox_loglik_from_arrays(0.0, np.array([1.0, 2.0]), np.array([0, 0]),
                                   np.array([1.0, 2.0]))


@st.composite
def _risk_set_cases(draw):
    """(time, event, x, beta): tied integer times, a censoring share up to
    heavy, and an all-censored tail after the last event time; a covariate
    of either sign and a beta for which the exponent shift matters."""
    n = draw(st.integers(1, 60))
    time = draw(st.lists(st.integers(1, draw(st.sampled_from([3, 30]))), min_size=n, max_size=n))
    censored = draw(st.sampled_from([0.0, 0.5, 0.9]))
    event = [int(u >= censored) for u in draw(
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))]
    event[0] = 1
    tail = draw(st.integers(0, 20))
    time += [draw(st.integers(31, 40)) for _ in range(tail)]
    event += [0] * tail
    x = draw(st.lists(st.floats(-100.0, 100.0), min_size=n + tail, max_size=n + tail))
    beta = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0), st.floats(-50.0, 50.0)))
    return np.array(time, dtype=float), np.array(event), np.array(x), beta


class TestRiskSums:
    """The grouped risk-set sums and the beta = 0 shortcut of _CoxLayout."""

    @settings(max_examples=300, deadline=None)
    @given(_risk_set_cases())
    def test_grouped_sums_within_summation_bound(self, case):
        # Any order of summing m terms by pairwise additions, the group sums
        # followed by the suffix sum over the groups included, is off the
        # exact sum by at most gamma(m - 1) * sum |t_i|, gamma(k) = k*u /
        # (1 - k*u) with u = 2^-53 (Higham 2002, section 4.2).  math.fsum
        # rounds the exact sum once more, by at most half an ulp of it.
        time, event, x, beta = case
        layout = _CoxLayout(time, event)
        xc = x[layout.order]
        w = np.exp(beta * xc - (beta * xc).max())
        terms = np.array([w, w * xc, w * xc * xc])
        sums = layout._risk_sums(terms[:, None].copy())[:, 0]
        u = 2.0**-53
        for j, start in enumerate(layout.event_first):
            m = xc.size - start
            gamma = (m - 1) * u / (1 - (m - 1) * u)
            for k in range(3):
                exact = math.fsum(terms[k, start:])
                bound = gamma * math.fsum(np.abs(terms[k, start:])) + 0.5 * math.ulp(exact)
                assert abs(sums[k, j] - exact) <= bound
        # S0 at beta = 0 counts the risk set exactly.
        assert np.array_equal(layout.at_risk, xc.size - layout.event_first)

    @settings(max_examples=300, deadline=None)
    @given(_risk_set_cases(), st.integers(1, 4))
    def test_zero_shortcut_is_the_evaluation_at_zero(self, case, rows):
        # Negative covariates make 0 * x = -0.0 and shift the exponent by a
        # signed zero, which the shortcut leaves out.
        time, event, x, _ = case
        layout = _CoxLayout(time, event)
        xc = np.array([np.roll(x - x.mean(), r)[layout.order] for r in range(rows)])
        sums = layout.event_sums(xc)
        n = xc.shape[1]
        shortcut = layout.evaluate_at_zero(xc, sums, np.empty((2, rows, n)))
        general = layout.evaluate_rows(np.zeros(rows), xc, sums, np.empty((3, rows, n)))
        assert [[v.hex() for v in a] for a in shortcut] == [
            [v.hex() for v in a] for a in general]


class TestCoxFit:
    def test_matches_independent_optimizer(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            time, event, x = _simulated_cohort(rng, 250)
            fit = cox_fit_from_arrays(time, event, x)
            oracle = minimize_scalar(
                lambda b: -cox_loglik_from_arrays(b, time, event, x)[0],
                bounds=(-2.0, 2.0), method="bounded",
                options={"xatol": 1e-12},
            )
            assert fit.beta == pytest.approx(oracle.x, abs=1e-6)

    def test_fit_satisfies_stationarity_and_curvature(self):
        rng = np.random.default_rng(5)
        time, event, x = _simulated_cohort(rng, 300)
        fit = cox_fit_from_arrays(time, event, x)
        value, gradient, hessian = cox_loglik_from_arrays(fit.beta, time, event, x)
        assert fit.converged
        assert abs(gradient) < 1e-8
        assert fit.log_partial_likelihood == value
        assert fit.standard_error == pytest.approx(1.0 / math.sqrt(-hessian))

    def test_recovers_generative_slope(self):
        rng = np.random.default_rng(123)
        time, event, x = _simulated_cohort(rng, 4000, beta=-0.05)
        fit = cox_fit_from_arrays(time, event, x)
        assert fit.beta == pytest.approx(-0.05, abs=3 * fit.standard_error)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        time, event, x = _simulated_cohort(rng, 200)
        base = cox_fit_from_arrays(time, event, x)
        scaled = cox_fit_from_arrays(time, event, 2.0 * x + 10.0)
        assert scaled.beta == pytest.approx(base.beta / 2.0, rel=1e-7)

    def test_perfect_separation_raises(self):
        # earliest events carry the lowest covariate values on a tiny scale,
        # so the internal standardized fit runs beta off to the bound
        time = np.array([10.0, 20.0, 400.0, 400.0])
        event = np.array([1, 1, 0, 0])
        x = np.array([21.000, 21.005, 21.010, 21.015])
        with pytest.raises(SeparationError):
            cox_fit_from_arrays(time, event, x)

    def test_nonconvergence_carries_last_fit(self):
        rng = np.random.default_rng(21)
        time, event, x = _simulated_cohort(rng, 300)
        with pytest.raises(NonConvergenceError) as excinfo:
            cox_fit_from_arrays(time, event, x, max_iterations=1)
        last = excinfo.value.last_fit
        assert last is not None and not last.converged
        assert last.iterations == 1

    def test_nonconvergence_names_the_iterations_run(self):
        rng = np.random.default_rng(21)
        time, event, x = _simulated_cohort(rng, 300)
        with pytest.raises(NonConvergenceError,
                           match=r"^no convergence after 1 of 1 iterations \(\|gradient\| = "):
            cox_fit_from_arrays(time, event, x, max_iterations=1)
        # The halving cohort that runs out of iterations.
        time, event, x = (np.array(column) for column in HALVING_COHORTS[2])
        with pytest.raises(NonConvergenceError) as excinfo:
            cox_fit_from_arrays(time, event, x)
        assert excinfo.value.last_fit.iterations == 100
        assert str(excinfo.value).startswith("no convergence after 100 of 100 iterations ")

    def test_degenerate_inputs(self):
        time = np.array([1.0, 2.0, 3.0])
        with pytest.raises(DegenerateDataError):
            cox_fit_from_arrays(time, np.array([1, 0, 0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DegenerateDataError):
            cox_fit_from_arrays(time, np.array([1, 1, 0]), np.array([4.0, 4.0, 4.0]))
        with pytest.raises(InvalidParameterError):
            cox_fit_from_arrays(time, np.array([1, 1, 0]), np.array([1.0, 2.0, 3.0]),
                                tolerance=0.0)
        with pytest.raises(InvalidParameterError, match="max_iterations must be >= 1, got 0"):
            cox_fit_from_arrays(time, np.array([1, 1, 0]), np.array([1.0, 2.0, 3.0]),
                                max_iterations=0)

    def test_fractional_max_iterations_rejected(self):
        with pytest.raises(InvalidParameterError,
                           match="max_iterations must be an integer, got 2.5"):
            cox_fit_from_arrays(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 0]),
                                np.array([1.0, 2.0, 3.0]), max_iterations=2.5)

    def test_non_numeric_tolerance_rejected(self):
        with pytest.raises(InvalidParameterError, match="tolerance must be a number, got 'x'"):
            cox_fit_from_arrays(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 0]),
                                np.array([1.0, 2.0, 3.0]), tolerance="x")


# Cohorts for the Cox invariance properties: tied integer times, and an
# LVEF-like covariate on a 0.1 grid, so a shift by c cannot round it constant.
@st.composite
def _cox_cohorts(draw):
    n = draw(st.integers(6, 40))
    column = lambda elements: np.array(draw(st.lists(elements, min_size=n, max_size=n)))
    return (column(st.integers(1, 30)).astype(float), column(st.integers(0, 1)),
            column(st.integers(0, 1000)) / 10.0)


def _fit_or_reject(time, event, x):
    """The fit of a cohort the property can use: enough events, a varying
    covariate, a converged fit with finite curvature; others are rejected."""
    assume(event.sum() >= 2 and np.ptp(x) > 0)
    try:
        fit = cox_fit_from_arrays(time, event, x)
    except (SeparationError, NonConvergenceError):
        assume(False)
    assume(math.isfinite(fit.standard_error))
    return fit


class TestCoxInvariance:
    """beta does not move when the covariate is shifted by c, and becomes
    beta/k when the covariate is multiplied by k > 0.

    Tolerance, fixed from the stopping rule before the first run: a fit stops
    once |score| < tol (COX_TOL, the default) on its own covariate's scale, so
    to first order it lies within tol * se**2 of the exact root, where se**2 =
    -1/hessian on that scale.  Two fits compared on one scale differ by at
    most the sum of their two bounds; the factor 2 covers the change of the
    curvature across that distance and rounding.
    """

    COX_TOL = 1e-8

    @settings(deadline=None)
    @given(_cox_cohorts(), st.floats(-100.0, 100.0))
    def test_shift_leaves_beta_unchanged(self, cohort, c):
        time, event, x = cohort
        base = _fit_or_reject(time, event, x)
        shifted = cox_fit_from_arrays(time, event, x + c)
        bound = 2 * self.COX_TOL * (base.standard_error**2 + shifted.standard_error**2)
        assert abs(shifted.beta - base.beta) <= bound

    # k >= 1 shrinks |beta|, so the separation bound cannot reject the scaled
    # fit alone; k < 1 is the same pair of fits read the other way round.
    @settings(deadline=None)
    @given(_cox_cohorts(), st.floats(1.0, 10.0))
    def test_scale_divides_beta(self, cohort, k):
        time, event, x = cohort
        base = _fit_or_reject(time, event, x)
        scaled = cox_fit_from_arrays(time, event, k * x)
        # On the scaled covariate's scale the base fit's bound divides by k.
        bound = 2 * self.COX_TOL * (scaled.standard_error**2 + base.standard_error**2 / k)
        assert abs(scaled.beta - base.beta / k) <= bound


def _outcome(result):
    """A Cox fit's outcome as comparable bits: the CoxFit's fields, floats as
    hex, or the exception's type name, message and last fit."""
    if isinstance(result, Exception):
        last = getattr(result, "last_fit", None)
        return (type(result).__name__, str(result), None if last is None else _outcome(last))
    return (result.beta.hex(), result.standard_error.hex(), result.iterations,
            result.converged, result.log_partial_likelihood.hex())


def _oracle_outcome(time, event, x, max_iterations=100):
    try:
        return _outcome(cox_oracle.cox_fit(time, event, x, max_iterations=max_iterations))
    except (DegenerateDataError, SeparationError, NonConvergenceError) as exc:
        return _outcome(exc)


@st.composite
def _cox_chunks(draw):
    """(time, event, rows, max_iterations): one follow-up and 1-4 covariate
    rows.  Integer times on a short range tie; the censoring share runs up to
    heavy; a row is free, constant, or separable (rising with time on a tiny
    scale, so beta runs off to the bound); small cohorts on a coarse grid make
    Newton overshoot and halve its step now and then."""
    n = draw(st.integers(2, 30))
    time = np.array(draw(st.lists(st.integers(1, draw(st.sampled_from([4, 30]))),
                                  min_size=n, max_size=n)), dtype=float)
    censored = draw(st.sampled_from([0.0, 0.5, 0.9]))
    event = np.array([int(u >= censored) for u in draw(
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))])
    rank = np.argsort(np.argsort(time, kind="stable"), kind="stable")
    rows = []
    for kind in draw(st.lists(st.sampled_from(["free", "free", "constant", "separable"]),
                              min_size=1, max_size=4)):
        if kind == "free":
            rows.append(np.array(draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n)))
                        / 10.0)
        elif kind == "constant":
            rows.append(np.full(n, draw(st.integers(0, 1000)) / 10.0))
        else:
            rows.append(21.0 + 0.005 * rank)
    return time, event, np.array(rows), draw(st.sampled_from([100, 100, 1, 2]))


# Small cohorts whose scalar fits halve the Newton step: one that separates
# after hundreds of halvings, one that converges after one halving, one that
# runs out of iterations and one that separates.
HALVING_COHORTS = [
    ([1.0, 1.0, 4.0, 2.0, 6.0, 3.0, 5.0, 6.0], [0, 0, 0, 1, 1, 0, 1, 0],
     [48.3, 65.6, 8.4, 85.3, 9.2, 41.8, 15.2, 7.8]),
    ([2.0, 7.0, 4.0, 1.0, 4.0, 5.0, 7.0, 3.0, 7.0], [0, 0, 1, 0, 0, 0, 1, 0, 0],
     [31.3, 76.5, 18.9, 92.0, 80.1, 78.1, 83.3, 80.8, 73.3]),
    ([2.0, 1.0, 3.0, 5.0, 7.0], [1, 0, 1, 0, 0], [20.1, 86.4, 41.9, 42.0, 67.3]),
    ([3.0, 7.0, 5.0, 4.0, 1.0], [0, 1, 1, 1, 0], [14.0, 37.7, 37.5, 22.5, 71.1]),
]


def test_no_blas_call_in_the_kernels():
    """The Cox kernel sums with numpy reductions only: a BLAS dot would make
    its last bits depend on the BLAS library's thread count."""
    lines = Path(survival_module.__file__).read_text().splitlines()
    assert [n for n, line in enumerate(lines, 1) if "np.dot" in line] == []


class TestCoxBatch:
    """_cox_fit_rows against the scalar loop in tests/cox_oracle.py: every
    row's outcome is the oracle's, bit for bit."""

    # Tied events whose log partial likelihood comes out 1 ulp apart, on
    # AVX-512 hosts, if the log of the suffix sums is taken through a
    # reversed view.
    @example((np.array([1.0] * 13 + [2.0] + [1.0] * 8 + [2.0] + [1.0] * 6),
              np.ones(29, dtype=int),
              np.array([[0.1] * 13 + [1.4, 0.0] + [0.1] * 7 + [1.4] + [0.1] * 6]), 100))
    @settings(max_examples=300, deadline=None)
    @given(_cox_chunks())
    def test_rows_match_scalar_oracle(self, chunk):
        time, event, rows, max_iterations = chunk
        got = _cox_fit_rows(_CoxLayout(time, event), rows, 1e-8, max_iterations)
        assert [_outcome(o) for o in got] == [
            _oracle_outcome(time, event, row, max_iterations) for row in rows]

    @settings(max_examples=100, deadline=None)
    @given(_cox_chunks())
    def test_single_fit_is_the_scalar_oracle(self, chunk):
        time, event, rows, max_iterations = chunk
        try:
            got = _outcome(cox_fit_from_arrays(time, event, rows[0],
                                               max_iterations=max_iterations))
        except (DegenerateDataError, SeparationError, NonConvergenceError) as exc:
            got = _outcome(exc)
        assert got == _oracle_outcome(time, event, rows[0], max_iterations)

    @pytest.mark.parametrize("cohort", HALVING_COHORTS)
    def test_step_halving_rows(self, cohort):
        time, event, x = (np.array(column) for column in cohort)
        calls = []
        evaluate = cox_oracle.CoxLayout.evaluate

        def counted(layout, beta, covariate):
            calls.append(beta)
            return evaluate(layout, beta, covariate)

        with mock.patch.object(cox_oracle.CoxLayout, "evaluate", counted):
            want = _oracle_outcome(time, event, x)
        # The start and one candidate per iteration leave the rest to
        # halvings; a separated fit has no iteration count.
        if want[0] != "SeparationError":
            fit = want if want[0] != "NonConvergenceError" else want[2]
            assert len(calls) > fit[2] + 1
        # Beside a free row of its own cohort, in both orders.
        other = np.roll(x, 1)
        rows = np.array([x, other])
        got = _cox_fit_rows(_CoxLayout(time, event), rows)
        assert _outcome(got[0]) == want
        assert _outcome(got[1]) == _oracle_outcome(time, event, other)
        assert _outcome(_cox_fit_rows(_CoxLayout(time, event), rows[::-1])[1]) == want

    def test_failing_rows_fail_alone(self):
        rng = np.random.default_rng(13)
        time, event, x = _simulated_cohort(rng, 300)
        order = np.argsort(time, kind="stable")
        separable = np.empty(time.size)
        separable[order] = 21.0 + 0.005 * np.arange(time.size)
        rows = np.array([x, x + rng.normal(0.0, 5.0, x.size), separable,
                         np.full(x.size, 40.0), x + rng.normal(0.0, 10.0, x.size)])
        outcomes = _cox_fit_rows(_CoxLayout(time, event), rows)
        assert isinstance(outcomes[2], SeparationError)
        assert isinstance(outcomes[3], DegenerateDataError)
        assert str(outcomes[3]) == "cox_fit requires a non-constant covariate"
        for i in (0, 1, 4):
            alone = cox_fit_from_arrays(time, event, rows[i])
            assert outcomes[i] == alone
            assert hazard_ratio_per(outcomes[i], 5.0) == hazard_ratio_per(alone, 5.0)

    def test_too_few_events_fail_every_row(self):
        time = np.array([1.0, 2.0, 3.0])
        layout = _CoxLayout(time, np.array([1, 0, 0]))
        outcomes = _cox_fit_rows(layout, np.array([[1.0, 2.0, 3.0]] * 2))
        assert [str(o) for o in outcomes] == ["cox_fit requires at least 2 events"] * 2
        assert all(type(o) is DegenerateDataError for o in outcomes)


class TestHazardRatio:
    def _fit(self):
        rng = np.random.default_rng(55)
        time, event, x = _simulated_cohort(rng, 400)
        return cox_fit_from_arrays(time, event, x)

    def test_per_decrease_algebra(self):
        fit = self._fit()
        hr, lower, upper = hazard_ratio_per(fit, 5.0)
        assert hr == pytest.approx(math.exp(-5.0 * fit.beta))
        assert lower == pytest.approx(math.exp(-5.0 * fit.beta - 1.96 * 5.0 * fit.standard_error))
        assert upper == pytest.approx(math.exp(-5.0 * fit.beta + 1.96 * 5.0 * fit.standard_error))
        assert lower < hr < upper

    def test_protective_covariate_gives_ratio_above_one(self):
        fit = self._fit()
        assert fit.beta < 0
        hr, _, _ = hazard_ratio_per(fit, 5.0)
        assert hr > 1.0

    def test_unconverged_fit_is_rejected(self):
        stub = CoxFit(beta=-0.1, standard_error=0.02, iterations=100,
                      converged=False, log_partial_likelihood=-10.0)
        with pytest.raises(InvalidStateError):
            hazard_ratio_per(stub, 5.0)

    def test_zero_delta_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            hazard_ratio_per(self._fit(), 0.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_is_rejected(self, delta):
        with pytest.raises(InvalidParameterError, match="finite"):
            hazard_ratio_per(self._fit(), delta)


def _km(time, event, x):
    return km_from_arrays(time, event)


def _cox_loglik(time, event, x):
    return cox_loglik_from_arrays(0.0, time, event, x)


# The array entry points, each called as (time, event, covariate); they share
# one input check.
ENTRY_POINTS = (_km, _cox_loglik, cox_fit_from_arrays)
COX_ENTRY_POINTS = ENTRY_POINTS[1:]


def _subjects(time=(1.0, 2.0, 3.0, 4.0), event=(1, 0, 1, 1), x=(40.0, 55.0, 35.0, 60.0)):
    return np.array(time, dtype=float), np.array(event), np.array(x, dtype=float)


class TestSurvivalRecord:
    """Each subject's record (time, event, covariate) as the array entry
    points take it: every entry point rejects every invalid field."""

    @pytest.mark.parametrize("time", [0.0, -1.0, float("nan"), float("inf")])
    def test_time_domain(self, time):
        for entry_point in ENTRY_POINTS:
            with pytest.raises(DomainError):
                entry_point(*_subjects(time=(time, 2.0, 3.0, 4.0)))

    def test_event_flag_domain(self):
        for flag in (2, -1):
            for entry_point in ENTRY_POINTS:
                with pytest.raises(InvalidParameterError):
                    entry_point(*_subjects(event=(1, flag, 1, 1)))

    def test_covariate_must_be_finite(self):
        for value in (float("nan"), float("inf")):
            for entry_point in COX_ENTRY_POINTS:
                with pytest.raises(InvalidParameterError):
                    entry_point(*_subjects(x=(40.0, value, 35.0, 60.0)))

    @pytest.mark.parametrize("short", ["time", "event", "covariate"])
    def test_lengths_must_match(self, short):
        time, event, x = _subjects()
        arguments = {"time": (time[:3], event, x), "event": (time, event[:3], x),
                     "covariate": (time, event, x[:3])}[short]
        for entry_point in COX_ENTRY_POINTS if short == "covariate" else ENTRY_POINTS:
            with pytest.raises(InvalidParameterError):
                entry_point(*arguments)
