"""Right-censored survival analysis from scratch.

Two estimators, both written directly against their definitions:

* Kaplan-Meier product-limit curves, computed with the telescoping identity
  of the product-limit estimator (Kaplan & Meier 1958): while nobody is
  censored, each event time's survivors are the next one's risk set, so
  prod (r_i - d_i) / r_i over such a block is (r_i - d_i) / r_start, one
  correctly rounded division.  Only the factors of whole blocks, one per
  stretch of event times without censoring between them, are multiplied in
  floating point (extended precision where the platform has it), so the
  product costs linear work after the time sort.  The first block carries the
  factor 1.0 exactly, so when every censoring falls before the first event
  time or at or after the last one (in particular without censoring) the
  curve coincides bit-for-bit with the empirical survival function.
  ``km_segmented`` runs this product over many curves in one pass (the
  product restarts at exactly 1.0 for each); ``km_from_arrays`` is its
  one-curve case.
* Single-covariate Cox proportional hazards with the Breslow tie convention,
  fitted by Newton-Raphson with step halving.  Risk-set sums use one global
  exponent shift so the objective stays finite for any reasonable beta, and
  the covariate is standardized internally for conditioning (the partial
  likelihood is exactly invariant to centering; scaling is undone on output).

Ties between events and censorings at the same time follow the standard
convention: events first, censored subjects stay in the risk set at their own
censoring time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    DomainError,
    EmptyInputError,
    InvalidParameterError,
    InvalidStateError,
    NonConvergenceError,
    SeparationError,
)

__all__ = [
    "KmCurve",
    "CoxFit",
    "km_from_arrays",
    "km_survival_at",
    "km_event_rate_at",
    "cox_loglik_from_arrays",
    "cox_fit_from_arrays",
    "hazard_ratio_per",
]

SEPARATION_BOUND = 50.0


@dataclass(frozen=True)
class KmCurve:
    """Product-limit curve evaluated at the distinct event times."""

    times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray


@dataclass(frozen=True)
class CoxFit:
    """Newton-Raphson result for the single-covariate Cox model."""

    beta: float
    standard_error: float
    iterations: int
    converged: bool
    log_partial_likelihood: float


def _checked(time, event, covariate=None):
    """Follow-up arrays (and the covariate) as float / int64 arrays, validated.

    One subject per index: time finite and > 0, event 0 or 1, covariate
    finite, all of the same length.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event)
    if event.shape != time.shape or (covariate is not None
                                     and np.shape(covariate) != time.shape):
        raise InvalidParameterError(
            "time, event and covariate must have equal lengths, got shapes "
            f"{time.shape}, {event.shape}, {np.shape(covariate)}"
        )
    if time.size == 0:
        raise EmptyInputError("at least one survival record is required")
    if not ((time > 0) & (time < np.inf)).all():
        raise DomainError("all times must be finite and > 0")
    if not ((event == 0) | (event == 1)).all():
        raise InvalidParameterError("every event flag must be 0 or 1")
    if covariate is None:
        return time, event.astype(np.int64, copy=False)
    covariate = np.asarray(covariate, dtype=float)
    if not np.isfinite(covariate).all():
        raise InvalidParameterError("every covariate value must be finite")
    return time, event.astype(np.int64, copy=False), covariate


def km_from_arrays(time: np.ndarray, event: np.ndarray) -> KmCurve:
    """Kaplan-Meier product-limit curve from parallel time and event arrays."""
    time, event = _checked(time, event)
    order = np.argsort(time, kind="stable")
    _, curve = km_segmented(time[order], event[order])
    return curve


def km_segmented(time: np.ndarray, event: np.ndarray, segment=None):
    """Product-limit curves of many subject sets in one pass.

    time and int64 event are sorted by (segment, time); segment holds each
    subject's non-decreasing curve label, or is None for a single curve.
    Returns (curve label of each row, or None; KmCurve of the rows): one row
    per event time of each curve, the curves' rows concatenated in label
    order, each curve exactly what km_from_arrays gives for its subjects.
    Inputs are not validated; km_from_arrays is the checked entry point.
    """
    first = _group_starts(time, segment)
    deaths = np.add.reduceat(event, first)
    keep = deaths > 0
    event_first = first[keep]
    d_counts = deaths[keep]
    if segment is None:
        label, end = None, time.size
    else:
        label = segment[event_first]
        end = np.searchsorted(segment, label, side="right")
    # Everyone of the curve from the tie group on is at risk.
    r_counts = end - event_first
    survivors = r_counts - d_counts

    # Blocks of event times with no censoring between them: inside one, each
    # time's survivors are the next time's risk set and the product telescopes.
    block_start = np.ones(r_counts.size, dtype=bool)
    np.not_equal(r_counts[1:], survivors[:-1], out=block_start[1:])
    opens = np.zeros(r_counts.size, dtype=bool)  # a curve's first event time
    opens[:1] = True
    if label is not None:
        np.not_equal(label[1:], label[:-1], out=opens[1:])
        block_start |= opens
    starts = np.flatnonzero(block_start)
    block = np.cumsum(block_start) - 1
    within = survivors / r_counts[starts][block]
    # Survival carried into each block: the product of the curve's earlier
    # blocks' factors, exactly 1.0 for its first block.  One row per curve,
    # padded with 1.0, so one cumprod restarts at every curve.  Factors and
    # product are kept in extended precision where the platform has it, so
    # thousands of blocks still leave S within about one ulp of the exact
    # product.
    first_block = opens[starts]
    owner = np.cumsum(first_block) - 1
    column = np.arange(starts.size) - np.flatnonzero(first_block)[owner]
    carried = np.ones((owner[-1] + 1, column.max() + 1) if starts.size else (0, 0),
                      dtype=np.longdouble)
    inner = np.flatnonzero(~first_block)
    carried[owner[inner], column[inner]] = (
        survivors[starts[inner] - 1] / r_counts[starts[inner - 1]].astype(np.longdouble))
    carried = np.cumprod(carried, axis=1)[owner, column]
    return label, KmCurve(
        times=time[event_first],
        survival=(carried[block] * within).astype(float),
        at_risk=r_counts,
        events=d_counts,
    )


def _group_starts(sorted_time: np.ndarray, segment=None) -> np.ndarray:
    """Index of the first subject of each tie group in (segment, time) order."""
    new_group = np.ones(sorted_time.size, dtype=bool)
    np.not_equal(sorted_time[1:], sorted_time[:-1], out=new_group[1:])
    if segment is not None:
        new_group[1:] |= segment[1:] != segment[:-1]
    return np.flatnonzero(new_group)


def km_survival_at(curve: KmCurve, horizon):
    """S(horizon) with right-continuous step evaluation; scalar or array."""
    idx = np.searchsorted(curve.times, horizon, side="right")
    padded = np.concatenate(([1.0], curve.survival))
    result = padded[idx]
    return float(result) if np.isscalar(horizon) else result


def _check_horizon(horizon) -> None:
    """Reject a horizon that is not a finite number of days > 0."""
    if not horizon > 0:
        raise InvalidParameterError(f"horizon must be > 0, got {horizon!r}")
    if not math.isfinite(horizon):
        raise InvalidParameterError(f"horizon must be finite, got {horizon!r}")


def km_event_rate_at(curve: KmCurve, horizon: float) -> float:
    """Cumulative event probability 1 - S(horizon)."""
    _check_horizon(horizon)
    return 1.0 - km_survival_at(curve, horizon)


class _CoxLayout:
    """Time-sorted event layout, shared by every objective evaluation."""

    def __init__(self, time: np.ndarray, event: np.ndarray):
        if int(event.sum()) == 0:
            raise DegenerateDataError("partial likelihood undefined with zero events")
        self.order = np.argsort(time, kind="stable")
        t = time[self.order]
        self.e = event[self.order].astype(float)
        first = _group_starts(t)
        deaths = np.add.reduceat(self.e, first)
        keep = deaths > 0
        self.event_first = first[keep]
        self.deaths = deaths[keep]
        # Suffix sums from a tie group's start are the reversed covariate's
        # prefix sums at these positions.
        self.read = t.size - 1 - self.event_first

    def covariate(self, xc: np.ndarray):
        """The beta-free part of evaluate for one centered, time-sorted
        covariate: (the covariate reversed, sum of the covariate over events)."""
        return np.ascontiguousarray(xc[::-1]), float(np.dot(self.e, xc))

    def evaluate(self, beta: float, covariate):
        """(value, gradient, hessian) for a covariate prepared by covariate().

        Risk-set sums are suffix cumsums read at tie-group starts, with one
        global exponent shift so values stay finite for betas far beyond any
        plausible fit.
        """
        x, sum_event_x = covariate
        eta = beta * x
        shift = eta.max()
        # w, w*x and w*x^2 share one prefix-sum pass.
        terms = np.empty((3, x.size))
        np.exp(eta - shift, out=terms[0])
        np.multiply(terms[0], x, out=terms[1])
        np.multiply(terms[1], x, out=terms[2])
        s0, s1, s2 = np.cumsum(terms, axis=1, out=terms)[:, self.read]

        with np.errstate(divide="ignore", invalid="ignore"):
            log_s0 = np.log(s0)
            mean_x = s1 / s0
            var_x = np.maximum(s2 / s0 - mean_x**2, 0.0)

        value = float(beta * sum_event_x - (self.deaths * (log_s0 + shift)).sum())
        gradient = float(sum_event_x - (self.deaths * mean_x).sum())
        hessian = float(-(self.deaths * var_x).sum())
        return value, gradient, hessian


def cox_loglik_from_arrays(beta: float, time, event, covariate):
    """Breslow partial log-likelihood with analytic dbeta and d2beta.

    The covariate is centered internally; the objective is exactly invariant
    to that shift, and the centered form conditions the risk-set sums.
    """
    time, event, covariate = _checked(time, event, covariate)
    layout = _CoxLayout(time, event)
    xc = (covariate - covariate.mean())[layout.order]
    return layout.evaluate(beta, layout.covariate(xc))


def cox_fit_from_arrays(time, event, covariate, tolerance: float = 1e-8,
                        max_iterations: int = 100) -> CoxFit:
    """Newton-Raphson fit of the single-covariate Cox model from parallel arrays."""
    time, event, covariate = _checked(time, event, covariate)
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise InvalidParameterError(f"tolerance must be > 0, got {tolerance!r}")
    if max_iterations < 1:
        raise InvalidParameterError(f"max_iterations must be >= 1, got {max_iterations!r}")
    if int(event.sum()) < 2:
        raise DegenerateDataError("cox_fit requires at least 2 events")
    if np.ptp(covariate) == 0:
        raise DegenerateDataError("cox_fit requires a non-constant covariate")

    layout = _CoxLayout(time, event)
    # Fit on the standardized covariate; beta maps back by 1/sd.
    sd = float(np.std(covariate))
    xs = layout.covariate(((covariate - covariate.mean()) / sd)[layout.order])
    xc_raw = layout.covariate((covariate - covariate.mean())[layout.order])

    beta_s = 0.0
    value, grad, hess = layout.evaluate(beta_s, xs)
    # Internal threshold is tightened so the final raw-scale gradient check
    # (tolerance on beta's own scale) passes after the back-transform.
    tol_s = 0.5 * tolerance / sd
    iterations = 0
    while iterations < max_iterations and abs(grad) >= tol_s:
        iterations += 1
        step = -grad / hess if hess < 0 else math.copysign(1.0, grad)
        candidate = beta_s + step
        cand = layout.evaluate(candidate, xs)
        # Step halving guards against overshoot; the slack keeps float-level
        # "decreases" near the optimum from being fought forever.
        slack = 1e-10 * (1.0 + abs(value))
        halvings = 0
        while (not np.isfinite(cand[0]) or cand[0] < value - slack) and halvings < 30:
            step *= 0.5
            candidate = beta_s + step
            cand = layout.evaluate(candidate, xs)
            halvings += 1
        if candidate == beta_s:
            break  # step below float resolution: no further progress possible
        if abs(candidate / sd) > SEPARATION_BOUND:
            raise SeparationError(
                f"|beta| exceeded {SEPARATION_BOUND}: monotone partial likelihood "
                "(perfect separation of event order by the covariate)"
            )
        beta_s = candidate
        value, grad, hess = cand

    beta = beta_s / sd
    raw_value, raw_grad, raw_hess = layout.evaluate(beta, xc_raw)
    converged = abs(raw_grad) < tolerance
    se = 1.0 / math.sqrt(-raw_hess) if raw_hess < 0 else math.nan
    fit = CoxFit(
        beta=beta,
        standard_error=se,
        iterations=iterations,
        converged=converged,
        log_partial_likelihood=raw_value,
    )
    if not converged:
        raise NonConvergenceError(
            f"no convergence in {max_iterations} iterations (|gradient| = {abs(raw_grad):.3e})",
            last_fit=fit,
        )
    return fit


def hazard_ratio_per(fit: CoxFit, delta: float):
    """Hazard ratio for a `delta`-point DECREASE in LVEF with Wald 95% CI.

    hr = exp(-delta * beta), so with a protective covariate (beta < 0) and
    delta > 0 the ratio is > 1: lower LVEF, higher hazard.
    """
    if not fit.converged:
        raise InvalidStateError("hazard_ratio_per requires a converged fit")
    if delta == 0:
        raise InvalidParameterError("delta must be non-zero")
    center = -delta * fit.beta
    half_width = 1.96 * abs(delta) * fit.standard_error
    return (_safe_exp(center), _safe_exp(center - half_width), _safe_exp(center + half_width))


def _safe_exp(value: float) -> float:
    # math.exp overflows loudly; an unbounded Wald endpoint is simply inf
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf
