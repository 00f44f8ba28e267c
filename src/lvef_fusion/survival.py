"""Right-censored survival analysis from scratch.

Two estimators, both written directly against their definitions:

* Kaplan-Meier product-limit curves, computed with the telescoping identity
  of the product-limit estimator (Kaplan & Meier 1958): while nobody is
  censored, each event time's survivors are the next one's risk set, so
  prod (r_i - d_i) / r_i over such a block is (r_i - d_i) / r_start, one
  correctly rounded division.  Only the factors of whole blocks, one per
  stretch of event times without censoring between them, are multiplied,
  in float64: linear work after the time sort, and within about B ulps of
  the exact product after B blocks on every platform (Higham 2002, 3.1).
  The first block carries the factor 1.0 exactly, so when every censoring
  falls before the first event time or at or after the last one (in
  particular without censoring) the curve coincides bit-for-bit with the
  empirical survival function.
  ``km_segmented`` runs this product over many curves in one pass (the
  product restarts at exactly 1.0 for each); ``km_from_arrays`` is its
  one-curve case.
* Single-covariate Cox proportional hazards with the Breslow tie convention,
  fitted by Newton-Raphson with step halving.  Risk-set sums use one global
  exponent shift so the objective stays finite for any reasonable beta, and
  the covariate is standardized internally for conditioning (the partial
  likelihood is exactly invariant to centering; scaling is undone on output).
  The risk-set sums S0, S1 and S2 are taken by tie group (Therneau &
  Grambsch 2000): the terms are summed within each event group, the group
  running to the next one's start, then suffix-summed over the G groups
  only.  Every sum is a numpy reduction of a C-contiguous last axis, so
  each row is summed as it is alone and no BLAS call (whose bits can follow
  its thread count) is made.  The start at beta = 0 is exact without an
  exp: every weight is 1.0, so S0 is the risk-set size.  The raw-scale
  value, gradient and Hessian are the last standardized evaluation's, the
  derivatives scaled by sd and sd^2, so a fit costs one evaluation per
  Newton step or halving besides its start.
  ``_cox_fit_rows`` fits many covariates against one follow-up's event
  layout in one batch of Newton iterations, each covariate bit for bit as it
  fits alone; ``cox_fit_from_arrays`` is its checked one-covariate case.

Ties between events and censorings at the same time follow the standard
convention: events first, censored subjects stay in the risk set at their own
censoring time.
"""

from __future__ import annotations

import math
import numbers
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
from .stochastics import _integer

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
    _, curve = km_segmented(time[order], event[order], np.zeros(time.size, dtype=np.intp))
    return curve


def km_segmented(time: np.ndarray, event: np.ndarray, segment: np.ndarray):
    """Product-limit curves of many subject sets in one pass.

    time and int64 event are sorted by (segment, time); segment holds each
    subject's non-decreasing curve label.  Returns (curve label of each row,
    KmCurve of the rows): one row per event time of each curve, the curves'
    rows concatenated in label order, each curve exactly what km_from_arrays
    gives for its subjects.  Inputs are not validated; km_from_arrays is the
    checked entry point, one curve under one label.
    """
    first = _group_starts(time, segment)
    deaths = np.add.reduceat(event, first)
    keep = deaths > 0
    event_first = first[keep]
    d_counts = deaths[keep]
    label = segment[event_first]
    end = np.searchsorted(segment, label, side="right")
    # Everyone of the curve from the tie group on is at risk.
    r_counts = end - event_first
    survivors = r_counts - d_counts

    # Blocks of event times with no censoring between them: inside one, each
    # time's survivors are the next time's risk set and the product telescopes.
    block_start = np.ones(r_counts.size, dtype=bool)
    np.not_equal(r_counts[1:], survivors[:-1], out=block_start[1:])
    opens = np.ones(r_counts.size, dtype=bool)  # a curve's first event time
    np.not_equal(label[1:], label[:-1], out=opens[1:])
    block_start |= opens
    starts = np.flatnonzero(block_start)
    block = np.cumsum(block_start) - 1
    within = survivors / r_counts[starts][block]
    # Survival carried into each block: the product of the curve's earlier
    # blocks' factors, exactly 1.0 for its first block.  One row per curve,
    # padded with 1.0, so one cumprod restarts at every curve.  Each factor
    # is one correctly rounded float64 division, so a curve's S after B
    # blocks is within about B ulps of the exact product.
    first_block = opens[starts]
    owner = np.cumsum(first_block) - 1
    column = np.arange(starts.size) - np.flatnonzero(first_block)[owner]
    carried = np.ones((owner[-1] + 1, column.max() + 1) if starts.size else (0, 0))
    inner = np.flatnonzero(~first_block)
    carried[owner[inner], column[inner]] = (
        survivors[starts[inner] - 1] / r_counts[starts[inner - 1]])
    carried = np.cumprod(carried, axis=1)[owner, column]
    return label, KmCurve(
        times=time[event_first],
        survival=carried[block] * within,
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
    """S(horizon) with right-continuous step evaluation; scalar or array.
    A NaN time is refused: it has no place among the step times."""
    if np.isnan(horizon).any():
        raise InvalidParameterError("cannot evaluate S at a NaN time")
    idx = np.searchsorted(curve.times, horizon, side="right")
    padded = np.concatenate(([1.0], curve.survival))
    result = padded[idx]
    return float(result) if np.isscalar(horizon) else result


def _check_horizon(horizon) -> None:
    """Reject a horizon that is not a finite number of days > 0."""
    if not isinstance(horizon, numbers.Real):
        raise InvalidParameterError(f"horizon must be a number of days, got {horizon!r}")
    if not math.isfinite(horizon):
        raise InvalidParameterError(f"horizon must be finite, got {horizon!r}")
    if not horizon > 0:
        raise InvalidParameterError(f"horizon must be > 0, got {horizon!r}")


def km_event_rate_at(curve: KmCurve, horizon: float) -> float:
    """Cumulative event probability 1 - S(horizon)."""
    _check_horizon(horizon)
    return 1.0 - km_survival_at(curve, horizon)


class _CoxLayout:
    """Time-sorted event layout, shared by every objective evaluation."""

    def __init__(self, time: np.ndarray, event: np.ndarray):
        self.order = np.argsort(time, kind="stable")
        t = time[self.order]
        e = event[self.order]
        self.events = np.flatnonzero(e)
        first = _group_starts(t)
        deaths = np.add.reduceat(e.astype(float), first)
        keep = deaths > 0
        self.event_first = first[keep]
        self.deaths = deaths[keep]
        # Each event group's risk-set size: S0 at beta = 0, where every
        # weight is exactly 1.0.
        self.at_risk = (t.size - self.event_first).astype(float)

    def event_sums(self, x: np.ndarray) -> np.ndarray:
        """Each row's sum over the events of a time-sorted covariate x (rows, n),
        each row summed as that row alone is."""
        return np.add.reduce(np.take(x, self.events, axis=-1), axis=-1)

    def evaluate_rows(self, beta: np.ndarray, x: np.ndarray, sum_event_x: np.ndarray,
                      terms: np.ndarray):
        """(value, gradient, hessian) arrays, one entry per row of x, each row
        a centered, time-sorted covariate evaluated at its own beta, with its
        sum over events in sum_event_x; terms is a (3, rows, n) work buffer.

        One exponent shift per row keeps the values finite for betas far
        beyond any plausible fit.  Each row's numbers are bit for bit those
        of the row evaluated alone.
        """
        w, wx, wx2 = terms
        np.multiply(beta[:, None], x, out=w)
        shift = w.max(axis=1)
        np.subtract(w, shift[:, None], out=w)
        np.exp(w, out=w)
        np.multiply(w, x, out=wx)
        np.multiply(wx, x, out=wx2)
        return self._statistics(beta * sum_event_x, sum_event_x, shift, *self._risk_sums(terms))

    def evaluate_at_zero(self, x: np.ndarray, sum_event_x: np.ndarray, terms: np.ndarray):
        """evaluate_rows at beta = 0 for every row, bit for bit, with terms a
        (2, rows, n) work buffer.  Every weight exp(0 * x - shift) is exactly
        1.0, so S0 is the risk-set size, S1 and S2 sum x and x^2, and no
        shift moves log S0."""
        terms[0] = x
        np.multiply(x, x, out=terms[1])
        s1, s2 = self._risk_sums(terms)
        return self._statistics(0.0 * sum_event_x, sum_event_x, None, self.at_risk, s1, s2)

    def _risk_sums(self, terms: np.ndarray) -> np.ndarray:
        """Each row's terms (..., n) summed over the risk set of every event
        group (..., G): summed within the groups, each holding the subjects
        from its start to the next group's, then suffix-summed over the
        groups in place."""
        sums = np.add.reduceat(terms, self.event_first, axis=-1)
        backward = sums[..., ::-1]
        np.cumsum(backward, axis=-1, out=backward)
        return sums

    def _statistics(self, beta_sum, sum_event_x, shift, s0, s1, s2):
        """(value, gradient, hessian) from the risk-set sums and the rows'
        exponent shifts (None: no shift); each row is summed as that row
        alone is, the rows being C-contiguous."""
        with np.errstate(divide="ignore", invalid="ignore"):
            log_s0 = np.log(s0)
            mean_x = s1 / s0
            var_x = np.maximum(s2 / s0 - mean_x**2, 0.0)
        if shift is not None:
            log_s0 += shift[:, None]
        value = beta_sum - np.add.reduce(self.deaths * log_s0, axis=-1)
        gradient = sum_event_x - np.add.reduce(self.deaths * mean_x, axis=-1)
        hessian = -np.add.reduce(self.deaths * var_x, axis=-1)
        return value, gradient, hessian


def cox_loglik_from_arrays(beta: float, time, event, covariate):
    """Breslow partial log-likelihood with analytic dbeta and d2beta.

    The covariate is centered internally; the objective is exactly invariant
    to that shift, and the centered form conditions the risk-set sums.
    """
    time, event, covariate = _checked(time, event, covariate)
    if int(event.sum()) == 0:
        raise DegenerateDataError("partial likelihood undefined with zero events")
    layout = _CoxLayout(time, event)
    xc = (covariate - covariate.mean())[layout.order]
    value, gradient, hessian = layout.evaluate_rows(
        np.array([beta], dtype=float), xc[None], layout.event_sums(xc[None]),
        np.empty((3, 1, xc.size)))
    return float(value[0]), float(gradient[0]), float(hessian[0])


def cox_fit_from_arrays(time, event, covariate, tolerance: float = 1e-8,
                        max_iterations: int = 100) -> CoxFit:
    """Newton-Raphson fit of the single-covariate Cox model from parallel
    arrays: the checked one-row case of _cox_fit_rows."""
    time, event, covariate = _checked(time, event, covariate)
    if not isinstance(tolerance, numbers.Real):
        raise InvalidParameterError(f"tolerance must be a number, got {tolerance!r}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise InvalidParameterError(f"tolerance must be > 0, got {tolerance!r}")
    max_iterations = _integer("max_iterations", max_iterations)
    if max_iterations < 1:
        raise InvalidParameterError(f"max_iterations must be >= 1, got {max_iterations!r}")
    (outcome,) = _cox_fit_rows(_CoxLayout(time, event), covariate[None], tolerance,
                               max_iterations)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _cox_fit_rows(layout: _CoxLayout, rows, tolerance=1e-8, max_iterations=100) -> list:
    """Newton-Raphson fits of the single-covariate Cox model for every
    covariate row of rows (k, n) against one follow-up, given as its event
    layout.

    Returns one outcome per row: its CoxFit, or the DegenerateDataError,
    SeparationError or NonConvergenceError (with last_fit) it fails with.
    Each Newton evaluation covers every row still iterating at once; a row
    leaves the batch when it converges, separates, stalls at float resolution
    or runs out of iterations.  Each row's outcome is bit for bit its fit
    alone.  Inputs are not validated; cox_fit_from_arrays is the checked
    entry point.
    """
    if layout.events.size < 2:
        return [DegenerateDataError("cox_fit requires at least 2 events") for _ in rows]
    varies = np.ptp(rows, axis=1) > 0
    outcomes = [None if v else DegenerateDataError("cox_fit requires a non-constant covariate")
                for v in varies]
    fitted = np.flatnonzero(varies)
    if fitted.size == 0:
        return outcomes

    # Each row is fitted on its standardized covariate, put in time order;
    # beta maps back by 1/sd.  The order's indices are all valid: "clip"
    # writes straight into x, where the default mode would gather into a
    # buffer first.
    sd = rows.std(axis=1)[fitted]
    k, n = fitted.size, layout.order.size
    x = np.empty((k, n))  # the covariate rows of `active`, in its order
    np.take(rows[fitted], layout.order, axis=1, out=x, mode="clip")
    x -= rows.mean(axis=1)[fitted, None]
    x /= sd[:, None]
    sums = layout.event_sums(x)
    work = np.empty(3 * k * n)

    # Per row: the accepted beta with its (value, gradient, hessian), and the
    # pending candidate = beta + step.  Internal thresholds are tightened so
    # the final raw-scale gradient check (tolerance on beta's own scale)
    # passes after the back-transform.  Every row starts at beta = 0.
    beta, value, grad, hess = (np.zeros(k) for _ in range(4))
    candidate, step, slack = np.zeros(k), np.zeros(k), np.zeros(k)
    iterations = np.zeros(k, dtype=np.int64)
    halvings = np.zeros(k, dtype=np.int64)
    separated = np.zeros(k, dtype=bool)
    tol_s = 0.5 * tolerance / sd
    active = np.arange(k)
    cand = layout.evaluate_at_zero(x, sums, work[:2 * k * n].reshape(2, k, n))
    accept, retry = np.ones(k, dtype=bool), np.zeros(k, dtype=bool)
    while True:
        # Masks are over the positions of active.
        moved = active[accept]
        beta[moved] = candidate[moved]
        value[moved], grad[moved], hess[moved] = (c[accept] for c in cand)
        go = accept.copy()
        go[accept] = (iterations[moved] < max_iterations) & (np.abs(grad[moved]) >= tol_s[moved])
        rows_go = active[go]
        iterations[rows_go] += 1
        g, h = grad[rows_go], hess[rows_go]
        with np.errstate(divide="ignore", invalid="ignore"):
            step[rows_go] = np.where(h < 0, -g / h, np.copysign(1.0, g))
        candidate[rows_go] = beta[rows_go] + step[rows_go]
        # Step halving guards against overshoot; the slack keeps float-level
        # "decreases" near the optimum from being fought forever.
        slack[rows_go] = 1e-10 * (1.0 + np.abs(value[rows_go]))
        halvings[rows_go] = 0

        # Rows that leave are dropped from x; the rest move up in order.
        keep = np.flatnonzero(go | retry)
        if keep.size < active.size:
            x[:keep.size] = x[keep]
            sums, active = sums[keep], active[keep]
        if active.size == 0:
            break
        m = active.size
        cand = layout.evaluate_rows(candidate[active], x[:m], sums,
                                    work[:3 * m * n].reshape(3, m, n))
        retry = ((~np.isfinite(cand[0]) | (cand[0] < value[active] - slack[active]))
                 & (halvings[active] < 30))
        rows_retry = active[retry]
        step[rows_retry] *= 0.5
        candidate[rows_retry] = beta[rows_retry] + step[rows_retry]
        halvings[rows_retry] += 1
        # A step below float resolution makes no further progress.
        moves = ~retry & (candidate[active] != beta[active])
        too_far = moves & (np.abs(candidate[active] / sd[active]) > SEPARATION_BOUND)
        separated[active[too_far]] = True
        accept = moves & ~too_far

    for i in np.flatnonzero(separated):
        outcomes[fitted[i]] = SeparationError(
            f"|beta| exceeded {SEPARATION_BOUND}: monotone partial likelihood "
            "(perfect separation of event order by the covariate)"
        )
    # The raw-scale statistics at beta / sd are those of the last accepted
    # standardized evaluation, the derivatives scaled by sd and sd^2.
    done = np.flatnonzero(~separated)
    scale = sd[done]
    raw = beta[done] / scale, value[done], scale * grad[done], scale * scale * hess[done]
    for i, raw_beta, raw_value, raw_grad, raw_hess in zip(done, *raw):
        converged = abs(raw_grad) < tolerance
        fit = CoxFit(
            beta=float(raw_beta),
            standard_error=1.0 / math.sqrt(-raw_hess) if raw_hess < 0 else math.nan,
            iterations=int(iterations[i]),
            converged=bool(converged),
            log_partial_likelihood=float(raw_value),
        )
        outcomes[fitted[i]] = fit if converged else NonConvergenceError(
            f"no convergence after {fit.iterations} of {max_iterations} iterations "
            f"(|gradient| = {abs(raw_grad):.3e})",
            last_fit=fit,
        )
    return outcomes


def hazard_ratio_per(fit: CoxFit, delta: float):
    """Hazard ratio for a `delta`-point DECREASE in LVEF with Wald 95% CI.

    hr = exp(-delta * beta), so with a protective covariate (beta < 0) and
    delta > 0 the ratio is > 1: lower LVEF, higher hazard.
    """
    if not fit.converged:
        raise InvalidStateError("hazard_ratio_per requires a converged fit")
    if not (math.isfinite(delta) and delta != 0):
        raise InvalidParameterError(f"delta must be finite and non-zero, got {delta!r}")
    center = -delta * fit.beta
    half_width = 1.96 * abs(delta) * fit.standard_error
    return (_safe_exp(center), _safe_exp(center - half_width), _safe_exp(center + half_width))


def _safe_exp(value: float) -> float:
    # math.exp overflows loudly; an unbounded Wald endpoint is simply inf
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf
