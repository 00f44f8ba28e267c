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


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Each row's sum, added as the sum of that row alone adds it (pairwise);
    a 2-D sum(axis=1) may group the terms differently."""
    return np.fromiter(map(np.add.reduce, a), float, len(a))


class _CoxLayout:
    """Time-sorted event layout, shared by every objective evaluation."""

    def __init__(self, time: np.ndarray, event: np.ndarray):
        self.order = np.argsort(time, kind="stable")
        t = time[self.order]
        self.e = event[self.order].astype(float)
        first = _group_starts(t)
        deaths = np.add.reduceat(self.e, first)
        keep = deaths > 0
        self.event_first = first[keep]
        self.deaths = deaths[keep]

    def evaluate_rows(self, beta: np.ndarray, x: np.ndarray, sum_event_x: np.ndarray,
                      terms: np.ndarray):
        """(value, gradient, hessian) arrays, one entry per row of x, each row
        a centered, time-sorted covariate evaluated at its own beta, with its
        sum over events in sum_event_x; terms is a (2, rows, n) work buffer.

        Risk-set sums are suffix cumsums read at tie-group starts, with one
        exponent shift per row so values stay finite for betas far beyond any
        plausible fit.  Each row's numbers are bit for bit those of the row
        evaluated alone.
        """
        w, wx = terms
        np.multiply(beta[:, None], x, out=w)
        shift = w.max(axis=1)
        np.subtract(w, shift[:, None], out=w)
        np.exp(w, out=w)
        np.multiply(w, x, out=wx)
        # w's buffer takes w*x^2 once w's own sums are read.
        s0 = self._suffix_sums(w)
        np.multiply(wx, x, out=w)
        s1 = self._suffix_sums(wx)
        s2 = self._suffix_sums(w)

        with np.errstate(divide="ignore", invalid="ignore"):
            log_s0 = np.log(s0)
            mean_x = s1 / s0
            var_x = np.maximum(s2 / s0 - mean_x**2, 0.0)

        value = beta * sum_event_x - _row_sums(self.deaths * (log_s0 + shift[:, None]))
        gradient = sum_event_x - _row_sums(self.deaths * mean_x)
        hessian = -_row_sums(self.deaths * var_x)
        return value, gradient, hessian

    def _suffix_sums(self, terms: np.ndarray) -> np.ndarray:
        """Each row's sums from every tie-group start to its end, taken in
        place as prefix sums of the reversed row."""
        backward = terms[..., ::-1]
        np.cumsum(backward, axis=-1, out=backward)
        return terms[..., self.event_first]


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
        np.array([beta], dtype=float), xc[None], np.array([np.dot(layout.e, xc)]),
        np.empty((2, 1, xc.size)))
    return float(value[0]), float(gradient[0]), float(hessian[0])


def cox_fit_from_arrays(time, event, covariate, tolerance: float = 1e-8,
                        max_iterations: int = 100) -> CoxFit:
    """Newton-Raphson fit of the single-covariate Cox model from parallel
    arrays: the checked one-row case of _cox_fit_rows."""
    time, event, covariate = _checked(time, event, covariate)
    if not (np.isfinite(tolerance) and tolerance > 0):
        raise InvalidParameterError(f"tolerance must be > 0, got {tolerance!r}")
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
    if int(layout.e.sum()) < 2:
        return [DegenerateDataError("cox_fit requires at least 2 events") for _ in rows]
    varies = np.ptp(rows, axis=1) > 0
    outcomes = [None if v else DegenerateDataError("cox_fit requires a non-constant covariate")
                for v in varies]
    fitted = np.flatnonzero(varies)
    if fitted.size == 0:
        return outcomes

    # Each row is fitted on its standardized covariate; beta maps back by 1/sd.
    mean = rows.mean(axis=1)[fitted]
    sd = rows.std(axis=1)[fitted]
    k, n = fitted.size, layout.order.size
    x = np.empty((k, n))  # the covariate rows of `active`, in its order
    work = np.empty(2 * k * n)

    def prepare(index, scale=None):
        """Put rows fitted[index] into x in time order, centered and, given a
        scale, divided by it; return their sums over events."""
        xc = x[:len(index)]
        # The order's indices are all valid; "clip" writes straight into xc,
        # where the default mode would gather into a buffer first.
        np.take(rows[fitted[index]], layout.order, axis=1, out=xc, mode="clip")
        xc -= mean[index, None]
        if scale is not None:
            xc /= scale[index, None]
        return np.fromiter((np.dot(layout.e, row) for row in xc), float, len(index))

    def evaluate(at, sums):
        m = len(at)
        return layout.evaluate_rows(at, x[:m], sums, work[:2 * m * n].reshape(2, m, n))

    # Per row: the accepted beta with its (value, gradient, hessian), and the
    # pending candidate = beta + step.  Internal thresholds are tightened so
    # the final raw-scale gradient check (tolerance on beta's own scale)
    # passes after the back-transform.
    beta, value, grad, hess = (np.zeros(k) for _ in range(4))
    candidate, step, slack = np.zeros(k), np.zeros(k), np.zeros(k)
    iterations = np.zeros(k, dtype=np.int64)
    halvings = np.zeros(k, dtype=np.int64)
    separated = np.zeros(k, dtype=bool)
    tol_s = 0.5 * tolerance / sd
    active = np.arange(k)
    sums = prepare(active, sd)
    cand = evaluate(candidate, sums)
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
        for j, i in enumerate(keep):
            if j != i:
                x[j] = x[i]
        sums, active = sums[keep], active[keep]
        if active.size == 0:
            break
        cand = evaluate(candidate[active], sums)
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
    done = np.flatnonzero(~separated)
    raw_beta = beta[done] / sd[done]
    raw = evaluate(raw_beta, prepare(done))
    for i, b, raw_value, raw_grad, raw_hess in zip(done, raw_beta, *raw):
        converged = abs(raw_grad) < tolerance
        fit = CoxFit(
            beta=float(b),
            standard_error=1.0 / math.sqrt(-raw_hess) if raw_hess < 0 else math.nan,
            iterations=int(iterations[i]),
            converged=bool(converged),
            log_partial_likelihood=float(raw_value),
        )
        outcomes[fitted[i]] = fit if converged else NonConvergenceError(
            f"no convergence in {max_iterations} iterations (|gradient| = {abs(raw_grad):.3e})",
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
