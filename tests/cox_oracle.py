"""The scalar Cox Newton-Raphson loop, kept as the oracle of the batched kernel.

One covariate at a time: its own event layout, its own objective evaluations
(one exponent shift each, the three risk-set sums summed within each event
group and then suffix-summed over the groups) and its own step-halving loop.
The start is a general evaluation at beta = 0, which the kernel shortcuts.
``cox_fit`` here must equal ``lvef_fusion.survival.cox_fit_from_arrays``, and
each row of ``lvef_fusion.survival._cox_fit_rows``, bit for bit: the same
beta, standard error, iteration count, convergence flag and log-likelihood,
or the same exception with the same message.
"""

from __future__ import annotations

import math

import numpy as np

from lvef_fusion.errors import (
    DegenerateDataError,
    InvalidParameterError,
    NonConvergenceError,
    SeparationError,
)
from lvef_fusion.survival import SEPARATION_BOUND, CoxFit, _checked, _group_starts


class CoxLayout:
    """Time-sorted event layout, shared by every objective evaluation."""

    def __init__(self, time: np.ndarray, event: np.ndarray):
        if int(event.sum()) == 0:
            raise DegenerateDataError("partial likelihood undefined with zero events")
        self.order = np.argsort(time, kind="stable")
        t = time[self.order]
        e = event[self.order]
        self.events = np.flatnonzero(e)
        first = _group_starts(t)
        deaths = np.add.reduceat(e.astype(float), first)
        keep = deaths > 0
        self.event_first = first[keep]
        self.deaths = deaths[keep]

    def covariate(self, xc: np.ndarray):
        """The beta-free part of evaluate for one centered, time-sorted
        covariate: (the covariate, its sum over events)."""
        return xc, float(np.add.reduce(xc[self.events]))

    def evaluate(self, beta: float, covariate):
        """(value, gradient, hessian) for a covariate prepared by covariate().

        Each risk-set sum is its event group's terms (the group running to
        the next group's start) plus every later group's, with one global
        exponent shift so values stay finite for betas far beyond any
        plausible fit.
        """
        x, sum_event_x = covariate
        eta = beta * x
        shift = eta.max()
        terms = np.empty((3, x.size))
        np.exp(eta - shift, out=terms[0])
        np.multiply(terms[0], x, out=terms[1])
        np.multiply(terms[1], x, out=terms[2])
        # w, w*x and w*x^2: each group's sum, then one suffix-sum pass over
        # the groups.  The sums are made contiguous: numpy takes the log of a
        # strided array by another routine than of a contiguous one, and the
        # two can differ in the last place.
        groups = np.add.reduceat(terms, self.event_first, axis=1)
        s0, s1, s2 = np.ascontiguousarray(np.cumsum(groups[:, ::-1], axis=1)[:, ::-1])

        with np.errstate(divide="ignore", invalid="ignore"):
            log_s0 = np.log(s0)
            mean_x = s1 / s0
            var_x = np.maximum(s2 / s0 - mean_x**2, 0.0)

        value = float(beta * sum_event_x - (self.deaths * (log_s0 + shift)).sum())
        gradient = float(sum_event_x - (self.deaths * mean_x).sum())
        hessian = float(-(self.deaths * var_x).sum())
        return value, gradient, hessian


def cox_fit(time, event, covariate, tolerance: float = 1e-8,
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

    layout = CoxLayout(time, event)
    # Fit on the standardized covariate; beta maps back by 1/sd.
    sd = float(np.std(covariate))
    xs = layout.covariate(((covariate - covariate.mean()) / sd)[layout.order])

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
    # On the raw scale the objective at beta is the standardized one at
    # beta_s, its derivatives scaled by sd and sd^2.
    raw_value, raw_grad, raw_hess = value, sd * grad, sd * sd * hess
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
            f"no convergence after {iterations} of {max_iterations} iterations "
            f"(|gradient| = {abs(raw_grad):.3e})",
            last_fit=fit,
        )
    return fit
