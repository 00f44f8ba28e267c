"""
Stratified survival curves and the hazard of a falling LVEF
===========================================================

A synthetic cohort provides event times with a hazard that rises as the true
LVEF falls.  Stratifying on a measured LVEF gives Kaplan-Meier curves per
function band; a proportional-hazards fit turns the continuous measurement
into a hazard ratio per 5-point decrease.
"""

import numpy as np

from lvef_fusion import (
    SimConfig,
    cox_fit_from_arrays,
    hazard_ratio_per,
    km_survival_at,
    simulate,
    stratum_km,
)

# One synthetic cohort, fully determined by the seed.
cohort = simulate(SimConfig(n_patients=1366, seed=5))
simpson, time_days, event = cohort.simpson, cohort.time, cohort.event

# Kaplan-Meier per LVEF stratum: low (< 35), mid ([35, 50]), high (> 50),
# each with its event rate by one year.
strata = stratum_km(simpson, time_days, event, band_edges=(35.0, 50.0), horizon=365.0)
print("one-year event rate by Simpson's LVEF stratum:")
for label, (n, curve, rate) in strata.items():
    half_year = 1.0 - km_survival_at(curve, 182.5)
    print(f"  {label:<5} n={n:4d}  "
          f"6-month {half_year:.3f}  1-year {rate:.3f}")

# The proportional-hazards fit uses the measurement as a continuous covariate.
fit = cox_fit_from_arrays(time_days, event, simpson)
hr, lo, hi = hazard_ratio_per(fit, delta=5.0)
print()
print(f"cox fit: beta {fit.beta:+.5f} per LVEF point "
      f"(se {fit.standard_error:.5f}, {fit.iterations} iterations)")
print(f"hazard ratio per 5-point decrease: {hr:.3f}  (95% CI {lo:.3f}-{hi:.3f})")

# The generative slope is -0.0152 per point, i.e. a true hazard ratio of
# exp(0.076) = 1.079 per 5-point decrease; measurement noise attenuates the
# fitted value toward 1.
print(f"generative hazard ratio:           {np.exp(5 * 0.0152):.3f}")
