"""
Propagating measurement noise into the survival results
=======================================================

How sure can the survival analysis be, given that every LVEF value carries
measurement error?  Each replicate redraws the cohort's values from the chosen
source's error distribution and reruns the whole analysis; the replicate
spread becomes percentile bands on every output.
"""

from lvef_fusion import (
    InstrumentSigma,
    PropagationConfig,
    SimConfig,
    propagate,
    simulate,
)

cohort = simulate(SimConfig(n_patients=1366, seed=5))
sigmas = InstrumentSigma(18.1, 8.8)

# Propagate each source with the same seed so the three runs share replicate
# noise streams and differ only in the source's center and spread.
print("hazard-ratio band (per 5-point LVEF decrease, 200 replicates):")
summaries = {}
for source in ("visual", "simpson", "assimilated"):
    config = PropagationConfig(source=source, sigmas=sigmas, seed=5,
                               replicates=200)
    summary = propagate(cohort, config)
    summaries[source] = summary
    hazard_ratio = summary.hazard_ratio
    lower, upper = hazard_ratio.quantiles[0.025], hazard_ratio.quantiles[0.975]
    print(f"  {source:<11} mean {hazard_ratio.mean:.3f}  "
          f"95% band ({lower:.3f}, {upper:.3f})  width {upper - lower:.4f}")

# Per-stratum event rates with their replicate intervals, for one source.
print()
print("assimilated-source one-year event rate by stratum:")
for label, stratum in summaries["assimilated"].event_rates.items():
    if stratum is None:
        print(f"  {label:<5} absent in every replicate")
        continue
    print(f"  {label:<5} mean {stratum.mean:.3f}  "
          f"95% band ({stratum.quantiles[0.025]:.3f}, "
          f"{stratum.quantiles[0.975]:.3f})  "
          f"present in {stratum.n}/200 replicates")

# With the error scales set to zero every replicate is identical and the
# bands collapse to exactly zero width.
exact = InstrumentSigma(0.0, 0.0)
collapsed = propagate(cohort, PropagationConfig(source="visual", sigmas=exact,
                                               seed=5, replicates=20))
print()
quantiles = collapsed.hazard_ratio.quantiles
print("zero-noise check: hazard-ratio band width =", quantiles[0.975] - quantiles[0.025])
