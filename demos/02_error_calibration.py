"""
Calibrating instrument error with a posterior sampler
=====================================================

The error scales (18.1 and 8.8 points) are treated as observed data for a
Gamma observation model on a latent error level: each is an argument of the
calibration, taken from InstrumentSigma, while CalibrationConfig holds only
the model and sampler settings.  An exact rejection sampler
draws independent values from each instrument's posterior, and the two
predictive distributions combine into a distribution for the error reduction R
achieved by fusing.
"""

from lvef_fusion import (
    InstrumentSigma,
    calibrate,
    make_stream,
    paired_calibration,
)
from lvef_fusion.stochastics import SIMPSON_STREAM_INDEX, VISUAL_STREAM_INDEX

# Calibrate one instrument from its observed error sd, under the default
# CalibrationConfig settings.  Every draw is reproducible from the stream's
# (seed, stream_index) key; the calibrations' indexes are reserved in
# lvef_fusion.stochastics.
posterior = calibrate(18.1, make_stream(seed=1, stream_index=VISUAL_STREAM_INDEX))

print("single-instrument posterior (observed error sd 18.1):")
# The draws are independent, so every one of them counts; the acceptance
# rate is the share of the sampler's proposals that it kept.
print(f"  independent draws  {posterior.parameter_draws.size}")
print(f"  acceptance rate    {posterior.acceptance_rate:.3f}")
print(f"  predictive mean    {posterior.summary.mean:.2f}")
print(f"  predictive sd      {posterior.summary.sd:.2f}")
print(f"  predictive 95% CI  ({posterior.summary.quantiles[0.025]:.2f}, "
      f"{posterior.summary.quantiles[0.975]:.2f})")

# Calibrate both instruments on separate streams, each from its own sigma,
# and form the reduction distribution in the sigmas' mode: R = -1 / (omega +
# 1) applied draw by draw.
visual, simpson, reduction = paired_calibration(
    InstrumentSigma(18.1, 8.8), make_stream(1, VISUAL_STREAM_INDEX),
    make_stream(1, SIMPSON_STREAM_INDEX)
)

print()
print("paired calibration (18.1 vs 8.8):")
print(f"  visual predictive mean   {visual.summary.mean:.2f}")
print(f"  simpson predictive mean  {simpson.summary.mean:.2f}")
print(f"  mean reduction R         {reduction.summary.mean:+.4f}")
print(f"  R 95% interval           ({reduction.summary.quantiles[0.025]:+.4f}, "
      f"{reduction.summary.quantiles[0.975]:+.4f})")
print("  every draw lies in (-1, 0):",
      bool((reduction.r_draws > -1).all() and (reduction.r_draws < 0).all()))
