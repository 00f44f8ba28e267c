"""
Fusing a paired LVEF reading into a single estimate
===================================================

A patient gets two ejection-fraction readings from the same echo study: a
quick visual estimate and a Simpson's biplane tracing.  Each instrument has a
known error scale.  The fused estimate weights each reading by the other
instrument's error, so the noisier instrument pulls the answer less.
"""

from lvef_fusion import InstrumentSigma, fuse, relative_reduction

# The two readings disagree by 9 points; the visual error sd (18.1) is about
# twice the Simpson's error sd (8.8), so the fused value sits closer to the
# Simpson's reading.
sigmas = InstrumentSigma(visual_sigma=18.1, simpson_sigma=8.8)
estimate = fuse(visual=60.0, simpson=51.0, sigmas=sigmas)

print("visual reading   60.0")
print("simpson reading  51.0")
print(f"fused estimate   {estimate.theta:.2f}")
print(f"posterior spread {estimate.theta_sigma:.2f}  (the paper's theta_sigma)")
print(f"precision ratio  {estimate.omega:.3f}  (visual sd / simpson sd)")
print(f"spread reduction {estimate.relative_reduction:+.2%}  (the paper's R)")

# With independent instrument errors, the fused value w_v*V + w_s*S, where
# w_v = -R, has a realised error sd of sqrt(w_v**2 * 18.1**2 + w_s**2 * 8.8**2):
# 8.37, 4.8% below the Simpson's 8.8 alone.
w_visual = -estimate.relative_reduction
error_sd = ((w_visual * 18.1) ** 2 + ((1.0 - w_visual) * 8.8) ** 2) ** 0.5
print(f"fused error sd   {error_sd:.2f}  (each instrument alone: 18.1 / 8.8)")

# The reduction depends only on the ratio of the two error scales, not on the
# readings themselves, and always lands strictly between -100% and 0%.
print()
print("reduction as the error ratio varies:")
for visual_sd in (8.8, 12.0, 18.1, 30.0):
    r = relative_reduction(InstrumentSigma(visual_sd, 8.8))
    print(f"  visual sd {visual_sd:5.1f} -> R = {r:+.4f}")

# A variance-weighted reading of the same formula is available as a second
# mode; it downweights the noisier instrument more aggressively.  There
# theta_sigma is the realised error sd (7.91), and R is its variance reduction.
variance_mode = fuse(60.0, 51.0, InstrumentSigma(18.1, 8.8, mode="variance"))
print()
print(f"variance mode    theta {variance_mode.theta:.2f}, "
      f"R {variance_mode.relative_reduction:+.2%}")
