"""
The full pipeline: cohort file in, report and band artifacts out
================================================================

Everything the separate demos showed, as one call: fuse the paired readings,
calibrate the instrument errors, propagate noise through the survival
analyses, and serialize a deterministic JSON report plus plottable band CSVs.
The command-line equivalent of this script is:

    lvef-fusion simulate --n 400 --seed 11 --output demo_output
    lvef-fusion report --input demo_output/cohort.csv --seed 7 \
        --replicates 200 --output demo_output
"""

import json
from pathlib import Path

from lvef_fusion import (
    InstrumentSigma,
    PropagationConfig,
    SimConfig,
    parse_cohort_csv,
    run_report,
    simulate,
    write_cohort_csv,
    write_km_band_csv,
    write_report_json,
)

out = Path("demo_output")
out.mkdir(exist_ok=True)

# Write a synthetic cohort to CSV and read it back, as a real run would.
cohort = simulate(SimConfig(n_patients=400, seed=11))
write_cohort_csv(cohort, out / "cohort.csv")
cohort = parse_cohort_csv(out / "cohort.csv")
print(f"cohort: {len(cohort)} patients -> {out / 'cohort.csv'}")

# Run every stage.  One PropagationConfig describes the run; source "all"
# propagates every source, as `report --source all` does.  The report dict
# is JSON-ready; the propagation summaries carry the Kaplan-Meier bands,
# which go to a long-format CSV instead.
config = PropagationConfig("all", InstrumentSigma(18.1, 8.8), seed=7, replicates=200)
report, summaries = run_report(cohort, config)

write_report_json(report, out / "report.json")
write_km_band_csv(list(summaries.values()), out / "km_bands.csv")
print(f"report: {out / 'report.json'}")
print(f"bands:  {out / 'km_bands.csv'}")

# A few headline numbers straight from the report dict.
print()
print("config hash:", report["metadata"]["config_hash"][:16], "...")
reduction = report["error_calibration"]["relative_reduction"]
print(f"calibrated error reduction: {reduction['mean']:+.2%} "
      f"(95% interval {reduction['quantiles']['0.025']:+.2%} "
      f"to {reduction['quantiles']['0.975']:+.2%})")
for source, block in report["propagation"].items():
    hr = block["hazard_ratio"]
    print(f"{source:<11} hazard ratio {hr['mean']:.3f}, "
          f"band width {hr['band_width']:.4f}")
print("warnings recorded in the report:", len(report["warnings"]))

# Rerunning with the same cohort, flags, and seed reproduces report.json
# byte-for-byte except the generated_at timestamp.
rerun, _ = run_report(cohort, config)
stable = {k: v for k, v in report.items() if k != "metadata"}
stable_rerun = {k: v for k, v in rerun.items() if k != "metadata"}
print("deterministic rerun:", json.dumps(stable, sort_keys=True)
      == json.dumps(stable_rerun, sort_keys=True))
