"""Seeded cohort generator and the workload table of the benchmark.

The generator is independent of the program: it re-implements the reference
generative model (the defaults of ``lvef_fusion.simulate.SimConfig``) with
numpy, so a change to the program's own simulator never changes what the
benchmark feeds it.  The program sees only the CSV this module writes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# Reference generative model (the SimConfig defaults).
TRUE_MEAN, TRUE_SD = 55.78, 11.37
VISUAL_SD, SIMPSON_SD = 18.1, 8.8
VISUAL_GRID, SIMPSON_GRID = 5.0, 0.1
LVEF_RANGE = (1.0, 99.0)
BASELINE_HAZARD = 4.5e-4
LOG_HAZARD_PER_POINT = -0.0152
# CSV precision of every number the generator writes; the program's own
# writers use the same, and the output checks compare at this precision.
CSV_DECIMALS = 4
MIN_TIME = 10.0 ** -CSV_DECIMALS


@dataclass(frozen=True)
class Workload:
    name: str
    command: str             # CLI subcommand
    n: int                   # patients
    replicates: int          # report only; 0 for fuse
    horizon: float           # administrative censoring horizon, days
    uniform_censoring: bool  # extra independent U(0, horizon) censoring


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        # The paper's cohort: the replicate loop (Cox, then KM) dominates.
        Workload("reference", "report", 1366, 1000, 365.0, False),
        # About 8k events at distinct times among censorings: KM dominates.
        Workload("large_cohort", "report", 40_000, 20, 1095.0, True),
        # Parse, fuse and write only: the bypass for every survival change.
        Workload("fuse_200k", "fuse", 200_000, 0, 365.0, False),
    )
}

# Tiny sizes for the harness's own smoke test: same shapes, seconds to run.
SMOKE_SIZES = {"reference": (200, 5), "large_cohort": (400, 5), "fuse_200k": (1000, 0)}


def smoke(workload: Workload) -> Workload:
    n, replicates = SMOKE_SIZES[workload.name]
    return replace(workload, n=n, replicates=replicates)


def _round_to_grid(values, grid):
    lo, hi = LVEF_RANGE
    rounded = np.round(values / grid) * grid
    return np.clip(rounded, grid * np.ceil(lo / grid), grid * np.floor(hi / grid + 1e-9))


def generate_cohort(workload: Workload, seed: int, path) -> None:
    """Write the workload's cohort CSV, a pure function of (workload, seed)."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    n = workload.n
    true = np.clip(gen.normal(TRUE_MEAN, TRUE_SD, n), *LVEF_RANGE)
    visual = _round_to_grid(np.clip(true + gen.normal(0.0, VISUAL_SD, n), *LVEF_RANGE),
                            VISUAL_GRID)
    simpson = _round_to_grid(np.clip(true + gen.normal(0.0, SIMPSON_SD, n), *LVEF_RANGE),
                             SIMPSON_GRID)
    rate = BASELINE_HAZARD * np.exp(LOG_HAZARD_PER_POINT * (true - 50.0))
    event_time = gen.exponential(1.0 / rate, n)
    censor_time = np.full(n, workload.horizon)
    if workload.uniform_censoring:
        censor_time = gen.uniform(0.0, workload.horizon, n)
    event = event_time < censor_time
    # Times are written at CSV precision; keep the rounded value positive.
    time = np.maximum(np.round(np.minimum(event_time, censor_time), CSV_DECIMALS), MIN_TIME)

    width = len(str(n))
    fmt = f"{{:.{CSV_DECIMALS}f}}"
    lines = ["patient_id,visual_lvef,simpson_lvef,time_days,event"]
    lines.extend(
        f"P{i + 1:0{width}d},{fmt.format(v)},{fmt.format(s)},{fmt.format(t)},{e}"
        for i, (v, s, t, e) in enumerate(zip(visual.tolist(), simpson.tolist(),
                                              time.tolist(), event.astype(int).tolist()))
    )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
