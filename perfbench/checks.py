"""Output checks that hold for any correct implementation.

No check pins bytes of a particular version: reports are compared with each
other within one benchmark run, KM bands are checked for their invariants, and
fused estimates are recomputed from the input CSV in closed form.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import CSV_DECIMALS

# The sigmas the benchmark passes to every CLI call (the paper's values).
SIGMA_VISUAL, SIGMA_SIMPSON = 18.1, 8.8
# A value written at CSV precision is within half a unit in the last place.
CSV_TOLERANCE = 0.5 * 10.0 ** -CSV_DECIMALS + 1e-9


def output_digest(outdir: Path) -> str:
    """Digest of every artifact in outdir, ignoring the generated_at line of
    JSON files, so two correct runs of the same command digest equal."""
    digest = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        digest.update(path.name.encode())
        data = path.read_bytes()
        if path.suffix == ".json":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if b'"generated_at"' not in line)
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()


def replicate_counts(outdir: Path) -> tuple[int, int]:
    """(failed replicates, replicates) summed over the report's sources."""
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    sections = report["propagation"].values()
    return (sum(s["failed_replicates"] for s in sections),
            sum(s["replicates"] for s in sections))


def report_problems(outdir: Path, sources) -> list[str]:
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    problems = []
    for source in sources:
        section = report["propagation"].get(source)
        if section is None:
            problems.append(f"report.json has no propagation section for {source}")
            continue
        hr = section["hazard_ratio"]
        for key in ("mean", "q0.025", "q0.975"):
            if not (isinstance(hr.get(key), (int, float)) and math.isfinite(hr[key])):
                problems.append(f"{source}: hazard ratio {key} is not finite: {hr.get(key)!r}")
        problems.extend(band_problems(outdir / f"km_bands_{source}.csv"))
    return problems


def band_problems(path: Path) -> list[str]:
    """Every row nested (lower <= mean <= upper); each stratum's rows strictly
    increasing in time and non-increasing in lower, mean and upper."""
    if not path.is_file():
        return [f"missing {path.name}"]
    groups: dict = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            groups.setdefault((row["source"], row["stratum"]), []).append(
                (float(row["time_days"]), float(row["lower"]),
                 float(row["mean"]), float(row["upper"])))
    problems = []
    for (source, stratum), rows in groups.items():
        t, lower, mean, upper = np.array(rows).T
        where = f"{path.name} {source}/{stratum}"
        if np.any(lower > mean) or np.any(mean > upper):
            problems.append(f"{where}: band not nested")
        if np.any(np.diff(t) <= 0):
            problems.append(f"{where}: times not strictly increasing")
        for name, values in (("lower", lower), ("mean", mean), ("upper", upper)):
            if np.any(np.diff(values) > 0):
                problems.append(f"{where}: {name} increases in time")
    return problems


def _columns(path: Path, names, dtype=float):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    missing = [n for n in names if n not in header]
    if missing:
        raise KeyError(f"{path.name} lacks column(s) {', '.join(missing)}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=dtype, ndmin=2,
                      usecols=[header.index(n) for n in names])
    return data.T


def fused_problems(fused_csv: Path, cohort_csv: Path) -> list[str]:
    """fused.csv rows match the input rows, and theta / theta_sigma equal the
    paper-sd closed form to CSV precision."""
    try:
        (in_ids,) = _columns(cohort_csv, ["patient_id"], dtype=str)
        (out_ids,) = _columns(fused_csv, ["patient_id"], dtype=str)
        visual, simpson = _columns(cohort_csv, ["visual_lvef", "simpson_lvef"])
        theta, theta_sigma = _columns(fused_csv, ["theta", "theta_sigma"])
    except (OSError, KeyError, ValueError) as exc:
        return [f"cannot read fused output: {exc}"]
    if not np.array_equal(in_ids, out_ids):
        return ["fused.csv rows do not match the input's patient_id column"]
    a, b = SIGMA_VISUAL, SIGMA_SIMPSON
    problems = []
    worst = np.max(np.abs(theta - (a * simpson + b * visual) / (a + b)))
    if not worst <= CSV_TOLERANCE:
        problems.append(f"theta differs from the closed form by up to {worst:.3g}")
    worst = np.max(np.abs(theta_sigma - 1.0 / (1.0 / a + 1.0 / b)))
    if not worst <= CSV_TOLERANCE:
        problems.append(f"theta_sigma differs from the closed form by up to {worst:.3g}")
    return problems
