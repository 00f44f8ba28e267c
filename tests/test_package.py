"""The package surface: the exported names and what importing the CLI loads."""

import json
import subprocess
import sys
from pathlib import Path

import lvef_fusion
from lvef_fusion import (
    calibration,
    cohort,
    errors,
    fusion,
    propagation,
    report,
    stochastics,
    survival,
)

SRC = Path(__file__).resolve().parents[1] / "src"

EXPORTED = {
    "__version__",
    # calibration
    "CalibrationConfig", "ErrorPosterior", "ReductionDistribution",
    "calibrate", "paired_calibration", "reduction_distribution",
    # cohort
    "Cohort", "parse_cohort_csv", "write_cohort_csv", "write_fused_csv",
    # errors
    "DegenerateDataError", "DomainError", "DuplicateIdError", "EmptyInputError",
    "InvalidParameterError", "InvalidStateError", "LvefFusionError",
    "LvefFusionWarning", "NonConvergenceError", "PropagationError", "RowError",
    "SchemaError", "SeparationError",
    # fusion
    "FusedEstimate", "InstrumentSigma", "fuse", "fused_estimates", "fused_sigma",
    "precision_ratio", "relative_reduction", "total_variation",
    # propagation
    "KmBand", "PropagationConfig", "PropagationSummary", "propagate",
    "stratify",
    # report
    "render_report_json", "run_report", "write_km_band_csv",
    "write_report_json",
    # simulate
    "SimConfig", "simulate",
    # stochastics
    "SampleSummary", "make_stream", "summarize",
    # survival
    "CoxFit", "KmCurve", "cox_fit_from_arrays", "cox_loglik_from_arrays", "hazard_ratio_per",
    "km_event_rate_at", "km_from_arrays", "km_survival_at",
}

# The modules importing the command-line front end loads; a star import that
# pulled in more would add start-up work to every command.
CLI_MODULES = [
    "lvef_fusion", "lvef_fusion.calibration", "lvef_fusion.cli", "lvef_fusion.cohort",
    "lvef_fusion.errors", "lvef_fusion.fusion", "lvef_fusion.propagation",
    "lvef_fusion.report", "lvef_fusion.simulate", "lvef_fusion.stochastics",
    "lvef_fusion.survival",
]


def test_exported_names():
    assert set(lvef_fusion.__all__) == EXPORTED
    assert len(lvef_fusion.__all__) == len(EXPORTED)


def test_every_exported_name_resolves():
    missing = [name for name in lvef_fusion.__all__ if not hasattr(lvef_fusion, name)]
    assert missing == []


def test_module_lists_are_the_package_api():
    # The simulate module is shadowed by the simulate function at package
    # level, so it is reached through sys.modules.
    modules = [calibration, cohort, errors, fusion, propagation, report,
               sys.modules["lvef_fusion.simulate"], stochastics, survival]
    for module in modules:
        for name in module.__all__:
            assert name in lvef_fusion.__all__, f"{module.__name__}.{name}"
            assert getattr(lvef_fusion, name) is getattr(module, name)


def test_version_is_the_tool_version():
    assert lvef_fusion.__version__ == report.TOOL_VERSION


def test_cli_import_loads_no_extra_modules():
    code = ("import json, sys; import lvef_fusion.cli; print(json.dumps(["
            "'multiprocessing' in sys.modules,"
            "sorted(m for m in sys.modules if m.split('.')[0] == 'lvef_fusion')]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=SRC).stdout
    multiprocessing_loaded, modules = json.loads(out)
    assert not multiprocessing_loaded
    assert modules == CLI_MODULES
