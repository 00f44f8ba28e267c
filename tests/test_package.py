"""The package surface: the exported names, the names each module imports,
and what importing the CLI loads."""

import ast
import importlib
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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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
    "KmBand", "PropagationConfig", "PropagationSummary", "propagate", "stratum_km",
    # report
    "run_report", "write_km_band_csv", "write_report_json",
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


def _imported_names(tree) -> dict:
    """{bound name: imported name} of a module's imports, __future__ aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(((a.asname or a.name).split(".")[0], a.name) for a in node.names)
    return names


def _module_tree(name):
    return ast.parse((SRC / "lvef_fusion" / f"{name}.py").read_text(encoding="utf-8"))


def test_every_import_is_used_or_exported():
    # An import kept only so that something outside the program can reach
    # it through the module is surface that no code of the program runs.
    unused = []
    for path in sorted((SRC / "lvef_fusion").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = _module_tree(path.stem)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(importlib.import_module(f"lvef_fusion.{path.stem}").__all__)
        unused += [f"{path.stem}.{bound}" for bound in _imported_names(tree)
                   if bound not in used]
    assert unused == []


def test_cli_imports_no_private_name():
    # The front end reaches the library through its public names only.
    imported = _imported_names(_module_tree("cli")).values()
    assert [name for name in imported if name.startswith("_")] == []


def test_src_imports_only_the_stdlib_and_numpy():
    # numpy is the one runtime dependency; scipy and the rest of the test
    # extra must not reach the program (ROADMAP item 15).
    assert '\ndependencies = ["numpy>=1.24"]\n' in (ROOT / "pyproject.toml").read_text()
    allowed = sys.stdlib_module_names | {"numpy"}
    foreign = []
    for path in sorted((SRC / "lvef_fusion").glob("*.py")):
        for node in ast.walk(_module_tree(path.stem)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.stem}: {m}" for m in modules if m.split(".")[0] not in allowed]
    assert foreign == []


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


def test_console_script_runs_the_cli_main():
    # The one thing true only once installed; CI runs the script as a smoke
    # test, and the rest of the suite calls cli.main in process.
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'lvef-fusion = "lvef_fusion.cli:main"'
