"""Precision-weighted fusion of paired LVEF measurements with survival
uncertainty propagation.

The package combines a cardiologist's visual LVEF reading with the Simpson's
biplane measurement by inverse-error weighting, calibrates the instrument
error figures with a Metropolis sampler, and propagates measurement noise
through stratified Kaplan-Meier and Cox analyses as replicate credible bands.
"""

from .calibration import (
    CalibrationConfig,
    ChainDiagnostics,
    ErrorPosterior,
    ReductionDistribution,
    calibrate,
    chain_diagnostics,
    paired_calibration,
    reduction_distribution,
)
from .cohort import (
    Cohort,
    parse_cohort_csv,
    write_cohort_csv,
    write_fused_csv,
)
from .errors import (
    DegenerateDataError,
    DomainError,
    DuplicateIdError,
    EmptyInputError,
    InitializationError,
    InvalidParameterError,
    InvalidStateError,
    LvefFusionError,
    LvefFusionWarning,
    NonConvergenceError,
    PropagationError,
    RowError,
    SchemaError,
    SeparationError,
)
from .fusion import (
    FusedEstimate,
    InstrumentSigma,
    fuse,
    fused_estimates,
    fused_sigma,
    precision_ratio,
    relative_reduction,
    total_variation,
)
from .propagation import (
    KmBand,
    PropagationConfig,
    PropagationSummary,
    StratumSummary,
    propagate,
    stratify,
)
from .report import (
    TOOL_VERSION as __version__,
    ReportOptions,
    render_report_json,
    run_report,
    write_km_band_csv,
    write_report_json,
)
from .simulate import (
    SimConfig,
    concordant_config,
    rmse_vs_truth,
    simulate,
)
from .stochastics import (
    RngStream,
    SampleSummary,
    make_stream,
    summarize,
)
from .survival import (
    CoxFit,
    KmCurve,
    cox_fit_from_arrays,
    cox_loglik_from_arrays,
    hazard_ratio_per,
    km_event_rate_at,
    km_from_arrays,
    km_survival_at,
)

__all__ = [
    "__version__",
    # fusion
    "InstrumentSigma",
    "FusedEstimate",
    "fuse",
    "fused_estimates",
    "fused_sigma",
    "precision_ratio",
    "total_variation",
    "relative_reduction",
    # calibration
    "CalibrationConfig",
    "ErrorPosterior",
    "ReductionDistribution",
    "ChainDiagnostics",
    "calibrate",
    "reduction_distribution",
    "chain_diagnostics",
    "paired_calibration",
    # survival
    "KmCurve",
    "CoxFit",
    "km_from_arrays",
    "km_survival_at",
    "km_event_rate_at",
    "cox_loglik_from_arrays",
    "cox_fit_from_arrays",
    "hazard_ratio_per",
    # propagation
    "PropagationConfig",
    "PropagationSummary",
    "StratumSummary",
    "KmBand",
    "propagate",
    "stratify",
    # cohort I/O
    "Cohort",
    "parse_cohort_csv",
    "write_cohort_csv",
    "write_fused_csv",
    # simulation
    "SimConfig",
    "simulate",
    "concordant_config",
    "rmse_vs_truth",
    # stochastics
    "RngStream",
    "SampleSummary",
    "make_stream",
    "summarize",
    # report
    "ReportOptions",
    "run_report",
    "render_report_json",
    "write_report_json",
    "write_km_band_csv",
    # errors
    "LvefFusionError",
    "LvefFusionWarning",
    "InvalidParameterError",
    "DomainError",
    "EmptyInputError",
    "DegenerateDataError",
    "InitializationError",
    "SeparationError",
    "NonConvergenceError",
    "InvalidStateError",
    "PropagationError",
    "SchemaError",
    "RowError",
    "DuplicateIdError",
]
