"""Command-line interface wrapping the library pipeline.

Subcommands: fuse, calibrate-error, km, cox, propagate, simulate, report.
Exit codes: 0 success, 1 usage error, 2 data validation error, 3 numerical
failure (diagnostic payload on stderr).  All randomness derives from --seed;
identical inputs and flags reproduce identical artifacts apart from the
generated_at timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .calibration import CalibrationConfig
from .cohort import parse_cohort_csv, write_cohort_csv, write_fused_csv
from .errors import (
    DegenerateDataError,
    DomainError,
    EmptyInputError,
    InitializationError,
    InvalidParameterError,
    InvalidStateError,
    LvefFusionWarning,
    NonConvergenceError,
    PropagationError,
    RowError,
    SchemaError,
    SeparationError,
)
from .fusion import MODES, InstrumentSigma, fused_estimates, fused_sigma
from .propagation import SOURCES, source_values, stratum_km
from .report import (
    TOOL_NAME,
    TOOL_VERSION,
    ReportOptions,
    artifact_metadata,
    calibration_echo,
    calibration_section,
    cox_fit_to_dict,
    propagate_sources,
    propagation_to_dict,
    render_report_json,
    run_report,
    sigma_echo,
    write_km_band_csv,
    write_report_json,
)
from .simulate import SimConfig, simulate
from .survival import cox_fit_from_arrays

__all__ = ["build_parser", "main"]

DEFAULT_SIGMA_VISUAL = 18.1
DEFAULT_SIGMA_SIMPSON = 8.8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so main() can map usage errors to code 1."""

    def error(self, message):
        raise _UsageError(message)


def _band_edges(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated edges like 35,50, got {text!r}"
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse band edges {text!r}") from None


def _add_sigma_flags(parser, short_aliases=False):
    visual_names = (["--visual", "--sigma-visual"] if short_aliases else ["--sigma-visual"])
    simpson_names = (["--simpson", "--sigma-simpson"] if short_aliases else ["--sigma-simpson"])
    parser.add_argument(*visual_names, dest="sigma_visual", type=float,
                        default=DEFAULT_SIGMA_VISUAL,
                        help="visual measurement error sd (default %(default)s)")
    parser.add_argument(*simpson_names, dest="sigma_simpson", type=float,
                        default=DEFAULT_SIGMA_SIMPSON,
                        help="Simpson's measurement error sd (default %(default)s)")
    parser.add_argument("--mode", choices=MODES, default="paper-sd",
                        help="fusion weighting interpretation (default %(default)s)")


def _add_input_flag(parser):
    parser.add_argument("--input", default="-", metavar="PATH",
                        help="cohort CSV path, or - for stdin (default)")


def _add_output_flag(parser, default=None):
    parser.add_argument("--output", default=default, metavar="DIR",
                        help="artifact directory" + ("" if default else "; omit to print to stdout"))


def _add_seed_flag(parser):
    parser.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")


def _add_strata_flags(parser):
    parser.add_argument("--horizon", type=float, default=365.0,
                        help="event-rate horizon in days (default %(default)s)")
    parser.add_argument("--bands", type=_band_edges, default=(35.0, 50.0), metavar="LO,HI",
                        help="stratum edges (default 35,50)")


def _add_run_flags(parser):
    """The replicate-run flags propagate and report share."""
    parser.add_argument("--source", choices=SOURCES + ("all",), default="all",
                        help="source(s) to propagate (default %(default)s)")
    _add_seed_flag(parser)
    parser.add_argument("--replicates", type=int, default=1000,
                        help="noise replicates (default %(default)s)")
    _add_strata_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=TOOL_NAME,
        description="Precision-weighted LVEF fusion, error calibration, and "
                    "survival uncertainty propagation.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("fuse", help="fuse paired readings into per-patient estimates")
    _add_input_flag(p)
    _add_sigma_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("calibrate-error",
                       help="posterior calibration of instrument error and reduction R")
    _add_sigma_flags(p, short_aliases=True)
    _add_seed_flag(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_calibrate_error)

    p = sub.add_parser("km", help="stratified Kaplan-Meier curves for one source")
    _add_input_flag(p)
    _add_sigma_flags(p)
    p.add_argument("--source", choices=SOURCES, default="assimilated",
                   help="which estimate stratifies the cohort (default %(default)s)")
    _add_strata_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_km)

    p = sub.add_parser("cox", help="proportional-hazards fit for one source")
    _add_input_flag(p)
    _add_sigma_flags(p)
    p.add_argument("--source", choices=SOURCES, default="assimilated",
                   help="which estimate enters the model (default %(default)s)")
    _add_output_flag(p)
    p.set_defaults(func=cmd_cox)

    p = sub.add_parser("propagate",
                       help="replicate measurement noise through the survival analyses")
    _add_input_flag(p)
    _add_sigma_flags(p)
    _add_run_flags(p)
    _add_output_flag(p, default=".")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("simulate", help="generate a synthetic cohort CSV")
    p.add_argument("--n", type=int, default=1366, help="cohort size (default %(default)s)")
    _add_seed_flag(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="run every stage and emit the full report")
    _add_input_flag(p)
    _add_sigma_flags(p)
    _add_run_flags(p)
    _add_output_flag(p, default=".")
    p.set_defaults(func=cmd_report)

    return parser


def _read_cohort(path):
    """Parse the cohort, mirroring library warnings to stderr.

    Returns (cohort, warning messages) so report-producing commands can
    carry the messages into their artifacts.
    """
    source = sys.stdin.buffer if path == "-" else path
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LvefFusionWarning)
        cohort = parse_cohort_csv(source)
    messages = []
    for w in caught:
        messages.append(f"{w.category.__name__}: {w.message}")
        print(f"warning: {w.message}", file=sys.stderr)
    return cohort, messages


def _out_path(directory, filename) -> Path:
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    return path / filename


def _emit_json(payload: dict, output_dir, filename: str) -> None:
    text = render_report_json(payload)
    if output_dir is None:
        sys.stdout.write(text)
    else:
        _out_path(output_dir, filename).write_text(text, encoding="utf-8")


def _sigmas(args) -> InstrumentSigma:
    return InstrumentSigma(args.sigma_visual, args.sigma_simpson, args.mode)


def cmd_fuse(args) -> int:
    cohort, _ = _read_cohort(args.input)
    sigmas = _sigmas(args)
    theta = fused_estimates(cohort, sigmas)
    destination = sys.stdout if args.output is None else _out_path(args.output, "fused.csv")
    write_fused_csv(cohort, theta, fused_sigma(sigmas), destination)
    return 0


def cmd_calibrate_error(args) -> int:
    sigmas = _sigmas(args)
    calibration = CalibrationConfig(observed_sigma=sigmas.visual_sigma)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LvefFusionWarning)
        section = calibration_section(sigmas, args.seed, calibration)
    messages = [f"{w.category.__name__}: {w.message}" for w in caught]
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)

    payload = {
        "metadata": artifact_metadata(args.seed),
        "config": {**sigma_echo(sigmas), **calibration_echo(calibration)},
        **section,
        "warnings": messages,
    }
    _emit_json(payload, args.output, "calibration.json")
    return 0


def _source_column(cohort, args):
    """(sigmas, values of args.source) for the km and cox commands."""
    sigmas = _sigmas(args)
    fused = fused_estimates(cohort, sigmas) if args.source == "assimilated" else None
    values, _ = source_values(cohort, fused, args.source, sigmas)
    return sigmas, values


def cmd_km(args) -> int:
    cohort, _ = _read_cohort(args.input)
    sigmas, values = _source_column(cohort, args)

    strata = {}
    for label, stratum in stratum_km(values, cohort.time, cohort.event,
                                     args.bands, args.horizon).items():
        if stratum is None:
            strata[label] = {"present": False, "n": 0}
            continue
        n, curve, rate = stratum
        strata[label] = {
            "present": True,
            "n": n,
            "event_rate_at_horizon": rate,
            "curve": {
                "times": curve.times.tolist(),
                "survival": curve.survival.tolist(),
                "at_risk": curve.at_risk.tolist(),
                "events": curve.events.tolist(),
            },
        }

    payload = {
        "metadata": artifact_metadata(),
        "config": {
            "source": args.source,
            **sigma_echo(sigmas),
            "horizon_days": args.horizon,
            "band_edges": list(args.bands),
        },
        "source": args.source,
        "n_patients": len(cohort),
        "strata": strata,
    }
    _emit_json(payload, args.output, f"km_{args.source}.json")
    return 0


def cmd_cox(args) -> int:
    cohort, _ = _read_cohort(args.input)
    sigmas, values = _source_column(cohort, args)
    fit = cox_fit_from_arrays(cohort.time, cohort.event, values)

    payload = {
        "metadata": artifact_metadata(),
        "config": {"source": args.source, **sigma_echo(sigmas)},
        "source": args.source,
        "n_patients": len(cohort),
        "n_events": int(cohort.event.sum()),
        "fit": cox_fit_to_dict(fit),
    }
    _emit_json(payload, args.output, f"cox_{args.source}.json")
    return 0


def _report_options(args) -> ReportOptions:
    """ReportOptions from the sigma and run flags of propagate and report."""
    return ReportOptions(
        sigmas=_sigmas(args),
        seed=args.seed,
        replicates=args.replicates,
        horizon=args.horizon,
        band_edges=args.bands,
        sources=SOURCES if args.source == "all" else (args.source,),
    )


def cmd_propagate(args) -> int:
    cohort, _ = _read_cohort(args.input)
    options = _report_options(args)
    fused = fused_estimates(cohort, options.sigmas)
    for summary, message in propagate_sources(cohort, fused, options):
        if message:
            print(f"warning: {message}", file=sys.stderr)
        payload = {"metadata": artifact_metadata(args.seed), **propagation_to_dict(summary)}
        _emit_json(payload, args.output, f"propagation_{summary.source}.json")
        write_km_band_csv(summary, _out_path(args.output, f"km_bands_{summary.source}.csv"))
    return 0


def cmd_simulate(args) -> int:
    config = SimConfig(n_patients=args.n, seed=args.seed)
    destination = sys.stdout if args.output is None else _out_path(args.output, "cohort.csv")
    write_cohort_csv(simulate(config), destination)
    return 0


def cmd_report(args) -> int:
    cohort, parse_warnings = _read_cohort(args.input)
    report, summaries = run_report(cohort, _report_options(args), parse_warnings=parse_warnings)
    write_report_json(report, _out_path(args.output, "report.json"))
    for source, summary in summaries.items():
        write_km_band_csv(summary, _out_path(args.output, f"km_bands_{source}.csv"))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # --help and --version exit via argparse with code 0
        return 0 if exc.code in (None, 0) else int(exc.code)

    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SchemaError, RowError, EmptyInputError, DomainError,
            DegenerateDataError, InvalidParameterError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (SeparationError, NonConvergenceError, PropagationError, InitializationError,
            InvalidStateError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
