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
import os
import sys
import warnings
from pathlib import Path

from .calibration import CalibrationConfig
from .cohort import parse_cohort_csv, write_cohort_csv, write_fused_csv
from .errors import LvefFusionError, LvefFusionWarning
from .fusion import MODES, InstrumentSigma, fused_estimates, fused_sigma
from .propagation import SOURCES, PropagationConfig, source_values, stratum_km
from .report import (
    TOOL_NAME,
    TOOL_VERSION,
    artifact,
    calibration_echo,
    calibration_section,
    config_echo,
    cox_fit_to_dict,
    propagate_sources,
    propagation_to_dict,
    run_report,
    write_km_band_csv,
    write_report_json,
)
from .simulate import LITERATURE_SIMPSON_SD, LITERATURE_VISUAL_SD, SimConfig, simulate
from .survival import cox_fit_from_arrays

__all__ = ["build_parser", "main"]


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
                        default=LITERATURE_VISUAL_SD,
                        help="visual measurement error sd (default %(default)s)")
    parser.add_argument(*simpson_names, dest="sigma_simpson", type=float,
                        default=LITERATURE_SIMPSON_SD,
                        help="Simpson's measurement error sd (default %(default)s)")
    parser.add_argument("--mode", choices=MODES, default=InstrumentSigma.mode,
                        help="fusion weighting interpretation (default %(default)s)")


def _add_input_flag(parser):
    parser.add_argument("--input", default="-", metavar="PATH",
                        help="cohort CSV path, or - for stdin (default)")


def _add_output_flag(parser, default=None):
    parser.add_argument("--output", default=default, metavar="DIR",
                        help="artifact directory" + ("" if default else "; omit to print to stdout"))


def _add_seed_flag(parser):
    parser.add_argument("--seed", type=int, default=PropagationConfig.seed,
                        help="master seed (default %(default)s)")


def _add_strata_flags(parser):
    parser.add_argument("--horizon", type=float, default=PropagationConfig.horizon,
                        help="event-rate horizon in days (default %(default)s)")
    edges = PropagationConfig.band_edges
    parser.add_argument("--bands", type=_band_edges, default=edges, metavar="LO,HI",
                        help="stratum edges (default {:g},{:g})".format(*edges))


def _add_run_flags(parser):
    """The replicate-run flags propagate and report share."""
    parser.add_argument("--source", choices=SOURCES + ("all",), default="all",
                        help="source(s) to propagate (default %(default)s)")
    _add_seed_flag(parser)
    parser.add_argument("--replicates", type=int, default=PropagationConfig.replicates,
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
    p.add_argument("--n", type=int, default=SimConfig.n_patients,
                   help="cohort size (default %(default)s)")
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
    _echo_warnings(w.message for w in caught)
    return cohort, [f"{w.category.__name__}: {w.message}" for w in caught]


def _echo_warnings(messages) -> None:
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)


def _destination(output, filename):
    """Stdout when --output is omitted, else the file in that directory,
    which is made here, at the first write into it."""
    if output is None:
        return sys.stdout
    directory = Path(output)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / filename


def _sigmas(args) -> InstrumentSigma:
    return InstrumentSigma(args.sigma_visual, args.sigma_simpson, args.mode)


def cmd_fuse(args) -> int:
    sigmas = _sigmas(args)
    cohort, _ = _read_cohort(args.input)
    theta = fused_estimates(cohort, sigmas)
    write_fused_csv(cohort, theta, fused_sigma(sigmas), _destination(args.output, "fused.csv"))
    return 0


def cmd_calibrate_error(args) -> int:
    sigmas = _sigmas(args)
    calibration = CalibrationConfig()
    payload = artifact(sigmas, {"seed": args.seed, **calibration_echo(calibration)},
                       **calibration_section(sigmas, args.seed, calibration), warnings=[])
    write_report_json(payload, _destination(args.output, "calibration.json"))
    return 0


def cmd_km(args) -> int:
    # The config checks the horizon and band edges before the cohort is read.
    run = PropagationConfig(args.source, _sigmas(args), horizon=args.horizon,
                            band_edges=args.bands)
    cohort, _ = _read_cohort(args.input)
    values = source_values(cohort, run.source, run.sigmas)[0]

    strata = {}
    for label, stratum in stratum_km(values, cohort.time, cohort.event,
                                     run.band_edges, run.horizon).items():
        if stratum is None:
            strata[label] = {"present": False, "n": 0}
            continue
        n, curve, rate = stratum
        strata[label] = {
            "present": True,
            "n": n,
            "event_rate_at_horizon": rate,
            "curve": {name: getattr(curve, name).tolist()
                      for name in ("times", "survival", "at_risk", "events")},
        }

    settings = {"source": run.source, "horizon_days": run.horizon,
                "band_edges": list(run.band_edges)}
    payload = artifact(run.sigmas, settings, source=args.source,
                       n_patients=len(cohort), strata=strata)
    write_report_json(payload, _destination(args.output, f"km_{args.source}.json"))
    return 0


def cmd_cox(args) -> int:
    sigmas = _sigmas(args)
    cohort, _ = _read_cohort(args.input)
    values = source_values(cohort, args.source, sigmas)[0]
    fit = cox_fit_from_arrays(cohort.time, cohort.event, values)

    payload = artifact(sigmas, {"source": args.source}, source=args.source,
                       n_patients=len(cohort), n_events=int(cohort.event.sum()),
                       fit=cox_fit_to_dict(fit))
    write_report_json(payload, _destination(args.output, f"cox_{args.source}.json"))
    return 0


def _run_config(args) -> PropagationConfig:
    """The run's config from the sigma and run flags of propagate and report."""
    return PropagationConfig(args.source, _sigmas(args), seed=args.seed,
                             replicates=args.replicates, horizon=args.horizon,
                             band_edges=args.bands)


def cmd_propagate(args) -> int:
    config = _run_config(args)
    cohort, _ = _read_cohort(args.input)
    summaries, exclusions = propagate_sources(cohort, config)
    _echo_warnings(exclusions)
    echo = config_echo(config)
    for source, summary in summaries.items():
        payload = artifact(config.sigmas, echo, **propagation_to_dict(summary))
        write_report_json(payload, _destination(args.output, f"propagation_{source}.json"))
        write_km_band_csv(summary, _destination(args.output, f"km_bands_{source}.csv"))
    return 0


def cmd_simulate(args) -> int:
    config = SimConfig(n_patients=args.n, seed=args.seed)
    write_cohort_csv(simulate(config), _destination(args.output, "cohort.csv"))
    return 0


def cmd_report(args) -> int:
    config = _run_config(args)
    cohort, parse_warnings = _read_cohort(args.input)
    report, summaries = run_report(cohort, config, parse_warnings=parse_warnings)
    _echo_warnings(w["message"] for w in report["warnings"]
                   if w["category"] == "ReplicateExclusion")
    write_report_json(report, _destination(args.output, "report.json"))
    for source, summary in summaries.items():
        write_km_band_csv(summary, _destination(args.output, f"km_bands_{source}.csv"))
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
    except BrokenPipeError:
        # Stdout's reader is gone (simulate | head): exit 1 quietly, flushing to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (LvefFusionError, UnicodeDecodeError) as exc:
        # errors.py: a ValueError is a data error, anything else a numerical failure
        if isinstance(exc, ValueError):
            print(f"data error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
