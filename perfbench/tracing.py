"""Traced run of the lvef-fusion CLI, and the per-layer metrics of its spans.

    PYTHONPATH=src python3 perfbench/tracing.py SPANS_JSON RUN_ID CLI_ARGS...

Runs the CLI's ``main(CLI_ARGS)`` in this process after wrapping, from
outside the program, the module-level names through which the layers call one
another (``propagation`` looks up ``km_from_arrays``, ``cox_fit_from_arrays``,
``stratify`` and ``make_stream`` by name, so wrapping those names times every
call).  Each call becomes a span (name, start, end, parent, run id, counts);
spans stay in memory and are written to SPANS_JSON when the run ends.  Only
this traced run wraps anything: the end-to-end runs execute the CLI untouched.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

SOURCES = ("visual", "simpson", "assimilated")
ROOT_SPAN = "cli.main"
SPAN_FIELDS = ["name", "start", "end", "parent", "run_id", "counts"]
# Spans that only group layers; their self time is the unattributed time.
GROUPING_SPANS = (ROOT_SPAN, "report.run_report")


def _size(result):
    try:
        return len(result)
    except TypeError:
        return None


def _written_bytes(args, _result):
    paths = [a for a in args if isinstance(a, (str, os.PathLike))]
    return {"bytes": os.path.getsize(paths[0])} if paths and os.path.isfile(paths[0]) else None


def _config_source(args, _result):
    return {"source": next((a.source for a in args if hasattr(a, "source")), None)}


# (module, attribute, span name, counts taken from the arguments and result)
WRAPPED = (
    ("cli", "parse_cohort_csv", "cohort.parse", lambda a, r: {"rows": _size(r)}),
    ("cli", "write_fused_csv", "cohort.write", None),
    ("cli", "fused_estimates", "fusion.fuse", lambda a, r: {"patients": _size(r)}),
    ("cli", "run_report", "report.run_report", None),
    ("cli", "write_report_json", "report.serialize", _written_bytes),
    ("cli", "write_km_band_csv", "report.serialize", _written_bytes),
    ("report", "fused_estimates", "fusion.fuse", lambda a, r: {"patients": _size(r)}),
    ("report", "paired_calibration", "calibration.calibrate", None),
    ("report", "chain_diagnostics", "calibration.diagnostics", None),
    ("report", "make_stream", "stochastics.stream", None),
    ("report", "propagate", "propagation.propagate", _config_source),
    ("propagation", "make_stream", "stochastics.stream", None),
    ("propagation", "stratify", "propagation.stratify", None),
    ("propagation", "km_from_arrays", "survival.km",
     lambda a, r: {"event_times": int(r.times.size)}),
    ("propagation", "km_event_rate_at", "survival.km_rate", None),
    ("propagation", "cox_fit_from_arrays", "survival.cox",
     lambda a, r: {"iterations": int(r.iterations), "converged": bool(r.converged)}),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, counts]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def call(self, name, fn, args, kwargs, describe=None):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, None])
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._close(index, {"error": type(exc).__name__})
            raise
        self._close(index, None)
        if describe is not None:
            self.spans[index][4] = describe(args, result)
        return result

    def _close(self, index, counts):
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = counts
        self._stack.pop()

    def wrap(self, module, attribute, name, describe):
        fn = getattr(module, attribute)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, describe)

        setattr(module, attribute, traced)

    def dump(self, path, missing):
        """Write the spans as rows of SPAN_FIELDS; one run id per span."""
        rows = [[n, s, e, p, self.run_id, c] for n, s, e, p, c in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": SPAN_FIELDS, "unwrapped": missing,
                                     "spans": rows}))


def load_trace(path) -> tuple[list[dict], list[str]]:
    """(spans as dicts, names the traced run could not wrap) from a dump."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return [dict(zip(data["fields"], row)) for row in data["spans"]], data["unwrapped"]


def install(tracer: Tracer) -> list[str]:
    """Wrap every name in WRAPPED; return the names the program lacks."""
    missing = []
    for module_name, attribute, name, describe in WRAPPED:
        module = importlib.import_module(f"lvef_fusion.{module_name}")
        if hasattr(module, attribute):
            tracer.wrap(module, attribute, name, describe)
        else:
            missing.append(f"{module_name}.{attribute}")
    return missing


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics {name: (value, unit)} from one traced run's spans."""
    duration = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    by_name: dict = {}
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            child_time[span["parent"]] += duration[i]
        by_name.setdefault(span["name"], []).append(i)
    self_time = [d - c for d, c in zip(duration, child_time)]

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(duration[i] for i in named(name))

    def count(name, key):
        return sum((spans[i]["counts"] or {}).get(key) or 0 for i in named(name))

    cox_calls = len(named("survival.cox"))
    propagate = named("propagation.propagate")
    root = named(ROOT_SPAN)
    root_time = sum(duration[i] for i in root)
    unattributed = sum(self_time[i] for n in GROUPING_SPANS for i in named(n))

    metrics = {
        "cohort.parse_s": (total("cohort.parse"), "s"),
        "cohort.rows": (count("cohort.parse", "rows"), "count"),
        "cohort.write_s": (total("cohort.write"), "s"),
        "fusion.fuse_s": (total("fusion.fuse"), "s"),
        "fusion.patients": (count("fusion.fuse", "patients"), "count"),
        "calibration.calibrate_s": (total("calibration.calibrate"), "s"),
        "calibration.diagnostics_s": (total("calibration.diagnostics"), "s"),
        "stochastics.stream_s": (total("stochastics.stream"), "s"),
        "stochastics.streams": (len(named("stochastics.stream")), "count"),
        "propagation.stratify_s": (total("propagation.stratify"), "s"),
        "survival.km_s": (total("survival.km"), "s"),
        "survival.km_calls": (len(named("survival.km")), "count"),
        "survival.km_event_times": (count("survival.km", "event_times"), "count"),
        "survival.km_rate_s": (total("survival.km_rate"), "s"),
        "survival.cox_s": (total("survival.cox"), "s"),
        "survival.cox_calls": (cox_calls, "count"),
        "survival.cox_iterations": (count("survival.cox", "iterations"), "count"),
        "survival.cox_converged_ratio": (
            count("survival.cox", "converged") / cox_calls if cox_calls else 0.0, "ratio"),
    }
    for source in SOURCES:
        metrics[f"propagation.propagate_s.{source}"] = (
            sum(duration[i] for i in propagate
                if (spans[i]["counts"] or {}).get("source") == source), "s")
    metrics["propagation.self_s"] = (sum(self_time[i] for i in propagate), "s")
    metrics["report.serialize_s"] = (total("report.serialize"), "s")
    metrics["report.bytes_written"] = (count("report.serialize", "bytes"), "bytes")
    metrics["trace.attributed_share"] = (
        1.0 - unattributed / root_time if root_time else 0.0, "ratio")
    return metrics


def main() -> int:
    spans_path, run_id, *argv = sys.argv[1:]
    cli = importlib.import_module("lvef_fusion.cli")
    tracer = Tracer(run_id)
    missing = install(tracer)
    try:
        return tracer.call(ROOT_SPAN, cli.main, (argv,), {})
    finally:
        tracer.dump(spans_path, missing)


if __name__ == "__main__":
    sys.exit(main())
