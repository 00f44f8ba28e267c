"""Report assembly: sections, determinism, serialization, KM band CSV."""

import csv
import dataclasses
import functools
import gc
import io
import json
import math
import re
import sys
import warnings
from datetime import datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import report_oracle
from lvef_fusion import report as report_module
from lvef_fusion.calibration import CalibrationConfig, calibrate
from lvef_fusion.cohort import Cohort, parse_cohort_csv, write_cohort_csv, write_fused_csv
from lvef_fusion.errors import DegenerateDataError, InvalidParameterError, InvalidStateError
from lvef_fusion.fusion import InstrumentSigma, fuse, precision_ratio
from lvef_fusion.propagation import (
    SOURCES,
    STRATA,
    KmBand,
    PropagationConfig,
    PropagationSummary,
    propagate,
)
from lvef_fusion.report import (
    TOOL_NAME,
    TOOL_VERSION,
    calibration_echo,
    config_hash,
    cox_fit_to_dict,
    propagation_to_dict,
    run_report,
    summary_to_dict,
    write_km_band_csv,
    write_report_json,
)
from lvef_fusion.simulate import SimConfig, simulate
from lvef_fusion.stochastics import SampleSummary, make_stream, summarize
from lvef_fusion.survival import CoxFit, cox_fit_from_arrays

SIGMAS = InstrumentSigma(18.1, 8.8)
# The hazard-ratio summary of the hand-built PropagationSummary objects.
_HAZARD_RATIO = SampleSummary(1.0, 0.05, {0.025: 0.9, 0.975: 1.1}, 10)
FAST_CALIBRATION = CalibrationConfig(kept_samples=400)


def _config(**overrides):
    base = dict(source="all", sigmas=SIGMAS, seed=4, replicates=40)
    base.update(overrides)
    return PropagationConfig(**base)


def _rows(rows):
    """A Cohort from (patient_id, visual, simpson, time, event) rows."""
    return Cohort(*zip(*rows))


def render_report_json(report: dict) -> str:
    """The text write_report_json writes for report."""
    buffer = io.StringIO()
    write_report_json(report, buffer)
    return buffer.getvalue()


def _quiet_report(cohort, config, calibration=FAST_CALIBRATION, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_report(cohort, config, calibration, **kwargs)


@pytest.fixture(scope="module")
def cohort():
    return simulate(SimConfig(n_patients=250, seed=13))


@pytest.fixture(scope="module")
def report_and_summaries(cohort):
    return _quiet_report(cohort, _config())


@pytest.fixture(scope="module")
def zero_report(cohort):
    return _quiet_report(cohort, _config(sigmas=InstrumentSigma(0.0, 0.0), replicates=10))


@pytest.fixture(scope="module")
def band_rows(report_and_summaries):
    _, summaries = report_and_summaries
    buffer = io.StringIO()
    write_km_band_csv(list(summaries.values()), buffer)
    return list(csv.reader(io.StringIO(buffer.getvalue())))


class TestSections:
    def test_top_level_layout(self, report_and_summaries):
        report, _ = report_and_summaries
        assert set(report) == {
            "metadata", "config", "units", "fusion",
            "error_calibration", "propagation", "warnings",
        }

    def test_metadata(self, report_and_summaries):
        report, _ = report_and_summaries
        meta = report["metadata"]
        assert meta["tool"] == TOOL_NAME
        assert meta["version"] == TOOL_VERSION
        assert meta["seed"] == 4
        assert meta["config_hash"] == config_hash(report["config"])
        datetime.fromisoformat(meta["generated_at"])

    def test_fusion_section(self, report_and_summaries):
        report, _ = report_and_summaries
        fusion = report["fusion"]
        assert fusion["n_patients"] == 250
        assert fusion["omega"] == pytest.approx(18.1 / 8.8)
        assert fusion["relative_reduction"] == pytest.approx(-0.32714, abs=1e-4)
        assert fusion["theta_sigma"] == pytest.approx(5.92119, abs=1e-4)
        theta = fusion["cohort_theta"]
        assert set(theta) == {"mean", "sd", "n", "quantiles"}
        assert set(theta["quantiles"]) == {"0.025", "0.5", "0.975"}

    def test_calibration_section(self, report_and_summaries):
        report, _ = report_and_summaries
        cal = report["error_calibration"]
        assert set(cal) == {"visual", "simpson", "relative_reduction"}
        for side in ("visual", "simpson"):
            post = cal[side]
            assert set(post) == {"acceptance_rate", "parameter", "predictive"}
            assert 0.5 <= post["acceptance_rate"] <= 1.0
            assert post["predictive"]["n"] == 400
        assert -1.0 < cal["relative_reduction"]["mean"] < 0.0

    def test_propagation_section(self, report_and_summaries):
        report, summaries = report_and_summaries
        assert set(report["propagation"]) == {"visual", "simpson", "assimilated"}
        for source, block in report["propagation"].items():
            assert block["replicates"] == 40
            hr = block["hazard_ratio"]
            assert hr["band_width"] == hr["q0.975"] - hr["q0.025"]
            assert set(block["event_rates"]) == {"low", "mid", "high"}
            assert propagation_to_dict(summaries[source]) == block

    def test_warning_entries_have_category_and_message(self, report_and_summaries):
        report, _ = report_and_summaries
        for entry in report["warnings"]:
            assert set(entry) == {"category", "message"}


class TestSingleSource:
    def test_echo_and_sections_name_the_source(self, cohort):
        report, summaries = _quiet_report(cohort, _config(source="simpson", replicates=2))
        assert report["config"]["sources"] == ["simpson"]
        assert list(report["propagation"]) == list(summaries) == ["simpson"]


class TestReportOptionsValidation:
    def test_unknown_source_rejected(self, cohort):
        """A report's run config naming a source outside SOURCES is refused."""
        with pytest.raises(InvalidParameterError, match="source must be one of"):
            _quiet_report(cohort, _config(source="doppler"))


class TestDeterminism:
    def test_identical_excluding_timestamp(self, cohort):
        first, _ = _quiet_report(cohort, _config())
        second, _ = _quiet_report(cohort, _config())
        first["metadata"].pop("generated_at")
        second["metadata"].pop("generated_at")
        assert first == second
        assert render_report_json(first) == render_report_json(second)

    def test_numpy_integer_counts_render_as_plain_ints(self, cohort, report_and_summaries):
        counts = CalibrationConfig(kept_samples=np.int64(400))
        numpy_report, _ = _quiet_report(cohort, _config(), calibration=counts)
        plain_report, _ = report_and_summaries
        texts = [render_report_json({**report, "metadata": {
            key: value for key, value in report["metadata"].items() if key != "generated_at"}})
            for report in (numpy_report, plain_report)]
        assert texts[0] == texts[1]

    def test_seed_changes_hash_and_results(self, cohort, report_and_summaries):
        baseline, _ = report_and_summaries
        other, _ = _quiet_report(cohort, _config(seed=5))
        assert other["metadata"]["config_hash"] != baseline["metadata"]["config_hash"]
        assert (other["propagation"]["visual"]["hazard_ratio"]["mean"]
                != baseline["propagation"]["visual"]["hazard_ratio"]["mean"])

    def test_default_calibration_is_explicit_defaults(self, cohort):
        config = _config(replicates=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports = [run_report(cohort, config)[0],
                       run_report(cohort, config, CalibrationConfig())[0]]
        texts = []
        for report in reports:
            report["metadata"].pop("generated_at")
            texts.append(render_report_json(report))
        assert texts[0] == texts[1]
        assert json.loads(texts[0])["config"]["calibration"]["kept_samples"] == 5000

    def test_prior_rate_changes_hash(self, cohort):
        # prior_rate moves the posterior, so it must enter the hash.
        tiny = _rows([("p0", 40.0, 45.0, 100.0, 1), ("p1", 60.0, 58.0, 200.0, 0),
                      ("p2", 30.0, 35.0, 50.0, 1)])
        reports = [_quiet_report(tiny, _config(replicates=2), calibration=CalibrationConfig(
            kept_samples=400, prior_rate=prior_rate))[0]
            for prior_rate in (1e-3, 0.5)]
        assert [r["config"]["calibration"]["prior_rate"] for r in reports] == [1e-3, 0.5]
        assert reports[0]["metadata"]["config_hash"] != reports[1]["metadata"]["config_hash"]
        assert (reports[0]["error_calibration"]["visual"]["parameter"]
                != reports[1]["error_calibration"]["visual"]["parameter"])


class TestConfigHash:
    def test_insensitive_to_key_order(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    @pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(CalibrationConfig)])
    def test_every_calibration_setting_moves_the_hash(self, name):
        base = CalibrationConfig()
        changed = getattr(base, name) + 1
        other = dataclasses.replace(base, **{name: changed})
        assert calibration_echo(other)[name] == changed
        assert config_hash(calibration_echo(other)) != config_hash(calibration_echo(base))


class TestSerializationHelpers:
    def test_summary_to_dict_keys_are_strings(self):
        d = summary_to_dict(summarize([1.0, 2.0, 3.0, 4.0]))
        assert d["mean"] == 2.5 and d["n"] == 4
        assert set(d["quantiles"]) == {"0.025", "0.5", "0.975"}

    def test_cox_fit_to_dict_converged(self):
        cohort = simulate(SimConfig(n_patients=400, seed=2))
        time = cohort.time
        event = cohort.event
        values = cohort.simpson
        d = cox_fit_to_dict(cox_fit_from_arrays(time, event, values))
        assert d["converged"] is True
        hr = d["hazard_ratio"]
        assert hr["wald_lower"] < hr["estimate"] < hr["wald_upper"]
        assert hr["per_lvef_decrease"] == 5.0

    def test_cox_fit_to_dict_nonfinite_becomes_null(self):
        stub = CoxFit(beta=-0.1, standard_error=math.inf, iterations=3,
                      converged=True, log_partial_likelihood=-10.0)
        d = cox_fit_to_dict(stub)
        assert d["standard_error"] is None
        assert d["hazard_ratio"]["estimate"] == pytest.approx(math.exp(0.5))
        # the Wald interval degenerates to (0, inf); only inf needs null
        assert d["hazard_ratio"]["wald_lower"] == 0.0
        assert d["hazard_ratio"]["wald_upper"] is None
        assert "null" in json.dumps(d)

    def test_unconverged_fit_omits_hazard_ratio(self):
        stub = CoxFit(beta=-0.1, standard_error=math.nan, iterations=25,
                      converged=False, log_partial_likelihood=-10.0)
        assert "hazard_ratio" not in cox_fit_to_dict(stub)

    def test_render_is_sorted_parseable_and_finite(self, report_and_summaries):
        report, _ = report_and_summaries
        text = render_report_json(report)
        assert text.endswith("\n")
        assert json.loads(text) == report
        assert "NaN" not in text and "Infinity" not in text

    def test_posterior_dict_roundtrip(self):
        from lvef_fusion.report import posterior_to_dict

        posterior = calibrate(18.1, make_stream(1, 2**32), FAST_CALIBRATION)
        d = posterior_to_dict(posterior)
        assert set(d) == {"acceptance_rate", "parameter", "predictive"}
        assert d["predictive"]["mean"] == pytest.approx(18.1, abs=2.0)


class TestZeroSigmaReport:
    def test_calibration_skipped_with_reason(self, zero_report):
        cal = zero_report[0]["error_calibration"]
        assert cal["skipped"] is True
        assert "positive" in cal["reason"]
        assert "calibration" not in zero_report[0]["config"]

    def test_fusion_omits_ratio_fields(self, zero_report):
        fusion = zero_report[0]["fusion"]
        assert "omega" not in fusion and "relative_reduction" not in fusion
        assert fusion["theta_sigma"] == 0.0

    def test_bands_have_exactly_zero_width(self, zero_report):
        report, summaries = zero_report
        for block in report["propagation"].values():
            assert block["hazard_ratio"]["band_width"] == 0.0
        for summary in summaries.values():
            for band in summary.km_bands.values():
                if band is not None:
                    assert np.array_equal(band.lower, band.upper)


class TestWarnings:
    def test_parse_warnings_passed_through(self, cohort):
        report, _ = _quiet_report(cohort, _config(),
                                  parse_warnings=["row 3: visual off grid"])
        assert {"category": "ParseWarning",
                "message": "row 3: visual off grid"} in report["warnings"]

    def test_replicate_exclusions_reported(self):
        # Events at the extreme low end of a tiny-gap covariate: noise of the
        # same scale reshuffles the order, so some replicates separate.
        cohort = _rows([
            ("p0", 21.000, 21.000, 10.0, 1),
            ("p1", 21.005, 21.005, 20.0, 1),
            ("p2", 21.010, 21.010, 400.0, 0),
            ("p3", 21.015, 21.015, 400.0, 0),
        ])
        config = _config(source="visual", sigmas=InstrumentSigma(5e-3, 8.8), seed=0)
        report, summaries = _quiet_report(cohort, config)
        excluded = summaries["visual"].failed_replicates
        assert excluded > 0
        matches = [w for w in report["warnings"]
                   if w["category"] == "ReplicateExclusion"]
        assert len(matches) == 1
        assert f"{excluded} of 40" in matches[0]["message"]

    def test_all_censored_cohort_rejected(self):
        censored = _rows([(f"p{i}", 50.0, 50.0, 400.0, 0)
                          for i in range(10)])
        with pytest.raises(DegenerateDataError):
            _quiet_report(censored, _config())


class TestNonFiniteDerivedQuantities:
    """Sigmas whose precision ratio or calibration spread overflow a double
    are rejected as data errors instead of reaching report.json as Infinity
    or NaN."""

    @pytest.mark.parametrize("visual,simpson,match", [
        (1e300, 1e-10, "precision ratio"),
        (1e305, 1e305, "cannot calibrate visual_sigma: observed_sigma 1e\\+305 is too large"),
    ])
    def test_run_report_rejects(self, cohort, visual, simpson, match):
        config = _config(sigmas=InstrumentSigma(visual, simpson), replicates=2)
        with pytest.raises(InvalidParameterError, match=match):
            _quiet_report(cohort, config)

    @pytest.mark.parametrize("sigmas", [InstrumentSigma(1e300, 1e-10),
                                        InstrumentSigma(1e150, 1e-10, "variance")])
    def test_precision_ratio_and_fuse_reject(self, sigmas):
        with pytest.raises(InvalidParameterError, match="precision ratio"):
            precision_ratio(sigmas)
        with pytest.raises(InvalidParameterError, match="precision ratio"):
            fuse(50.0, 55.0, sigmas)

    def test_calibrate_rejects_overflowing_spread(self):
        # At 1e307, mk * sigma overflows; at 1e305 the posterior sits near
        # 1e154, so the predictive spread squares past the double range.
        for sigma in (1e307, 1e305):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(InvalidParameterError, match="too large.*not finite"):
                    calibrate(sigma, make_stream(0, 1), CalibrationConfig(kept_samples=100))

    def test_huge_sigma_calibrates_to_standard_json(self):
        # The Gamma(1e-3, 1e-3) prior pulls sigma = 1e300's posterior to
        # about 3.1e152, whose predictive spread is still finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            section = report_module.calibration_section(
                InstrumentSigma(1e300, 1e300), 0, CalibrationConfig())
        assert section["visual"]["parameter"]["mean"] == pytest.approx(3.1e152, rel=0.01)
        json.dumps(section, allow_nan=False)

    def test_tiny_sigmas_give_standard_json(self, cohort):
        config = _config(sigmas=InstrumentSigma(1e-300, 1e-300), replicates=2)
        report, _ = _quiet_report(cohort, config)
        json.dumps(report, allow_nan=False)


class TestKmBandCsv:
    def test_header(self, band_rows):
        assert band_rows[0] == ["source", "stratum", "time_days",
                                "lower", "mean", "upper"]

    def test_row_counts_match_band_points(self, report_and_summaries, band_rows):
        report, _ = report_and_summaries
        expected = sum(
            count
            for block in report["propagation"].values()
            for count in block["km_band_points"].values()
        )
        assert len(band_rows) - 1 == expected

    def test_rows_are_4dp_and_nested(self, band_rows):
        four_dp = re.compile(r"^-?\d+\.\d{4}$")
        for row in band_rows[1:]:
            assert row[0] in {"visual", "simpson", "assimilated"}
            assert row[1] in {"low", "mid", "high"}
            assert all(four_dp.match(cell) for cell in row[2:])
            lower, mean, upper = map(float, row[3:])
            assert lower <= mean <= upper

    def test_single_summary_accepted(self, report_and_summaries):
        _, summaries = report_and_summaries
        alone = io.StringIO()
        write_km_band_csv(summaries["visual"], alone)
        boxed = io.StringIO()
        write_km_band_csv([summaries["visual"]], boxed)
        assert alone.getvalue() == boxed.getvalue()

    def test_degenerate_sigmas_give_equal_columns(self, cohort):
        config = PropagationConfig(source="visual",
                                   sigmas=InstrumentSigma(0.0, 0.0),
                                   seed=0, replicates=10)
        summary = propagate(cohort, config)
        buffer = io.StringIO()
        write_km_band_csv(summary, buffer)
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))[1:]
        assert rows
        for row in rows:
            assert row[3] == row[4] == row[5]

    def test_absent_stratum_emits_no_rows(self):
        high = _rows([(f"p{i}", 70.0 + (i % 20), 70.0 + (i % 20),
                       30.0 + 10.0 * i, i % 2)
                      for i in range(30)])
        config = PropagationConfig(source="visual",
                                   sigmas=InstrumentSigma(0.5, 8.8),
                                   seed=0, replicates=10)
        summary = propagate(high, config)
        buffer = io.StringIO()
        write_km_band_csv(summary, buffer)
        strata = {row[1] for row in csv.reader(io.StringIO(buffer.getvalue()))}
        assert strata == {"stratum", "high"}

    def test_violated_nesting_raises(self):
        bad = PropagationSummary(
            source="visual", replicates=10, failed_replicates=0,
            event_rates={
                "low": SampleSummary(0.5, 0.05, {0.025: 0.4, 0.5: 0.5, 0.975: 0.6}, 10),
                "mid": None,
                "high": None,
            },
            hazard_ratio=_HAZARD_RATIO,
            km_bands={
                "low": KmBand(times=np.array([30.0]), lower=np.array([0.9]),
                              mean=np.array([0.5]), upper=np.array([1.0])),
                "mid": None, "high": None,
            },
            horizon=365.0,
        )
        with pytest.raises(InvalidStateError, match=re.escape(
                "band nesting violated for visual/low at t=30.0: "
                "lower=0.9 mean=0.5 upper=1.0")):
            write_km_band_csv(bad, io.StringIO())

    def test_violated_nesting_writes_nothing(self, tmp_path):
        """A band that does not nest, after one that does, raises before the
        destination is opened."""
        def band(lower, mean, upper):
            return KmBand(times=np.array([30.0, 60.0]), lower=np.array(lower),
                          mean=np.array(mean), upper=np.array(upper))

        bad = dataclasses.replace(_OWNED_SUMMARY, km_bands={
            "low": band([0.8, 0.7], [0.9, 0.8], [1.0, 0.9]),
            "mid": band([0.8, 0.9], [0.9, 0.5], [1.0, 1.0]),
            "high": None,
        })
        target = tmp_path / "bands.csv"
        with pytest.raises(InvalidStateError, match="visual/mid at t=60.0"):
            write_km_band_csv(bad, target)
        assert not target.exists()

    def test_io_error_mentions_destination(self, report_and_summaries):
        _, summaries = report_and_summaries
        target = "/nonexistent-dir/bands.csv"
        with pytest.raises(OSError, match="nonexistent-dir"):
            write_km_band_csv(summaries["visual"], target)


# Values on 4-decimal rounding ties, signed zeros, NaN and band-like values.
_BAND_VALUES = (st.sampled_from([0.0, -0.0, 5e-5, -5e-5, 1.5e-4, 0.12345, 0.99995, 1.0, 2.5,
                                 math.nan])
                | st.floats(-0.5, 1.5))
_TIMES = (st.sampled_from([0.0, 1e-4, 0.00005, 365.00005, 123456.78905, 1e15, 2.0**60])
          | st.floats(0.0, 1e6))


@st.composite
def _band(draw):
    """A band whose rows mostly nest, some with a mean inside the nesting
    slack (clamped); about one row in 30 breaks it (raises)."""
    size = draw(st.integers(0, 6))
    times = draw(st.lists(_TIMES, min_size=size, max_size=size))
    lower, mean, upper = [], [], []
    for _ in range(size):
        lo, up = sorted(draw(st.lists(_BAND_VALUES, min_size=2, max_size=2)))
        fraction = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
        me = draw(st.sampled_from([lo, up, lo + fraction * (up - lo)]))
        if draw(st.booleans()):
            # Offsets under 1e-9 lie inside the slack of any mean.
            offset = draw(st.sampled_from([0.5, 0.999])) * 1e-9
            me = lo - offset if draw(st.booleans()) else up + offset
        if draw(st.integers(0, 29)) == 0:
            violation = draw(st.sampled_from(["swap", "cross", "below", "above", "any"]))
            if violation == "swap":
                lo, up = up, lo
            elif violation == "cross":
                # upper below lower by 1.5 slacks, the mean between them.
                half = 0.75e-9 * (1.0 + abs(me))
                lo, up = me + half, me - half
            elif violation == "any":
                me = draw(_BAND_VALUES)
            else:
                offset = draw(st.sampled_from([1.5, 3.0, 1e6])) * 1e-9
                me = lo - offset if violation == "below" else up + offset
        lower.append(lo)
        mean.append(me)
        upper.append(up)
    return KmBand(times=np.array(times, dtype=float), lower=np.array(lower, dtype=float),
                  mean=np.array(mean, dtype=float), upper=np.array(upper, dtype=float))


@st.composite
def _summaries(draw):
    summaries = []
    for source in draw(st.lists(st.sampled_from(SOURCES), min_size=1, max_size=3)):
        bands = {label: draw(st.none() | _band()) for label in STRATA}
        summaries.append(PropagationSummary(
            source=source, replicates=10, failed_replicates=0,
            event_rates=dict.fromkeys(STRATA), hazard_ratio=_HAZARD_RATIO,
            km_bands=bands, horizon=365.0,
        ))
    return summaries[0] if len(summaries) == 1 and draw(st.booleans()) else summaries


def _band_outcome(write, summaries):
    buffer = io.StringIO()
    try:
        write(summaries, buffer)
    except InvalidStateError as exc:
        return "raised", str(exc)
    return "written", buffer.getvalue()


class TestKmBandCsvMatchesOracle:
    """The column-wise band writer gives the row-by-row csv.writer oracle's
    bytes, or raises its InvalidStateError with the same message."""

    @settings(max_examples=400, deadline=None)
    @given(summaries=_summaries(), write_rows=st.sampled_from((1, 2, 1 << 14)))
    def test_matches_oracle(self, summaries, write_rows):
        expected = _band_outcome(report_oracle.write_km_band_csv, summaries)
        with mock.patch.object(report_module, "WRITE_ROWS", write_rows):
            assert _band_outcome(write_km_band_csv, summaries) == expected

    def test_report_bands_match_oracle(self, report_and_summaries):
        _, summaries = report_and_summaries
        summaries = list(summaries.values())
        expected = _band_outcome(report_oracle.write_km_band_csv, summaries)
        assert expected[0] == "written"
        assert _band_outcome(write_km_band_csv, summaries) == expected


_OWNED_CSV = "patient_id,visual_lvef,simpson_lvef,time_days,event\np0,40,42,10,1\np1,55,57,20,0\n"
_OWNED_COHORT = Cohort(("p0", "p1"), (40.0, 55.0), (42.0, 57.0), (10.0, 20.0), (1, 0))
_OWNED_SUMMARY = PropagationSummary(
    source="visual", replicates=10, failed_replicates=0,
    event_rates=dict.fromkeys(STRATA), hazard_ratio=_HAZARD_RATIO,
    km_bands={"low": KmBand(times=np.array([30.0]), lower=np.array([0.4]),
                            mean=np.array([0.5]), upper=np.array([0.6])),
              "mid": None, "high": None},
    horizon=365.0,
)


class TestOwnership:
    """Only the opener closes a handle: the reader and the writers close the
    files they open from a path and leave a caller's stream open."""

    # (call, the caller's stream it is given, from the path); writers get a StringIO.
    CASES = {
        "parse_cohort_csv BytesIO": (parse_cohort_csv,
                                     lambda path: io.BytesIO(_OWNED_CSV.encode())),
        "parse_cohort_csv binary file": (parse_cohort_csv, lambda path: open(path, "rb")),
        "write_cohort_csv": (functools.partial(write_cohort_csv, _OWNED_COHORT), None),
        "write_fused_csv": (functools.partial(write_fused_csv, _OWNED_COHORT, [41.0, 56.0], 7.9),
                            None),
        "write_report_json": (functools.partial(write_report_json, {"n": 1}), None),
        "write_km_band_csv": (functools.partial(write_km_band_csv, _OWNED_SUMMARY), None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_only_the_opener_closes(self, case, tmp_path, monkeypatch):
        call, open_stream = self.CASES[case]
        path = tmp_path / "artifact"
        path.write_text(_OWNED_CSV)

        stream = open_stream(path) if open_stream else io.StringIO()
        call(stream)
        gc.collect()
        assert not stream.closed
        stream.close()

        # A file left open warns when it is collected, inside __del__, where
        # the error the filter makes of the warning can only be unraisable.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(path)
            gc.collect()
        assert unraisable == []

        with pytest.raises(InvalidParameterError, match=r"\bdict$") as caught:
            call({})
        assert "CSV" not in str(caught.value)
