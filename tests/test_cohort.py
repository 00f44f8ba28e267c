"""Cohort CSV ingestion, validation diagnostics, and round-trips."""

import io
import warnings

import numpy as np
import pytest

from lvef_fusion.cohort import (
    Cohort,
    parse_cohort_csv,
    write_cohort_csv,
    write_fused_csv,
)
from lvef_fusion.errors import (
    DuplicateIdError,
    EmptyCohortWarning,
    ExtraColumnWarning,
    InvalidParameterError,
    OffGridWarning,
    RowError,
    SchemaError,
)
from lvef_fusion.fusion import InstrumentSigma, fused_estimates, fused_sigma

HEADER = "patient_id,visual_lvef,simpson_lvef,time_days,event\n"


def _parse(text: str):
    return parse_cohort_csv(io.StringIO(text))


def _cohort(*rows, true_lvef=None):
    """A Cohort from (patient_id, visual, simpson, time, event) rows."""
    ids, visual, simpson, time, event = zip(*rows) if rows else ((),) * 5
    return Cohort(ids, visual, simpson, time, event, true_lvef=true_lvef)


class TestParse:
    def test_direct_mapping(self):
        records = _parse(HEADER + "P1,50,55.3,200,1\n")
        assert records == _cohort(("P1", 50.0, 55.3, 200.0, 1))

    def test_order_preserved(self):
        records = _parse(HEADER + "B,50,50,10,0\nA,55,55,20,1\n")
        assert list(records.patient_id) == ["B", "A"]

    def test_header_only_warns_and_returns_empty(self):
        with pytest.warns(EmptyCohortWarning):
            assert _parse(HEADER) == _cohort()

    def test_off_grid_visual_warns_but_passes(self):
        with pytest.warns(OffGridWarning, match="5-point"):
            records = _parse(HEADER + "P1,52,55.3,200,1\n")
        assert records.visual[0] == 52.0

    def test_on_grid_visual_is_silent(self):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error", OffGridWarning)
            _parse(HEADER + "P1,55,55.3,200,1\n")

    def test_true_lvef_column_is_recognized(self):
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error", ExtraColumnWarning)
            records = _parse(
                "patient_id,visual_lvef,simpson_lvef,time_days,event,true_lvef\n"
                "P1,50,55.3,200,1,53.2\n"
            )
        assert len(records) == 1

    def test_unknown_column_warns(self):
        with pytest.warns(ExtraColumnWarning, match="site"):
            _parse(HEADER.rstrip() + ",site\n" + "P1,50,55.3,200,1,denver\n")

    def test_missing_column_is_schema_error(self):
        with pytest.raises(SchemaError, match="simpson_lvef"):
            _parse("patient_id,visual_lvef,time_days,event\nP1,50,200,1\n")

    def test_empty_input_is_schema_error(self):
        with pytest.raises(SchemaError):
            _parse("")

    def test_unparsable_numeric_carries_row_index(self):
        with pytest.raises(RowError, match="row 2"):
            _parse(HEADER + "P1,50,55.3,200,1\nP2,fifty,55.3,200,1\n")

    def test_out_of_range_value_carries_row_index(self):
        with pytest.raises(RowError, match="row 1"):
            _parse(HEADER + "P1,150,55.3,200,1\n")

    def test_fractional_event_flag_rejected(self):
        with pytest.raises(RowError, match="event"):
            _parse(HEADER + "P1,50,55.3,200,0.5\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateIdError, match="P1"):
            _parse(HEADER + "P1,50,55.3,200,1\nP1,55,56,100,0\n")

    def test_byte_stream_and_bytes_inputs(self):
        text = HEADER + "P1,50,55.3,200,1\n"
        from_bytes = parse_cohort_csv(text.encode("utf-8"))
        from_stream = parse_cohort_csv(io.BytesIO(text.encode("utf-8")))
        assert from_bytes == from_stream

    def test_path_input(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(HEADER + "P1,50,55.3,200,1\n", encoding="utf-8")
        assert len(parse_cohort_csv(path)) == 1

    def test_bom_and_crlf_inputs(self, tmp_path):
        data = b"\xef\xbb\xbf" + (HEADER + "P1,50,55.3,200,1\nP2,45,44.1,365,0\n").replace(
            "\n", "\r\n").encode("utf-8")
        path = tmp_path / "cohort.csv"
        path.write_bytes(data)
        expected = _parse(HEADER + "P1,50,55.3,200,1\nP2,45,44.1,365,0\n")
        assert parse_cohort_csv(path) == expected
        assert parse_cohort_csv(data) == expected
        assert parse_cohort_csv(io.BytesIO(data)) == expected

    def test_whitespace_around_header_names(self):
        padded = " patient_id , visual_lvef,\tsimpson_lvef, time_days ,event , true_lvef\n"
        rows = "P1,50,55.3,200,1,52\nP2,45,44.1,365,0,44\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cohort = _parse(padded + rows)
        assert cohort == _parse(HEADER + "P1,50,55.3,200,1\nP2,45,44.1,365,0\n")

    def test_unsupported_source_type(self):
        with pytest.raises(InvalidParameterError):
            parse_cohort_csv(42)


class TestWrite:
    _ROWS = (("P1", 50.0, 55.34567, 200.5, 1), ("P2", 45.0, 44.1, 365.0, 0))

    def _records(self, true_lvef=None):
        return _cohort(*self._ROWS, true_lvef=true_lvef)

    def test_round_trip_at_4_decimals(self):
        buffer = io.StringIO()
        write_cohort_csv(self._records(), buffer)
        parsed = parse_cohort_csv(buffer.getvalue().encode("utf-8"))
        assert parsed.simpson[0] == pytest.approx(55.3457, abs=5e-5)
        assert list(parsed.patient_id) == ["P1", "P2"]

    def test_true_lvef_column_round_trip(self):
        buffer = io.StringIO()
        write_cohort_csv(self._records(true_lvef=[52.0, 44.5]), buffer)
        header = buffer.getvalue().splitlines()[0]
        assert header.endswith("true_lvef")
        assert len(parse_cohort_csv(buffer.getvalue().encode("utf-8"))) == 2

    def test_true_lvef_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            write_cohort_csv(self._records(true_lvef=[1.0]), io.StringIO())

    def test_fused_csv_appends_theta_columns(self):
        records = self._records()
        sigmas = InstrumentSigma(18.1, 8.8)
        fused = fused_estimates(records, sigmas)
        buffer = io.StringIO()
        write_fused_csv(records, fused, fused_sigma(sigmas), buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "patient_id,visual_lvef,simpson_lvef,time_days,event,theta,theta_sigma"
        assert len(lines) == 3
        theta = float(lines[1].split(",")[5])
        assert theta == pytest.approx(fused[0], abs=5e-5)

    def test_fused_csv_alignment_checked(self):
        records = self._records()
        sigmas = InstrumentSigma(18.1, 8.8)
        fused = fused_estimates(records, sigmas)
        with pytest.raises(InvalidParameterError):
            write_fused_csv(records, fused[:1], fused_sigma(sigmas), io.StringIO())


class TestArrays:
    def test_parallel_arrays(self):
        cohort = _cohort(("P1", 50.0, 55.0, 200.0, 1), ("P2", 45.0, 44.0, 365.0, 0))
        visual, simpson, time, event = cohort.visual, cohort.simpson, cohort.time, cohort.event
        assert visual.tolist() == [50.0, 45.0]
        assert simpson.tolist() == [55.0, 44.0]
        assert time.tolist() == [200.0, 365.0]
        assert event.tolist() == [1, 0]
        assert event.dtype == np.int64
