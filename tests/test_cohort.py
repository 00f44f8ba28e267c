"""Cohort CSV ingestion, validation diagnostics, and round-trips."""

import csv
import io
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohort_oracle
from lvef_fusion import cli
from lvef_fusion import cohort as cohort_module
from lvef_fusion.cohort import (
    REQUIRED_COLUMNS,
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
from lvef_fusion.simulate import SimConfig, simulate

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


# Cells of every kind the parser must treat as the row-by-row oracle does.
_ODD_NUMBERS = ("55.3", " 5 ", "1_000", "nan", "inf", "-inf", "-0", "1e2", "52", "",
                " ", "fifty", "7\n", "1e400", "\t45\t", " 55", "5\x00", "150")
_ODD_TIMES = ("0.0001", "0", "-1", "inf", "nan", "1_0", "", "ten", " 7\r")
_ODD_EVENTS = ("1.0", " 1", "-0", "0.5", "2", "", "nan", "true")
_TEXT = st.text(alphabet=st.sampled_from('Pab7 ,"\r\n\t\x00é中%'), max_size=6)


def _mostly(valid, odd):
    """valid nine times in ten, else odd."""
    return st.integers(0, 9).flatmap(lambda k: odd if k == 0 else valid)


def _cells(name, index):
    if name == "patient_id":
        return _mostly(st.sampled_from((f"P{index}", f" P{index} ", f"é{index}", f'"P{index}"')),
                       st.one_of(_TEXT, st.just(f"Q\r{index}")))
    if name in ("visual_lvef", "simpson_lvef"):
        return _mostly(st.one_of(st.integers(0, 20).map(lambda k: str(5 * k)),
                                 st.floats(0, 100).map("{:.4f}".format)),
                       st.sampled_from(_ODD_NUMBERS))
    if name == "time_days":
        return _mostly(st.floats(0.5, 5000).map("{:.2f}".format), st.sampled_from(_ODD_TIMES))
    if name == "event":
        return _mostly(st.sampled_from(("0", "1")), st.sampled_from(_ODD_EVENTS))
    return _mostly(st.sampled_from(("x", "52.5", "")), _TEXT)


@st.composite
def _cohort_files(draw):
    """Cohort CSV text: a header of the required columns in any order (maybe
    padded, repeated, extended or short of one), then rows that are mostly
    valid, written plainly or with csv quoting, ragged or not, with LF, CRLF
    or bare CR line ends and blank or whitespace-only lines between them."""
    names = draw(st.permutations(REQUIRED_COLUMNS))
    names += draw(st.lists(st.sampled_from(("true_lvef", "site", "event", "patient_id")),
                           max_size=2))
    if draw(st.integers(0, 19)) == 0:
        names = names[1:]
    header = [draw(st.sampled_from((name, f" {name} "))) for name in names]
    ends = _mostly(st.sampled_from(("\n", "\r\n")), st.just("\r"))
    quoting = draw(st.sampled_from((None, None, csv.QUOTE_MINIMAL, csv.QUOTE_ALL)))
    lines = [",".join(header) + draw(ends)]
    for index in range(draw(st.integers(0, 12))):
        cells = [draw(_cells(name, index)) for name in names]
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["x"]
        if quoting is None or draw(st.integers(0, 3)) == 0:
            line = ",".join(cells)
        else:
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="", quoting=quoting).writerow(cells)
            line = buffer.getvalue()
        lines.append(line + draw(ends))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(("", "  ", "\t"))) + draw(ends))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _parse_outcome(parse, source):
    """(result or (exception type, message), [(category, message)] of warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cohort = parse(source)
        except Exception as exc:  # every outcome is compared, errors too
            result = (type(exc), str(exc))
        else:
            result = (cohort.patient_id, cohort.event.dtype) + tuple(
                getattr(cohort, name).tobytes() for name in ("visual", "simpson", "time", "event"))
    return result, [(w.category, str(w.message)) for w in caught]


def _sources(kind, data: bytes, directory: Path):
    """A fresh source of the given kind for data, once per call."""
    if kind == "path":
        path = directory / "cohort.csv"
        path.write_bytes(data)
        return lambda: path
    if kind == "bytes":
        return lambda: data
    if kind == "binary":
        return lambda: io.BytesIO(data)
    if kind == "text":
        return lambda: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None)
    return lambda: io.StringIO(data.decode("utf-8", "replace"))


# Bodies the column pass must hand to the row parser or convert exactly as it
# would.  Each follows some valid _PADDING rows, so it lands in a later block
# or straddles two.
_TRICKY = {
    "quoted id": '"P1",50,55,200,1\nP2,50,55,200,1\n',
    "quoted comma and newline": '"P,1",50,55,200,1\n"P\n2",45,44,365,0\n"P\r\n3",45,44,365,0\n',
    "quoted comma, then plain": '"P,1",50,55,200,1\nP2,50,55,200,1\n',
    "quoted line break in the last field": 'P1,50,55,200,"1\n"\nP2,45,44,365,0\n',
    "quoted number": 'P1,"50",55,200,1\n',
    "wholly quoted": '"P1","50","55","200","1"\r\n" P2 ","45"," 44","365","0"\r\n',
    "wholly quoted, then plain": '"P1","50","55","200","1"\nP2,50,55,200,1\n',
    "wholly quoted with an escaped quote": '"P""1","50","55","200","1"\n',
    "wholly quoted with an empty field": '"P1","","55","200","1"\n',
    "wholly quoted with a bad number": '"P1","50","5x","200","1"\n',
    "bare CR in a field": "P\r1,50,55,200,1\n",
    "bare CR line ends": "P1,50,55,200,1\rP2,45,44,365,0\r",
    "NUL": "P\x001,50,55,200,1\n",
    "blank lines": "\nP1,50,55,200,1\n\r\n  \nP2,45,44,365,0\n",
    "short row": "P1,50,55,200\nP2,50,55,200,1\n",
    "long row": "P1,50,55,200,1,x\nP2,50,55,200,1\n",
    "fractional event": "P1,50,55,200,0.5\n",
    "event 1.0 and -0": "P1,50,55,200,1.0\nP2,50,55,200,-0\n",
    "odd numbers": "P1, 5 ,1_000,nan,1\nP2,inf,55,200,0\n",
    "no final newline": "P1,52,55,200,1",
    "duplicate": "P1,50,55,200,1\nP1,50,55,200,1\n",
    "field over csv's limit": "P" + "1" * 140_000 + ",50,55,200,1\n",
}
_PADDING = [f"R{i},{5 * (i % 21)},55.5,{i + 1},{i % 2}\n" for i in range(40)]


class TestParseMatchesOracle:
    """parse_cohort_csv gives the row-by-row oracle's Cohort, warnings in
    order, or exception and message, for every source kind, with blocks small
    enough that rows straddle them and the row path takes over mid-file."""

    @settings(max_examples=500, deadline=None)
    @given(text=_cohort_files(),
           kind=st.sampled_from(("path", "bytes", "binary", "text", "string")),
           block_chars=st.sampled_from((1, 9, 60, 200, cohort_module.BLOCK_CHARS)),
           bad_byte=_mostly(st.none(), st.integers(0, 10**6)),
           field_limit=_mostly(st.just(csv.field_size_limit()), st.integers(4, 12)))
    def test_matches_oracle(self, text, kind, block_chars, bad_byte, field_limit):
        data = text.encode("utf-8")
        if bad_byte is not None and kind != "string":
            at = bad_byte % (len(data) + 1)
            data = data[:at] + b"\xff" + data[at:]
        default_limit = csv.field_size_limit(field_limit)
        try:
            with tempfile.TemporaryDirectory() as directory:
                source = _sources(kind, data, Path(directory))
                expected = _parse_outcome(cohort_oracle.parse_cohort_csv, source())
                with mock.patch.object(cohort_module, "BLOCK_CHARS", block_chars):
                    assert _parse_outcome(parse_cohort_csv, source()) == expected
        finally:
            csv.field_size_limit(default_limit)

    @pytest.mark.parametrize("block_chars", [1, 100, cohort_module.BLOCK_CHARS])
    @pytest.mark.parametrize("padding", [0, 40])
    @pytest.mark.parametrize("name", sorted(_TRICKY))
    def test_tricky_inputs(self, name, padding, block_chars, tmp_path):
        text = HEADER + "".join(_PADDING[:padding]) + _TRICKY[name]
        for kind in ("path", "bytes", "binary", "text", "string"):
            source = _sources(kind, text.encode("utf-8"), tmp_path)
            expected = _parse_outcome(cohort_oracle.parse_cohort_csv, source())
            with mock.patch.object(cohort_module, "BLOCK_CHARS", block_chars):
                assert _parse_outcome(parse_cohort_csv, source()) == expected, kind

    @pytest.mark.parametrize("block_chars", [1, 100, cohort_module.BLOCK_CHARS])
    def test_decode_error_in_a_later_block(self, block_chars):
        """A decode error deep in the file surfaces only after the rows before
        it, and a bad row before it wins."""
        rows = "".join(f"P{i},50,55,200,1\n" for i in range(3000))
        for bad_row in ("", "P-1,fifty,55,200,1\n"):
            data = (HEADER + bad_row + rows).encode() + b"\xff\n"
            expected = _parse_outcome(cohort_oracle.parse_cohort_csv, io.BytesIO(data))
            with mock.patch.object(cohort_module, "BLOCK_CHARS", block_chars):
                assert _parse_outcome(parse_cohort_csv, io.BytesIO(data)) == expected
            assert expected[0][0] is (RowError if bad_row else UnicodeDecodeError)

    def test_quoted_comma_ids_stay_column_wise(self):
        """A QUOTE_MINIMAL file whose every 100th id holds a comma is read
        block by block to its end, with the oracle's result."""
        simulated = simulate(SimConfig(n_patients=40_000, seed=1))
        ids = [f"P{i},{i}" if i % 100 == 0 else f"P{i}" for i in range(len(simulated))]
        handle = io.StringIO()
        write_cohort_csv(Cohort(ids, simulated.visual, simulated.simpson, simulated.time,
                                simulated.event), handle)
        text = handle.getvalue()
        assert text.count('"') == 2 * 400
        body = io.StringIO(text)
        header = next(csv.reader(body))
        read, blocks = [], []
        rest = cohort_module._plain_blocks(body, header, 0, [1, 2, 3, 4], read, blocks)
        assert list(rest) == []
        assert read == ids
        assert (_parse_outcome(parse_cohort_csv, io.StringIO(text))
                == _parse_outcome(cohort_oracle.parse_cohort_csv, io.StringIO(text)))

    def test_quote_all_file_reads_as_the_plain_one(self):
        """A QUOTE_ALL copy of a 40 000-row cohort, every cell quoted, is
        split by csv.reader a block at a time into the plain file's cohort."""
        handle = io.StringIO()
        write_cohort_csv(simulate(SimConfig(n_patients=40_000, seed=11)), handle)
        plain = handle.getvalue()
        quoted = io.StringIO()
        csv.writer(quoted, quoting=csv.QUOTE_ALL).writerows(csv.reader(io.StringIO(plain)))
        assert quoted.getvalue().startswith('"patient_id","visual_lvef",')
        assert (_parse_outcome(parse_cohort_csv, io.StringIO(quoted.getvalue()))
                == _parse_outcome(parse_cohort_csv, io.StringIO(plain)))

    @settings(max_examples=100, deadline=None)
    @given(text=_cohort_files())
    def test_stdin_through_the_cli(self, text):
        """fuse --input - reads stdin's byte stream as the oracle does: same
        stdout, stderr and exit code."""
        data = text.encode("utf-8")

        def run(parse):
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.object(cli, "parse_cohort_csv", parse), \
                    mock.patch.multiple(sys, stdin=stdin, stdout=out, stderr=err):
                code = cli.main(["fuse", "--input", "-"])
            return code, out.getvalue(), err.getvalue()

        with mock.patch.object(cohort_module, "BLOCK_CHARS", 9):
            assert run(parse_cohort_csv) == run(cohort_oracle.parse_cohort_csv)


_IDS = st.lists(st.text(alphabet=st.sampled_from('P7 ,"\r\n%é\x00'), min_size=1, max_size=5),
                min_size=0, max_size=30, unique=True)


@st.composite
def _written_cohorts(draw):
    ids = draw(_IDS)
    n = len(ids)
    column = st.lists(st.floats(0, 100), min_size=n, max_size=n)
    true_lvef = draw(st.one_of(st.none(), st.lists(st.floats(), min_size=n, max_size=n)))
    return Cohort(ids, draw(column), draw(column),
                  draw(st.lists(st.floats(1e-6, 1e6), min_size=n, max_size=n)),
                  draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                  true_lvef=true_lvef)


class TestWriteMatchesOracle:
    """The column-wise writers give csv.writer's bytes for arbitrary text
    ids, with and without true_lvef, in chunks of any size."""

    @settings(max_examples=300, deadline=None)
    @given(cohort=_written_cohorts(), write_rows=st.sampled_from((1, 3, 1 << 14)))
    def test_write_cohort_csv(self, cohort, write_rows):
        expected = io.StringIO()
        cohort_oracle.write_cohort_csv(cohort, expected)
        actual = io.StringIO()
        with mock.patch.object(cohort_module, "WRITE_ROWS", write_rows):
            write_cohort_csv(cohort, actual)
        assert actual.getvalue() == expected.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(cohort=_written_cohorts(), data=st.data(), write_rows=st.sampled_from((1, 4, 1 << 14)))
    def test_write_fused_csv(self, cohort, data, write_rows):
        theta = data.draw(st.lists(st.floats(), min_size=len(cohort), max_size=len(cohort)))
        theta_sigma = data.draw(st.floats())
        expected = io.StringIO()
        cohort_oracle.write_fused_csv(cohort, theta, theta_sigma, expected)
        actual = io.StringIO()
        with mock.patch.object(cohort_module, "WRITE_ROWS", write_rows):
            write_fused_csv(cohort, theta, theta_sigma, actual)
        assert actual.getvalue() == expected.getvalue()

    def test_simulated_cohort_file_bytes(self, tmp_path):
        cohort = simulate(SimConfig(n_patients=1366, seed=3))
        write_cohort_csv(cohort, tmp_path / "new.csv")
        cohort_oracle.write_cohort_csv(cohort, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("artifact", ["cohort", "fused"])
    def test_simulated_file_bytes_across_chunks(self, artifact, tmp_path):
        """40 000 rows cross the WRITE_ROWS (2^14) chunk edge twice."""
        cohort = simulate(SimConfig(n_patients=40_000, seed=11))
        assert len(cohort) > 2 * cohort_module.WRITE_ROWS
        for writer, name in ((cohort_module, "new.csv"), (cohort_oracle, "old.csv")):
            if artifact == "cohort":
                writer.write_cohort_csv(cohort, tmp_path / name)
            else:
                sigmas = InstrumentSigma(18.1, 8.8)
                writer.write_fused_csv(cohort, fused_estimates(cohort, sigmas),
                                       fused_sigma(sigmas), tmp_path / name)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _fmt_column_text(values: list) -> list:
    """Each row of the kernel's byte matrix for values, as text."""
    matrix = cohort_module._fmt_column(np.array(values, dtype=float))
    return [row[row != cohort_module._FILL].tobytes().decode() for row in matrix]


_HALVES = st.integers(-10**15, 10**15).map(lambda k: (k + 0.5) / 1e4)
# Values the 4-place kernel must spell as "%.4f" does: any float, values next
# to a half unit of the 4th place, exact binary ties and magnitudes around
# 1e11, where the kernel hands values to Python.
_KERNEL_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)),
    _HALVES,
    _HALVES.map(lambda x: float(np.nextafter(x, np.inf))),
    _HALVES.map(lambda x: float(np.nextafter(x, -np.inf))),
    st.integers(-2**45, 2**45).map(lambda k: k / 2**5),
    st.floats(1e10, 1e12),
    st.floats(-1e12, -1e10),
    st.sampled_from([float(np.nextafter(x, toward))
                     for x in (1e11, -1e11) for toward in (0.0, x, 2 * x)]),
)


class TestFmtColumn:
    """The kernel behind every CSV writer spells each value as "%.4f" does,
    in columns that mix widths, signs and values Python has to format."""

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(_KERNEL_FLOATS, min_size=1, max_size=30))
    def test_matches_percent_format(self, values):
        assert _fmt_column_text(values) == ["%.4f" % x for x in values]

    def test_signs_and_ties(self):
        values = [-0.0, -1e-5, 1 / 32, -3 / 32, 0.00005, 0.00015, 9999.99995, float("nan"),
                  float("-inf"), 123456789.0]
        assert _fmt_column_text(values) == [
            "-0.0000", "-0.0000", "0.0312", "-0.0938", "0.0001", "0.0001", "9999.9999",
            "nan", "-inf", "123456789.0000"]


def _wide_and_narrow(n: int, extra: int) -> tuple:
    """The same n patients as a cohort CSV with `extra` unrecognized columns
    around and between the required ones, and without them."""
    names = [f"x{j}" for j in range(extra)]
    third = extra // 3
    header = (names[:third] + ["patient_id", "visual_lvef"] + names[third:2 * third]
              + ["simpson_lvef", "time_days", "event"] + names[2 * third:])
    at = [header.index(name) for name in REQUIRED_COLUMNS]
    wide, narrow = [",".join(header)], [HEADER.rstrip("\n")]
    for i in range(n):
        row = (f"P{i}", str(5 * (i % 21)), f"{40 + i % 30}.5", str(i + 1), str(i % 2))
        cells = ["7.5" if j % 2 else "a" for j in range(len(header))]
        for position, value in zip(at, row):
            cells[position] = value
        wide.append(",".join(cells))
        narrow.append(",".join(row))
    return "\n".join(wide) + "\n", "\n".join(narrow) + "\n"


class TestWideCohort:
    """A cohort with 1000 unrecognized columns parses to the narrow file's
    Cohort with one ExtraColumnWarning, within a budget of more than ten
    times the measured time (0.05-0.07 s to parse and as long through fuse,
    0.15 s per test with the file built, on a shared 2-core x86-64 host), so
    a cost quadratic in the width would show."""

    N, EXTRA, BUDGET_S = 1000, 1000, 1.5

    def test_library(self):
        wide, narrow = _wide_and_narrow(self.N, self.EXTRA)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            cohort = parse_cohort_csv(wide.encode("utf-8"))
            elapsed = time.perf_counter() - start
        assert [w.category for w in caught] == [ExtraColumnWarning]
        assert str(caught[0].message).count(",") == self.EXTRA - 1
        assert cohort == _parse(narrow)
        assert elapsed < self.BUDGET_S

    def test_fuse_command(self, tmp_path):
        wide, narrow = _wide_and_narrow(self.N, self.EXTRA)
        outputs = {}
        for name, text in (("wide", wide), ("narrow", narrow)):
            path = tmp_path / f"{name}.csv"
            path.write_text(text, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with mock.patch.multiple(sys, stdout=out, stderr=err):
                code = cli.main(["fuse", "--input", str(path)])
            outputs[name] = (code, out.getvalue(), err.getvalue(), time.perf_counter() - start)
        code, out, err, elapsed = outputs["wide"]
        assert (code, out) == outputs["narrow"][:2] == (0, outputs["narrow"][1])
        assert err.count("warning: ignoring unrecognized column(s)") == 1
        assert outputs["narrow"][2] == ""
        assert elapsed < self.BUDGET_S
