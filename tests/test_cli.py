"""Command-line behavior: subcommands, artifacts, exit codes, piping."""

import csv
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

from lvef_fusion import cli, errors, propagation
from lvef_fusion.cli import main
from lvef_fusion.cohort import parse_cohort_csv
from lvef_fusion.report import TOOL_VERSION, config_hash

SRC = Path(__file__).resolve().parents[1] / "src"
HEADER = "patient_id,visual_lvef,simpson_lvef,time_days,event\n"

SEPARABLE_ROWS = (
    "p0,21.000,21.000,10,1\n"
    "p1,21.005,21.005,20,1\n"
    "p2,21.010,21.010,400,0\n"
    "p3,21.015,21.015,400,0\n"
)


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cohort")
    assert main(["simulate", "--n", "200", "--seed", "11",
                 "--output", str(directory)]) == 0
    return directory / "cohort.csv"


@pytest.fixture
def separable_csv(tmp_path):
    path = tmp_path / "separable.csv"
    path.write_text(HEADER + SEPARABLE_ROWS)
    return path


@pytest.fixture
def unread_cohort(monkeypatch):
    """Fails the test if the command parses its cohort."""
    def parse_cohort_csv(source):
        pytest.fail("the cohort was read before the flags were checked")

    monkeypatch.setattr(cli, "parse_cohort_csv", parse_cohort_csv)


def _rows(text):
    return list(csv.DictReader(text.splitlines()))


def _src_env() -> dict:
    """This environment with src first on PYTHONPATH, so that a child Python
    imports the package from this checkout, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _main_without_float_warnings(argv):
    """main(argv) with a RuntimeWarning raised instead of shown: pytest
    records warnings, so they never reach the captured stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main(argv)


BAD_RUN_FLAGS = [
    ("replicates-1", "--replicates", "1", "replicates must be >= 2, got 1"),
    ("horizon-negative", "--horizon", "-1", "horizon must be > 0, got -1.0"),
    ("horizon-inf", "--horizon", "inf", "horizon must be finite, got inf"),
    ("horizon-1e400", "--horizon", "1e400", "horizon must be finite, got inf"),
    ("horizon-nan", "--horizon", "nan", "horizon must be finite, got nan"),
    ("bands-reversed", "--bands", "50,35",
     "band_edges must be strictly increasing inside (0, 100), got (50.0, 35.0)"),
    ("bands-0-100", "--bands", "0,100",
     "band_edges must be strictly increasing inside (0, 100), got (0.0, 100.0)"),
]

# Every concrete error class; main maps each by its ValueError or RuntimeError side.
ERROR_CLASSES = [cls for cls in map(vars(errors).get, errors.__all__)
                 if issubclass(cls, errors.LvefFusionError) and cls is not errors.LvefFusionError]


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_malformed_band_edges(self, cohort_csv, capsys):
        for edges, message in (("35", "expected two comma-separated edges"),
                               ("a,b", "cannot parse band edges 'a,b'")):
            code = main(["km", "--input", str(cohort_csv), "--bands", edges])
            assert code == 1
            assert f"usage error: argument --bands: {message}" in capsys.readouterr().err

    def test_missing_input_file(self, capsys):
        assert main(["fuse", "--input", "/no/such/file.csv"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "fuse" in out and "calibrate-error" in out

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert TOOL_VERSION in capsys.readouterr().out

    def test_negative_sigma_is_data_error(self, cohort_csv, capsys):
        code = main(["fuse", "--input", str(cohort_csv), "--sigma-visual", "-1"])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("visual,simpson", [("1e-200", "1e-200"), ("1e200", "1")])
    def test_variance_sigma_without_finite_square_is_data_error(
            self, cohort_csv, capsys, visual, simpson):
        code = main(["fuse", "--input", str(cohort_csv), "--mode", "variance",
                     "--sigma-visual", visual, "--sigma-simpson", simpson])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode,sigma", [("paper-sd", "1e308"), ("variance", "1e154")])
    def test_overflowing_sigmas_are_data_error(self, cohort_csv, capsys, mode, sigma):
        code = main(["fuse", "--input", str(cohort_csv), "--mode", mode,
                     "--sigma-visual", sigma, "--sigma-simpson", sigma])
        assert code == 2
        captured = capsys.readouterr()
        assert "data error" in captured.err and "overflow" in captured.err
        assert "nan" not in captured.out

    @pytest.mark.parametrize("visual,simpson", [("1e300", "1e-10"), ("1e305", "1e305")])
    def test_non_finite_report_quantities_are_data_error(
            self, cohort_csv, tmp_path, capsys, visual, simpson):
        code = _main_without_float_warnings([
            "report", "--input", str(cohort_csv), "--sigma-visual", visual,
            "--sigma-simpson", simpson, "--replicates", "2", "--output", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Traceback" not in err and "RuntimeWarning" not in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_calibration_is_data_error(self, tmp_path, capsys):
        code = _main_without_float_warnings([
            "calibrate-error", "--sigma-visual", "1e305", "--sigma-simpson", "1e305",
            "--output", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "not finite" in err and "RuntimeWarning" not in err
        assert "cannot calibrate visual_sigma: observed_sigma 1e+305 is too large" in err
        assert not (tmp_path / "out").exists()

    def test_zero_sigma_calibration_names_the_instrument(self, tmp_path, capsys):
        code = main(["calibrate-error", "--visual", "0", "--simpson", "8.8",
                     "--output", str(tmp_path / "zero")])
        assert code == 2
        err = capsys.readouterr().err
        assert ("cannot calibrate visual_sigma: observed_sigma must be finite and > 0, "
                "got 0.0") in err
        assert not (tmp_path / "zero").exists()

    @pytest.mark.parametrize("flags", [
        # The predictive errors' ratio overflows.
        ["calibrate-error", "--visual", "1e300", "--simpson", "1e-300", "--seed", "1"],
        # The sigmas' precision ratio is finite, but a predictive ratio's
        # square overflows.
        ["report", "--sigma-visual", "1", "--sigma-simpson", "1e-154", "--mode", "variance",
         "--replicates", "2"],
    ], ids=["calibrate-error-ratio", "report-variance-square"])
    def test_overflowing_predictive_omega_is_data_error(self, cohort_csv, tmp_path, capsys,
                                                        flags):
        if flags[0] == "report":
            flags = [*flags, "--input", str(cohort_csv)]
        code = _main_without_float_warnings([*flags, "--output", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "precision ratio omega = inf" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fuse", "report"])
    @pytest.mark.parametrize("text,message", [
        (HEADER + "p0,50,50,100,1\n" + "p" * 200_000 + ",50,50,200,0\n",
         "data error: row 2: cannot read the row as CSV: field larger than field limit"),
        (HEADER.replace("\n", "," + "x" * 200_000 + "\n") + "p0,50,50,100,1\n",
         "data error: cannot read the header as CSV: field larger than field limit"),
    ], ids=["patient_id", "header"])
    def test_field_over_csv_limit_is_data_error(self, tmp_path, capsys, command, text,
                                                message):
        path = tmp_path / "long.csv"
        path.write_text(text)
        code = main([command, "--input", str(path), "--output", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_huge_calibration_gives_standard_json(self, tmp_path, capsys):
        code = _main_without_float_warnings([
            "calibrate-error", "--sigma-visual", "1e300", "--sigma-simpson", "1e300",
            "--output", str(tmp_path)])
        assert code == 0
        assert "RuntimeWarning" not in capsys.readouterr().err

        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        json.loads((tmp_path / "calibration.json").read_text(), parse_constant=reject)

    @pytest.mark.parametrize("command,flag,value,message", [
        pytest.param(command, flag, value, message, id=f"{row}-{command}")
        for row, flag, value, message in BAD_RUN_FLAGS
        for command in ("report", "propagate", "km")
        if not (command == "km" and flag == "--replicates")
    ])
    def test_bad_run_flags_fail_before_the_cohort_is_read(
            self, cohort_csv, tmp_path, capsys, unread_cohort, command, flag, value, message):
        code = main([command, "--input", str(cohort_csv), flag, value,
                     "--output", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fuse", "km", "cox", "propagate", "report"])
    def test_bad_sigma_fails_before_the_cohort_is_read(
            self, cohort_csv, tmp_path, capsys, unread_cohort, command):
        code = main([command, "--input", str(cohort_csv), "--sigma-visual", "-1",
                     "--output", str(tmp_path / "out")])
        assert code == 2
        assert (capsys.readouterr().err
                == "data error: visual_sigma must be finite and >= 0, got -1.0\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_error_class_decides_the_exit_code(self, capsys, monkeypatch, error):
        assert issubclass(error, ValueError) != issubclass(error, RuntimeError)
        exc = error(7, "boom") if issubclass(error, errors.RowError) else error("boom")

        def cmd_simulate(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_simulate", cmd_simulate)
        code = main(["simulate"])
        err = capsys.readouterr().err
        if issubclass(error, ValueError):
            assert (code, err) == (2, f"data error: {exc}\n")
        else:
            assert code == 3
            assert json.loads(err) == {"error": error.__name__, "message": str(exc)}

    def test_undecodable_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(HEADER.encode() + b"p\xe9,50,50,100,1\n")
        assert main(["fuse", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("data error: 'utf-8' codec can't decode")

    def test_duplicate_ids_are_data_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text(HEADER + "p0,50,50,100,1\np0,55,55,200,0\n")
        assert main(["fuse", "--input", str(path)]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        pytest.param([name], id=name) for name in ["fuse", "km", "cox", "propagate", "report"]
    ] + [
        pytest.param(["km", "--source", source], id=f"km-{source}")
        for source in ["visual", "simpson"]
    ])
    def test_header_only_cohort_is_data_error(self, tmp_path, capsys, command):
        path = tmp_path / "header.csv"
        path.write_text(HEADER)
        code = main([*command, "--input", str(path), "--output", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("data error: ")
        assert not (tmp_path / "out").exists()


class TestFuse:
    def test_stdout_preserves_order_and_adds_theta(self, cohort_csv, capsys):
        assert main(["fuse", "--input", str(cohort_csv)]) == 0
        fused = _rows(capsys.readouterr().out)
        source = _rows(cohort_csv.read_text())
        assert len(fused) == 200
        assert [r["patient_id"] for r in fused] == [r["patient_id"] for r in source]
        assert "theta" in fused[0] and "theta_sigma" in fused[0]

    def test_output_directory(self, cohort_csv, tmp_path):
        assert main(["fuse", "--input", str(cohort_csv),
                     "--output", str(tmp_path)]) == 0
        assert (tmp_path / "fused.csv").exists()

    def test_bom_and_crlf_input(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        rows = HEADER + "p0,50,50,100,1\np1,55,55,200,0\n"
        path.write_bytes(b"\xef\xbb\xbf" + rows.replace("\n", "\r\n").encode("utf-8"))
        assert main(["fuse", "--input", str(path)]) == 0
        fused = _rows(capsys.readouterr().out)
        assert [r["patient_id"] for r in fused] == ["p0", "p1"]

    def test_whitespace_around_header_names(self, tmp_path, capsys):
        path = tmp_path / "padded.csv"
        path.write_text(HEADER.replace(",", ", ") + "p0,50,50,100,1\np1,55,55,200,0\n")
        assert main(["fuse", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        fused = _rows(captured.out)
        assert [r["patient_id"] for r in fused] == ["p0", "p1"]


class TestCalibrateError:
    def test_json_artifact(self, tmp_path, capsys):
        code = main(["calibrate-error", "--visual", "18.1", "--simpson", "8.8",
                     "--seed", "1", "--output", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert set(payload) == {"metadata", "config", "visual", "simpson",
                                "relative_reduction", "warnings"}
        assert payload["config"]["visual_stream_index"] == 2**32
        assert payload["config"]["simpson_stream_index"] == 2**32 + 1
        assert payload["relative_reduction"]["mean"] == pytest.approx(-0.3355, abs=0.05)

    def test_long_aliases_and_stdout(self, capsys):
        code = main(["calibrate-error", "--sigma-visual", "18.1",
                     "--sigma-simpson", "8.8", "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["seed"] == 1


class TestKm:
    def test_file_artifact_structure(self, cohort_csv, tmp_path):
        code = main(["km", "--input", str(cohort_csv), "--source", "visual",
                     "--output", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "km_visual.json").read_text())
        assert payload["source"] == "visual"
        assert payload["n_patients"] == 200
        assert set(payload["strata"]) == {"low", "mid", "high"}
        for stratum in payload["strata"].values():
            if not stratum["present"]:
                assert stratum["n"] == 0
                continue
            assert 0.0 <= stratum["event_rate_at_horizon"] <= 1.0
            curve = stratum["curve"]
            assert (len(curve["times"]) == len(curve["survival"])
                    == len(curve["at_risk"]) == len(curve["events"]))

    def test_empty_strata_read_absent(self, cohort_csv, capsys):
        # Every reading lies above 2, so only the high stratum has patients.
        assert main(["km", "--input", str(cohort_csv), "--source", "visual",
                     "--bands", "1.5,2"]) == 0
        strata = json.loads(capsys.readouterr().out)["strata"]
        assert strata["low"] == strata["mid"] == {"present": False, "n": 0}
        assert strata["high"]["present"] and strata["high"]["n"] == 200

    def test_stdout_defaults_to_assimilated(self, cohort_csv, capsys):
        assert main(["km", "--input", str(cohort_csv)]) == 0
        assert json.loads(capsys.readouterr().out)["source"] == "assimilated"

    @pytest.mark.parametrize("horizon", ["inf", "1e400", "nan"])
    def test_non_finite_horizon_is_data_error(self, cohort_csv, capsys, horizon):
        """JSON has no infinity: the echo would not parse, nor hash canonically."""
        assert main(["km", "--input", str(cohort_csv), "--horizon", horizon]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error: horizon must be")


class TestCox:
    def test_protective_slope(self, cohort_csv, tmp_path):
        code = main(["cox", "--input", str(cohort_csv), "--source", "simpson",
                     "--output", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "cox_simpson.json").read_text())
        fit = payload["fit"]
        assert fit["converged"] is True
        assert fit["beta"] < 0
        assert fit["hazard_ratio"]["estimate"] > 1.0

    def test_separation_is_numerical_failure(self, separable_csv, capsys):
        code = main(["cox", "--input", str(separable_csv), "--source", "visual"])
        assert code == 3
        err_lines = capsys.readouterr().err.strip().splitlines()
        payload = json.loads(err_lines[-1])
        assert payload["error"] == "SeparationError"
        assert payload["message"]


class TestPropagate:
    def test_all_sources_write_artifacts(self, cohort_csv, tmp_path):
        code = main(["propagate", "--input", str(cohort_csv), "--seed", "3",
                     "--replicates", "20", "--output", str(tmp_path)])
        assert code == 0
        for source in ("visual", "simpson", "assimilated"):
            payload = json.loads((tmp_path / f"propagation_{source}.json").read_text())
            assert payload["replicates"] == 20
            assert payload["source"] == source
            assert (tmp_path / f"km_bands_{source}.csv").exists()

    def test_single_source_only(self, cohort_csv, tmp_path):
        code = main(["propagate", "--input", str(cohort_csv), "--seed", "3",
                     "--replicates", "20", "--source", "visual",
                     "--output", str(tmp_path)])
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"propagation_visual.json", "km_bands_visual.csv"}

    def test_partial_failures_warn_on_stderr(self, separable_csv, tmp_path, capsys):
        for command in ("propagate", "report"):
            code = main([command, "--input", str(separable_csv),
                         "--source", "visual", "--sigma-visual", "0.005",
                         "--replicates", "40", "--output", str(tmp_path / command)])
            assert code == 0
            assert "excluded from hazard-ratio aggregation" in capsys.readouterr().err
            if command == "propagate":
                payload = json.loads((tmp_path / command / "propagation_visual.json").read_text())
            else:
                report = json.loads((tmp_path / command / "report.json").read_text())
                payload = report["propagation"]["visual"]
            assert 0 < payload["failed_replicates"] < 40

    def test_all_replicates_failing_is_numerical_failure(self, separable_csv, capsys):
        code = main(["propagate", "--input", str(separable_csv),
                     "--source", "visual", "--sigma-visual", "1e-6",
                     "--replicates", "5"])
        assert code == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "PropagationError"

    def test_failing_source_writes_nothing(self, separable_csv, tmp_path, capsys):
        # The visual source runs, the simpson one fails every fit: the
        # visual artifacts must not be left behind as a finished-looking set.
        output = tmp_path / "out"
        code = main(["propagate", "--input", str(separable_csv),
                     "--sigma-visual", "30", "--sigma-simpson", "1e-6",
                     "--replicates", "10", "--output", str(output)])
        assert code == 3
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "PropagationError"
        assert not output.exists()

    # A cohort no draw can be fitted on is a data error, as cox reports it:
    # one event, or identical readings under zero sigmas.
    UNFITTABLE = {
        "one event": ("p0,40,42,10,1\np1,45,47,20,0\np2,50,52,400,0\np3,55,57,400,0\n",
                      [], "cox_fit requires at least 2 events"),
        "identical readings": ("p0,40,40,10,1\np1,40,40,20,1\np2,40,40,30,0\np3,40,40,400,0\n",
                               ["--sigma-visual", "0", "--sigma-simpson", "0"],
                               "cox_fit requires a non-constant covariate"),
    }

    @pytest.mark.parametrize("command", ["propagate", "report"])
    @pytest.mark.parametrize("name", sorted(UNFITTABLE))
    def test_unfittable_cohort_is_data_error(self, name, command, tmp_path, capsys):
        rows, flags, message = self.UNFITTABLE[name]
        path = tmp_path / "cohort.csv"
        path.write_text(HEADER + rows)
        output = tmp_path / "out"
        code = main([command, "--input", str(path), "--replicates", "4", *flags,
                     "--output", str(output)])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not output.exists()


class TestForkedPropagate:
    # Writes a line that stays in the piped stdout's buffer, then runs the
    # command over one-replicate chunks split across the given CPU count,
    # with the given SUM_CELLS.
    SCRIPT = (
        "import sys\n"
        "from unittest import mock\n"
        "from lvef_fusion import propagation\n"
        "from lvef_fusion.cli import main\n"
        "sys.stdout.write('written before propagate\\n')\n"
        "with mock.patch.object(propagation, 'CHUNK_ELEMENTS', 1), \\\n"
        "        mock.patch.object(propagation, 'SUM_CELLS', int(sys.argv[2])), \\\n"
        "        mock.patch.object(propagation, '_cpu_count', return_value=int(sys.argv[1])):\n"
        "    sys.exit(main(sys.argv[3:]))\n"
    )

    def _run(self, cpus, cohort, output):
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(cpus), str(propagation.SUM_CELLS),
             "propagate", "--input", str(cohort),
             "--source", "all", "--sigma-visual", "0.005", "--replicates", "40",
             "--output", str(output)],
            env=_src_env(), capture_output=True, text=True, timeout=120)

    def test_children_do_not_repeat_buffered_output(self, separable_csv, tmp_path):
        single = self._run(1, separable_csv, tmp_path / "single")
        forked = self._run(3, separable_csv, tmp_path / "forked")
        assert single.returncode == forked.returncode == 0, forked.stderr
        assert single.stdout == forked.stdout == "written before propagate\n"
        assert "37 of 40 replicates excluded" in single.stderr
        assert forked.stderr == single.stderr
        for source in ("visual", "simpson", "assimilated"):
            name = f"km_bands_{source}.csv"
            assert ((tmp_path / "forked" / name).read_bytes()
                    == (tmp_path / "single" / name).read_bytes())

    def test_grouped_band_bytes_do_not_depend_on_the_cpu_count(self, tmp_path):
        """report over 200 one-replicate chunks in 7 groups, in one process
        and split 2/2/3 between three: either way each group's chunk sums
        are added in chunk order and the groups' sums in group order."""
        assert main(["simulate", "--n", "300", "--seed", "11", "--output", str(tmp_path)]) == 0
        cohort = parse_cohort_csv(tmp_path / "cohort.csv")
        columns = len(set(cohort.time[cohort.event > 0].tolist()))
        with mock.patch.object(propagation, "SUM_CELLS", 7 * columns):
            assert len(propagation._group_bounds(200, columns)) == 8
        for cpus in (1, 3):
            done = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, str(cpus), str(7 * columns), "report",
                 "--input", str(tmp_path / "cohort.csv"), "--replicates", "200",
                 "--seed", "3", "--output", str(tmp_path / str(cpus))],
                env=_src_env(), capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        reports = [[line for line in (tmp_path / cpus / "report.json").read_bytes().splitlines()
                    if b'"generated_at"' not in line] for cpus in ("1", "3")]
        assert reports[0] == reports[1]
        for source in ("visual", "simpson", "assimilated"):
            name = f"km_bands_{source}.csv"
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    @pytest.mark.parametrize("n,replicates", [(300, 500), (3000, 600)])
    def test_report_bytes_do_not_depend_on_the_cpu_count(self, tmp_path, n, replicates):
        """report on every CPU this process may use, and pinned to one, which
        forks no child.  At n=300 a chunk holds 218 replicates, so 500 make
        three chunks to split between processes; at n=3000 and 600
        replicates the 29 chunks split between processes, and a stratum's
        percentiles are read in about 4 blocks of columns."""
        assert main(["simulate", "--n", str(n), "--seed", "11", "--output", str(tmp_path)]) == 0
        one_cpu = {min(os.sched_getaffinity(0))}
        for output, preexec_fn in (("all", None),
                                   ("one", lambda: os.sched_setaffinity(0, one_cpu))):
            subprocess.run(
                [sys.executable, "-m", "lvef_fusion.cli", "report",
                 "--input", str(tmp_path / "cohort.csv"), "--replicates", str(replicates),
                 "--seed", "3", "--output", str(tmp_path / output)],
                env=_src_env(), capture_output=True, check=True, timeout=120,
                preexec_fn=preexec_fn)
        reports = [[line for line in (tmp_path / output / "report.json").read_bytes().splitlines()
                    if b'"generated_at"' not in line] for output in ("all", "one")]
        assert reports[0] == reports[1]
        for source in ("visual", "simpson", "assimilated"):
            name = f"km_bands_{source}.csv"
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


class TestSimulate:
    def test_stdout_includes_truth_column(self, capsys):
        assert main(["simulate", "--n", "50", "--seed", "3"]) == 0
        rows = _rows(capsys.readouterr().out)
        assert len(rows) == 50
        assert "true_lvef" in rows[0]

    def test_deterministic(self, capsys):
        assert main(["simulate", "--n", "50", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["simulate", "--n", "50", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first


class TestReport:
    def test_rerun_identical_excluding_timestamp(self, cohort_csv, tmp_path):
        flags = ["report", "--input", str(cohort_csv), "--seed", "7",
                 "--replicates", "20"]
        for sub in ("a", "b"):
            assert main(flags + ["--output", str(tmp_path / sub)]) == 0
        load = lambda sub: json.loads((tmp_path / sub / "report.json").read_text())
        first, second = load("a"), load("b")
        assert first["metadata"].pop("generated_at")
        assert second["metadata"].pop("generated_at")
        assert first == second
        for source in ("visual", "simpson", "assimilated"):
            name = f"km_bands_{source}.csv"
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_parse_warnings_reach_report(self, tmp_path, capsys):
        path = tmp_path / "offgrid.csv"
        rows = [f"p{i},{50.0 + 5 * (i % 5)},{48.0 + i},{30 + 20 * i},{i % 2}"
                for i in range(12)]
        rows[3] = "p3,52.3,51.0,90,1"
        path.write_text(HEADER + "\n".join(rows) + "\n")
        code = main(["report", "--input", str(path), "--replicates", "10",
                     "--output", str(tmp_path / "out")])
        assert code == 0
        assert "warning:" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert any("OffGridWarning" in w["message"] for w in report["warnings"])

    def test_zero_sigmas_skip_calibration_and_collapse_bands(self, cohort_csv, tmp_path):
        code = main(["report", "--input", str(cohort_csv), "--sigma-visual", "0",
                     "--sigma-simpson", "0", "--replicates", "10",
                     "--source", "visual", "--output", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["error_calibration"]["skipped"] is True
        assert report["propagation"]["visual"]["hazard_ratio"]["band_width"] == 0.0
        band_rows = list(csv.DictReader(
            (tmp_path / "km_bands_visual.csv").read_text().splitlines()))
        assert band_rows
        for row in band_rows:
            assert row["lower"] == row["mean"] == row["upper"]


class TestSharedSections:
    """propagate and report build their per-source sections through one path."""

    def test_propagate_artifacts_equal_the_reports(self, cohort_csv, tmp_path):
        flags = ["--input", str(cohort_csv), "--seed", "2", "--replicates", "20"]
        assert main(["propagate", *flags, "--output", str(tmp_path / "p")]) == 0
        assert main(["report", *flags, "--output", str(tmp_path / "r")]) == 0
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        for source in ("visual", "simpson", "assimilated"):
            payload = json.loads((tmp_path / "p" / f"propagation_{source}.json").read_text())
            metadata, config = payload.pop("metadata"), payload.pop("config")
            assert metadata["seed"] == report["metadata"]["seed"]
            # The run's settings, as the report echoes them but for the
            # calibration that propagate does not run; the hash covers them.
            assert config == {k: v for k, v in report["config"].items() if k != "calibration"}
            assert metadata["config_hash"] == config_hash(config)
            assert payload == report["propagation"][source]
            name = f"km_bands_{source}.csv"
            assert (tmp_path / "p" / name).read_bytes() == (tmp_path / "r" / name).read_bytes()

    @pytest.mark.parametrize("argv,name", [
        pytest.param(["calibrate-error", "--seed", "5"], "calibration.json", id="calibrate-error"),
        pytest.param(["km", "--source", "simpson"], "km_simpson.json", id="km"),
        pytest.param(["cox", "--source", "simpson"], "cox_simpson.json", id="cox"),
        pytest.param(["propagate", "--source", "simpson", "--seed", "5", "--replicates", "4"],
                     "propagation_simpson.json", id="propagate"),
        pytest.param(["report", "--seed", "5", "--replicates", "4"], "report.json", id="report"),
    ])
    def test_every_json_artifact_hashes_its_config(self, cohort_csv, tmp_path, argv, name):
        if argv[0] != "calibrate-error":
            argv = [*argv, "--input", str(cohort_csv)]
        assert main([*argv, "--output", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / name).read_text())
        metadata, config = payload["metadata"], payload["config"]
        assert metadata["config_hash"] == config_hash(config)
        assert {"mode", "sigma_visual", "sigma_simpson"} <= set(config)
        # The metadata names the seed exactly when the config echoes one.
        assert ("seed" in metadata) == ("seed" in config)
        assert metadata.get("seed") == config.get("seed")
        if "--seed" in argv:
            # The seed keys the streams the command draws from.
            assert config["seed"] == metadata["seed"] == 5
        else:
            # km and cox draw no random numbers.
            assert "seed" not in metadata

    def test_benchmark_tracer_names_exist(self):
        # perfbench/tracing.py times the layers by wrapping these module-level
        # names; a layer renamed or inlined away would silently drop out.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        # Names the program no longer has: chain_diagnostics went with the
        # Metropolis chain, stratify with the string labels, and propagation
        # no longer imports cox_fit_from_arrays.  The tracer still names them,
        # and their layers read 0, until the benchmark is next changed (ROADMAP
        # item 2).  Each entry must really be gone, so none hides a live name.
        stale = {("report", "chain_diagnostics"), ("propagation", "stratify"),
                 ("propagation", "cox_fit_from_arrays")}
        for module_name, attribute, _, _ in tracing.WRAPPED:
            module = importlib.import_module(f"lvef_fusion.{module_name}")
            present = hasattr(module, attribute)
            assert present != ((module_name, attribute) in stale), \
                f"lvef_fusion.{module_name}.{attribute}"


class TestPipeline:
    def test_simulate_pipes_into_fuse(self):
        command = (
            f"{sys.executable} -m lvef_fusion.cli simulate --n 100 --seed 3"
            f" | {sys.executable} -m lvef_fusion.cli fuse"
        )
        proc = subprocess.run(["sh", "-c", command], env=_src_env(), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        fused = _rows(proc.stdout)
        assert len(fused) == 100

        direct = subprocess.run(
            [sys.executable, "-m", "lvef_fusion.cli", "simulate",
             "--n", "100", "--seed", "3"],
            env=_src_env(), capture_output=True, text=True, check=True,
        )
        assert ([r["patient_id"] for r in fused]
                == [r["patient_id"] for r in _rows(direct.stdout)])

    def test_closed_stdout_exits_quietly(self):
        # The reader stops after the header, long before the cohort is
        # written: the run exits 1 and prints nothing.
        proc = subprocess.Popen(
            [sys.executable, "-m", "lvef_fusion.cli", "simulate", "--n", "100000"],
            env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"patient_id,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""
