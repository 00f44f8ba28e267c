"""Benchmark of the lvef-fusion command-line interface.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

Generates the workload's cohort CSV from --seed, then calls the CLI in a
child process, one call at a time, until --seconds have passed (at least
MIN_CALLS calls), and checks every call's outputs.  With --trace 0 it prints
the end-to-end metrics; with --trace 1 it also makes one traced call (see
tracing.py) and prints the per-layer metrics.  The last line of stdout is the
result as one JSON object; progress goes to stderr.  --smoke shrinks every
workload to at most a thousand patients, so the harness checks itself in seconds.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import checks
from tracing import SOURCES, layer_metrics, load_trace
from workloads import WORKLOADS, generate_cohort, smoke

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CLI = "import sys; from lvef_fusion.cli import main; sys.exit(main())"
# Every child runs its BLAS/OpenMP pools with one thread: the machine has two
# cores and the program's numpy work is not BLAS-bound, so one thread keeps
# each child within the core count and the timings steadier.
THREADS = 1
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_IMPORTS = 7
MIN_CALLS = 3
# A run must end within 180 s; no call starts or runs past this budget.
RUN_BUDGET_S = 165.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({name: str(THREADS) for name in THREAD_VARIABLES})
    return env


def run_child(argv, env, deadline, stderr_path):
    """Run one child to its exit: (wall s, its own peak RSS in MB, exit code).

    os.wait4 gives this child's own rusage; RUSAGE_CHILDREN would report the
    maximum over every child so far."""
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_args(workload, seed, cohort_csv, outdir):
    args = [workload.command, "--input", str(cohort_csv), "--output", str(outdir),
            "--sigma-visual", str(checks.SIGMA_VISUAL),
            "--sigma-simpson", str(checks.SIGMA_SIMPSON)]
    if workload.command == "report":
        args += ["--seed", str(seed), "--replicates", str(workload.replicates)]
    return args


class BenchRun:
    """One benchmark run: its inputs, its calls and what they measured."""

    def __init__(self, workload, seed, workdir, deadline):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.cohort_csv = workdir / "cohort.csv"
        generate_cohort(workload, seed, self.cohort_csv)
        self.calls = 0
        self.failed = 0
        self.walls: list = []
        self.rss: list = []
        self.setup_times: list = []
        self.first_digest = None
        self.verdicts: dict = {}
        self.replicates = (0, 0)

    def import_seconds(self) -> float:
        """Launch-to-exit time of a fresh interpreter importing the CLI."""
        argv = [sys.executable, "-c", "import lvef_fusion.cli"]
        err = self.workdir / "import.err"
        wall, _, code = run_child(argv, self.env, self.deadline, err)
        if code != 0:
            raise RuntimeError(f"importing lvef_fusion.cli failed:\n{err.read_text()}")
        return wall

    def call(self, launcher=("-c", CLI)) -> tuple:
        """One CLI call: time it, check its outputs, count it."""
        self.calls += 1
        outdir = self.workdir / f"call{self.calls}"
        outdir.mkdir()
        stderr_path = self.workdir / f"call{self.calls}.err"
        argv = [sys.executable, *launcher,
                *cli_args(self.workload, self.seed, self.cohort_csv, outdir)]
        wall, rss, code = run_child(argv, self.env, self.deadline, stderr_path)
        problems = [f"exit code {code}: {stderr_path.read_text(errors='replace')[-2000:]}"] \
            if code != 0 else self.check(outdir)
        if problems:
            self.failed += 1
            print(f"call {self.calls} failed: {'; '.join(problems)}", file=sys.stderr)
        shutil.rmtree(outdir)
        stderr_path.unlink()
        print(f"call {self.calls}: {wall:.3f} s, {rss:.1f} MB", file=sys.stderr)
        return wall, rss

    def check(self, outdir) -> list:
        try:
            digest = checks.output_digest(outdir)
            if digest not in self.verdicts:
                if self.workload.command == "report":
                    self.verdicts[digest] = checks.report_problems(outdir, SOURCES)
                    self.replicates = checks.replicate_counts(outdir)
                else:
                    self.verdicts[digest] = checks.fused_problems(outdir / "fused.csv",
                                                                  self.cohort_csv)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            return ["outputs differ from the first call of this run"]
        return self.verdicts[digest]

    def measure(self, seconds):
        """Untraced calls for `seconds`, each after one timed import, so the
        set-up samples spread over the run like the calls do."""
        self.import_seconds()  # untimed: compiles bytecode on a fresh checkout
        start = time.perf_counter()
        while self.calls < MIN_CALLS or time.perf_counter() - start < seconds:
            if self.walls and time.perf_counter() + 1.5 * max(self.walls) > self.deadline:
                break
            self.setup_times.append(self.import_seconds())
            wall, rss = self.call()
            self.walls.append(wall)
            self.rss.append(rss)
        while len(self.setup_times) < SETUP_IMPORTS:
            self.setup_times.append(self.import_seconds())

    def traced_call(self) -> dict:
        spans_path = self.workdir / "spans.json"
        run_id = f"{self.workload.name}-{self.seed}-traced"
        wall, _ = self.call([str(HERE / "tracing.py"), str(spans_path), run_id])
        spans, unwrapped = load_trace(spans_path) if spans_path.is_file() else ([], [])
        if unwrapped:
            print(f"not traced, absent from the program: {', '.join(unwrapped)}",
                  file=sys.stderr)
        metrics = layer_metrics(spans)
        metrics["trace.overhead_s"] = (wall - statistics.median(self.walls), "s")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for checking the harness itself")
    args = parser.parse_args(argv)
    if not (SRC / "lvef_fusion" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'lvef_fusion'} is missing",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    deadline = time.perf_counter() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        bench = BenchRun(workload, args.seed, workdir, deadline)
        bench.measure(args.seconds)
        if args.trace:
            metrics = bench.traced_call()
            failed, replicates = bench.replicates
            metrics["ops_failed_share"] = (bench.failed / bench.calls, "ratio")
            metrics["replicate_failure_share"] = (
                failed / replicates if replicates else 0.0, "ratio")
        else:
            metrics = {
                "wall_s": (statistics.median(bench.walls), "s"),
                "setup_s": (statistics.median(bench.setup_times), "s"),
                "peak_rss_mb": (statistics.median(bench.rss), "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"workload": workload.name, "n": workload.n,
                      "replicates": workload.replicates, "python": platform.python_version(),
                      "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
                      "threads": THREADS}), file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.calls,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
