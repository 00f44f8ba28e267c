"""The harness's own test: every workload in smoke mode, in both trace modes.

    python3 perfbench/selftest.py

Checks that each run prints a well-formed result whose metrics are exactly
the ones BENCHMARK.json names, with the same units, and that the benchmark
refuses to run, printing no result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.  Takes well under a minute.
Kept out of the package's test suite on purpose.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result_problems(stdout: str, expected: dict) -> list:
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"not correct: {result.get('failed')} of {result.get('attempted')} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    return problems


def main() -> int:
    failures = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            run = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--smoke")
            problems = ([f"exit code {run.returncode}: {run.stderr[-1000:]}"]
                        if run.returncode else result_problems(run.stdout, expected))
            print(f"{workload} --trace {trace}: {'; '.join(problems) or 'ok'}")
            failures += problems

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        run = bench(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "7",
                    "--seconds", "1", "--trace", "0", "--smoke")
    finally:
        shutil.rmtree(bare)
    refused = run.returncode != 0 and not run.stdout.strip()
    print(f"bare directory: {'ok' if refused else 'ran without the program'}")
    if not refused:
        failures.append("ran without the program")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
