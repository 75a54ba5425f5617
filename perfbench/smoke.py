"""The benchmark's own smoke test (about two minutes).

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

It checks that

* the metric names and units of ``run.py`` match ``BENCHMARK.json``;
* a short run of every workload, measured and traced, exits 0, prints
  every metric of its report with a unit and ends with the result line,
  which carries every ``BENCHMARK.json`` metric of its mode;
* a deliberately wrong answer handed to each workload's checker is caught;
* without the program's sources the benchmark fails without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_declared_metrics(run) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {metric["name"]: metric["unit"] for metric in declared[key]}
        assert listed == table, f"{key}: BENCHMARK.json {listed} != run.py {table}"
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def check_short_runs(run, summarize) -> None:
    for workload in run.WORKLOADS:
        for trace, expected, report in (
            ("0", run.END_TO_END, run.REPORTED),
            ("1", run.PER_LAYER, summarize.UNITS),
        ):
            done = _run(
                ["--workload", workload, "--seed", "1", "--seconds", SECONDS,
                 "--trace", trace],
                ROOT,
            )
            assert done.returncode == 0, f"{workload} trace={trace}: {done.stdout}{done.stderr}"
            lines = done.stdout.splitlines()
            for name, unit in report.items():
                assert any(
                    line.split()[:1] == [name] and line.split()[-1] == unit
                    for line in lines
                ), f"{workload}: {name} [{unit}] missing from the report"
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            assert {
                name: metric["unit"] for name, metric in result["metrics"].items()
            } == expected, f"{workload} trace={trace}: {result['metrics']}"
            print(f"ok  {workload:13} trace={trace}")


def check_tampered_answers(scenarios, src: Path) -> None:
    for workload in scenarios.WORKLOADS:
        result = scenarios.measure(workload, 1, 0.5, src, tamper=True)
        assert result.failures, f"{workload}: a wrong answer went unnoticed"
        print(f"ok  {workload:13} wrong answer caught: {result.failures[0][:60]}")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(
            ["--workload", "point-commit", "--seed", "1", "--seconds", SECONDS, "--trace", "0"],
            bare,
        )
        assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  no sources: exits", done.returncode, "without a result")


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import scenarios
    import summarize

    check_declared_metrics(run)
    check_bare_directory()
    check_tampered_answers(scenarios, ROOT / "src")
    check_short_runs(run, summarize)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
