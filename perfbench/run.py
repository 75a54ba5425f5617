"""The repository's benchmark: one workload, measured or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload point-commit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` replays the same seeded ops with spans and reports the per-layer
metrics, writing the spans to ``.perfbench/trace-<workload>-seed<N>.json``
(``perfbench/summarize.py`` reads that file alone).  The report lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every correctness check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import sys
from pathlib import Path

import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("point-commit", "live-read", "batch-apply")

#: Every end-to-end metric of the report, ``None`` where not applicable.
REPORTED = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "write_ms_mean": "ms",
    "write_ms_p50": "ms",
    "write_ms_p95": "ms",
    "read_ms_p50": "ms",
    "read_ms_p99": "ms",
    "push_ms_p50": "ms",
    "push_ms_p90": "ms",
    "failed_frac": "ratio",
    "rss_mb": "MiB",
    "cpu_ms_per_op": "ms",
    "disk_bytes_per_write": "bytes",
}

#: End-to-end metrics in ``BENCHMARK.json``: the ones every workload has.
END_TO_END = {
    name: REPORTED[name]
    for name in ("setup_s", "write_ms_mean", "cpu_ms_per_op", "rss_mb")
}

#: Per-layer metrics in ``BENCHMARK.json``: the ones every workload crosses.
PER_LAYER = {
    name: summarize.UNITS[name]
    for name in (
        "lang.parse_ms", "core.compile_ms", "core.evaluate_ms",
        "core.evaluate_iterations", "core.newbase_ms", "core.delta_over_base",
        "runtime.gc_ms", "unaccounted_share", "trace_overhead",
    )
}

SANDBOX_CAVEAT = (
    "fsync here measures the container's disk and page cache, not a device"
)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "flush_policy": "fsync",
        "caveat": SANDBOX_CAVEAT,
    }


def end_to_end(workload: str, result) -> dict[str, float | None]:
    """The report's end-to-end metrics of one measured run."""
    record = result.record
    ms = 1e3
    served = workload != "batch-apply"
    pushes = workload == "live-read"
    return {
        "setup_s": statistics.median(result.setup),
        "ops_per_s": len(record.op) / result.elapsed if result.elapsed else None,
        "write_ms_mean": statistics.mean(record.write) * ms if record.write else None,
        "write_ms_p50": statistics.median(record.write) * ms if record.write else None,
        "write_ms_p95": percentile(record.write, 0.95) * ms if served and record.write else None,
        "read_ms_p50": statistics.median(record.read) * ms if record.read else None,
        "read_ms_p99": percentile(record.read, 0.99) * ms if record.read else None,
        "push_ms_p50": statistics.median(record.push) * ms if pushes and record.push else None,
        "push_ms_p90": percentile(record.push, 0.90) * ms if pushes and record.push else None,
        "failed_frac": len(result.failures) / max(1, result.attempted),
        "rss_mb": result.rss_mb,
        "cpu_ms_per_op": record.cpu / len(record.op) * ms if record.op else None,
        "disk_bytes_per_write": result.disk_bytes_per_write,
    }


def _show(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(workload: str, metrics: dict, units: dict, result, info: dict) -> None:
    print(f"== {workload}")
    print(f"provenance: {json.dumps(info, sort_keys=True)}")
    record = result.record
    if record.op:
        print(
            f"samples: ops={len(record.op)} writes={len(record.write)} "
            f"reads={len(record.read)} pushes={len(record.push)} "
            f"setups={len(result.setup)}"
        )
    for name, unit in units.items():
        print(f"{name:36} {_show(metrics[name]):>14} {unit}")
    for failure in result.failures[:20]:
        print(f"FAILED: {failure}")


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns ``(metrics, units, result)`` for the report."""
    import scenarios

    if not trace:
        result = scenarios.measure(workload, seed, seconds, SRC)
        return end_to_end(workload, result), REPORTED, result
    document, result = scenarios.trace(workload, seed, seconds, SRC)
    document["provenance"] = provenance(workload, seed, seconds, True)
    scenarios.WORK_ROOT.mkdir(exist_ok=True)
    path = scenarios.WORK_ROOT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")
    print(f"trace: {path} ({len(document['ops'])} ops traced)")
    with open(path, encoding="utf-8") as handle:
        metrics = summarize.summarize(json.load(handle))
    return metrics, summarize.UNITS, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so that the server subprocess is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)

    trace = bool(args.trace)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = PER_LAYER if trace else END_TO_END
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        metrics, units, result = run_one(workload, args.seed, args.seconds, trace)
        info = provenance(workload, args.seed, args.seconds, trace)
        report(workload, metrics, units, result, info)
        summary["attempted"] += result.attempted
        summary["failed"] += len(result.failures)
        prefix = "" if len(chosen) == 1 else f"{workload}."
        for name, unit in wanted.items():
            value = metrics[name]
            if value is None:
                summary["failed"] += 1
                print(f"FAILED: {name} was not measured", file=sys.stderr)
                continue
            summary["metrics"][prefix + name] = {"value": value, "unit": unit}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
