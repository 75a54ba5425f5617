"""Per-layer metrics from one trace file, and nothing else.

Usage::

    python3 perfbench/summarize.py .perfbench/trace-live-read-seed1.json

A layer's self time is the duration of its spans minus the part covered
by their child spans.  Each ``*_ms`` metric is that self time per op that
entered the layer.  The root ``op`` span's own self time is the time no
layer accounts for.  ``transport_ms`` is the median round trip of a
``ping`` on the served connection: socket, event loop, dispatch and the
client's thread hop, with no store work.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

#: Span name -> per-layer metric name.
LAYER_METRICS = {
    "lang.parse": "lang.parse_ms",
    "core.compile": "core.compile_ms",
    "core.evaluate": "core.evaluate_ms",
    "core.newbase": "core.newbase_ms",
    "query.run": "query.run_ms",
    "api.decode": "api.decode_ms",
    "storage.commit": "storage.commit_ms",
    "storage.journal_append": "storage.journal_append_ms",
    "server.fanout": "server.fanout_ms",
    "server.encode": "server.encode_ms",
    "server.decode": "server.decode_ms",
    "runtime.gc": "runtime.gc_ms",
}

#: Every metric the summariser reports, with its unit.
UNITS = {
    **{metric: "ms" for metric in LAYER_METRICS.values()},
    "core.evaluate_iterations": "count",
    "core.delta_over_base": "ratio",
    "storage.journal_bytes_per_commit": "bytes",
    "storage.memo_hit_ratio": "ratio",
    "storage.memo_carried_ratio": "ratio",
    "server.push_useful_ratio": "ratio",
    "server.response_bytes": "bytes",
    "transport_ms": "ms",
    "unaccounted_share": "ratio",
    "trace_overhead": "ratio",
}


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def _ratio(numerator, denominator) -> float | None:
    return numerator / denominator if denominator else None


def self_times(spans: list) -> list[int]:
    """Self time of every span, in nanoseconds."""
    own = [end - start for _name, start, end, _parent, _op in spans]
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(trace: dict) -> dict[str, float | None]:
    """Every metric of :data:`UNITS`; ``None`` where the workload does not
    cross the layer."""
    spans = trace["spans"]
    own = self_times(spans)
    layer_ns: dict[str, int] = defaultdict(int)
    layer_ops: dict[str, set] = defaultdict(set)
    op_ns: dict[int, int] = {}
    for (name, start, end, _parent, op), self_ns in zip(spans, own):
        layer_ns[name] += self_ns
        if name == "op":
            op_ns[op] = end - start
        else:
            layer_ops[name].add(op)
    metrics: dict[str, float | None] = {}
    for span_name, metric in LAYER_METRICS.items():
        ops = layer_ops.get(span_name)
        metrics[metric] = layer_ns[span_name] / len(ops) / 1e6 if ops else None

    counters = trace["counters"]
    metrics["core.evaluate_iterations"] = _mean(counters["evaluate_iterations"])
    metrics["core.delta_over_base"] = _mean(
        changed / base for changed, base in counters["commit_deltas"]
    )
    journal = counters.get("journal")
    metrics["storage.journal_bytes_per_commit"] = (
        _ratio(journal["bytes"], journal["commits"]) if journal else None
    )
    memo = counters.get("memo")
    metrics["storage.memo_hit_ratio"] = (
        _ratio(memo["hits"], memo["hits"] + memo["misses"]) if memo else None
    )
    metrics["storage.memo_carried_ratio"] = (
        _ratio(memo["carried"], memo["carried"] + memo["invalidated"]) if memo else None
    )
    push = counters.get("push")
    metrics["server.push_useful_ratio"] = (
        _ratio(push["pushed"], push["refreshed"]) if push else None
    )

    ops = trace["ops"]
    metrics["server.response_bytes"] = _mean(
        op["response_bytes"] for op in ops if op.get("response_bytes") is not None
    )
    pings = counters.get("ping_ms")
    metrics["transport_ms"] = statistics.median(pings) if pings else None
    traced_total = sum(op_ns.values()) / 1e6
    metrics["unaccounted_share"] = _ratio(layer_ns["op"] / 1e6, traced_total)
    metrics["trace_overhead"] = _ratio(
        traced_total, sum(op["untraced_ms"] for op in ops)
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 1:
        print("usage: summarize.py TRACE_FILE", file=sys.stderr)
        return 2
    with open(paths[0], encoding="utf-8") as handle:
        metrics = summarize(json.load(handle))
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:36} {shown:>14} {UNITS[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
