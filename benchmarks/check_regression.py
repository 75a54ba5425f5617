#!/usr/bin/env python3
"""Bench-regression guard: compare a fresh sweep against the committed
baseline.

Absolute wall times are not portable across CI machines, so the guard
compares **ratios** (speedup factors measured within one process on one
machine) and enforces two kinds of bound:

* hard floors from the acceptance criteria — the memoized serving path
  must stay >= 3x over per-call reads, and the concurrent push-serving
  path >= 3x over naive per-request re-evaluation;
* relative bounds — each tracked ratio must reach at least
  ``(1 - tolerance)`` of the committed baseline's value.

Exit status 0 when everything holds, 1 with a per-check report otherwise.

Usage (what CI runs)::

    python benchmarks/check_regression.py \
        --baseline BENCH_PR3.json --fresh bench-queries-ci.json \
        --p1-baseline BENCH_PR1.json --p1-fresh bench-ci.json \
        --serve-baseline BENCH_PR4.json --serve-fresh bench-serve-ci.json \
        --joins-baseline BENCH_PR7.json --joins-fresh bench-joins-ci.json

The chaos job runs the soak checks on their own — correctness
invariants are absolute, throughput is a ratio::

    python benchmarks/check_regression.py \
        --soak-baseline BENCH_PR6.json --soak-fresh bench-soak-ci.json

and likewise the replication checks (PR 8): zero lost acknowledged
commits and a consistent post-failover subscription are absolute,
catch-up time has an absolute ceiling, and replica read fanout is a
throughput ratio against the committed baseline::

    python benchmarks/check_regression.py \
        --replication-baseline BENCH_PR8.json \
        --replication-fresh bench-replication-ci.json

The cluster guard (PR 10) enforces the sharding acceptance criteria:
consistency against the memory replay is absolute, read scaling at the
largest shard count has a hard >= 3x floor (plus a ratio bound against
the committed baseline), and single-shard commits routed through the
cluster must keep >= 0.9x of standalone throughput::

    python benchmarks/check_regression.py \
        --cluster-baseline BENCH_PR10.json \
        --cluster-fresh bench-cluster-ci.json

The observability guard (PR 9) enforces the metrics-overhead acceptance
bound as absolute ceilings measured within one process (both runs of
each pair happen on the same machine, so no cross-machine noise): with
the registry enabled, the P1[400] apply must stay within 5 % of the
disabled time and the serve run within 5 % of the disabled throughput::

    python benchmarks/check_regression.py \
        --obs-baseline BENCH_PR9.json --obs-fresh bench-obs-ci.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The acceptance-criteria floor for the memoized serving path.
SERVED_SPEEDUP_FLOOR = 3.0

#: The acceptance-criteria floor for concurrent push serving (PR 4).
SERVE_THROUGHPUT_FLOOR = 3.0

#: The floor for compiled join execution: the codegen'd path must stay
#: >= 2.9x over the naive dynamic-ordering reference on the largest P1
#: base of the sweep.  That carries the original >= 1.5x floor over the
#: (since deleted) interpreted planned walker across: BENCH_PR7.json
#: measured naive at 1.94x the interpreted time at n=400, and
#: 1.5 x 1.94 = 2.9.
COMPILED_SPEEDUP_FLOOR = 2.9

#: Replication (PR 8): followers must absorb the burst within this many
#: seconds — an absolute ceiling, generous because CI machines are noisy
#: (the committed baseline is well under a second).
REPLICATION_CATCHUP_CEILING_S = 15.0

#: Replication (PR 8): aggregate replica reads/s must stay above this
#: floor — three followers serving essentially nothing means the fanout
#: path is broken, whatever the machine.
REPLICA_READS_FLOOR = 50.0

#: Observability (PR 9): with the metrics registry enabled, the P1[400]
#: apply may take at most this multiple of the disabled time (the 5 %
#: acceptance bound; both runs happen in one process on one machine).
OBS_P1_OVERHEAD_CEILING = 1.05

#: Observability (PR 9): with the metrics registry enabled, the serve
#: run must keep at least this fraction of the disabled throughput.
OBS_SERVE_THROUGHPUT_FLOOR = 0.95

#: Cluster (PR 10): aggregate read throughput at the largest shard count
#: of the sweep (8 by default) must stay >= 3x over one shard — the
#: acceptance-criteria scaling floor.  Both halves of the ratio come from
#: one process on one machine, so machine noise cancels.
CLUSTER_READ_SCALING_FLOOR = 3.0

#: Cluster (PR 10): commits routed through a 1-shard cluster must keep at
#: least this fraction of standalone-server commit throughput (the
#: "router costs < 10 %" acceptance bound).
CLUSTER_COMMIT_RATIO_FLOOR = 0.9


def check_ratio(
    failures: list[str], name: str, fresh: float, baseline: float, tolerance: float
) -> None:
    bound = baseline * (1.0 - tolerance)
    verdict = "ok" if fresh >= bound else "REGRESSION"
    print(
        f"{name:<45} fresh {fresh:7.2f}x  baseline {baseline:7.2f}x  "
        f"(bound {bound:5.2f}x)  {verdict}"
    )
    if fresh < bound:
        failures.append(name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, default=None,
                        help="committed BENCH_PR3.json (optional)")
    parser.add_argument("--fresh", type=Path, default=None,
                        help="query sweep produced by this run (optional)")
    parser.add_argument("--p1-baseline", type=Path, default=None,
                        help="committed BENCH_PR1.json (optional)")
    parser.add_argument("--p1-fresh", type=Path, default=None,
                        help="P1 sweep produced by this run (optional)")
    parser.add_argument("--serve-baseline", type=Path, default=None,
                        help="committed BENCH_PR4.json (optional)")
    parser.add_argument("--serve-fresh", type=Path, default=None,
                        help="serve sweep produced by this run (optional)")
    parser.add_argument("--joins-baseline", type=Path, default=None,
                        help="committed BENCH_PR7.json (optional)")
    parser.add_argument("--joins-fresh", type=Path, default=None,
                        help="joins sweep produced by this run (optional)")
    parser.add_argument("--soak-baseline", type=Path, default=None,
                        help="committed BENCH_PR6.json (optional)")
    parser.add_argument("--soak-fresh", type=Path, default=None,
                        help="soak run produced by this CI job (optional)")
    parser.add_argument("--replication-baseline", type=Path, default=None,
                        help="committed BENCH_PR8.json (optional)")
    parser.add_argument("--replication-fresh", type=Path, default=None,
                        help="replication run produced by this CI job "
                        "(optional)")
    parser.add_argument("--cluster-baseline", type=Path, default=None,
                        help="committed BENCH_PR10.json (optional)")
    parser.add_argument("--cluster-fresh", type=Path, default=None,
                        help="cluster sweep produced by this run (optional)")
    parser.add_argument("--obs-baseline", type=Path, default=None,
                        help="committed BENCH_PR9.json (optional)")
    parser.add_argument("--obs-fresh", type=Path, default=None,
                        help="observability sweep produced by this run "
                        "(optional)")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed relative shortfall vs the baseline "
                        "ratio (default: %(default)s — CI machines are noisy)")
    arguments = parser.parse_args(argv)

    failures: list[str] = []

    if arguments.baseline and arguments.fresh:
        baseline = json.loads(arguments.baseline.read_text(encoding="utf-8"))
        fresh = json.loads(arguments.fresh.read_text(encoding="utf-8"))
        served = fresh["speedup_served_over_per_call"]
        verdict = "ok" if served >= SERVED_SPEEDUP_FLOOR else "REGRESSION"
        print(
            f"{'served speedup floor':<45} fresh {served:7.2f}x  "
            f"floor {SERVED_SPEEDUP_FLOOR:.2f}x{'':>21}{verdict}"
        )
        if served < SERVED_SPEEDUP_FLOOR:
            failures.append("served speedup floor")
        check_ratio(
            failures, "served over per-call",
            served, baseline["speedup_served_over_per_call"],
            arguments.tolerance,
        )
        for name, entry in baseline["per_query_head"].items():
            fresh_entry = fresh["per_query_head"].get(name)
            if fresh_entry is None:
                print(
                    f"{name:<45} missing from fresh sweep            "
                    "REGRESSION"
                )
                failures.append(name)
                continue
            check_ratio(
                failures, f"indexed over dynamic [{name}]",
                fresh_entry["speedup_indexed_over_dynamic"],
                entry["speedup_indexed_over_dynamic"],
                arguments.tolerance,
            )

    if arguments.serve_baseline and arguments.serve_fresh:
        serve_baseline = json.loads(
            arguments.serve_baseline.read_text(encoding="utf-8")
        )
        serve_fresh = json.loads(
            arguments.serve_fresh.read_text(encoding="utf-8")
        )
        serve_ratio = serve_fresh["throughput_ratio_served_over_naive"]
        verdict = "ok" if serve_ratio >= SERVE_THROUGHPUT_FLOOR else "REGRESSION"
        print(
            f"{'serve throughput floor':<45} fresh {serve_ratio:7.2f}x  "
            f"floor {SERVE_THROUGHPUT_FLOOR:.2f}x{'':>21}{verdict}"
        )
        if serve_ratio < SERVE_THROUGHPUT_FLOOR:
            failures.append("serve throughput floor")
        check_ratio(
            failures, "serve throughput served over naive",
            serve_ratio,
            serve_baseline["throughput_ratio_served_over_naive"],
            arguments.tolerance,
        )

    if arguments.joins_baseline and arguments.joins_fresh:
        joins_baseline = json.loads(
            arguments.joins_baseline.read_text(encoding="utf-8")
        )
        joins_fresh = json.loads(
            arguments.joins_fresh.read_text(encoding="utf-8")
        )
        fresh_speedups = joins_fresh["p1"]["speedup_compiled_over_naive"]
        largest = str(max(int(size) for size in fresh_speedups))
        floor_speedup = fresh_speedups[largest]
        verdict = (
            "ok" if floor_speedup >= COMPILED_SPEEDUP_FLOOR else "REGRESSION"
        )
        print(
            f"{f'compiled speedup floor [n={largest}]':<45} "
            f"fresh {floor_speedup:7.2f}x  "
            f"floor {COMPILED_SPEEDUP_FLOOR:.2f}x{'':>21}{verdict}"
        )
        if floor_speedup < COMPILED_SPEEDUP_FLOOR:
            failures.append("compiled speedup floor")
        baseline_speedups = joins_baseline["p1"]["speedup_compiled_over_naive"]
        for size, ratio in baseline_speedups.items():
            fresh_ratio = fresh_speedups.get(size)
            if fresh_ratio is None:
                continue  # the fresh run swept different sizes
            check_ratio(
                failures, f"compiled over naive [n={size}]",
                fresh_ratio, ratio, arguments.tolerance,
            )
        check_ratio(
            failures, "compiled over naive [wide join]",
            joins_fresh["wide_join"]["speedup_compiled_over_naive"],
            joins_baseline["wide_join"]["speedup_compiled_over_naive"],
            arguments.tolerance,
        )

    if arguments.soak_baseline and arguments.soak_fresh:
        soak_baseline = json.loads(
            arguments.soak_baseline.read_text(encoding="utf-8")
        )
        soak_fresh = json.loads(
            arguments.soak_fresh.read_text(encoding="utf-8")
        )
        # correctness invariants are absolute: any breach is a regression
        for invariant, want in (
            ("consistent", True),
            ("journal_ok", True),
            ("non_retryable_errors", 0),
        ):
            got = soak_fresh.get(invariant)
            verdict = "ok" if got == want else "REGRESSION"
            print(
                f"{f'soak {invariant}':<45} fresh {got!r:>8}  "
                f"required {want!r}{'':>14}{verdict}"
            )
            if got != want:
                failures.append(f"soak {invariant}")
        check_ratio(
            failures, "soak commit throughput (commits/s)",
            soak_fresh["commits_per_second"],
            soak_baseline["commits_per_second"],
            arguments.tolerance,
        )

    if arguments.replication_baseline and arguments.replication_fresh:
        repl_baseline = json.loads(
            arguments.replication_baseline.read_text(encoding="utf-8")
        )
        repl_fresh = json.loads(
            arguments.replication_fresh.read_text(encoding="utf-8")
        )
        # correctness invariants are absolute: any breach is a regression
        for invariant, want in (
            ("lost_acknowledged_commits", 0),
            ("consistent", True),
            ("journal_ok", True),
        ):
            got = repl_fresh.get(invariant)
            verdict = "ok" if got == want else "REGRESSION"
            print(
                f"{f'replication {invariant}':<45} fresh {got!r:>8}  "
                f"required {want!r}{'':>14}{verdict}"
            )
            if got != want:
                failures.append(f"replication {invariant}")
        catchup = repl_fresh["replication_catchup_seconds"]
        verdict = (
            "ok" if catchup <= REPLICATION_CATCHUP_CEILING_S else "REGRESSION"
        )
        print(
            f"{'replication catch-up ceiling (s)':<45} "
            f"fresh {catchup:7.2f}   "
            f"ceiling {REPLICATION_CATCHUP_CEILING_S:.2f}{'':>16}{verdict}"
        )
        if catchup > REPLICATION_CATCHUP_CEILING_S:
            failures.append("replication catch-up ceiling")
        fanout = repl_fresh["replica_reads_per_second"]
        verdict = "ok" if fanout >= REPLICA_READS_FLOOR else "REGRESSION"
        print(
            f"{'replica read fanout floor (reads/s)':<45} "
            f"fresh {fanout:7.0f}   "
            f"floor {REPLICA_READS_FLOOR:.0f}{'':>19}{verdict}"
        )
        if fanout < REPLICA_READS_FLOOR:
            failures.append("replica read fanout floor")
        check_ratio(
            failures, "replica read fanout (reads/s)",
            fanout, repl_baseline["replica_reads_per_second"],
            arguments.tolerance,
        )

    if arguments.cluster_baseline and arguments.cluster_fresh:
        cluster_baseline = json.loads(
            arguments.cluster_baseline.read_text(encoding="utf-8")
        )
        cluster_fresh = json.loads(
            arguments.cluster_fresh.read_text(encoding="utf-8")
        )
        # the scatter answers must match the memory replay at every count
        got = cluster_fresh.get("consistent")
        verdict = "ok" if got is True else "REGRESSION"
        print(
            f"{'cluster consistent':<45} fresh {got!r:>8}  "
            f"required True{'':>14}{verdict}"
        )
        if got is not True:
            failures.append("cluster consistent")
        scaling = cluster_fresh["read_scaling_largest_over_one"]
        shards = cluster_fresh["read_scaling_shards"]
        verdict = (
            "ok" if scaling >= CLUSTER_READ_SCALING_FLOOR else "REGRESSION"
        )
        print(
            f"{f'cluster read scaling floor [{shards} shards]':<45} "
            f"fresh {scaling:7.2f}x  "
            f"floor {CLUSTER_READ_SCALING_FLOOR:.2f}x{'':>21}{verdict}"
        )
        if scaling < CLUSTER_READ_SCALING_FLOOR:
            failures.append("cluster read scaling floor")
        commit_ratio = cluster_fresh[
            "commit_throughput_ratio_routed_over_standalone"
        ]
        verdict = (
            "ok" if commit_ratio >= CLUSTER_COMMIT_RATIO_FLOOR
            else "REGRESSION"
        )
        print(
            f"{'cluster single-shard commit ratio floor':<45} "
            f"fresh {commit_ratio:7.3f}   "
            f"floor {CLUSTER_COMMIT_RATIO_FLOOR:.2f}{'':>19}{verdict}"
        )
        if commit_ratio < CLUSTER_COMMIT_RATIO_FLOOR:
            failures.append("cluster single-shard commit ratio floor")
        check_ratio(
            failures, "cluster read scaling vs baseline",
            scaling,
            cluster_baseline["read_scaling_largest_over_one"],
            arguments.tolerance,
        )

    if arguments.obs_baseline and arguments.obs_fresh:
        obs_baseline = json.loads(
            arguments.obs_baseline.read_text(encoding="utf-8")
        )
        obs_fresh = json.loads(
            arguments.obs_fresh.read_text(encoding="utf-8")
        )
        # the acceptance bounds are absolute: both halves of each ratio
        # come from the same process, so machine noise cancels
        p1_ratio = obs_fresh["p1_overhead_ratio_on_over_off"]
        verdict = "ok" if p1_ratio <= OBS_P1_OVERHEAD_CEILING else "REGRESSION"
        print(
            f"{'obs P1 overhead ceiling (on/off time)':<45} "
            f"fresh {p1_ratio:7.3f}   "
            f"ceiling {OBS_P1_OVERHEAD_CEILING:.2f}{'':>17}{verdict}"
        )
        if p1_ratio > OBS_P1_OVERHEAD_CEILING:
            failures.append("obs P1 overhead ceiling")
        serve_ratio = obs_fresh["serve_throughput_ratio_on_over_off"]
        verdict = (
            "ok" if serve_ratio >= OBS_SERVE_THROUGHPUT_FLOOR else "REGRESSION"
        )
        print(
            f"{'obs serve throughput floor (on/off)':<45} "
            f"fresh {serve_ratio:7.3f}   "
            f"floor {OBS_SERVE_THROUGHPUT_FLOOR:.2f}{'':>19}{verdict}"
        )
        if serve_ratio < OBS_SERVE_THROUGHPUT_FLOOR:
            failures.append("obs serve throughput floor")
        check_ratio(
            failures, "obs serve throughput vs baseline",
            serve_ratio,
            obs_baseline["serve_throughput_ratio_on_over_off"],
            arguments.tolerance,
        )

    if arguments.p1_baseline and arguments.p1_fresh:
        p1_baseline = json.loads(arguments.p1_baseline.read_text(encoding="utf-8"))
        p1_fresh = json.loads(arguments.p1_fresh.read_text(encoding="utf-8"))
        for size, ratio in p1_baseline["speedup_naive_over_semi_naive"].items():
            fresh_ratio = p1_fresh["speedup_naive_over_semi_naive"].get(size)
            if fresh_ratio is None:
                continue  # the fresh run swept different sizes
            check_ratio(
                failures, f"P1 semi-naive speedup [n={size}]",
                fresh_ratio, ratio, arguments.tolerance,
            )

    if failures:
        print(f"\n{len(failures)} bench regression(s): {', '.join(failures)}")
        return 1
    print("\nall bench ratios within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
