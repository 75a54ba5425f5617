"""Machine-readable performance sweeps (``python -m repro bench``).

Two sweeps, each writing a JSON document so the performance trajectory is
comparable across PRs (``benchmarks/run_bench.py`` is a thin wrapper):

* **P1 base-size sweep** (default, ``BENCH_PR1.json``) — the full enterprise
  update program against generated bases of increasing size, once per
  evaluation path (semi-naive delta-driven vs the naive reference).
* **Store sweep** (``--store``, ``BENCH_PR2.json``) — the versioned store's
  two claims: (a) a 200-revision delta chain of the P1 workload keeps ≥ 5×
  less memory than the full-copy chain (tracemalloc bytes, plus the
  representation-independent stored-entry count), and (b) repeated
  ``store.apply`` with the engine's cached ``CompiledProgram`` beats a cold
  ``UpdateEngine.apply`` that redoes the static analysis (safety,
  stratification, join plans) every time.
* **Query sweep** (``--queries``, ``BENCH_PR3.json``) — the read-heavy
  serving workload: a store absorbs small update transactions while a mix
  of conjunctive queries is read back many times per revision.  Three
  serving paths are timed over identical update/read traces: per-call
  ``query_literals`` (the PR 2 path — full re-join on every read),
  ``PreparedQuery.run`` (compile-once + secondary-index access paths), and
  ``VersionedStore.query`` (prepared + per-revision memoization with
  delta-driven invalidation/carry).  A differential check asserts all
  paths agree with the dynamic reference matcher at every revision.
* **Serve sweep** (``--serve``, ``BENCH_PR4.json``) — the concurrent
  serving subsystem: N clients hold live subscriptions to the read-query
  mix while update transactions commit.  The *served* path keeps every
  client current by push (per commit: one signature check per query,
  shared re-evaluation only for affected queries, answer diffs out); the
  *naive* baseline re-evaluates every query for every client on every
  commit — what polling against the PR 2 store would cost.  Both paths
  are measured as up-to-date client query states per second; the headline
  ratio (acceptance floor: >= 3x) is guarded in CI.  A wire section
  additionally times the asyncio JSON-lines transport end-to-end
  (concurrent subscribers on a unix socket, commit-to-push wall time,
  request round-trip latency).
* **Joins sweep** (``--joins``, ``BENCH_PR7.json``) — the compiled
  (codegen'd, set-at-a-time) execution path against the naive
  dynamic-ordering reference.  Two workloads: the P1 enterprise program
  over the standard size sweep, and a wide-join synthetic (a four-way
  chain join plus an arithmetic filter) whose cost is all in the join
  itself.  A differential check asserts both paths produce the same
  result base at every size.

* **Cluster sweep** (``--cluster``, ``BENCH_PR10.json``) — the sharded
  deployment: one enterprise base hash-partitioned across 1/2/4/8 served
  shards behind the ``cluster:`` router, the same targeted-raise churn
  loop with scatter reads at every count.  Headlines (both guarded in
  CI): aggregate read scaling at the largest count over one shard
  (locality — per-commit apply and memo recompute follow the written
  shard's size) and routed-over-standalone single-shard commit
  throughput (the router must cost < 10 %).  A differential replay
  against a ``memory:`` store checks the merged scatter answers at every
  shard count.

* **Observability sweep** (``--obs``, ``BENCH_PR9.json``) — the cost of
  the metrics registry itself: the P1[400] apply and a scaled served
  subscription run, each timed with the registry forced off and forced
  on.  The acceptance bound (enabled within 5 % of disabled on both) is
  guarded in CI by ``benchmarks/check_regression.py``.

Every sweep records its headline numbers as ``bench_*`` gauges through
the observability registry (``repro.obs``) and stamps that slice into
the written document as a ``metrics`` section, then ends by refreshing
``BENCH_TRAJECTORY.json`` — the unified, machine-readable
headline-metric trajectory across all committed ``BENCH_PR*.json``
documents (also: ``--trajectory`` rebuilds it alone).
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
import tracemalloc
from pathlib import Path

from repro.core.engine import UpdateEngine
from repro.workloads.enterprise import (
    enterprise_base,
    enterprise_update_program,
    paper_example_base,
    targeted_raise_program,
)

__all__ = [
    "run_p1_sweep",
    "run_store_sweep",
    "run_query_sweep",
    "run_serve_sweep",
    "run_soak_sweep",
    "run_joins_sweep",
    "run_replication_sweep",
    "run_obs_sweep",
    "run_cluster_sweep",
    "build_trajectory",
    "main",
]

DEFAULT_SIZES = (25, 100, 400)
DEFAULT_REPEATS = 5
DEFAULT_OUT = "BENCH_PR1.json"
DEFAULT_STORE_OUT = "BENCH_PR2.json"
DEFAULT_STORE_REVISIONS = 200
DEFAULT_QUERY_OUT = "BENCH_PR3.json"
DEFAULT_QUERY_UPDATES = 8
DEFAULT_READS_PER_UPDATE = 25
DEFAULT_SERVE_OUT = "BENCH_PR4.json"
DEFAULT_SERVE_CLIENTS = 8
DEFAULT_SERVE_UPDATES = 30
DEFAULT_SOAK_OUT = "BENCH_PR6.json"
DEFAULT_SOAK_SECONDS = 60.0
DEFAULT_SOAK_SUBSCRIBERS = 4
DEFAULT_JOINS_OUT = "BENCH_PR7.json"
DEFAULT_WIDE_NODES = 1500
DEFAULT_REPLICATION_OUT = "BENCH_PR8.json"
DEFAULT_REPLICATION_FOLLOWERS = 3
DEFAULT_REPLICATION_SECONDS = 10.0
DEFAULT_OBS_OUT = "BENCH_PR9.json"
DEFAULT_OBS_SERVE_UPDATES = 10
DEFAULT_OBS_SERVE_CLIENTS = 4
DEFAULT_CLUSTER_OUT = "BENCH_PR10.json"
DEFAULT_CLUSTER_SHARDS = (1, 2, 4, 8)
DEFAULT_CLUSTER_EMPLOYEES = 1500
DEFAULT_CLUSTER_UPDATES = 8
DEFAULT_CLUSTER_READS = 2
TRAJECTORY_OUT = "BENCH_TRAJECTORY.json"

#: The read-heavy query mix.  ``org_chart`` reads no ``sal`` fact, so the
#: targeted-raise deltas provably cannot change it and its memo is carried
#: across every revision; the others are invalidated by each raise.
READ_QUERIES: tuple[tuple[str, str], ...] = (
    ("salaries", "E.isa -> empl, E.sal -> S"),
    ("managers", "M.pos -> mgr, M.sal -> S"),
    ("overpaid", "E.isa -> empl, E.boss -> B, E.sal -> SE, B.sal -> SB, SE > SB"),
    ("mgr0_reports", "E.boss -> mgr0, E.sal -> S"),
    ("org_chart", "E.boss -> B"),
)


def _time_apply(engine: UpdateEngine, program, base, repeats: int) -> dict:
    engine.apply(program, base)  # warm caches (plans, parser, indexes)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = engine.apply(program, base)
        times.append(time.perf_counter() - start)
    return {
        "best_s": min(times),
        "mean_s": sum(times) / len(times),
        "repeats": repeats,
        "result_facts": len(result.result_base),
        "new_base_facts": len(result.new_base),
    }


def run_p1_sweep(
    sizes: tuple[int, ...] = DEFAULT_SIZES, repeats: int = DEFAULT_REPEATS
) -> dict:
    """Time ``UpdateEngine.apply`` for both evaluation paths per size.

    Returns a JSON-ready document with per-(size, mode) timings and the
    naive/semi-naive speedup per size; also asserts both paths produce the
    same result base (a cheap always-on differential check).
    """
    program = enterprise_update_program(hpe_threshold=4000)
    semi = UpdateEngine()
    naive = UpdateEngine(semi_naive=False)

    results = []
    speedups = {}
    for size in sizes:
        base = enterprise_base(n_employees=size, overpaid_ratio=0.1, seed=21)
        fast_outcome = semi.apply(program, base)
        naive_outcome = naive.apply(program, base)
        if fast_outcome.result_base != naive_outcome.result_base:
            raise AssertionError(
                f"semi-naive and naive results diverge at n={size}"
            )
        fast = _time_apply(semi, program, base, repeats)
        slow = _time_apply(naive, program, base, repeats)
        results.append({"n_employees": size, "mode": "semi_naive", **fast})
        results.append({"n_employees": size, "mode": "naive", **slow})
        speedups[str(size)] = slow["best_s"] / fast["best_s"]

    return {
        "benchmark": "p1_base_size_sweep",
        "program": "enterprise-update (rules 1-4, hpe threshold 4000)",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "sizes": list(sizes),
        "results": results,
        "speedup_naive_over_semi_naive": speedups,
    }


#: The wide-join synthetic: a four-way chain join (``a``/``b``/``c`` hops
#: into a ``v`` payload) closed by an arithmetic filter, so virtually all
#: evaluation time is spent in the join — the workload the codegen'd,
#: set-at-a-time executor is built for.
WIDE_JOIN_PROGRAM = """
wide: ins[X].hit -> V <=
    X.a -> Y, Y.b -> Z, Z.c -> W, W.v -> V, V > 50.
"""


def _wide_join_base(n_nodes: int):
    """A deterministic fan-in chain: ``n`` x-nodes funnel through ``n/3``
    y-nodes and ``n/9`` z-nodes into ``n/9`` w-payloads, so every join
    level has real multiplicity (no RNG — the same ``n`` is the same base).
    """
    from repro.core.facts import make_fact
    from repro.core.objectbase import ObjectBase
    from repro.core.terms import Oid

    n_y = max(1, n_nodes // 3)
    n_z = max(1, n_nodes // 9)
    base = ObjectBase()
    for i in range(n_nodes):
        base.add(make_fact(Oid(f"x{i}"), "a", (), Oid(f"y{i % n_y}")))
    for j in range(n_y):
        base.add(make_fact(Oid(f"y{j}"), "b", (), Oid(f"z{j % n_z}")))
    for k in range(n_z):
        base.add(make_fact(Oid(f"z{k}"), "c", (), Oid(f"w{k}")))
        base.add(make_fact(Oid(f"w{k}"), "v", (), Oid((k * 7) % 100)))
    base.ensure_exists()
    return base


def run_joins_sweep(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    repeats: int = DEFAULT_REPEATS,
    wide_nodes: int = DEFAULT_WIDE_NODES,
) -> dict:
    """Time compiled vs naive execution (see the module docstring).

    *Compiled* is the codegen'd, set-at-a-time path (the default); *naive*
    is the dynamic-ordering reference without plans or deltas.  Both
    engines replay identical workloads; a differential check asserts equal
    result bases before anything is timed.
    """
    from repro.core.rules import UpdateProgram
    from repro.lang.parser import parse_program

    engines = (
        ("compiled", UpdateEngine()),
        ("naive", UpdateEngine(semi_naive=False)),
    )

    def compare_and_time(program, base, label: str):
        compiled, naive = (engine.apply(program, base) for _, engine in engines)
        if compiled.result_base != naive.result_base:
            raise AssertionError(f"compiled and naive results diverge on {label}")
        return {
            mode: _time_apply(engine, program, base, repeats)
            for mode, engine in engines
        }

    program = enterprise_update_program(hpe_threshold=4000)
    p1_results = []
    p1_over_naive = {}
    for size in sizes:
        base = enterprise_base(n_employees=size, overpaid_ratio=0.1, seed=21)
        timed = compare_and_time(program, base, f"P1 n={size}")
        for mode, entry in timed.items():
            p1_results.append({"n_employees": size, "mode": mode, **entry})
        p1_over_naive[str(size)] = (
            timed["naive"]["best_s"] / timed["compiled"]["best_s"]
        )

    wide_program = UpdateProgram(
        parse_program(WIDE_JOIN_PROGRAM), "wide-join"
    )
    wide_base = _wide_join_base(wide_nodes)
    wide_timed = compare_and_time(
        wide_program, wide_base, f"wide join n={wide_nodes}"
    )

    return {
        "benchmark": "p7_joins_sweep",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "sizes": list(sizes),
        "p1": {
            "program": "enterprise-update (rules 1-4, hpe threshold 4000)",
            "results": p1_results,
            "speedup_compiled_over_naive": p1_over_naive,
        },
        "wide_join": {
            "program": WIDE_JOIN_PROGRAM.strip(),
            "n_nodes": wide_nodes,
            "base_facts": len(wide_base),
            "results": [
                {"mode": mode, **entry} for mode, entry in wide_timed.items()
            ],
            "speedup_compiled_over_naive": (
                wide_timed["naive"]["best_s"] / wide_timed["compiled"]["best_s"]
            ),
        },
    }


def _build_chain(base, program, revisions: int, *, delta_chain: bool):
    from repro.storage import StoreOptions, VersionedStore

    store = VersionedStore(
        base, options=StoreOptions(delta_chain=delta_chain, snapshot_interval=64)
    )
    for index in range(revisions):
        store.apply(program, tag=f"rev{index + 1}")
    return store


def _chain_memory(base, program, revisions: int, *, delta_chain: bool):
    """(bytes, stored_entries, store) for one revision chain, built under
    tracemalloc so only the chain's own allocations are counted."""
    gc.collect()
    tracemalloc.start()
    store = _build_chain(base, program, revisions, delta_chain=delta_chain)
    gc.collect()
    current, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return current, store.stored_entries(), store


def run_store_sweep(
    revisions: int = DEFAULT_STORE_REVISIONS,
    n_employees: int = 100,
    apply_repeats: int = 40,
) -> dict:
    """The PR 2 store benchmark; see the module docstring for the claims."""
    from repro.core.plans import rule_plan
    from repro.storage import StoreOptions, VersionedStore

    base = enterprise_base(n_employees=n_employees, overpaid_ratio=0.1, seed=21)
    program = targeted_raise_program("emp0", percent=1.0)

    # -- (a) revision-chain memory --------------------------------------
    delta_bytes, delta_entries, delta_store = _chain_memory(
        base, program, revisions, delta_chain=True
    )
    full_bytes, full_entries, full_store = _chain_memory(
        base, program, revisions, delta_chain=False
    )
    # always-on differential check: both representations expose the same
    # facts at every probed revision
    for index in (0, revisions // 2, revisions):
        if set(delta_store.base_at(index)) != set(full_store.base_at(index)):
            raise AssertionError(f"delta and full-copy chains diverge at {index}")

    # -- (b) repeated-apply throughput ----------------------------------
    enterprise_program = enterprise_update_program(hpe_threshold=4000)
    warm_store = VersionedStore(paper_example_base(), options=StoreOptions())
    warm_store.apply(enterprise_program)  # populate the compiled cache
    start = time.perf_counter()
    for _ in range(apply_repeats):
        warm_store.apply(enterprise_program)
    warm_s = (time.perf_counter() - start) / apply_repeats

    cold_engine = UpdateEngine(compile_cache_size=0)
    cold_store = VersionedStore(
        paper_example_base(), engine=cold_engine, options=StoreOptions()
    )
    cold_store.apply(enterprise_program)
    start = time.perf_counter()
    for _ in range(apply_repeats):
        rule_plan.cache_clear()  # a cold engine has no compiled join plans
        cold_store.apply(enterprise_program)
    cold_s = (time.perf_counter() - start) / apply_repeats

    return {
        "benchmark": "p2_store_sweep",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workload": {
            "base": f"enterprise(n_employees={n_employees})",
            "chain_program": "targeted-raise-emp0 (two-fact delta per revision)",
            "revisions": revisions,
            "snapshot_interval": 64,
        },
        "memory": {
            "delta_chain_bytes": delta_bytes,
            "full_copy_bytes": full_bytes,
            "delta_chain_entries": delta_entries,
            "full_copy_entries": full_entries,
        },
        "memory_ratio_full_over_delta": full_bytes / delta_bytes,
        "entry_ratio_full_over_delta": full_entries / delta_entries,
        "throughput": {
            "program": "enterprise-update (4 rules) on the paper base",
            "apply_repeats": apply_repeats,
            "cached_apply_mean_s": warm_s,
            "cold_apply_mean_s": cold_s,
        },
        "speedup_cached_over_cold": cold_s / warm_s,
    }


def run_query_sweep(
    n_employees: int = 400,
    updates: int = DEFAULT_QUERY_UPDATES,
    reads_per_update: int = DEFAULT_READS_PER_UPDATE,
) -> dict:
    """The PR 3 read-heavy serving benchmark (see the module docstring).

    Each mode replays the identical trace — ``updates`` small transactions,
    each followed by ``reads_per_update`` executions of every query in
    ``READ_QUERIES`` — against its own store; only the read phases are
    timed.  The differential check compares each path's answers with the
    dynamic reference matcher at every revision, untimed, after that
    revision's read burst.
    """
    from repro.core.query import PreparedQuery, query_literals
    from repro.lang.parser import parse_body
    from repro.storage import VersionedStore

    base = enterprise_base(n_employees=n_employees, overpaid_ratio=0.1, seed=21)
    program = targeted_raise_program("emp0", percent=1.0)
    bodies = [(name, parse_body(text)) for name, text in READ_QUERIES]
    prepared = [
        (name, PreparedQuery(body, name=name)) for name, body in bodies
    ]

    def replay(read_phase, answers_of):
        """Time ``read_phase`` per revision; after each timed burst run the
        (untimed) differential check: this path's answers at *this*
        revision must equal the dynamic reference matcher's."""
        store = VersionedStore(base)
        store.apply(program, tag="warm")  # warm compiled-program cache
        total = 0.0
        for update in range(updates):
            store.apply(program, tag=f"u{update}")
            start = time.perf_counter()
            read_phase(store)
            total += time.perf_counter() - start
            current = store.current
            for name, query in prepared:
                if answers_of(store, query) != query.run_unplanned(current):
                    raise AssertionError(
                        f"answers diverge for {name!r} at revision "
                        f"{len(store) - 1}"
                    )
        return total, store

    def per_call_reads(store):
        current = store.current
        for _ in range(reads_per_update):
            for _name, body in bodies:
                query_literals(current, body)

    def prepared_reads(store):
        current = store.current
        for _ in range(reads_per_update):
            for _name, query in prepared:
                query.run(current)

    def served_reads(store):
        for _ in range(reads_per_update):
            for _name, query in prepared:
                store.query(query)

    per_call_s, _ = replay(
        per_call_reads, lambda store, query: query_literals(store.current, query.body)
    )
    prepared_s, _ = replay(
        prepared_reads, lambda store, query: query.run(store.current)
    )
    served_s, served_store = replay(
        served_reads, lambda store, query: store.query(query)
    )
    head = served_store.current

    reads = updates * reads_per_update * len(READ_QUERIES)
    per_query = {}
    for name, query in prepared:
        best, result = _best_of(lambda q=query: q.run(head), 5)
        best_dynamic, _reference = _best_of(lambda q=query: q.run_unplanned(head), 5)
        per_query[name] = {
            "planned_indexed_best_s": best,
            "dynamic_reference_best_s": best_dynamic,
            "speedup_indexed_over_dynamic": best_dynamic / best,
            "answers": len(result),
        }

    return {
        "benchmark": "p3_query_sweep",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workload": {
            "base": f"enterprise(n_employees={n_employees})",
            "update_program": "targeted-raise-emp0 (two-fact delta per revision)",
            "updates": updates,
            "reads_per_update": reads_per_update,
            "queries": {name: text for name, text in READ_QUERIES},
            "total_reads": reads,
        },
        "read_seconds": {
            "per_call": per_call_s,
            "prepared": prepared_s,
            "served_memoized": served_s,
        },
        "reads_per_second_served": reads / served_s,
        "speedup_prepared_over_per_call": per_call_s / prepared_s,
        "speedup_served_over_per_call": per_call_s / served_s,
        "per_query_head": per_query,
        "prepared_stats": served_store.prepared_stats(),
    }


def run_serve_sweep(
    n_clients: int = DEFAULT_SERVE_CLIENTS,
    updates: int = DEFAULT_SERVE_UPDATES,
    n_employees: int = 200,
    wire_updates: int = 10,
    wire_roundtrips: int = 50,
) -> dict:
    """The PR 4 concurrent-serving benchmark (see the module docstring).

    In-process phase (the guarded headline): ``n_clients`` clients each
    hold live subscriptions to every query in ``READ_QUERIES`` while
    ``updates`` single-object update transactions commit.  *Served* keeps
    all clients current via the push subsystem; *naive* re-evaluates every
    query for every client after every commit (per-request
    ``query_literals``, the polling cost against the PR 2 store).  Both
    move every client through ``updates × len(READ_QUERIES)`` up-to-date
    answer states.

    Both paths pay the identical engine cost for the commits themselves,
    so an *apply-only* phase (same chain, no subscribers, no reads)
    measures that shared write cost once; the guarded throughput ratio
    compares the **serving work** — total minus write cost — which is
    exactly the component the subsystem replaces (a deployment's write
    side is fixed by the update stream either way).  Total-time ratios are
    reported alongside.

    A differential check folds one client's diff stream over its initial
    answers and asserts the result equals a fresh store query at the head.

    Wire phase (informational): the same subscription workload end-to-end
    through the asyncio JSON-lines server on a unix socket, plus request
    round-trip latency.
    """
    import asyncio
    import tempfile

    from repro.core.query import fold_answers, query_literals
    from repro.lang.parser import parse_body
    from repro.server import AsyncClient, ReproServer, StoreService, connect_local
    from repro.storage import VersionedStore

    base = enterprise_base(n_employees=n_employees, overpaid_ratio=0.1, seed=21)
    program = targeted_raise_program("emp0", percent=1.0)
    bodies = [(name, parse_body(text)) for name, text in READ_QUERIES]

    # -- served: push subscriptions over the service ---------------------
    service = StoreService(VersionedStore(base))
    service.apply(program, tag="warm")  # warm compiled program + plans
    clients = [connect_local(service) for _ in range(n_clients)]
    initial: dict[int, dict[str, list]] = {}
    for position, client in enumerate(clients):
        initial[position] = {
            name: client.subscribe(text, name=name)["answers"]
            for name, text in READ_QUERIES
        }
    start = time.perf_counter()
    for update in range(updates):
        service.apply(program, tag=f"u{update}")
    served_s = time.perf_counter() - start

    # Differential check: client 0's folded diff stream == fresh queries.
    folded = {name: list(answers) for name, answers in initial[0].items()}
    by_name = {}
    for push in clients[0].pushes():
        by_name.setdefault(push["query"], []).append(push)
    push_messages = 0
    for position, client in enumerate(clients):
        if position == 0:
            streams = by_name
        else:
            streams = {}
            for push in client.pushes():
                streams.setdefault(push["query"], []).append(push)
        push_messages += sum(len(pushes) for pushes in streams.values())
        if position == 0:
            for name, pushes in streams.items():
                for push in pushes:
                    folded[name] = fold_answers(
                        folded[name], push["added"], push["removed"]
                    )
    head = service.store.current
    for name, text in READ_QUERIES:
        fresh = service.store.query(text)
        if folded[name] != fresh:
            raise AssertionError(
                f"folded subscription stream diverges from the store for "
                f"{name!r} at the head"
            )
    subscription_stats = service.subscriptions.stats()
    skipped = sum(
        entry["skipped"] for entry in subscription_stats["by_id"].values()
    )
    for client in clients:
        client.close()

    # -- naive: per-request re-evaluation on every commit ----------------
    naive_store = VersionedStore(base)
    naive_store.apply(program, tag="warm")
    start = time.perf_counter()
    for update in range(updates):
        naive_store.apply(program, tag=f"u{update}")
        current = naive_store.current
        for _client in range(n_clients):
            for _name, body in bodies:
                query_literals(current, body)
    naive_s = time.perf_counter() - start

    # -- apply-only: the shared write cost of the commit chain -----------
    write_store = VersionedStore(base)
    write_store.apply(program, tag="warm")
    start = time.perf_counter()
    for update in range(updates):
        write_store.apply(program, tag=f"u{update}")
    write_s = time.perf_counter() - start

    states = n_clients * len(READ_QUERIES) * updates
    served_read_s = max(served_s - write_s, 1e-9)
    naive_read_s = max(naive_s - write_s, 1e-9)
    ratio = naive_read_s / served_read_s

    # -- wire: the asyncio transport end-to-end --------------------------
    async def wire_phase() -> dict:
        wire_service = StoreService(VersionedStore(base))
        wire_service.apply(program, tag="warm")
        with tempfile.TemporaryDirectory() as socket_dir:
            path = f"{socket_dir}/bench.sock"
            server = await ReproServer(wire_service, path=path).start()
            subscribers = [
                await AsyncClient.connect(path=path) for _ in range(n_clients)
            ]
            writer = await AsyncClient.connect(path=path)
            for subscriber in subscribers:
                await subscriber.call(
                    "subscribe", body=READ_QUERIES[0][1], name="salaries"
                )
            start = time.perf_counter()
            for update in range(wire_updates):
                await writer.call(
                    "apply", program=SERVE_WIRE_PROGRAM, tag=f"w{update}"
                )
                # Every commit changes emp0's salary: each subscriber gets
                # exactly one diff per commit.
                for subscriber in subscribers:
                    await subscriber.next_push(timeout=30.0)
            wall_s = time.perf_counter() - start

            latencies = []
            for _ in range(wire_roundtrips):
                probe = time.perf_counter()
                await writer.call("query", body=READ_QUERIES[0][1])
                latencies.append(time.perf_counter() - probe)
            for subscriber in subscribers:
                await subscriber.close()
            await writer.close()
            await server.close()
            return {
                "clients": n_clients,
                "commits": wire_updates,
                "wall_seconds": wall_s,
                "commits_per_second": wire_updates / wall_s,
                "pushes_delivered": wire_updates * n_clients,
                "pushes_per_second": wire_updates * n_clients / wall_s,
                "query_roundtrip_best_s": min(latencies),
                "query_roundtrip_mean_s": sum(latencies) / len(latencies),
            }

    wire = asyncio.run(wire_phase())

    return {
        "benchmark": "p4_serve_sweep",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workload": {
            "base": f"enterprise(n_employees={n_employees})",
            "update_program": "targeted-raise-emp0 (two-fact delta per commit)",
            "clients": n_clients,
            "updates": updates,
            "queries": {name: text for name, text in READ_QUERIES},
            "client_query_states": states,
        },
        "in_process": {
            "served_seconds": served_s,
            "naive_seconds": naive_s,
            "write_only_seconds": write_s,
            "served_serving_seconds": served_read_s,
            "naive_serving_seconds": naive_read_s,
            "served_states_per_second": states / served_read_s,
            "naive_states_per_second": states / naive_read_s,
            "total_ratio_served_over_naive": naive_s / served_s,
            "push_messages": push_messages,
            "skipped_evaluations": skipped,
            "head_facts": len(head),
        },
        "throughput_ratio_served_over_naive": ratio,
        "wire": wire,
    }


#: The wire phase commits through the protocol, so the program travels as
#: concrete syntax (the same two-fact delta as ``targeted_raise_program``).
SERVE_WIRE_PROGRAM = (
    "raise_emp0: mod[emp0].sal -> (S, S2) <= emp0.sal -> S, S2 = S * 1.01."
)


def run_soak_sweep(
    duration: float = DEFAULT_SOAK_SECONDS,
    n_subscribers: int = DEFAULT_SOAK_SUBSCRIBERS,
    n_employees: int = 100,
) -> dict:
    """The PR 6 fault-tolerance soak (see the module docstring).

    A journalled store is served over a unix socket while a writer commits
    mixed churn (targeted raises cycling over distinct employees, plus a
    hire/fire pair that adds and removes subscription rows) and
    ``n_subscribers`` reconnecting clients fold live answer diffs.  Halfway
    through, the server is killed abruptly, the journal is compacted and
    verified offline, and a fresh server comes up on the same socket —
    every connection carries a :class:`~repro.api.RetryPolicy` and must
    ride the restart.

    The soak fails (``"consistent": false`` / non-zero error counters) if
    any client sees a non-retryable error, or if any subscriber's folded
    answers diverge from a fresh head query once the dust settles.  A
    mutation that dies with the link is *not* replayed — it surfaces the
    retryable :class:`~repro.api.ConnectionClosed` and is counted, which
    is the documented contract.
    """
    import tempfile

    import repro
    from repro.api import BackgroundServer, ConnectionClosed, RetryPolicy
    from repro.server.errors import ServerBusyError
    from repro.storage import compact_journal, verify_journal

    base = enterprise_base(
        n_employees=n_employees, overpaid_ratio=0.1, seed=21
    )
    query = READ_QUERIES[0][1]  # salaries: one diff per raise
    policy = RetryPolicy(attempts=60, base_delay=0.05, max_delay=1.0)
    churn_ids = [f"emp{k}" for k in range(10)]

    counters = {
        "commits": 0,
        "reads": 0,
        "deltas_folded": 0,
        "lagged_resyncs": 0,
        "retryable_errors": 0,
        "non_retryable_errors": 0,
        "restarts": 0,
    }
    failures: list[str] = []

    def drain(streams) -> None:
        for stream in streams:
            while True:
                delta = stream.next(timeout=0.0)
                if delta is None:
                    break
                counters["deltas_folded"] += 1
                if delta.lagged:
                    counters["lagged_resyncs"] += 1

    with tempfile.TemporaryDirectory() as scratch:
        journal_dir = Path(scratch) / "journal"
        socket = str(Path(scratch) / "soak.sock")
        repro.connect(journal_dir, base=base, tag="soak-seed").close()

        server = BackgroundServer(journal_dir, path=socket)
        writer = repro.connect(server.target, retry=policy)
        subscribers = [
            repro.connect(server.target, retry=policy)
            for _ in range(n_subscribers)
        ]
        streams = [conn.subscribe(query) for conn in subscribers]

        start = time.perf_counter()
        deadline = start + duration
        kill_at = start + duration / 2
        killed = False
        tick = 0
        while time.perf_counter() < deadline:
            tick += 1
            if not killed and time.perf_counter() >= kill_at:
                # the chaos step: SIGKILL-equivalent, offline maintenance
                # (compaction + checksum audit), restart on the same path
                killed = True
                server.close()
                compact_journal(journal_dir, snapshot_interval=1000)
                audit = verify_journal(journal_dir)
                if not audit["ok"]:
                    failures.append(
                        f"journal damaged after kill: {audit['problems']}"
                    )
                server = BackgroundServer(journal_dir, path=socket)
                counters["restarts"] += 1
            if tick % 7 == 0:
                program = (
                    f"hire: ins[temp{tick}].isa -> empl <= "
                    f"emp0.isa -> empl.\n"
                    f"pay: ins[temp{tick}].sal -> {1000 + tick} <= "
                    f"emp0.isa -> empl."
                )
            elif tick % 7 == 1 and tick > 7:
                fired = tick - 1  # the object hired on the previous tick
                program = (
                    f"fire: del[temp{fired}].* <= temp{fired}.isa -> empl."
                )
            else:
                program = targeted_raise_program(
                    churn_ids[tick % len(churn_ids)], percent=1.0
                )
            try:
                writer.apply(program, tag=f"soak-{tick}")
                counters["commits"] += 1
                if tick % 25 == 0:
                    writer.query(query)
                    counters["reads"] += 1
            except (ConnectionClosed, ServerBusyError):
                counters["retryable_errors"] += 1
            except Exception as error:  # any other failure sinks the soak
                counters["non_retryable_errors"] += 1
                failures.append(f"{type(error).__name__}: {error}")
            drain(streams)
        wall_s = time.perf_counter() - start

        # settle: one marker commit, then every stream must fold to the head
        head = writer.apply(
            targeted_raise_program("emp0", percent=1.0), tag="soak-final"
        ).index
        expected = writer.query(query)
        consistent = True
        for position, stream in enumerate(streams):
            settle_deadline = time.monotonic() + 30.0
            while (
                stream.revision < head
                and time.monotonic() < settle_deadline
            ):
                delta = stream.next(timeout=1.0)
                if delta is not None:
                    counters["deltas_folded"] += 1
                    if delta.lagged:
                        counters["lagged_resyncs"] += 1
            if stream.answers != expected:
                consistent = False
                failures.append(
                    f"subscriber {position} diverged: folded "
                    f"{len(stream.answers)} rows at revision "
                    f"{stream.revision}, head {head} has {len(expected)}"
                )
        reconnects = writer.reconnects + sum(
            conn.reconnects for conn in subscribers
        )
        final_audit = verify_journal(journal_dir)
        for conn in (writer, *subscribers):
            conn.close()
        server.close()

    return {
        "benchmark": "p6_soak",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workload": {
            "base": f"enterprise(n_employees={n_employees})",
            "churn": "targeted raises over 10 objects + hire/fire pair",
            "query": query,
            "subscribers": n_subscribers,
            "requested_seconds": duration,
        },
        "wall_seconds": wall_s,
        "commits_per_second": counters["commits"] / wall_s,
        "consistent": consistent,
        "journal_ok": final_audit["ok"],
        "reconnects": reconnects,
        "failures": failures,
        **counters,
    }


def run_replication_sweep(
    n_followers: int = DEFAULT_REPLICATION_FOLLOWERS,
    duration: float = DEFAULT_REPLICATION_SECONDS,
    n_employees: int = 60,
) -> dict:
    """The PR 8 replicated-serving sweep (see the module docstring).

    An fsync-durable primary serves a journalled enterprise base over a
    unix socket with ``n_followers`` journal-streaming followers attached.
    Four things are measured, three of which double as invariants the CI
    guard enforces:

    * **catch-up** — a burst of commits lands on the primary; the wall
      time until every follower's store reaches the primary's head is the
      replication lag under load (guarded: stays under a ceiling);
    * **read fanout** — one reader thread per follower hammers the
      salaries query against its replica for ``duration`` seconds while a
      background writer keeps commits (and therefore replicated deltas)
      flowing; aggregate replica reads/s is the fanout headline
      (guarded: stays above a floor);
    * **failover** — the primary dies abruptly (server cut, no shutdown);
      the freshest follower is promoted with a fencing epoch and the
      clock stops at the first successful write on the new primary;
    * **durability across failover** — every commit the dead primary
      acknowledged must be a byte-identical prefix of the promoted
      follower's journal (guarded: ``lost_acknowledged_commits == 0``),
      a follower subscription's folded answers must equal a fresh query
      after the failover write, and the promoted journal must pass the
      offline epoch/CRC audit.
    """
    import tempfile
    import threading

    import repro
    from repro.api import BackgroundServer
    from repro.core.query import fold_answers
    from repro.replication import Follower
    from repro.server.service import StoreService
    from repro.storage import verify_journal
    from repro.storage.serialize import JOURNAL_FILE, DurabilityOptions

    base = enterprise_base(n_employees=n_employees, overpaid_ratio=0.1, seed=21)
    query = READ_QUERIES[0][1]  # salaries: one diff per raise
    fsync = DurabilityOptions(mode="fsync")
    churn_ids = [f"emp{k}" for k in range(10)]
    catchup_commits = 40
    failures: list[str] = []

    def all_caught_up(service, followers, *, timeout=60.0) -> bool:
        deadline = time.monotonic() + timeout
        head = len(service.store)
        while any(len(f.service.store) < head for f in followers):
            if time.monotonic() > deadline:
                return False
            time.sleep(0.005)
        return True

    with tempfile.TemporaryDirectory() as scratch:
        primary_dir = Path(scratch) / "primary"
        service = StoreService.create(
            base, primary_dir, tag="repl-seed", durability=fsync
        )
        socket = str(Path(scratch) / "repl.sock")
        server = BackgroundServer(service, path=socket)
        followers = [
            Follower(
                Path(scratch) / f"f{i}", server.address,
                durability=fsync, heartbeat_interval=0.1,
            ).start()
            for i in range(n_followers)
        ]
        writer = repro.connect(server.target)
        acked = 0

        # -- catch-up under a burst of writes --------------------------
        catchup_start = time.perf_counter()
        for tick in range(catchup_commits):
            writer.apply(
                targeted_raise_program(
                    churn_ids[tick % len(churn_ids)], percent=1.0
                ),
                tag=f"burst-{tick}",
            )
            acked += 1
        if not all_caught_up(service, followers):
            failures.append("followers never caught up after the burst")
        catchup_s = time.perf_counter() - catchup_start

        # -- read fanout across the replicas ---------------------------
        replica_conns = [repro.connect(f.service) for f in followers]
        reads = [0] * n_followers
        stop = threading.Event()

        def reader(position: int) -> None:
            conn = replica_conns[position]
            while not stop.is_set():
                conn.query(query)
                reads[position] += 1

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(n_followers)
        ]
        fanout_start = time.perf_counter()
        for thread in threads:
            thread.start()
        next_commit = fanout_start
        while time.perf_counter() - fanout_start < duration:
            if time.perf_counter() >= next_commit:
                writer.apply(
                    targeted_raise_program(
                        churn_ids[acked % len(churn_ids)], percent=1.0
                    ),
                    tag=f"churn-{acked}",
                )
                acked += 1
                next_commit += 0.25
            time.sleep(0.01)
        stop.set()
        for thread in threads:
            thread.join(timeout=5)
        fanout_s = time.perf_counter() - fanout_start

        # -- failover: abrupt primary death, promote the freshest ------
        if not all_caught_up(service, followers):
            failures.append("followers never caught up before the kill")
        acked_text = (primary_dir / JOURNAL_FILE).read_text()
        survivor = max(followers, key=lambda f: len(f.service.store))
        stream = repro.connect(survivor.service).subscribe(query)
        folded = list(stream.answers)

        failover_start = time.perf_counter()
        server.close()  # dies with every ack fsync-durable and replicated
        writer.close()
        epoch = survivor.promote()
        promoted = repro.connect(survivor.service)
        promoted.apply(
            targeted_raise_program("emp0", percent=1.0), tag="after-failover"
        )
        failover_s = time.perf_counter() - failover_start

        # -- invariants -------------------------------------------------
        promoted_text = (survivor.directory / JOURNAL_FILE).read_text()
        if promoted_text.startswith(acked_text):
            lost = 0
        else:
            acked_lines = acked_text.splitlines()
            promoted_lines = promoted_text.splitlines()
            matched = 0
            for mine, theirs in zip(acked_lines, promoted_lines):
                if mine != theirs:
                    break
                matched += 1
            lost = len(acked_lines) - matched
            failures.append(
                f"promoted journal lost {lost} acked line(s)"
            )

        settle = time.monotonic() + 10.0
        expected = promoted.query(query)
        while time.monotonic() < settle:
            delta = stream.next(timeout=0.2)
            if delta is None:
                if folded == promoted.query(query):
                    break
                continue
            if delta.lagged:
                folded = list(delta.answers)
            else:
                folded = fold_answers(
                    folded,
                    [dict(row) for row in delta.added],
                    [dict(row) for row in delta.removed],
                )
        expected = promoted.query(query)
        consistent = sorted(folded, key=str) == sorted(expected, key=str)
        if not consistent:
            failures.append(
                f"subscription diverged after failover: folded "
                f"{len(folded)} rows, fresh query has {len(expected)}"
            )

        audit = verify_journal(survivor.directory)
        if not audit["ok"]:
            failures.append(
                f"promoted journal failed the audit: {audit['problems']}"
            )

        stream.close()
        promoted.close()
        for conn in replica_conns:
            conn.close()
        for follower in followers:
            follower.close()
        server.close()

    total_reads = sum(reads)
    return {
        "benchmark": "p8_replication",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workload": {
            "base": f"enterprise(n_employees={n_employees})",
            "followers": n_followers,
            "query": query,
            "catchup_commits": catchup_commits,
            "requested_seconds": duration,
            "durability": "fsync",
        },
        "replication_catchup_seconds": catchup_s,
        "read_fanout": {
            "followers": n_followers,
            "reads_total": total_reads,
            "reads_per_follower": reads,
            "wall_seconds": fanout_s,
        },
        "replica_reads_per_second": total_reads / fanout_s,
        "failover_seconds": failover_s,
        "promoted_epoch": epoch,
        "acked_commits": acked,
        "lost_acknowledged_commits": lost,
        "consistent": consistent,
        "journal_ok": audit["ok"],
        "journal_max_epoch": audit.get("max_epoch", 0),
        "failures": failures,
    }


def run_cluster_sweep(
    shard_counts: tuple[int, ...] = DEFAULT_CLUSTER_SHARDS,
    n_employees: int = DEFAULT_CLUSTER_EMPLOYEES,
    updates: int = DEFAULT_CLUSTER_UPDATES,
    reads_per_update: int = DEFAULT_CLUSTER_READS,
    commit_probes: int = 12,
    repeats: int = 2,
) -> dict:
    """The PR 10 sharded-cluster sweep (``--cluster``, ``BENCH_PR10.json``).

    One enterprise base is hash-partitioned across 1, 2, 4 and 8 shards
    (each shard a served store behind the ``cluster:`` router) and the same
    read-your-writes churn loop runs at every shard count: a targeted
    single-host raise commits, then scatter reads of a selective salary
    filter follow.  Two headline numbers, both guarded in CI:

    * **aggregate read scaling** — reads/s at the largest shard count over
      reads/s at one shard.  This harness is single-core, so the scaling
      measured here is *locality*, not parallelism: both the per-commit
      update evaluation and the post-invalidation prepared-query recompute
      cost are proportional to the written shard's size, so at 8 shards
      ~7/8 of that work disappears from the loop (the unwritten shards
      answer from their carried memos).  On real hardware the per-shard
      processes add parallel speedup on top.
    * **single-shard commit overhead** — routed commits/s through a
      1-shard cluster over commits/s against the same store served
      standalone; the router's classification layer must stay within 10 %
      (floor 0.9).

    A differential check replays every commit sequence against an
    in-process ``memory:`` store and compares the full scatter read at
    each shard count — answers must be identical, or the run fails.
    """
    import tempfile

    import repro
    from repro.api import BackgroundServer
    from repro.cluster import LocalCluster
    from repro.lang.pretty import format_object_base
    from repro.server.service import StoreService
    from repro.storage import VersionedStore

    base_text = format_object_base(
        enterprise_base(n_employees=n_employees, overpaid_ratio=0.1, seed=21)
    )
    filter_query = "E.isa -> empl, E.sal -> S, S > 970000"
    salaries_query = READ_QUERIES[0][1]
    churn_ids = [f"emp{k}" for k in range(20)]
    failures: list[str] = []

    def churn_loop(conn) -> float:
        start = time.perf_counter()
        for tick in range(updates):
            conn.apply(
                targeted_raise_program(
                    churn_ids[tick % len(churn_ids)], percent=1.0
                ),
                tag=f"churn-{tick}",
            )
            for _ in range(reads_per_update):
                conn.query(filter_query)
        return time.perf_counter() - start

    scaling: list[dict] = []
    for count in shard_counts:
        with LocalCluster(base_text, shards=count) as deployment:
            with repro.connect(deployment.target) as conn:
                conn.apply(
                    targeted_raise_program("emp21", percent=1.0), tag="warm"
                )
                conn.query(filter_query)
                best_wall = min(churn_loop(conn) for _ in range(repeats))

                # differential: replay the same commits on one memory
                # store; the scatter read must merge to identical answers
                with repro.connect("memory:", base=base_text) as reference:
                    reference.apply(
                        targeted_raise_program("emp21", percent=1.0),
                        tag="warm",
                    )
                    for round_number in range(repeats):
                        for tick in range(updates):
                            reference.apply(
                                targeted_raise_program(
                                    churn_ids[tick % len(churn_ids)],
                                    percent=1.0,
                                ),
                                tag=f"churn-{tick}",
                            )
                    consistent = conn.query(salaries_query) == (
                        reference.query(salaries_query)
                    )
                if not consistent:
                    failures.append(
                        f"scatter answers diverged from the memory replay "
                        f"at {count} shard(s)"
                    )
                router = conn.stats()["cluster"]["router"]
                scaling.append(
                    {
                        "shards": count,
                        "wall_seconds": best_wall,
                        "reads_per_second": (
                            updates * reads_per_update / best_wall
                        ),
                        "commits_per_second": updates / best_wall,
                        "consistent": consistent,
                        "router_reads": {
                            "single": router["single_reads"],
                            "scatter": router["scatter_reads"],
                            "gather": router["gather_reads"],
                        },
                    }
                )

    def commit_probe(conn) -> float:
        conn.apply(targeted_raise_program("emp21", percent=1.0), tag="warm")
        start = time.perf_counter()
        for tick in range(commit_probes):
            conn.apply(
                targeted_raise_program(
                    churn_ids[tick % len(churn_ids)], percent=1.0
                ),
                tag=f"probe-{tick}",
            )
        return commit_probes / (time.perf_counter() - start)

    with tempfile.TemporaryDirectory() as scratch:
        service = StoreService(
            VersionedStore(repro.parse_object_base(base_text).copy())
        )
        server = BackgroundServer(
            service, path=str(Path(scratch) / "solo.sock")
        )
        try:
            with repro.connect(server.target) as conn:
                standalone_commits = max(
                    commit_probe(conn) for _ in range(repeats)
                )
        finally:
            server.close()
    with LocalCluster(base_text, shards=1) as deployment:
        with repro.connect(deployment.target) as conn:
            routed_commits = max(commit_probe(conn) for _ in range(repeats))

    first = scaling[0]
    largest = scaling[-1]
    read_scaling = (
        largest["reads_per_second"] / first["reads_per_second"]
        if first["reads_per_second"]
        else 0.0
    )
    commit_ratio = (
        routed_commits / standalone_commits if standalone_commits else 0.0
    )
    return {
        "benchmark": "p10_cluster",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workload": {
            "base": f"enterprise(n_employees={n_employees})",
            "shard_counts": list(shard_counts),
            "updates": updates,
            "reads_per_update": reads_per_update,
            "read_query": filter_query,
            "consistency_query": salaries_query,
            "commit_probes": commit_probes,
            "repeats": repeats,
            "note": (
                "single-core harness: the read scaling measured here is "
                "partition locality (per-commit apply and memo-recompute "
                "cost follow the written shard's size), not parallelism"
            ),
        },
        "scaling": scaling,
        "read_scaling_largest_over_one": read_scaling,
        "read_scaling_shards": largest["shards"],
        "standalone_commits_per_second": standalone_commits,
        "routed_commits_per_second": routed_commits,
        "commit_throughput_ratio_routed_over_standalone": commit_ratio,
        "consistent": all(entry["consistent"] for entry in scaling),
        "failures": failures,
    }


def run_obs_sweep(
    n_employees: int = 400,
    repeats: int = DEFAULT_REPEATS,
    serve_updates: int = DEFAULT_OBS_SERVE_UPDATES,
    n_clients: int = DEFAULT_OBS_SERVE_CLIENTS,
) -> dict:
    """The PR 9 observability-overhead sweep (see the module docstring).

    Two hot paths are timed twice each — metrics registry forced off,
    then forced on — and the on/off ratios are the guarded numbers:

    * the P1[``n_employees``] enterprise apply (per-rule profiling is the
      densest instrumentation in the engine's inner loop);
    * a scaled in-process serve run: ``n_clients`` clients subscribed to
      every read query while ``serve_updates`` commits land (commit-phase
      timing + slowlog checks on the commit path).

    The enabled runs leave real data behind; a filtered registry sample
    (per-rule fired counters, commit-phase histograms) is embedded so the
    document doubles as a fixture of what operators see.
    """
    from repro.obs import metrics as obs
    from repro.server import StoreService, connect_local
    from repro.storage import VersionedStore

    program = enterprise_update_program(hpe_threshold=4000)
    base = enterprise_base(
        n_employees=n_employees, overpaid_ratio=0.1, seed=21
    )
    engine = UpdateEngine()

    def served_seconds() -> float:
        service = StoreService(VersionedStore(base))
        service.apply(program, tag="warm")
        clients = [connect_local(service) for _ in range(n_clients)]
        for client in clients:
            for name, text in READ_QUERIES:
                client.subscribe(text, name=name)
        start = time.perf_counter()
        for update in range(serve_updates):
            service.apply(program, tag=f"u{update}")
        elapsed = time.perf_counter() - start
        for client in clients:
            client.close()
        return elapsed

    def timed_apply() -> float:
        start = time.perf_counter()
        engine.apply(program, base)
        return time.perf_counter() - start

    # Interleave the off/on measurements round by round: the guarded
    # ratios compare best-of times, and sequential blocks would fold
    # machine drift between the blocks into the ratio.  Alternating
    # within one loop makes both sides see the same drift.
    rounds = max(repeats, 5)
    p1_off_times: list[float] = []
    p1_on_times: list[float] = []
    serve_off_times: list[float] = []
    serve_on_times: list[float] = []
    try:
        obs.registry().reset()  # the sample below is this run's data only
        engine.apply(program, base)  # warm caches (plans, parser, indexes)
        for _ in range(rounds):
            obs.enable_metrics(False)
            p1_off_times.append(timed_apply())
            obs.enable_metrics(True)
            p1_on_times.append(timed_apply())
        for _ in range(3):
            obs.enable_metrics(False)
            serve_off_times.append(served_seconds())
            obs.enable_metrics(True)
            serve_on_times.append(served_seconds())
        snapshot = obs.registry().snapshot()
    finally:
        obs.enable_metrics(None)

    def summary(times: list[float]) -> dict:
        return {
            "best_s": min(times),
            "mean_s": sum(times) / len(times),
            "repeats": len(times),
        }

    p1_off, p1_on = summary(p1_off_times), summary(p1_on_times)
    serve_off = min(serve_off_times)
    serve_on = min(serve_on_times)

    sample = {
        name: entry
        for name, entry in snapshot.items()
        if name in (
            "engine_rule_fired", "engine_tp_rounds", "commit_phase_seconds"
        )
    }
    return {
        "benchmark": "p9_observability",
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workload": {
            "base": f"enterprise(n_employees={n_employees})",
            "program": "enterprise-update (rules 1-4, hpe threshold 4000)",
            "repeats": repeats,
            "serve_updates": serve_updates,
            "serve_clients": n_clients,
        },
        "p1": {
            "n_employees": n_employees,
            "metrics_off": p1_off,
            "metrics_on": p1_on,
        },
        "p1_overhead_ratio_on_over_off": p1_on["best_s"] / p1_off["best_s"],
        "serve": {
            "clients": n_clients,
            "updates": serve_updates,
            "metrics_off_seconds": serve_off,
            "metrics_on_seconds": serve_on,
        },
        "serve_throughput_ratio_on_over_off": serve_off / serve_on,
        "registry_sample": sample,
    }


# ----------------------------------------------------------------------
# the unified trajectory document
# ----------------------------------------------------------------------

#: Headline-metric extractors per benchmark document kind.
def _p1_headline(document: dict) -> dict:
    speedups = document["speedup_naive_over_semi_naive"]
    return {
        "speedup_naive_over_semi_naive": speedups,
        "headline": f"semi-naive {max(speedups.values()):.2f}x over naive "
        f"(largest base)",
    }


def _p2_headline(document: dict) -> dict:
    return {
        "memory_ratio_full_over_delta": document["memory_ratio_full_over_delta"],
        "speedup_cached_over_cold": document["speedup_cached_over_cold"],
        "headline": f"delta chain {document['memory_ratio_full_over_delta']:.1f}x "
        f"smaller, cached apply "
        f"{document['speedup_cached_over_cold']:.2f}x faster",
    }


def _p3_headline(document: dict) -> dict:
    return {
        "speedup_served_over_per_call": document["speedup_served_over_per_call"],
        "speedup_prepared_over_per_call": document[
            "speedup_prepared_over_per_call"
        ],
        "reads_per_second_served": document["reads_per_second_served"],
        "headline": f"memoized serving "
        f"{document['speedup_served_over_per_call']:.1f}x over per-call reads",
    }


def _p4_headline(document: dict) -> dict:
    in_process = document["in_process"]
    return {
        "throughput_ratio_served_over_naive": document[
            "throughput_ratio_served_over_naive"
        ],
        "served_states_per_second": in_process["served_states_per_second"],
        "wire_pushes_per_second": document["wire"]["pushes_per_second"],
        "headline": f"push serving "
        f"{document['throughput_ratio_served_over_naive']:.1f}x over naive "
        f"per-request re-evaluation "
        f"({document['workload']['clients']} clients)",
    }


def _p6_headline(document: dict) -> dict:
    return {
        "commits_per_second": document["commits_per_second"],
        "non_retryable_errors": document["non_retryable_errors"],
        "reconnects": document["reconnects"],
        "consistent": document["consistent"],
        "headline": f"soak {document['wall_seconds']:.0f}s: "
        f"{document['commits_per_second']:.0f} commits/s through "
        f"kill+compact+restart, {document['reconnects']} reconnects, "
        f"{document['non_retryable_errors']} non-retryable errors",
    }


def _p7_headline(document: dict) -> dict:
    speedups = document["p1"]["speedup_compiled_over_naive"]
    largest = str(max(int(size) for size in speedups))
    wide = document["wide_join"]["speedup_compiled_over_naive"]
    return {
        "speedup_compiled_over_naive": speedups,
        "wide_join_speedup_compiled_over_naive": wide,
        "headline": f"codegen {speedups[largest]:.2f}x over naive "
        f"(P1 n={largest}), {wide:.2f}x on the wide join",
    }


def _p8_headline(document: dict) -> dict:
    return {
        "replica_reads_per_second": document["replica_reads_per_second"],
        "replication_catchup_seconds": document[
            "replication_catchup_seconds"
        ],
        "failover_seconds": document["failover_seconds"],
        "lost_acknowledged_commits": document["lost_acknowledged_commits"],
        "consistent": document["consistent"],
        "headline": f"{document['workload']['followers']} replicas: "
        f"{document['replica_reads_per_second']:.0f} replica reads/s, "
        f"catch-up {document['replication_catchup_seconds']:.2f}s, "
        f"failover {document['failover_seconds'] * 1e3:.0f} ms, "
        f"{document['lost_acknowledged_commits']} acked commits lost",
    }


def _p9_headline(document: dict) -> dict:
    p1_ratio = document["p1_overhead_ratio_on_over_off"]
    serve_ratio = document["serve_throughput_ratio_on_over_off"]
    return {
        "p1_overhead_ratio_on_over_off": p1_ratio,
        "serve_throughput_ratio_on_over_off": serve_ratio,
        "headline": f"metrics on: P1[{document['p1']['n_employees']}] "
        f"apply {(p1_ratio - 1) * 100:+.1f}% time, serve throughput "
        f"{serve_ratio:.2f}x of disabled",
    }


def _p10_headline(document: dict) -> dict:
    return {
        "read_scaling_largest_over_one": document[
            "read_scaling_largest_over_one"
        ],
        "commit_throughput_ratio_routed_over_standalone": document[
            "commit_throughput_ratio_routed_over_standalone"
        ],
        "consistent": document["consistent"],
        "headline": f"{document['read_scaling_shards']} shards: "
        f"{document['read_scaling_largest_over_one']:.1f}x aggregate read "
        f"throughput over 1 shard, single-shard commits "
        f"{document['commit_throughput_ratio_routed_over_standalone']:.2f}x "
        f"of standalone",
    }


_HEADLINES = {
    "p1_base_size_sweep": _p1_headline,
    "p2_store_sweep": _p2_headline,
    "p3_query_sweep": _p3_headline,
    "p4_serve_sweep": _p4_headline,
    "p6_soak": _p6_headline,
    "p7_joins_sweep": _p7_headline,
    "p8_replication": _p8_headline,
    "p9_observability": _p9_headline,
    "p10_cluster": _p10_headline,
}


def _stamp_metrics(document: dict) -> dict:
    """Record the document's numeric headline fields as ``bench_*``
    gauges through the observability registry (the bench harness reports
    through the same surface operators read), then embed that slice into
    the document as its ``metrics`` section."""
    from repro.obs import metrics as obs

    registry = obs.registry()
    benchmark = document.get("benchmark", "unknown")
    extractor = _HEADLINES.get(benchmark)
    headline = extractor(document) if extractor else {}
    for field, value in headline.items():
        if isinstance(value, bool):
            value = 1.0 if value else 0.0
        if isinstance(value, (int, float)):
            registry.set_gauge(
                f"bench_{field}", float(value), benchmark=benchmark
            )
        elif isinstance(value, dict):
            for size, inner in value.items():
                if isinstance(inner, bool) or not isinstance(
                    inner, (int, float)
                ):
                    continue
                registry.set_gauge(
                    f"bench_{field}", float(inner),
                    benchmark=benchmark, size=str(size),
                )
    document["metrics"] = registry.snapshot(prefix="bench_")
    return document


def _write_document(out: Path, document: dict) -> None:
    _stamp_metrics(document)
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def build_trajectory(root: Path | str = ".") -> dict:
    """Merge the headline metrics of every ``BENCH_PR*.json`` under
    ``root`` into one machine-readable document, keyed ``"PR<n>"`` in PR
    order — the one place to read the performance trajectory."""
    root = Path(root)
    prs: dict[str, dict] = {}
    for path in sorted(
        root.glob("BENCH_PR*.json"),
        key=lambda p: int("".join(c for c in p.stem if c.isdigit()) or 0),
    ):
        digits = "".join(c for c in path.stem if c.isdigit())
        if not digits:
            continue
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        extractor = _HEADLINES.get(document.get("benchmark"))
        entry = {
            "source": path.name,
            "benchmark": document.get("benchmark", "unknown"),
        }
        if extractor is not None:
            entry.update(extractor(document))
        if "metrics" in document:
            entry["metrics"] = document["metrics"]
        prs[f"PR{int(digits)}"] = entry
    return {
        "format": "repro-bench-trajectory",
        "version": 1,
        "prs": prs,
    }


def write_trajectory(root: Path | str = ".") -> Path:
    """Rebuild ``BENCH_TRAJECTORY.json`` next to the scanned documents."""
    root = Path(root)
    document = build_trajectory(root)
    out = root / TRAJECTORY_OUT
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return out


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench", description="run the P1 scaling or P2 store sweep"
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"output JSON path (default: {DEFAULT_OUT}, "
        f"{DEFAULT_STORE_OUT} with --store)",
    )
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES)
    )
    parser.add_argument(
        "--store", action="store_true",
        help="run the versioned-store sweep (memory + repeated apply) "
        "instead of the P1 scaling sweep",
    )
    parser.add_argument(
        "--revisions", type=int, default=DEFAULT_STORE_REVISIONS,
        help="store sweep: chain length (default: %(default)s)",
    )
    parser.add_argument(
        "--queries", action="store_true",
        help="run the read-heavy prepared-query sweep instead of the P1 "
        "scaling sweep",
    )
    parser.add_argument(
        "--updates", type=int, default=None,
        help="update transactions per sweep (defaults: "
        f"{DEFAULT_QUERY_UPDATES} for --queries, "
        f"{DEFAULT_SERVE_UPDATES} for --serve)",
    )
    parser.add_argument(
        "--reads", type=int, default=DEFAULT_READS_PER_UPDATE,
        help="query sweep: reads per query per update (default: %(default)s)",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="run the concurrent served-subscription sweep instead of the "
        "P1 scaling sweep",
    )
    parser.add_argument(
        "--clients", type=int, default=DEFAULT_SERVE_CLIENTS,
        help="serve sweep: concurrent subscribed clients (default: %(default)s)",
    )
    parser.add_argument(
        "--soak", action="store_true",
        help="run the fault-tolerance soak (mixed churn through a server "
        "kill, offline compaction and restart) instead of the P1 sweep",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="soak / replication: run for this many seconds (defaults: "
        f"{DEFAULT_SOAK_SECONDS} for --soak, "
        f"{DEFAULT_REPLICATION_SECONDS} for --replication)",
    )
    parser.add_argument(
        "--subscribers", type=int, default=DEFAULT_SOAK_SUBSCRIBERS,
        help="soak: reconnecting subscriber connections (default: %(default)s)",
    )
    parser.add_argument(
        "--joins", action="store_true",
        help="run the compiled-vs-naive join-execution "
        "sweep (P1 sizes plus a wide-join synthetic) instead of the "
        "P1 sweep",
    )
    parser.add_argument(
        "--wide-nodes", type=int, default=DEFAULT_WIDE_NODES,
        help="joins sweep: x-nodes in the wide-join synthetic base "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--replication", action="store_true",
        help="run the replicated-serving sweep (follower catch-up, replica "
        "read fanout, failover with epoch fencing) instead of the P1 sweep",
    )
    parser.add_argument(
        "--followers", type=int, default=DEFAULT_REPLICATION_FOLLOWERS,
        help="replication sweep: read replicas to attach (default: %(default)s)",
    )
    parser.add_argument(
        "--cluster", action="store_true",
        help="run the sharded-cluster sweep (read scaling across shard "
        "counts, single-shard commit overhead) instead of the P1 sweep",
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=None,
        help="cluster sweep: shard counts to sweep "
        f"(default: {' '.join(str(c) for c in DEFAULT_CLUSTER_SHARDS)})",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="run the observability-overhead sweep (P1[400] apply and a "
        "scaled serve run, metrics registry on vs off) instead of the "
        "P1 sweep",
    )
    parser.add_argument(
        "--trajectory", action="store_true",
        help="only rebuild BENCH_TRAJECTORY.json from the BENCH_PR*.json "
        "documents in the current directory",
    )
    arguments = parser.parse_args(argv)

    if arguments.trajectory:
        out = write_trajectory(".")
        document = json.loads(out.read_text(encoding="utf-8"))
        for pr, entry in document["prs"].items():
            print(f"{pr}: {entry.get('headline', entry['benchmark'])}")
        print(f"wrote {out}")
        return 0

    if arguments.obs:
        out = arguments.out or Path(DEFAULT_OBS_OUT)
        document = run_obs_sweep(repeats=arguments.repeats)
        _write_document(out, document)
        p1 = document["p1"]
        print(
            f"P1 n={p1['n_employees']}: metrics off "
            f"{p1['metrics_off']['best_s'] * 1e3:.2f} ms, on "
            f"{p1['metrics_on']['best_s'] * 1e3:.2f} ms "
            f"(ratio {document['p1_overhead_ratio_on_over_off']:.3f})"
        )
        serve = document["serve"]
        print(
            f"serve ({serve['clients']} clients, {serve['updates']} "
            f"commits): off {serve['metrics_off_seconds']:.3f} s, on "
            f"{serve['metrics_on_seconds']:.3f} s (throughput ratio "
            f"{document['serve_throughput_ratio_on_over_off']:.3f})"
        )
        print(f"wrote {out}")
        write_trajectory(".")
        return 0

    if arguments.joins:
        out = arguments.out or Path(DEFAULT_JOINS_OUT)
        document = run_joins_sweep(
            tuple(arguments.sizes), arguments.repeats,
            wide_nodes=arguments.wide_nodes,
        )
        _write_document(out, document)
        for entry in document["p1"]["results"]:
            print(
                f"P1 n={entry['n_employees']:>5}  {entry['mode']:>12}  "
                f"best {entry['best_s'] * 1000:8.2f} ms   "
                f"mean {entry['mean_s'] * 1000:8.2f} ms"
            )
        for size in document["sizes"]:
            naive = document["p1"]["speedup_compiled_over_naive"][str(size)]
            print(f"P1 n={size}: compiled {naive:.2f}x over naive")
        wide = document["wide_join"]
        for entry in wide["results"]:
            print(
                f"wide join     {entry['mode']:>12}  "
                f"best {entry['best_s'] * 1000:8.2f} ms   "
                f"mean {entry['mean_s'] * 1000:8.2f} ms"
            )
        print(
            f"wide join: compiled "
            f"{wide['speedup_compiled_over_naive']:.2f}x over naive"
        )
        print(f"wrote {out}")
        write_trajectory(".")
        return 0

    if arguments.cluster:
        out = arguments.out or Path(DEFAULT_CLUSTER_OUT)
        document = run_cluster_sweep(
            shard_counts=(
                tuple(arguments.shards)
                if arguments.shards
                else DEFAULT_CLUSTER_SHARDS
            ),
            updates=(
                arguments.updates
                if arguments.updates is not None
                else DEFAULT_CLUSTER_UPDATES
            ),
        )
        _write_document(out, document)
        for entry in document["scaling"]:
            print(
                f"shards={entry['shards']:>2}  "
                f"reads/s {entry['reads_per_second']:8.1f}   "
                f"commits/s {entry['commits_per_second']:7.1f}   "
                f"consistent: {entry['consistent']}"
            )
        print(
            f"read scaling: "
            f"{document['read_scaling_largest_over_one']:.2f}x at "
            f"{document['read_scaling_shards']} shards over 1"
        )
        print(
            f"single-shard commits: routed "
            f"{document['routed_commits_per_second']:.1f}/s vs standalone "
            f"{document['standalone_commits_per_second']:.1f}/s (ratio "
            f"{document['commit_throughput_ratio_routed_over_standalone']:.3f})"
        )
        for failure in document["failures"]:
            print(f"  failure: {failure}")
        print(f"wrote {out}")
        write_trajectory(".")
        return 0 if not document["failures"] else 1

    if arguments.replication:
        out = arguments.out or Path(DEFAULT_REPLICATION_OUT)
        document = run_replication_sweep(
            n_followers=arguments.followers,
            duration=(
                arguments.duration
                if arguments.duration is not None
                else DEFAULT_REPLICATION_SECONDS
            ),
        )
        _write_document(out, document)
        fanout = document["read_fanout"]
        print(
            f"replication: {fanout['followers']} followers, "
            f"{fanout['reads_total']} replica reads in "
            f"{fanout['wall_seconds']:.1f} s "
            f"({document['replica_reads_per_second']:.0f}/s), "
            f"catch-up {document['replication_catchup_seconds']:.2f} s "
            f"for {document['workload']['catchup_commits']} commits"
        )
        print(
            f"failover: {document['failover_seconds'] * 1e3:.0f} ms to the "
            f"first write at epoch {document['promoted_epoch']}, "
            f"{document['lost_acknowledged_commits']} of "
            f"{document['acked_commits']} acked commits lost   "
            f"consistent: {document['consistent']}   "
            f"journal ok: {document['journal_ok']}"
        )
        for failure in document["failures"]:
            print(f"  failure: {failure}")
        print(f"wrote {out}")
        write_trajectory(".")
        return (
            0
            if document["lost_acknowledged_commits"] == 0
            and document["consistent"]
            and document["journal_ok"]
            else 1
        )

    if arguments.soak:
        out = arguments.out or Path(DEFAULT_SOAK_OUT)
        document = run_soak_sweep(
            duration=(
                arguments.duration
                if arguments.duration is not None
                else DEFAULT_SOAK_SECONDS
            ),
            n_subscribers=arguments.subscribers,
        )
        _write_document(out, document)
        print(
            f"soak: {document['wall_seconds']:.1f} s, "
            f"{document['commits']} commits "
            f"({document['commits_per_second']:.0f}/s), "
            f"{document['deltas_folded']} deltas folded "
            f"({document['lagged_resyncs']} lagged resyncs), "
            f"{document['restarts']} restart(s), "
            f"{document['reconnects']} reconnects"
        )
        print(
            f"errors: {document['retryable_errors']} retryable, "
            f"{document['non_retryable_errors']} non-retryable   "
            f"consistent: {document['consistent']}   "
            f"journal ok: {document['journal_ok']}"
        )
        for failure in document["failures"]:
            print(f"  failure: {failure}")
        print(f"wrote {out}")
        write_trajectory(".")
        return (
            0
            if document["consistent"]
            and document["journal_ok"]
            and not document["non_retryable_errors"]
            else 1
        )

    if arguments.serve:
        out = arguments.out or Path(DEFAULT_SERVE_OUT)
        updates = (
            arguments.updates
            if arguments.updates is not None
            else DEFAULT_SERVE_UPDATES
        )
        document = run_serve_sweep(
            n_clients=arguments.clients, updates=updates
        )
        _write_document(out, document)
        in_process = document["in_process"]
        print(
            f"served: {in_process['served_seconds']:.3f} s total / "
            f"{in_process['served_serving_seconds']:.3f} s serving "
            f"({in_process['served_states_per_second']:.0f} states/s, "
            f"{in_process['push_messages']} pushes, "
            f"{in_process['skipped_evaluations']} skipped evals)   "
            f"naive: {in_process['naive_seconds']:.3f} s total / "
            f"{in_process['naive_serving_seconds']:.3f} s serving"
        )
        print(
            f"serving throughput ratio served/naive: "
            f"{document['throughput_ratio_served_over_naive']:.2f}x "
            f"(total-time ratio "
            f"{in_process['total_ratio_served_over_naive']:.2f}x, "
            f"write-only {in_process['write_only_seconds']:.3f} s)"
        )
        wire = document["wire"]
        print(
            f"wire: {wire['commits_per_second']:.0f} commits/s, "
            f"{wire['pushes_per_second']:.0f} pushes/s to "
            f"{wire['clients']} clients, query round-trip "
            f"best {wire['query_roundtrip_best_s'] * 1e3:.2f} ms / "
            f"mean {wire['query_roundtrip_mean_s'] * 1e3:.2f} ms"
        )
        print(f"wrote {out}")
        write_trajectory(".")
        return 0

    if arguments.queries:
        out = arguments.out or Path(DEFAULT_QUERY_OUT)
        document = run_query_sweep(
            updates=(
                arguments.updates
                if arguments.updates is not None
                else DEFAULT_QUERY_UPDATES
            ),
            reads_per_update=arguments.reads,
        )
        _write_document(out, document)
        seconds = document["read_seconds"]
        print(
            f"reads: per-call {seconds['per_call']:.3f} s   "
            f"prepared {seconds['prepared']:.3f} s   "
            f"served {seconds['served_memoized']:.3f} s "
            f"({document['reads_per_second_served']:.0f} reads/s)"
        )
        print(
            f"speedup: prepared {document['speedup_prepared_over_per_call']:.2f}x   "
            f"served {document['speedup_served_over_per_call']:.2f}x"
        )
        for name, entry in document["per_query_head"].items():
            print(
                f"  {name:<14} indexed {entry['planned_indexed_best_s'] * 1e3:7.2f} ms  "
                f"dynamic {entry['dynamic_reference_best_s'] * 1e3:7.2f} ms  "
                f"({entry['speedup_indexed_over_dynamic']:.2f}x, "
                f"{entry['answers']} answers)"
            )
        print(f"wrote {out}")
        write_trajectory(".")
        return 0

    if arguments.store:
        out = arguments.out or Path(DEFAULT_STORE_OUT)
        document = run_store_sweep(arguments.revisions)
        _write_document(out, document)
        memory = document["memory"]
        print(
            f"chain memory: delta {memory['delta_chain_bytes'] / 1e6:.2f} MB "
            f"({memory['delta_chain_entries']} entries)  vs  full-copy "
            f"{memory['full_copy_bytes'] / 1e6:.2f} MB "
            f"({memory['full_copy_entries']} entries)  "
            f"ratio {document['memory_ratio_full_over_delta']:.1f}x"
        )
        throughput = document["throughput"]
        print(
            f"apply: cached {throughput['cached_apply_mean_s'] * 1e3:.2f} ms  "
            f"vs  cold {throughput['cold_apply_mean_s'] * 1e3:.2f} ms  "
            f"speedup {document['speedup_cached_over_cold']:.2f}x"
        )
        print(f"wrote {out}")
        write_trajectory(".")
        return 0

    out = arguments.out or Path(DEFAULT_OUT)
    document = run_p1_sweep(tuple(arguments.sizes), arguments.repeats)
    _write_document(out, document)
    for entry in document["results"]:
        print(
            f"n={entry['n_employees']:>5}  {entry['mode']:>10}  "
            f"best {entry['best_s'] * 1000:8.2f} ms   "
            f"mean {entry['mean_s'] * 1000:8.2f} ms"
        )
    for size, ratio in document["speedup_naive_over_semi_naive"].items():
        print(f"speedup n={size}: {ratio:.2f}x")
    print(f"wrote {out}")
    write_trajectory(".")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
