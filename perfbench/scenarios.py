"""The three workloads, measured (``measure``) and traced (``trace``).

A measured run is ``SETUPS`` cycles, each measured for its share of the
seconds.  A served cycle sets up a fresh server, warms up, runs ops in a
closed loop with one client, then checks the final state.  A batch cycle
runs in a fresh interpreter (``batch_worker.py``): it sets up
``BATCH_SETUPS_PER_CYCLE`` times, warms up and applies whole rounds of
programs.  Fresh processes average out per-process effects (memory
layout, collector timing).  A traced run replays one seeded op sequence three
times: served (untraced), in process (untraced) and in process with
spans; its trace file carries everything :mod:`summarize` needs.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro import UpdateEngine
from repro.core.caches import clear_caches
from repro.storage.serialize import dump_base_json, load_base_json

from harness import (
    FrameClient,
    InProcessStore,
    Record,
    ServedStore,
    apply_batch,
    check_journal,
    check_salaries,
    check_subscriptions,
    cpu_seconds,
    directory_bytes,
    execute,
    peak_rss_mb,
    run_batch_op,
)
from inputs import BatchOps, Enterprise, LiveReadOps, PointCommitOps, batch_families
from tracing import Tracer, fanout_listeners

WORKLOADS = ("point-commit", "live-read", "batch-apply")

#: Cycles per measured run, each measured for an equal share of the run;
#: ``setup_s`` is the median of their set-ups.  Fresh server processes
#: also bound how much history a measured store holds.
SETUPS = 3

#: Set-ups per batch cycle: they take a tenth of a second each, so more of
#: them make the median steady.
BATCH_SETUPS_PER_CYCLE = 3

#: Untimed ops after set-up (they include the first compiles and memo
#: fills); whole blocks of the op mix.
WARMUP_OPS = {"point-commit": 8, "live-read": 40}

#: Share of ``--seconds`` the served phase of a traced run takes; the two
#: in-process replays of the same ops take about as long again each.
TRACE_SERVED_SHARE = 0.4

#: Pings after the served phase of a traced run; their median round trip
#: is ``transport_ms``.
PINGS = 200

#: Seconds a batch cycle may take beyond its share of the run (start-up,
#: set-ups, warm-up round).
WORKER_TIMEOUT = 120

#: Share of ``--seconds`` the untraced phase of a traced batch run takes.
TRACE_BATCH_SHARE = 0.5

#: Relative to the checkout root; short, so the unix socket path is too.
WORK_ROOT = Path(".perfbench")


class Result:
    """What one run observed: latencies, failures and extra figures."""

    def __init__(self) -> None:
        self.setup: list[float] = []
        self.record = Record()
        self.attempted = 0
        self.elapsed = 0.0
        self.rss_mb: float | None = None
        self.disk_bytes_per_write: float | None = None

    @property
    def failures(self) -> list[str]:
        return self.record.failures


def _workdir(name: str) -> Path:
    directory = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


class _ServedSetup:
    """One set-up of a served workload: base, journal, server, client and,
    on ``live-read``, the team subscriptions."""

    def __init__(self, workload: str, seed: int, cycle: int, workdir: Path, src: Path) -> None:
        self.enterprise = Enterprise()
        make = PointCommitOps if workload == "point-commit" else LiveReadOps
        self.ops = make(self.enterprise, seed, cycle)
        self.bodies = getattr(self.ops, "team_queries", [])
        self.server = ServedStore(workdir, self.enterprise.base, src)
        self.conn = self.server.conn
        try:
            self.streams = [self.conn.subscribe(body) for body in self.bodies]
        except BaseException:
            self.server.close()
            raise

    def close(self) -> None:
        self.server.close()


def _final_checks(conn, ops, streams, bodies, record: Record) -> None:
    check_salaries(conn, ops.model, record)
    if streams:
        check_subscriptions(conn, streams, bodies, record)


def measure(workload: str, seed: int, seconds: float, src: Path, *, tamper: bool = False) -> Result:
    workdir = _workdir(workload)
    try:
        if workload == "batch-apply":
            return _measure_batch(seed, seconds, workdir, tamper=tamper)
        return _measure_served(workload, seed, seconds, src, workdir, tamper=tamper)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_served(workload, seed, seconds, src, workdir, *, tamper) -> Result:
    """``SETUPS`` cycles, each a fresh set-up measured for its share of
    ``seconds``; the records of all cycles are pooled."""
    result = Result()
    record = result.record
    rss = []
    journal_bytes = 0
    for cycle in range(SETUPS):
        start = time.perf_counter()
        setup = _ServedSetup(workload, seed, cycle, workdir / f"cycle{cycle}", src)
        result.setup.append(time.perf_counter() - start)
        try:
            warm = Record()
            for _ in range(WARMUP_OPS[workload]):
                execute(setup.conn, next(setup.ops), setup.streams, warm)
            record.failures.extend(warm.failures)
            result.attempted += len(warm.op)
            rss.append(peak_rss_mb(setup.server.pid))
            journal_before = directory_bytes(setup.server.journal)
            cpu_before = cpu_seconds() + cpu_seconds(setup.server.pid)
            start = time.perf_counter()
            deadline = start + seconds / SETUPS
            while time.perf_counter() < deadline:
                for _ in range(setup.ops.block_size):
                    op = next(setup.ops)
                    # hot queries have no per-op check, so the wrong answer
                    # goes to the first op that has one
                    checked = op.kind != "hot"
                    execute(setup.conn, op, setup.streams, record, tamper=tamper and checked)
                    tamper = tamper and not checked
            result.elapsed += time.perf_counter() - start
            record.cpu += cpu_seconds() + cpu_seconds(setup.server.pid) - cpu_before
            _final_checks(setup.conn, setup.ops, setup.streams, setup.bodies, record)
        finally:
            setup.close()
        check_journal(setup.server.journal, record)
        journal_bytes += directory_bytes(setup.server.journal) - journal_before
        shutil.rmtree(workdir / f"cycle{cycle}", ignore_errors=True)
    result.attempted += len(record.op)
    result.rss_mb = statistics.median(rss)
    if record.write:
        result.disk_bytes_per_write = journal_bytes / len(record.write)
    return result


def _naive_references(families) -> dict:
    naive = UpdateEngine(semi_naive=False, compile_cache_size=0)
    return {
        family.name: naive.apply(family.program, family.base).new_base
        for family in families
    }


def _measure_batch(seed: int, seconds: float, workdir: Path, *, tamper: bool) -> Result:
    """``SETUPS`` cycles of :func:`batch_cycle`, each in a fresh
    interpreter.  The naive references are computed once, here, outside
    the measured time, and handed to the cycles as object-base JSON (the
    snapshot format; a pickle would carry this process's string hashes)."""
    references = workdir / "references"
    references.mkdir()
    for name, base in _naive_references(batch_families()).items():
        dump_base_json(base, references / f"{name}.json")
    result = Result()
    record = result.record
    rss = []
    for cycle in range(SETUPS):
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).with_name("batch_worker.py")),
                str(seed), str(cycle), repr(seconds / SETUPS), str(references),
                "1" if tamper and cycle == 0 else "0",
            ],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=seconds / SETUPS + WORKER_TIMEOUT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"batch cycle {cycle} failed: {done.stderr.strip()}")
        part = json.loads(done.stdout)
        result.setup += part["setup"]
        record.op += part["op"]
        record.write += part["write"]
        record.cpu += part["cpu"]
        record.failures += part["failures"]
        rss.append(part["rss_mb"])
    result.rss_mb = statistics.median(rss)
    # Throughput counts apply time only, not the checks between applies.
    result.elapsed = sum(record.op)
    result.attempted = len(record.op)
    return result


def batch_cycle(seed: int, cycle: int, seconds: float, references: Path, *, tamper: bool) -> dict:
    """One measured batch cycle in this process (``batch_worker.py``
    runs it): set-ups, a warm-up round, then whole rounds for ``seconds``,
    each new base checked against the naive references in the directory
    ``references``."""
    setup = []
    for _ in range(BATCH_SETUPS_PER_CYCLE):
        start = time.perf_counter()
        families = batch_families()
        setup.append(time.perf_counter() - start)
    ops = BatchOps(families, seed, cycle)
    for _ in range(ops.round_size):
        run_batch_op(next(ops), None, Record())
    rss_mb = peak_rss_mb()
    expected = {
        family.name: load_base_json(references / f"{family.name}.json")
        for family in families
    }
    record = Record()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for _ in range(ops.round_size):
            family = next(ops)
            run_batch_op(family, expected[family.name], record, tamper=tamper)
            tamper = False
    return {
        "setup": setup, "op": record.op, "write": record.write,
        "cpu": record.cpu, "failures": record.failures, "rss_mb": rss_mb,
    }


# -- traced runs ---------------------------------------------------------


def _memo_delta(before: dict, after: dict, totals: dict) -> None:
    """Add one op's memo counter changes to ``totals``.  A query evicted
    during the op was not used by it; a query registered during it counts
    from zero."""
    for name, stats in after.items():
        old = before.get(name)
        for key in totals:
            totals[key] += stats[key] - (old[key] if old else 0)


def trace(workload: str, seed: int, seconds: float, src: Path) -> tuple[dict, Result]:
    if workload == "batch-apply":
        return _trace_batch(seed, seconds)
    workdir = _workdir(workload)
    try:
        return _trace_served(workload, seed, seconds, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _trace_served(workload, seed, seconds, src, workdir) -> tuple[dict, Result]:
    result = Result()
    record = result.record
    # 1. served, untraced: fixes the op sequence; then pings time the
    #    transport on its own
    setup = _ServedSetup(workload, seed, 0, workdir / "served", src)
    warmup = [next(setup.ops) for _ in range(WARMUP_OPS[workload])]
    warm = Record()
    timed = []
    served = Record()
    try:
        for op in warmup:
            execute(setup.conn, op, setup.streams, warm)
        deadline = time.perf_counter() + seconds * TRACE_SERVED_SHARE
        while time.perf_counter() < deadline:
            for _ in range(setup.ops.block_size):
                op = next(setup.ops)
                execute(setup.conn, op, setup.streams, served)
                timed.append(op)
        _final_checks(setup.conn, setup.ops, setup.streams, setup.bodies, record)
        ping_ms = []
        for _ in range(PINGS):
            start = time.perf_counter()
            setup.conn.ping()
            ping_ms.append((time.perf_counter() - start) * 1e3)
    finally:
        setup.close()
    check_journal(setup.server.journal, record)
    record.failures.extend(served.failures)

    enterprise = setup.enterprise
    bodies = setup.bodies

    def replay(name: str, fanout=None):
        store = InProcessStore(workdir / name, enterprise.base, fanout)
        streams = [store.conn.subscribe(body) for body in bodies]
        for op in warmup:
            execute(store.conn, op, streams, warm)
        return store, streams

    # 2. in process, untraced
    store, streams = replay("untraced")
    untraced = Record()
    for op in timed:
        execute(store.conn, op, streams, untraced)
    _final_checks(store.conn, setup.ops, streams, bodies, untraced)
    store.close()
    record.failures.extend(untraced.failures)

    # 3. in process, traced
    tracer_ref = [None]
    store, streams = replay("traced", fanout_listeners(tracer_ref))
    conn: FrameClient = store.conn
    service = store.service
    traced = Record()
    response_bytes = []
    memo = {"hits": 0, "misses": 0, "carried": 0, "invalidated": 0}
    subs_before = service.subscriptions.stats()["by_id"]
    journal_before = directory_bytes(store.journal)
    commits_before = len(service.store)
    tracer = Tracer()
    gc.collect()
    tracer.install()
    tracer_ref[0] = tracer
    try:
        for index, op in enumerate(timed):
            sent = conn.response_bytes
            memo_before = service.store.prepared_stats()
            with tracer.op(index):
                execute(conn, op, streams, traced)
            _memo_delta(memo_before, service.store.prepared_stats(), memo)
            response_bytes.append(conn.response_bytes - sent)
    finally:
        tracer_ref[0] = None
        tracer.uninstall()
    subs_after = service.subscriptions.stats()["by_id"]
    commits = len(service.store) - commits_before
    journal_bytes = directory_bytes(store.journal) - journal_before
    _final_checks(conn, setup.ops, streams, bodies, traced)
    store.close()
    check_journal(store.journal, traced)
    record.failures.extend(traced.failures + warm.failures)
    result.attempted = len(warmup) * 3 + len(timed) * 3

    push = None
    if subs_after:
        push = {
            key: sum(s[key] - subs_before[sid][key] for sid, s in subs_after.items())
            for key in ("refreshed", "pushed")
        }
    document = {
        "ops": [
            {
                "kind": op.kind,
                "untraced_ms": untraced.op[i] * 1e3,
                "response_bytes": response_bytes[i],
            }
            for i, op in enumerate(timed)
        ],
        "spans": tracer.spans,
        "counters": {
            "evaluate_iterations": tracer.evaluate_iterations,
            "commit_deltas": tracer.commit_deltas,
            "ping_ms": ping_ms,
            "journal": {"bytes": journal_bytes, "commits": commits},
            "memo": memo,
            "push": push,
        },
    }
    return document, result


def _trace_batch(seed: int, seconds: float) -> tuple[dict, Result]:
    result = Result()
    record = result.record
    families = batch_families()
    references = _naive_references(families)
    ops = BatchOps(families, seed)
    for _ in range(ops.round_size):
        run_batch_op(next(ops), None, Record())
    # 1. untraced: whole rounds, as a measured run does
    sequence = []
    untraced = Record()
    deadline = time.perf_counter() + seconds * TRACE_BATCH_SHARE
    while time.perf_counter() < deadline:
        for _ in range(ops.round_size):
            family = next(ops)
            run_batch_op(family, references[family.name], untraced)
            sequence.append(family)
    record.failures.extend(untraced.failures)
    # 2. the same applies, traced; caches cleared and checks made outside ops
    tracer = Tracer()
    deltas = []
    gc.collect()
    tracer.install()
    try:
        for index, family in enumerate(sequence):
            clear_caches()
            with tracer.op(index):
                new_base = apply_batch(family)
            if new_base != references[family.name]:
                record.fail(f"{family.name}: traced new base differs from the reference")
            old = set(family.base)
            new = set(new_base)
            deltas.append((len(old ^ new), len(old)))
    finally:
        tracer.uninstall()
    result.attempted = len(sequence) * 2
    document = {
        "ops": [
            {"kind": "apply", "untraced_ms": untraced.op[i] * 1e3}
            for i in range(len(sequence))
        ],
        "spans": tracer.spans,
        "counters": {
            "evaluate_iterations": tracer.evaluate_iterations,
            "commit_deltas": deltas,
        },
    }
    return document, result

