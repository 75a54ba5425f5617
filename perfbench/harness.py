"""Clients, the served store, the op executor and the correctness checks.

Two clients run the same ops:

* the user's client, ``repro.connect("unix:...")``, against a ``repro
  serve`` subprocess (:class:`ServedStore`);
* :class:`FrameClient`, which drives the server's own ``Dispatcher`` in
  this process and passes every request, response and push through
  ``protocol.encode``/``protocol.decode`` as the socket transport does.
  The traced run uses it, so that every layer runs where spans can see it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro import connect
from repro.api.model import AnswerDelta
from repro.core import evaluation, newbase
from repro.core import query as query_module
from repro.core.caches import clear_caches
from repro.core.errors import ReproError
from repro.lang import parser
from repro.server import protocol
from repro.server.service import StoreService
from repro.storage.history import VersionedStore
from repro.storage.serialize import (
    DurabilityOptions,
    load_store,
    save_store,
    verify_journal,
)

from inputs import SALARY_SCAN, point_query

#: Every journal write is fsync'd, on every run.
FLUSH_POLICY = "fsync"
DURABILITY = DurabilityOptions(mode=FLUSH_POLICY)

#: Seconds to wait for a subscription delta before counting it missing.
PUSH_TIMEOUT = 10.0

#: Seconds a served request may take before it counts as failed.
CALL_TIMEOUT = 120.0

#: Seconds to wait for ``repro serve`` to listen, and to exit.
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 30.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid: int | str = "self") -> float:
    """User plus system CPU time of a process so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def directory_bytes(directory: Path) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def init_journal(base, directory: Path) -> None:
    """Write revision 0 of a fresh journal, as ``repro store init`` does."""
    save_store(VersionedStore(base), directory, durability=DURABILITY)


class ServedStore:
    """A ``repro serve`` subprocess over a fresh fsync journal, and one
    client connection to it.  Paths are relative to the checkout root,
    which keeps the unix socket path short."""

    def __init__(self, workdir: Path, base, src: Path) -> None:
        self.journal = workdir / "journal"
        self.socket = workdir / "s.sock"
        self.log = workdir / "server.log"
        init_journal(base, self.journal)
        env = dict(os.environ, PYTHONPATH=str(src))
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--dir", str(self.journal), "--socket", str(self.socket),
                    "--durability", FLUSH_POLICY,
                ],
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        self.conn = None
        try:
            self._wait_listening()
            self.conn = connect(f"unix:{self.socket}", call_timeout=CALL_TIMEOUT)
        except BaseException:
            self.close()
            raise

    def _wait_listening(self) -> None:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}: "
                    f"{self.log.read_text(errors='replace').strip()}"
                )
            if self.socket.exists() and b"serving" in self.log.read_bytes():
                return
            time.sleep(0.005)
        raise RuntimeError("repro serve did not start listening in time")

    @property
    def pid(self) -> int:
        return self.process.pid

    def close(self) -> None:
        """Close the connection, stop the server and wait for it to exit."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


class FrameStream:
    """A subscription of :class:`FrameClient`: the folded answers and the
    pushes not consumed yet."""

    def __init__(self, sid: str, answers: list) -> None:
        self.sid = sid
        self.answers = answers
        self.pending: list[dict] = []

    def next(self, timeout: float | None = None) -> AnswerDelta | None:
        if not self.pending:
            return None
        push = self.pending.pop(0)
        delta = AnswerDelta(
            sid=self.sid,
            query=push["query"],
            revision=push["revision"],
            tag=push["tag"],
            added=tuple(query_module.decode_answers(push["added"])),
            removed=tuple(query_module.decode_answers(push["removed"])),
        )
        self.answers = query_module.fold_answers(
            self.answers, delta.added, delta.removed
        )
        return delta


class FrameClient:
    """The served request path without the socket (see the module doc)."""

    def __init__(self, service: StoreService) -> None:
        self._dispatcher = protocol.Dispatcher(service)
        self._pushes: list[dict] = []
        self._state = protocol.ClientState(self._pushes.append)
        self._streams: dict[str, FrameStream] = {}
        self._next_id = 0
        #: Bytes of every response and push frame sent to this client.
        self.response_bytes = 0

    def call(self, cmd: str, **payload) -> dict:
        self._next_id += 1
        frame = protocol.encode({"id": self._next_id, "cmd": cmd, **payload})
        response = protocol.encode(
            self._dispatcher.handle(protocol.decode(frame), self._state)
        )
        self.response_bytes += len(response)
        for push in self._pushes:
            push_frame = protocol.encode(push)
            self.response_bytes += len(push_frame)
            push = protocol.decode(push_frame)
            self._streams[push["sid"]].pending.append(push)
        self._pushes.clear()
        reply = protocol.decode(response)
        if not reply["ok"]:
            raise ReproError(reply["error"])
        return reply

    def apply(self, text: str) -> int:
        return self.call("apply", program=text, tag="", name=None)["revision"]

    def query(self, body: str) -> list:
        return query_module.decode_answers(self.call("query", body=body)["answers"])

    def subscribe(self, body: str) -> FrameStream:
        reply = self.call("subscribe", body=body, name=None)
        stream = FrameStream(reply["sid"], query_module.decode_answers(reply["answers"]))
        self._streams[stream.sid] = stream
        return stream

    def close(self) -> None:
        self._dispatcher.close(self._state)


class InProcessStore:
    """What ``repro serve`` runs, built in this process from a fresh
    journal: ``StoreService`` over the loaded store, fsync appends, and
    the two fan-out timing listeners around the subscription manager."""

    def __init__(self, workdir: Path, base, fanout=None) -> None:
        self.journal = workdir / "journal"
        init_journal(base, self.journal)
        store = load_store(self.journal, repair=True)
        if fanout is not None:
            store.add_commit_listener(fanout[0])
        self.service = StoreService(store, journal_dir=self.journal, durability=DURABILITY)
        if fanout is not None:
            store.add_commit_listener(fanout[1])
        self.conn = FrameClient(self.service)

    def close(self) -> None:
        self.conn.close()


class Record:
    """Latencies and failures of the ops of one phase, in seconds."""

    def __init__(self) -> None:
        #: CPU seconds of the timed ops, client and server together.
        self.cpu = 0.0
        self.op: list[float] = []
        self.write: list[float] = []
        self.read: list[float] = []
        self.push: list[float] = []
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _one_row(answers, employee_salary: int) -> bool:
    return answers == [{"S": employee_salary}]


def execute(conn, op, streams, record: Record, *, tamper: bool = False) -> None:
    """Run one op on ``conn``, time it and check what it observed.

    ``tamper`` corrupts the observed answer before it is checked, which
    the check must report (the smoke test's injected wrong answer).
    """
    start = time.perf_counter()
    try:
        if op.kind in ("commit", "raise"):
            conn.apply(op.text)
            applied = time.perf_counter()
            record.write.append(applied - start)
            if op.kind == "commit":
                answers = conn.query(point_query(op.employee))
                record.read.append(time.perf_counter() - applied)
                if tamper:
                    answers = [{"S": op.salary + 1}]
                if not _one_row(answers, op.salary):
                    record.fail(f"{op.employee}: read {answers}, model {op.salary}")
            else:
                delta = streams[op.team].next(timeout=PUSH_TIMEOUT)
                record.push.append(time.perf_counter() - start)
                expected = (
                    ({"E": op.employee, "S": op.salary},),
                    ({"E": op.employee, "S": op.old_salary},),
                )
                got = None if delta is None else (delta.added, delta.removed)
                if tamper:
                    got = None
                if got != expected:
                    record.fail(f"raise of {op.employee}: delta {got}, model {expected}")
        else:
            answers = conn.query(op.text)
            record.read.append(time.perf_counter() - start)
            if op.kind == "point":
                if tamper:
                    answers = []
                if not _one_row(answers, op.salary):
                    record.fail(f"{op.employee}: read {answers}, model {op.salary}")
    except ReproError as error:
        record.fail(f"{op.kind} failed: {error}")
    record.op.append(time.perf_counter() - start)


def check_salaries(conn, model: dict[str, int], record: Record) -> None:
    """The full salary scan equals the benchmark's own model."""
    scanned = {row["E"]: row["S"] for row in conn.query(SALARY_SCAN)}
    if scanned != model:
        wrong = sorted(name for name in model if scanned.get(name) != model[name])
        record.fail(f"salary scan differs from the model at {wrong[:5]}")


def check_subscriptions(conn, streams, bodies, record: Record) -> None:
    """No raise produced more than its one delta, and each subscription's
    folded answers equal a fresh query."""
    extra = 0
    for stream in streams:
        while stream.next(timeout=0.05) is not None:
            extra += 1
    if extra:
        record.fail(f"{extra} deltas beyond one per raise")
    for stream, body in zip(streams, bodies):
        if stream.answers != conn.query(body):
            record.fail(f"subscription {body!r}: folded answers differ from a fresh query")


def check_journal(directory: Path, record: Record) -> None:
    report = verify_journal(directory)
    if not report["ok"]:
        record.fail(f"verify_journal: {report}")


def apply_batch(family):
    """One ``repro apply``: parse, compile, evaluate, build ``ob'``.

    Each call goes through the module attribute, so a traced replay sees
    it; the engine's process-wide caches are cleared first, as a one-shot
    process starts without them.
    """
    program = parser.parse_program(family.text, family.name)
    compiled = evaluation.compile_program(program)
    outcome = evaluation.evaluate(program, family.base, compiled=compiled)
    return newbase.build_new_base(outcome.result_base, outcome.final_versions or None)


def run_batch_op(family, reference, record: Record, *, tamper: bool = False):
    """Time one batch apply and check it against the naive reference
    (unchecked when ``reference`` is ``None``: the warm-up round runs
    before the references exist)."""
    clear_caches()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        new_base = apply_batch(family)
    except ReproError as error:
        record.op.append(time.perf_counter() - start)
        record.fail(f"{family.name} failed: {error}")
        return
    elapsed = time.perf_counter() - start
    record.cpu += time.process_time() - cpu
    record.op.append(elapsed)
    record.write.append(elapsed)
    if reference is not None and (family.base if tamper else new_base) != reference:
        record.fail(f"{family.name}: new base differs from the naive reference")
