"""Spans around the public functions of each layer, recorded from outside.

:class:`Tracer` replaces module attributes of the program with wrappers
that record a span (name, start, end, parent, op id) around each call, and
puts the originals back on :meth:`Tracer.uninstall`.  Nothing inside the
program changes.  Spans stay in memory until the caller writes them out.

The server's commit-listener fan-out is timed by two listeners that the
benchmark registers on the store, one before and one after the
subscription manager (see :func:`fanout_listeners`).  Collector pauses are
recorded as ``runtime.gc`` spans through :data:`gc.callbacks`.
"""

from __future__ import annotations

import gc
import importlib
import time
from contextlib import contextmanager

#: (module, attribute or ``Class.method``, span name) for every wrapped call.
LAYER_FUNCTIONS = (
    ("repro.lang.parser", "parse_program", "lang.parse"),
    ("repro.lang.parser", "parse_body", "lang.parse"),
    ("repro.core.engine", "compile_program", "core.compile"),
    ("repro.core.evaluation", "compile_program", "core.compile"),
    ("repro.core.engine", "evaluate", "core.evaluate"),
    ("repro.core.evaluation", "evaluate", "core.evaluate"),
    ("repro.core.engine", "build_new_base", "core.newbase"),
    ("repro.core.newbase", "build_new_base", "core.newbase"),
    ("repro.core.query", "PreparedQuery.run", "query.run"),
    ("repro.core.query", "decode_answers", "api.decode"),
    ("repro.storage.history", "VersionedStore.commit_update", "storage.commit"),
    ("repro.server.service", "append_revision", "storage.journal_append"),
    ("repro.server.protocol", "encode", "server.encode"),
    ("repro.server.protocol", "decode", "server.decode"),
)


class Tracer:
    """In-memory span recorder for one traced replay."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index, op_id]`` per span.
        self.spans: list[list] = []
        self.evaluate_iterations: list[int] = []
        self.commit_deltas: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self._op]
        self.spans.append(record)
        index = len(self.spans) - 1
        self._stack.append(index)
        record[1] = time.perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    @contextmanager
    def op(self, op_id: int):
        """The root ``op`` span of one client operation."""
        self._op = op_id
        index = self.begin("op")
        try:
            yield
        finally:
            self.end(index)
            self._op = -1

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name: str, function):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(index)
            if name == "core.evaluate":
                tracer.evaluate_iterations.append(result.iterations)
            elif name == "storage.commit":
                tracer.commit_deltas.append(
                    (len(result.added) + len(result.removed), len(args[1]))
                )
            return result

        traced.__wrapped__ = function
        return traced

    def install(self) -> None:
        for module_name, attribute, name in LAYER_FUNCTIONS:
            owner = importlib.import_module(module_name)
            if "." in attribute:
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _on_gc(self, phase: str, _info: dict) -> None:
        # Only collections inside a traced op count; a collection between
        # ops belongs to no op.
        if phase == "start":
            if self._stack:
                self.begin("runtime.gc")
        elif self._stack and self.spans[self._stack[-1]][0] == "runtime.gc":
            self.end(self._stack[-1])


def fanout_listeners(tracer_ref: list):
    """Two store commit listeners bracketing the subscription manager's.

    Register ``before`` on the store ahead of the manager and ``after``
    behind it; the span between them is the manager's fan-out.
    ``tracer_ref`` is a one-element list holding the active
    :class:`Tracer`, or ``None`` while untraced.
    """
    open_span: list[int] = []

    def before(_revision) -> None:
        tracer = tracer_ref[0]
        if tracer is not None:
            open_span.append(tracer.begin("server.fanout"))

    def after(_revision) -> None:
        tracer = tracer_ref[0]
        if tracer is not None and open_span:
            tracer.end(open_span.pop())

    return before, after
