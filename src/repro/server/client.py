"""Clients for the serving subsystem: in-process and over the wire.

:func:`connect_local` returns a :class:`LocalClient` bound directly to a
:class:`~repro.server.service.StoreService` through the *same*
:class:`~repro.server.protocol.Dispatcher` the asyncio server uses — the
full protocol without sockets, for tests, benchmarks and embedding.  Push
messages accumulate in-process and are drained with :meth:`LocalClient.pushes`.

:class:`AsyncClient` speaks the JSON-lines protocol over a unix socket or
TCP: one background reader task routes responses to their awaiting callers
by ``id`` and queues pushes for :meth:`AsyncClient.next_push`.

.. deprecated::
    For application code, prefer the unified connection facade —
    ``repro.connect("serve:/path/to.sock")`` (or an in-process
    ``repro.connect("memory:")`` / journal-directory target) yields the same
    typed surface over every backend.  These clients remain the wire
    building blocks the facade is built on and stay supported for raw
    protocol work (scripting, new transports).
"""

from __future__ import annotations

import asyncio
import itertools

from repro.core.query import decode_answers
from repro.lang.errors import ParseError
from repro.server.errors import (
    ConflictError,
    ConnectionClosed,
    NotPrimaryError,
    ServerBusyError,
    ServerError,
    StaleEpochError,
)
from repro.server.protocol import LINE_LIMIT, ClientState, Dispatcher, decode, encode
from repro.server.service import StoreService

__all__ = ["LocalClient", "AsyncClient", "connect_local"]


def _raise_for(response: dict) -> dict:
    """Turn an ``ok: false`` response back into the typed exception."""
    if response.get("ok"):
        return response
    message = response.get("error", "server error")
    if response.get("conflict"):
        raise ConflictError(
            message,
            pinned=response.get("pinned", -1),
            conflicting_index=response.get("conflicting_index", -1),
            conflicting_tag=response.get("conflicting_tag", ""),
        )
    if response.get("stale_epoch"):
        raise StaleEpochError(
            message,
            current_epoch=response.get("current_epoch", 0),
            required_epoch=response.get("required_epoch", 0),
        )
    if response.get("not_primary"):
        raise NotPrimaryError(message)
    if response.get("parse_error"):
        raise ParseError(*response["parse_error"])
    if response.get("retryable"):
        # non-conflict but typed-retryable: the server shed load
        raise ServerBusyError(message)
    raise ServerError(message)


class _ClientConveniences:
    """Command sugar shared by both clients; subclasses provide ``call``
    (sync for :class:`LocalClient`; :class:`AsyncClient` wraps the async
    ``call`` itself and reuses nothing here but the naming contract)."""

    def call(self, cmd: str, **payload) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def ping(self) -> dict:
        return self.call("ping")

    def apply(self, program: str, *, tag: str = "") -> dict:
        return self.call("apply", program=program, tag=tag)

    def query(self, body: str) -> list:
        """Answers at the head, decoded on receipt: canonical fresh rows,
        value-equal to ``repro.query`` on the same base — never the
        dispatcher's live memo lists."""
        return decode_answers(self.call("query", body=body)["answers"])

    def prepare(self, body: str, *, name: str | None = None) -> dict:
        return self.call("prepare", body=body, name=name)

    def subscribe(self, body: str, *, name: str | None = None) -> dict:
        return self.call("subscribe", body=body, name=name)

    def unsubscribe(self, sid: str) -> dict:
        return self.call("unsubscribe", sid=sid)

    def begin(self) -> str:
        return self.call("tx-begin")["session"]

    def tx_query(self, session: str, body: str) -> list:
        """Answers at the session's pinned revision, decoded on receipt
        (same contract as :meth:`query`)."""
        return decode_answers(
            self.call("tx-query", session=session, body=body)["answers"]
        )

    def stage(self, session: str, program: str) -> dict:
        return self.call("tx-stage", session=session, program=program)

    def commit(self, session: str, *, tag: str = "") -> dict:
        return self.call("tx-commit", session=session, tag=tag)

    def abort(self, session: str) -> dict:
        return self.call("tx-abort", session=session)

    def log(self) -> list:
        return self.call("log")["revisions"]

    def as_of(self, revision) -> str:
        return self.call("as-of", revision=revision)["facts"]

    def stats(self) -> dict:
        return self.call("stats")["stats"]


class LocalClient(_ClientConveniences):
    """An in-process protocol client over a service (no event loop).

    Mirrors a wire connection: it owns per-connection sessions and
    subscriptions, and collects push messages synchronously as commits
    (its own or other clients') touch its subscriptions.
    """

    def __init__(self, service: StoreService) -> None:
        self.service = service
        self._dispatcher = Dispatcher(service)
        self._pending_pushes: list[dict] = []
        self._state = ClientState(self._pending_pushes.append)
        self._ids = itertools.count(1)
        self._closed = False

    def request(self, cmd: str, **payload) -> dict:
        """Send one command, return the raw response dict (never raises
        for server-side errors — inspect ``ok``)."""
        if self._closed:
            raise ServerError("client is closed")
        message = {"id": next(self._ids), "cmd": cmd}
        message.update(
            {key: value for key, value in payload.items() if value is not None}
        )
        return self._dispatcher.handle(message, self._state)

    def call(self, cmd: str, **payload) -> dict:
        """Like :meth:`request` but raising the typed error on failure."""
        return _raise_for(self.request(cmd, **payload))

    def pushes(self) -> list[dict]:
        """Drain and return the pushes delivered since the last drain."""
        drained, self._pending_pushes[:] = list(self._pending_pushes), []
        return drained

    def close(self) -> None:
        if not self._closed:
            self._dispatcher.close(self._state)
            self._closed = True

    def __enter__(self) -> "LocalClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect_local(target) -> LocalClient:
    """Connect in-process: ``target`` is a :class:`StoreService`, a
    :class:`~repro.storage.history.VersionedStore` (wrapped in a fresh
    service), or a journal directory path (opened with durability).

    .. deprecated::
        Prefer ``repro.connect(target)`` — the unified facade accepts the
        same targets and returns the typed :class:`~repro.api.Connection`
        surface instead of raw protocol dicts.  Kept as the thin shim for
        code that wants the dict-protocol dispatcher directly.
    """
    from pathlib import Path

    from repro.storage.history import VersionedStore

    if isinstance(target, StoreService):
        return LocalClient(target)
    if isinstance(target, VersionedStore):
        return LocalClient(StoreService(target))
    if isinstance(target, (str, Path)):
        return LocalClient(StoreService.open(target))
    raise TypeError(
        f"connect_local needs a StoreService, VersionedStore or journal "
        f"directory, not {type(target).__name__}"
    )


#: Push-queue sentinel: the connection died; every ``next_push`` waiter
#: (present and future) gets a :class:`ConnectionClosed` instead of hanging.
_PUSHES_CLOSED = object()


class AsyncClient:
    """The asyncio wire client (see the module doc).

    >>> client = await AsyncClient.connect(path=socket_path)   # doctest: +SKIP
    >>> await client.call("query", body="E.sal -> S")          # doctest: +SKIP
    >>> push = await client.next_push(timeout=1.0)             # doctest: +SKIP
    """

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._waiting: dict[int, asyncio.Future] = {}
        self._pushes: asyncio.Queue = asyncio.Queue()
        self._dead: str | None = None
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @property
    def alive(self) -> bool:
        """Whether the connection can still carry requests."""
        return self._dead is None and not self._closed

    @classmethod
    async def connect(
        cls,
        *,
        path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
    ) -> "AsyncClient":
        if path is not None:
            reader, writer = await asyncio.open_unix_connection(
                path, limit=LINE_LIMIT
            )
        elif port is not None:
            reader, writer = await asyncio.open_connection(
                host, port, limit=LINE_LIMIT
            )
        else:
            raise ValueError("need a unix socket path or a TCP port")
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    self._dead = "connection closed by the server"
                    break
                if not line.strip():
                    continue
                message = decode(line)
                if "push" in message:
                    self._pushes.put_nowait(message)
                    continue
                future = self._waiting.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except asyncio.CancelledError:
            self._dead = "client closed"
        except Exception as error:
            # Any reader failure (reset peer, malformed frame, overlong
            # line) is terminal for the connection: record why, so later
            # request() calls fail fast instead of awaiting forever.
            self._dead = f"connection failed: {error}"
        finally:
            if self._dead is None:
                self._dead = "connection closed"
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(ConnectionClosed(self._dead))
            self._waiting.clear()
            # wake every pending (and future) next_push waiter: a stream
            # that will never produce again must say so, not hang
            self._pushes.put_nowait(_PUSHES_CLOSED)

    async def request(self, cmd: str, **payload) -> dict:
        """Send one command and await its raw response dict."""
        if self._dead is not None:
            raise ConnectionClosed(self._dead)
        request_id = next(self._ids)
        message = {"id": request_id, "cmd": cmd}
        message.update(
            {key: value for key, value in payload.items() if value is not None}
        )
        future = asyncio.get_event_loop().create_future()
        self._waiting[request_id] = future
        try:
            self._writer.write(encode(message))
            await self._writer.drain()
        except (ConnectionError, OSError) as error:
            stale = self._waiting.pop(request_id, None)
            if stale is not None and stale.done() and not stale.cancelled():
                stale.exception()  # read loop failed it first: observe it
            raise ConnectionClosed(f"connection failed: {error}") from None
        return await future

    async def call(self, cmd: str, **payload) -> dict:
        """Like :meth:`request` but raising the typed error on failure."""
        return _raise_for(await self.request(cmd, **payload))

    async def next_push(self, *, timeout: float | None = None) -> dict:
        """Await the next push message (subscription answer diff).

        Raises :class:`ConnectionClosed` — instead of waiting forever —
        once the connection has died or :meth:`close` was called.
        """
        if timeout is None:
            message = await self._pushes.get()
        else:
            message = await asyncio.wait_for(self._pushes.get(), timeout)
        if message is _PUSHES_CLOSED:
            # leave the sentinel in place so every other waiter wakes too
            self._pushes.put_nowait(_PUSHES_CLOSED)
            raise ConnectionClosed(self._dead or "client closed")
        return message

    def drain_pushes(self) -> list[dict]:
        """Already-received pushes, without waiting."""
        drained = []
        while not self._pushes.empty():
            message = self._pushes.get_nowait()
            if message is _PUSHES_CLOSED:
                self._pushes.put_nowait(_PUSHES_CLOSED)
                break
            drained.append(message)
        return drained

    async def close(self) -> None:
        """Tear down the connection: cancel *and await* the reader task,
        resolve pending ``next_push``/``request`` waiters with
        :class:`ConnectionClosed`, close the socket.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
