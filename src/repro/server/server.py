"""The asyncio TCP front end of the preference service.

One :class:`PreferenceServer` multiplexes any number of concurrent client
connections over one shared :class:`~repro.server.service
.PreferenceService`.  The event loop parses lines, routes requests,
resolves each ``query`` (build, personalize, view key — cheap and pure)
and answers it on the spot when a current continuous view holds the rows
and nobody holds that view's lock.  Everything that can take long or
wait — planning, winnows, mutations, view seeding, a view mid-refresh —
runs on the service's worker pool via ``run_in_executor``, so a 50k-row
skyline never stalls other clients' round trips.

Connections are served independently; within one connection requests are
handled in arrival order (responses never interleave, which keeps the
protocol trivially parseable).  ``subscribe`` records a subscription in
the service's :class:`~repro.server.views.SubscriptionTable`; the server
keeps only which connection each subscription id belongs to.  Every
mutation, revision or profile migration that visibly changes a
subscribed window reaches the server as a delta addressed to
subscription ids, and is pushed, without waiting on any reader, as a
``delta`` message with the BMO ``enter`` / ``exit`` rows.

:func:`run_in_thread` boots a server on a daemon thread and returns a
handle with the bound port — the idiom the sync client, the tests, and the
examples use.
"""

from __future__ import annotations

import asyncio
import contextvars
import re
import threading
from collections import OrderedDict
from functools import partial
from typing import Any, Callable, NamedTuple

from repro.faults import plan as faults
from repro.query.incremental import BMODelta
from repro.server import protocol
from repro.server.service import (
    PreferenceService,
    QueryAnswer,
    ResolvedQuery,
    ServiceError,
    Sightings,
)
from repro.server.views import ViewError
from repro.storage.backend import StorageError
from repro.tenancy.profiles import TenancyError, valid_tenant

#: The ``server`` field of the hello/ping payload.
SERVER_NAME = "repro-preference-server"

#: Ops that do real work — the ones admission control and deadlines
#: govern.  All go to the worker pool, except a ``query`` whose answer is
#: view-resident (see :meth:`PreferenceServer._query`).  The rest are
#: O(1) event-loop answers that shedding could only make slower.
CPU_OPS = frozenset({
    "query", "explain", "insert", "delete", "subscribe", "revise",
    "profile", "checkpoint", "metrics",
})

#: Default admission watermark: executor dispatches in flight beyond
#: this are refused with ``code="overloaded"``.
DEFAULT_MAX_PENDING = 64

#: Consecutive queries one connection may have answered on the event
#: loop before it yields to it.  A pipelining client's requests are all
#: in the read buffer already, so without the yield its task would never
#: suspend and every other connection would wait for the whole burst.
INLINE_STREAK = 8

#: Default per-connection write-buffer cap (bytes).  A subscriber that
#: stops reading accumulates unsent deltas in its transport buffer; past
#: the cap it is disconnected instead of eating the heap.
DEFAULT_WRITE_BUFFER_CAP = 4 * 1024 * 1024


#: Prepared request lines one server keeps.  An entry holds its line's
#: bytes and the resolved query, ~4 KB measured, most of it the built
#: query's term.  A standing workload repeats a few hundred distinct
#: lines (216 in the ``standing`` benchmark), so 1024 entries hold such a
#: working set several times over in ~4 MB; one-off lines never get in
#: (admission is on the second sighting), and past the cap the oldest
#: entry goes.
PREPARED_CAP = 1024

#: A ``query`` line's leading ``{"id":<JSON integer>,"op":"query",``
#: (the id in JSON's own integer grammar, so ``json.loads`` reads the
#: same integer); the prepared key starts after the id's comma.  Lines
#: that open otherwise — every other op, too — are decoded as usual, and
#: their bytes are neither copied nor hashed.
_ID_PREFIX = re.compile(rb'\{"id":(-?(?:0|[1-9][0-9]*)),(?="op":"query",)')


class DeadlineExceeded(Exception):
    """A request's ``deadline_ms`` budget ran out server-side."""


#: The active request's absolute deadline (event-loop clock), carried
#: across awaits within the connection's task.
_DEADLINE: contextvars.ContextVar[float | None] = contextvars.ContextVar(
    "repro_request_deadline", default=None
)


class _Prepared(NamedTuple):
    """One admitted ``query`` line: its request fields but the id, its
    resolution, and the guard the resolution was taken under."""

    params: dict[str, Any]
    resolved: ResolvedQuery
    guard: tuple


class _Line(NamedTuple):
    """A request line with an id prefix: the id, the cache key (the
    bytes after the prefix and the connection's ``login`` tenant), and
    the prepared entry it hit (None: a miss, decoded as usual)."""

    id: int
    key: tuple[bytes, str | None]
    hit: _Prepared | None


class PreparedLines:
    """One server's prepared ``query`` lines: a line whose bytes after its
    ``{"id":N,`` prefix repeat an admitted line skips decoding, parsing
    and :meth:`~repro.server.service.PreferenceService.resolve`, and is
    answered from the memoized resolution exactly as a fresh one would
    be.

    A resolution depends on the request text, the login tenant (both in
    the key) and what :meth:`~repro.server.service.PreferenceService
    .resolution_guard` reads; an entry whose guard moved is a miss, and
    the fresh resolution replaces it.  Lines are admitted on their second
    sighting, so one-off lines never take an entry.  Event-loop thread
    only.
    """

    def __init__(self, service: PreferenceService):
        self._service = service
        self._entries: OrderedDict[tuple[bytes, str | None], _Prepared] = (
            OrderedDict()
        )
        # Keyed by the key's hash: the counter never holds a line, and a
        # collision only admits a line one sighting early.
        self._sightings = Sightings()
        self.hits = 0
        self.misses = 0
        self.admissions = 0

    def find(self, line: bytes, tenant: str | None) -> _Line | None:
        """The line's id and key, and the entry it hits; None for a line
        without an id prefix."""
        match = _ID_PREFIX.match(line)
        if match is None:
            return None
        try:
            rid = int(match.group(1))
        except ValueError:  # past int's digit limit: decode it as usual
            return None
        key = (line[match.end():], tenant)
        entry = self._entries.get(key)
        if entry is not None:
            guard = self._service.resolution_guard(entry.resolved.tenant)
            if entry.guard == guard:
                self.hits += 1
            else:
                entry = None
        return _Line(rid, key, entry)

    def resolved(
        self,
        line: _Line,
        params: dict[str, Any],
        resolved: ResolvedQuery,
        guard: tuple,
    ) -> None:
        """Count a freshly resolved ``query`` line; admit it on its second
        sighting (at once when it replaces a stale entry).

        A duplicate ``"id"`` member after the prefix is what
        ``json.loads`` keeps, so a line holding one is never admitted: its
        hits would answer under the prefix's id."""
        self.misses += 1
        key = line.key
        stale = key in self._entries
        if not stale and not self._sightings.sight(hash(key), 2):
            return
        # The line decoded, so its body without the id member does too.
        if "id" in protocol.decode_message(b"{" + key[0]):
            return
        if not stale and len(self._entries) >= PREPARED_CAP:
            self._entries.popitem(last=False)
        self._entries[key] = _Prepared(params, resolved, guard)
        self.admissions += 1

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "admissions": self.admissions,
            "entries": len(self._entries),
        }


class _Connection:
    """One client connection: framed reads, serialized writes."""

    def __init__(
        self,
        server: "PreferenceServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        self.server = server
        self.reader = reader
        self.writer = writer
        self._write_lock = asyncio.Lock()
        self.closed = False
        #: Default tenant bound by the ``login`` op (per-request
        #: ``tenant`` fields override it).
        self.tenant: str | None = None
        #: Queries answered on the event loop since this connection's
        #: task last gave it up (see :data:`INLINE_STREAK`).
        self.inline_streak = 0

    async def send(self, message: dict[str, Any]) -> None:
        if self.closed:
            return
        data = protocol.encode_message(message)
        async with self._write_lock:
            try:
                rule = faults.check("conn.write",
                                    str(message.get("kind", "")))
                if rule is not None and rule.action == "drop":
                    self.abort()
                    return
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                self.closed = True

    def send_nowait(self, message: dict[str, Any]) -> None:
        """Fire-and-forget write for push traffic (delta fan-out).

        No ``drain()``: one subscriber that stopped reading must not
        stall the loop or queue unbounded coroutines.  Backpressure is
        the write-buffer cap instead — a consumer whose transport
        buffer exceeds it is disconnected (and counted as shed).
        """
        if self.closed:
            return
        data = protocol.encode_message(message)
        try:
            rule = faults.check("conn.write", str(message.get("kind", "")))
            if rule is not None and rule.action == "drop":
                self.abort()
                return
            self.writer.write(data)
        except (ConnectionError, RuntimeError):
            self.closed = True
            return
        cap = self.server.write_buffer_cap
        transport = self.writer.transport
        if cap and transport is not None:
            try:
                buffered = transport.get_write_buffer_size()
            except (AttributeError, RuntimeError):
                return
            if buffered > cap:
                self.server.service.metrics.record_shed("slow_subscriber")
                self.abort()

    def abort(self) -> None:
        """Hard-close: drop buffered output and reset the transport."""
        self.closed = True
        transport = self.writer.transport
        try:
            if transport is not None:
                transport.abort()
        except (ConnectionError, RuntimeError):
            pass

    async def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass

    async def run(self) -> None:
        prepared = self.server.prepared
        try:
            while not self.closed:
                try:
                    line = await self.reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self.send(protocol.error_response(
                        None, "message line too long", code="protocol"
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                found = prepared.find(line, self.tenant)
                if found is not None and found.hit is not None:
                    request = protocol.Request(
                        found.id, "query", found.hit.params
                    )
                else:
                    try:
                        request = protocol.parse_request(
                            protocol.decode_message(line)
                        )
                    except protocol.ProtocolError as exc:
                        await self.send(protocol.error_response(
                            None, str(exc), code="protocol"
                        ))
                        continue
                await self.server.handle_request(self, request, found)
        finally:
            await self.server.forget_connection(self)
            await self.close()


class PreferenceServer:
    """A line-delimited-JSON preference query server (see module docs)."""

    def __init__(
        self,
        service: PreferenceService,
        host: str = "127.0.0.1",
        port: int = 0,
        chunk_rows: int = protocol.DEFAULT_CHUNK_ROWS,
        max_pending: int = DEFAULT_MAX_PENDING,
        write_buffer_cap: int = DEFAULT_WRITE_BUFFER_CAP,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.chunk_rows = chunk_rows
        self.max_pending = max_pending
        self.write_buffer_cap = write_buffer_cap
        #: Executor dispatches in flight (event-loop thread only).
        self._pending = 0
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[_Connection] = set()
        #: Subscription id -> the connection it pushes to (event-loop
        #: thread only); the subscriptions themselves live in the
        #: service's table.
        self._subscribers: dict[int, _Connection] = {}
        self._stopped: asyncio.Event | None = None
        self._listener: Any = None
        #: This server's prepared ``query`` lines (per server: a
        #: resolution belongs to one service's session).
        self.prepared = PreparedLines(service)

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections; sets :attr:`port`."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connect, self.host, self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._listener = self.service.add_delta_listener(self._on_delta)

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()

    async def serve(self) -> None:
        """Start and serve until :meth:`stop` is called."""
        await self.start()
        await self.wait_stopped()

    async def stop(self) -> None:
        """Stop accepting, drop subscribers, close every connection."""
        if self._listener is not None:
            self.service.remove_delta_listener(self._listener)
            self._listener = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for sub_id in list(self._subscribers):
            self._unsubscribe(sub_id)
        for connection in list(self._connections):
            await connection.close()
        self._connections.clear()
        if self._stopped is not None:
            self._stopped.set()

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(self, reader, writer)
        self._connections.add(connection)
        await connection.run()

    async def forget_connection(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        for sub_id, owner in list(self._subscribers.items()):
            if owner is connection:
                self._unsubscribe(sub_id)

    def _unsubscribe(self, sub_id: int) -> None:
        self._subscribers.pop(sub_id, None)
        self.service.subscriptions.remove(sub_id)

    # -- delta fan-out ----------------------------------------------------------

    def _on_delta(
        self,
        recipients: tuple,
        delta: BMODelta | ViewError,
        relation: str,
        version: int,
    ) -> None:
        # Listeners fire on executor threads, under the mutation lock, in
        # commit order; hop onto the event loop (FIFO, so the order
        # holds) to touch connections.
        loop = self._loop
        if not recipients or loop is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(
            self._dispatch_delta, recipients, delta, relation, version
        )

    def _dispatch_delta(
        self,
        recipients: tuple,
        delta: BMODelta | ViewError,
        relation: str,
        version: int,
    ) -> None:
        """The one push path: data, revision and migration deltas alike."""
        for sub_id in recipients:
            connection = self._subscribers.get(sub_id)
            if connection is None or connection.closed:
                continue
            if isinstance(delta, ViewError):
                # The view was quarantined mid-stream: subscribers get
                # one explicit error delta (re-subscribing heals the
                # view and resumes the stream).
                message = protocol.delta_message(
                    sub_id, relation, version, (), (), error=delta.reason,
                )
            else:
                message = protocol.delta_message(
                    sub_id, relation, version, delta.entered, delta.exited,
                )
            self.service.metrics.record_delta_push()
            # Non-draining push: a subscriber that stopped reading hits
            # the write-buffer cap and is dropped, instead of this loop
            # (or a reviser) waiting on its socket.
            connection.send_nowait(message)

    # -- request routing --------------------------------------------------------

    def _shed_if_expired(self, when: str) -> None:
        assert self._loop is not None
        deadline = _DEADLINE.get()
        if deadline is not None and self._loop.time() >= deadline:
            raise DeadlineExceeded(f"deadline expired {when} execution")

    async def _run(self, fn, /, *args: Any, **kwargs: Any) -> Any:
        """Run a service call on the worker pool, off the event loop."""
        return await self._dispatch(
            getattr(fn, "__name__", str(fn)), partial(fn, *args, **kwargs)
        )

    async def _dispatch(self, name: str, call: Callable[[], Any]) -> Any:
        """One worker-pool dispatch; ``name`` is what ``executor.task``
        fault rules match on.

        Enforces the request deadline on both sides of the dispatch: an
        already-expired request never reaches the pool, and a result
        that took longer than its budget is shed instead of sent.
        """
        assert self._loop is not None
        self._shed_if_expired("before")

        def task() -> Any:
            faults.check("executor.task", name)
            return call()

        self._pending += 1
        try:
            result = await self._loop.run_in_executor(
                self.service.executor, task
            )
        finally:
            self._pending -= 1
        self._shed_if_expired("during")
        return result

    async def _query(
        self,
        connection: _Connection,
        params: dict[str, Any],
        line: _Line | None,
    ) -> QueryAnswer:
        """Answer one ``query``: resolve it here on the loop (or take the
        resolution of its prepared ``line``), then let the service answer
        on the spot if a current, uncontended view holds the rows — a
        lookup does not pay for a worker-pool round trip.

        Anything else — a first sighting, a ``WHERE``, a forced backend,
        a stale or poisoned view, a view mid-refresh — is dispatched to
        the pool with the already-resolved query.  The inline lane keeps
        the pool lane's contract: both deadline checks, and the
        ``executor.task`` fault site once per request.
        """
        service = self.service
        self._shed_if_expired("before")
        if line is not None and line.hit is not None:
            resolved = line.hit.resolved
        else:
            tenant = self._tenant_of(connection, params)
            guard = service.resolution_guard(tenant)
            resolved = service.resolve(
                sql=params.get("sql"), spec=params.get("spec"),
                tenant=tenant, term=params.get("term"),
            )
            if line is not None:
                self.prepared.resolved(line, params, resolved, guard)
        answer = service.answer_resident(resolved)
        if answer is None:
            connection.inline_streak = 0
            return await self._dispatch(
                "query", partial(service.answer, resolved)
            )
        faults.check("executor.task", "query")
        self._shed_if_expired("during")
        connection.inline_streak += 1
        if connection.inline_streak >= INLINE_STREAK:
            connection.inline_streak = 0
            await asyncio.sleep(0)
        return answer

    async def handle_request(
        self,
        connection: _Connection,
        request: protocol.Request,
        line: _Line | None = None,
    ) -> None:
        """Route one request; ``line``: its id-prefixed line, if it had
        one (see :class:`PreparedLines`)."""
        assert self._loop is not None
        deadline: float | None = None
        deadline_ms = request.params.get("deadline_ms")
        if deadline_ms is not None:
            try:
                deadline = self._loop.time() + float(deadline_ms) / 1000.0
            except (TypeError, ValueError):
                await connection.send(protocol.error_response(
                    request.id,
                    f"deadline_ms must be a number, got {deadline_ms!r}",
                ))
                return
        if request.op in CPU_OPS and self._pending >= self.max_pending:
            # Honest rejection beats an unbounded queue: the client can
            # back off or retry elsewhere; a queued request would only
            # time out later having wasted a worker.
            self.service.metrics.record_shed("overloaded")
            await connection.send(protocol.error_response(
                request.id,
                f"server overloaded: {self._pending} requests in flight "
                f"(admission watermark {self.max_pending})",
                code="overloaded",
            ))
            return
        token = _DEADLINE.set(deadline)
        try:
            await self._route(connection, request, line)
        except DeadlineExceeded as exc:
            self.service.metrics.record_shed("deadline")
            await connection.send(protocol.error_response(
                request.id, str(exc), code="deadline"
            ))
        except (ServiceError, TenancyError, protocol.ProtocolError) as exc:
            await connection.send(
                protocol.error_response(request.id, str(exc))
            )
        except StorageError as exc:
            # Degraded durability/mirror (e.g. checkpoint refused while
            # the breaker is open): structured, not "internal".
            await connection.send(protocol.error_response(
                request.id, str(exc), code="storage"
            ))
        except Exception as exc:  # internal fault: report, keep serving
            self.service.metrics.record_error()
            await connection.send(protocol.error_response(
                request.id, f"internal error: {exc}", code="internal"
            ))
        finally:
            _DEADLINE.reset(token)

    async def _route(
        self,
        connection: _Connection,
        request: protocol.Request,
        line: _Line | None = None,
    ) -> None:
        op, params, rid = request.op, request.params, request.id
        if op == "ping":
            await connection.send(protocol.ok_response(
                rid, pong=True, server=SERVER_NAME,
                protocol=protocol.PROTOCOL_VERSION,
            ))
        elif op == "health":
            await connection.send(protocol.ok_response(
                rid, health=self.health()
            ))
        elif op == "login":
            tenant = valid_tenant(params.get("tenant"))
            connection.tenant = tenant
            profile = self.service.tenancy.profiles.get(tenant)
            payload: dict[str, Any] = {"tenant": tenant}
            if profile is not None:
                payload["profile"] = profile.summary()
            await connection.send(protocol.ok_response(rid, **payload))
        elif op == "query":
            answer = await self._query(connection, params, line)
            for message in protocol.rows_chunks(
                rid, answer.rows, self.chunk_rows,
                source=answer.source, elapsed_ns=answer.elapsed_ns,
                relation=answer.relation,
            ):
                await connection.send(message)
        elif op == "explain":
            plan = await self._run(
                self.service.explain,
                sql=params.get("sql"), spec=params.get("spec"),
                tenant=self._tenant_of(connection, params),
                term=params.get("term"),
            )
            await connection.send(protocol.ok_response(rid, plan=plan))
        elif op == "insert":
            summary = await self._run(
                self.service.insert,
                params.get("relation", ""), params.get("rows") or [],
            )
            await connection.send(protocol.ok_response(rid, **summary))
        elif op == "delete":
            summary = await self._run(
                self.service.delete,
                params.get("relation", ""),
                rows=params.get("rows"), where=params.get("where"),
            )
            await connection.send(protocol.ok_response(rid, **summary))
        elif op == "subscribe":
            await self._subscribe(connection, request)
        elif op == "unsubscribe":
            sub_id = params.get("subscription")
            if self._subscribers.get(sub_id) is not connection:
                raise ServiceError(f"no such subscription {sub_id!r}")
            self._unsubscribe(sub_id)
            await connection.send(
                protocol.ok_response(rid, unsubscribed=sub_id)
            )
        elif op == "revise":
            relation = params.get("relation")
            prefer = params.get("prefer")
            to = params.get("to")
            if not relation or prefer is None or to is None:
                raise ServiceError(
                    "revise needs 'relation', 'prefer' (the current "
                    "preference) and 'to' (the revised one)"
                )
            # The service re-keys the view's subscriptions and pushes the
            # revision delta to them through _on_delta, like any delta.
            answer = await self._run(
                self.service.revise,
                relation, prefer, to,
                groupby=tuple(params.get("groupby") or ()),
                top=params.get("top"), ties=params.get("ties", "strict"),
            )
            await connection.send(
                protocol.ok_response(rid, **answer.summary)
            )
        elif op == "profile":
            await self._profile(connection, request)
        elif op == "checkpoint":
            info = await self._run(self.service.checkpoint)
            await connection.send(protocol.ok_response(rid, checkpoint=info))
        elif op == "metrics":
            stats = await self._run(self.service.stats)
            stats["prepared"] = self.prepared.stats()
            await connection.send(protocol.ok_response(rid, metrics=stats))
        elif op == "relations":
            await connection.send(protocol.ok_response(
                rid, relations=self.service.relations()
            ))
        elif op == "close":
            await connection.send(protocol.ok_response(rid, bye=True))
            await connection.close()
        else:  # unreachable: parse_request validated op
            raise protocol.ProtocolError(f"unroutable op {op!r}")

    def health(self) -> dict[str, Any]:
        """Cheap liveness/readiness snapshot (no executor hop).

        ``status`` is ``"ok"`` unless something is actively degraded —
        a tripped storage breaker or poisoned continuous views — in
        which case ``reasons`` says what, so a probe can alert with the
        cause instead of a boolean.
        """
        service = self.service
        catalog = service.session.catalog
        reasons: list[str] = []
        storage: dict[str, Any] = {"backend": None, "durable": False,
                                   "breaker": None}
        binding = getattr(service.session, "storage", None)
        if binding is not None:
            backend_stats = binding.backend.stats()
            breaker = backend_stats["breaker"]
            storage = {
                "backend": binding.backend.name,
                "durable": binding.durable,
                "breaker": breaker["state"],
                "dirty_relations": len(backend_stats["dirty"]),
                "blacklisted": len(backend_stats.get("blacklisted") or {}),
            }
            if breaker["state"] != "closed":
                failure = breaker.get("last_failure") or {}
                reasons.append(
                    f"storage breaker {breaker['state']} "
                    f"({failure.get('site', '?')}: "
                    f"{failure.get('error', '?')})"
                )
        poisoned = service.views.poisoned()
        if poisoned:
            reasons.append(f"{len(poisoned)} poisoned view(s)")
        return {
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "server": SERVER_NAME,
            "protocol": protocol.PROTOCOL_VERSION,
            "catalog": {
                "relations": len(catalog),
                "versions": catalog.versions(),
            },
            "storage": storage,
            "queue": {
                "pending": self._pending,
                "max_pending": self.max_pending,
            },
            "connections": len(self._connections),
            "subscriptions": len(self._subscribers),
            "views": {
                "live": len(service.views.stats()),
                "poisoned": len(poisoned),
            },
        }

    def _tenant_of(
        self, connection: _Connection, params: dict[str, Any]
    ) -> str | None:
        """The request's tenant: an explicit ``tenant`` field wins over
        the connection's ``login`` binding; absent both, untenanted."""
        tenant = params.get("tenant")
        if tenant is not None:
            return valid_tenant(tenant)
        return connection.tenant

    async def _profile(
        self, connection: _Connection, request: protocol.Request
    ) -> None:
        params, rid = request.params, request.id
        tenant = self._tenant_of(connection, params)
        if tenant is None:
            raise TenancyError(
                "profile needs a 'tenant' (or a prior login)"
            )
        action = params.get("action")
        tenancy = self.service.tenancy
        if action == "get":
            payload = await self._run(tenancy.profile_payload, tenant)
            await connection.send(protocol.ok_response(rid, profile=payload))
            return
        if action == "set":
            name = params.get("name")
            prefer = params.get("prefer")
            if not name or prefer is None:
                raise TenancyError("profile set needs 'name' and 'prefer'")
            profile, migrations = await self._run(
                tenancy.set_profile, tenant, name, prefer,
                default=bool(params.get("default")),
            )
        elif action == "merge":
            profile, migrations = await self._run(
                tenancy.merge_profile, tenant,
                params.get("terms") or {}, default=params.get("default"),
            )
        elif action == "delete":
            profile, migrations = await self._run(
                tenancy.delete_profile, tenant, params.get("name")
            )
        else:
            raise TenancyError(
                f"unknown profile action {action!r}; "
                "known: set, get, merge, delete"
            )
        summary = profile.summary() if profile is not None else None
        await connection.send(protocol.ok_response(
            rid, profile=summary, migrated=len(migrations),
        ))

    async def _subscribe(
        self, connection: _Connection, request: protocol.Request
    ) -> None:
        """Record the subscription, then read its optional snapshot.

        The id is taken and mapped to this connection first, so every
        delta emitted once the service records the subscription reaches
        it, and none is lost between the record and the snapshot.  Any
        failure after that — a deadline shed, a fault, a refused quota —
        removes the subscription again.
        """
        params = request.params
        relation = params.get("relation")
        prefer = params.get("prefer")
        tenant = self._tenant_of(connection, params)
        if not relation or (prefer is None and tenant is None):
            raise ServiceError("subscribe needs 'relation' and 'prefer'")
        shape = {
            "groupby": tuple(params.get("groupby") or ()),
            "top": params.get("top"),
            "ties": params.get("ties", "strict"),
        }
        sub_id = self.service.subscriptions.new_id()
        self._subscribers[sub_id] = connection
        try:
            if tenant is not None:
                view = await self._run(
                    self.service.tenancy.subscribe, tenant, relation, prefer,
                    term=params.get("term"), sub_id=sub_id, **shape,
                )
            else:
                view = await self._run(
                    self.service.subscribe, relation, prefer,
                    sub_id=sub_id, **shape,
                )
            payload: dict[str, Any] = {
                "subscription": sub_id,
                "relation": view.spec.relation,
                "view": view.spec.describe(),
            }
            if params.get("snapshot"):
                # Large views copy many rows — keep that off the event
                # loop.  The paired version lets the client discard delta
                # pushes with version <= snapshot version (included here).
                rows, version = await self._run(view.snapshot)
                payload["rows"] = rows
                payload["version"] = version
        except BaseException:
            self._unsubscribe(sub_id)
            raise
        await connection.send(protocol.ok_response(request.id, **payload))


# -- threaded embedding --------------------------------------------------------


class ServerHandle:
    """A server running on a background thread, plus its shutdown switch."""

    def __init__(
        self,
        server: PreferenceServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def service(self) -> PreferenceService:
        return self.server.service

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the server and join its thread (idempotent)."""
        if self._thread.is_alive() and not self._loop.is_closed():
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            )
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def run_in_thread(
    service: PreferenceService,
    host: str = "127.0.0.1",
    port: int = 0,
    start_timeout: float = 10.0,
    **server_kwargs: Any,
) -> ServerHandle:
    """Boot a :class:`PreferenceServer` on a daemon thread.

    Returns once the socket is bound, with the ephemeral port resolved —
    the embedding the sync client, tests, and examples use::

        handle = run_in_thread(PreferenceService({"car": rows}))
        client = PreferenceClient(port=handle.port)
        ...
        handle.stop()

    Extra keyword arguments (``max_pending``, ``write_buffer_cap``,
    ``chunk_rows``) pass through to :class:`PreferenceServer`.
    """
    server = PreferenceServer(service, host, port, **server_kwargs)
    started = threading.Event()
    failure: list[BaseException] = []
    holder: dict[str, Any] = {}

    def main() -> None:
        async def body() -> None:
            try:
                await server.start()
                holder["loop"] = asyncio.get_running_loop()
            except BaseException as exc:  # bind failures land on the caller
                failure.append(exc)
                return
            finally:
                started.set()
            await server.wait_stopped()

        asyncio.run(body())

    thread = threading.Thread(
        target=main, name="preference-server", daemon=True
    )
    thread.start()
    if not started.wait(start_timeout):
        raise RuntimeError("preference server failed to start in time")
    if failure:
        raise failure[0]
    return ServerHandle(server, holder["loop"], thread)
