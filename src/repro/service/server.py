"""The asyncio front end: JSON-lines TCP access to a QueryService.

One :class:`QueryServer` wraps one :class:`~repro.service.core
.QueryService`.  Every client connection speaks the protocol in
``repro.service.protocol``; requests are served strictly in arrival
order per connection, and the service core itself is only ever touched
from the event loop's single thread, so no locking is needed.

Bursts: each read takes whatever the client has pipelined (up to
64 KiB) and serves its complete lines as one burst.  Consecutive
``feed`` lines on one stream form a run, fed to the processor as one
chunk (:meth:`QueryService.feed_records`); any other op ends the run
first, so it sees every feed before it.  The burst's acks are written
in request order, then the pump runs once.

Subscriptions and the dirty-tenant pump: a connection that sends
``subscribe`` for a tenant receives that tenant's results as push
lines.  The service keeps the tenants holding undelivered results in
:attr:`QueryService.dirty`; after each burst the pump walks only that
set, drains each tenant that has a live subscriber, writes every result
line once to each of its subscribers, and then awaits ``drain()`` once
per subscriber connection.  A burst that produced nothing pumps
nothing.  Results produced while a tenant has no subscriber stay in the
bounded pending queue (shedding oldest beyond the tenant's quota), and
the tenant stays dirty, until someone subscribes or drains explicitly.
"""

from __future__ import annotations

import asyncio
from itertools import groupby, takewhile
from operator import itemgetter
from typing import Any

from repro.errors import SaseError, ServiceError
from repro.service import protocol
from repro.service.core import QueryService
from repro.service.quotas import TenantQuota

# One read's worth of pipelined requests, and the longest request line
# (asyncio's default stream limit); a longer line closes the connection.
READ_SIZE = LINE_LIMIT = 64 * 1024


def _failure(request_id: Any, exc: Exception) -> dict:
    return protocol.error(request_id, str(exc) if isinstance(exc, SaseError)
                          else f"internal error: {type(exc).__name__}: {exc}")


class QueryServer:
    """Serve one :class:`QueryService` over TCP JSON lines."""

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0):
        self.service = service
        self.host = host
        self.port = port          # 0 -> ephemeral; real port after start
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._subscribers: dict[str, set[asyncio.StreamWriter]] = {}
        self._connections: set[asyncio.StreamWriter] = set()
        self.connections_served = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a client sends ``shutdown`` (or :meth:`stop`)."""
        if self._server is None:
            await self.start()
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Close live connections so their handler tasks finish on their
        # own (EOF) instead of being cancelled at loop teardown.
        for writer in list(self._connections):
            writer.close()
        for _ in range(1000):
            if not self._connections:
                break
            await asyncio.sleep(0.001)

    # -- connection handling --------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.connections_served += 1
        self._connections.add(writer)
        tail = b""
        try:
            while not self._shutdown.is_set():
                try:
                    data = await reader.read(READ_SIZE)
                except ConnectionResetError:
                    break
                # At EOF an unterminated last line is still a request.
                lines = (tail + data).split(b"\n")
                tail = lines.pop() if data else b""
                fitting = list(takewhile(
                    lambda line: len(line) <= LINE_LIMIT, lines))
                closing = not data or len(fitting) < len(lines) \
                    or len(tail) > LINE_LIMIT
                writer.write(self._serve(fitting, writer))
                await self._pump()
                try:
                    await writer.drain()
                except ConnectionResetError:
                    break
                if closing:
                    break
        finally:
            self._forget(writer)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _forget(self, writer: asyncio.StreamWriter) -> None:
        for subscribers in self._subscribers.values():
            subscribers.discard(writer)

    def _serve(self, lines: list[bytes],
               writer: asyncio.StreamWriter) -> bytes:
        """Answer one burst of request lines; returns its acks, in
        request order.  Consecutive feeds on one stream form a run, fed
        as one chunk; any other line ends the run first."""
        acks: list[dict] = []
        parsed = map(self._parse, filter(bytes.strip, lines))
        for stream, group in groupby(parsed, key=itemgetter(2)):
            if stream is not None:
                acks += self._feed_run(list(group), stream)
                continue
            for request_id, request, _ in group:
                try:
                    if isinstance(request, Exception):
                        raise request
                    acks.append(self._execute(request, writer))
                except Exception as exc:   # noqa: BLE001 - stay connected
                    acks.append(_failure(request_id, exc))
        return b"".join(map(protocol.encode, acks))

    def _parse(self, line: bytes) -> tuple[Any, Any, str | None]:
        """``(id, request or the error refusing the line, stream)``;
        the stream is None unless the request is a feed."""
        request_id = None
        try:
            message = protocol.parse_line(line)
            request_id = message.get("id")
            request = protocol.validate_request(message)
        except Exception as exc:   # noqa: BLE001 - answered in its slot
            return request_id, exc, None
        stream = request.get("stream", self.service.processor.DEFAULT_STREAM)
        return request_id, request, \
            stream if request["op"] == "feed" else None

    def _feed_run(self, run: list[tuple], stream: str) -> list[dict]:
        """The acks of a run of feeds, fed as one chunk; a chunk that
        raises answers every feed of the run with the error."""
        try:
            outcomes = self.service.feed_records(
                [(request["tenant"], request["event"])
                 for _, request, _ in run], stream)
        except Exception as exc:   # noqa: BLE001 - the run fails as a unit
            outcomes = [exc] * len(run)
        return [_failure(request_id, outcome)
                if isinstance(outcome, Exception)
                else protocol.ok(request_id, results=outcome)
                for (request_id, _, _), outcome in zip(run, outcomes)]

    def _execute(self, request: dict,
                 writer: asyncio.StreamWriter) -> dict:
        service = self.service
        op = request["op"]
        request_id = request.get("id")
        tenant = request.get("tenant")
        if op == "ping":
            return protocol.ok(request_id, pong=True)
        if op == "register":
            quota = None
            if isinstance(request.get("quota"), dict):
                quota = TenantQuota.from_dict(request["quota"])
            outcome = service.register(tenant, request["name"],
                                       request["query"], quota=quota)
            return protocol.ok(request_id, **outcome)
        if op == "withdraw":
            service.withdraw(tenant, request["name"])
            return protocol.ok(request_id)
        if op == "subscribe":
            service.tenant(tenant)   # must exist
            self._subscribers.setdefault(tenant, set()).add(writer)
            return protocol.ok(request_id)
        if op == "unsubscribe":
            self._subscribers.get(tenant, set()).discard(writer)
            return protocol.ok(request_id)
        if op == "drain":
            results = service.drain(tenant,
                                    int(request.get("limit", 0)))
            return protocol.ok(request_id, results=results)
        if op == "flush":
            return protocol.ok(request_id, results=service.flush())
        if op == "stats":
            return protocol.ok(request_id, stats=service.stats(),
                               tenants=service.tenant_gauges())
        if op == "shutdown":
            self._shutdown.set()
            return protocol.ok(request_id)
        raise ServiceError(f"op {op!r} is not implemented")

    async def _pump(self) -> None:
        """Drain each dirty tenant that has a live subscriber and write
        its result lines to every such subscriber; then wait for each
        written-to connection once."""
        written: dict[asyncio.StreamWriter, None] = {}
        for tenant in list(self.service.dirty):
            live = [writer for writer in self._subscribers.get(tenant, ())
                    if not writer.is_closing()]
            if not live:
                continue
            block = b"".join(protocol.encode(protocol.push_result(result))
                             for result in self.service.drain(tenant))
            for subscriber in live:
                subscriber.write(block)
                written[subscriber] = None
        for subscriber in written:
            try:
                await subscriber.drain()
            except (ConnectionResetError, BrokenPipeError):
                self._forget(subscriber)


def serve(service: QueryService, host: str = "127.0.0.1",
          port: int = 0, ready: Any = None) -> None:
    """Run a server until a client asks it to shut down.  *ready*, when
    given, is called with the bound port once the socket is listening
    (the CLI prints it; tests grab it)."""

    async def _run() -> None:
        server = QueryServer(service, host, port)
        await server.start()
        if ready is not None:
            ready(server.port)
        await server.serve_until_shutdown()

    asyncio.run(_run())
