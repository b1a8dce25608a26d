"""Open-loop load over two binary-protocol connections, one thread.

Requests are due on a fixed schedule (``rate`` per second, alternating
between the two connections) and are sent when due whether or not
earlier ones were answered.  Each request's latency runs from its
*scheduled* send time to its reply, so a stall also charges the wait it
imposes on the requests behind it; how late the generator itself sent
(``lag``, scheduled time to the moment the generator turned to the
request) is recorded per request.

The generator keeps at most ``max_inflight`` requests outstanding per
connection — the server's default per-client pipelining bound — so an
overloaded server shows up as latency, not as refusals.
"""

from __future__ import annotations

import asyncio
import time


class Outcome:
    """One request of a rung."""

    __slots__ = ("sql", "due", "ready", "sent", "received", "opcode", "body", "done")

    def __init__(self, sql, due, done):
        self.sql = sql
        self.due = due
        self.done = done
        self.ready = 0.0
        self.sent = 0.0
        self.received = 0.0
        self.opcode = None
        self.body = None


class _Connection:
    def __init__(self, reader, writer, max_inflight: int):
        self.reader = reader
        self.writer = writer
        self.slots = asyncio.Semaphore(max_inflight)
        self.pending: dict[int, object] = {}
        self.next_id = 0
        self.task = None


class OpenLoop:
    def __init__(self, host: str, port: int, max_inflight: int = 16):
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.connections: list[_Connection] = []

    async def connect(self, count: int = 2) -> None:
        for _ in range(count):
            reader, writer = await asyncio.open_connection(self.host, self.port)
            connection = _Connection(reader, writer, self.max_inflight)
            connection.task = asyncio.create_task(self._read(connection))
            self.connections.append(connection)

    async def close(self) -> None:
        for connection in self.connections:
            connection.writer.close()
            try:
                await connection.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            connection.task.cancel()
            try:
                await connection.task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
        self.connections = []

    async def _read(self, connection: _Connection) -> None:
        from repro.serve import wire

        reader = connection.reader
        while True:
            try:
                header = await reader.readexactly(wire.HEADER_SIZE)
                opcode, length, reply_id = wire.decode_header(header)
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            received = time.perf_counter()
            echo, _ = wire.split_trace_hint(reply_id)
            waiter = connection.pending.pop(echo, None)
            if waiter is None:
                continue
            connection.slots.release()
            if isinstance(waiter, Outcome):
                waiter.received = received
                waiter.opcode = opcode
                waiter.body = body
                waiter.done.set_result(None)
            else:
                waiter.set_result((opcode, body))
        for waiter in connection.pending.values():
            future = waiter.done if isinstance(waiter, Outcome) else waiter
            if not future.done():
                future.set_exception(ConnectionError("server closed the connection"))

    def _send(self, connection: _Connection, request: dict, waiter) -> None:
        from repro.serve import wire

        connection.next_id += 1
        request_id = connection.next_id
        connection.pending[request_id] = waiter
        connection.writer.write(wire.encode_request(request, request_id))

    async def call(self, op: str, **fields) -> dict:
        """One control request (not timed) on the first connection."""
        from repro.serve import wire

        connection = self.connections[0]
        await connection.slots.acquire()
        future = asyncio.get_running_loop().create_future()
        self._send(connection, {"op": op, **fields}, future)
        opcode, body = await future
        response = wire.unpackb(body)
        if opcode != wire.OP_REPLY or not response.get("ok"):
            raise RuntimeError(f"{op} failed: {response.get('error')}")
        return response

    async def rung(self, rate: float, duration: float, sqls, timeout: float = 60.0):
        """Offer ``rate`` queries/s for ``duration`` seconds; returns the
        outcomes once every reply is in (or ``timeout`` passed)."""
        loop = asyncio.get_running_loop()
        count = max(int(rate * duration), 1)
        start = time.perf_counter() + 0.005
        outcomes = []
        connections = self.connections
        for index in range(count):
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            connection = connections[index % len(connections)]
            outcome = Outcome(next(sqls), due, loop.create_future())
            outcome.ready = time.perf_counter()
            await connection.slots.acquire()
            outcome.sent = time.perf_counter()
            self._send(
                connection, {"op": "query", "sql": outcome.sql}, outcome
            )
            outcomes.append(outcome)
        await asyncio.wait(
            [outcome.done for outcome in outcomes], timeout=timeout
        )
        return outcomes
