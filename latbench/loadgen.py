"""The load generator: one asyncio process speaking HTTP/1.1 to the server.

Two drivers, one per arrival pattern:

* :func:`open_loop` sends each request at its scheduled due time, on
  keep-alive connections with pipelining, whether or not earlier
  answers have arrived (independent users).  Latency runs from the due
  time, so a stall is charged to every request it delays, and the lag
  between due time and actual send is recorded for every request.
* :func:`waves` writes a whole wave of requests back to back on one
  connection and sends the next wave after the last answer, the shape
  ``ServeClient.submit_many`` produces.  Waves of one request are a
  closed loop: one caller that waits for each answer.

Every driver returns one :class:`Sample` per request, in request order.
The framing is deliberately minimal: ``Content-Length`` bodies only,
which is all the server speaks.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence


#: The open loop sleeps until this long before a request is due, then
#: polls the event loop (still reading responses) until the due time.
#: The loop's timers wake up to a millisecond late, which would add
#: that much send lag to every open-loop latency.
SPIN_S = 0.002


@dataclass
class Sample:
    """One request's client-side record (times from ``time.perf_counter``)."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: Optional[dict] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1e3


def encode_post(host: str, port: int, payload: dict) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    head = (
        f"POST /query HTTP/1.1\r\nHost: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    return head + body


async def read_response(reader: asyncio.StreamReader):
    """``(status, decoded JSON body)`` of the next response on the stream."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, json.loads(body) if body else None


class _Connection:
    """One pipelined keep-alive connection: writes go out immediately,
    a reader task matches responses to requests in send order."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: "asyncio.Queue[Optional[Sample]]" = asyncio.Queue()
        self.task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        while True:
            sample = await self.pending.get()
            if sample is None:
                return
            try:
                sample.status, sample.body = await read_response(self.reader)
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                sample.error = f"{type(exc).__name__}: {exc}"
            sample.done = time.perf_counter()

    def send(self, sample: Sample, frame: bytes) -> None:
        sample.sent = time.perf_counter()
        self.writer.write(frame)
        self.pending.put_nowait(sample)

    async def close(self) -> None:
        self.pending.put_nowait(None)
        await self.task
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


async def _connect(host: str, port: int, n: int) -> List[_Connection]:
    conns = []
    for _ in range(n):
        reader, writer = await asyncio.open_connection(host, port)
        conns.append(_Connection(reader, writer))
    return conns


async def _open_loop(host, port, payloads, offsets, n_connections):
    conns = await _connect(host, port, n_connections)
    frames = [encode_post(host, port, p) for p in payloads]
    start = time.perf_counter() + 0.05
    samples = [Sample(i, start + off) for i, off in enumerate(offsets)]
    for i, sample in enumerate(samples):
        delay = sample.due - time.perf_counter()
        if delay > SPIN_S:
            await asyncio.sleep(delay - SPIN_S)
        while time.perf_counter() < sample.due:
            await asyncio.sleep(0)
        conns[i % len(conns)].send(sample, frames[i])
    for conn in conns:
        await conn.close()
    return samples


async def _waves(host, port, waves_, duration, after):
    reader, writer = await asyncio.open_connection(host, port)
    samples = []
    deadline = time.perf_counter() + duration
    try:
        for wave in waves_:
            if time.perf_counter() >= deadline:
                break
            frames = b"".join(encode_post(host, port, p) for p in wave)
            t0 = time.perf_counter()
            writer.write(frames)
            for _ in wave:
                sample = Sample(len(samples), t0, sent=t0)
                try:
                    sample.status, sample.body = await read_response(reader)
                except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                    sample.error = f"{type(exc).__name__}: {exc}"
                sample.done = time.perf_counter()
                samples.append(sample)
                if sample.error:
                    return samples
                if after is not None:
                    after(len(samples))
    finally:
        writer.close()
    return samples


def open_loop(
    host: str,
    port: int,
    payloads: Sequence[dict],
    offsets: Sequence[float],
    n_connections: int,
) -> List[Sample]:
    """Send ``payloads[i]`` at ``offsets[i]`` seconds after the start,
    round-robin over ``n_connections`` pipelined connections."""
    return asyncio.run(_open_loop(host, port, payloads, offsets, n_connections))


def waves(
    host: str,
    port: int,
    waves_: Iterable[Sequence[dict]],
    duration: float,
    after: Optional[Callable[[int], None]] = None,
) -> List[Sample]:
    """Pipelined waves on one connection, until ``duration`` seconds
    have passed; a request's latency runs from its wave's send.
    ``after(n)`` runs once the ``n``-th request has been answered."""
    return asyncio.run(_waves(host, port, waves_, duration, after))
