"""One-process asyncio load generator for ``repro serve --listen``.

Every request frame is encoded before a phase starts, so a measured phase
only writes prebuilt bytes and stamps times. Replies are matched to frames
by the integer ``id`` each frame carries; on the hot path only a reply's
``ok`` flag and ``id`` are read (:func:`parse_reply`), and the replies a
check needs are kept whole and parsed after the run.

- :func:`open_loop` models independent users: frame ``i`` is due at
  ``due[i]`` whatever the server does. Latency counts from the due time,
  so a stall also charges the requests due behind it, and
  ``sent[i] - due[i]`` records how late the generator itself ran.
- :func:`closed_loop` models callers that wait: each connection keeps a
  fixed window of frames in flight and sends the next one as soon as a
  reply lands, which drives the server to saturation.
"""

from __future__ import annotations

import asyncio
import json
import selectors

from spans import perf


def run(coro):
    """Run ``coro`` on an event loop whose timers are exact to the
    microsecond. The default epoll selector rounds every wait up to a whole
    millisecond, so an open loop would either send up to 1 ms late or spin
    until each frame is due; a spinning generator takes a core from the
    server it measures and makes the host's scheduler count this machine as
    busy. ``select`` takes its timeout in microseconds, and a run watches
    only a few sockets."""
    with asyncio.Runner(
        loop_factory=lambda: asyncio.SelectorEventLoop(selectors.SelectSelector())
    ) as runner:
        return runner.run(coro)


def parse_reply(line: bytes) -> tuple[bool, object]:
    """``(ok, id)`` of one reply frame. Skips the full JSON parse when the
    ``id`` closes the object, as it does in every reply the server writes."""
    pos = line.rfind(b',"id":')
    if pos > 0 and line.endswith(b"}"):
        try:
            return b'"ok":true' in line, int(line[pos + 6 : -1])
        except ValueError:
            pass
    reply = json.loads(line)
    return reply.get("ok") is True, reply.get("id")


class Wire:
    """Reply bookkeeping shared by the connections of one run, indexed by
    frame id."""

    def __init__(self, n_ids: int, keep=()) -> None:
        self.recv = [0.0] * n_ids
        self.ok = bytearray(n_ids)
        self.keep = set(keep)
        self.kept: dict[int, bytes] = {}
        self.orphans = 0  # replies that carry none of our ids
        self.refill = None  # closed-loop hook: refill(conn, n_replies)

    def on_lines(self, conn: "Conn", lines: list[bytes], now: float) -> None:
        for line in lines:
            ok, rid = parse_reply(line)
            if not isinstance(rid, int) or not 0 <= rid < len(self.recv):
                self.orphans += 1
                continue
            self.recv[rid] = now
            self.ok[rid] = ok
            if rid in self.keep:
                self.kept[rid] = line
        if self.refill is not None:
            self.refill(conn, len(lines))


class Conn(asyncio.Protocol):
    """One client connection; counts the frames it sent and the replies it
    received."""

    def __init__(self, wire: Wire) -> None:
        self.wire = wire
        self.transport = None
        self.tail = b""
        self.sent = 0
        self.replies = 0
        self.lost = False

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = perf()
        lines = (self.tail + data).split(b"\n")
        self.tail = lines.pop()
        if lines:
            self.replies += len(lines)
            self.wire.on_lines(self, lines, now)

    def connection_lost(self, exc) -> None:
        self.lost = True

    def send(self, payload: bytes, frames: int = 1) -> None:
        self.transport.write(payload)
        self.sent += frames


async def connect(host: str, port: int, wire: Wire, n: int) -> list[Conn]:
    loop = asyncio.get_running_loop()
    conns = []
    for _ in range(n):
        _, conn = await loop.create_connection(lambda: Conn(wire), host, port)
        conns.append(conn)
    return conns


async def close_all(conns: list[Conn]) -> None:
    for conn in conns:
        conn.transport.close()
    await asyncio.sleep(0)  # lets connection_lost run before the loop ends


async def open_loop(
    conns: list[Conn], frames: list[bytes], due: list[float], sent: list[float]
) -> None:
    """Send ``frames[i]`` on ``conns[i]`` at ``due[i]``; stamp ``sent[i]``."""
    i, n = 0, len(frames)
    while i < n:
        wait = due[i] - perf()
        if wait > 0:
            await asyncio.sleep(wait)
        now = perf()
        while i < n and due[i] <= now:
            conns[i].send(frames[i])
            sent[i] = now
            i += 1


async def closed_loop(
    conns: list[Conn], frames: list[bytes], first: int, window: int, seconds: float,
    sent: list[float],
) -> tuple[int, float, float]:
    """Keep ``window`` frames in flight on each connection for ``seconds``,
    sending ``frames`` from index ``first`` on.

    Returns ``(index of the next unsent frame, start, end)``; ``sent[j]``
    stamps frame ``j``.
    """
    targets = set(conns)
    n = len(frames)
    nxt = first
    start = perf()
    end = start + seconds

    def push(conn: Conn, k: int) -> None:
        nonlocal nxt
        now = perf()
        m = min(k, n - nxt)
        if m <= 0 or now >= end:
            return
        conn.send(b"".join(frames[nxt : nxt + m]), m)
        sent[nxt : nxt + m] = [now] * m
        nxt += m

    def refill(conn: Conn, k: int) -> None:
        if conn in targets:
            push(conn, k)

    wire = conns[0].wire
    wire.refill = refill
    try:
        for conn in conns:
            push(conn, window)
        await asyncio.sleep(end - perf())
    finally:
        wire.refill = None
    return nxt, start, end


async def settle(conns: list[Conn], timeout_s: float) -> bool:
    """Wait until every connection has a reply for each frame it sent."""
    deadline = perf() + timeout_s
    while True:
        behind = [c for c in conns if c.replies < c.sent]
        if not behind:
            return True
        if all(c.lost for c in behind) or perf() >= deadline:
            return False
        await asyncio.sleep(0.002)
