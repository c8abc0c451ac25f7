"""`SketchServer`: the asyncio socket front-end over `SketchService`.

Many concurrent clients, one process, one engine. Each connection speaks
the newline-delimited protocol of :mod:`repro.serve.protocol` and may
pipeline requests. The read loop decodes every frame inline. A
single-query frame is answered right there on an answer-cache hit; on a
miss it joins its sketch's block for the current event-loop iteration,
and at the end of the iteration each block goes to the sketch's
micro-batcher in one :meth:`SketchService.submit_block`.

A compiled engine with no accumulation window (the shipped flags)
answers the block right there, on the loop thread: its predict is
bounded (microseconds per row, at most one iteration's misses), far
cheaper than a round trip through a flush worker thread, so its replies
are written at once with no deadline timer and no cross-thread callback.
Any other block is queued for the batcher's flush workers, which take
whatever is queued when they come free and check execution contexts out
of the engine's replica pool (:mod:`repro.core.compiled`), so concurrent
flushes run in parallel instead of queueing on a lock. When such a
block resolves, one thread-safe callback writes all of its replies, and
one timer per block enforces the request deadline.

Every other frame type (batch, stats, epoch, ingest) becomes its own
asyncio task over a small thread pool, so a slow batch never blocks the
single queries behind it.

Robustness contract (exercised by ``tests/test_server.py``):

- a malformed or oversized line yields one :class:`ErrorResponse` and the
  connection stays alive;
- reads are bounded — a line beyond the hard stream limit is discarded
  without buffering it — and so are unsent replies: past
  ``WRITE_BUFFER_BOUND`` bytes the read loop waits for the client to read;
- every request that waits on another thread has a deadline
  (``request_timeout_s``) and times out into a ``timeout`` error instead
  of wedging the connection;
- :meth:`stop` with ``drain=True`` answers everything in flight before
  closing — no request is dropped.

:func:`start_server_thread` runs the whole loop in a daemon thread and
returns a handle with ``.address`` / ``.stop()``, which is how the CLI
and the tests embed a live server.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro.serve import protocol
from repro.serve.protocol import (
    BatchQueryRequest,
    BatchQueryResponse,
    EpochRequest,
    EpochResponse,
    ErrorResponse,
    IngestRequest,
    IngestResponse,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
)
from repro.serve.service import SketchService, error_response

#: Unsent reply bytes a connection may buffer before its read loop stops
#: reading and waits for the client to drain them, so a client that
#: pipelines without reading cannot grow server memory.
WRITE_BUFFER_BOUND = 1 << 16


class _Block:
    """The single-query misses for one sketch in one loop iteration.

    ``done`` resolves once every waiter has its reply (answer or error);
    connections and :meth:`SketchServer.stop` await it.
    """

    __slots__ = ("sketch", "rows", "waiters", "done", "future", "timer")

    def __init__(self, sketch: str | None, done: asyncio.Future) -> None:
        self.sketch = sketch
        self.rows: list[np.ndarray] = []
        self.waiters: list[tuple[asyncio.StreamWriter, QueryRequest]] = []
        self.done = done
        self.future: Future | None = None
        self.timer: asyncio.TimerHandle | None = None


class SketchServer:
    """Serve a :class:`SketchService` over a TCP socket.

    Parameters
    ----------
    service:
        The registry/batcher/cache façade to answer from. The server does
        not own it — callers that built the service close it themselves
        after :meth:`stop`.
    host, port:
        Listen address; ``port=0`` picks a free port (read it back from
        :attr:`address` after :meth:`start`).
    max_line_bytes:
        Per-frame byte bound. Lines over this are answered with an
        ``oversized`` error; lines over roughly twice this never reach
        memory at once (the stream discards to the next newline).
    request_timeout_s:
        Deadline per request, measured from decode to answer. Misses
        resolve to a ``timeout`` error and cancel the pending Future.
        Single queries answered on the loop thread (a compiled engine
        with no accumulation window) finish before any deadline could
        fire.
    """

    def __init__(
        self,
        service: SketchService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_line_bytes: int = protocol.MAX_LINE_BYTES,
        request_timeout_s: float = 30.0,
    ) -> None:
        if max_line_bytes < 64:
            raise ValueError("max_line_bytes must be >= 64")
        if request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        self.service = service
        self.host = host
        self.port = int(port)
        self.max_line_bytes = int(max_line_bytes)
        self.request_timeout_s = float(request_timeout_s)
        self.address: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, getattr(service, "workers", 1) + 1),
            thread_name_prefix="repro-serve",
        )
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        # Request tasks and block ``done`` futures not yet answered.
        self._inflight: set[asyncio.Future] = set()
        # This iteration's blocks, by (sketch name, query width).
        self._blocks: dict[tuple[str | None, int], _Block] = {}
        self._draining = False
        self._stopped = False
        # Counters (loop thread only; surfaced under stats()["server"]).
        self.n_connections = 0
        self.n_requests = 0
        self.n_errors = 0

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind and start accepting connections (call once, on the loop)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        # Stream limit sits above the frame bound so a line slightly over
        # max_line_bytes still arrives whole and gets a proper per-frame
        # `oversized` error; only grossly-over lines hit the discard path.
        self._server = await asyncio.start_server(
            self._handle_conn,
            self.host,
            self.port,
            limit=self.max_line_bytes + 1024,
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, settle in-flight work, close connections.

        ``drain=True`` (default) waits until every request accepted before
        the stop has its reply written — nothing is dropped.
        ``drain=False`` cancels them instead.
        """
        if self._stopped:
            return
        self._stopped = True
        self._draining = True  # frames decoded from here on answer shutting-down
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if not drain:
            for pending in list(self._inflight):
                pending.cancel()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        self._executor.shutdown(wait=True)

    def server_stats(self) -> dict:
        return {
            "connections": self.n_connections,
            "open_connections": len(self._writers),
            "requests": self.n_requests,
            "errors": self.n_errors,
            "inflight": len(self._inflight),
            "max_line_bytes": self.max_line_bytes,
            "request_timeout_s": self.request_timeout_s,
        }

    # ------------------------------------------------------------ connections

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        self.n_connections += 1
        owed: set[asyncio.Future] = set()  # this connection's unanswered work
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF; a final unterminated frame still counts
                    if not line.strip():
                        break
                except asyncio.LimitOverrunError:
                    await self._discard_to_newline(reader)
                    self._reply(
                        writer,
                        ErrorResponse(
                            error=(
                                "request line exceeds the "
                                f"{self.max_line_bytes}-byte bound"
                            ),
                            code="oversized",
                        ),
                    )
                    continue
                except (ConnectionResetError, BrokenPipeError):
                    break
                stripped = line.rstrip(b"\r\n")
                if not stripped.strip():
                    if not line.endswith(b"\n"):
                        break
                    continue
                pending = self._on_frame(stripped, writer)
                if pending is not None and pending not in owed:
                    owed.add(pending)
                    pending.add_done_callback(owed.discard)
                if writer.transport.get_write_buffer_size() > WRITE_BUFFER_BOUND:
                    try:
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        break
                if not line.endswith(b"\n"):
                    break  # that was the EOF frame
        finally:
            while owed:
                await asyncio.gather(*list(owed), return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    async def _discard_to_newline(self, reader: asyncio.StreamReader) -> None:
        """Drop the rest of an over-limit line without buffering it whole."""
        while True:
            try:
                await reader.readuntil(b"\n")
                return
            except asyncio.LimitOverrunError as exc:
                # `consumed` bytes are buffered and all belong to the
                # oversized line (or end exactly at its newline) — eat them
                # and keep scanning.
                await reader.readexactly(exc.consumed)
            except (asyncio.IncompleteReadError, ConnectionResetError):
                return

    def _reply(self, writer: asyncio.StreamWriter, response: Response) -> None:
        """Queue one reply line on a connection (loop thread only)."""
        self._reply_all([(writer, response)])

    def _reply_all(self, replies) -> None:
        """Queue ``(writer, response)`` replies, one write per connection."""
        lines: dict[asyncio.StreamWriter, list[bytes]] = {}
        for writer, response in replies:
            if isinstance(response, ErrorResponse):
                self.n_errors += 1
            lines.setdefault(writer, []).append(protocol.encode_safe(response).encode("utf-8"))
        for writer, out in lines.items():
            if not writer.is_closing():
                out.append(b"")
                writer.write(b"\n".join(out))

    def _track(self, pending: asyncio.Future) -> asyncio.Future:
        self._inflight.add(pending)
        pending.add_done_callback(self._inflight.discard)
        return pending

    # --------------------------------------------------------------- requests

    def _on_frame(self, line: bytes, writer: asyncio.StreamWriter) -> asyncio.Future | None:
        """Answer, queue or dispatch one frame; returns what its reply awaits."""
        self.n_requests += 1
        rid: object = None
        try:
            protocol.check_line_size(line, self.max_line_bytes)
            request = protocol.decode_request(line)
            rid = request.id
            if self._draining:
                raise ProtocolError("server is draining", code="shutting-down")
            if isinstance(request, QueryRequest):
                return self._on_query(request, writer)
        except Exception as exc:
            self._reply(writer, error_response(exc, rid, self.request_timeout_s))
            return None
        return self._track(asyncio.ensure_future(self._answer(request, writer)))

    def _on_query(
        self, request: QueryRequest, writer: asyncio.StreamWriter
    ) -> asyncio.Future | None:
        """A cache hit replies now; a miss joins this iteration's block."""
        q = np.asarray(request.q, dtype=np.float64)
        hit = self.service.cached(q, request.sketch)
        if hit is not None:
            self._reply(
                writer,
                QueryResponse(answer=hit, cached=True, id=request.id, sketch=request.sketch),
            )
            return None
        key = (request.sketch, q.shape[0])
        block = self._blocks.get(key)
        if block is None:
            if not self._blocks:
                self._loop.call_soon(self._submit_blocks)
            block = self._blocks[key] = _Block(
                request.sketch, self._track(self._loop.create_future())
            )
        block.rows.append(q)
        block.waiters.append((writer, request))
        return block.done

    def _submit_blocks(self) -> None:
        """End of iteration: each block goes to its batcher in one submit."""
        blocks, self._blocks = self._blocks, {}
        for block in blocks.values():
            if block.done.done():  # cancelled by stop(drain=False)
                continue
            try:
                fut = self.service.submit_block(np.stack(block.rows), block.sketch)
            except Exception as exc:
                self._fail(block, exc)
                continue
            if fut.done():  # answered in this thread: nothing to wait for
                self._on_answers(block, fut)
                continue
            block.future = fut
            block.timer = self._loop.call_later(
                self.request_timeout_s, self._fail, block, TimeoutError()
            )
            block.future.add_done_callback(
                lambda fut, block=block: self._call_threadsafe(self._on_answers, block, fut)
            )

    def _call_threadsafe(self, callback, *args) -> None:
        try:
            self._loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            pass  # the loop is closed: stop(drain=False) abandoned this work

    def _on_answers(self, block: _Block, fut: Future) -> None:
        if block.done.done():  # timed out or cancelled meanwhile
            return
        try:
            answers = fut.result()
        except Exception as exc:
            self._fail(block, exc)
            return
        self._settle(
            block,
            [
                (writer, QueryResponse(answer=float(a), id=request.id, sketch=request.sketch))
                for (writer, request), a in zip(block.waiters, answers)
            ],
        )

    def _fail(self, block: _Block, exc: Exception) -> None:
        """Answer every waiter of a block with the error frame for ``exc``."""
        if block.done.done():
            return
        if block.future is not None:
            block.future.cancel()  # still queued: the batcher skips it
        self._settle(
            block,
            [
                (writer, error_response(exc, request.id, self.request_timeout_s))
                for writer, request in block.waiters
            ],
        )

    def _settle(self, block: _Block, replies: list) -> None:
        """Write a block's replies and release it."""
        if block.timer is not None:
            block.timer.cancel()
        # The Future's done-callback refers back to the block; dropping the
        # block's side of that cycle frees both without the cyclic GC.
        block.future = block.timer = None
        self._reply_all(replies)
        block.done.set_result(None)

    async def _answer(self, request: Request, writer: asyncio.StreamWriter) -> None:
        try:
            response = await self._dispatch(request)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            response = error_response(exc, request.id, self.request_timeout_s)
        self._reply(writer, response)

    async def _dispatch(self, request: Request) -> Response:
        loop = asyncio.get_running_loop()
        if isinstance(request, StatsRequest):
            stats = await loop.run_in_executor(
                self._executor, self.service.stats, request.sketch
            )
            stats["server"] = self.server_stats()
            return StatsResponse(stats=stats, id=request.id)
        if isinstance(request, EpochRequest):
            info = self.service.epoch_info(request.sketch)
            return EpochResponse(
                epoch=info["epoch"],
                data_version=info["data_version"],
                id=request.id,
                sketch=request.sketch,
            )
        if isinstance(request, IngestRequest):
            # No deadline: a retraining ingest may legitimately outlive the
            # per-query timeout, and abandoning it midway would leave the
            # client unsure whether the mutation landed.
            summary = await loop.run_in_executor(
                self._executor,
                self.service.ingest,
                list(request.rows) if request.rows else None,
                request.delete,
                request.sketch,
            )
            return IngestResponse(ingest=summary, id=request.id, sketch=request.sketch)
        assert isinstance(request, BatchQueryRequest)
        Q = np.asarray(request.q, dtype=np.float64)
        answers = await asyncio.wait_for(
            loop.run_in_executor(self._executor, self.service.ask_many, Q, request.sketch),
            self.request_timeout_s,
        )
        return BatchQueryResponse(
            answers=tuple(float(a) for a in answers),
            id=request.id,
            sketch=request.sketch,
        )


# ----------------------------------------------------------- thread embedding


class ServerHandle:
    """A running server on its own event-loop thread.

    ``address`` is the bound ``(host, port)``; :meth:`stop` drains and
    joins. Context-manager use stops on exit.
    """

    def __init__(
        self, server: SketchServer, loop: asyncio.AbstractEventLoop, thread: threading.Thread
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self._stopped = False

    @property
    def address(self) -> tuple[str, int]:
        assert self.server.address is not None
        return self.server.address

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        done = asyncio.run_coroutine_threadsafe(self.server.stop(drain=drain), self._loop)
        done.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_server_thread(
    service: SketchService,
    host: str = "127.0.0.1",
    port: int = 0,
    max_line_bytes: int = protocol.MAX_LINE_BYTES,
    request_timeout_s: float = 30.0,
) -> ServerHandle:
    """Start a :class:`SketchServer` on a daemon event-loop thread.

    Returns once the socket is bound (or re-raises the bind error in the
    caller). The CLI and the tests embed servers through this.
    """
    server = SketchServer(
        service,
        host=host,
        port=port,
        max_line_bytes=max_line_bytes,
        request_timeout_s=request_timeout_s,
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()
    boot_error: list[BaseException] = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:
            boot_error.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()  # until ServerHandle.stop() calls loop.stop()
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-sketch-server", daemon=True)
    thread.start()
    started.wait(timeout=30.0)
    if boot_error:
        raise boot_error[0]
    return ServerHandle(server, loop, thread)
