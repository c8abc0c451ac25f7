"""`SketchService`: named sketches behind micro-batching + an answer cache.

The façade a server embeds (and what ``repro serve`` runs):

- a registry of named sketches — anything with a batched ``predict``:
  a :class:`~repro.core.compiled.CompiledSketch`, a fitted
  :class:`~repro.core.neurosketch.NeuroSketch`, or any
  :class:`repro.api.Estimator`;
- per-sketch micro-batching (:class:`~repro.serve.batching.MicroBatcher`):
  whatever is queued when a flush runs goes through one ``predict``;
- a per-sketch answer cache (:class:`~repro.serve.cache.AnswerCache`)
  keyed on quantized query vectors;
- async submission in two calls: :meth:`cached` probes the cache and
  :meth:`submit_block` answers a block of misses, whose answers fill the
  cache. The socket server gathers one block per event loop iteration
  from them; :meth:`submit` is the one-query form of the pair, and
  :meth:`ask`/:meth:`ask_many` the blocking convenience layer.

Where a block is answered depends on the sketch. A compiled engine (a
:class:`~repro.core.compiled.CompiledSketch`, or a
:class:`~repro.stream.sketch.StreamingSketch`, which serves through one)
with no accumulation window (``max_delay_s == 0``, the default) answers
in the submitting thread: a compiled predict costs microseconds per row,
far less than handing the block to a flush worker thread and the answer
back, so :meth:`submit_block` runs the batcher's caller-runs flush and
returns an already-resolved Future. Any other sketch, whose ``predict``
may take arbitrarily long, and any ``max_delay_s > 0`` queue the block
for the batcher's flush workers, and the caller's deadline applies.

With the cache disabled, :meth:`ask_many` hands the *exact* query array to
the sketch's ``predict`` in one flush, so its answers are bitwise-equal to
the direct batch path (``tests/test_serve.py`` asserts this).
"""

from __future__ import annotations

import asyncio
import ctypes
import gzip
import json
import time
from concurrent import futures
from concurrent.futures import Future

import numpy as np

from repro.serve import protocol
from repro.serve.batching import MicroBatcher
from repro.serve.cache import AnswerCache
from repro.serve.protocol import ErrorResponse, ProtocolError

#: Every way a timeout surfaces: ``asyncio.wait_for`` and
#: ``Future.result(timeout=...)`` raise their own classes before Python 3.11.
_TIMEOUTS = (TimeoutError, asyncio.TimeoutError, futures.TimeoutError)


def _load_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    try:
        fn = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    fn.argtypes = [ctypes.c_size_t]
    fn.restype = ctypes.c_int
    return fn


_MALLOC_TRIM = _load_malloc_trim()


def release_free_memory() -> None:
    """Hand the C heap's free pages back to the OS (glibc only; a no-op
    elsewhere).

    The socket server runs an ingest in an executor thread, so the new
    epoch's weights and plans, the label index and the scratch it allocates
    live in that thread's malloc arena, beside the old epoch's until the swap frees
    them. glibc keeps freed arena pages resident, and the event loop's own
    allocations (the answer cache) cannot reuse another arena's, so without
    a trim every ingest leaves its transient peak in the process's RSS.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class ImmutableSketchError(RuntimeError):
    """An ingest was sent to a service or sketch without mutation support."""


def error_response(exc: Exception, id: object, timeout_s: float) -> ErrorResponse:
    """The wire error frame for an exception raised while answering a request.

    The one exception-to-code table of both transports (socket server,
    stdio loop): malformed frames keep their own protocol
    code, an unknown sketch name is ``unknown-sketch``, an ingest refused
    is ``immutable``, a missed deadline of ``timeout_s`` is ``timeout``, and
    anything the sketch itself raised is ``internal``.
    """
    if isinstance(exc, ProtocolError):
        return exc.to_response(id)
    if isinstance(exc, KeyError):
        message = exc.args[0] if exc.args else str(exc)
        return ErrorResponse(error=str(message), code="unknown-sketch", id=id)
    if isinstance(exc, ImmutableSketchError):
        return ErrorResponse(error=str(exc), code="immutable", id=id)
    if isinstance(exc, _TIMEOUTS):
        return ErrorResponse(
            error=f"request missed the {timeout_s}s deadline", code="timeout", id=id
        )
    return ErrorResponse(error=f"{type(exc).__name__}: {exc}", code="internal", id=id)


def answer_frame(service, raw_line, max_line_bytes: int, timeout_s: float):
    """One protocol frame -> one protocol response (never raises).

    The synchronous transport's request handler, used by the CLI's
    ``repro serve --stdio`` loop; it speaks only :mod:`repro.serve.protocol`
    dataclasses and maps exceptions through :func:`error_response`, the
    table the asyncio server uses too.
    """
    rid = None
    try:
        protocol.check_line_size(raw_line, max_line_bytes)
        request = protocol.decode_request(raw_line)
        rid = request.id
        if isinstance(request, protocol.StatsRequest):
            return protocol.StatsResponse(stats=service.stats(request.sketch), id=rid)
        if isinstance(request, protocol.EpochRequest):
            info = service.epoch_info(request.sketch)
            return protocol.EpochResponse(
                epoch=info["epoch"],
                data_version=info["data_version"],
                id=rid,
                sketch=request.sketch,
            )
        if isinstance(request, protocol.IngestRequest):
            summary = service.ingest(
                rows=list(request.rows) if request.rows else None,
                delete=request.delete,
                sketch=request.sketch,
            )
            return protocol.IngestResponse(ingest=summary, id=rid, sketch=request.sketch)
        if isinstance(request, protocol.BatchQueryRequest):
            answers = service.ask_many(
                np.asarray(request.q, dtype=np.float64), request.sketch
            )
            return protocol.BatchQueryResponse(
                answers=tuple(float(a) for a in answers), id=rid, sketch=request.sketch
            )
        fut = service.submit(np.asarray(request.q, dtype=np.float64), request.sketch)
        answer = fut.result(timeout=timeout_s)
        return protocol.QueryResponse(
            answer=float(answer),
            cached=bool(getattr(fut, "cached", False)),
            id=rid,
            sketch=request.sketch,
        )
    except Exception as exc:  # a bad frame must not kill the loop
        return error_response(exc, rid, timeout_s)


def load_sketch(path: str, dtype: str | None = None):
    """Load a saved sketch artifact into its servable form.

    Accepts every artifact format and always returns an object with a
    batched ``predict``: a ``compiled-sketch-v1`` payload loads straight
    into :class:`~repro.core.compiled.CompiledSketch`; a ``NeuroSketch``
    payload is loaded and compiled; a ``.npz`` path loads the binary spill
    (:meth:`~repro.core.compiled.CompiledSketch.load_npz`) or, when it is
    a stream bundle, the mutable
    :class:`~repro.stream.sketch.StreamingSketch`.

    ``dtype`` picks the compiled engine's execution tier. ``None`` keeps
    the artifact's own recorded tier (``float64`` for payloads predating
    the tiered engine), preserving bit-parity with whatever produced the
    artifact; a server that prefers speed over the last few decimal places
    passes ``"float32"`` (what ``repro serve`` defaults to).
    """
    from repro.core.compiled import CompiledSketch
    from repro.core.neurosketch import NeuroSketch

    if path.endswith(".npz"):
        from repro.stream.sketch import is_stream_bundle, load_stream_sketch

        if is_stream_bundle(path):
            return load_stream_sketch(path, serving_dtype=dtype)
        return CompiledSketch.load_npz(path, dtype=dtype)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        state = json.load(fh)
    if not isinstance(state, dict):
        raise ValueError(f"{path!r} is not a sketch artifact")
    if state.get("format") == "compiled-sketch-v1":
        return CompiledSketch.from_dict(state, dtype=dtype)
    if "tree" in state and "models" in state:
        sketch = NeuroSketch.from_dict(state)
        return sketch.compile(dtype="float64" if dtype is None else dtype)
    raise ValueError(f"{path!r} is not a recognized sketch artifact")


class _Entry:
    """One registered sketch with its batcher and cache.

    ``cache_ns`` namespaces keys when the cache object is shared between
    sketches (the same query has different answers per sketch); a private
    per-sketch cache uses the empty namespace.
    """

    __slots__ = ("name", "sketch", "batcher", "cache", "cache_ns", "inline")

    def __init__(
        self,
        name: str,
        sketch,
        batcher: MicroBatcher,
        cache: AnswerCache | None,
        cache_ns: bytes = b"",
        inline: bool = False,
    ):
        self.name = name
        self.sketch = sketch
        self.batcher = batcher
        self.cache = cache
        self.cache_ns = cache_ns
        #: Answer submitted blocks in the submitting thread (see the module
        #: docstring) instead of queueing them for a flush worker.
        self.inline = inline


def _is_compiled(sketch) -> bool:
    """Does ``sketch`` answer through the compiled engine (bounded
    microseconds per row, thread-safe)?"""
    from repro.core.compiled import CompiledSketch
    from repro.stream.sketch import StreamingSketch

    return isinstance(sketch, (CompiledSketch, StreamingSketch))


class SketchService:
    """Serve one or more named sketches (dataset × aggregate) concurrently.

    Parameters
    ----------
    max_batch_size, max_delay_s:
        Micro-batching triggers (see :class:`MicroBatcher`). The default
        ``max_delay_s=0`` never holds a query back for company, and lets a
        compiled sketch answer async submissions in the submitting thread
        (see the module docstring). Pass
        ``"auto"`` to derive each sketch's flush threshold from its
        engine's observed segment-size distribution
        (:meth:`~repro.core.compiled.CompiledSketch.segment_stats`);
        sketches without ``segment_stats`` keep the fixed default.
    cache:
        ``True`` (default) gives every registered sketch its own
        :class:`AnswerCache`; ``False`` disables caching; an
        :class:`AnswerCache` instance is used as-is for every sketch
        registered afterwards.
    cache_resolution, cache_entries, cache_exact:
        Knobs for the per-sketch caches built when ``cache=True``.
    infer_dtype:
        When set (``"float32"``/``"float64"``), every sketch registered
        afterwards that exposes an execution tier — a
        :class:`~repro.core.compiled.CompiledSketch` (via ``with_dtype``)
        or a fitted :class:`~repro.core.neurosketch.NeuroSketch` (via
        ``compile``) — is re-tiered to it at registration. ``None``
        (default) serves every sketch exactly as handed in, so answers stay
        bitwise-identical to the caller's own ``predict``.
    workers:
        Flush worker threads per registered sketch (see
        :class:`MicroBatcher`); they serve async submissions to a
        non-compiled sketch, or to any sketch when ``max_delay_s > 0``.
        With a compiled sketch, each concurrent flush checks its own
        execution context out of the engine's replica pool, so N workers
        mean up to N predicts genuinely in parallel; registration raises
        the engine's ``max_replicas`` to at least this many so the workers
        never starve.
    allow_mutations:
        ``True`` lets :meth:`ingest` mutate registered streaming sketches
        (what ``repro serve --mutable`` sets). The default ``False``
        answers every ingest with :class:`ImmutableSketchError` so a
        read-only deployment cannot be mutated over the wire.
    """

    def __init__(
        self,
        max_batch_size: int | str = 64,
        max_delay_s: float = 0.0,
        cache: bool | AnswerCache = True,
        cache_resolution: float = 1e-4,
        cache_entries: int = 65_536,
        cache_exact: bool = False,
        infer_dtype: str | None = None,
        workers: int = 1,
        allow_mutations: bool = False,
    ) -> None:
        if infer_dtype is not None:
            from repro.core.compiled import resolve_dtype

            resolve_dtype(infer_dtype)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if isinstance(max_batch_size, str):
            if max_batch_size != "auto":
                raise ValueError(
                    f"max_batch_size must be an int >= 1 or 'auto', got {max_batch_size!r}"
                )
            self.max_batch_size: int | str = "auto"
        else:
            self.max_batch_size = int(max_batch_size)
        self.max_delay_s = float(max_delay_s)
        self.workers = int(workers)
        self.allow_mutations = bool(allow_mutations)
        self.infer_dtype = infer_dtype
        self._cache_spec = cache
        self._cache_resolution = float(cache_resolution)
        self._cache_entries = int(cache_entries)
        self._cache_exact = bool(cache_exact)
        self._entries: dict[str, _Entry] = {}
        self._default: str | None = None
        self._closed = False

    # -------------------------------------------------------------- registry

    def register(self, name: str, sketch, default: bool = False) -> None:
        """Add a named sketch (anything with a batched ``predict``).

        The first registered sketch becomes the default target for
        ``ask``/``submit`` calls that don't name one; ``default=True``
        reassigns that role.
        """
        if self._closed:
            raise RuntimeError("SketchService is closed")
        key = name.strip().lower()
        if not key:
            raise ValueError("sketch name must be non-empty")
        if key in self._entries:
            raise ValueError(f"sketch {key!r} is already registered")
        if not callable(getattr(sketch, "predict", None)):
            raise TypeError(f"sketch {key!r} has no predict(Q) method")
        if self.infer_dtype is not None:
            if callable(getattr(sketch, "with_dtype", None)):
                sketch = sketch.with_dtype(self.infer_dtype)
            elif callable(getattr(sketch, "compile", None)):
                sketch = sketch.compile(dtype=self.infer_dtype)
        # A compiled engine must offer at least one execution context per
        # flush worker, or concurrent flushes would queue on the pool.
        if isinstance(getattr(sketch, "max_replicas", None), int):
            sketch.max_replicas = max(sketch.max_replicas, self.workers)
        cache_ns = b""
        if self._cache_spec is False or self._cache_spec is None:
            cache = None
        elif isinstance(self._cache_spec, AnswerCache):
            cache = self._cache_spec
            cache_ns = key.encode() + b"\x00"  # shared cache: partition by name
        else:
            cache = AnswerCache(
                resolution=self._cache_resolution,
                max_entries=self._cache_entries,
                exact=self._cache_exact,
            )
        segment_hint = None
        if self.max_batch_size == "auto":
            segment_stats = getattr(sketch, "segment_stats", None)
            if callable(segment_stats):
                segment_hint = lambda: segment_stats()["suggested_max_batch"]  # noqa: E731
        # Without a hint, "auto" degrades to the fixed default threshold.
        batcher = MicroBatcher(
            sketch.predict,
            max_batch_size=self.max_batch_size,
            max_delay_s=self.max_delay_s,
            workers=self.workers,
            segment_hint=segment_hint,
        )
        inline = self.max_delay_s == 0 and _is_compiled(sketch)
        self._entries[key] = _Entry(key, sketch, batcher, cache, cache_ns, inline)
        if default or self._default is None:
            self._default = key

    def sketch_names(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def _entry(self, sketch: str | None) -> _Entry:
        if self._closed:
            raise RuntimeError("SketchService is closed")
        if sketch is None:
            if self._default is None:
                raise RuntimeError("no sketch registered")
            return self._entries[self._default]
        key = sketch.strip().lower()
        if key not in self._entries:
            raise KeyError(f"unknown sketch {sketch!r}; have {self.sketch_names()}")
        return self._entries[key]

    # ------------------------------------------------------------ submission

    def cached(self, q: np.ndarray, sketch: str | None = None) -> float | None:
        """The cached answer to one query, or ``None`` on a miss.

        Always resolves the sketch name, so an unknown one raises
        ``KeyError`` even with caching off — a caller can reject the query
        before queueing it.
        """
        entry = self._entry(sketch)
        if entry.cache is None:
            return None
        return entry.cache.get(q, entry.cache_ns)

    def submit_block(
        self, Q: np.ndarray, sketch: str | None = None, scalar: bool = False
    ) -> Future:
        """Answer ``(m, d)`` queries as one micro-batch block.

        The Future resolves to the ``(m,)`` answers (a ``float`` with
        ``scalar=True`` and one row) and carries ``cached = False``. The
        cache is not probed — call :meth:`cached` first — but the answers
        fill it when the block resolves.

        A compiled sketch with no accumulation window answers here, in the
        calling thread, through the batcher's caller-runs flush (which also
        sweeps up anything already queued), and the returned Future is
        already done; a failed predict is set as its exception. Otherwise
        the block is queued for the batcher's flush workers.
        """
        entry = self._entry(sketch)
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        cache, namespace = entry.cache, entry.cache_ns
        if entry.inline and Q.shape[0]:
            fut: Future = Future()
            fut.cached = False
            try:
                answers = entry.batcher.run(Q)
            except Exception as exc:
                fut.set_exception(exc)
                return fut
            if cache is not None:
                cache.put_many(Q, answers, namespace)
            fut.set_result(float(answers[0]) if scalar else answers)
            return fut
        fut = entry.batcher.submit(Q, scalar=scalar)
        fut.cached = False
        if cache is not None:

            def _store(done: Future) -> None:
                if not done.cancelled() and done.exception() is None:
                    cache.put_many(Q, np.atleast_1d(done.result()), namespace)

            fut.add_done_callback(_store)
        return fut

    def submit(self, q: np.ndarray, sketch: str | None = None) -> Future:
        """Async single query: returns a Future resolving to the answer.

        A cache hit returns an already-resolved Future without touching
        the queue; a miss is a one-row :meth:`submit_block`. Either way the
        Future carries a ``cached`` attribute so callers (the wire
        servers) can report hits without diffing stats.
        """
        q = np.asarray(q, dtype=np.float64).ravel()
        hit = self.cached(q, sketch)
        if hit is None:
            return self.submit_block(q[None, :], sketch, scalar=True)
        fut: Future = Future()
        fut.set_result(hit)
        fut.cached = True
        return fut

    def ask(self, q: np.ndarray, sketch: str | None = None) -> float:
        """Blocking single query.

        Runs the flush in the calling thread (sweeping up any concurrently
        submitted queries), so a lone blocking caller never waits for a
        worker thread and pays no Future overhead.
        """
        entry = self._entry(sketch)
        q = np.asarray(q, dtype=np.float64).ravel()
        if entry.cache is not None:
            cached = entry.cache.get(q, entry.cache_ns)
            if cached is not None:
                return cached
        answer = float(entry.batcher.run(q[None, :])[0])
        if entry.cache is not None:
            entry.cache.put(q, answer, entry.cache_ns)
        return answer

    def ask_many(self, Q: np.ndarray, sketch: str | None = None) -> np.ndarray:
        """Blocking batch: answers in input order, shape ``(m,)``.

        Cached rows are answered from the cache; the remaining rows go
        through the micro-batch queue as one block (so with the cache
        disabled the sketch's ``predict`` sees exactly ``Q`` and the
        answers are bitwise-identical to the direct batch path).
        """
        entry = self._entry(sketch)
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        m = Q.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.float64)
        if entry.cache is None:
            return entry.batcher.run(Q)

        out = np.empty(m, dtype=np.float64)
        miss_rows: list[int] = []
        for i in range(m):
            cached = entry.cache.get(Q[i], entry.cache_ns)
            if cached is None:
                miss_rows.append(i)
            else:
                out[i] = cached
        if miss_rows:
            misses = np.asarray(miss_rows, dtype=np.intp)
            answers = entry.batcher.run(Q[misses])
            out[misses] = answers
            entry.cache.put_many(Q[misses], answers, entry.cache_ns)
        return out

    # ------------------------------------------------------------- mutations

    def ingest(
        self,
        rows=None,
        delete: tuple | None = None,
        sketch: str | None = None,
    ) -> dict:
        """Apply appends/deletes to a streaming sketch; returns a summary.

        ``rows`` are raw-unit data rows to append; ``delete`` is a
        ``(lo, hi)`` raw-unit box tombstoning live rows in ``[lo, hi)``
        (append applies first when both are given). Pending micro-batches
        are flushed before the mutation, so every answer computed before
        this call reflects pre-mutation data; the mutation itself runs
        under the sketch's own lock while serving continues on the old
        epoch until the hot-swap lands. Cached answers whose quantized
        query cells intersect a dirty leaf's query-space box are evicted
        from every registered entry sharing this sketch's stream state
        (each dtype-tier view included). Last, the C heap's free pages go
        back to the OS (:func:`release_free_memory`).
        """
        entry = self._entry(sketch)
        target = entry.sketch
        if not self.allow_mutations:
            raise ImmutableSketchError(
                "service does not accept mutations (start it with allow_mutations=True)"
            )
        if not callable(getattr(target, "append", None)):
            raise ImmutableSketchError(f"sketch {entry.name!r} is not a streaming sketch")
        if rows is None and delete is None:
            raise ValueError("ingest needs rows to append and/or delete bounds")
        self.flush()
        results = []
        if rows is not None:
            results.append(target.append(np.asarray(rows, dtype=np.float64)))
        if delete is not None:
            lo, hi = delete
            results.append(
                target.delete(
                    np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
                )
            )
        from repro.stream.sketch import summarize

        t0 = time.perf_counter()
        evicted = self._invalidate_dirty(target, results)
        invalidate_s = time.perf_counter() - t0
        target.record_stage("invalidate_s", invalidate_s)
        summary = summarize(results)
        summary["stages"]["invalidate_s"] = invalidate_s
        summary["cache_evictions"] = evicted
        release_free_memory()
        return summary

    def _invalidate_dirty(self, target, results) -> int:
        """Evict cached answers reachable from the dirty leaves' boxes."""
        mut = getattr(target, "_mut", None)
        evicted = 0
        for e in self._entries.values():
            if e.cache is None or getattr(e.sketch, "_mut", None) is not mut:
                continue
            for r in results:
                if r.dirty_lo.shape[0]:
                    evicted += e.cache.invalidate_region(
                        r.dirty_lo, r.dirty_hi, namespace=e.cache_ns
                    )
        return evicted

    def epoch_info(self, sketch: str | None = None) -> dict:
        """Current model epoch / data version of one sketch.

        Immutable sketches never swap, so they report their engine's swap
        counter (0 for a plain estimator) and data version 0.
        """
        entry = self._entry(sketch)
        return {
            "epoch": int(getattr(entry.sketch, "epoch", 0)),
            "data_version": int(getattr(entry.sketch, "data_version", 0)),
        }

    # ------------------------------------------------------------- lifecycle

    def flush(self) -> None:
        """Flush every sketch's pending micro-batch in the calling thread."""
        for entry in self._entries.values():
            entry.batcher.drain()

    def stats(self, sketch: str | None = None) -> dict:
        """Batcher + cache (+ engine replica pool) counters for one sketch."""
        entry = self._entry(sketch)
        out = {
            "sketch": entry.name,
            "batcher": entry.batcher.stats(),
            "cache": entry.cache.stats() if entry.cache is not None else None,
        }
        replica_stats = getattr(entry.sketch, "replica_stats", None)
        if callable(replica_stats):
            out["engine"] = replica_stats()
        if callable(getattr(entry.sketch, "append", None)):
            out["mutable"] = self.allow_mutations
            stream_stats = getattr(entry.sketch, "stats", None)
            if callable(stream_stats):
                out["stream"] = stream_stats()
        return out

    def close(self) -> None:
        """Stop every batcher worker (idempotent; pending work is flushed)."""
        if self._closed:
            return
        self._closed = True
        for entry in self._entries.values():
            entry.batcher.close()

    def __enter__(self) -> "SketchService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
