"""Micro-batching queue: accumulate concurrent queries, flush as one batch.

The compiled engine answers a 500-query batch in roughly the time it
answers a handful of single queries, so a server should never run
``predict`` one row at a time. :class:`MicroBatcher` accumulates blocks of
queries submitted from any thread and flushes them through one batched
``predict`` call. A free worker thread takes everything pending at once,
so under load batches form by themselves while the workers are busy. Two
optional triggers let a worker wait for company first:

- *size* — the pending row count reaches ``max_batch_size``;
- *deadline* — ``max_delay_s`` has elapsed since the oldest pending block.

The default deadline is ``0``: a query never waits for a batch that may
not come. Callers that can afford to run ``predict`` themselves don't go
through the workers at all: :meth:`run` and :meth:`drain` flush in the
calling thread, sweeping up whatever other threads have queued (that *is*
the micro-batch). Blocking ``SketchService.ask``/``ask_many`` take that
path, and so does ``SketchService.submit_block`` for a compiled engine
with no accumulation window. :meth:`stats` counts those caller-run flushes
apart from the workers' flushes, so a server's ``stats`` frame shows which
path answered. The worker threads start on the first :meth:`submit` only.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np

#: Flush threshold ``"auto"`` mode starts from before the engine has
#: observed any batches (matches the fixed-mode default).
AUTO_DEFAULT_BATCH = 64


class MicroBatcher:
    """Accumulates query blocks and flushes them through one ``predict``.

    Parameters
    ----------
    predict:
        ``callable(Q) -> answers`` over a ``(m, d)`` batch; called from the
        worker threads *or* a draining caller, so it must be thread-safe for
        batched use (:class:`~repro.core.compiled.CompiledSketch` is — each
        call checks a private execution context out of its replica pool).
    max_batch_size:
        Pending-row count that triggers an immediate flush. The string
        ``"auto"`` derives the threshold from the engine's observed
        segment-size distribution instead of a fixed constant: after every
        flush, ``segment_hint`` is polled and the threshold follows its
        suggestion, so micro-batches grow to land full segments on every
        occupied leaf (starting from ``AUTO_DEFAULT_BATCH`` until the
        engine has observed anything).
    segment_hint:
        Optional zero-argument callable returning the engine's currently
        suggested flush threshold (e.g. ``lambda:
        engine.segment_stats()["suggested_max_batch"]``). Only consulted in
        ``"auto"`` mode; errors and non-positive suggestions are ignored
        (the hint is advisory — serving never fails on a stats poll).
    max_delay_s:
        Longest time a worker holds a pending block back, waiting for the
        size trigger. ``0`` (default) flushes as soon as a worker is free.
    dtype:
        Element type the assembled micro-batches are coerced to before
        ``predict`` sees them (answers are always float64). The float64
        default is right for the compiled engines, which route in float64
        and cast into their execution tier internally; a custom sketch
        that wants raw float32 micro-batches passes ``np.float32``.
    workers:
        Number of flush worker threads. One (the default) serializes all
        async flushes; more let successive micro-batches run ``predict``
        concurrently, which the compiled engine's replica pool turns into
        real parallelism (each flush checks out its own execution
        context). Sizing guide: match the engine's ``max_replicas`` /
        available cores — extra workers beyond that just queue.
    """

    def __init__(
        self,
        predict,
        max_batch_size: int | str = 64,
        max_delay_s: float = 0.0,
        dtype=np.float64,
        workers: int = 1,
        segment_hint=None,
    ) -> None:
        if isinstance(max_batch_size, str):
            if max_batch_size != "auto":
                raise ValueError(
                    f"max_batch_size must be an int >= 1 or 'auto', got {max_batch_size!r}"
                )
            self.auto = True
            max_batch_size = AUTO_DEFAULT_BATCH
        else:
            self.auto = False
            if max_batch_size < 1:
                raise ValueError("max_batch_size must be >= 1")
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._predict = predict
        self._segment_hint = segment_hint
        self.max_batch_size = int(max_batch_size)
        self.max_delay_s = float(max_delay_s)
        self.dtype = np.dtype(dtype)
        self.workers = int(workers)

        self._cond = threading.Condition()
        self._pending: list[tuple[np.ndarray, Future, bool]] = []
        self._pending_rows = 0
        self._closed = False
        # Flush accounting (read via stats(); guarded by _cond's lock).
        # Every ``predict`` attempt counts — including ones that raise — so
        # the flush/row counters track offered load, with ``n_errors``
        # recording how many of those attempts failed.
        self.n_flushes = 0
        self.n_caller_flushes = 0  # run()/drain()/close() in the calling thread
        self.n_worker_flushes = 0
        self.n_rows_flushed = 0
        self.max_flush_rows = 0
        self.n_errors = 0

        # Workers only serve async submit(); blocking callers flush via
        # run()/drain() themselves, so the threads start lazily on the first
        # submit and purely-blocking users stay thread-free.
        self._threads: list[threading.Thread] = []

    # ---------------------------------------------------------------- submit

    def submit(self, Q_block: np.ndarray, scalar: bool = False) -> Future:
        """Enqueue a block of queries; the Future resolves to its answers.

        ``scalar=True`` marks a single-query block whose Future resolves to
        a plain ``float`` instead of a 1-element array.
        """
        Q_block = np.atleast_2d(np.asarray(Q_block, dtype=self.dtype))
        if Q_block.shape[0] == 0:
            fut: Future = Future()
            fut.set_result(np.empty(0, dtype=np.float64))
            return fut
        fut = Future()
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            if not self._threads:
                for i in range(self.workers):
                    t = threading.Thread(
                        target=self._worker_loop,
                        name=f"repro-microbatcher-{i}",
                        daemon=True,
                    )
                    self._threads.append(t)
                    t.start()
            self._pending.append((Q_block, fut, bool(scalar)))
            self._pending_rows += Q_block.shape[0]
            self._cond.notify()
        return fut

    def drain(self) -> int:
        """Flush everything pending in the *calling* thread.

        Returns the number of rows flushed (0 when nothing was pending).
        Blocking callers use this to skip the accumulation deadline while
        still sweeping up concurrently queued work.
        """
        with self._cond:
            batch = self._take_pending_locked()
        return self._flush(batch, caller=True)

    def run(self, Q_block: np.ndarray) -> np.ndarray:
        """Answer ``Q_block`` now, batched with anything already pending.

        The caller-runs path behind blocking ``ask``/``ask_many``: the
        pending queue is swept into this flush (their Futures resolve as
        usual) but the caller's own rows skip the Future machinery and the
        worker-thread handoff entirely, so a lone caller pays only a lock
        acquire over the raw ``predict`` — and the sketch still sees one
        concatenated micro-batch under concurrency.
        """
        Q_block = np.atleast_2d(np.asarray(Q_block, dtype=self.dtype))
        with self._cond:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            batch = self._take_pending_locked()
        if not batch:
            try:
                answers = np.asarray(self._predict(Q_block), dtype=np.float64).ravel()
            except Exception:
                self._count_flush(Q_block.shape[0], caller=True, failed=True)
                raise
            self._count_flush(Q_block.shape[0], caller=True)
            return answers
        own: Future = Future()
        batch.append((Q_block, own, False))
        self._flush(batch, caller=True)
        return own.result()

    # ---------------------------------------------------------------- worker

    def _count_flush(self, n_rows: int, caller: bool, failed: bool = False) -> None:
        with self._cond:
            self.n_flushes += 1
            if caller:
                self.n_caller_flushes += 1
            else:
                self.n_worker_flushes += 1
            self.n_rows_flushed += n_rows
            self.max_flush_rows = max(self.max_flush_rows, n_rows)
            if failed:
                self.n_errors += 1
        if self.auto and self._segment_hint is not None:
            # Poll outside our lock (the hint typically takes the engine's
            # pool lock); a bad or failing hint just leaves the threshold.
            try:
                suggested = int(self._segment_hint())
            except Exception:
                return
            if suggested >= 1:
                with self._cond:
                    self.max_batch_size = suggested

    def _take_pending_locked(self) -> list[tuple[np.ndarray, Future, bool]]:
        batch = self._pending
        self._pending = []
        self._pending_rows = 0
        return batch

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if self._closed and not self._pending:
                    return
                # Accumulation window: wait for more work until the size or
                # deadline trigger fires (a drain may empty the queue under
                # us, in which case loop back to idle).
                deadline = time.monotonic() + self.max_delay_s
                while self._pending and self._pending_rows < self.max_batch_size:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or self._closed:
                        break
                    self._cond.wait(remaining)
                batch = self._take_pending_locked()
            self._flush(batch, caller=False)

    def _flush(self, batch: list[tuple[np.ndarray, Future, bool]], caller: bool) -> int:
        if not batch:
            return 0
        # A caller may have cancelled its Future while it sat in the queue;
        # setting a result on a cancelled Future raises InvalidStateError,
        # which would kill the worker thread. Claim each Future first and
        # drop the cancelled ones (their rows still run — answers are
        # positional within the concatenated batch).
        live = [fut.set_running_or_notify_cancel() for _, fut, _ in batch]
        blocks = [block for block, _, _ in batch]
        n_rows = sum(block.shape[0] for block in blocks)
        try:
            # Blocks of mismatched widths fail here, inside the flush,
            # rather than killing the worker thread.
            Q = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=0)
            answers = np.asarray(self._predict(Q), dtype=np.float64).ravel()
        except Exception as exc:  # propagate to every waiting Future
            self._count_flush(n_rows, caller, failed=True)
            for ok, (_, fut, _) in zip(live, batch):
                if ok:
                    fut.set_exception(exc)
            return n_rows
        self._count_flush(n_rows, caller)
        start = 0
        for ok, (block, fut, scalar) in zip(live, batch):
            part = answers[start : start + block.shape[0]]
            start += block.shape[0]
            if ok:
                fut.set_result(float(part[0]) if scalar else part)
        return n_rows

    # ----------------------------------------------------------------- close

    def close(self) -> None:
        """Flush what's pending and stop the worker (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
            self._cond.notify_all()
        for worker in threads:
            worker.join(timeout=5.0)
        with self._cond:
            batch = self._take_pending_locked()
        self._flush(batch, caller=True)  # anything enqueued between the notify and the join

    def stats(self) -> dict:
        """Flush counters. ``n_flushes`` is ``n_caller_flushes`` (run in a
        caller's thread) plus ``n_worker_flushes`` (run by a flush worker)."""
        with self._cond:
            return {
                "n_flushes": self.n_flushes,
                "n_caller_flushes": self.n_caller_flushes,
                "n_worker_flushes": self.n_worker_flushes,
                "n_rows_flushed": self.n_rows_flushed,
                "max_flush_rows": self.max_flush_rows,
                "n_errors": self.n_errors,
                "pending_rows": self._pending_rows,
                "max_batch_size": self.max_batch_size,
                "auto_batch": self.auto,
                "max_delay_s": self.max_delay_s,
                "workers": self.workers,
            }
