"""Shard worker process for the multi-process serving router.

``python -m repro.serve.worker --sketch PATH ...`` is what
:mod:`repro.serve.router` spawns, one process per shard: each worker loads
its own copy of the sketch (preferably from the binary ``.npz`` spill —
see :meth:`repro.core.compiled.CompiledSketch.save_npz` — so a spawn costs
milliseconds), runs its own :class:`~repro.serve.service.SketchService`
(micro-batcher, answer cache, engine replica pool) and answers protocol
frames on stdin/stdout.

The router<->worker wire is the client wire plus a tiny routing envelope::

    <rid>\\t<protocol frame>\\n      router -> worker
    <rid>\\t<protocol response>\\n   worker -> router

``rid`` is the router's opaque decimal routing id, echoed back verbatim;
the frame between tab and newline is byte-for-byte what the client sent,
so the worker — not the router — does all JSON decode/encode work, which
is exactly the Python-bound cost that sharding distributes. Responses
therefore carry the client's own request ``id`` untouched.

A pool of handler threads answers frames concurrently. A compiled sketch
answers a single-query frame in its handler thread (the same caller-runs
path the single-process server takes); for any other sketch, frames
arriving back to back land in the same micro-batch window. EOF on stdin drains the service and
exits 0; the first line written is the ``READY`` handshake the router
waits for before forwarding traffic.

:func:`answer_frame` is the synchronous one-frame handler shared with the
CLI's ``repro serve --stdio`` loop; it maps exceptions to error frames
through the same table as the asyncio server
(:func:`repro.serve.service.error_response`).
"""

from __future__ import annotations

import argparse
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.serve import protocol

#: First line a worker writes once its service is registered and it is
#: about to enter the frame loop. The router treats anything else as a
#: failed boot.
READY_LINE = b"READY"


def answer_frame(service, raw_line, max_line_bytes: int, timeout_s: float):
    """One protocol frame -> one protocol response (never raises).

    The synchronous transport's request handler, shared by the stdio loop
    and the sharding worker; both speak only :mod:`repro.serve.protocol`
    dataclasses.
    """
    from repro.serve.service import error_response

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


def load_worker_sketch(path: str, dtype: str | None = None):
    """Load a sketch artifact for serving, preferring the fast binary path.

    ``shm://`` URIs attach the router's published shared-memory weight
    block (:func:`repro.serve.shm.attach_sketch`) — zero copy, so N
    workers share one resident set of tensors; ``.npz`` spills load
    through :meth:`~repro.core.compiled.CompiledSketch.load_npz`
    (milliseconds, no JSON number parsing); stream bundles rebuild the
    full mutable :class:`~repro.stream.sketch.StreamingSketch`; anything
    else goes through the regular
    :func:`~repro.serve.service.load_sketch`.
    """
    if path.startswith("shm://"):
        from repro.serve.shm import attach_sketch

        return attach_sketch(path, dtype=dtype)
    if path.endswith(".npz"):
        from repro.stream.sketch import is_stream_bundle, load_stream_sketch

        if is_stream_bundle(path):
            return load_stream_sketch(path, serving_dtype=dtype)
        from repro.core.compiled import CompiledSketch

        return CompiledSketch.load_npz(path, dtype=dtype)
    from repro.serve.service import load_sketch

    return load_sketch(path, dtype=dtype)


def _parse_max_batch(spec: str) -> int | str:
    """An integer flush trigger or ``auto`` (segment-stats driven)."""
    if spec.strip().lower() == "auto":
        return "auto"
    try:
        return int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {spec!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve-worker",
        description="one shard of a multi-process sketch server (internal)",
    )
    parser.add_argument("--sketch", required=True, metavar="PATH")
    parser.add_argument("--infer-dtype", choices=("float32", "float64"), default=None,
                        help="execution tier (default: the artifact's recorded tier)")
    parser.add_argument("--workers", type=int, default=4,
                        help="micro-batch flush workers inside this process "
                             "(unused by a compiled sketch unless "
                             "--max-delay-ms > 0: frame handler threads answer "
                             "it themselves)")
    parser.add_argument("--max-batch", type=_parse_max_batch, default=64,
                        help="micro-batch flush trigger (an integer or 'auto')")
    parser.add_argument("--max-delay-ms", type=float, default=0.0)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--cache-resolution", type=float, default=1e-4)
    parser.add_argument("--cache-exact", action="store_true")
    parser.add_argument("--max-line-bytes", type=int, default=protocol.MAX_LINE_BYTES)
    parser.add_argument("--request-timeout-s", type=float, default=30.0)
    parser.add_argument("--mutable", action="store_true",
                        help="accept ingest frames (the artifact must be a "
                             "stream bundle)")
    parser.add_argument("--register-tiers", action="store_true",
                        help="also register the sketch per dtype tier under the "
                             "tier's name (float32/float64) — the parity bench "
                             "uses this to pin wire answers per tier")
    parser.add_argument("--io-threads", type=int, default=None,
                        help="frame handler threads (default: 2x --workers, min 8)")
    return parser


def worker_main(argv: list[str] | None = None) -> int:
    from repro.serve.service import SketchService

    args = build_parser().parse_args(argv)
    try:
        sketch = load_worker_sketch(args.sketch, dtype=args.infer_dtype)
        service = SketchService(
            max_batch_size=args.max_batch,
            max_delay_s=args.max_delay_ms / 1e3,
            cache=not args.no_cache,
            cache_resolution=args.cache_resolution,
            cache_exact=args.cache_exact,
            workers=args.workers,
            allow_mutations=args.mutable,
        )
        service.register("default", sketch)
        if args.register_tiers and callable(getattr(sketch, "with_dtype", None)):
            from repro.core.compiled import DTYPE_TIERS

            for tier in sorted(DTYPE_TIERS):
                service.register(tier, sketch.with_dtype(tier))
    except Exception as exc:
        print(f"[worker] boot failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    write_lock = threading.Lock()
    io_threads = args.io_threads if args.io_threads else max(8, 2 * args.workers)

    def handle(rid: bytes, frame: bytes) -> None:
        response = answer_frame(service, frame, args.max_line_bytes, args.request_timeout_s)
        line = protocol.encode_safe(response).encode("utf-8")
        with write_lock:
            try:
                stdout.write(rid + b"\t" + line + b"\n")
                stdout.flush()
            except (BrokenPipeError, ValueError, OSError):
                pass  # router went away; the EOF on stdin ends the loop

    with write_lock:
        stdout.write(READY_LINE + b"\n")
        stdout.flush()
    pool = ThreadPoolExecutor(max_workers=io_threads, thread_name_prefix="repro-shard")
    try:
        for raw in stdin:
            line = raw.rstrip(b"\r\n")
            if not line:
                continue
            rid, sep, frame = line.partition(b"\t")
            if not sep:  # an untagged line is a router bug; answer anyway
                rid, frame = b"", rid
            if protocol.is_ingest_frame(frame):
                # Mutations apply in arrival order — inline, not pooled —
                # so every shard that receives the same ingest sequence
                # (the router broadcasts and replays them in order) lands
                # on bit-identical weights.
                handle(rid, frame)
            else:
                pool.submit(handle, rid, frame)
    finally:
        pool.shutdown(wait=True)
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(worker_main())
