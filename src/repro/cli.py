"""``python -m repro`` / ``repro`` — the experiment command line.

Subcommands:

- ``run`` — one end-to-end experiment; prints a summary table and writes
  ``BENCH_<name>.json`` (``--save-sketch`` also persists the fitted
  NeuroSketch artifact).
- ``serve`` — serve a saved sketch over the versioned JSON-lines protocol
  (:mod:`repro.serve.protocol`): ``--listen host:port`` runs the asyncio
  socket server for many concurrent clients; the default (``--stdio``)
  answers frames on stdin/stdout.
- ``ingest`` — mutate a streaming sketch: append rows / delete a box,
  against a running ``serve --mutable`` server (``--connect``) or offline
  against a saved stream bundle (``--sketch``).
- ``query`` — one-shot ask: against a saved sketch artifact (``--sketch``)
  or a running server (``--connect host:port``).
- ``compare`` — side-by-side table over previously written BENCH files.
- ``list-datasets`` — the dataset registry (paper sizes, defaults, aliases).

``repro run --dataset synthetic --estimators neurosketch,exact,rtree --fast``
is the CI smoke invocation: the ``--fast`` profile clamps data size,
workload and training budget so the full pipeline finishes in seconds.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from repro._version import __version__

# The experiment stack (repro.eval, repro.baselines, repro.data) is imported
# by the handlers that use it: `repro serve` parses the same command line
# and should not load (or, without bytecode caching, compile) what it never
# runs.


class _HelpFormatter(argparse.HelpFormatter):
    """Fills ``{estimators}`` in an argument's help with the estimator
    registry when help is printed, not when the parser is built."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        text = super()._get_help_string(action)
        if text and "{estimators}" in text:
            from repro.api import estimator_names

            text = text.replace("{estimators}", ", ".join(estimator_names()))
        return text


def _parse_estimators(spec: str) -> tuple[str, ...]:
    names = tuple(s.strip() for s in spec.split(",") if s.strip())
    if not names:
        raise argparse.ArgumentTypeError("expected a comma-separated estimator list")
    return names


def _parse_max_batch(spec: str) -> int | str:
    """Micro-batch flush trigger: an integer or ``auto`` (segment-stats
    driven, see :class:`repro.serve.batching.MicroBatcher`)."""
    if spec.strip().lower() == "auto":
        return "auto"
    try:
        return int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'auto', got {spec!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NeuroSketch reproduction: run and compare RAQ experiments.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one experiment end-to-end", formatter_class=_HelpFormatter
    )
    run.add_argument("--dataset", default="synthetic",
                     help="registry name or alias (see list-datasets)")
    run.add_argument("--estimators", type=_parse_estimators,
                     default=("neurosketch", "exact", "uniform"),
                     help="comma-separated subset of {estimators}")
    run.add_argument("--aggregate", default="AVG", help="aggregate function (AVG, SUM, ...)")
    run.add_argument("--n-rows", type=int, default=None, help="dataset rows (registry default)")
    run.add_argument("--n-train", type=int, default=2_000, help="training queries")
    run.add_argument("--n-test", type=int, default=500, help="test queries")
    run.add_argument("--seed", type=int, default=0, help="experiment seed")
    run.add_argument("--epochs", type=int, default=60, help="NeuroSketch training epochs")
    run.add_argument("--train-backend", choices=("stacked", "sequential"), default="stacked",
                     help="leaf-MLP training engine: one vectorized loop over all "
                          "leaves (default) or the per-leaf reference loop")
    run.add_argument("--build-workers", type=int, default=1, metavar="N",
                     help="worker processes for the sharded parallel build "
                          "(default 1 = the classic single-process build; > 1 "
                          "adds the build.parallel BENCH block)")
    run.add_argument("--build-shards", type=int, default=None, metavar="K",
                     help="shard count for the parallel build plan (default: "
                          "--build-workers); the result depends only on K, "
                          "never on the pool size")
    run.add_argument("--data-source", choices=("simulate", "raw", "auto"), default="simulate",
                     help="dataset provenance: simulator (default), required raw "
                          "file (fails loudly when absent), or raw-with-fallback")
    run.add_argument("--train-batch-size", type=int, default=256,
                     help="mini-batch size for leaf training")
    run.add_argument("--optimizer", choices=("adam", "sgd"), default="adam",
                     help="leaf training optimizer")
    run.add_argument("--patience", type=int, default=15,
                     help="early-stop patience (epochs without improvement)")
    run.add_argument("--min-delta", type=float, default=1e-6,
                     help="relative loss improvement that resets early-stop patience")
    run.add_argument("--tree-height", type=int, default=4, help="NeuroSketch kd-tree height h")
    run.add_argument("--partitions", type=int, default=8,
                     help="NeuroSketch leaf target s after merging (0 disables merging)")
    run.add_argument("--sample-frac", type=float, default=0.1,
                     help="sample fraction for tree-agg / verdictdb")
    run.add_argument("--no-compile", action="store_true",
                     help="serve NeuroSketch through the object path instead of "
                          "the compiled packed-array engine (escape hatch)")
    run.add_argument("--infer-dtype", choices=("float32", "float64"), default="float32",
                     help="compiled-engine execution tier the benchmark serves "
                          "(float32: serving default; float64: bit-parity reference)")
    run.add_argument("--fast", action="store_true",
                     help="CI smoke profile: tiny workload, epochs <= 5")
    run.add_argument("--name", default=None,
                     help="experiment name for BENCH_<name>.json (default: the dataset arg)")
    run.add_argument("--out-dir", default=".", help="directory for the BENCH file")
    run.add_argument("--no-bench", action="store_true", help="skip writing the BENCH file")
    run.add_argument("--save-sketch", default=None, metavar="PATH",
                     help="persist the fitted neurosketch artifact (gzip JSON) "
                          "for `repro serve` / `repro query`")
    run.add_argument("--save-stream", default=None, metavar="PATH",
                     help="persist the streaming-bench mutable sketch as an "
                          ".npz stream bundle for `repro serve --mutable` / "
                          "`repro ingest` (needs the stream bench, i.e. "
                          "'neurosketch' among --estimators)")
    run.add_argument("--no-stream-bench", action="store_true",
                     help="skip the streaming-maintenance BENCH block")
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")

    serve = sub.add_parser(
        "serve",
        help="serve a saved sketch over the JSON-lines protocol "
             "(socket with --listen, stdin/stdout otherwise)",
    )
    serve.add_argument("--sketch", required=True, metavar="PATH",
                       help="saved sketch artifact (NeuroSketch or compiled form)")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="run the asyncio socket server on this address "
                            "(port 0 picks a free port)")
    serve.add_argument("--stdio", action="store_true",
                       help="answer frames on stdin/stdout (the default when "
                            "--listen is absent)")
    serve.add_argument("--workers", type=int, default=4,
                       help="micro-batch flush workers; each concurrent flush "
                            "uses its own engine replica. A compiled sketch "
                            "answers in the server's own thread instead "
                            "unless --max-delay-ms > 0, so this only matters "
                            "for other sketches or a nonzero delay")
    serve.add_argument("--max-batch", type=_parse_max_batch, default=64,
                       help="micro-batch size flush trigger: an integer, or "
                            "'auto' to derive it from the engine's observed "
                            "segment-size distribution")
    serve.add_argument("--max-delay-ms", type=float, default=0.0,
                       help="longest a flush worker holds queries back waiting "
                            "for --max-batch of them, milliseconds (default 0: "
                            "a compiled sketch answers in the server's own "
                            "thread, any other sketch as soon as a worker is "
                            "free)")
    serve.add_argument("--max-line-bytes", type=int, default=None,
                       help="per-request line size bound (default 1 MiB)")
    serve.add_argument("--request-timeout-s", type=float, default=30.0,
                       help="per-request answer deadline")
    serve.add_argument("--infer-dtype", choices=("float32", "float64"), default="float32",
                       help="execution tier for the served sketch (float32 default)")
    serve.add_argument("--no-cache", action="store_true", help="disable the answer cache")
    serve.add_argument("--cache-resolution", type=float, default=1e-4,
                       help="answer-cache quantization grid step")
    serve.add_argument("--cache-exact", action="store_true",
                       help="bypass quantization: only bit-identical queries hit")
    serve.add_argument("--mutable", action="store_true",
                       help="accept `ingest` frames (the artifact must be a "
                            "stream bundle written by `repro run --save-stream`)")

    ingest = sub.add_parser(
        "ingest",
        help="mutate a streaming sketch: append rows and/or delete a box "
             "(against a running server or a saved stream bundle)",
    )
    ingest.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="send an ingest frame to a running "
                             "`repro serve --mutable` server")
    ingest.add_argument("--sketch", default=None, metavar="PATH",
                        help="apply the mutation offline to a saved stream "
                             "bundle (rewritten in place unless --out is given)")
    ingest.add_argument("--out", default=None, metavar="PATH",
                        help="with --sketch: write the mutated bundle here "
                             "instead of overwriting the input")
    ingest.add_argument("--name", default=None, metavar="SKETCH",
                        help="with --connect: the registered sketch name "
                             "(default: the server's default sketch)")
    ingest.add_argument("--rows", default=None, metavar="FILE",
                        help="raw data rows to append: a .npy array or a text "
                             "file with one comma/space-separated row per line")
    ingest.add_argument("--row", action="append", default=None, metavar="V1,V2,...",
                        help="one raw data row to append (repeatable)")
    ingest.add_argument("--delete-lo", default=None, metavar="V1,V2,...",
                        help="raw-space lower corner of a delete box")
    ingest.add_argument("--delete-hi", default=None, metavar="V1,V2,...",
                        help="raw-space upper corner of a delete box "
                             "(rows with lo <= x < hi are deleted)")

    query = sub.add_parser(
        "query",
        help="one-shot ask against a saved sketch or a running server",
    )
    query.add_argument("--sketch", default=None, metavar="PATH",
                       help="saved sketch artifact (NeuroSketch or compiled form)")
    query.add_argument("--connect", default=None, metavar="HOST:PORT",
                       help="ask a running `repro serve --listen` server instead "
                            "of loading an artifact")
    query.add_argument("--name", default=None, metavar="SKETCH",
                       help="with --connect: the registered sketch name to ask "
                            "(default: the server's default sketch)")
    query.add_argument("--infer-dtype", choices=("float32", "float64"), default="float32",
                       help="execution tier (must match a `repro serve` it is compared to)")
    query.add_argument("values", nargs="+",
                       help="query vector components (space- or comma-separated)")

    compare = sub.add_parser("compare", help="compare previously written BENCH files")
    compare.add_argument("bench_files", nargs="+", help="paths to BENCH_*.json files")

    sub.add_parser("list-datasets", help="show the dataset registry")

    return parser


def _operator_error(exc: Exception) -> int:
    """Print an expected operator error (bad name, unreadable file) cleanly."""
    # KeyError reprs its message if str()'d directly; OSError's args[0] is an
    # errno. Pick whichever reads as a sentence.
    reason = str(exc) if isinstance(exc, OSError) else (exc.args[0] if exc.args else exc)
    print(f"repro: error: {reason}", file=sys.stderr)
    return 2


def _default_bench_name(dataset_arg: str) -> str:
    """The BENCH trajectory name of a dataset, so alias spellings
    (synthetic/gmm/G5) all write the same BENCH_* file across PRs: the first
    registered alias per dataset wins; unaliased datasets use their own name."""
    from repro.data.registry import aliases_by_dataset, resolve_dataset_name

    canonical = resolve_dataset_name(dataset_arg)
    aliases = aliases_by_dataset().get(canonical)
    return aliases[0] if aliases else canonical


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.eval.reporting import format_result_table, write_bench_json
    from repro.eval.runner import ExperimentConfig, run_experiment

    try:
        config = ExperimentConfig(
            dataset=args.dataset,
            n_rows=args.n_rows,
            aggregate=args.aggregate,
            estimators=args.estimators,
            n_train=args.n_train,
            n_test=args.n_test,
            seed=args.seed,
            tree_height=args.tree_height,
            n_partitions=None if args.partitions == 0 else args.partitions,
            epochs=args.epochs,
            batch_size=args.train_batch_size,
            optimizer=args.optimizer,
            patience=args.patience,
            min_delta=args.min_delta,
            train_backend=args.train_backend,
            build_workers=args.build_workers,
            build_shards=args.build_shards,
            data_source=args.data_source,
            sample_frac=args.sample_frac,
            compile=not args.no_compile,
            infer_dtype=args.infer_dtype,
            fast=args.fast,
            stream_bench=not args.no_stream_bench,
        )
        name = args.name if args.name else _default_bench_name(args.dataset)
        # Fail the --save-sketch/--save-stream preconditions before the
        # (possibly long) experiment runs, not after.
        if args.save_sketch and "neurosketch" not in config.estimators:
            raise ValueError("--save-sketch needs 'neurosketch' among --estimators")
        if args.save_stream and "neurosketch" not in config.estimators:
            raise ValueError("--save-stream needs 'neurosketch' among --estimators")
        if args.save_stream and args.no_stream_bench:
            raise ValueError("--save-stream conflicts with --no-stream-bench")
    except (KeyError, ValueError) as exc:
        return _operator_error(exc)
    progress = None if args.quiet else (lambda msg: print(f"[repro] {msg}", file=sys.stderr))
    result = run_experiment(config, progress=progress)
    print(format_result_table(result))
    if not args.no_bench:
        try:
            path = write_bench_json(result, name, args.out_dir)
        except OSError as exc:  # unwritable --out-dir
            return _operator_error(exc)
        print(f"\nwrote {path}")
    if args.save_sketch:
        sketch = result.fitted.get("neurosketch")
        if sketch is None:
            return _operator_error(
                ValueError("--save-sketch needs 'neurosketch' among --estimators")
            )
        try:
            sketch.save(args.save_sketch)
        except OSError as exc:
            return _operator_error(exc)
        print(f"wrote {args.save_sketch}")
    if args.save_stream:
        stream = result.fitted.get("stream")
        if stream is None:
            return _operator_error(
                ValueError("the stream bench produced no mutable sketch "
                           "(it needs the compiled 'neurosketch' estimator)")
            )
        try:
            stream.save_npz(args.save_stream)
        except OSError as exc:
            return _operator_error(exc)
        print(f"wrote {args.save_stream}")
    return 0


def _parse_query_vector(values: list[str]) -> np.ndarray:
    parts = [p for chunk in values for p in chunk.replace(",", " ").split()]
    try:
        q = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError:
        raise ValueError(f"query components must be numbers, got {values!r}")
    if q.size == 0:
        raise ValueError("empty query vector")
    return q


def _stdio_loop(service, max_line_bytes: int, timeout_s: float) -> None:
    # One frame -> one response; answer_frame never raises and encode_safe
    # never emits bare NaN JSON.
    from repro.serve import protocol
    from repro.serve.service import answer_frame

    for raw in sys.stdin:
        if not raw.strip():
            continue
        response = answer_frame(service, raw.strip(), max_line_bytes, timeout_s)
        print(protocol.encode_safe(response), flush=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.serve import SketchService, load_sketch, protocol, start_server_thread
    from repro.serve.client import parse_address

    if args.listen and args.stdio:
        return _operator_error(ValueError("--listen and --stdio are mutually exclusive"))
    max_line_bytes = (
        protocol.MAX_LINE_BYTES if args.max_line_bytes is None else args.max_line_bytes
    )
    try:
        sketch = load_sketch(args.sketch, dtype=args.infer_dtype)
    # EOFError: a truncated gzip stream ends without the stream marker.
    except (OSError, ValueError, EOFError) as exc:
        return _operator_error(exc)
    try:
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
    except ValueError as exc:  # bad cache/batch/worker knobs
        return _operator_error(exc)
    if args.listen is None:
        print(f"[repro serve] loaded {args.sketch}; reading protocol frames from stdin",
              file=sys.stderr)
        with service:
            _stdio_loop(service, max_line_bytes, args.request_timeout_s)
            stats = service.stats()
        print(f"[repro serve] done: {stats}", file=sys.stderr)
        return 0
    try:
        host, port = parse_address(args.listen)
        handle = start_server_thread(
            service,
            host=host,
            port=port,
            max_line_bytes=max_line_bytes,
            request_timeout_s=args.request_timeout_s,
        )
    except (ValueError, OSError) as exc:  # bad address / port in use
        service.close()
        return _operator_error(exc)
    bound = "{}:{}".format(*handle.address)
    print(f"[repro serve] loaded {args.sketch}; listening on {bound} "
          f"({args.workers} workers)", file=sys.stderr)
    try:
        threading.Event().wait()  # serve until interrupted
    except KeyboardInterrupt:
        print("[repro serve] draining...", file=sys.stderr)
    finally:
        handle.stop()
        service.close()
    print("[repro serve] stopped", file=sys.stderr)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serve import Client, ServerError, load_sketch

    if (args.sketch is None) == (args.connect is None):
        return _operator_error(ValueError("pass exactly one of --sketch or --connect"))
    try:
        q = _parse_query_vector(args.values)
    except ValueError as exc:
        return _operator_error(exc)
    if args.connect is not None:
        try:
            with Client.connect(args.connect) as client:
                answer = client.ask(q, sketch=args.name)
        except (OSError, ValueError, ServerError) as exc:
            return _operator_error(exc)
        print(repr(answer))
        return 0
    try:
        sketch = load_sketch(args.sketch, dtype=args.infer_dtype)
        # A 1-row predict runs the scalar kernel, so a one-shot query
        # computes exactly what a single-query service flush would for the
        # same vector (a multi-query flush takes the segmented gemm path,
        # which may differ in the last ulps).
        answer = float(sketch.predict(q[None, :])[0])
    # EOFError: a truncated gzip stream ends without the stream marker.
    except (OSError, ValueError, EOFError) as exc:
        return _operator_error(exc)
    print(repr(answer))
    return 0


def _load_ingest_rows(args: argparse.Namespace) -> np.ndarray | None:
    """Collect the append rows of an ``ingest`` invocation (or ``None``)."""
    chunks: list[np.ndarray] = []
    if args.rows:
        if args.rows.endswith(".npy"):
            chunks.append(np.atleast_2d(np.asarray(np.load(args.rows), dtype=np.float64)))
        else:
            with open(args.rows) as fh:
                lines = [line for line in fh if line.strip()]
            if lines:
                chunks.append(np.vstack([_parse_query_vector([line]) for line in lines]))
    for spec in args.row or ():
        chunks.append(_parse_query_vector([spec])[None, :])
    if not chunks:
        return None
    try:
        return np.vstack(chunks)
    except ValueError:
        raise ValueError("append rows do not all have the same width")


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json

    if (args.sketch is None) == (args.connect is None):
        return _operator_error(ValueError("pass exactly one of --sketch or --connect"))
    if (args.delete_lo is None) != (args.delete_hi is None):
        return _operator_error(ValueError("--delete-lo and --delete-hi come together"))
    try:
        rows = _load_ingest_rows(args)
        delete = None
        if args.delete_lo is not None:
            lo = _parse_query_vector([args.delete_lo])
            hi = _parse_query_vector([args.delete_hi])
            if lo.shape != hi.shape:
                raise ValueError("--delete-lo and --delete-hi must have the same width")
            delete = (lo, hi)
        if rows is None and delete is None:
            raise ValueError("nothing to ingest: pass --rows/--row and/or a delete box")
    except (OSError, ValueError) as exc:
        return _operator_error(exc)
    if args.connect is not None:
        from repro.serve import Client, ServerError

        if args.out is not None:
            return _operator_error(ValueError("--out only applies to --sketch mode"))
        try:
            with Client.connect(args.connect) as client:
                summary = client.ingest(rows=rows, delete=delete, sketch=args.name)
        except (OSError, ValueError, ServerError) as exc:
            return _operator_error(exc)
        print(json.dumps(summary, sort_keys=True))
        return 0
    from repro.stream.sketch import load_stream_sketch, summarize

    try:
        sketch = load_stream_sketch(args.sketch)
        results = []
        if rows is not None:
            results.append(sketch.append(rows))
        if delete is not None:
            results.append(sketch.delete(delete[0], delete[1]))
        out = args.out if args.out else args.sketch
        sketch.save_npz(out)
    except (OSError, ValueError, EOFError) as exc:
        return _operator_error(exc)
    print(json.dumps(summarize(results), sort_keys=True))
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.eval.reporting import format_comparison_table, load_bench_json

    benches: dict[str, dict] = {}
    for raw in args.bench_files:
        path = Path(raw)
        label = path.stem.removeprefix("BENCH_")
        if label in benches:  # two files with the same stem from different dirs
            label = str(path)
        try:
            benches[label] = load_bench_json(path)
        except (OSError, ValueError) as exc:  # missing file / malformed JSON
            return _operator_error(exc)
    try:
        table = format_comparison_table(benches)
    except (KeyError, TypeError, AttributeError) as exc:
        # BENCH files are cross-PR artifacts; a foreign or pre-schema file
        # must fail as an operator error, not a traceback.
        return _operator_error(
            ValueError(f"bench file does not match the expected schema: {exc!r}")
        )
    print(table)
    return 0


def _cmd_list_datasets(_: argparse.Namespace) -> int:
    from repro.data.registry import DATASET_NAMES, aliases_by_dataset, dataset_info

    alias_of = aliases_by_dataset()
    print(f"{'name':<8}{'paper n':>12}{'dim':>6}{'default n':>12}  aliases")
    for name in DATASET_NAMES:
        info = dataset_info(name)
        aliases = ", ".join(sorted(alias_of.get(name, []))) or "-"
        print(f"{name:<8}{info['paper_n']:>12}{info['dim']:>6}{info['default_n']:>12}  {aliases}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "serve": _cmd_serve,
        "ingest": _cmd_ingest,
        "query": _cmd_query,
        "compare": _cmd_compare,
        "list-datasets": _cmd_list_datasets,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); exit quietly
        # like standard Unix tools. Redirect stdout so the interpreter's
        # shutdown flush doesn't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
