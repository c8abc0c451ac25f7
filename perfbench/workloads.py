"""The benchmark's workloads: set-up, measured phases, checks and metrics.

The system under test is built identically on every run (``BUILD_SEED``);
a run's ``--seed`` drives its traffic only — which queries are sent, which
rows are ingested and which answers are scored — so run-to-run differences
come from the system, not from a different model. Queries follow the
paper's §5.1 generator over its synthetic G5 dataset, aggregating AVG.
README.md defines the workloads and every metric.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import loadgen
from spans import Tracer, cpu_ticks, host_info, median, pct, peak_rss_bytes, perf

from repro.cli import build_parser
from repro.core import CompiledSketch, NeuroSketch
from repro.data import load_dataset
from repro.eval.metrics import normalized_mae, normalized_max_abs_diff, uniform_answer_error
from repro.nn.train_core import TrainConfig
from repro.queries import QueryFunction, WorkloadGenerator
from repro.queries.executor import ExactEngine
from repro.serve import Client, SketchService, protocol
from repro.serve.protocol import IngestRequest, QueryRequest, QueryResponse
from repro.stream import MaintenancePolicy, StreamingSketch, load_stream_sketch

# The system under test, identical on every run.
BUILD_SEED = 0
DATASET = "synthetic"  # the paper's G5: a 5-D Gaussian mixture
AGGREGATE = "AVG"
N_ROWS = 20_000
N_TRAIN = 2_000  # classic sketch: library defaults, h=4 kd-tree merged to 8 leaves
STREAM_HEIGHT = 6  # ingest: an unmerged 64-leaf streaming sketch ...
STREAM_QUERIES = 2_048  # ... with 32 training queries a leaf
STREAM_TRAIN = TrainConfig(epochs=20, batch_size=32, seed=BUILD_SEED)
SETUP_REPEATS = 5

# Traffic.
OPEN_RATE = 500.0  # q/s, well under what a 2-core host sustains: latency, not queueing
OPEN_SHARE = 0.75  # of a wire run: the open loop, then the closed loop for the rest
CONNECTIONS = 2
WINDOW = 16  # closed loop: frames in flight per connection
#: Closed-loop frames are built ahead for this rate, several times what the
#: server sustains; a run that sends them all fails its check.
MAX_QPS = 20_000
#: The closed loop settles into one of a few rates (4.1K to 5.3K q/s on
#: ``point``) that depend on how its frames first split into micro-batches,
#: and keeps it; segments that each start from an idle server draw the
#: split afresh, so ``query_qps`` averages over it.
CLOSED_SEGMENTS = 5
WARMUP_S = 0.25  # replies this early in a closed-loop segment are not counted
SETTLE_S = 30.0  # a reply later than this counts as failed
EMB_BATCH = 1_024
EMB_CHUNK = 4_096
SCORED = 4_000
PARITY_ROWS = 256
REPLAY_N = 1_000
REPLAY_BATCHES = 50
HOT_SET = 32
HOT_FRACTION = 0.75
INGEST_ROWS = 64
INGEST_PERIOD_S = 5.0
#: Fresh queries sent in batch frames of ``FILL_ROWS`` before timing, a
#: quarter of the answer cache's default capacity: see ``run_ingest``.
CACHE_FILL = 16_384
FILL_ROWS = 2_048
#: Ingested rows fall in the corner of the seed data's range this wide (a
#: share of each attribute's range): a localized feed, as from sensors, that
#: dirties a few of the 64 leaves.
CORNER_EPS = 0.04

WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_out"

E2E_UNITS = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_qps": "q/s",
    "nmae": "ratio",
    "server_rss_bytes": "B",
    "sketch_bytes": "B",
}

LAYER_UNITS = {
    "data.load_s": "s",
    "queries.label_s": "s",
    "core.fit_s": "s",
    "stream.build_s": "s",
    "core.compile_s": "s",
    "core.save_s": "s",
    "serve.boot_s": "s",
    "core.predict_batch_s": "s",
    "core.predict_one_s": "s",
    "core.warm_hit_rate": "ratio",
    "core.mean_segment_rows": "rows",
    "core.flush_predict_s": "s",
    "protocol.decode_request_s": "s",
    "protocol.encode_s": "s",
    "serve.submit_result_s": "s",
    "batching.flushes": "count",
    "batching.rows_per_flush": "rows",
    "batching.errors": "count",
    "cache.hit_rate": "ratio",
    "cache.invalidations": "count",
    "server.requests": "count",
    "server.errors": "count",
    "wire.unattributed_s": "s",
    "wire.query_p99_s": "s",
    "wire.ingest_p50_s": "s",
    "stream.apply_s": "s",
    "stream.retrain_s": "s",
    "stream.dirty_leaves": "count",
    "stream.retrained_leaves": "count",
    "stream.cache_evictions": "count",
    "loadgen.lag_p99_s": "s",
    "loadgen.sent": "count",
    "loadgen.answered": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Run:
    """One invocation: its inputs, its tracer and the servers it started."""

    seed: int
    seconds: float
    tracer: Tracer
    root: str
    workdir: str
    servers: list = field(default_factory=list)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])


@dataclass
class Outcome:
    e2e: dict
    layers: dict
    attempted: int
    failed: int
    checks: dict
    flags: dict | None = None


# ------------------------------------------------------------------ server

_LISTENING = re.compile(rb"listening on (\S+):(\d+)")


class ServeProcess:
    """``python -m repro serve`` in a child process."""

    def __init__(self, argv: list[str], root: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        self.log = b""

    def wait_listening(self, timeout_s: float = 60.0) -> tuple[str, int]:
        """Block until the server prints its bound address; return it."""
        fd = self.proc.stderr.fileno()
        deadline = perf() + timeout_s
        while (match := _LISTENING.search(self.log)) is None:
            left = deadline - perf()
            if left <= 0:
                raise RuntimeError("repro serve printed no listening line")
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError("repro serve exited: " + self.log.decode(errors="replace"))
                self.log += chunk
        return match.group(1).decode(), int(match.group(2))

    def stop(self) -> None:
        """SIGINT (the server drains and exits), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


def serve_command(path: str, mutable: bool) -> tuple[list[str], dict]:
    """``repro serve`` argv with every flag but the address at its shipped
    default, and the flags it runs with as the CLI parses them."""
    tail = ["serve", "--sketch", path, "--listen", "127.0.0.1:0"]
    if mutable:
        tail.append("--mutable")
    return [sys.executable, "-m", "repro", *tail], vars(build_parser().parse_args(tail))


# ------------------------------------------------------------------ set-up


@dataclass
class Built:
    """What one set-up produced."""

    qf: QueryFunction
    Q_train: np.ndarray
    y_train: np.ndarray
    sketch: object  # answers queries in this process
    flags: dict
    path: str
    stages: dict
    total_s: float = 0.0
    server: ServeProcess | None = None
    address: tuple | None = None


def _stage(run: Run, stages: dict, name: str, parent, fn):
    with run.tracer.span(name, parent) as span:
        out = fn()
    stages[name + "_s"] = span.seconds
    return out


def _boot(run: Run, built: Built, parent, save, mutable: bool) -> None:
    """Save the artifact and start ``repro serve`` on it."""
    argv = serve_command(built.path, mutable)[0]
    _stage(run, built.stages, "core.save", parent, lambda: save(built.path))

    def spawn():
        server = ServeProcess(argv, run.root)
        run.servers.append(server)
        return server, server.wait_listening()

    built.server, built.address = _stage(run, built.stages, "serve.boot", parent, spawn)


def setup_classic(run: Run, wire: bool) -> Built:
    """The paper's sketch: data, labels, fit, compile (then save and serve)."""
    path = os.path.join(run.workdir, "sketch.npz")
    flags = serve_command(path, mutable=False)[1]
    stages: dict = {}
    with run.tracer.span("setup") as root:
        p = root.index
        ds = _stage(
            run, stages, "data.load", p,
            lambda: load_dataset(DATASET, n=N_ROWS, seed=BUILD_SEED),
        )
        qf = QueryFunction.axis_range(ds, aggregate=AGGREGATE)
        Q, y = _stage(
            run, stages, "queries.label", p,
            lambda: WorkloadGenerator(qf, seed=BUILD_SEED + 1).labelled_sample(N_TRAIN),
        )
        fitted = _stage(
            run, stages, "core.fit", p,
            lambda: NeuroSketch(seed=BUILD_SEED).fit(Q_train=Q, y_train=y),
        )
        engine = _stage(
            run, stages, "core.compile", p,
            lambda: fitted.compile(dtype=flags["infer_dtype"]),
        )
        built = Built(qf, Q, y, engine, flags, path, stages)
        if wire:
            _boot(run, built, p, engine.save_npz, mutable=False)
    built.total_s = root.seconds
    return built


def setup_stream(run: Run) -> Built:
    """The mutable sketch: data, build (labels + fit), compile, save, serve."""
    path = os.path.join(run.workdir, "stream.npz")
    flags = serve_command(path, mutable=True)[1]
    stages: dict = {}
    with run.tracer.span("setup") as root:
        p = root.index
        ds = _stage(
            run, stages, "data.load", p,
            lambda: load_dataset(DATASET, n=N_ROWS, seed=BUILD_SEED),
        )
        qf = QueryFunction.axis_range(ds, aggregate=AGGREGATE)
        Q = WorkloadGenerator(qf, seed=BUILD_SEED + 1).sample(STREAM_QUERIES)
        sketch = _stage(
            run, stages, "stream.build", p,
            lambda: StreamingSketch.build(
                ds, Q, aggregate=AGGREGATE, tree_height=STREAM_HEIGHT,
                config=STREAM_TRAIN, seed=BUILD_SEED, serving_dtype=flags["infer_dtype"],
            ),
        )
        _stage(run, stages, "core.compile", p, sketch.engine)
        built = Built(qf, Q, sketch.y_train, sketch, flags, path, stages)
        _boot(run, built, p, sketch.save_npz, mutable=True)
    built.total_s = root.seconds
    return built


def build_repeated(run: Run, setup) -> tuple[Built, float, dict]:
    """Set up ``SETUP_REPEATS`` times and keep the last; returns it with the
    median total and per-stage set-up seconds."""
    built, totals, stages = None, [], []
    for _ in range(SETUP_REPEATS):
        if built is not None and built.server is not None:
            built.server.stop()
        built = setup(run)
        totals.append(built.total_s)
        stages.append(built.stages)
    return built, median(totals), {k: median([s[k] for s in stages]) for k in built.stages}


# ---------------------------------------------------------- measured phases


@contextmanager
def quiet_gc():
    """Keep collector pauses out of a measured phase."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def query_frames(Q: np.ndarray, first_id: int) -> list[bytes]:
    return [
        (protocol.encode(QueryRequest(q=tuple(row), id=first_id + i)) + "\n").encode()
        for i, row in enumerate(Q.tolist())
    ]


@dataclass
class Load:
    """What :func:`drive` sent and when."""

    due: list
    sent: list
    ingest_due: list
    ingest_sent: list
    closed_sent: list
    n_closed: int = 0
    windows: list = field(default_factory=list)
    settled: bool = False
    phases: tuple = (None, None)


def drive(run: Run, address, wire, frames, n_open: int, ingest_frames=()) -> Load:
    """An open loop over ``frames[:n_open]`` at ``OPEN_RATE``, then a
    closed loop over the rest for the run's remaining ``1 - OPEN_SHARE``,
    in ``CLOSED_SEGMENTS`` segments that each start from an idle server.

    Without ingest frames the open-loop reads alternate over both
    connections; with them, connection 1 reads and connection 2 sends the
    ingests on their own schedule, all due within the open loop. The closed
    loop reads on both connections.
    """
    n_ing = len(ingest_frames)
    load = Load(
        [0.0] * n_open, [0.0] * n_open, [0.0] * n_ing, [0.0] * n_ing,
        [0.0] * (len(frames) - n_open),
    )

    async def main() -> None:
        conns = await loadgen.connect(*address, wire, CONNECTIONS)
        open_readers = conns[:1] if n_ing else conns
        try:
            t0 = perf() + 0.05
            load.due[:] = [t0 + i / OPEN_RATE for i in range(n_open)]
            load.ingest_due[:] = [t0 + (j + 0.5) * INGEST_PERIOD_S for j in range(n_ing)]
            writes = asyncio.ensure_future(
                loadgen.open_loop(
                    [conns[-1]] * n_ing, list(ingest_frames), load.ingest_due, load.ingest_sent
                )
            )
            with run.tracer.span("phase.open") as open_phase:
                await loadgen.open_loop(
                    [open_readers[i % len(open_readers)] for i in range(n_open)],
                    frames[:n_open], load.due, load.sent,
                )
                await writes
                settled = await loadgen.settle(conns, SETTLE_S)
            with run.tracer.span("phase.closed") as closed_phase:
                seconds = run.seconds * (1 - OPEN_SHARE) / CLOSED_SEGMENTS
                for _ in range(CLOSED_SEGMENTS):
                    load.n_closed, start, end = await loadgen.closed_loop(
                        conns, frames[n_open:], load.n_closed, WINDOW, seconds,
                        load.closed_sent,
                    )
                    load.windows.append((start + WARMUP_S, end))
                    settled = await loadgen.settle(conns, SETTLE_S) and settled
            load.settled = settled
            load.phases = (open_phase.index, closed_phase.index)
        finally:
            await loadgen.close_all(conns)

    with quiet_gc():
        loadgen.run(main())
    return load


def wire_e2e(wire, load: Load, n_open: int) -> tuple[list, float]:
    """Open-loop latencies (from each frame's due time) and the closed
    loop's answered queries per second after its warm-up."""
    lat = [wire.recv[i] - load.due[i] for i in range(n_open) if wire.ok[i]]
    answered = sum(
        1
        for i in range(n_open, n_open + load.n_closed)
        if wire.ok[i] and any(lo <= wire.recv[i] < hi for lo, hi in load.windows)
    )
    return lat, answered / sum(hi - lo for lo, hi in load.windows)


def stats_layers(stats: dict, before: dict) -> dict:
    """Per-layer counters from the server's ``stats`` frame: what was added
    since the ``before`` frame (``{}`` for a fresh server)."""

    def added(section: str, key: str) -> float:
        return (stats.get(section) or {}).get(key, 0) - (before.get(section) or {}).get(key, 0)

    flushes = added("batcher", "n_flushes")
    hits = added("cache", "hits")
    lookups = hits + added("cache", "misses")
    return {
        "batching.flushes": flushes,
        "batching.rows_per_flush": added("batcher", "n_rows_flushed") / flushes if flushes else 0.0,
        "batching.errors": added("batcher", "n_errors"),
        "cache.hit_rate": hits / lookups if lookups else 0.0,
        "cache.invalidations": added("cache", "invalidations"),
        "server.requests": added("server", "requests"),
        "server.errors": added("server", "errors"),
        "core.warm_hit_rate": stats.get("engine", {}).get("warm_hit_rate", 0.0),
    }


def record_wire_spans(run: Run, wire, load: Load, n_open: int, ingest_ids=()) -> float:
    """Turn the run's per-frame stamps into spans, after the run, so the
    measured phases do the same work traced or not. Returns the seconds
    this took: the traced run's overhead."""
    tr = run.tracer
    open_phase, closed_phase = load.phases
    with tr.span("trace.record") as record:
        for i in range(n_open):
            if wire.ok[i]:
                tr.add("wire.query", load.due[i], wire.recv[i], open_phase, i)
        for j, sent in enumerate(load.closed_sent[: load.n_closed]):
            if wire.ok[n_open + j]:
                tr.add("wire.query", sent, wire.recv[n_open + j], closed_phase, n_open + j)
        for rid, due in zip(ingest_ids, load.ingest_due):
            if wire.ok[rid]:
                tr.add("wire.ingest", due, wire.recv[rid], None, rid)
    return record.seconds


def _timed(tr: Tracer, name: str, parent, rid, fn, *args) -> float:
    with tr.span(name, parent, rid) as span:
        fn(*args)
    return span.seconds


def wire_replays(run: Run, engine, Q, frames, answers, flags, rows_per_flush, p50) -> dict:
    """Replay each layer of a wire run in-process on the run's own inputs:
    frame decode, answer encode, ``SketchService.submit`` until its Future
    resolves (shipped ``repro serve`` flags, at the open-loop rate), and
    ``predict`` at the server's mean flush size, on ``EMB_BATCH`` rows and
    one query at a time."""
    tr = run.tracer
    with tr.span("replay.wire") as root:
        p = root.index
        decode = [
            _timed(tr, "protocol.decode_request", p, i, protocol.decode_request, f[:-1])
            for i, f in enumerate(frames[:REPLAY_N])
        ]
        encode = [
            _timed(tr, "protocol.encode", p, i, protocol.encode_safe,
                   QueryResponse(answer=float(a), id=i))
            for i, a in enumerate(answers[:REPLAY_N])
        ]
        service = SketchService(
            max_batch_size=flags["max_batch"],
            max_delay_s=flags["max_delay_ms"] / 1e3,
            cache=not flags["no_cache"],
            cache_resolution=flags["cache_resolution"],
            cache_exact=flags["cache_exact"],
            workers=flags["workers"],
        )
        submit = []
        with service:
            service.register("default", engine)
            due = perf()
            for i, q in enumerate(Q[:REPLAY_N]):
                submit.append(_timed(
                    tr, "serve.submit_result", p, i,
                    lambda q=q: service.submit(q).result(timeout=SETTLE_S),
                ))
                due += 1.0 / OPEN_RATE
                time.sleep(max(0.0, due - perf()))
        k = max(1, int(round(rows_per_flush)))
        flush = [
            _timed(tr, "core.flush_predict", p, i, engine.predict, Q[i * k : (i + 1) * k])
            for i in range(min(REPLAY_N, len(Q) // k))
        ]
        batch = [
            _timed(tr, "core.predict", p, i, engine.predict,
                   Q[i * EMB_BATCH : (i + 1) * EMB_BATCH])
            for i in range(min(REPLAY_BATCHES, len(Q) // EMB_BATCH))
        ]
        one = [
            _timed(tr, "core.predict_one", p, i, engine.predict_one, q)
            for i, q in enumerate(Q[:REPLAY_N])
        ]
    parts = {"decode": median(decode), "submit": median(submit), "encode": median(encode)}
    return {
        "protocol.decode_request_s": parts["decode"],
        "protocol.encode_s": parts["encode"],
        "serve.submit_result_s": parts["submit"],
        "core.flush_predict_s": median(flush),
        "core.predict_batch_s": median(batch),
        "core.predict_one_s": median(one),
        "core.mean_segment_rows": engine.segment_stats()["mean_segment_rows"],
        "wire.unattributed_s": p50 - sum(parts.values()),
    }


def scored_answers(wire, ids) -> tuple[list, np.ndarray]:
    """The answered subset of ``ids`` and their answers."""
    ok = [i for i in ids if wire.ok[i]]
    return ok, np.array([json.loads(wire.kept[i])["answer"] for i in ok], dtype=np.float64)


# ---------------------------------------------------------------- workloads


def run_embedded(run: Run) -> Outcome:
    """Library use in one thread: batch ``predict`` for half the run, then a
    closed loop of ``predict_one`` — fresh queries throughout."""
    built, setup_s, stages = build_repeated(run, lambda r: setup_classic(r, wire=False))
    rss = peak_rss_bytes()  # after set-up, before the samples below pile up
    engine, tr = built.sketch, run.tracer
    gen = WorkloadGenerator(built.qf, seed=run.rng(0))
    half = run.seconds / 2
    batch_t, batch_s, one_t, one_s, answers, chunks = [], [], [], [], [], []
    with quiet_gc():
        with tr.span("phase.batch") as batch_phase:
            end = perf() + half
            while perf() < end:
                Q = gen.sample(EMB_BATCH)
                t0 = perf()
                engine.predict(Q)
                t1 = perf()
                batch_t.append(t0)
                batch_s.append(t1 - t0)
        with tr.span("phase.predict_one") as one_phase:
            end = perf() + half
            while perf() < end:
                Q = gen.sample(EMB_CHUNK)
                chunks.append(Q)
                for q in Q:
                    t0 = perf()
                    a = engine.predict_one(q)
                    t1 = perf()
                    one_t.append(t0)
                    one_s.append(t1 - t0)
                    answers.append(a)
    calls = len(batch_s) + len(one_s)
    layers = {
        **stages,
        "core.predict_batch_s": median(batch_s),
        "core.predict_one_s": median(one_s),
        "core.warm_hit_rate": engine.replica_stats()["warm_hit_rate"],
        "core.mean_segment_rows": engine.segment_stats()["mean_segment_rows"],
        "loadgen.sent": calls,
        "loadgen.answered": calls,
    }
    if tr.enabled:
        with tr.span("trace.record") as record:
            for i, (t, d) in enumerate(zip(batch_t, batch_s)):
                tr.add("core.predict", t, t + d, batch_phase.index, i)
            for i, (t, d) in enumerate(zip(one_t, one_s)):
                tr.add("core.predict_one", t, t + d, one_phase.index, i)
        layers["trace.overhead_s"] = record.seconds

    Q_all, ans = np.concatenate(chunks), np.asarray(answers)
    idx = run.rng(1).choice(ans.size, size=min(SCORED, ans.size), replace=False)
    with tr.span("check.exact"):
        exact = built.qf(Q_all[idx])
    nmae = normalized_mae(ans[idx], exact)
    checks = {
        "nmae_beats_uniform": nmae < uniform_answer_error(built.y_train, exact),
        "predict_matches_predict_one":
            normalized_max_abs_diff(engine.predict(Q_all[idx]), ans[idx]) <= 1e-5,
    }
    e2e = {
        "setup_s": setup_s,
        "query_p50_s": median(one_s),
        "query_qps": EMB_BATCH / median(batch_s),
        "nmae": nmae,
        "server_rss_bytes": rss,
        "sketch_bytes": engine.num_bytes(),
    }
    return Outcome(e2e, layers, calls, 0, checks)


def run_point(run: Run) -> Outcome:
    """Independent users sending fresh single-query frames to ``repro serve``."""
    built, setup_s, stages = build_repeated(run, lambda r: setup_classic(r, wire=True))
    tr = run.tracer
    local = CompiledSketch.load_npz(built.path, dtype=built.flags["infer_dtype"])
    gen = WorkloadGenerator(built.qf, seed=run.rng(0))
    open_s = run.seconds * OPEN_SHARE
    n_open = int(OPEN_RATE * open_s)
    Q = gen.sample(n_open + int(MAX_QPS * (run.seconds - open_s)))
    frames = query_frames(Q, 0)
    scored = run.rng(1).choice(n_open, size=min(SCORED, n_open), replace=False).tolist()
    wire = loadgen.Wire(len(frames), keep=scored)
    load = drive(run, built.address, wire, frames, n_open)
    n_sent = n_open + load.n_closed
    failed = wire.orphans + sum(1 for i in range(n_sent) if not wire.ok[i])
    closed_frames_left = n_sent < len(frames)

    Q_parity = gen.sample(PARITY_ROWS)
    with tr.span("check.server"):
        with Client.connect(built.address) as client:
            stats = client.stats()
            served = client.ask_many(Q_parity)
        rss = peak_rss_bytes(built.server.proc.pid)
        built.server.stop()
    ids, answers = scored_answers(wire, scored)
    with tr.span("check.exact"):
        exact = built.qf(Q[ids])
    nmae = normalized_mae(answers, exact)
    checks = {
        "all_replies_in_time": load.settled,
        "closed_loop_frames_left": closed_frames_left,
        "batch_frame_bitwise_equals_local_predict":
            served.tobytes() == local.predict(Q_parity).tobytes(),
        "nmae_beats_uniform": nmae < uniform_answer_error(built.y_train, exact),
    }
    lat, qps = wire_e2e(wire, load, n_open)
    e2e = {
        "setup_s": setup_s,
        "query_p50_s": median(lat),
        "query_qps": qps,
        "nmae": nmae,
        "server_rss_bytes": rss,
        "sketch_bytes": local.num_bytes(),
    }
    layers = {
        **stages,
        **stats_layers(stats, {}),
        "wire.query_p99_s": pct(lat, 99),
        "loadgen.lag_p99_s": pct([s - d for s, d in zip(load.sent, load.due)], 99),
        "loadgen.sent": n_sent,
        "loadgen.answered": n_sent - failed,
    }
    if tr.enabled:
        layers["trace.overhead_s"] = record_wire_spans(run, wire, load, n_open)
        layers.update(wire_replays(
            run, local, Q[:n_sent], frames, answers, built.flags,
            layers["batching.rows_per_flush"], e2e["query_p50_s"],
        ))
    return Outcome(e2e, layers, n_sent + 2, failed, checks, built.flags)


def run_ingest(run: Run) -> Outcome:
    """Reads beside localized appends against ``repro serve --mutable``."""
    built, setup_s, stages = build_repeated(run, setup_stream)
    sketch, tr = built.sketch, run.tracer
    gen = WorkloadGenerator(built.qf, seed=run.rng(0))
    rows_rng = run.rng(2)
    open_s = run.seconds * OPEN_SHARE
    n_ing = int(open_s / INGEST_PERIOD_S)
    batches = [
        sketch.store.scaler.inverse_transform(
            rows_rng.random((INGEST_ROWS, sketch.store.dim)) * CORNER_EPS
        )
        for _ in range(n_ing)
    ]
    n_open = int(OPEN_RATE * open_s)
    n_reads = n_open + int(MAX_QPS * (run.seconds - open_s))
    hot = gen.sample(HOT_SET)
    Q = gen.sample(n_reads)
    # Only open-loop reads repeat the hot set. Closed-loop frames are sent
    # as fast as replies land, and with hits among them the rate flipped
    # between regimes (4.5K and 6.5K q/s) within a run.
    is_hot = np.zeros(n_reads, dtype=bool)
    is_hot[:n_open] = rows_rng.random(n_open) < HOT_FRACTION
    Q[is_hot] = hot[rows_rng.integers(0, HOT_SET, size=int(is_hot.sum()))]
    frames = query_frames(Q, 0)
    ingest_ids = list(range(n_reads, n_reads + n_ing))
    ingest_frames = [
        (protocol.encode(IngestRequest(rows=tuple(map(tuple, B.tolist())), id=i)) + "\n").encode()
        for i, B in zip(ingest_ids, batches)
    ]
    # Score fresh reads only: 32 repeating hot queries would dominate nMAE.
    fresh = np.flatnonzero(~is_hot[:n_open])
    scored = run.rng(1).choice(fresh, size=min(SCORED, fresh.size), replace=False).tolist()
    wire = loadgen.Wire(n_reads + n_ing, keep=scored + ingest_ids)
    # A long-running server's answer cache is not empty, and every ingest
    # scans all of it for entries in the dirty regions. Filled before timing,
    # the scan starts at the same size on every run, long enough that the
    # read tail is made by it rather than by thread hand-offs, and short
    # enough that ingests stall about a tenth of the reads, so p50 remains
    # an unstalled read.
    with tr.span("warm.cache"):
        with Client.connect(built.address) as client:
            fill = np.array_split(gen.sample(CACHE_FILL), CACHE_FILL // FILL_ROWS)
            for block in fill:
                client.ask_many(block)
            before = client.stats()
    load = drive(run, built.address, wire, frames, n_open, ingest_frames)
    n_sent = n_open + load.n_closed
    sent_ids = list(range(n_sent)) + ingest_ids
    failed = wire.orphans + sum(1 for i in sent_ids if not wire.ok[i])
    closed_frames_left = n_sent < n_reads
    ingest_lat = [wire.recv[i] - d for i, d in zip(ingest_ids, load.ingest_due) if wire.ok[i]]
    summaries = [json.loads(wire.kept[i])["ingest"] for i in ingest_ids if wire.ok[i]]

    # The twin replays the same appends with retraining gated off, so apply
    # and retrain time separately; retrain_pending then refits exactly the
    # leaves the served default policy retrained on each append.
    twin = load_stream_sketch(built.path, serving_dtype=built.flags["infer_dtype"])
    twin.policy = MaintenancePolicy(min_dirty_rows=1 << 62)
    apply_s, retrain_s, dirty, retrained = [], [], [], []
    with tr.span("replay.stream") as replay:
        for rid, rows in zip(ingest_ids, batches):
            with tr.span("stream.apply", replay.index, rid) as span:
                applied = twin.append(rows)
            apply_s.append(span.seconds)
            with tr.span("stream.retrain", replay.index, rid) as span:
                refit = twin.retrain_pending()
            retrain_s.append(span.seconds)
            dirty.append(len(applied.dirty_leaves))
            retrained.append(len(refit.retrained_leaves))

    Q_parity = gen.sample(PARITY_ROWS)
    with tr.span("check.server"):
        with Client.connect(built.address) as client:
            stats = client.stats()
            served = client.ask_many(Q_parity)
            epoch = client.epoch()
        rss = peak_rss_bytes(built.server.proc.pid)
        built.server.stop()
    ids, answers = scored_answers(wire, scored)
    with tr.span("check.exact"):
        live = ExactEngine(twin.store.live_X, twin.store.live_measure)
        exact = live.answer(twin.predicate, Q[ids], twin.aggregate)
    nmae = normalized_mae(answers, exact)
    checks = {
        "all_replies_in_time": load.settled,
        "closed_loop_frames_left": closed_frames_left,
        "every_ingest_applied": len(summaries) == n_ing,
        # Each ingest is answered before the next is due: they never queue.
        "ingests_do_not_queue": max(ingest_lat, default=INGEST_PERIOD_S) < INGEST_PERIOD_S,
        "served_epoch_equals_twin": epoch == (twin.epoch, twin.data_version),
        "batch_frame_bitwise_equals_twin":
            served.tobytes() == twin.predict(Q_parity).tobytes(),
        # The baseline answers the mean of the live training labels.
        "nmae_beats_uniform": nmae < uniform_answer_error(twin.y_train, exact),
    }
    lat, qps = wire_e2e(wire, load, n_open)
    lags = [s - d for s, d in zip(load.sent + load.ingest_sent, load.due + load.ingest_due)]
    e2e = {
        "setup_s": setup_s,
        "query_p50_s": median(lat),
        "query_qps": qps,
        "nmae": nmae,
        "server_rss_bytes": rss,
        "sketch_bytes": twin.num_bytes(),
    }
    layers = {
        **stages,
        **stats_layers(stats, before),
        "wire.query_p99_s": pct(lat, 99),
        "wire.ingest_p50_s": median(ingest_lat),
        "stream.apply_s": median(apply_s),
        "stream.retrain_s": median(retrain_s),
        "stream.dirty_leaves": median(dirty),
        "stream.retrained_leaves": median(retrained),
        "stream.cache_evictions": sum(s["cache_evictions"] for s in summaries),
        "loadgen.lag_p99_s": pct(lags, 99),
        "loadgen.sent": len(sent_ids),
        "loadgen.answered": len(sent_ids) - failed,
    }
    if tr.enabled:
        # Set-up labels inside StreamingSketch.build; replay that share.
        with tr.span("queries.label") as span:
            built.qf(built.Q_train)
        layers["queries.label_s"] = span.seconds
        layers["trace.overhead_s"] = record_wire_spans(run, wire, load, n_open, ingest_ids)
        layers.update(wire_replays(
            run, twin.engine(), Q[:n_sent], frames, answers, built.flags,
            layers["batching.rows_per_flush"], e2e["query_p50_s"],
        ))
    attempted = len(sent_ids) + len(fill) + 4  # + stats x2, parity, epoch
    return Outcome(e2e, layers, attempted, failed, checks, built.flags)


WORKLOADS = {"embedded": run_embedded, "point": run_point, "ingest": run_ingest}


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: str):
    """Run one workload; returns ``(run record, result object)``."""
    workdir = os.path.join(root, WORK_DIR, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    run = Run(seed, seconds, Tracer(traced), root, workdir)
    steal0, total0 = cpu_ticks()
    try:
        out = WORKLOADS[name](run)
    finally:
        for server in run.servers:
            server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    steal1, total1 = cpu_ticks()
    unknown = set(out.layers) - set(LAYER_UNITS)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics {sorted(unknown)}")
    # A layer the workload never calls did no work in it: it reads 0.
    layers = {k: float(out.layers.get(k, 0.0)) for k in LAYER_UNITS}
    e2e = {k: float(out.e2e[k]) for k in E2E_UNITS}
    checks = {k: bool(v) for k, v in out.checks.items()}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        # A run on a host busy with other tenants reads slower throughout;
        # the CPU time stolen from this machine during the run shows it.
        "host": {**host_info(), "steal_share": (steal1 - steal0) / max(1, total1 - total0)},
        "server_flags": out.flags,
        "checks": checks,
        "end_to_end": e2e,
        "per_layer": layers,
    }
    if traced:
        os.makedirs(os.path.join(root, TRACE_DIR), exist_ok=True)
        path = os.path.join(root, TRACE_DIR, f"{name}-seed{seed}.trace.json")
        run.tracer.write(path, record)
        record["trace_file"] = os.path.relpath(path, root)
    values, units = (layers, LAYER_UNITS) if traced else (e2e, E2E_UNITS)
    result = {
        "correct": out.failed == 0 and all(checks.values()),
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return record, result
