"""The asyncio socket server: round trips, concurrency parity, robustness."""

import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    Client,
    ServerError,
    SketchService,
    load_sketch,
    start_server_thread,
)
from repro.serve.client import parse_address

DATA = Path(__file__).resolve().parent / "data"


class SumSketch:
    """Deterministic fake sketch: answer = sum of query components."""

    def predict(self, Q):
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        return Q.sum(axis=1)


class SlowSketch(SumSketch):
    """SumSketch that sleeps per predict call (timeout/drain tests)."""

    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.n_calls = 0

    def predict(self, Q):
        self.n_calls += 1
        time.sleep(self.delay_s)
        return super().predict(Q)


@pytest.fixture()
def golden_compiled():
    return load_sketch(str(DATA / "golden_sketch.json.gz"))


@pytest.fixture()
def sum_server():
    """A live server over a SumSketch service (cache on, 2 workers)."""
    svc = SketchService(workers=2, max_delay_s=1e-3)
    svc.register("sum", SumSketch())
    handle = start_server_thread(svc)
    try:
        yield svc, handle
    finally:
        handle.stop()
        svc.close()


# ------------------------------------------------------------- basic round trip


def test_client_round_trip_query_batch_stats(sum_server):
    _, handle = sum_server
    with Client.connect(handle.address) as client:
        assert client.ask([1.0, 2.0]) == 3.0
        assert client.last_cached is False
        assert client.ask([1.0, 2.0]) == 3.0
        assert client.last_cached is True  # answer cache hit, flagged on the wire
        Q = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(client.ask_many(Q), Q.sum(axis=1))
        np.testing.assert_array_equal(
            client.ask_many(Q, pipeline=True), Q.sum(axis=1)
        )
        stats = client.stats()
        assert stats["sketch"] == "sum"
        assert stats["server"]["requests"] >= 4
        assert stats["batcher"]["workers"] == 2


def test_parse_address_shapes():
    assert parse_address("127.0.0.1:80") == ("127.0.0.1", 80)
    assert parse_address(("h", 9)) == ("h", 9)
    for bad in ("no-port", ":80", "h:not-a-number"):
        with pytest.raises(ValueError):
            parse_address(bad)


def test_unknown_sketch_is_a_structured_error(sum_server):
    _, handle = sum_server
    with Client.connect(handle.address) as client:
        with pytest.raises(ServerError) as excinfo:
            client.ask([1.0], sketch="nope")
        assert excinfo.value.code == "unknown-sketch"
        assert client.ask([1.0, 1.0], sketch="sum") == 2.0  # connection survived


# --------------------------------------------------- concurrent answer parity


@pytest.mark.parametrize("tier", ["float64", "float32"])
def test_concurrent_clients_get_bitwise_identical_answers(golden_compiled, tier):
    """N clients over the socket == local predict, float-exact per tier.

    Each client batches its workload on its own sketch entry (all entries
    share one engine), so concurrency exercises the replica pool while
    every flush hands the engine exactly that client's block — the wire
    answers must match a local ``predict`` to the bit.
    """
    engine = golden_compiled.with_dtype(tier)
    n_clients = 8
    rng = np.random.default_rng(5)
    Q = rng.uniform(0.0, 1.0, size=(48, engine.input_dim))
    expected = engine.predict(Q)
    svc = SketchService(cache=False, workers=n_clients)
    for c in range(n_clients):
        svc.register(f"c{c}", engine)
    handle = start_server_thread(svc)
    try:
        results = [None] * n_clients
        barrier = threading.Barrier(n_clients)

        def worker(i):
            with Client.connect(handle.address) as client:
                barrier.wait(timeout=30.0)
                results[i] = client.ask_many(Q, sketch=f"c{i}")

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        for i, answers in enumerate(results):
            assert answers is not None, f"client {i} never answered"
            np.testing.assert_array_equal(answers, expected)
    finally:
        handle.stop()
        svc.close()


def test_pipelined_concurrent_clients_share_one_entry(sum_server):
    # The throughput shape: many clients pipelining single-query frames
    # into one shared entry; answers must come back matched to their ids.
    _, handle = sum_server
    n_clients = 8
    rng = np.random.default_rng(9)
    blocks = [rng.uniform(size=(25, 3)) for _ in range(n_clients)]
    results = [None] * n_clients

    def worker(i):
        with Client.connect(handle.address) as client:
            results[i] = client.ask_many(blocks[i], sketch="sum", pipeline=True)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    for i in range(n_clients):
        np.testing.assert_allclose(results[i], blocks[i].sum(axis=1), rtol=1e-12)


# ----------------------------------------------------------------- robustness


def test_malformed_lines_keep_the_connection_alive(sum_server):
    _, handle = sum_server
    with Client.connect(handle.address) as client:
        sock = client._require_open()
        for garbage in (b"this is not json\n", b'"a string"\n', b'{"op": "nope"}\n'):
            sock.sendall(garbage)
            with pytest.raises(ServerError) as excinfo:
                client._read_response()
            assert excinfo.value.code in ("bad-json", "bad-request")
        assert client.ask([2.0, 3.0]) == 5.0


def test_oversized_line_yields_error_and_connection_survives():
    svc = SketchService(cache=False)
    svc.register("sum", SumSketch())
    handle = start_server_thread(svc, max_line_bytes=512)
    try:
        with Client.connect(handle.address) as client:
            sock = client._require_open()
            # Over the frame bound but under the hard stream limit: the
            # whole line arrives and is rejected by size check.
            sock.sendall(b"[" + b"0.5," * 160 + b"0.5]\n")
            with pytest.raises(ServerError) as excinfo:
                client._read_response()
            assert excinfo.value.code == "oversized"
            # Grossly over even the stream limit: the discard path eats it
            # without buffering the whole line.
            sock.sendall(b"[" + b"0.5," * 20_000 + b"0.5]\n")
            with pytest.raises(ServerError) as excinfo:
                client._read_response()
            assert excinfo.value.code == "oversized"
            assert client.ask([1.0, 1.0], sketch="sum") == 2.0
    finally:
        handle.stop()
        svc.close()


def test_oversized_frame_pipelined_ahead_of_a_query_is_answered_first():
    """A rejected frame answers in place: the query pipelined behind it on
    the same connection still gets its own reply, after the error."""
    svc = SketchService(cache=False)
    svc.register("sum", SumSketch())
    handle = start_server_thread(svc, max_line_bytes=512)
    try:
        with Client.connect(handle.address) as client:
            q = ", ".join(["1.0"] * 200)  # ~1 KiB frame against a 512-byte bound
            client._require_open().sendall(
                f'{{"v":1,"op":"query","q":[{q}],"id":"big"}}\n'
                '{"v":1,"op":"query","q":[2.0],"id":"ok"}\n'.encode()
            )
            with pytest.raises(ServerError) as excinfo:
                client._read_response()
            assert excinfo.value.code == "oversized"
            second = read_replies(client, 1)
            assert second["ok"].answer == 2.0
    finally:
        handle.stop()
        svc.close()


def test_slow_sketch_times_out_with_structured_error():
    svc = SketchService(cache=False, max_delay_s=1e-3)
    svc.register("slow", SlowSketch(delay_s=2.0))
    handle = start_server_thread(svc, request_timeout_s=0.2)
    try:
        with Client.connect(handle.address) as client:
            t0 = time.perf_counter()
            with pytest.raises(ServerError) as excinfo:
                client.ask([1.0])
            assert excinfo.value.code == "timeout"
            assert time.perf_counter() - t0 < 1.5  # did not wait out the sketch
    finally:
        handle.stop()
        svc.close()


def test_sketch_exception_reports_internal_error():
    class Boom:
        def predict(self, Q):
            raise RuntimeError("kaboom")

    svc = SketchService(cache=False, max_delay_s=1e-3)
    svc.register("boom", Boom())
    handle = start_server_thread(svc)
    try:
        with Client.connect(handle.address) as client:
            with pytest.raises(ServerError) as excinfo:
                client.ask([1.0])
            assert excinfo.value.code == "internal"
            assert "kaboom" in str(excinfo.value)
            assert client._rfile is not None  # connection object still open
    finally:
        handle.stop()
        svc.close()


# ------------------------------------------------- per-iteration query blocks


def send_pipelined(client, queries, first_id=0, sketch=None):
    """Write one single-query frame per row in one send; returns the ids."""
    from repro.serve import protocol
    from repro.serve.protocol import QueryRequest

    ids = list(range(first_id, first_id + len(queries)))
    frames = [
        protocol.encode(QueryRequest(q=tuple(map(float, q)), id=i, sketch=sketch))
        for i, q in zip(ids, queries)
    ]
    client._require_open().sendall(("\n".join(frames) + "\n").encode())
    return ids


def read_replies(client, n):
    """Read ``n`` raw response frames (errors included), keyed by id."""
    from repro.serve import protocol

    out = {}
    for _ in range(n):
        response = protocol.decode_response(client._rfile.readline())
        out[response.id] = response
    return out


def test_pipelined_single_queries_share_flushes():
    svc = SketchService(cache=False, workers=2)
    svc.register("sum", SumSketch())
    handle = start_server_thread(svc)
    rng = np.random.default_rng(12)
    Q = rng.uniform(size=(64, 3))
    try:
        with Client.connect(handle.address) as a, Client.connect(handle.address) as b:
            send_pipelined(a, Q[:32])
            send_pipelined(b, Q[32:], first_id=32)
            replies = {**read_replies(a, 32), **read_replies(b, 32)}
        assert sorted(replies) == list(range(64))
        for i, response in replies.items():
            assert response.answer == Q[i].sum() and response.cached is False
        flushes = svc.stats()["batcher"]["n_flushes"]
        assert 1 <= flushes < 64
    finally:
        handle.stop()
        svc.close()


def test_pipelined_queries_to_a_slow_sketch_time_out_by_id():
    svc = SketchService(cache=False)
    svc.register("slow", SlowSketch(delay_s=2.0))
    handle = start_server_thread(svc, request_timeout_s=0.3)
    try:
        with Client.connect(handle.address) as a, Client.connect(handle.address) as b:
            t0 = time.perf_counter()
            ids = send_pipelined(a, np.ones((8, 2)), first_id=100)
            stats = b.stats()  # another connection is not held up
            assert stats["sketch"] == "slow"
            replies = read_replies(a, len(ids))
            assert time.perf_counter() - t0 < 1.5  # did not wait out the sketch
        assert sorted(replies) == ids
        assert {r.code for r in replies.values()} == {"timeout"}
    finally:
        handle.stop()
        svc.close()


def test_raising_sketch_fails_every_pipelined_query_by_id():
    class Boom:
        def predict(self, Q):
            raise RuntimeError("kaboom")

    svc = SketchService(cache=False)
    svc.register("boom", Boom())
    handle = start_server_thread(svc)
    try:
        with Client.connect(handle.address) as client:
            ids = send_pipelined(client, np.ones((10, 2)), first_id=7)
            replies = read_replies(client, len(ids))
            assert client.stats()["batcher"]["n_errors"] >= 1  # connection lives
    finally:
        handle.stop()
        svc.close()
    assert sorted(replies) == ids
    for response in replies.values():
        assert response.code == "internal" and "kaboom" in response.error


def test_sequential_wire_queries_equal_one_row_predict_bitwise(golden_compiled):
    """One query at a time makes one-row flushes, which take the scalar
    kernel — the same one ``predict(q[None])`` runs."""
    engine = golden_compiled.with_dtype("float32")
    Q = np.random.default_rng(8).uniform(size=(24, engine.input_dim))
    svc = SketchService(cache=False)
    svc.register("golden", engine)
    handle = start_server_thread(svc)
    try:
        with Client.connect(handle.address) as client:
            wire = [client.ask(q) for q in Q]
    finally:
        handle.stop()
        svc.close()
    local = [engine.predict(q[None])[0] for q in Q]
    assert np.asarray(wire).tobytes() == np.asarray(local).tobytes()


@pytest.mark.parametrize("tier", ["float32", "float64"])
def test_compiled_wire_answers_come_from_the_caller_path(golden_compiled, tier):
    """Under the shipped flags a compiled engine answers single queries on
    the server's loop thread: each reply is bitwise equal to the one-row
    predict, ``stats`` shows only caller-run flushes, and no flush worker
    thread starts."""
    engine = golden_compiled.with_dtype(tier)
    Q = np.random.default_rng(9).uniform(size=(16, engine.input_dim))
    before = set(threading.enumerate())
    svc = SketchService(workers=4)  # the CLI defaults: max_delay_s=0, cache on
    svc.register("golden", engine)
    handle = start_server_thread(svc)
    try:
        with Client.connect(handle.address) as client:
            wire = [client.ask(q) for q in Q]
            pipelined = read_replies(client, len(send_pipelined(client, Q[::-1], 100)))
            batch = client.ask_many(Q[:4])
            stats = client.stats()
    finally:
        handle.stop()
        svc.close()
    assert np.asarray(wire).tobytes() == np.array([engine.predict(q[None])[0] for q in Q]).tobytes()
    assert all(r.cached for r in pipelined.values())  # the first pass filled the cache
    assert list(batch) == wire[:4]
    assert stats["batcher"]["n_caller_flushes"] == stats["batcher"]["n_flushes"] == 16
    assert stats["batcher"]["n_worker_flushes"] == 0
    assert not [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("repro-microbatcher") and t not in before
    ]


def test_slow_sketch_times_out_with_no_accumulation_window():
    """``max_delay_s=0`` only moves compiled engines onto the loop thread; a
    slow sketch of any other kind still meets the request deadline."""
    svc = SketchService(cache=False, max_delay_s=0.0)
    svc.register("slow", SlowSketch(delay_s=2.0))
    handle = start_server_thread(svc, request_timeout_s=0.2)
    try:
        with Client.connect(handle.address) as client:
            t0 = time.perf_counter()
            with pytest.raises(ServerError) as excinfo:
                client.ask([1.0])
            assert excinfo.value.code == "timeout"
            # The loop thread was free to fire the deadline: the predict ran
            # on a flush worker.
            assert time.perf_counter() - t0 < 1.5
    finally:
        handle.stop()
        svc.close()


def test_queries_pipelined_before_an_ingest_see_pre_ingest_data(tmp_path):
    """Single queries sent ahead of an ingest on one connection are answered
    from the data before it, even though the ingest retrains and swaps."""
    from test_stream import rows_near, small_sketch

    from repro.serve import protocol
    from repro.serve.protocol import IngestRequest, QueryRequest
    from repro.stream import load_stream_sketch

    sketch = small_sketch()
    bundle = str(tmp_path / "bundle.npz")
    sketch.save_npz(bundle)
    twin = load_stream_sketch(bundle)
    rng = np.random.default_rng(32)
    Q = np.clip(0.35 + rng.uniform(-0.2, 0.2, size=(40, 2)), 0.0, 1.0)
    rows = rows_near(sketch, np.array([0.5, 0.5]), k=6, seed=60)
    svc = SketchService(cache=False, allow_mutations=True)
    svc.register("stream", sketch)
    handle = start_server_thread(svc)
    try:
        with Client.connect(handle.address) as client:
            ingest = protocol.encode(IngestRequest(rows=tuple(map(tuple, rows)), id="ingest"))
            queries = [
                protocol.encode(QueryRequest(q=tuple(map(float, q)), id=i))
                for i, q in enumerate(Q)
            ]
            client._require_open().sendall(("\n".join(queries + [ingest]) + "\n").encode())
            replies = read_replies(client, len(Q) + 1)
    finally:
        handle.stop()
        svc.close()
    assert replies["ingest"].ingest["swapped"]
    pre = twin.predict(Q)
    twin.append(rows)
    post = twin.predict(Q)
    wire = np.array([replies[i].answer for i in range(len(Q))])
    tol = 1e-5 * np.max(np.abs(pre))
    assert np.max(np.abs(post - pre)) > 100 * tol  # the ingest moved these answers
    np.testing.assert_allclose(wire, pre, rtol=0.0, atol=tol)


def test_unread_replies_stay_bounded_in_server_memory(sum_server):
    """A client that pipelines without reading stalls its own read loop
    instead of piling replies up in the server."""
    from repro.serve.server import WRITE_BUFFER_BOUND

    _, handle = sum_server
    n = 10_000  # ~500 KB of replies, far past the bound
    client = Client.connect(handle.address)
    try:
        assert client.ask([0.25, 0.5], sketch="sum") == 0.75  # warm the cache
        (writer,) = handle.server._writers
        # A small kernel send buffer, so the replies back up in user space.
        writer.get_extra_info("socket").setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sender = threading.Thread(
            target=send_pipelined,
            args=(client, np.tile([0.25, 0.5], (n, 1))),
            kwargs={"sketch": "sum"},
            daemon=True,
        )
        sender.start()
        peak = 0
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            peak = max(peak, writer.transport.get_write_buffer_size())
            time.sleep(0.01)
        assert peak <= 2 * WRITE_BUFFER_BOUND
        replies = read_replies(client, n)
        sender.join(timeout=30.0)
        assert len(replies) == n and all(r.answer == 0.75 for r in replies.values())
    finally:
        client.close()


def test_error_table_is_shared_by_every_transport():
    import asyncio
    from concurrent import futures

    from repro.serve import ImmutableSketchError
    from repro.serve.protocol import ProtocolError
    from repro.serve.service import error_response

    cases = {
        ProtocolError("bad", code="bad-json"): "bad-json",
        KeyError("unknown sketch 'x'"): "unknown-sketch",
        ImmutableSketchError("read-only"): "immutable",
        TimeoutError(): "timeout",
        asyncio.TimeoutError(): "timeout",
        futures.TimeoutError(): "timeout",
        ValueError("bad width"): "internal",
    }
    for exc, code in cases.items():
        response = error_response(exc, 9, 0.5)
        assert (response.code, response.id) == (code, 9)
    assert "0.5s" in error_response(TimeoutError(), 1, 0.5).error
    assert error_response(KeyError("no such"), 1, 0.5).error == "no such"


# ------------------------------------------------------------- shutdown drain


def test_stop_with_drain_answers_everything_in_flight():
    """No dropped futures: requests accepted before stop() all resolve."""
    sketch = SlowSketch(delay_s=0.25)
    svc = SketchService(cache=False, max_delay_s=1e-3, workers=2)
    svc.register("slow", sketch)
    handle = start_server_thread(svc)
    client = Client.connect(handle.address)
    try:
        n = 4
        frames = []
        from repro.serve import protocol
        from repro.serve.protocol import QueryRequest

        for i in range(n):
            frames.append(protocol.encode(QueryRequest(q=(float(i), 1.0), id=i)))
        client._require_open().sendall(("\n".join(frames) + "\n").encode())
        time.sleep(0.1)  # server has decoded and submitted; flush in progress
        handle.stop(drain=True)  # blocks until in-flight work is answered
        by_id = {}
        for _ in range(n):
            response = client._read_response()
            by_id[response.id] = response.answer
        assert by_id == {i: float(i) + 1.0 for i in range(n)}
    finally:
        client.close()
        svc.close()


def test_requests_after_drain_get_shutting_down(sum_server):
    svc, handle = sum_server
    with Client.connect(handle.address) as client:
        assert client.ask([1.0, 1.0]) == 2.0
        # Flip the drain flag directly (stop() would close the socket).
        handle.server._draining = True
        with pytest.raises(ServerError) as excinfo:
            client.ask([2.0, 2.0])
        assert excinfo.value.code == "shutting-down"


def test_stop_is_idempotent_and_frees_the_port():
    svc = SketchService(cache=False)
    svc.register("sum", SumSketch())
    handle = start_server_thread(svc)
    host, port = handle.address
    handle.stop()
    handle.stop()  # second stop is a no-op
    svc.close()
    # The port is actually released.
    probe = socket.socket()
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, port))
    finally:
        probe.close()


def test_stats_include_engine_replica_pool(golden_compiled):
    svc = SketchService(cache=False, workers=4)
    svc.register("golden", golden_compiled.with_dtype("float32"))
    handle = start_server_thread(svc)
    try:
        with Client.connect(handle.address) as client:
            client.ask_many(np.full((8, golden_compiled.input_dim), 0.5), sketch="golden")
            stats = client.stats("golden")
        assert stats["engine"]["max_replicas"] >= 4  # register() raised it
        assert 1 <= stats["engine"]["replicas"] <= stats["engine"]["max_replicas"]
        assert stats["engine"]["dtype"] == "float32"
    finally:
        handle.stop()
        svc.close()


# ------------------------------------------------------------------ CLI query


def test_cli_query_connect_round_trip(sum_server, capsys):
    from repro.cli import main

    _, handle = sum_server
    address = "{}:{}".format(*handle.address)
    rc = main(["query", "--connect", address, "--name", "sum", "0.25", "0.5"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == 0.75


def test_cli_query_requires_exactly_one_source(capsys):
    from repro.cli import main

    assert main(["query", "0.5"]) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(["query", "--sketch", "x", "--connect", "y:1", "0.5"]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_cli_query_connect_refused_is_clean(capsys):
    from repro.cli import main

    # A port nothing listens on: operator error, not a traceback.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    _, port = probe.getsockname()
    probe.close()
    rc = main(["query", "--connect", f"127.0.0.1:{port}", "0.5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


# ----------------------------------------------------------- streaming ingest


def test_server_ingest_over_socket_matches_in_process_twin(tmp_path):
    """A second client mutates the sketch mid-traffic; after the hot-swap,
    the first client's batched answers are bitwise-equal to an in-process
    sketch that applied the same updates."""
    from test_stream import rows_near, small_sketch

    from repro.stream import load_stream_sketch

    sketch = small_sketch()
    bundle = str(tmp_path / "bundle.npz")
    sketch.save_npz(bundle)
    twin = load_stream_sketch(bundle)
    svc = SketchService(cache=False, max_delay_s=1e-3, allow_mutations=True)
    svc.register("stream", sketch)
    handle = start_server_thread(svc)
    try:
        Q = np.random.default_rng(31).uniform(0.0, 1.0, size=(24, 2))
        with Client.connect(handle.address) as reader:
            before = np.asarray(reader.ask_many(Q), dtype=np.float64)
            assert before.tobytes() == np.asarray(twin.predict(Q)).tobytes()
            assert reader.epoch() == (0, 0)
            rows = rows_near(sketch, np.array([0.5, 0.5]), k=6, seed=60)
            with Client.connect(handle.address) as writer:
                summary = writer.ingest(rows=rows)
            assert summary["swapped"] and summary["epoch"] == 1
            # The wire summary is the in-process IngestResult plus the
            # serving layer's eviction count (0: the cache is off) and the
            # stage timings, which differ from run to run.
            assert summary.pop("cache_evictions") == 0
            assert set(summary.pop("stages")) == {"apply_s", "retrain_s", "invalidate_s"}
            assert summary == twin.append(rows).to_dict()
            after = np.asarray(reader.ask_many(Q), dtype=np.float64)
            assert after.tobytes() == np.asarray(twin.predict(Q)).tobytes()
            assert not np.array_equal(after, before)
            assert reader.epoch() == (1, 1)
            stats = reader.stats()
            assert stats["mutable"] is True and stats["stream"]["epoch"] == 1

            box = (np.array([0.0, 0.0]), np.array([2.0, 20.0]))
            with Client.connect(handle.address) as writer:
                summary = writer.ingest(delete=box)
            summary.pop("cache_evictions")
            summary.pop("stages")
            assert summary == twin.delete(*box).to_dict()
            assert reader.epoch() == (twin.epoch, twin.data_version)
            got = np.asarray(reader.ask_many(Q), dtype=np.float64)
            assert got.tobytes() == np.asarray(twin.predict(Q)).tobytes()
    finally:
        handle.stop()
        svc.close()


def test_server_without_mutations_answers_ingest_with_immutable_code():
    from test_stream import small_sketch

    svc = SketchService(cache=False, max_delay_s=1e-3)  # allow_mutations off
    svc.register("stream", small_sketch())
    handle = start_server_thread(svc)
    try:
        with Client.connect(handle.address) as client:
            with pytest.raises(ServerError) as excinfo:
                client.ingest(rows=[[1.0, 2.0]])
            assert excinfo.value.code == "immutable"
            # The refusal mutated nothing and the connection still serves.
            assert client.epoch() == (0, 0)
    finally:
        handle.stop()
        svc.close()
