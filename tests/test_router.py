"""The process-sharded router: parity, ordering, crash resilience."""

import json
import os
import signal
import socket
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    Client,
    ServerError,
    SketchRouter,
    load_sketch,
    prepare_worker_artifact,
    start_router_thread,
)
from repro.stream import load_stream_sketch

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = str(DATA / "golden_sketch.json.gz")

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="the router shards over POSIX pipes"
)


# A scripted stand-in for repro.serve.worker: speaks the rid-tagged pipe
# envelope, answers sum(q), and sleeps q[0] seconds first when the frame
# names the "slow" sketch — deterministic ordering/crash scenarios without
# a real sketch.
STUB_WORKER = """\
import json, sys, threading, time

out = sys.stdout.buffer
lock = threading.Lock()
out.write(b"READY\\n")
out.flush()

def answer(rid, frame):
    req = json.loads(frame)
    if req.get("sketch") == "slow":
        time.sleep(float(req["q"][0]))
    resp = {"v": 1, "ok": True, "answer": float(sum(req["q"])), "cached": False}
    if req.get("id") is not None:
        resp["id"] = req["id"]
    with lock:
        out.write(rid + b"\\t" + json.dumps(resp).encode() + b"\\n")
        out.flush()

for raw in sys.stdin.buffer:
    line = raw.rstrip(b"\\r\\n")
    if not line:
        continue
    rid, _, frame = line.partition(b"\\t")
    threading.Thread(target=answer, args=(rid, frame), daemon=True).start()
"""


@pytest.fixture(scope="module")
def golden_router(tmp_path_factory):
    """A 2-process router over the golden sketch (cache off, tiers named)."""
    artifact = prepare_worker_artifact(
        GOLDEN, dir=str(tmp_path_factory.mktemp("router"))
    )
    handle = start_router_thread(
        artifact,
        processes=2,
        worker_args=("--no-cache", "--register-tiers", "--infer-dtype", "float32"),
        restart_delay_s=0.2,
    )
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture()
def stub_router(tmp_path, monkeypatch):
    """A 2-process router whose workers run the scripted stub above."""
    stub = tmp_path / "stub_worker.py"
    stub.write_text(STUB_WORKER)
    monkeypatch.setattr(
        SketchRouter, "_worker_cmd", lambda self: [sys.executable, str(stub)]
    )
    handle = start_router_thread(
        "unused-artifact", processes=2, max_line_bytes=512, restart_delay_s=0.2
    )
    try:
        yield handle
    finally:
        handle.stop()


def _raw_conn(address):
    sock = socket.create_connection(address)
    sock.settimeout(15.0)
    return sock, sock.makefile("rb")


# ------------------------------------------------------------- golden parity


def test_router_wire_parity_per_tier(golden_router):
    """Answers through the router are bitwise-equal to a local predict on
    both tiers: workers boot from the npz spill (canonical float64 weights
    round-trip exactly) and re-tier deterministically."""
    rng = np.random.default_rng(7)
    local = {tier: load_sketch(GOLDEN, dtype=tier) for tier in ("float32", "float64")}
    Q = rng.uniform(-1.0, 3.0, size=(64, local["float32"].input_dim))
    with Client.connect(golden_router.address) as client:
        for tier, sketch in local.items():
            want = np.asarray(sketch.predict(Q), dtype=np.float64)
            got = np.asarray(client.ask_many(Q, sketch=tier), dtype=np.float64)
            assert np.max(np.abs(got - want)) == 0.0
            # Pipelined singles cross both workers and may merge into
            # micro-batches inside a shard (batch-path gemm, so only
            # ulp-level drift from the scalar kernel — bitwise parity is
            # the batch framing's contract above).
            singles = np.asarray(
                client.ask_many(Q[:8], sketch=tier, pipeline=True), dtype=np.float64
            )
            np.testing.assert_allclose(singles, want[:8], rtol=1e-5)


def test_router_stats_and_router_stats(golden_router):
    with Client.connect(golden_router.address) as client:
        stats = client.stats()
    # A stats frame passes through to one shard and reports that shard's
    # service counters — the same shape the single-process server returns.
    assert {"batcher", "sketch"} <= set(stats)
    rstats = golden_router.router.router_stats()
    assert rstats["processes"] == 2
    assert len(rstats["workers"]) == 2
    assert all(w["alive"] for w in rstats["workers"])
    assert sum(w["forwarded"] for w in rstats["workers"]) >= 1


def test_router_malformed_frame_yields_error_and_keeps_serving(golden_router):
    sock, rfile = _raw_conn(golden_router.address)
    try:
        sock.sendall(b"this is not json\n")
        sock.sendall(b'{"v":1,"op":"stats","id":2}\n')
        bad = json.loads(rfile.readline())
        good = json.loads(rfile.readline())
        assert bad["ok"] is False and bad["code"] == "bad-json"
        assert good["ok"] is True and good["id"] == 2
    finally:
        sock.close()


# -------------------------------------------------------- ordering semantics


def test_router_preserves_per_connection_order(stub_router):
    """A fast frame behind a slow one on the same connection is *delivered*
    second even though another worker answers it first — the reorder
    buffer makes id-less pipelining safe across shards."""
    sock, rfile = _raw_conn(stub_router.address)
    try:
        sock.sendall(b'{"v":1,"op":"query","sketch":"slow","q":[0.6],"id":"slow"}\n')
        sock.sendall(b'{"v":1,"op":"query","q":[1.0,2.0],"id":"fast"}\n')
        first = json.loads(rfile.readline())
        second = json.loads(rfile.readline())
        assert first["id"] == "slow" and first["answer"] == 0.6
        assert second["id"] == "fast" and second["answer"] == 3.0
    finally:
        sock.close()


def test_router_local_oversized_error_is_delivered_in_order(stub_router):
    q = ", ".join(["1.0"] * 200)  # ~1 KiB frame against a 512-byte bound
    sock, rfile = _raw_conn(stub_router.address)
    try:
        sock.sendall(f'{{"v":1,"op":"query","q":[{q}],"id":"big"}}\n'.encode())
        sock.sendall(b'{"v":1,"op":"query","q":[2.0],"id":"ok"}\n')
        first = json.loads(rfile.readline())
        second = json.loads(rfile.readline())
        assert first["ok"] is False and first["code"] == "oversized"
        assert second["id"] == "ok" and second["answer"] == 2.0
        assert stub_router.router.n_local_errors >= 1
    finally:
        sock.close()


# ----------------------------------------------------------- crash resilience


def test_router_redispatches_inflight_frames_from_dead_worker(stub_router):
    """SIGKILL a worker while it holds an in-flight frame: the frame is
    re-dispatched to the survivor (queries are pure reads) and the client
    still gets its answer — no error, no hang."""
    router = stub_router.router
    sock, rfile = _raw_conn(stub_router.address)
    try:
        # Round-robin starts at slot 0, so the slow frame lands there.
        sock.sendall(b'{"v":1,"op":"query","sketch":"slow","q":[5.0],"id":"s"}\n')
        time.sleep(0.3)
        victim = router.router_stats()["workers"][0]
        assert victim["pending"] == 1
        os.kill(victim["pid"], signal.SIGKILL)
        answer = json.loads(rfile.readline())
        assert answer["id"] == "s" and answer["answer"] == 5.0
        assert router.n_redispatched >= 1
    finally:
        sock.close()


def test_router_restarts_dead_worker_and_keeps_serving(golden_router):
    router = golden_router.router
    before = router.router_stats()
    os.kill(before["workers"][1]["pid"], signal.SIGKILL)
    deadline = time.time() + 10.0
    while time.time() < deadline:
        stats = router.router_stats()
        if all(w["alive"] for w in stats["workers"]) and stats["workers"][1]["restarts"] >= 1:
            break
        time.sleep(0.05)
    stats = router.router_stats()
    assert all(w["alive"] for w in stats["workers"])
    assert stats["workers"][1]["restarts"] >= 1
    assert stats["workers"][1]["pid"] != before["workers"][1]["pid"]
    local = load_sketch(GOLDEN, dtype="float32")
    Q = np.random.default_rng(3).uniform(0.0, 1.0, size=(8, local.input_dim))
    with Client.connect(golden_router.address) as client:
        got = np.asarray(client.ask_many(Q, sketch="float32"), dtype=np.float64)
    assert np.max(np.abs(got - np.asarray(local.predict(Q)))) == 0.0


# ------------------------------------------------------------------ validation


def test_router_rejects_bad_knobs():
    with pytest.raises(ValueError):
        SketchRouter(GOLDEN, processes=0)
    with pytest.raises(ValueError):
        SketchRouter(GOLDEN, max_line_bytes=16)


def test_router_boot_failure_surfaces_in_caller(tmp_path):
    bogus = tmp_path / "not-a-sketch.json.gz"
    bogus.write_bytes(b"junk")
    with pytest.raises(RuntimeError, match="failed to boot"):
        start_router_thread(str(bogus), processes=1, worker_boot_timeout_s=30.0)


# -------------------------------------------------------- streaming ingest


@pytest.fixture(scope="module")
def stream_router(tmp_path_factory):
    """A 2-process *mutable* router over a stream bundle, plus the ordered
    mutation log the tests replay onto in-process twins."""
    from test_stream import small_sketch

    path = str(tmp_path_factory.mktemp("stream") / "bundle.npz")
    small_sketch().save_npz(path)
    handle = start_router_thread(
        path,
        processes=2,
        worker_args=("--no-cache", "--mutable"),
        restart_delay_s=0.2,
    )
    state = {"path": path, "handle": handle, "log": []}
    try:
        yield state
    finally:
        handle.stop()


def _twin_after_replay(state):
    """An in-process sketch that applied every mutation the router has."""
    twin = load_stream_sketch(state["path"])
    for op, payload in state["log"]:
        if op == "append":
            twin.append(payload)
        else:
            twin.delete(*payload)
    return twin


def test_router_ingest_broadcast_keeps_every_shard_bit_identical(stream_router):
    """The PR-7 worker-boot parity property extended through a mutation:
    save_npz -> worker load_npz -> wire ingest -> hot-swap answers must be
    byte-for-byte what the in-process sketch produces for the same updates
    — on *both* shards, because ingest broadcasts."""
    from test_stream import rows_near

    handle = stream_router["handle"]
    twin = _twin_after_replay(stream_router)
    rows = rows_near(twin, np.array([0.5, 0.5]), k=6, seed=50)
    box = (np.array([0.0, 0.0]), np.array([2.0, 20.0]))
    Q = np.random.default_rng(21).uniform(0.0, 1.0, size=(32, 2))
    with Client.connect(handle.address) as client:
        epoch0, version0 = client.epoch()
        assert (epoch0, version0) == (twin.epoch, twin.data_version)

        summary = client.ingest(rows=rows)
        stream_router["log"].append(("append", rows))
        assert summary["appended"] == 6 and summary["swapped"]
        # The wire summary is the in-process IngestResult plus the serving
        # layer's eviction count (0 here: workers run --no-cache) and the
        # stage timings, which differ from run to run.
        assert summary.pop("cache_evictions") == 0
        assert set(summary.pop("stages")) == {"apply_s", "retrain_s", "invalidate_s"}
        assert summary == twin.append(rows).to_dict()

        summary = client.ingest(delete=box)
        stream_router["log"].append(("delete", box))
        summary.pop("cache_evictions")
        summary.pop("stages")
        assert summary == twin.delete(*box).to_dict()

        assert client.epoch() == (twin.epoch, twin.data_version)
        want = np.asarray(twin.predict(Q), dtype=np.float64)
        # Consecutive batch frames round-robin across the shards: both
        # copies must have landed on bit-identical weights.
        for _ in range(2):
            got = np.asarray(client.ask_many(Q), dtype=np.float64)
            assert got.tobytes() == want.tobytes()
        stats = client.stats()
        assert stats["mutable"] is True
        assert stats["stream"]["epoch"] == twin.epoch
    rstats = handle.router.router_stats()
    assert rstats["ingests"] >= 2 and rstats["ingest_log"] >= 2


def test_router_respawned_worker_replays_the_ingest_log(stream_router):
    """SIGKILL a shard after a mutation: the replacement boots from the
    *original* bundle, replays the logged ingests in order, and answers
    bit-identically to the surviving shard and the in-process twin."""
    from test_stream import rows_near

    handle = stream_router["handle"]
    router = handle.router
    twin = _twin_after_replay(stream_router)
    rows = rows_near(twin, np.array([0.25, 0.75]), k=5, seed=51)
    Q = np.random.default_rng(22).uniform(0.0, 1.0, size=(24, 2))
    with Client.connect(handle.address) as client:
        client.ingest(rows=rows)
        stream_router["log"].append(("append", rows))
        twin.append(rows)

        before = router.router_stats()["workers"][0]
        os.kill(before["pid"], signal.SIGKILL)
        deadline = time.time() + 15.0
        while time.time() < deadline:
            w = router.router_stats()["workers"][0]
            if w["alive"] and w["restarts"] > before["restarts"]:
                break
            time.sleep(0.05)
        w = router.router_stats()["workers"][0]
        assert w["alive"] and w["restarts"] > before["restarts"]

        want = np.asarray(twin.predict(Q), dtype=np.float64)
        for _ in range(4):  # alternate across both shards twice
            got = np.asarray(client.ask_many(Q), dtype=np.float64)
            assert got.tobytes() == want.tobytes()
        assert client.epoch() == (twin.epoch, twin.data_version)


def test_router_ingest_to_immutable_workers_is_a_structured_error(golden_router):
    with Client.connect(golden_router.address) as client:
        with pytest.raises(ServerError) as excinfo:
            client.ingest(rows=[[0.1, 0.2]])
        assert excinfo.value.code == "immutable"
        # The connection survives the refused mutation.
        assert "batcher" in client.stats()


def test_prepare_worker_artifact_round_trip(tmp_path):
    artifact = prepare_worker_artifact(GOLDEN, dir=str(tmp_path))
    assert artifact.endswith(".npz")
    # Already-spilled artifacts pass through untouched.
    assert prepare_worker_artifact(artifact) == artifact
    from repro.serve.worker import load_worker_sketch

    local = load_sketch(GOLDEN)
    spilled = load_worker_sketch(artifact)
    Q = np.random.default_rng(0).uniform(0.0, 1.0, size=(16, local.input_dim))
    np.testing.assert_array_equal(spilled.predict(Q), local.predict(Q))
