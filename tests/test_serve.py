"""The serving layer: answer cache, micro-batching, SketchService."""

import threading
import time
import tracemalloc
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest

from repro.core.compiled import CompiledSketch
from repro.core.neurosketch import NeuroSketch
from repro.serve import AnswerCache, MicroBatcher, SketchService, load_sketch

DATA = Path(__file__).resolve().parent / "data"


class SumSketch:
    """Deterministic fake sketch: answer = sum of query components."""

    def predict(self, Q):
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        return Q.sum(axis=1)


# ----------------------------------------------------------------- AnswerCache


def test_cache_hit_returns_cached_answer_within_quantization():
    cache = AnswerCache(resolution=0.01)
    q = np.array([0.5, 0.5])
    cache.put(q, 1.0)
    # Same grid cell: a hit, and it returns the *cached* answer even though
    # the true answer for the perturbed query would differ.
    assert cache.get(q + 0.001) == 1.0
    # A near-miss one grid step away must not hit.
    assert cache.get(q + 0.02) is None
    assert cache.hits == 1 and cache.misses == 1


def test_cache_exact_mode_bypasses_quantization():
    cache = AnswerCache(resolution=0.01, exact=True)
    q = np.array([0.5, 0.5])
    cache.put(q, 1.0)
    assert cache.get(q) == 1.0
    assert cache.get(q + 0.001) is None  # would hit under quantization


def test_cache_is_lru_bounded():
    cache = AnswerCache(resolution=0.01, max_entries=2)
    q1, q2, q3 = np.array([1.0]), np.array([2.0]), np.array([3.0])
    cache.put(q1, 1.0)
    cache.put(q2, 2.0)
    assert cache.get(q1) == 1.0  # refresh q1 -> q2 becomes LRU
    cache.put(q3, 3.0)
    assert len(cache) == 2
    assert cache.get(q2) is None  # evicted
    assert cache.get(q1) == 1.0 and cache.get(q3) == 3.0


def test_cache_rejects_bad_knobs():
    with pytest.raises(ValueError):
        AnswerCache(resolution=0.0)
    with pytest.raises(ValueError):
        AnswerCache(max_entries=0)


# -------------------------------------------- AnswerCache region invalidation


def test_invalidate_region_evicts_inside_keeps_disjoint():
    cache = AnswerCache(resolution=0.01)
    inside = np.array([0.5, 0.5])
    outside = np.array([0.9, 0.9])
    cache.put(inside, 1.0)
    cache.put(outside, 2.0)
    evicted = cache.invalidate_region(np.array([0.4, 0.4]), np.array([0.6, 0.6]))
    assert evicted == 1
    assert cache.get(inside) is None  # evicted
    assert cache.get(outside) == 2.0  # disjoint entry survives
    assert cache.invalidations == 1


def test_invalidate_region_is_conservative_at_grid_cell_boundaries():
    """A quantized key stands for its whole grid cell, so a query whose
    *cell* straddles the box boundary is evicted even when the raw query
    sits just outside the box — and one a full cell away survives."""
    cache = AnswerCache(resolution=0.01)
    # Box upper edge at 0.605: 0.607 rounds to cell 0.61 whose lower half
    # spans [0.605, 0.61] — it straddles the edge, so it must go.
    straddling = np.array([0.607, 0.5])
    clear = np.array([0.62, 0.5])  # a full cell beyond the edge
    cache.put(straddling, 1.0)
    cache.put(clear, 2.0)
    evicted = cache.invalidate_region(np.array([0.4, 0.4]), np.array([0.605, 0.6]))
    assert evicted == 1
    assert cache.get(straddling) is None
    assert cache.get(clear) == 2.0


def test_invalidate_region_accepts_multiple_boxes_and_empty_sets():
    cache = AnswerCache(resolution=0.01)
    for x in (0.1, 0.5, 0.9):
        cache.put(np.array([x, x]), x)
    lo = np.array([[0.05, 0.05], [0.85, 0.85]])
    hi = np.array([[0.15, 0.15], [0.95, 0.95]])
    assert cache.invalidate_region(lo, hi) == 2
    assert len(cache) == 1 and cache.get(np.array([0.5, 0.5])) == 0.5
    # No boxes -> nothing to do.
    assert cache.invalidate_region(np.empty((0, 2)), np.empty((0, 2))) == 0


def test_invalidate_region_respects_namespace_and_dimension():
    cache = AnswerCache(resolution=0.01)
    cache.put(np.array([0.5, 0.5]), 1.0, namespace=b"a\x00")
    cache.put(np.array([0.5, 0.5]), 2.0, namespace=b"b\x00")
    cache.put(np.array([0.5, 0.5, 0.5]), 3.0)  # other width, empty namespace
    evicted = cache.invalidate_region(
        np.array([0.4, 0.4]), np.array([0.6, 0.6]), namespace=b"a\x00"
    )
    assert evicted == 1
    assert cache.get(np.array([0.5, 0.5]), namespace=b"a\x00") is None
    assert cache.get(np.array([0.5, 0.5]), namespace=b"b\x00") == 2.0
    assert cache.get(np.array([0.5, 0.5, 0.5])) == 3.0


def test_invalidate_region_handles_exact_and_fallback_keys_as_points():
    cache = AnswerCache(resolution=0.01, exact=True)
    cache.put(np.array([0.5, 0.5]), 1.0)
    cache.put(np.array([0.604, 0.5]), 2.0)  # outside: no quantized slack
    assert cache.invalidate_region(np.array([0.4, 0.4]), np.array([0.6, 0.6])) == 1
    assert cache.get(np.array([0.5, 0.5])) is None
    assert cache.get(np.array([0.604, 0.5])) == 2.0
    # Quantized-mode overflow fallback keys are matched as points too.
    cache = AnswerCache(resolution=1e-4)
    cache.put(np.array([3e18]), 7.0)
    assert cache.invalidate_region(np.array([2.9e18]), np.array([3.1e18])) == 1


def test_invalidate_region_with_infinite_box_sides():
    """Dirty leaf boxes leave unconstrained sides at +-inf; those sides
    match every coordinate."""
    cache = AnswerCache(resolution=0.01)
    cache.put(np.array([0.5, 0.1]), 1.0)
    cache.put(np.array([0.5, 0.9]), 2.0)
    cache.put(np.array([0.8, 0.9]), 3.0)
    lo = np.array([0.45, -np.inf])
    hi = np.array([0.55, np.inf])
    assert cache.invalidate_region(lo, hi) == 2
    assert cache.get(np.array([0.8, 0.9])) == 3.0


def test_invalidate_region_rejects_mismatched_boxes():
    cache = AnswerCache()
    with pytest.raises(ValueError, match="matching"):
        cache.invalidate_region(np.zeros((1, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="expected"):
        cache.invalidate_region(np.zeros((1, 2)), np.zeros((1, 2)), dim=3)


def per_key_invalidation(cache, lo, hi, namespace=b"", dim=None):
    """Reference oracle: the keys ``invalidate_region`` must evict, found by
    testing each key on its own (read-only)."""
    lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_2d(np.asarray(hi, dtype=np.float64))
    dim = lo.shape[1] if dim is None else dim
    half = 0.5 * cache.resolution
    nslen = len(namespace)
    doomed = set()
    for key in cache.keys():
        if not key.startswith(namespace) or len(key) != nslen + 1 + 8 * dim:
            continue
        mode, payload = key[nslen : nslen + 1], key[nslen + 1 :]
        if mode == b"q":
            q = np.frombuffer(payload, dtype=np.int64) * cache.resolution
            box_lo, box_hi = lo - half, hi + half
        elif mode == b"x":
            q = np.frombuffer(payload, dtype=np.float64)
            box_lo, box_hi = lo, hi
        else:
            continue
        if np.any(np.all((q >= box_lo) & (q <= box_hi), axis=1)):
            doomed.add(key)
    return doomed


def _random_boxes(rng, k, d):
    a, b = rng.uniform(0.0, 1.0, size=(2, k, d))
    return np.minimum(a, b), np.maximum(a, b)


@pytest.mark.parametrize("exact", [False, True])
def test_invalidate_region_matches_per_key_oracle(exact):
    """The vectorized scan evicts exactly what the per-key loop would, over
    namespaced, exact, quantized, overflow-fallback and mixed-width keys,
    in small caches and in one large key block."""
    rng = np.random.default_rng(17)
    namespaces = (b"", b"a\x00", b"bb\x00")
    for trial in range(6):
        cache = AnswerCache(resolution=0.05, exact=exact)
        for ns in namespaces:
            for d in (2, 3):
                for q in rng.uniform(0.0, 1.0, size=(150, d)):
                    cache.put(q, float(q.sum()), namespace=ns)
        cache.put(np.array([3e18, 0.5]), 1.0)  # quantized overflow -> exact key
        cache.put(np.array([0.5, np.inf]), 2.0)
        ns = namespaces[trial % len(namespaces)]
        d = 2 + trial % 2
        lo, hi = _random_boxes(rng, 1 + trial, d)
        if trial == 5:
            lo[0, 0], hi[0, 0] = -np.inf, np.inf  # unconstrained side
        before = set(cache.keys())
        expected = per_key_invalidation(cache, lo, hi, namespace=ns)
        assert expected, "the boxes must hit something for the check to bite"
        evicted = cache.invalidate_region(lo, hi, namespace=ns)
        assert evicted == len(expected)
        assert before - set(cache.keys()) == expected
        assert cache.invalidations == evicted

    # A large key block: two namespaces of one length, in both key modes
    # (overflowing components fall back to exact-bytes keys) and two
    # widths, interleaved so that evicted rows are spread over the whole
    # block and the rows moved into their holes are checked too.
    cache = AnswerCache(resolution=1e-3, exact=exact)
    for q in rng.uniform(0.0, 1.0, size=(2_600, 3)):
        for ns in (b"a\x00", b"c\x00"):
            cache.put(q[:2], float(q[0]), namespace=ns)
            cache.put(q, float(q[1]), namespace=ns)
        cache.put(np.array([3e18 * q[0], q[1]]), float(q[2]), namespace=b"a\x00")
    lo, hi = _random_boxes(rng, 3, 2)
    lo[:, 0] = -np.inf  # reach the overflow keys too
    before = dict(cache.items())
    expected = per_key_invalidation(cache, lo, hi, namespace=b"a\x00")
    same_length = [key for key in before if len(key) == len(b"a\x00") + 1 + 8 * 2]
    assert len(same_length) > 4_096
    at = [i for i, key in enumerate(same_length) if key in expected]
    assert at and at[0] < len(same_length) // 4 and at[-1] > 3 * len(same_length) // 4
    evicted = cache.invalidate_region(lo, hi, namespace=b"a\x00")
    assert evicted == len(expected)
    after = dict(cache.items())
    assert set(before) - set(after) == expected
    # Survivors keep their answers and their LRU order.
    assert after == {k: v for k, v in before.items() if k not in expected}
    assert list(after) == [k for k in before if k not in expected]


def test_invalidate_region_scan_memory_is_bounded():
    """The scan reads the key buffer through a zero-copy view, one column
    at a time, so its traced peak over a full default-size cache (65,536
    ten-wide keys) stays under 4 MB; one copied byte matrix of every key
    would take 5.4 MB alone. The bound holds for one box per leaf of a
    64-leaf tree too: the scan's transients do not grow with the box
    count."""
    Q = np.random.default_rng(19).uniform(0.0, 1.0, size=(65_536, 10))
    two = (np.array([[0.0] * 10, [0.5] * 10]), np.array([[0.5] * 10, [1.0] * 10]))
    # 64 boxes tiling [0, 1]^6 x [0, 0.5]^4, so a sixteenth of the keys go.
    corners = np.array(np.meshgrid(*[[0.0, 0.5]] * 6, indexing="ij")).reshape(6, -1).T
    lo64 = np.hstack([corners, np.zeros((64, 4))])
    hi64 = np.hstack([corners + 0.5, np.full((64, 4), 0.5)])
    for lo, hi in (two, (lo64, hi64)):
        cache = AnswerCache()
        cache.put_many(Q, Q.sum(axis=1), namespace=b"s\x00")
        tracemalloc.start()
        try:
            evicted = cache.invalidate_region(lo, hi, namespace=b"s\x00")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert evicted > 0
        assert peak < 4 * 2**20, f"{len(lo)}-box region scan peaked at {peak} bytes"


def test_put_many_stores_what_put_would():
    rng = np.random.default_rng(3)
    Q = np.vstack([rng.uniform(size=(20, 3)), [[3e18, 0.0, 1.0]]])
    answers = Q.sum(axis=1)
    one, many = AnswerCache(resolution=1e-3), AnswerCache(resolution=1e-3)
    for q, a in zip(Q, answers):
        one.put(q, a, namespace=b"n\x00")
    many.put_many(Q, answers, namespace=b"n\x00")
    assert many.items() == one.items()
    bounded = AnswerCache(resolution=1e-3, max_entries=5)
    bounded.put_many(Q, answers)
    assert len(bounded) == 5 and bounded.get(Q[-1]) == answers[-1]


def test_clear_resets_invalidation_counter():
    cache = AnswerCache(resolution=0.01)
    cache.put(np.array([0.5]), 1.0)
    cache.invalidate_region(np.array([0.0]), np.array([1.0]))
    assert cache.invalidations == 1
    cache.clear()
    assert cache.invalidations == 0 and len(cache) == 0


# ---------------------------------------------------------------- MicroBatcher


def test_microbatcher_flushes_on_size_trigger():
    batcher = MicroBatcher(SumSketch().predict, max_batch_size=3, max_delay_s=30.0)
    try:
        t0 = time.perf_counter()
        futs = [batcher.submit(np.array([[float(i), 1.0]]), scalar=True) for i in range(3)]
        results = [f.result(timeout=5.0) for f in futs]
        elapsed = time.perf_counter() - t0
        # The 30s deadline never fired; the size trigger did.
        assert elapsed < 5.0
        assert results == [1.0, 2.0, 3.0]
        assert batcher.stats()["max_flush_rows"] == 3
    finally:
        batcher.close()


def test_microbatcher_flushes_on_deadline_trigger():
    batcher = MicroBatcher(SumSketch().predict, max_batch_size=100, max_delay_s=0.02)
    try:
        fut = batcher.submit(np.array([[2.0, 3.0]]), scalar=True)
        # One row << max_batch_size: only the deadline can flush it.
        assert fut.result(timeout=5.0) == 5.0
        stats = batcher.stats()
        assert stats["n_flushes"] == 1 and stats["n_rows_flushed"] == 1
    finally:
        batcher.close()


def test_microbatcher_propagates_predict_errors():
    def boom(Q):
        raise RuntimeError("kaboom")

    batcher = MicroBatcher(boom, max_batch_size=1, max_delay_s=0.01)
    try:
        fut = batcher.submit(np.array([[1.0]]))
        with pytest.raises(RuntimeError, match="kaboom"):
            fut.result(timeout=5.0)
    finally:
        batcher.close()


def test_microbatcher_survives_blocks_of_mismatched_widths():
    # A flush that cannot even stack its blocks fails their Futures; the
    # worker thread lives on to answer the next block.
    batcher = MicroBatcher(SumSketch().predict, max_batch_size=100, max_delay_s=0.2)
    try:
        narrow = batcher.submit(np.ones((1, 2)))
        wide = batcher.submit(np.ones((1, 3)))
        for fut in (narrow, wide):
            with pytest.raises(ValueError):
                fut.result(timeout=5.0)
        assert batcher.submit(np.ones((1, 2)), scalar=True).result(timeout=5.0) == 2.0
        assert batcher.stats()["n_errors"] == 1
    finally:
        batcher.close()


def test_microbatcher_close_flushes_pending_and_is_idempotent():
    batcher = MicroBatcher(SumSketch().predict, max_batch_size=100, max_delay_s=30.0)
    fut = batcher.submit(np.array([[1.0, 1.0]]), scalar=True)
    batcher.close()
    assert fut.result(timeout=1.0) == 2.0
    batcher.close()  # second close is a no-op
    with pytest.raises(RuntimeError):
        batcher.submit(np.array([[1.0, 1.0]]))


def test_microbatcher_run_sweeps_pending_queue():
    batcher = MicroBatcher(SumSketch().predict, max_batch_size=100, max_delay_s=30.0)
    try:
        fut = batcher.submit(np.array([[1.0, 2.0]]), scalar=True)
        answers = batcher.run(np.array([[10.0, 20.0]]))
        # One flush answered both the queued row and the caller's row.
        assert answers.tolist() == [30.0]
        assert fut.result(timeout=1.0) == 3.0
        assert batcher.stats()["n_flushes"] == 1
    finally:
        batcher.close()


# ---------------------------------------------------------------- SketchService


def test_service_cache_hit_and_near_miss_semantics():
    with SketchService(cache=True, cache_resolution=0.01, max_delay_s=0.001) as svc:
        svc.register("sum", SumSketch())
        q = np.array([0.5, 0.5])
        first = svc.ask(q)
        assert first == pytest.approx(1.0)
        # Within the grid cell: the *cached* answer comes back, not the
        # perturbed query's true sum.
        assert svc.ask(q + 0.001) == first
        # One grid step away: a miss, answered by the sketch.
        assert svc.ask(q + 0.02) == pytest.approx(1.04)
        cache = svc.stats()["cache"]
        assert cache["hits"] == 1 and cache["misses"] == 2


def test_service_exact_cache_knob():
    with SketchService(cache=True, cache_resolution=0.01, cache_exact=True) as svc:
        svc.register("sum", SumSketch())
        q = np.array([0.5, 0.5])
        svc.ask(q)
        assert svc.ask(q + 0.001) == pytest.approx(1.002)  # no quantized hit
        assert svc.stats()["cache"]["hits"] == 0


def test_service_ask_many_uses_cache_for_repeats():
    with SketchService(cache=True, cache_resolution=1e-6) as svc:
        svc.register("sum", SumSketch())
        Q = np.array([[1.0, 1.0], [2.0, 2.0]])
        np.testing.assert_allclose(svc.ask_many(Q), [2.0, 4.0])
        np.testing.assert_allclose(svc.ask_many(Q), [2.0, 4.0])
        cache = svc.stats()["cache"]
        assert cache["hits"] == 2 and cache["misses"] == 2


def test_service_submit_ordering_under_concurrent_callers():
    with SketchService(cache=False, max_batch_size=8, max_delay_s=0.002) as svc:
        svc.register("sum", SumSketch())
        results: dict[int, list] = {}

        def worker(tid: int) -> None:
            local = np.random.default_rng(tid).uniform(0.0, 1.0, size=(25, 3))
            futs = [(q, svc.submit(q)) for q in local]
            results[tid] = [(q, f.result(timeout=10.0)) for q, f in futs]

        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every future resolved to *its own* query's answer, regardless of
        # how submissions interleaved into micro-batches.
        assert sorted(results) == list(range(6))
        for tid, pairs in results.items():
            for q, got in pairs:
                assert got == pytest.approx(q.sum()), tid
        batcher = svc.stats()["batcher"]
        assert batcher["n_rows_flushed"] == 6 * 25
        # Micro-batching actually batched: fewer flushes than queries.
        assert batcher["n_flushes"] < 6 * 25


def test_service_registry_errors():
    svc = SketchService()
    with pytest.raises(RuntimeError, match="no sketch registered"):
        svc.ask(np.array([1.0]))
    svc.register("sum", SumSketch())
    with pytest.raises(ValueError, match="already registered"):
        svc.register("sum", SumSketch())
    with pytest.raises(TypeError, match="predict"):
        svc.register("bogus", object())
    with pytest.raises(KeyError, match="unknown sketch"):
        svc.ask(np.array([1.0]), sketch="nope")
    svc.close()
    with pytest.raises(RuntimeError, match="closed"):
        svc.ask(np.array([1.0]))


def test_service_routes_by_sketch_name():
    class NegSketch:
        def predict(self, Q):
            return -np.atleast_2d(np.asarray(Q, dtype=np.float64)).sum(axis=1)

    with SketchService(cache=False) as svc:
        svc.register("sum", SumSketch())
        svc.register("neg", NegSketch())
        q = np.array([1.0, 2.0])
        assert svc.ask(q, sketch="sum") == pytest.approx(3.0)
        assert svc.ask(q, sketch="neg") == pytest.approx(-3.0)
        assert svc.ask(q) == pytest.approx(3.0)  # first registered is default
        assert svc.sketch_names() == ("sum", "neg")


# ------------------------------------------------- real sketches, parity, I/O


@pytest.fixture(scope="module")
def golden_compiled():
    return load_sketch(str(DATA / "golden_sketch.json.gz"))


def test_load_sketch_accepts_both_artifact_formats(tmp_path, golden_compiled):
    # The golden artifact is a NeuroSketch payload; load_sketch compiled it.
    assert isinstance(golden_compiled, CompiledSketch)
    # A compiled payload loads as-is.
    path = str(tmp_path / "compiled.json.gz")
    golden_compiled.save(path)
    again = load_sketch(path)
    assert isinstance(again, CompiledSketch)
    rng = np.random.default_rng(0)
    Q = rng.uniform(0.0, 1.0, size=(16, golden_compiled.input_dim))
    np.testing.assert_array_equal(again.predict(Q), golden_compiled.predict(Q))


def test_load_sketch_rejects_foreign_payloads(tmp_path):
    import gzip
    import json

    path = tmp_path / "foreign.json.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"hello": "world"}, fh)
    with pytest.raises(ValueError, match="not a recognized sketch artifact"):
        load_sketch(str(path))


def test_service_matches_direct_predict_bitwise_when_cache_disabled(golden_compiled):
    rng = np.random.default_rng(1)
    Q = rng.uniform(0.0, 1.0, size=(64, golden_compiled.input_dim))
    direct = golden_compiled.predict(Q)
    with SketchService(cache=False, max_batch_size=64, max_delay_s=0.05) as svc:
        svc.register("golden", golden_compiled)
        via_service = svc.ask_many(Q)
    # Bitwise equality: the service hands the sketch the exact same array.
    assert np.array_equal(via_service, direct)
    assert via_service.tobytes() == direct.tobytes()


def test_service_serves_a_fitted_neurosketch_object(golden_compiled):
    sketch = NeuroSketch.load(str(DATA / "golden_sketch.json.gz"))
    rng = np.random.default_rng(2)
    Q = rng.uniform(0.0, 1.0, size=(8, sketch.input_dim))
    with SketchService(cache=False) as svc:
        svc.register("object-path", sketch)
        np.testing.assert_allclose(
            svc.ask_many(Q), golden_compiled.predict(Q), rtol=1e-12, atol=1e-12
        )


def test_cancelled_future_does_not_kill_the_batcher():
    batcher = MicroBatcher(SumSketch().predict, max_batch_size=2, max_delay_s=30.0)
    try:
        doomed = batcher.submit(np.array([[1.0, 1.0]]), scalar=True)
        assert doomed.cancel()
        live = batcher.submit(np.array([[2.0, 2.0]]), scalar=True)  # size trigger
        assert live.result(timeout=5.0) == 4.0
        assert doomed.cancelled()
        # The worker survived the cancelled Future and keeps serving.
        after = batcher.submit(np.array([[3.0, 3.0]]), scalar=True)
        assert batcher.run(np.array([[5.0, 5.0]])).tolist() == [10.0]
        assert after.result(timeout=5.0) == 6.0
    finally:
        batcher.close()


def test_shared_cache_is_namespaced_per_sketch():
    class NegSketch:
        def predict(self, Q):
            return -np.atleast_2d(np.asarray(Q, dtype=np.float64)).sum(axis=1)

    shared = AnswerCache(resolution=0.01)
    with SketchService(cache=shared) as svc:
        svc.register("pos", SumSketch())
        svc.register("neg", NegSketch())
        q = np.array([1.0, 2.0])
        assert svc.ask(q, sketch="pos") == pytest.approx(3.0)
        # The same quantized query against another sketch must not reuse
        # the first sketch's cached answer.
        assert svc.ask(q, sketch="neg") == pytest.approx(-3.0)
        assert svc.ask(q, sketch="pos") == pytest.approx(3.0)  # still a hit
        assert shared.hits == 1 and shared.misses == 2


def test_register_on_closed_service_raises_and_leaks_nothing():
    svc = SketchService()
    svc.close()
    with pytest.raises(RuntimeError, match="closed"):
        svc.register("late", SumSketch())
    assert svc.sketch_names() == ()


# -------------------------------------------------------- workers / cached


def test_submit_futures_carry_the_cached_flag():
    with SketchService(max_delay_s=1e-3) as svc:
        svc.register("sum", SumSketch())
        q = np.array([1.0, 2.0])
        miss = svc.submit(q)
        assert miss.cached is False
        assert miss.result(timeout=5.0) == 3.0
        hit = svc.submit(q)
        assert hit.cached is True
        assert hit.result(timeout=0) == 3.0  # already resolved, no queue trip


def test_multiple_workers_flush_concurrently():
    """N workers mean successive micro-batches overlap in predict."""
    gate = threading.Semaphore(0)
    in_flight = []
    lock = threading.Lock()

    def stalling_predict(Q):
        with lock:
            in_flight.append(1)
        gate.acquire()  # hold this flush until released
        return np.atleast_2d(Q).sum(axis=1)

    batcher = MicroBatcher(stalling_predict, max_batch_size=1, max_delay_s=0.0, workers=2)
    try:
        deadline = time.perf_counter() + 5.0

        def wait_for_flushes(n):
            while len(in_flight) < n:
                assert time.perf_counter() < deadline, "worker never started a flush"
                time.sleep(0.005)

        # Submit the second block only once the first flush is stalled
        # inside predict; a second worker must pick it up while the first
        # is still blocked — a single-worker batcher would serialize them.
        futs = [batcher.submit(np.array([[1.0, 0.0]]), scalar=True)]
        wait_for_flushes(1)
        futs.append(batcher.submit(np.array([[2.0, 0.0]]), scalar=True))
        wait_for_flushes(2)
        gate.release()
        gate.release()
        assert sorted(f.result(timeout=5.0) for f in futs) == [1.0, 2.0]
        assert batcher.stats()["workers"] == 2
    finally:
        gate.release()
        gate.release()
        batcher.close()


def test_workers_knob_is_validated():
    with pytest.raises(ValueError, match="workers"):
        MicroBatcher(SumSketch().predict, workers=0)
    with pytest.raises(ValueError, match="workers"):
        SketchService(workers=0)


def test_register_raises_engine_max_replicas_to_worker_count(golden_compiled):
    engine = golden_compiled.with_dtype("float32")
    engine.max_replicas = 1
    with SketchService(cache=False, workers=6) as svc:
        svc.register("golden", engine)
        assert engine.max_replicas == 6
        stats = svc.stats("golden")
        assert stats["engine"]["max_replicas"] == 6
        assert stats["batcher"]["workers"] == 6


# ------------------------------------------- compiled engines: caller-runs path


def _new_batcher_threads(before):
    return [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("repro-microbatcher") and t not in before
    ]


@pytest.mark.parametrize("tier", ["float32", "float64"])
def test_compiled_submit_answers_in_the_calling_thread(golden_compiled, tier):
    """With no accumulation window a compiled engine answers a submitted
    block right away: the Future is already done, bitwise equal to the
    one-row predict, the flush is counted on the caller path, the cache is
    filled, and no flush worker thread ever starts."""
    engine = golden_compiled.with_dtype(tier)
    Q = np.random.default_rng(21).uniform(size=(12, engine.input_dim))
    before = set(threading.enumerate())
    with SketchService(workers=4) as svc:
        svc.register("golden", engine)
        futs = [svc.submit(q) for q in Q]
        assert all(f.done() and f.cached is False for f in futs)
        got = np.array([f.result(timeout=0) for f in futs])
        assert got.tobytes() == np.array([engine.predict(q[None])[0] for q in Q]).tobytes()
        block = svc.submit_block(Q[:5])
        assert block.done()
        assert block.result(timeout=0).tobytes() == engine.predict(Q[:5]).tobytes()
        assert all(svc.submit(q).cached for q in Q)  # the answers filled the cache
        batcher = svc.stats()["batcher"]
        assert batcher["n_caller_flushes"] == batcher["n_flushes"] == 13
        assert batcher["n_worker_flushes"] == 0
        assert _new_batcher_threads(before) == []


def test_concurrent_compiled_submitters_each_run_their_own_flush(golden_compiled):
    """More submitting threads than cores, switching often: every caller
    gets its own one-row answer and no flush goes uncounted."""
    import sys

    engine = golden_compiled.with_dtype("float32")
    Q = np.random.default_rng(25).uniform(size=(8, 50, engine.input_dim))
    got = np.zeros(Q.shape[:2])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with SketchService(cache=False) as svc:
            svc.register("golden", engine)

            def submitter(t):
                for i, q in enumerate(Q[t]):
                    got[t, i] = svc.submit(q).result(timeout=0)

            threads = [threading.Thread(target=submitter, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            batcher = svc.stats()["batcher"]
    finally:
        sys.setswitchinterval(interval)
    want = np.array([[engine.predict(q[None])[0] for q in rows] for rows in Q])
    assert got.tobytes() == want.tobytes()
    assert batcher["n_caller_flushes"] == batcher["n_flushes"] == batcher["n_rows_flushed"] == 400


def test_compiled_submit_reports_predict_errors_through_the_future(golden_compiled):
    with SketchService(cache=False) as svc:
        svc.register("golden", golden_compiled)
        fut = svc.submit_block(np.zeros((2, golden_compiled.input_dim + 3)))
        assert fut.done() and fut.exception() is not None
        assert svc.stats()["batcher"]["n_errors"] == 1


def test_streaming_sketch_submit_answers_in_the_calling_thread():
    from test_stream import small_sketch

    sketch = small_sketch()
    Q = np.random.default_rng(22).uniform(size=(6, 2))
    with SketchService(cache=False) as svc:
        svc.register("stream", sketch)
        futs = [svc.submit(q) for q in Q]
        assert all(f.done() for f in futs)
        assert [f.result() for f in futs] == [sketch.predict(q[None])[0] for q in Q]
        assert svc.stats()["batcher"]["n_worker_flushes"] == 0


def test_accumulation_window_keeps_compiled_engines_on_the_workers(golden_compiled):
    Q = np.random.default_rng(23).uniform(size=(4, golden_compiled.input_dim))
    with SketchService(cache=False, max_delay_s=1e-3) as svc:
        svc.register("golden", golden_compiled)
        got = [svc.submit(q).result(timeout=5.0) for q in Q]
        np.testing.assert_allclose(got, golden_compiled.predict(Q), rtol=1e-12)
        batcher = svc.stats()["batcher"]
        assert batcher["n_worker_flushes"] >= 1 and batcher["n_caller_flushes"] == 0


def test_slow_non_compiled_sketch_times_out_with_no_accumulation_window():
    """A sketch that is not a compiled engine may take any time, so even at
    ``max_delay_s=0`` its block goes to a flush worker and the caller's
    deadline holds."""

    class Slow(SumSketch):
        def predict(self, Q):
            time.sleep(1.0)
            return super().predict(Q)

    with SketchService(cache=False, max_delay_s=0.0) as svc:
        svc.register("slow", Slow())
        t0 = time.perf_counter()
        fut = svc.submit(np.array([1.0, 2.0]))
        assert time.perf_counter() - t0 < 0.5 and not fut.done()
        with pytest.raises(futures.TimeoutError):
            fut.result(timeout=0.1)
        assert fut.result(timeout=5.0) == 3.0
        assert svc.stats()["batcher"]["n_worker_flushes"] == 1


def test_stdio_serve_answers_on_the_caller_path(capsys, monkeypatch):
    """``repro serve`` over stdin runs single queries through the same
    caller-runs path: bitwise equal to the one-row predict, no worker
    flushes."""
    import io
    import json

    from repro.cli import main

    path = str(DATA / "golden_sketch.json.gz")
    engine = load_sketch(path, dtype="float32")
    Q = np.random.default_rng(24).uniform(size=(5, engine.input_dim))
    lines = [json.dumps({"v": 1, "op": "query", "id": i, "q": q.tolist()}) for i, q in enumerate(Q)]
    lines.append(json.dumps({"v": 1, "op": "stats", "id": "s"}))
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["serve", "--sketch", path]) == 0
    out = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    answers = np.array([frame["answer"] for frame in out[:5]])
    assert answers.tobytes() == np.array([engine.predict(q[None])[0] for q in Q]).tobytes()
    batcher = out[5]["stats"]["batcher"]
    assert batcher["n_caller_flushes"] == 5 and batcher["n_worker_flushes"] == 0


# ---------------------------------------------------------------- dtype tiers


def test_load_sketch_honors_dtype_and_artifact_tier(tmp_path, golden_compiled):
    # Default: the artifact's own recorded tier (float64 for the golden
    # NeuroSketch payload), so answers stay bit-identical to the producer.
    assert golden_compiled.dtype_name == "float64"
    # A float32-tier compiled artifact round-trips its tier through save.
    f32 = golden_compiled.with_dtype("float32")
    path = str(tmp_path / "f32.json.gz")
    f32.save(path)
    again = load_sketch(path)
    assert again.dtype_name == "float32"
    rng = np.random.default_rng(3)
    Q = rng.uniform(0.0, 1.0, size=(16, f32.input_dim))
    np.testing.assert_array_equal(again.predict(Q), f32.predict(Q))
    # An explicit dtype overrides whatever the artifact recorded.
    assert load_sketch(path, dtype="float64").dtype_name == "float64"
    assert load_sketch(
        str(DATA / "golden_sketch.json.gz"), dtype="float32"
    ).dtype_name == "float32"


def test_service_infer_dtype_retier_on_register(golden_compiled):
    rng = np.random.default_rng(4)
    Q = rng.uniform(0.0, 1.0, size=(32, golden_compiled.input_dim))
    expected = golden_compiled.with_dtype("float32").predict(Q)
    with SketchService(cache=False, infer_dtype="float32") as svc:
        svc.register("golden", golden_compiled)
        np.testing.assert_array_equal(svc.ask_many(Q), expected)
    # Sketches without an execution tier (plain predict) pass through as-is.
    with SketchService(cache=False, infer_dtype="float32") as svc:
        svc.register("sum", SumSketch())
        assert svc.ask(np.array([1.0, 2.0])) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="dtype must be one of"):
        SketchService(infer_dtype="float16")


def test_microbatcher_dtype_knob_controls_batch_dtype():
    seen = []

    def predict(Q):
        seen.append(Q.dtype)
        return np.asarray(Q, dtype=np.float64).sum(axis=1)

    batcher = MicroBatcher(predict, dtype=np.float32)
    try:
        answers = batcher.run(np.array([[1.0, 2.0], [3.0, 4.0]]))
    finally:
        batcher.close()
    assert seen == [np.dtype(np.float32)]
    assert answers.dtype == np.float64
    np.testing.assert_allclose(answers, [3.0, 7.0])


# ------------------------------------------------------- regression: cache key


def test_cache_key_large_coordinates_do_not_collide():
    """Coordinates whose quantized grid index overflows int64 used to wrap
    (numpy cast), so distinct huge queries could alias one cache slot; they
    now fall back to exact-bytes keys."""
    cache = AnswerCache(resolution=1e-4)
    q1, q2 = np.array([3e18]), np.array([4e18])
    assert cache.key(q1) != cache.key(q2)
    cache.put(q1, 1.0)
    assert cache.get(q2) is None
    assert cache.get(q1) == 1.0


def test_cache_key_non_finite_components_are_distinct_and_stable():
    cache = AnswerCache(resolution=1e-4)
    q_inf, q_nan = np.array([np.inf, 0.0]), np.array([np.nan, 0.0])
    assert cache.key(q_inf) != cache.key(q_nan)
    cache.put(q_inf, 7.0)
    assert cache.get(q_inf) == 7.0
    assert cache.get(q_nan) is None


def numpy_cache_key(cache, q, namespace=b""):
    """Reference oracle: the cache key computed with NumPy array ops."""
    q = np.asarray(q, dtype=np.float64).ravel()
    if cache.exact:
        return namespace + b"x" + q.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.round(q / cache.resolution)
    if np.all(np.isfinite(scaled)) and np.all(np.abs(scaled) < float(2**62)):
        return namespace + b"q" + scaled.astype(np.int64).tobytes()
    return namespace + b"x" + q.tobytes()


@pytest.mark.parametrize("exact", [False, True])
def test_cache_keys_match_the_numpy_oracle(exact):
    rng = np.random.default_rng(21)
    limit = 2**62 * 1e-4
    Q = np.vstack([
        rng.uniform(-1.0, 1.0, size=(300, 4)),
        rng.normal(scale=1e15, size=(50, 4)),  # around the int64 bound
        np.round(rng.uniform(-50, 50, size=(50, 4))) * 1e-4 + 0.5e-4,  # ties
        [[np.nan, 0.0, 0.0, 0.0], [0.0, -np.inf, 1.0, 2.0], [-0.0, 0.0, 0.0, 0.0],
         [limit, 0.0, 0.0, 0.0], [np.nextafter(limit, 0.0), 0.0, 0.0, 0.0],
         [-limit, 1.0, 1.0, 1.0], [1e305, 0.0, 0.0, 0.0]],
    ])
    cache = AnswerCache(resolution=1e-4, exact=exact)
    expected = [numpy_cache_key(cache, q, b"ns\x00") for q in Q]
    assert [cache.key(q, b"ns\x00") for q in Q] == expected
    cache.put_many(Q, np.arange(len(Q), dtype=np.float64), b"ns\x00")
    assert set(cache.keys()) == set(expected)


def test_cache_key_modes_cannot_alias_each_other():
    """A fallback exact-bytes key must never equal a quantized key: both are
    8 bytes per component, so only the disjoint mode prefixes keep the two
    key spaces apart."""
    cache = AnswerCache(resolution=1e-4)
    quantized = cache.key(np.array([1.0]))
    exact_fallback = cache.key(np.array([3e18]))
    assert len(quantized) == len(exact_fallback)
    assert quantized[:1] == b"q" and exact_fallback[:1] == b"x"


# -------------------------------------------------- regression: flush accounting


def test_microbatcher_counts_failed_flushes():
    """A predict that raises used to vanish from the flush counters; it now
    counts as an attempted flush and increments ``n_errors``."""

    def boom(Q):
        raise RuntimeError("kaboom")

    batcher = MicroBatcher(boom, max_batch_size=1, max_delay_s=0.01)
    try:
        fut = batcher.submit(np.array([[1.0, 2.0]]))
        with pytest.raises(RuntimeError):
            fut.result(timeout=5.0)
        stats = batcher.stats()
        assert stats["n_errors"] == 1
        assert stats["n_flushes"] == 1
        assert stats["n_rows_flushed"] == 1
    finally:
        batcher.close()


def test_microbatcher_counts_failed_run_fast_path():
    def boom(Q):
        raise RuntimeError("kaboom")

    batcher = MicroBatcher(boom)
    try:
        with pytest.raises(RuntimeError):
            batcher.run(np.array([[1.0, 2.0]]))
        stats = batcher.stats()
        assert stats["n_errors"] == 1 and stats["n_flushes"] == 1
    finally:
        batcher.close()


def test_service_stats_surface_batcher_errors():
    class BoomSketch:
        def predict(self, Q):
            raise RuntimeError("kaboom")

    with SketchService(cache=False) as svc:
        svc.register("boom", BoomSketch())
        with pytest.raises(RuntimeError):
            svc.ask(np.array([1.0]))
        assert svc.stats()["batcher"]["n_errors"] == 1


# ------------------------------------------------- coverage: ask_many + close


def test_ask_many_duplicate_rows_with_interleaved_cache_hits():
    """Duplicate rows inside one block plus rows already cached from earlier
    asks: every position must still get the right answer."""
    with SketchService(cache=True, cache_resolution=1e-6) as svc:
        svc.register("sum", SumSketch())
        assert svc.ask(np.array([1.0, 1.0])) == pytest.approx(2.0)  # pre-cache
        Q = np.array(
            [[1.0, 1.0], [3.0, 3.0], [1.0, 1.0], [5.0, 5.0], [3.0, 3.0]]
        )
        np.testing.assert_allclose(svc.ask_many(Q), [2.0, 6.0, 2.0, 10.0, 6.0])
        cache = svc.stats()["cache"]
        assert cache["hits"] >= 1  # at least the pre-cached row hit
        # A second pass is all hits, whatever the duplicate layout.
        np.testing.assert_allclose(svc.ask_many(Q), [2.0, 6.0, 2.0, 10.0, 6.0])


def test_microbatcher_drain_and_run_after_close():
    batcher = MicroBatcher(SumSketch().predict)
    batcher.close()
    assert batcher.drain() == 0  # nothing pending; must not deadlock or raise
    with pytest.raises(RuntimeError, match="closed"):
        batcher.run(np.array([[1.0, 2.0]]))


# ------------------------------------------------------- auto flush threshold


def test_microbatcher_auto_follows_segment_hint():
    hint = [16]
    batcher = MicroBatcher(
        SumSketch().predict,
        max_batch_size="auto",
        max_delay_s=0.005,
        segment_hint=lambda: hint[0],
    )
    try:
        assert batcher.stats()["auto_batch"] is True
        fut = batcher.submit(np.array([[1.0, 2.0]]), scalar=True)
        assert fut.result(timeout=5.0) == 3.0
        deadline = time.time() + 2.0
        while batcher.max_batch_size != 16 and time.time() < deadline:
            time.sleep(0.005)
        assert batcher.max_batch_size == 16  # hint adopted after a flush
    finally:
        batcher.close()


def test_microbatcher_auto_survives_broken_hint():
    def bad_hint():
        raise RuntimeError("stats unavailable")

    batcher = MicroBatcher(
        SumSketch().predict,
        max_batch_size="auto",
        max_delay_s=0.005,
        segment_hint=bad_hint,
    )
    try:
        fut = batcher.submit(np.array([[4.0, 5.0]]), scalar=True)
        assert fut.result(timeout=5.0) == 9.0  # advisory hint: errors ignored
        assert batcher.max_batch_size >= 1
    finally:
        batcher.close()


def test_microbatcher_rejects_unknown_string_threshold():
    with pytest.raises(ValueError, match="auto"):
        MicroBatcher(SumSketch().predict, max_batch_size="turbo")
    with pytest.raises(ValueError, match="auto"):
        SketchService(max_batch_size="turbo")


def test_service_auto_max_batch_wires_engine_segment_stats():
    class SegSketch(SumSketch):
        def segment_stats(self):
            return {"suggested_max_batch": 24}

    with SketchService(max_batch_size="auto", max_delay_s=0.005, cache=False) as svc:
        svc.register("seg", SegSketch())
        svc.register("plain", SumSketch())  # no segment_stats: fixed default
        assert svc.ask(np.array([2.0, 2.0]), sketch="seg") == pytest.approx(4.0)
        batcher = svc._entries["seg"].batcher
        deadline = time.time() + 2.0
        while batcher.max_batch_size != 24 and time.time() < deadline:
            time.sleep(0.005)
        assert batcher.max_batch_size == 24
        assert svc._entries["plain"].batcher.max_batch_size >= 1
