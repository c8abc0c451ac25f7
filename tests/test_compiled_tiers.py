"""The precision-tiered, sort-segmented execution engine.

Four contracts on top of the float64 parity suite (``test_compiled.py``):

- the float32 tier stays within a documented normalized tolerance
  (``F32_TOL``) of the float64 reference tier — checked on the golden
  artifact, so the bound is pinned to a real fitted sketch;
- the segmented schedule is equivalent to the padded reference schedule
  (``predict_padded``), including on skewed merged trees where their
  execution order differs most;
- both tiers serialize and round-trip losslessly (canonical weights are
  tier-independent, the tier itself is recorded);
- the steady-state serving path reuses its scratch arenas instead of
  reallocating activations, and the engine lock makes concurrent calls
  safe.
"""

import json
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core.compiled import (
    DEFAULT_SERVING_DTYPE,
    DTYPE_TIERS,
    CompiledSketch,
    resolve_dtype,
)
from repro.core.neurosketch import NeuroSketch
from repro.eval.metrics import normalized_max_abs_diff
from repro.nn.training import TrainConfig

DATA = Path(__file__).resolve().parent / "data"

#: Documented float32-tier tolerance: normalized max deviation from the
#: float64 tier (max |a32 - a64| / max |a64|). Single-precision rounding
#: through the paper's 5-layer nets lands around 1e-7; the model's own
#: normalized MAE is ~0.29, six orders above this bound.
F32_TOL = 1e-5


def make_sketch(seed=0, dim=3, height=3, partitions=None, n=160, depth=3, widths=(12, 8)):
    rng = np.random.default_rng(seed)
    Q = rng.uniform(0.0, 1.0, size=(n, dim))
    y = rng.normal(size=n)
    ns = NeuroSketch(
        tree_height=height,
        n_partitions=partitions,
        depth=depth,
        width_first=widths[0],
        width_rest=widths[1],
        train_config=TrainConfig(epochs=1, batch_size=32, seed=seed),
        seed=seed,
    )
    ns.fit(Q_train=Q, y_train=y)
    return ns, Q, rng


@pytest.fixture(scope="module")
def golden():
    sketch = NeuroSketch.load(str(DATA / "golden_sketch.json.gz"))
    with open(DATA / "golden_expected.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    return sketch, np.asarray(payload["queries"], dtype=np.float64)


# ------------------------------------------------------------------ tier basics


def test_default_serving_tier_is_float32():
    assert DEFAULT_SERVING_DTYPE == "float32"
    assert set(DTYPE_TIERS) == {"float32", "float64"}


def test_resolve_dtype_rejects_unknown_tiers():
    assert resolve_dtype("float64") is np.float64
    with pytest.raises(ValueError, match="dtype must be one of"):
        resolve_dtype("float16")


def test_compile_dtype_validation_runs_on_fitted_sketch():
    ns, _, _ = make_sketch(seed=1, dim=2, height=1)
    with pytest.raises(ValueError, match="dtype must be one of"):
        ns.compile(dtype="bfloat16")


def test_compile_caches_one_engine_per_tier():
    ns, _, _ = make_sketch(seed=2, dim=2, height=2)
    c64 = ns.compile()
    c32 = ns.compile(dtype="float32")
    assert c64.dtype_name == "float64" and c32.dtype_name == "float32"
    assert ns.compile() is c64
    assert ns.compile(dtype="float32") is c32
    assert c32 is not c64
    # Re-tiering shares the tree and the canonical weight arrays.
    assert c32.tree is c64.tree
    for g64, g32 in zip(c64.groups, c32.groups):
        assert all(w64 is w32 for w64, w32 in zip(g64.W, g32.W))
    # with_dtype on the matching tier is the identity.
    assert c64.with_dtype("float64") is c64


def test_float32_tier_on_golden_sketch_within_documented_tolerance(golden):
    sketch, queries = golden
    a64 = sketch.compile(dtype="float64").predict(queries)
    a32 = sketch.compile(dtype="float32").predict(queries)
    diff = normalized_max_abs_diff(a32, a64)
    assert 0.0 < diff <= F32_TOL
    # Elementwise agreement wherever the reference answer is not near zero.
    big = np.abs(a64) > 1e-3 * np.abs(a64).max()
    assert np.all(np.abs(a32[big] - a64[big]) / np.abs(a64[big]) <= 1e-4)
    # The scalar path runs the same fused plan.
    singles = np.array([sketch.compile(dtype="float32").predict_one(q) for q in queries])
    assert normalized_max_abs_diff(singles, a64) <= F32_TOL


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_single_row_predict_matches_predict_one_exactly(golden, dtype):
    sketch, queries = golden
    engine = sketch.compile(dtype=dtype)
    for q in queries[:8]:
        assert engine.predict(q[None, :])[0] == engine.predict_one(q)


# --------------------------------------------------- segmented vs padded schedule


@pytest.mark.parametrize("partitions", [3, 6])
def test_segmented_matches_padded_on_skewed_merged_trees(partitions):
    """Merged trees give ragged leaf depths and uneven segment sizes — the
    case where the segmented and padded schedules differ most in execution
    order. Same answers to parity tolerance required."""
    ns, Q, rng = make_sketch(seed=3, dim=3, height=4, partitions=partitions, n=600)
    engine = ns.compile()
    # A skewed batch: one hot leaf repeated, plus stragglers everywhere.
    leaves = engine.tree.route_batch(Q)
    hot = np.bincount(leaves).argmax()
    skewed = np.concatenate([np.repeat(Q[leaves == hot], 20, axis=0), Q])
    skewed = skewed[rng.permutation(skewed.shape[0])]
    for batch in (Q, skewed):
        seg = engine.predict(batch)
        pad = engine.predict_padded(batch)
        np.testing.assert_allclose(seg, pad, rtol=1e-12, atol=1e-12)
    # The float32 tier routes identically and stays within its tolerance.
    f32 = ns.compile(dtype="float32").predict(skewed)
    assert normalized_max_abs_diff(f32, engine.predict(skewed)) <= F32_TOL


def test_single_occupied_slot_skips_nothing_correctness_wise():
    ns, Q, _ = make_sketch(seed=4, dim=2, height=3, n=300)
    engine = ns.compile()
    leaves = engine.tree.route_batch(Q)
    one_leaf = Q[leaves == np.bincount(leaves).argmax()]
    assert one_leaf.shape[0] > 1
    np.testing.assert_allclose(
        engine.predict(one_leaf), engine.predict_padded(one_leaf), rtol=1e-12, atol=1e-12
    )


# -------------------------------------------------------------- persistence


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_serialization_round_trips_each_tier(tmp_path, dtype):
    ns, Q, _ = make_sketch(seed=5, dim=3, height=3, partitions=4)
    engine = ns.compile(dtype=dtype)
    ref = engine.predict(Q)

    state = engine.to_dict()
    assert state["dtype"] == dtype
    clone = CompiledSketch.from_dict(state)
    assert clone.dtype_name == dtype
    # Canonical weights are float64 regardless of tier, so the rebuilt
    # engine computes bitwise-identical answers.
    np.testing.assert_array_equal(clone.predict(Q), ref)

    path = tmp_path / f"sketch-{dtype}.json.gz"
    engine.save(str(path))
    loaded = CompiledSketch.load(str(path))
    assert loaded.dtype_name == dtype
    np.testing.assert_array_equal(loaded.predict(Q), ref)
    # A load-time override re-tiers the same payload.
    other = "float32" if dtype == "float64" else "float64"
    retiered = CompiledSketch.load(str(path), dtype=other)
    assert retiered.dtype_name == other
    assert normalized_max_abs_diff(retiered.predict(Q), ref) <= F32_TOL


def test_pre_tier_payloads_load_as_float64():
    """Payloads written before the tiered engine carry no dtype key."""
    ns, Q, _ = make_sketch(seed=6, dim=2, height=2)
    state = ns.compile().to_dict()
    state.pop("dtype")
    legacy = CompiledSketch.from_dict(state)
    assert legacy.dtype_name == "float64"
    np.testing.assert_array_equal(legacy.predict(Q), ns.compile().predict(Q))


# ------------------------------------------------------------- scratch arenas


def _activation_footprint(engine, m):
    return sum(
        m * sum(cols for cols in group._cols) * engine_itemsize(group)
        for group in engine.groups
    )


def engine_itemsize(group):
    return np.dtype(DTYPE_TIERS[group.dtype_name]).itemsize


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_predict_steady_state_reuses_arenas(dtype):
    # Paper-sized nets, so the activation footprint (what a naive engine
    # would re-materialize every call) dwarfs the O(m) routing metadata.
    ns, Q, rng = make_sketch(seed=7, dim=3, height=4, n=900, depth=5, widths=(60, 30))
    engine = ns.compile(dtype=dtype)
    batch = rng.uniform(0.0, 1.0, size=(512, 3))
    engine.predict(batch)
    engine.predict(batch)  # arena fully grown
    group = engine.groups[0]
    qflat, hflat = group._qflat, list(group._hflat)
    # Single-threaded callers always reuse context 0, which wraps the
    # primary groups; its routing scratch must be reused too.
    (ctx,) = engine._idle
    node, rows = ctx._node, ctx._rows

    footprint = _activation_footprint(engine, batch.shape[0])
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    for _ in range(3):
        engine.predict(batch)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Identical arena objects, no regrowth...
    assert group._qflat is qflat
    assert all(a is b for a, b in zip(group._hflat, hflat))
    assert engine._idle == [ctx]
    assert ctx._node is node and ctx._rows is rows
    # ...and per-call allocation is O(m) metadata plus the returned answers,
    # far below re-materializing the activation buffers each call.
    assert peak - before < max(footprint, 1) * 0.5


def test_predict_one_steady_state_is_allocation_free():
    ns, Q, _ = make_sketch(seed=8, dim=3, height=3)
    engine = ns.compile(dtype="float32")
    q = np.ascontiguousarray(Q[0])
    engine.predict_one(q)
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    for _ in range(200):
        engine.predict_one(q)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # Only transient float boxing; no tensor allocations at all.
    assert peak - before < 16_384


def test_concurrent_predict_calls_are_safe():
    """Concurrent predicts check exclusive contexts out of the replica
    pool (no engine-wide lock), so they must stay correct under overlap."""
    ns, Q, rng = make_sketch(seed=9, dim=3, height=4, n=600)
    engine = ns.compile(dtype="float32")
    batches = [rng.uniform(0.0, 1.0, size=(257, 3)) for _ in range(4)]
    expected = [engine.predict(b) for b in batches]
    results = [None] * len(batches)
    errors = []

    def worker(i):
        try:
            for _ in range(20):
                results[i] = engine.predict(batches[i])
                engine.predict_one(batches[i][0])
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(batches))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got, want)
    # Overlapping callers forced the pool past one context, and every
    # context came back idle once the callers finished.
    stats = engine.replica_stats()
    assert 1 <= stats["replicas"] <= engine.max_replicas
    assert stats["idle"] == stats["replicas"]


def test_replica_pool_grows_under_held_checkouts_and_caps():
    ns, Q, rng = make_sketch(seed=10, dim=3, height=3, n=400)
    engine = ns.compile(dtype="float32")
    engine.max_replicas = 3
    held = [engine._checkout() for _ in range(3)]
    assert engine.n_replicas == 3 and engine.replica_stats()["idle"] == 0
    # A 4th caller must block until a context is returned, not grow past
    # the cap; release one from another thread and the wait resolves.
    release = threading.Timer(0.05, engine._checkin, args=(held[0],))
    release.start()
    ctx = engine._checkout()
    assert engine.n_replicas == 3
    for c in (ctx, held[1], held[2]):
        engine._checkin(c)
    release.join()
    assert engine.replica_stats()["idle"] == 3


def test_concurrent_first_predicts_lower_one_plan(monkeypatch):
    """A fresh engine lowers its plan on first use. Two threads answering
    at once (one on the primary context, one growing a replica) must build
    it once and share it, and answer like a sequential engine."""
    import time

    from repro.core.compiled import _LeafGroup

    ns, Q, _ = make_sketch(seed=14, dim=3, height=3, n=400)
    expected = ns.compile(dtype="float32").predict(Q[:40])
    engine = CompiledSketch.from_sketch(ns, dtype="float32")
    assert not any(g.has_plan for g in engine.groups)
    original = _LeafGroup._build_plan
    builds = []

    def slow_build(self):
        builds.append(self)
        time.sleep(0.05)  # widen the window a racing lowering would use
        original(self)

    monkeypatch.setattr(_LeafGroup, "_build_plan", slow_build)
    barrier = threading.Barrier(2)
    got, errors = {}, []

    def worker(i):
        try:
            barrier.wait()
            got[i] = engine.predict(Q[:40])
        except BaseException as e:  # pragma: no cover - reported below
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(builds) == len(engine.groups)
    for i in range(2):
        np.testing.assert_allclose(got[i], expected, rtol=0, atol=1e-6)
    for ctx in engine._idle:
        assert all(c._A is g._A for c, g in zip(ctx.groups, engine.groups))


def test_replicas_share_canonical_and_plan_tensors():
    ns, Q, _ = make_sketch(seed=11, dim=3, height=3, n=400)
    engine = ns.compile(dtype="float32")
    group = engine.groups[0]
    rep = group.replicate()
    # Weights, scaler stats and the fused plan are the same arrays...
    assert all(a is b for a, b in zip(rep.W, group.W))
    assert all(a is b for a, b in zip(rep._A, group._A))
    assert rep.x_mean is group.x_mean and rep.y_scale is group.y_scale
    # ...while the mutable scratch is private.
    assert all(a is not b for a, b in zip(rep._one_bufs, group._one_bufs))
    assert rep._x_one is not group._x_one
    assert rep._qflat is None and rep._cap == 0
    # A replica-run forward matches the primary bitwise.
    q = np.ascontiguousarray(Q[0])
    slot = engine.leaf_slot[engine.tree.route_one(q)]
    assert rep.forward_one(q, int(slot)) == group.forward_one(q, int(slot))


def test_serialized_payload_has_no_pool_state(tmp_path):
    ns, Q, _ = make_sketch(seed=12, dim=3, height=3, n=400)
    engine = ns.compile(dtype="float32")
    engine.max_replicas = 5
    _ = [engine.predict(Q[:8]) for _ in range(2)]
    path = str(tmp_path / "pool.json.gz")
    engine.save(path)
    again = CompiledSketch.load(path)
    # Pool state is runtime-only: a fresh load starts from one context.
    assert again.n_replicas == 1
    np.testing.assert_array_equal(again.predict(Q[:8]), engine.predict(Q[:8]))


# ------------------------------------------------- regression: checkout rollback


def test_checkout_rolls_back_pool_slot_when_replicate_raises(monkeypatch):
    """A replicate() failure mid-checkout used to leak the claimed pool slot
    (``_n_contexts`` stayed bumped with no context ever checked in), so a
    capped pool could deadlock forever after one allocation failure."""
    from repro.core.compiled import _LeafGroup

    ns, Q, _ = make_sketch(seed=13, dim=3, height=3, n=400)
    engine = ns.compile(dtype="float32")
    engine.max_replicas = 2
    expected = engine.predict(Q[:4])
    held = engine._checkout()  # hold the pool's only context: growth forced
    original = _LeafGroup.replicate
    calls = {"n": 0}

    def flaky_replicate(self):
        calls["n"] += 1
        if calls["n"] == 1:
            raise MemoryError("allocation failed")
        return original(self)

    monkeypatch.setattr(_LeafGroup, "replicate", flaky_replicate)
    with pytest.raises(MemoryError):
        engine.predict(Q[:4])
    # The claimed slot was released: only the held context remains counted.
    assert engine.n_replicas == 1
    # The next caller grows the pool again and succeeds; without the
    # rollback it would wait forever at a cap the pool never actually
    # reached.
    got = engine.predict(Q[:4])
    assert engine.n_replicas == 2
    engine._checkin(held)
    np.testing.assert_array_equal(got, expected)


# ------------------------------------------------------- npz spill round trip


def test_npz_spill_round_trips_bitwise_on_both_tiers(tmp_path):
    ns, Q, _ = make_sketch(seed=14, dim=3, height=3, n=400)
    for tier in sorted(DTYPE_TIERS):
        engine = ns.compile(dtype=tier)
        path = str(tmp_path / f"spill-{tier}.npz")
        engine.save_npz(path)
        again = CompiledSketch.load_npz(path)
        assert again.dtype_name == tier
        np.testing.assert_array_equal(again.predict(Q), engine.predict(Q))
        assert again.predict_one(Q[0]) == engine.predict_one(Q[0])


def test_npz_spill_dtype_override_retiers_from_canonical(tmp_path):
    ns, Q, _ = make_sketch(seed=15, dim=3, height=3, n=400)
    engine32 = ns.compile(dtype="float32")
    path = str(tmp_path / "spill.npz")
    engine32.save_npz(path)
    # Loading the float32 spill at float64 must equal a direct float64
    # compile: the spill stores canonical float64 weights, not tier casts.
    engine64 = CompiledSketch.load_npz(path, dtype="float64")
    direct64 = ns.compile(dtype="float64")
    np.testing.assert_array_equal(engine64.predict(Q), direct64.predict(Q))


def test_npz_spill_rejects_foreign_payloads(tmp_path):
    path = str(tmp_path / "foreign.npz")
    np.savez(path, a=np.zeros(3))
    with pytest.raises(ValueError, match="not a compiled-sketch npz"):
        CompiledSketch.load_npz(path)
