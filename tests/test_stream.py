"""Streaming ingest: dirty marking, partial retrain, hot-swap, persistence."""

import io
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.nn.train_core import TrainConfig
from repro.queries.executor import ExactEngine
from repro.serve import AnswerCache, ImmutableSketchError, SketchService
from repro.stream import DeltaStore, MaintenancePolicy, StreamingSketch, load_stream_sketch
from repro.stream.sketch import STAGES, is_stream_bundle

#: Policy that never retrains on its own — mutations only accumulate
#: pending state, so tests control exactly when weights move.
NEVER = dict(min_dirty_rows=1 << 62)


def tiny_dataset(n=400, seed=0):
    """Two independent uniform columns, measure = the second."""
    rng = np.random.default_rng(seed)
    raw = np.column_stack(
        [rng.uniform(0.0, 10.0, size=n), rng.uniform(0.0, 100.0, size=n)]
    )
    return Dataset(raw, ["x", "m"], measure="m", name="tiny")


def small_sketch(policy=None, aggregate="AVG", tree_height=2, seed=0, epochs=6):
    ds = tiny_dataset(seed=seed)
    Q = np.random.default_rng(seed + 1).uniform(0.0, 1.0, size=(96, 2))
    config = TrainConfig(epochs=epochs, batch_size=64, patience=epochs, seed=seed)
    return StreamingSketch.build(
        ds,
        Q,
        aggregate=aggregate,
        fixed_range=0.3,
        tree_height=tree_height,
        depth=2,
        width_first=8,
        width_rest=8,
        config=config,
        policy=policy,
        seed=seed,
    )


def rows_near(sketch, unit_point, k=5, jitter=0.01, seed=9):
    """Raw rows clustered around a normalized-space point (inside the data
    range, so they actually dirty the leaves whose boxes reach them)."""
    rng = np.random.default_rng(seed)
    unit = np.clip(unit_point + rng.uniform(-jitter, jitter, size=(k, 2)), 0.0, 0.999)
    return sketch.store.scaler.inverse_transform(unit)


# ---------------------------------------------------------------- delta store


def test_delta_store_one_row_appends_equal_the_concatenated_reference():
    """Appends fill a growing buffer; what the store shows must be bitwise
    what concatenating every row would give, as read-only views, also
    when the buffer regrows after a delete."""
    ds = tiny_dataset()
    store = DeltaStore.from_dataset(ds)
    rows = np.random.default_rng(3).uniform(0.0, 10.0, size=(1_000, 2))
    lo, hi = np.array([0.0, 0.0]), np.array([5.0, 50.0])
    for row in rows[:500]:
        store.append(row)
    held = store.live
    deleted = store.delete(lo, hi)
    assert held.all(), "a view taken before a delete keeps what it showed"
    for row in rows[500:]:
        store.append(row)

    every = np.concatenate([ds.raw, rows])
    live = np.ones(every.shape[0], dtype=bool)
    live[: ds.raw.shape[0] + 500] &= ~np.all((every >= lo) & (every < hi), axis=1)[
        : ds.raw.shape[0] + 500
    ]
    assert deleted.shape[0] == int((~live).sum()) > 0
    assert store.n_total == every.shape[0] and store.n_live == int(live.sum())
    assert store.appended_raw.tobytes() == rows.tobytes()
    assert store.appended_raw.shape == rows.shape
    assert store.all_raw.tobytes() == every.tobytes()
    assert store.base_raw.tobytes() == ds.raw.tobytes()
    assert store.live.tobytes() == live.tobytes()
    assert store.live_raw.tobytes() == every[live].tobytes()
    for view in (store.base_raw, store.appended_raw, store.all_raw, store.live):
        assert not view.flags.writeable

    # The bundle arrays are the filled parts alone, and round-trip exactly.
    arrays = store.to_arrays()
    assert arrays["store_appended_raw"].tobytes() == rows.tobytes()
    assert arrays["store_live"].tobytes() == live.tobytes()
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    buf.seek(0)
    with np.load(buf) as payload:
        back = DeltaStore.from_arrays(payload, store.measure_index)
    for key, arr in back.to_arrays().items():
        assert arr.dtype == arrays[key].dtype and arr.shape == arrays[key].shape
        assert arr.tobytes() == arrays[key].tobytes()
    extra = np.array([[1.0, 2.0]])
    back.append(extra)
    assert back.all_raw.tobytes() == np.concatenate([every, extra]).tobytes()
    assert back.live.tobytes() == np.append(live, True).tobytes()


# ------------------------------------------------------------- dirty marking


def test_append_marks_reaching_leaves_dirty_and_preview_agrees():
    sketch = small_sketch(policy=MaintenancePolicy(**NEVER))
    rows = rows_near(sketch, np.array([0.5, 0.5]))
    preview = sketch.preview_dirty(rows)
    result = sketch.append(rows)
    assert result.op == "append" and result.appended == rows.shape[0]
    assert result.dirty_leaves == list(preview)
    assert result.dirty_leaves  # rows inside the cube always land somewhere
    assert result.retrained_leaves == [] and not result.swapped
    assert result.epoch == 0 and result.data_version == 1
    # The dirty boxes ride along for cache invalidation, one per dirty leaf.
    assert result.dirty_lo.shape == (len(result.dirty_leaves), sketch.Q_train.shape[1])


def test_rows_outside_the_frozen_scaler_range_dirty_nothing():
    """A row below the seed min normalizes outside [0, 1) and matches no
    in-range query — by design (the scaler is frozen at build time)."""
    sketch = small_sketch(policy=MaintenancePolicy(**NEVER))
    far = np.array([[-50.0, -999.0]])
    assert sketch.preview_dirty(far).size == 0
    result = sketch.append(far)
    assert result.dirty_leaves == [] and result.appended == 1
    assert sketch.store.n_live == 401  # the row is stored, just unreachable


def test_delete_tombstones_rows_and_dirties_their_leaves():
    sketch = small_sketch(policy=MaintenancePolicy(**NEVER))
    before = sketch.store.n_live
    result = sketch.delete(np.array([0.0, 0.0]), np.array([3.0, 30.0]))
    assert result.op == "delete" and result.deleted > 0
    assert sketch.store.n_live == before - result.deleted
    assert result.dirty_leaves
    # Deleting the same box again is a no-op: nothing left to tombstone.
    again = sketch.delete(np.array([0.0, 0.0]), np.array([3.0, 30.0]))
    assert again.deleted == 0 and again.dirty_leaves == []


# -------------------------------------------------------------- label refresh


@pytest.mark.parametrize("aggregate", ["COUNT", "SUM"])
def test_exact_delta_labels_match_a_full_rescan(aggregate):
    """COUNT/SUM labels update from the changed rows alone; the result must
    equal recomputing every label against the live data."""
    sketch = small_sketch(policy=MaintenancePolicy(**NEVER), aggregate=aggregate)
    sketch.append(rows_near(sketch, np.array([0.3, 0.7]), k=20))
    sketch.delete(np.array([5.0, 50.0]), np.array([9.0, 90.0]))
    engine = ExactEngine(sketch.store.live_X, sketch.store.live_measure)
    rescan = engine.answer(sketch.predicate, sketch.Q_train, sketch.aggregate)
    np.testing.assert_allclose(sketch.y_train, rescan, rtol=1e-9, atol=1e-9)


def test_avg_labels_rescan_the_live_data():
    sketch = small_sketch(policy=MaintenancePolicy(**NEVER), aggregate="AVG")
    sketch.append(rows_near(sketch, np.array([0.6, 0.4]), k=20))
    engine = ExactEngine(sketch.store.live_X, sketch.store.live_measure)
    rescan = engine.answer(sketch.predicate, sketch.Q_train, sketch.aggregate)
    np.testing.assert_array_equal(sketch.y_train, rescan)


def test_avg_label_engine_is_extended_by_appends_and_rebuilt_after_deletes(monkeypatch):
    """Appends merge into the kept label engine instead of re-indexing every
    live row; its index and the labels stay bitwise equal to a fresh engine
    over the live rows. A delete drops it, and the next refresh rebuilds."""
    from repro.queries import executor

    sketch = small_sketch(policy=MaintenancePolicy(**NEVER), aggregate="AVG")
    built = []
    original = executor.ExactEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    def check_against_fresh():
        held, n_total = sketch._mut["labels"]
        assert n_total == sketch.store.n_total
        fresh = ExactEngine(sketch.store.live_X, sketch.store.live_measure)
        for got, want in zip(
            (held._XT, held._order, held._keys, held.measure),
            (fresh._XT, fresh._order, fresh._keys, fresh.measure),
        ):
            assert got.tobytes() == want.tobytes()
        rescan = fresh.answer(sketch.predicate, sketch.Q_train, sketch.aggregate)
        np.testing.assert_array_equal(sketch.y_train, rescan)

    monkeypatch.setattr(executor.ExactEngine, "__init__", counting_init)
    sketch.append(rows_near(sketch, np.array([0.6, 0.4]), k=20, seed=1))
    assert len(built) == 1  # the first refresh indexes the live rows once
    sketch.append(np.array([[-50.0, -999.0]]))  # dirties nothing, still indexed
    sketch.append(rows_near(sketch, np.array([0.2, 0.8]), k=7, seed=2))
    assert len(built) == 1
    check_against_fresh()
    built.clear()
    sketch.delete(np.array([5.0, 50.0]), np.array([9.0, 90.0]))
    assert len(built) == 1 and sketch._mut["labels"] is not None
    sketch.append(rows_near(sketch, np.array([0.4, 0.6]), k=9, seed=3))
    assert len(built) == 1
    check_against_fresh()


# ---------------------------------------------------------- policy + retrain


def test_policy_thresholds_gate_retraining():
    policy = MaintenancePolicy(min_dirty_rows=10, drift_threshold=0.0)
    sketch = small_sketch(policy=policy)
    small = sketch.append(rows_near(sketch, np.array([0.5, 0.5]), k=3))
    assert not small.swapped and sketch.epoch == 0  # under the row threshold
    big = sketch.append(rows_near(sketch, np.array([0.5, 0.5]), k=30, seed=10))
    assert big.swapped and sketch.epoch == 1
    assert big.retrained_leaves  # the accumulated pending leaves flushed


def test_default_policy_retrains_on_any_dirty_row():
    sketch = small_sketch()  # default policy: min_dirty_rows=1, no drift bar
    result = sketch.append(rows_near(sketch, np.array([0.5, 0.5])))
    assert result.swapped and result.retrained_leaves == result.dirty_leaves
    assert sketch.epoch == 1


def test_retrain_pending_flushes_accumulated_leaves():
    sketch = small_sketch(policy=MaintenancePolicy(**NEVER))
    dirty = sketch.append(rows_near(sketch, np.array([0.2, 0.8]), k=10)).dirty_leaves
    assert sketch.stats()["pending_leaves"] == len(dirty)
    flushed = sketch.retrain_pending()
    assert flushed.op == "retrain" and flushed.swapped
    assert flushed.retrained_leaves == dirty
    assert sketch.epoch == 1 and sketch.stats()["pending_leaves"] == 0
    # Nothing pending: a second flush is a no-op and does not bump the epoch.
    again = sketch.retrain_pending()
    assert not again.swapped and sketch.epoch == 1


def test_clean_slots_carry_through_retrain_bit_exactly():
    sketch = small_sketch(policy=MaintenancePolicy(**NEVER))
    group_before = sketch.canonical.groups[0]
    W_before = [W.copy() for W in group_before.W]
    b_before = [b.copy() for b in group_before.b]
    dirty = sketch.append(rows_near(sketch, np.array([0.1, 0.1]), k=8)).dirty_leaves
    clean = sorted(set(range(sketch.n_leaves)) - set(dirty))
    assert clean, "need at least one clean leaf for the carry-through check"
    sketch.retrain_pending()
    group_after = sketch.canonical.groups[0]
    for li in range(len(W_before)):
        for l in clean:
            assert np.array_equal(group_after.W[li][l], W_before[li][l])
            assert np.array_equal(group_after.b[li][l], b_before[li][l])
        changed = any(
            not np.array_equal(group_after.W[li][l], W_before[li][l]) for l in dirty
        )
        if li == 0:
            assert changed, "dirty slots must actually retrain"


def test_retrained_slots_match_a_full_rebuild_bitwise():
    """Incremental maintenance must land on the same weights a from-scratch
    rebuild of those leaves produces: dirty slot l at epoch e+1 initializes,
    shuffles and early-stops exactly like the rebuild's slot l."""
    sketch = small_sketch(policy=MaintenancePolicy(**NEVER))
    dirty = sketch.append(rows_near(sketch, np.array([0.7, 0.3]), k=12)).dirty_leaves
    rebuilt = sketch.rebuild()  # epoch-1 seed schedule, does not swap
    assert sketch.epoch == 0
    sketch.retrain_pending()
    assert sketch.epoch == 1
    new_group = sketch.canonical.groups[0]
    ref_group = rebuilt.groups[0]
    for li in range(len(new_group.W)):
        for l in dirty:
            assert np.array_equal(new_group.W[li][l], ref_group.W[li][l])
            assert np.array_equal(new_group.b[li][l], ref_group.b[li][l])


def test_identical_ingest_sequences_produce_bit_identical_sketches():
    a = small_sketch()
    b = small_sketch()
    rows = rows_near(a, np.array([0.4, 0.6]), k=10)
    box = (np.array([6.0, 10.0]), np.array([9.0, 60.0]))
    for s in (a, b):
        s.append(rows)
        s.delete(*box)
    assert (a.epoch, a.data_version) == (b.epoch, b.data_version)
    Q = np.random.default_rng(5).uniform(0.0, 1.0, size=(64, 2))
    for tier in ("float32", "float64"):
        assert np.array_equal(
            a.engine(tier).predict(Q), b.engine(tier).predict(Q)
        )


def test_retrain_under_float32_serving_builds_no_canonical_plan():
    """The float64 canonical engine only feeds retrains and re-tiering, so
    under float32 serving it never lowers the fused plan; the serving
    engine does, on its first answer."""
    sketch = small_sketch(policy=MaintenancePolicy(**NEVER))
    assert sketch.serving_dtype == "float32"
    Q = np.random.default_rng(4).uniform(0.0, 1.0, size=(32, 2))
    sketch.predict(Q)
    sketch.append(rows_near(sketch, np.array([0.3, 0.3]), k=8))
    sketch.retrain_pending()
    assert sketch.epoch == 1
    assert not any(g.has_plan for g in sketch.canonical.groups)
    sketch.predict(Q)
    assert all(g.has_plan for g in sketch.engine().groups)


def test_lazy_plan_answers_bitwise_like_an_eager_one():
    """Lowering the plan on first use, not at construction, changes no bit
    of a float64 answer, batch or single."""
    canonical = small_sketch().canonical
    lazy = canonical.with_dtype("float32").with_dtype("float64")
    eager = canonical.with_dtype("float32").with_dtype("float64")
    for g in eager.groups:
        g._build_plan()  # what construction used to do
    assert not any(g.has_plan for g in lazy.groups)
    Q = np.random.default_rng(8).uniform(0.0, 1.0, size=(200, 2))
    assert lazy.predict(Q).tobytes() == eager.predict(Q).tobytes()
    assert [lazy.predict_one(q) for q in Q[:20]] == [eager.predict_one(q) for q in Q[:20]]


def test_one_retrain_computes_the_leaf_boxes_once(monkeypatch):
    """Every engine a retrain builds shares one tree, whose leaf boxes are
    computed once and memoised, not once per engine."""
    from repro.core.compiled import FlatTree

    sketch = small_sketch(policy=MaintenancePolicy(**NEVER))
    sketch.engine()
    sketch.append(rows_near(sketch, np.array([0.6, 0.4]), k=8))
    tree = sketch.canonical.tree
    tree._leaf_boxes.clear()
    calls = []
    compute = FlatTree._compute_leaf_boxes

    def counting(self, dim):
        calls.append(dim)
        return compute(self, dim)

    monkeypatch.setattr(FlatTree, "_compute_leaf_boxes", counting)
    assert sketch.retrain_pending().swapped
    assert sketch.canonical.tree is tree
    assert calls == [sketch.input_dim]
    lo, hi = tree.leaf_boxes(sketch.input_dim)
    assert not lo.flags.writeable and not hi.flags.writeable


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_retrain_memory_follows_the_dirty_leaves_not_the_sketch():
    """A retrain of one or two of 16 leaves trains a stack of those leaves
    alone. Its traced peak, which includes the new epoch's engines, stays
    under a quarter of a full rebuild's; a fit over every slot would
    allocate optimizer and best-parameter state for all 16 (about 0.6 of
    the rebuild)."""
    ds = tiny_dataset()
    Q = np.random.default_rng(1).uniform(0.0, 1.0, size=(512, 2))
    sketch = StreamingSketch.build(
        ds,
        Q,
        fixed_range=0.05,
        tree_height=4,
        config=TrainConfig(epochs=6, batch_size=32, patience=6, seed=0),
        policy=MaintenancePolicy(**NEVER),
    )
    sketch.engine()  # the serving tier is re-tiered and swapped too
    rows = rows_near(sketch, np.array([0.01, 0.01]), k=4)
    dirty = sketch.append(rows).dirty_leaves
    assert 1 <= len(dirty) <= 2 and sketch.n_leaves == 16
    rebuild = _peak_bytes(sketch.rebuild)
    retrain = _peak_bytes(sketch.retrain_pending)
    assert sketch.epoch == 1
    assert retrain <= rebuild / 4, f"retrain peak {retrain} vs rebuild {rebuild}"


# ------------------------------------------------------------------ hot-swap


def test_tier_views_share_mutations_and_swap_together():
    sketch = small_sketch()
    view64 = sketch.with_dtype("float64")
    Q = np.random.default_rng(6).uniform(0.0, 1.0, size=(16, 2))
    before64 = view64.predict(Q)
    result = sketch.append(rows_near(sketch, np.array([0.5, 0.5]), k=10))
    assert result.swapped
    assert view64.epoch == sketch.epoch == 1  # shared mutable state
    assert not np.array_equal(view64.predict(Q), before64)
    # The view's engine object is stable: swapped in place, not replaced.
    assert view64.engine("float64") is view64.engine("float64")


def test_hot_swap_is_atomic_under_concurrent_predicts(tmp_path):
    """The acceptance hammer: readers racing a stream of retraining appends
    must only ever observe complete epochs — every snapshot equals some
    epoch's full answer vector, never a mixture of two."""
    sketch = small_sketch()  # default policy: every append retrains + swaps
    bundle = str(tmp_path / "hammer.npz")
    sketch.save_npz(bundle)
    Q = np.random.default_rng(8).uniform(0.0, 1.0, size=(12, 2))
    batches = [rows_near(sketch, np.array([0.5, 0.5]), k=4, seed=100 + i) for i in range(8)]

    stop = threading.Event()
    snapshots: list[list[bytes]] = [[] for _ in range(3)]

    def reader(slot):
        while not stop.is_set():
            snapshots[slot].append(sketch.predict(Q).tobytes())

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(len(snapshots))]
    for t in threads:
        t.start()
    try:
        for rows in batches:
            assert sketch.append(rows).swapped
    finally:
        stop.set()
        for t in threads:
            t.join()

    # Replay the same deterministic sequence on a twin to reconstruct every
    # epoch's reference answers, then check each observed snapshot against
    # the set — bitwise.
    twin = load_stream_sketch(bundle)
    valid = {twin.predict(Q).tobytes()}
    for rows in batches:
        twin.append(rows)
        valid.add(twin.predict(Q).tobytes())
    assert twin.epoch == sketch.epoch == len(batches)
    seen = {s for slot in snapshots for s in slot}
    assert seen, "the readers never got a snapshot in"
    assert seen <= valid, "a reader observed a mixed-epoch answer vector"


# --------------------------------------------------------------- persistence


def test_npz_roundtrip_then_ingest_is_bit_exact(tmp_path):
    """save -> load -> ingest -> hot-swap lands on byte-identical state to
    the in-process sketch given the same updates (the property that lets an
    offline `repro ingest --sketch` rewrite and a live server agree)."""
    sketch = small_sketch()
    sketch.append(rows_near(sketch, np.array([0.3, 0.3]), k=6))  # pre-save epoch
    path = str(tmp_path / "bundle.npz")
    sketch.save_npz(path)
    assert is_stream_bundle(path)

    loaded = load_stream_sketch(path)
    assert (loaded.epoch, loaded.data_version) == (sketch.epoch, sketch.data_version)
    assert loaded.serving_dtype == sketch.serving_dtype
    np.testing.assert_array_equal(loaded.y_train, sketch.y_train)

    rows = rows_near(sketch, np.array([0.8, 0.2]), k=9, seed=77)
    box = (np.array([0.0, 0.0]), np.array([2.0, 20.0]))
    r_live = sketch.append(rows)
    r_load = loaded.append(rows)
    assert r_load.to_dict() == r_live.to_dict()
    assert loaded.delete(*box).to_dict() == sketch.delete(*box).to_dict()
    Q = np.random.default_rng(12).uniform(0.0, 1.0, size=(48, 2))
    for tier in ("float32", "float64"):
        a = sketch.engine(tier).predict(Q)
        b = loaded.engine(tier).predict(Q)
        assert a.tobytes() == b.tobytes()


def test_is_stream_bundle_rejects_other_files(tmp_path):
    plain = tmp_path / "plain.npz"
    np.savez(plain, x=np.arange(3))
    assert not is_stream_bundle(str(plain))
    assert not is_stream_bundle(str(tmp_path / "missing.npz"))
    with pytest.raises(ValueError, match="not a stream-sketch bundle"):
        load_stream_sketch(str(plain))


# ------------------------------------------------------------------- service


def test_service_rejects_ingest_without_mutation_support():
    sketch = small_sketch()
    with SketchService(cache=False) as svc:  # allow_mutations defaults off
        svc.register("s", sketch)
        with pytest.raises(ImmutableSketchError, match="does not accept mutations"):
            svc.ingest(rows=[[1.0, 2.0]])
    with SketchService(cache=False, allow_mutations=True) as svc:

        class Plain:
            def predict(self, Q):
                return np.zeros(np.atleast_2d(Q).shape[0])

        svc.register("plain", Plain())
        with pytest.raises(ImmutableSketchError, match="not a streaming sketch"):
            svc.ingest(rows=[[1.0, 2.0]])


def test_service_ingest_requires_rows_or_delete():
    with SketchService(cache=False, allow_mutations=True) as svc:
        svc.register("s", small_sketch())
        with pytest.raises(ValueError, match="rows to append"):
            svc.ingest()


def test_service_ingest_evicts_dirty_regions_and_counts_invalidations():
    """Satellite contract: hit/miss/invalidation counters flow through
    ``SketchService.stats()`` and ingest evicts exactly the cached answers
    whose quantized cells reach a dirty leaf's box."""
    sketch = small_sketch(policy=MaintenancePolicy(**NEVER))
    with SketchService(
        cache=True, cache_resolution=1e-4, allow_mutations=True, max_delay_s=1e-3
    ) as svc:
        svc.register("s", sketch)
        Q = np.random.default_rng(13).uniform(0.0, 1.0, size=(32, 2))
        first = svc.ask_many(Q)
        again = svc.ask_many(Q)  # all hits
        np.testing.assert_array_equal(first, again)
        stats = svc.stats()
        assert stats["cache"]["hits"] == 32 and stats["cache"]["misses"] == 32
        assert stats["mutable"] is True
        assert stats["stream"]["epoch"] == 0

        summary = svc.ingest(rows=rows_near(sketch, np.array([0.5, 0.5]), k=10))
        assert summary["appended"] == 10 and summary["dirty_leaves"]
        assert summary["cache_evictions"] > 0
        stats = svc.stats()
        assert stats["cache"]["invalidations"] == summary["cache_evictions"]
        assert stats["cache"]["entries"] == 32 - summary["cache_evictions"]
        # Post-ingest answers for evicted queries are recomputed (misses),
        # surviving entries still hit.
        svc.ask_many(Q)
        assert svc.stats()["cache"]["misses"] == 32 + summary["cache_evictions"]


def test_service_ingest_invalidates_every_tier_view_of_one_stream():
    sketch = small_sketch(policy=MaintenancePolicy(**NEVER))
    shared = AnswerCache(resolution=1e-4)
    with SketchService(cache=shared, allow_mutations=True) as svc:
        svc.register("f32", sketch)
        svc.register("f64", sketch.with_dtype("float64"))
        Q = np.random.default_rng(14).uniform(0.0, 1.0, size=(16, 2))
        svc.ask_many(Q, sketch="f32")
        svc.ask_many(Q, sketch="f64")
        assert len(shared) == 32
        summary = svc.ingest(rows=rows_near(sketch, np.array([0.5, 0.5]), k=10), sketch="f32")
        # Both tier entries share the stream state, so both caches evicted.
        assert summary["cache_evictions"] > 0
        assert summary["cache_evictions"] % 2 == 0
        assert len(shared) == 32 - summary["cache_evictions"]


def test_service_ingest_reports_where_its_time_goes():
    """Each ingest summary splits its time into stages, and the stream
    stats keep running totals of them."""
    sketch = small_sketch()  # default policy: every append retrains
    with SketchService(cache=True, cache_resolution=1e-4, allow_mutations=True) as svc:
        svc.register("s", sketch)
        svc.ask_many(np.random.default_rng(15).uniform(0.0, 1.0, size=(32, 2)))
        totals = dict.fromkeys(STAGES, 0.0)
        for seed in range(2):
            rows = rows_near(sketch, np.array([0.5, 0.5]), k=6, seed=seed)
            t0 = time.perf_counter()
            summary = svc.ingest(rows=rows)
            wall = time.perf_counter() - t0
            stages = summary["stages"]
            assert set(stages) == set(STAGES)
            assert all(v >= 0.0 for v in stages.values())
            assert sum(stages.values()) <= wall
            assert summary["swapped"] and stages["retrain_s"] > 0.0
            for key in STAGES:
                totals[key] += stages[key]
        assert svc.stats()["stream"]["stages"] == pytest.approx(totals)


def test_service_ingest_hands_free_heap_pages_back(monkeypatch):
    """An ingest trims the C heap once, after its retrain has swapped the
    new epoch in; without ``malloc_trim`` the trim is a no-op."""
    from repro.serve import service

    calls = []
    sketch = small_sketch()  # default policy: every append retrains
    with SketchService(cache=True, cache_resolution=1e-4, allow_mutations=True) as svc:
        svc.register("s", sketch)
        monkeypatch.setattr(service, "_MALLOC_TRIM", lambda pad: calls.append((pad, sketch.epoch)))
        svc.ingest(rows=rows_near(sketch, np.array([0.5, 0.5]), k=6))
        assert calls == [(0, 1)]
        monkeypatch.setattr(service, "_MALLOC_TRIM", None)
        summary = svc.ingest(rows=rows_near(sketch, np.array([0.5, 0.5]), k=6, seed=1))
        assert summary["epoch"] == 2
    assert calls == [(0, 1)]


def test_service_epoch_info_reports_stream_and_static_sketches():
    sketch = small_sketch()
    with SketchService(cache=False, allow_mutations=True) as svc:
        svc.register("s", sketch)
        assert svc.epoch_info() == {"epoch": 0, "data_version": 0}
        svc.ingest(rows=rows_near(sketch, np.array([0.5, 0.5]), k=5))
        info = svc.epoch_info()
        assert info["epoch"] == 1 and info["data_version"] == 1
    with SketchService(cache=False) as svc:

        class Plain:
            def predict(self, Q):
                return np.zeros(np.atleast_2d(Q).shape[0])

        svc.register("plain", Plain())
        assert svc.epoch_info() == {"epoch": 0, "data_version": 0}


# ------------------------------------------------------------------- guards


def test_build_rejects_unsupported_shapes():
    sketch = small_sketch()
    with pytest.raises(ValueError, match="float64"):
        StreamingSketch(
            sketch.canonical.with_dtype("float32"),
            sketch.predicate,
            sketch.aggregate,
            sketch.store,
            sketch.Q_train,
            sketch.y_train,
            sketch.config,
        )
    with pytest.raises(ValueError, match="pending counters"):
        StreamingSketch(
            sketch.canonical,
            sketch.predicate,
            sketch.aggregate,
            sketch.store,
            sketch.Q_train,
            sketch.y_train,
            sketch.config,
            pending=np.zeros(2, dtype=np.int64),
        )


def test_stats_surface_the_stream_state():
    sketch = small_sketch(policy=MaintenancePolicy(**NEVER))
    sketch.engine("float64")
    sketch.append(rows_near(sketch, np.array([0.5, 0.5]), k=4))
    stats = sketch.stats()
    assert stats["n_leaves"] == 4 and stats["aggregate"] == "AVG"
    assert stats["appended_rows"] == 4 and stats["n_live_rows"] == 404
    assert stats["pending_leaves"] > 0
    assert stats["epoch"] == 0 and stats["data_version"] == 1
    assert "float64" in stats["tiers"]
