"""Kernel pass contracts: SIMD width padding and fused scheduling.

Property-style coverage for the two engine-side kernel knobs on top of
the tier suite (``test_compiled_tiers.py``):

- **Padding is a pure view-time transform.** The fused plan tensors are
  padded to :data:`~repro.core.compiled.SIMD_LANES` multiples with
  *exact-zero* rows/columns (asserted bit-level), the canonical float64
  weights and the serialized form stay unpadded, and answers match the
  unpadded lowering bitwise on both tiers — across skewed merged trees,
  1-D inputs, deep ``h=6`` trees and off-distribution batches that leave
  leaves empty.
- **Fused scheduling is equivalent to the legacy schedule.** The fused
  route->segment path (box routing + in-place key sort) returns exactly
  what the legacy route -> argsort -> segments path returns, the
  small-batch fast path agrees with the scalar kernel, and the
  steady-state batch path does not grow the heap per call.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.compiled import SIMD_LANES, SMALL_BATCH_ROWS
from repro.core.neurosketch import NeuroSketch
from repro.eval.metrics import normalized_max_abs_diff
from repro.nn.training import TrainConfig

#: Documented float32-tier bound (see test_compiled_tiers.F32_TOL): width
#: padding must not move the f32 tier off the f64 reference beyond it.
F32_TOL = 1e-5


def make_sketch(seed=0, dim=3, height=3, partitions=None, n=160, depth=3):
    rng = np.random.default_rng(seed)
    Q = rng.uniform(0.0, 1.0, size=(n, dim))
    y = rng.normal(size=n)
    ns = NeuroSketch(
        tree_height=height,
        n_partitions=partitions,
        depth=depth,
        width_first=12,
        width_rest=8,
        train_config=TrainConfig(epochs=1, batch_size=32, seed=seed),
        seed=seed,
    )
    ns.fit(Q_train=Q, y_train=y)
    return ns, Q, rng


#: The property grid: skewed merged trees, 1-D input, a deep h=6 tree.
GRID = [
    dict(seed=0, dim=3, height=4, partitions=5),  # merged, skewed leaf sizes
    dict(seed=1, dim=1, height=3),                # 1-D routing
    dict(seed=2, dim=2, height=6, n=400),         # deep tree, 64 leaves
    dict(seed=3, dim=4, height=0),                # single leaf
]


# ------------------------------------------------------------ width padding


@pytest.mark.parametrize("params", GRID, ids=["merged", "1d", "deep", "single"])
def test_pad_columns_exactly_zero_after_fusion(params):
    engine = make_sketch(**params)[0].compile().with_dtype("float32")
    assert engine.pad_widths
    for group in engine.groups:
        group.ensure_plan()
        sizes = group.layer_sizes
        n_aff = len(group._A)
        for li, a in enumerate(group._A):
            fan_in, fan_out = sizes[li], sizes[li + 1]
            last = li == n_aff - 1
            assert a.shape[1] % SIMD_LANES == 0
            if not last:
                assert a.shape[2] % SIMD_LANES == 0
            else:
                assert a.shape[2] == fan_out  # answers stay one column
            # The carried ones-lane sits right after the real outputs...
            if not last:
                assert np.all(a[:, fan_in, fan_out] == 1.0)
            # ...and every padding row/column is exactly +0.0, so the
            # padded matmuls only ever add exact-zero terms.
            assert np.all(a[:, fan_in + 1 :, :] == 0.0)
            if not last:
                assert np.all(a[:, :, fan_out + 1 :] == 0.0)


@pytest.mark.parametrize("params", GRID, ids=["merged", "1d", "deep", "single"])
def test_padded_f64_matches_unpadded_f64_within_parity_budget(params):
    # The padded matmuls only add exact-zero terms, but BLAS blocks the
    # K dimension differently for padded shapes, so summation order (and
    # hence the last ulp) can move. The repo-wide f64 parity budget is
    # 1e-12; padding must stay far inside it.
    ns, Q, rng = make_sketch(**params)
    padded = ns.compile().with_dtype("float64", pad_widths=True)
    unpadded = padded.with_dtype("float64", pad_widths=False)
    for batch in (Q, rng.uniform(-0.5, 1.5, size=(64, Q.shape[1]))):
        a, b = padded.predict(batch), unpadded.predict(batch)
        assert normalized_max_abs_diff(a, b) <= 1e-12


@pytest.mark.parametrize("params", GRID, ids=["merged", "1d", "deep", "single"])
def test_padded_f32_stays_within_documented_bound(params):
    ns, Q, _ = make_sketch(**params)
    f64 = ns.compile()
    f32 = f64.with_dtype("float32", pad_widths=True)
    diff = normalized_max_abs_diff(f32.predict(Q), f64.predict(Q))
    assert diff <= F32_TOL
    # Padding itself must not push the f32 tier anywhere near the bound:
    # padded vs unpadded f32 differ only by gemm summation order.
    f32_off = f64.with_dtype("float32", pad_widths=False)
    assert normalized_max_abs_diff(f32.predict(Q), f32_off.predict(Q)) <= 1e-6


def test_canonical_weights_and_serialization_stay_unpadded(tmp_path):
    ns, Q, _ = make_sketch(seed=0, dim=3, height=4, partitions=5)
    engine = ns.compile().with_dtype("float32")
    for group in engine.groups:
        for li, w in enumerate(group.W):
            assert w.shape[1:] == (group.layer_sizes[li], group.layer_sizes[li + 1])
    path = str(tmp_path / "sketch.npz")
    engine.save_npz(path)
    with np.load(path) as payload:
        assert payload["g0_W0"].shape == engine.groups[0].W[0].shape
    from repro.core.compiled import CompiledSketch

    again = CompiledSketch.load_npz(path, dtype="float32")
    assert np.array_equal(again.predict(Q), engine.predict(Q))


def test_stack_compile_pad_widths_passthrough():
    ns, Q, _ = make_sketch(seed=4, dim=2, height=3)
    base = ns.compile()
    rebuilt = base  # the estimator path compiles with padding on
    assert rebuilt.pad_widths
    off = base.with_dtype(base.dtype_name, pad_widths=False)
    assert not off.pad_widths
    assert normalized_max_abs_diff(off.predict(Q), base.predict(Q)) <= 1e-12


# ---------------------------------------------------------- fused schedule


@pytest.mark.parametrize("params", GRID, ids=["merged", "1d", "deep", "single"])
@pytest.mark.parametrize("tier", ["float64", "float32"])
def test_fused_schedule_matches_legacy_schedule(params, tier):
    ns, Q, rng = make_sketch(**params)
    fused = ns.compile().with_dtype(tier)
    assert fused.fused_schedule
    legacy = fused.with_dtype(tier, fused_schedule=False)
    # Skewed batches (squared uniforms pile onto low-coordinate leaves,
    # leaving others empty) and off-distribution rows exercise the
    # empty-leaf segments and the box-routing bounds. The two schedules
    # run the same per-segment gemms over differently-sliced arenas, so
    # answers agree to the tier's parity budget (last-ulp gemm wiggle).
    batches = [
        Q,
        rng.uniform(0.0, 1.0, size=(200, Q.shape[1])) ** 2,
        rng.uniform(-0.5, 1.5, size=(64, Q.shape[1])),
    ]
    for batch in batches:
        a, b = fused.predict(batch), legacy.predict(batch)
        assert a.shape == b.shape
        assert normalized_max_abs_diff(a, b) <= (1e-12 if tier == "float64" else 1e-6)


def test_small_batch_fast_path_agrees_with_scalar_kernel():
    ns, Q, _ = make_sketch(seed=0, dim=3, height=4, partitions=5)
    engine = ns.compile().with_dtype("float32")
    small = Q[: SMALL_BATCH_ROWS - 1]
    batch_answers = engine.predict(small)
    scalar_answers = np.array([engine.predict_one(q) for q in small])
    assert np.array_equal(batch_answers, scalar_answers.astype(batch_answers.dtype))


def test_batch_path_is_allocation_free_steady_state():
    """After warmup, repeated batch predicts must not grow the heap.

    The scratch arenas (routing buffers, sorted activations, schedule
    metadata) are preallocated and reused; only the returned answer
    array (m float64s) plus O(segments) bookkeeping may allocate per
    call. 50 calls with a 500-row batch move ~200KB through the kernel
    per call — retained growth must stay orders of magnitude below that.
    """
    ns, Q, rng = make_sketch(seed=0, dim=2, height=4, n=400)
    engine = ns.compile().with_dtype("float32")
    batch = rng.uniform(0.0, 1.0, size=(500, 2))
    out = engine.predict(batch)  # warm the arenas
    for _ in range(3):
        engine.predict(batch)
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    for _ in range(50):
        engine.predict(batch)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    retained = after - before
    # 50 returned 500-row float64 arrays alone would be 2MB if retained;
    # the arena contract keeps net growth to stray small objects.
    assert retained < 64 * 1024, f"batch path retained {retained} bytes over 50 calls"
    assert out.shape == (500,)


def test_fused_toggle_and_replicas_do_not_share_arenas():
    ns, Q, _ = make_sketch(seed=1, dim=2, height=3)
    fused = ns.compile().with_dtype("float32")
    legacy = fused.with_dtype("float32", fused_schedule=False)
    assert legacy is not fused and not legacy.fused_schedule
    # Interleaved calls on both engines: shared arenas would corrupt one
    # another's scratch state mid-sequence.
    a1 = fused.predict(Q)
    b1 = legacy.predict(Q)
    a2 = fused.predict(Q)
    assert np.array_equal(a1, a2) and np.array_equal(a1, b1)
