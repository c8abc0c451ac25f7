"""The flat-buffer answer cache: differential checks against the
``OrderedDict`` reference (``tests/cache_oracle.py``) and its memory bounds."""

import tracemalloc

import numpy as np
import pytest
from cache_oracle import OrderedDictCache

from repro.serve import AnswerCache, SketchService
from repro.serve.cache import SLOT_OVERHEAD_BYTES

NAMESPACES = (b"", b"a\x00", b"bb\x00")
WIDTHS = (1, 2, 3)


def _query_pool(rng, d, n):
    """Queries of width ``d``: in-range rows, near-duplicates that share a
    grid cell, and rows that fall back to exact-bytes keys."""
    Q = rng.uniform(0.0, 1.0, size=(n, d))
    Q[: n // 4] = Q[n // 4 : 2 * (n // 4)] + 1e-3  # same cell, other bytes
    Q[-1, 0] = 3e18  # quantized overflow
    Q[-2, 0] = np.inf
    Q[-3, 0] = np.nan
    return Q


def _random_boxes(rng, d):
    k = int(rng.integers(0, 4))
    a, b = rng.uniform(-0.1, 1.1, size=(2, k, d))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if k and rng.random() < 0.3:
        lo[0, 0], hi[0, 0] = -np.inf, np.inf  # an unconstrained side
    return lo, hi


def _same(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert got == want


@pytest.mark.parametrize("max_entries", [1, 3, 17, 150])
@pytest.mark.parametrize("exact", [False, True])
def test_matches_the_ordered_dict_oracle(max_entries, exact):
    """Random put_many/put/get/invalidate_region/clear sequences over mixed
    namespaces, widths and key modes give identical answers, counters,
    lengths and LRU order; 150 entries cross a doubling of every buffer."""
    rng = np.random.default_rng(max_entries * 2 + exact)
    new = AnswerCache(resolution=0.05, max_entries=max_entries, exact=exact)
    ref = OrderedDictCache(resolution=0.05, max_entries=max_entries, exact=exact)
    pools = {d: _query_pool(rng, d, 120) for d in WIDTHS}
    for step in range(3_000):
        ns = NAMESPACES[rng.integers(len(NAMESPACES))]
        d = WIDTHS[rng.integers(len(WIDTHS))]
        pool = pools[d]
        op = rng.random()
        if op < 0.4:
            Q = pool[rng.integers(len(pool), size=int(rng.integers(1, 9)))]
            answers = rng.normal(size=len(Q))
            new.put_many(Q, answers, ns)
            ref.put_many(Q, answers, ns)
        elif op < 0.45:
            q, a = pool[rng.integers(len(pool))], float(rng.normal())
            new.put(q, a, ns)
            ref.put(q, a, ns)
        elif op < 0.9:
            q = pool[rng.integers(len(pool))]
            _same(new.get(q, ns), ref.get(q, ns))
        elif op < 0.995:
            lo, hi = _random_boxes(rng, d)
            assert new.invalidate_region(lo, hi, ns) == ref.invalidate_region(lo, hi, ns)
        else:
            new.clear()
            ref.clear()
        assert len(new) == len(ref)
        if step % 50 == 0:
            assert new.items() == ref.items()
    assert new.items() == ref.items()
    got, want = new.stats(), ref.stats()
    assert got.pop("bytes") > 0
    assert got == want


def test_region_scan_after_churn_matches_the_oracle():
    """A full cache churned past its capacity and then invalidated in bulk
    evicts what the reference evicts and keeps the survivors' order."""
    rng = np.random.default_rng(5)
    new, ref = AnswerCache(max_entries=2_000), OrderedDictCache(max_entries=2_000)
    for _ in range(6):
        Q = rng.uniform(0.0, 1.0, size=(700, 4))
        for cache in (new, ref):
            cache.put_many(Q, Q.sum(axis=1), b"s\x00")
            cache.put_many(Q[:, :3], Q[:, 0], b"s\x00")
    lo, hi = np.zeros((2, 4)), np.full((2, 4), 0.6)
    hi[1, :2] = np.inf
    assert new.invalidate_region(lo, hi, b"s\x00") == ref.invalidate_region(lo, hi, b"s\x00")
    assert new.items() == ref.items()


def test_keys_and_items_neither_count_nor_refresh():
    cache = AnswerCache(resolution=0.01, max_entries=2)
    cache.put(np.array([0.1]), 1.0)
    cache.put(np.array([0.2]), 2.0)
    assert list(cache.keys()) == [cache.key(np.array([0.1])), cache.key(np.array([0.2]))]
    assert [a for _, a in cache.items()] == [1.0, 2.0]
    assert cache.hits == cache.misses == 0
    cache.put(np.array([0.3]), 3.0)  # the oldest entry still goes first
    assert cache.get(np.array([0.1])) is None


def test_default_cache_of_ten_wide_queries_holds_at_most_9_mb():
    """65,536 ten-wide entries, filled and then churned once over, stay
    under 9 MB traced (an OrderedDict of bytes keys held ~14 MB)."""
    rng = np.random.default_rng(23)
    Q1, Q2 = rng.uniform(0.0, 1.0, size=(2, 65_536, 10))
    tracemalloc.start()
    try:
        cache = AnswerCache()
        for Q in (Q1, Q2):
            for block in np.array_split(Q, 64):
                cache.put_many(block, block.sum(axis=1))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cache) == cache.max_entries
    assert held <= 9 * 2**20, f"cache holds {held} bytes"


def test_stats_bytes_grows_with_entries_within_the_per_entry_bound():
    """``stats()["bytes"]`` counts the resident buffers: it grows with the
    entries, never exceeds (key bytes + SLOT_OVERHEAD_BYTES) per entry at
    capacity, and falls again when a region scan empties most of it."""
    rng = np.random.default_rng(29)
    cache = AnswerCache(max_entries=4_096)
    keylen = 1 + 8 * 10
    bound = (keylen + SLOT_OVERHEAD_BYTES) * cache.max_entries
    seen = [cache.stats()["bytes"]]
    for _ in range(16):
        Q = rng.uniform(0.0, 1.0, size=(512, 10))
        cache.put_many(Q, Q[:, 0])
        seen.append(cache.stats()["bytes"])
        assert seen[-1] <= bound
    assert seen == sorted(seen) and seen[-1] > seen[0]
    assert len(cache) == cache.max_entries
    assert seen[-1] == bound  # every buffer at capacity
    cache.invalidate_region(np.zeros(10), np.ones(10))
    assert len(cache) == 0 and cache.stats()["bytes"] < seen[-1] // 2


def test_service_stats_frame_reports_cache_bytes():
    class SumSketch:
        def predict(self, Q):
            return np.atleast_2d(Q).sum(axis=1)

    with SketchService() as svc:
        svc.register("sum", SumSketch())
        before = svc.stats()["cache"]["bytes"]
        svc.ask_many(np.random.default_rng(31).uniform(size=(200, 3)))
        assert svc.stats()["cache"]["bytes"] > before
