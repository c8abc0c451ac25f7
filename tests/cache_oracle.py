"""Reference oracle for :class:`repro.serve.cache.AnswerCache`.

The answer cache as it was when entries were Python objects: an
``OrderedDict`` from ``bytes`` keys to ``float`` answers, with a region scan
over joined key blocks. It defines the behaviour the flat-buffer cache must
keep — the same keys, answers, LRU order, hit/miss counts and region
evictions — and the differential tests drive both side by side.
"""

from __future__ import annotations

import itertools
import struct
import threading
from collections import OrderedDict

import numpy as np

_MISS = object()

#: Quantized components must stay well inside int64: packing a rounded
#: component into a fixed-width key must never wrap or fail, or two
#: distinct queries could share a key and serve each other's answers.
#: Components past this bound (or non-finite ones) fall back to
#: exact-bytes keys instead.
_QUANT_LIMIT = 2**62

#: Keys per block of a region scan (see ``OrderedDictCache.invalidate_region``):
#: the scan's transient memory is one block's byte matrix, whatever the
#: cache holds.
_SCAN_CHUNK = 4_096


def _in_any_box(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of the ``(n, d)`` points inside at least one ``(k, d)`` closed box."""
    inside = np.zeros(points.shape[0], dtype=bool)
    for box_lo, box_hi in zip(lo, hi):
        inside |= np.all((points >= box_lo) & (points <= box_hi), axis=1)
    return inside


class OrderedDictCache:
    """LRU cache from (quantized) query vectors to answers, one ``OrderedDict``.

    Parameters
    ----------
    resolution:
        Grid step used to quantize queries into keys. Queries that round to
        the same grid cell share an answer; larger values trade accuracy
        for hit rate.
    max_entries:
        LRU bound; the least recently used entry is evicted first.
    exact:
        Bypass quantization: keys are the raw float64 bytes, so only
        bit-identical queries hit (no quantization error, lower hit rate).
    """

    def __init__(
        self,
        resolution: float = 1e-4,
        max_entries: int = 65_536,
        exact: bool = False,
    ) -> None:
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.resolution = float(resolution)
        self.max_entries = int(max_entries)
        self.exact = bool(exact)
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._lock = threading.Lock()
        self._data: OrderedDict[bytes, float] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def key(self, q: np.ndarray, namespace: bytes = b"") -> bytes:
        """The cache key of a query vector.

        ``namespace`` partitions a cache shared between sketches: the same
        query against different sketches has different answers, so the
        serving layer prefixes keys with the sketch name.
        """
        return self._keys(np.asarray(q, dtype=np.float64).reshape(1, -1), namespace)[0]

    def _keys(self, Q: np.ndarray, namespace: bytes) -> list[bytes]:
        """The keys of the rows of an ``(m, d)`` float64 array.

        Plain float arithmetic: on query-sized rows it costs about half a
        chain of small NumPy calls, and ``round(x / resolution)`` rounds
        half to even exactly as ``np.round`` does.
        """
        d = Q.shape[1]
        as_ints, as_floats = f"={d}q", f"={d}d"
        keys = []
        for row in Q.tolist():
            if not self.exact:
                try:
                    ints = [round(x / self.resolution) for x in row]
                except (OverflowError, ValueError):  # an infinite or NaN component
                    ints = None
                if ints is not None and all(-_QUANT_LIMIT < i < _QUANT_LIMIT for i in ints):
                    keys.append(namespace + b"q" + struct.pack(as_ints, *ints))
                    continue
            # The mode byte keeps the two key spaces disjoint: an exact-bytes
            # fallback key can never alias a quantized key of the same length.
            keys.append(namespace + b"x" + struct.pack(as_floats, *row))
        return keys

    def get(self, q: np.ndarray, namespace: bytes = b"") -> float | None:
        """Cached answer, or ``None`` on a miss (counts either way)."""
        key = self.key(q, namespace)
        with self._lock:
            value = self._data.get(key, _MISS)
            if value is _MISS:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, q: np.ndarray, answer: float, namespace: bytes = b"") -> None:
        self.put_many(np.reshape(q, (1, -1)), (answer,), namespace)

    def put_many(self, Q: np.ndarray, answers: np.ndarray, namespace: bytes = b"") -> None:
        """Store one answer per row of ``Q`` under a single lock hold."""
        keys = self._keys(np.asarray(Q, dtype=np.float64), namespace)
        with self._lock:
            for key, answer in zip(keys, answers):
                self._data[key] = float(answer)
                self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.invalidations = 0

    def items(self) -> list[tuple[bytes, float]]:
        """Every ``(key, answer)`` pair, least recently used first."""
        with self._lock:
            return list(self._data.items())

    def keys(self):
        return (key for key, _ in self.items())

    def invalidate_region(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        namespace: bytes = b"",
        dim: int | None = None,
    ) -> int:
        """Evict every entry whose query may fall inside the given boxes.

        ``lo``/``hi`` are ``(k, d)`` (or ``(d,)``) arrays of query-space
        boxes — in the streaming path, the bounding boxes of the kd-tree
        leaves a data mutation dirtied. Eviction is *conservative over the
        quantized grid*: a quantized key stands for its whole grid cell
        (half a ``resolution`` step each way), so any cell that intersects
        a box goes, which is exactly what makes a query straddling a dirty
        leaf boundary miss afterwards. Exact-bytes keys are compared as
        points. Only entries under ``namespace`` whose dimensionality
        matches the boxes are touched (a shared cache holds other sketches'
        keys too — and, under the empty namespace, other widths' keys).
        Returns the eviction count; ``stats()["invalidations"]`` accumulates
        it.
        """
        lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_2d(np.asarray(hi, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 2:
            raise ValueError("lo and hi must be matching (k, d) box arrays")
        if dim is None:
            dim = lo.shape[1]
        elif dim != lo.shape[1]:
            raise ValueError(f"boxes have dim {lo.shape[1]}, expected {dim}")
        if lo.shape[0] == 0:
            return 0
        nslen = len(namespace)
        keylen = nslen + 1 + 8 * dim
        ns = np.frombuffer(namespace, dtype=np.uint8)
        # A quantized key stands for its grid cell: widen the boxes by
        # half a step. Exact-bytes keys are points.
        half = 0.5 * self.resolution
        with self._lock:
            # Same-length keys go in blocks of _SCAN_CHUNK: each block is
            # joined into a byte matrix, so the namespace, mode and point of
            # every key in it are array columns and each box is tested
            # against the whole block at once. Doomed keys are deleted after
            # the scan, under the same lock hold.
            same_length = (key for key in self._data if len(key) == keylen)
            doomed_keys: list[bytes] = []
            while True:
                keys = list(itertools.islice(same_length, _SCAN_CHUNK))
                if not keys:
                    break
                raw = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), keylen)
                ours = np.all(raw[:, :nslen] == ns, axis=1)
                body = raw[:, nslen + 1 :]
                mode = raw[:, nslen]
                quant = ours & (mode == ord("q"))
                exact = ours & (mode == ord("x"))
                doomed = np.zeros(len(keys), dtype=bool)
                doomed[quant] = _in_any_box(
                    body[quant].view(np.int64) * self.resolution, lo - half, hi + half
                )
                doomed[exact] = _in_any_box(body[exact].view(np.float64), lo, hi)
                doomed_keys.extend(keys[i] for i in np.flatnonzero(doomed))
            for key in doomed_keys:
                del self._data[key]
            self.invalidations += len(doomed_keys)
            return len(doomed_keys)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "resolution": self.resolution,
                "exact": self.exact,
                "max_entries": self.max_entries,
            }
