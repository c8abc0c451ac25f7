"""Answer cache keyed on quantized query vectors.

Range aggregate answers are smooth in the query vector (that is what makes
NeuroSketch work), so two queries that agree to within a small grid step get
the same cached answer. The cache key is the query snapped to a uniform
grid of configurable ``resolution``; ``exact=True`` bypasses quantization
and keys on the raw float64 bytes instead, so only bit-identical repeats
hit. Entries are LRU-bounded and all operations are thread-safe.

Entries are fixed-width records in flat buffers, not Python objects: a
key-length block holds the bytes of every key of one length in a single
``bytearray``, and per-entry *slots* hold the answer, the key's hash, its
block row and its exact-LRU ``prev``/``next`` links in typed arrays. An
open-addressing ``int32`` index maps ``hash(key)`` to a slot with linear
probing and backward-shift deletion (no tombstones). Every buffer grows by
doubling up to ``max_entries``, so a full default cache of 10-d queries
holds ~8 MB where an ``OrderedDict`` of ``bytes`` keys and ``float``
answers held ~14 MB traced and more resident once churned.
"""

from __future__ import annotations

import functools
import struct
import threading
from array import array
from collections.abc import Iterator

import numpy as np

#: Quantized components must stay well inside int64: packing a rounded
#: component into a fixed-width key must never wrap or fail, or two
#: distinct queries could share a key and serve each other's answers.
#: Components past this bound (or non-finite ones) fall back to
#: exact-bytes keys instead.
_QUANT_LIMIT = 2**62

#: Blocks of at least this many rows compute their keys in one NumPy pass;
#: fewer go row by row. Per call on 10-d rows, 2-core Xeon: 3 rows 10 us by
#: row against 12 us as a block, 4 rows 22 against 20 us, 9 rows (a server
#: block) 49 against 22 us.
_VECTOR_ROWS = 4

#: Box-by-key mask cells a region scan holds at once: over ``n`` keys, boxes
#: are tested in groups of ``_SCAN_CELLS // n`` (16 over 65,536 keys).
#: Reading a key column is a strided pass over the whole buffer, so a group
#: reads each column once; reading it once per box made a 64-box scan ~10x
#: slower.
_SCAN_CELLS = 1 << 20

#: Slots (and block rows) a fresh cache or key-length block starts with;
#: buffers double from here up to ``max_entries``.
_MIN_SLOTS = 64

#: Resident bytes per entry besides its key bytes, at full capacity: the
#: answer and hash (8 B each), the block row, key length and two LRU links
#: (4 B each), the block's row-to-slot entry (4 B) and two ``int32`` index
#: buckets (the index stays at most half full).
SLOT_OVERHEAD_BYTES = 8 + 8 + 4 * 4 + 4 + 2 * 4


@functools.cache
def _packers(d: int) -> tuple:
    """Packers of ``d`` native int64s and of ``d`` native float64s."""
    return struct.Struct(f"={d}q").pack, struct.Struct(f"={d}d").pack


def _zeros(typecode: str, n: int) -> array:
    # Repetition allocates exactly n items; frombytes/extend over-allocate.
    return array(typecode, [0]) * n


def _fit(buf: bytearray | array, n: int) -> None:
    """Resize a non-empty buffer in place to ``n`` items.

    In-place repetition and deletion resize through ``realloc``, which moves
    a large block's pages rather than copying them, so growing never holds
    the old and the new buffer at once (the server's peak RSS would keep
    that transient). Grown items repeat earlier ones; callers write an item
    before reading it.
    """
    while len(buf) < n:
        buf *= 2
    del buf[n:]


def _in_any_box(
    points: np.ndarray, lo: np.ndarray, hi: np.ndarray, scale: float | None = None
) -> np.ndarray:
    """Mask of the ``(n, d)`` points inside at least one ``(k, d)`` closed box.

    ``points`` may be a strided view of the key bytes; it is read one
    column at a time (times ``scale`` when given), once per group of boxes.
    A group's ``(group, n)`` mask has at most ``_SCAN_CELLS`` cells, so the
    transients stay bounded whatever ``k`` and ``d`` are.
    """
    n, d = points.shape
    step = max(1, _SCAN_CELLS // max(n, 1))
    inside = np.zeros(n, dtype=bool)
    for b0 in range(0, lo.shape[0], step):
        group_lo, group_hi = lo[b0 : b0 + step], hi[b0 : b0 + step]
        acc = np.ones((group_lo.shape[0], n), dtype=bool)
        for j in range(d):
            x = points[:, j] if scale is None else points[:, j] * scale
            for b in range(group_lo.shape[0]):
                acc[b] &= (x >= group_lo[b, j]) & (x <= group_hi[b, j])
        inside |= acc.any(axis=0)
    return inside


class _KeyBlock:
    """The bytes of every cached key of one length, row by row.

    Rows ``[0, n)`` are live and dense (a deleted row is filled from the
    last one), so ``keys[: n * width]`` reads as an ``(n, width)`` matrix;
    ``slots[r]`` is the cache slot that owns row ``r``.
    """

    __slots__ = ("width", "keys", "slots", "n")

    def __init__(self, width: int, rows: int) -> None:
        self.width = width
        self.keys = bytearray(rows * width)
        self.slots = _zeros("i", rows)
        self.n = 0

    def resize(self, rows: int) -> None:
        _fit(self.keys, rows * self.width)
        _fit(self.slots, rows)

    def nbytes(self) -> int:
        return len(self.keys) + 4 * len(self.slots)


class AnswerCache:
    """LRU cache from (quantized) query vectors to answers.

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
        self._reset()

    def _reset(self) -> None:
        """Empty buffers at the starting capacity (caller holds the lock)."""
        cap = min(self.max_entries, _MIN_SLOTS)
        self._n = 0  # live entries
        self._used = 0  # slots handed out at least once
        self._free = -1  # freed slots, chained through _next
        self._head = -1  # least recently used slot
        self._tail = -1  # most recently used slot
        self._answer = _zeros("d", cap)
        self._hash = _zeros("q", cap)
        self._row = _zeros("i", cap)
        self._klen = _zeros("i", cap)
        self._prev = _zeros("i", cap)
        self._next = _zeros("i", cap)
        self._blocks: dict[int, _KeyBlock] = {}
        self._set_index(2 * cap)

    def __len__(self) -> int:
        return self._n

    def key(self, q: np.ndarray, namespace: bytes = b"") -> bytes:
        """The cache key of a query vector.

        ``namespace`` partitions a cache shared between sketches: the same
        query against different sketches has different answers, so the
        serving layer prefixes keys with the sketch name.
        """
        return self._keys(np.asarray(q, dtype=np.float64).reshape(1, -1), namespace)[0]

    def _keys(self, Q: np.ndarray, namespace: bytes) -> list[bytes]:
        """The keys of the rows of an ``(m, d)`` float64 array.

        A few rows go through plain float arithmetic: on query-sized rows it
        costs about half a chain of small NumPy calls, and
        ``round(x / resolution)`` rounds half to even exactly as
        ``np.round`` does. Larger blocks quantize in one NumPy pass and
        slice each key out of the packed bytes.
        """
        m, d = Q.shape
        qpre, xpre = namespace + b"q", namespace + b"x"
        if m >= _VECTOR_ROWS:
            return self._block_keys(Q, qpre, xpre)
        res = self.resolution
        pack_ints, pack_floats = _packers(d)
        keys = []
        for row in Q.tolist():
            if not self.exact:
                try:
                    ints = [round(x / res) for x in row]
                except (OverflowError, ValueError):  # an infinite or NaN component
                    ints = None
                if (
                    ints is not None
                    and -_QUANT_LIMIT < min(ints, default=0)
                    and max(ints, default=0) < _QUANT_LIMIT
                ):
                    keys.append(qpre + pack_ints(*ints))
                    continue
            # The mode byte keeps the two key spaces disjoint: an exact-bytes
            # fallback key can never alias a quantized key of the same length.
            keys.append(xpre + pack_floats(*row))
        return keys

    def _block_keys(self, Q: np.ndarray, qpre: bytes, xpre: bytes) -> list[bytes]:
        """:meth:`_keys` for a block: the same bytes, from packed arrays."""
        m, d = Q.shape
        w = 8 * d
        floats = np.ascontiguousarray(Q).tobytes()
        if self.exact:
            return [xpre + floats[i : i + w] for i in range(0, m * w, w)]
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.round(Q / self.resolution)
        # NaN and infinite cells compare False, so they fall back too.
        fits = np.all(np.abs(grid) < float(_QUANT_LIMIT), axis=1)
        ints = np.where(fits[:, None], grid, 0.0).astype(np.int64).tobytes()
        return [
            qpre + ints[i : i + w] if ok else xpre + floats[i : i + w]
            for i, ok in zip(range(0, m * w, w), fits.tolist())
        ]

    # ------------------------------------------------------------ public API

    def get(self, q: np.ndarray, namespace: bytes = b"") -> float | None:
        """Cached answer, or ``None`` on a miss (counts either way)."""
        key = self.key(q, namespace)
        with self._lock:
            s = self._find(key, hash(key))
            if s < 0:
                self.misses += 1
                return None
            if s != self._tail:
                self._unlink(s)
                self._link_tail(s)
            self.hits += 1
            return self._answer[s]

    def put(self, q: np.ndarray, answer: float, namespace: bytes = b"") -> None:
        self.put_many(np.reshape(q, (1, -1)), (answer,), namespace)

    def put_many(self, Q: np.ndarray, answers: np.ndarray, namespace: bytes = b"") -> None:
        """Store one answer per row of ``Q`` under a single lock hold."""
        keys = self._keys(np.asarray(Q, dtype=np.float64), namespace)
        with self._lock:
            for key, answer in zip(keys, answers):
                h = hash(key)
                s = self._find(key, h)
                if s < 0:
                    s = self._insert(key, h)
                elif s != self._tail:
                    self._unlink(s)
                    self._link_tail(s)
                self._answer[s] = float(answer)

    def clear(self) -> None:
        with self._lock:
            self._reset()
            self.hits = 0
            self.misses = 0
            self.invalidations = 0

    def items(self) -> list[tuple[bytes, float]]:
        """Every ``(key, answer)`` pair, least recently used first.

        A snapshot taken under the lock; reading it neither counts as a
        hit nor refreshes any entry.
        """
        with self._lock:
            out = []
            s = self._head
            while s >= 0:
                out.append((self._key_bytes(s), self._answer[s]))
                s = self._next[s]
            return out

    def keys(self) -> Iterator[bytes]:
        """The cached keys, least recently used first (see :meth:`items`)."""
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
        keylen = len(namespace) + 1 + 8 * dim
        with self._lock:
            block = self._blocks.get(keylen)
            if block is None:
                return 0
            rows = self._rows_in_region(block, namespace, lo, hi)
            doomed = [block.slots[r] for r in rows.tolist()]
            for s in doomed:
                self._delete(s)
            self.invalidations += len(doomed)
            return len(doomed)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": self._n,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "resolution": self.resolution,
                "exact": self.exact,
                "max_entries": self.max_entries,
                "bytes": self._nbytes(),
            }

    # -------------------------------------------------------------- internals
    # Everything below runs under ``self._lock``.

    def _rows_in_region(
        self, block: _KeyBlock, namespace: bytes, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Rows of ``block`` whose keys fall under ``namespace`` and inside
        the boxes.

        Reads the block's buffer through a zero-copy ``(n, width)`` view:
        the namespace, mode and point of every key are array columns. The
        view pins the ``bytearray`` (it cannot be resized while exported),
        so it must not outlive this call.
        """
        nslen, width = len(namespace), block.width
        raw = np.frombuffer(block.keys, dtype=np.uint8, count=block.n * width)
        raw = raw.reshape(block.n, width)
        ours = np.all(raw[:, :nslen] == np.frombuffer(namespace, dtype=np.uint8), axis=1)
        quant = ours & (raw[:, nslen] == ord("q"))
        exact = ours & (raw[:, nslen] == ord("x"))
        body = raw[:, nslen + 1 :]
        doomed = np.zeros(block.n, dtype=bool)
        if quant.any():
            # A quantized key stands for its grid cell: widen the boxes by
            # half a step.
            half = 0.5 * self.resolution
            doomed |= quant & _in_any_box(
                body.view(np.int64), lo - half, hi + half, self.resolution
            )
        if exact.any():
            # Exact-bytes keys are points.
            doomed |= exact & _in_any_box(body.view(np.float64), lo, hi)
        return np.flatnonzero(doomed)

    def _set_index(self, size: int) -> None:
        """A fresh index of ``size`` (a power of two) buckets over the live slots."""
        size = 1 << max(size - 1, 1).bit_length()
        self._index = array("i", [-1]) * size
        self._mask = size - 1
        s = self._head
        while s >= 0:
            self._index_slot(s)
            s = self._next[s]

    def _find(self, key: bytes, h: int) -> int:
        """The slot holding ``key`` (whose hash is ``h``), or -1."""
        index, hashes, mask = self._index, self._hash, self._mask
        width = len(key)
        i = h & mask
        s = index[i]
        while s >= 0:
            if hashes[s] == h and self._klen[s] == width:
                at = self._row[s] * width
                if self._blocks[width].keys[at : at + width] == key:
                    return s
            i = (i + 1) & mask
            s = index[i]
        return -1

    def _index_slot(self, s: int) -> None:
        index, mask = self._index, self._mask
        i = self._hash[s] & mask
        while index[i] >= 0:
            i = (i + 1) & mask
        index[i] = s

    def _unindex_slot(self, s: int) -> None:
        """Remove slot ``s`` from the index by backward-shift deletion: each
        later entry of the probe run moves into the hole unless the hole
        lies before its home bucket (cyclically), so no tombstones remain."""
        index, hashes, mask = self._index, self._hash, self._mask
        i = hashes[s] & mask
        while index[i] != s:
            i = (i + 1) & mask
        j = (i + 1) & mask
        t = index[j]
        while t >= 0:
            # t moves into the hole unless its home lies after the hole.
            if (j - (hashes[t] & mask)) & mask >= (j - i) & mask:
                index[i] = t
                i = j
            j = (j + 1) & mask
            t = index[j]
        index[i] = -1

    def _unlink(self, s: int) -> None:
        p, n = self._prev[s], self._next[s]
        if p >= 0:
            self._next[p] = n
        else:
            self._head = n
        if n >= 0:
            self._prev[n] = p
        else:
            self._tail = p

    def _link_tail(self, s: int) -> None:
        t = self._tail
        self._prev[s] = t
        self._next[s] = -1
        if t >= 0:
            self._next[t] = s
        else:
            self._head = s
        self._tail = s

    def _insert(self, key: bytes, h: int) -> int:
        """A slot for a new key, evicting the least recently used entry when
        the cache is full; the slot is linked, indexed and holds the key."""
        width = len(key)
        if self._n == self.max_entries:
            s = self._head
            self._unindex_slot(s)
            self._unlink(s)
            if self._klen[s] == width:
                # Same key length: overwrite the evicted key's row in place.
                at = self._row[s] * width
                self._blocks[width].keys[at : at + width] = key
            else:
                self._remove_row(s)
                self._add_row(s, key)
        else:
            s = self._free
            if s >= 0:
                self._free = self._next[s]
            else:
                if self._used == len(self._answer):
                    self._grow()
                s = self._used
                self._used += 1
            self._n += 1
            self._add_row(s, key)
        self._link_tail(s)
        self._hash[s] = h
        self._klen[s] = width
        self._index_slot(s)
        return s

    def _delete(self, s: int) -> None:
        self._unindex_slot(s)
        self._unlink(s)
        self._remove_row(s)
        self._next[s] = self._free
        self._free = s
        self._n -= 1

    def _add_row(self, s: int, key: bytes) -> None:
        width = len(key)
        block = self._blocks.get(width)
        if block is None:
            block = self._blocks[width] = _KeyBlock(width, min(self.max_entries, _MIN_SLOTS))
        r = block.n
        if r == len(block.slots):
            block.resize(min(2 * r, self.max_entries))
        block.keys[r * width : (r + 1) * width] = key
        block.slots[r] = s
        block.n = r + 1
        self._row[s] = r

    def _remove_row(self, s: int) -> None:
        """Drop slot ``s``'s key from its block, moving the last row into
        the hole; an emptied block goes."""
        width = self._klen[s]
        block = self._blocks[width]
        r, last = self._row[s], block.n - 1
        if r != last:
            moved = block.slots[last]
            block.keys[r * width : (r + 1) * width] = block.keys[
                last * width : (last + 1) * width
            ]
            block.slots[r] = moved
            self._row[moved] = r
        block.n = last
        if last == 0:
            del self._blocks[width]

    def _grow(self) -> None:
        """Double the slot arrays (up to ``max_entries``); the index doubles
        with them so it stays at most half full."""
        cap = min(2 * len(self._answer), self.max_entries)
        for arr in (self._answer, self._hash, self._row, self._klen, self._prev, self._next):
            _fit(arr, cap)
        if 2 * cap > len(self._index):
            self._set_index(2 * cap)

    def _key_bytes(self, s: int) -> bytes:
        width = self._klen[s]
        at = self._row[s] * width
        return bytes(self._blocks[width].keys[at : at + width])

    def _nbytes(self) -> int:
        slot_arrays = (self._answer, self._hash, self._row, self._klen, self._prev, self._next)
        return (
            sum(a.itemsize * len(a) for a in slot_arrays)
            + self._index.itemsize * len(self._index)
            + sum(block.nbytes() for block in self._blocks.values())
        )
