"""Zero-copy shared-memory weights for multi-process serving.

The sharding router (:mod:`repro.serve.router`) spawns one worker process
per shard, and before this module each worker loaded its *own* copy of
the canonical weight tensors from the ``.npz`` spill — N processes, N
copies of the model. Here the router publishes the tensors **once** into
POSIX shared memory (:mod:`multiprocessing.shared_memory`) and hands
workers a ``shm://<name>`` URI instead of a file path; each worker maps
the block read-only and builds its engine directly over the mapped
arrays. Resident weight memory for N workers drops from N x weights to
~1x, and worker boot skips even the ``.npz`` parse (attach is a single
``shm_open`` + header decode).

Layout
------
Two blocks per published sketch:

``<base>`` (pointer block, :data:`POINTER_BLOCK_SIZE` bytes)
    ``[u32 length][json]`` where the JSON names the current epoch and its
    data block. Rewritten on :meth:`ShmPublisher.republish` — length is
    zeroed first and written last, so a reader never parses a torn
    payload (single writer, retrying readers).

``<base>-e<epoch>`` (data block)
    ``[u64 header_length][json header][64-byte-aligned arrays]``. The
    header records dtype/input_dim/n_groups plus name, dtype, shape and
    byte offset for every array. Arrays are the exact
    :meth:`~repro.core.compiled.CompiledSketch.npz_payload` set (canonical
    float64 weights, tree, leaf maps) **plus** the fused execution-plan
    tensors of the publisher's serving tier (``g{i}_plan{j}``) so an
    attaching worker on the same tier adopts the serving weights
    themselves zero-copy instead of re-lowering private copies.

Epoch republish
---------------
A streaming hot-swap (:meth:`repro.stream.sketch.StreamingSketch` retrain
-> ``swap_from``) publishes the *new* engine into a fresh
``<base>-e<epoch+1>`` block, flips the pointer block, then unlinks the old
data block. POSIX keeps unlinked memory alive while mapped, so workers
still serving the old epoch are untouched; any worker that (re)attaches —
respawn after a crash, or an explicit :func:`attach_sketch` refresh —
resolves the pointer atomically and maps the new epoch. Readers never
observe a mixed state: the pointer flip is the only coupling.

Fallback
--------
Everything here is best-effort: :func:`publish_artifact` returns ``None``
when shared memory is unavailable (no ``/dev/shm``), when the artifact is
a mutable stream bundle (workers need the full bundle to retrain), or
when anything at all goes wrong — callers fall back to the ``.npz``
copy-on-boot path unchanged.
"""

from __future__ import annotations

import json
import secrets
import struct

import numpy as np

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]
    resource_tracker = None  # type: ignore[assignment]

#: Fixed size of the pointer block; the JSON pointer payload is tiny.
POINTER_BLOCK_SIZE = 4096

#: Array data starts on cache-line boundaries inside the data block.
ALIGN = 64

_PTR_FORMAT = "compiled-sketch-shm-ptr-v1"
_DATA_FORMAT = "compiled-sketch-shm-v1"

#: Attached blocks, keyed by shm name. numpy views keep the underlying
#: mmap alive through exported buffers, but holding the ``SharedMemory``
#: objects here makes the lifetime explicit and close() deterministic.
_ATTACHED: dict[str, object] = {}


def is_shm_uri(path: str) -> bool:
    """Whether ``path`` is a ``shm://`` weight-block URI."""
    return isinstance(path, str) and path.startswith("shm://")


def shm_available() -> bool:
    """Whether POSIX shared memory works on this platform."""
    if shared_memory is None:
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=16)
    except (OSError, ValueError):
        return False
    probe.close()
    probe.unlink()
    return True


def _unregister(name: str) -> None:
    """Detach ``name`` from this process's resource tracker.

    Python < 3.13 registers every opened block with the tracker, which
    then *unlinks* it when the attaching process exits — yanking the
    weights out from under every other worker. Attach-side mappings must
    therefore unregister; the publishing process stays registered so a
    crashed publisher still gets cleaned up.
    """
    if resource_tracker is None:
        return
    try:
        resource_tracker.unregister(f"/{name.lstrip('/')}", "shared_memory")
    except Exception:
        pass


def _aligned(offset: int) -> int:
    return -(-offset // ALIGN) * ALIGN


def _write_block(name: str, meta: dict, arrays: dict[str, np.ndarray]):
    """Create ``name`` holding ``meta`` + ``arrays`` (see module doc)."""
    manifest = []
    offset = 0  # relative to the start of the array region
    contig = {}
    for key, arr in arrays.items():
        a = np.ascontiguousarray(arr)
        contig[key] = a
        offset = _aligned(offset)
        manifest.append(
            {"name": key, "dtype": str(a.dtype), "shape": list(a.shape), "offset": offset}
        )
        offset += a.nbytes
    header = dict(meta)
    header["arrays"] = manifest
    header_bytes = json.dumps(header).encode("utf-8")
    base = _aligned(8 + len(header_bytes))
    shm = shared_memory.SharedMemory(create=True, size=max(base + offset, 16), name=name)
    try:
        struct.pack_into("<Q", shm.buf, 0, len(header_bytes))
        shm.buf[8 : 8 + len(header_bytes)] = header_bytes
        for entry in manifest:
            a = contig[entry["name"]]
            view = np.ndarray(
                a.shape, dtype=a.dtype, buffer=shm.buf, offset=base + entry["offset"]
            )
            view[...] = a
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    return shm


def _read_block(shm) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode a data block into its header and read-only array views."""
    (header_len,) = struct.unpack_from("<Q", shm.buf, 0)
    header = json.loads(bytes(shm.buf[8 : 8 + header_len]).decode("utf-8"))
    if header.get("format") != _DATA_FORMAT:
        raise ValueError(f"not a sketch shm block: format {header.get('format')!r}")
    base = _aligned(8 + header_len)
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        view = np.ndarray(
            tuple(entry["shape"]),
            dtype=np.dtype(entry["dtype"]),
            buffer=shm.buf,
            offset=base + entry["offset"],
        )
        view.flags.writeable = False
        arrays[entry["name"]] = view
    return header, arrays


def _write_pointer(shm, epoch: int, data_name: str) -> None:
    payload = json.dumps(
        {"format": _PTR_FORMAT, "epoch": int(epoch), "data": data_name}
    ).encode("utf-8")
    if 4 + len(payload) > POINTER_BLOCK_SIZE:
        raise ValueError("pointer payload exceeds the pointer block")
    # Zero the length first and write it last: a concurrent reader either
    # sees the old complete payload or spins until the new one is whole.
    struct.pack_into("<I", shm.buf, 0, 0)
    shm.buf[4 : 4 + len(payload)] = payload
    struct.pack_into("<I", shm.buf, 0, len(payload))


def _read_pointer(shm) -> dict:
    (length,) = struct.unpack_from("<I", shm.buf, 0)
    if length == 0 or length > POINTER_BLOCK_SIZE - 4:
        raise ValueError("shm pointer block is empty or torn")
    pointer = json.loads(bytes(shm.buf[4 : 4 + length]).decode("utf-8"))
    if pointer.get("format") != _PTR_FORMAT:
        raise ValueError(f"not a sketch shm pointer: {pointer.get('format')!r}")
    return pointer


def _sketch_blocks(engine) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta + array set a data block carries for ``engine``."""
    arrays = dict(engine.npz_payload())
    for gi, group in enumerate(engine.groups):
        group.ensure_plan()
        for li, plan in enumerate(group._A):
            arrays[f"g{gi}_plan{li}"] = plan
    meta = {
        "format": _DATA_FORMAT,
        "dtype": engine.dtype_name,
        "input_dim": engine.input_dim,
        "n_groups": len(engine.groups),
        "plan_dtype": engine.dtype_name,
        "plan_pad_widths": bool(engine.pad_widths),
    }
    return meta, arrays


class ShmPublisher:
    """Owns one published sketch: the pointer block plus the epoch blocks.

    Create through :func:`publish_sketch`. The publishing process keeps
    this object alive for the serving lifetime and calls :meth:`close`
    on shutdown to unlink the blocks (crash cleanup falls to the
    resource tracker, which stays registered on the publishing side).
    """

    def __init__(self, base: str, pointer, data, epoch: int, data_bytes: int) -> None:
        self.base = base
        self.epoch = int(epoch)
        self.data_bytes = int(data_bytes)
        self._pointer = pointer
        self._data = data
        self._closed = False

    @property
    def uri(self) -> str:
        return f"shm://{self.base}"

    def republish(self, engine) -> int:
        """Publish ``engine`` as the next epoch and flip the pointer.

        The old epoch's block is unlinked afterwards — workers that
        already mapped it keep serving it untouched (POSIX semantics);
        new attaches resolve the fresh epoch. Returns the new epoch.
        """
        if self._closed:
            raise ValueError("publisher is closed")
        meta, arrays = _sketch_blocks(engine)
        epoch = self.epoch + 1
        meta["epoch"] = epoch
        data = _write_block(f"{self.base}-e{epoch}", meta, arrays)
        _write_pointer(self._pointer, epoch, f"{self.base}-e{epoch}")
        old = self._data
        self._data = data
        self.epoch = epoch
        self.data_bytes = data.size
        old.close()
        try:
            old.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass
        return epoch

    def close(self) -> None:
        """Unlink both blocks; attached workers keep their mappings."""
        if self._closed:
            return
        self._closed = True
        for block in (self._data, self._pointer):
            block.close()
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def __enter__(self) -> "ShmPublisher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def publish_sketch(engine, base: str | None = None) -> ShmPublisher:
    """Publish a compiled engine's weights into shared memory.

    ``engine`` is a :class:`~repro.core.compiled.CompiledSketch` on the
    tier workers will serve (the fused plan tensors are published at this
    tier). Returns the owning :class:`ShmPublisher`; raises ``OSError``
    where shared memory is unavailable.
    """
    if shared_memory is None:
        raise OSError("multiprocessing.shared_memory is unavailable")
    base = base or f"repro-sketch-{secrets.token_hex(6)}"
    meta, arrays = _sketch_blocks(engine)
    meta["epoch"] = 0
    data = _write_block(f"{base}-e0", meta, arrays)
    try:
        pointer = shared_memory.SharedMemory(
            create=True, size=POINTER_BLOCK_SIZE, name=base
        )
    except BaseException:
        data.close()
        data.unlink()
        raise
    try:
        _write_pointer(pointer, 0, f"{base}-e0")
    except BaseException:
        pointer.close()
        pointer.unlink()
        data.close()
        data.unlink()
        raise
    return ShmPublisher(base, pointer, data, epoch=0, data_bytes=data.size)


def publish_artifact(sketch_path: str, dtype: str | None = None) -> ShmPublisher | None:
    """Best-effort publish of a sketch artifact for worker sharing.

    Loads ``sketch_path`` (any artifact format), re-tiers to ``dtype``
    when given, and publishes. Returns ``None`` — callers fall back to
    the per-worker ``.npz`` copy path — when the artifact is a mutable
    stream bundle, is not a compiled engine, or shared memory is
    unavailable.
    """
    try:
        from repro.core.compiled import CompiledSketch
        from repro.serve.service import load_sketch

        sketch = load_sketch(sketch_path, dtype=dtype)
        if not isinstance(sketch, CompiledSketch):
            return None
        return publish_sketch(sketch)
    except Exception:
        return None


def attach_sketch(uri: str, dtype: str | None = None):
    """Map a published weight block and build an engine over it.

    Resolves the ``shm://`` pointer to the current epoch's data block and
    rebuilds a :class:`~repro.core.compiled.CompiledSketch` whose
    canonical weight arrays are read-only views straight into the block
    (``np.ascontiguousarray`` on an aligned, contiguous view is a no-op,
    so nothing is copied). When the requested tier matches the published
    plan tier, the fused execution-plan tensors are adopted zero-copy
    too — the worker's private memory is then just scratch arenas.

    The returned sketch carries ``shm_uri`` / ``shm_epoch`` /
    ``shm_bytes`` attributes for stats surfaces.
    """
    if shared_memory is None:
        raise OSError("multiprocessing.shared_memory is unavailable")
    if not is_shm_uri(uri):
        raise ValueError(f"not a shm:// uri: {uri!r}")
    from repro.core.compiled import CompiledSketch

    base = uri[len("shm://") :]
    # A republish between the pointer read and the data open can unlink
    # the block we resolved; re-resolve and retry (single writer, so this
    # settles immediately).
    for attempt in range(8):
        pointer = shared_memory.SharedMemory(name=base)
        _unregister(base)
        try:
            ptr = _read_pointer(pointer)
        finally:
            pointer.close()
        data_name = ptr["data"]
        try:
            data = shared_memory.SharedMemory(name=data_name)
        except FileNotFoundError:
            if attempt == 7:
                raise
            continue
        _unregister(data_name)
        break
    try:
        header, arrays = _read_block(data)
        tier = dtype if dtype is not None else header["dtype"]
        sketch = CompiledSketch.from_npz_payload(
            arrays, header["n_groups"], header["input_dim"], dtype=tier
        )
        if tier == header.get("plan_dtype") and bool(sketch.pad_widths) == bool(
            header.get("plan_pad_widths")
        ):
            for gi, group in enumerate(sketch.groups):
                group.ensure_plan()
                plans = [arrays[f"g{gi}_plan{li}"] for li in range(len(group._A))]
                if all(p.shape == a.shape for p, a in zip(plans, group._A)):
                    group._A = plans
                    group._cols = [a.shape[2] for a in plans]
                    group._slot_A = [
                        [a[s] for a in plans] for s in range(len(group.leaf_ids))
                    ]
    except BaseException:
        data.close()
        raise
    _ATTACHED[data_name] = data
    sketch.shm_uri = uri
    sketch.shm_epoch = int(ptr.get("epoch", header.get("epoch", 0)))
    sketch.shm_bytes = data.size
    return sketch


def block_bytes(uri: str) -> int:
    """Size of the current epoch's data block behind ``uri`` (bytes)."""
    if shared_memory is None:
        raise OSError("multiprocessing.shared_memory is unavailable")
    base = uri[len("shm://") :] if is_shm_uri(uri) else uri
    pointer = shared_memory.SharedMemory(name=base)
    _unregister(base)
    try:
        ptr = _read_pointer(pointer)
    finally:
        pointer.close()
    data = shared_memory.SharedMemory(name=ptr["data"])
    _unregister(ptr["data"])
    try:
        return data.size
    finally:
        data.close()
