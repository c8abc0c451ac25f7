"""Compiled inference engine: flat kd-tree + stacked per-leaf MLPs.

The fitted :class:`~repro.core.neurosketch.NeuroSketch` answers queries by
walking a linked :class:`~repro.core.kdtree.KDNode` tree and dispatching to a
dict of per-leaf :class:`~repro.nn.network.MLP` objects — correct, but the
latency it exhibits under the benchmark harness is mostly Python dispatch,
not model compute. This module "compiles" a fitted sketch into a form a
server would actually run:

- :class:`FlatTree` — the kd-tree flattened into struct-of-arrays form
  (``split_dim``, ``split_val``, ``left``, ``right``, ``leaf_id`` integer
  arrays) with an iterative, fully vectorized :meth:`FlatTree.route_batch`
  (one numpy step per tree *level*, never per query; leaves self-loop so
  the loop needs no active-set bookkeeping) and a scalar
  :meth:`FlatTree.route_one` that walks plain Python lists.
- :class:`CompiledSketch` — per-leaf MLP weights stacked into 3-D tensors
  and lowered to a *precision-tiered, sort-segmented execution plan*:

  * **sort-segmented schedule** — each leaf's queries are grouped into one
    contiguous segment of the activation buffers; every layer then runs
    one contiguous matmul per occupied slot-segment (no zero-padded rows,
    no padded-block gathers) and the answers scatter back. The hot path
    fuses routing and segmentation into one pass: :meth:`FlatTree
    .route_batch_into` routes allocation-free into context arenas —
    evaluating every leaf's routing box with a few wide broadcast ops
    instead of a per-level gather loop when the tree is small enough
    (``BOX_CELL_CAP``) — and the segment schedule comes from an in-place
    sort of packed ``slot * m + row`` keys in a preallocated arena: no
    argsort, no per-call index allocations. Batches below
    ``SMALL_BATCH_ROWS`` skip scheduling and run the scalar kernel; the
    allocating argsort schedule remains as ``forward_batch`` (the
    ``sched_fuse_speedup`` baseline and the multi-group path).
  * **SIMD-padded stacks** — at fuse time, hidden (and fused bias-lane)
    widths of the execution plan are padded up to multiples of
    ``SIMD_LANES`` with exact-zero columns so every segment matmul runs
    on aligned, BLAS-friendly shapes. Canonical float64 weights and
    serialization stay unpadded; ReLU carries the zero lanes unchanged,
    so answers move only by BLAS reassociation (absorbed by the parity
    bounds above).
  * **fused normalization** — the per-leaf input standardization
    (``x_mean``/``x_scale``) is folded into the first layer's weights and
    the target de-standardization (``y_mean``/``y_scale``) into the last
    layer's at compile time, and each affine layer is *augmented* with its
    bias row plus a carried ones-column, so a layer is exactly one matmul
    (plus ReLU) — no elementwise normalization or bias passes remain.
  * **dtype tiers** — ``float64`` is the bit-parity reference tier (the
    parity suite holds it to 1e-12 of the object path; fusing the
    normalization reassociates a few flops, which lands ~1e-14 away);
    ``float32`` is the serving tier, ~2x less memory traffic and ~2x BLAS
    throughput for a relative deviation bounded by the tolerance checked
    in the golden suite (1e-5, orders below the model's own error).
    Routing always happens in float64, so both tiers pick identical leaves.
  * **scratch arenas** — activation buffers, routing buffers and the
    scalar-path workspace are preallocated and reused across calls, so the
    steady-state serving path performs no per-call tensor allocations
    beyond the returned answers (the fused schedule routes, sorts and
    scatters entirely inside the arenas; the argsort fallback additionally
    allocates O(m) index metadata).

The engine serializes its *canonical* form — unfused float64 weights plus
scaler statistics, exactly the PR-2 payload plus a ``dtype`` tag — so
artifacts round-trip losslessly across tiers and old payloads load
unchanged. The pre-segmentation padded schedule is kept verbatim as
:meth:`CompiledSketch.predict_padded` / :meth:`_LeafGroup
.forward_batch_padded`: it is the equivalence oracle for the segmented
schedule and the baseline behind the ``speedup_vs_padded`` BENCH field.

Scratch arenas are exclusive per call, but not behind a single engine
lock: each :meth:`CompiledSketch.predict` / :meth:`~CompiledSketch
.predict_one` call checks an *execution context* out of a per-sketch
replica pool (:class:`_EngineContext`). Contexts share every read-only
tensor — the flat tree, the canonical weights and the fused execution
plan — and privately own only the scratch arenas, so N-way concurrency
costs ~N scratch buffers and concurrent calls run genuinely in parallel
(the matmuls release the GIL). The pool grows on demand up to
:attr:`CompiledSketch.max_replicas`; callers beyond that briefly queue
for a free context, which is the old single-lock behavior N-wide.
"""

from __future__ import annotations

import gzip
import json
import os
import threading

import numpy as np

from repro.nn.network import BYTES_PER_PARAM, MLP

#: Execution dtype tiers: name -> numpy dtype. ``float64`` is the bit-parity
#: reference; ``float32`` is the serving tier (see the module docstring).
DTYPE_TIERS = {"float64": np.float64, "float32": np.float32}

#: The tier a server should run: model error dwarfs single-precision noise.
DEFAULT_SERVING_DTYPE = "float32"

#: Default ceiling for a sketch's execution-context pool. One context per
#: core is all the parallelism the matmuls can use; the floor of 2 keeps a
#: blocking caller from ever starving an async worker on tiny machines.
DEFAULT_MAX_REPLICAS = max(2, min(16, os.cpu_count() or 2))

#: Rows per occupied leaf segment the auto micro-batch threshold targets:
#: small enough to keep flush latency in the tail budget, large enough that
#: each per-segment matmul amortizes its dispatch (see ``segment_stats``).
TARGET_SEGMENT_ROWS = 32

#: Clamp and fallback for the derived ``suggested_max_batch``.
MIN_AUTO_BATCH = 8
MAX_AUTO_BATCH = 1024
DEFAULT_MAX_BATCH = 64

#: Hidden (and fused bias-lane) widths of the execution plan are padded up
#: to multiples of this with exact-zero columns, so every segment matmul —
#: notably the float32 tier's sgemm calls — runs on aligned, vector-width
#: friendly shapes. Canonical weights and serialization stay unpadded; the
#: padding is a pure view-time transform (zero columns stay exactly zero
#: through ReLU, so answers are unchanged up to BLAS reassociation).
SIMD_LANES = 8

#: Serializes :meth:`_LeafGroup.ensure_plan`'s first lowering of a group.
_PLAN_LOCK = threading.Lock()

#: Batches below this many rows skip the segment scheduler entirely and run
#: the scalar kernel row by row: at that scale the per-batch scheduling
#: overhead exceeds the gemm advantage, and the scalar path warm-starts on
#: the previous row's leaf.
SMALL_BATCH_ROWS = 32

#: Ceiling on ``n_leaves * input_dim * batch_rows`` cells for the box-routing
#: arenas (see :meth:`FlatTree.route_batch_into`): evaluating every leaf box
#: with a handful of wide broadcast ops beats the per-level gather loop on
#: dispatch overhead, but its element work grows with the leaf count, so huge
#: trees fall back to the level loop.
BOX_CELL_CAP = 1 << 20


def resolve_dtype(name: str) -> np.dtype:
    """Validate a tier name (``"float64"``/``"float32"``) into a dtype."""
    try:
        return DTYPE_TIERS[name]
    except KeyError:
        raise ValueError(
            f"dtype must be one of {sorted(DTYPE_TIERS)}, got {name!r}"
        ) from None


class FlatTree:
    """A kd-tree in struct-of-arrays form (preorder node layout).

    Node ``i`` is internal iff ``split_dim[i] >= 0``; then ``split_val[i]``
    is its threshold and ``left[i]``/``right[i]`` index its children.
    Leaves carry their ``leaf_id`` (contiguous, left-to-right); both id
    arrays hold ``-1`` where they do not apply. Routing uses ``<=`` on the
    split value, exactly like :meth:`repro.core.kdtree.QueryKDTree.route`.
    """

    __slots__ = (
        "split_dim",
        "split_val",
        "left",
        "right",
        "leaf_id",
        "n_leaves",
        "_sd",
        "_sv",
        "_lc",
        "_rc",
        "_lid",
        "_rdim",
        "_rval",
        "_rchild",
        "_depth",
        "_boxes",
        "_leaf_boxes",
    )

    def __init__(
        self,
        split_dim: np.ndarray,
        split_val: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        leaf_id: np.ndarray,
    ) -> None:
        self.split_dim = np.asarray(split_dim, dtype=np.int64)
        self.split_val = np.asarray(split_val, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.leaf_id = np.asarray(leaf_id, dtype=np.int64)
        n = self.split_dim.shape[0]
        if n == 0:
            raise ValueError("a flat tree needs at least one node")
        for name in ("split_val", "left", "right", "leaf_id"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have the same length as split_dim")
        self.n_leaves = int((self.leaf_id >= 0).sum())
        self._validate_structure()
        # Plain-list mirrors: scalar routing over Python lists avoids the
        # per-element numpy indexing overhead on the hot predict_one path.
        self._sd = self.split_dim.tolist()
        self._sv = self.split_val.tolist()
        self._lc = self.left.tolist()
        self._rc = self.right.tolist()
        self._lid = self.leaf_id.tolist()
        self._build_route_tables()
        self._boxes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._leaf_boxes: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _build_route_tables(self) -> None:
        """Branch-free batch-routing tables: leaves self-loop.

        ``_rchild`` is the ``(n, 2)`` child table flattened so the next node
        is one gather at ``2*node + go_right``; a leaf's both slots point at
        itself, so the level loop can run to the tree's max depth without
        tracking which queries already settled. ``_depth`` is that max
        depth (merged trees are ragged; extra iterations are no-ops).
        """
        n = self.split_dim.shape[0]
        is_leaf = self.split_dim < 0
        self_idx = np.arange(n, dtype=np.int64)
        self._rdim = np.where(is_leaf, 0, self.split_dim)
        self._rval = self.split_val.copy()
        child = np.empty((n, 2), dtype=np.int64)
        child[:, 0] = np.where(is_leaf, self_idx, self.left)
        child[:, 1] = np.where(is_leaf, self_idx, self.right)
        self._rchild = np.ascontiguousarray(child.reshape(-1))
        depth = np.zeros(n, dtype=np.int64)
        for i in range(n):  # preorder: children always follow their parent
            if not is_leaf[i]:
                depth[self.left[i]] = depth[i] + 1
                depth[self.right[i]] = depth[i] + 1
        self._depth = int(depth[is_leaf].max())

    def _validate_structure(self) -> None:
        """Reject payloads that could make routing loop, crash or mislabel.

        The preorder layout implies every child index points strictly
        forward; enforcing that (plus range and leaf-labelling checks) turns
        a corrupt or hand-edited serialized tree into a clear ``ValueError``
        instead of an infinite routing loop or a bare ``IndexError``.
        """
        n = self.split_dim.shape[0]
        is_leaf = self.split_dim < 0
        internal = np.flatnonzero(~is_leaf)
        for name, child in (("left", self.left), ("right", self.right)):
            kids = child[internal]
            if np.any(kids <= internal) or np.any(kids >= n):
                raise ValueError(
                    f"{name} child indices must point strictly forward within "
                    "the node arrays (preorder layout)"
                )
            if np.any(child[is_leaf] != -1):
                raise ValueError(f"leaf nodes must have {name} == -1")
        if not np.array_equal(self.leaf_id >= 0, is_leaf):
            raise ValueError("leaf_id must be set exactly on leaf nodes")
        lids = np.sort(self.leaf_id[is_leaf])
        if not np.array_equal(lids, np.arange(lids.size)):
            raise ValueError("leaf ids must be a permutation of 0..n_leaves-1")

    @property
    def n_nodes(self) -> int:
        return self.split_dim.shape[0]

    @property
    def n_internal(self) -> int:
        return self.n_nodes - self.n_leaves

    # ------------------------------------------------------------------ build

    @classmethod
    def from_tree(cls, tree) -> "FlatTree":
        """Flatten a :class:`~repro.core.kdtree.QueryKDTree` (preorder)."""
        split_dim: list[int] = []
        split_val: list[float] = []
        left: list[int] = []
        right: list[int] = []
        leaf_id: list[int] = []
        stack = [(tree.root, -1, False)]
        while stack:
            node, parent, is_right = stack.pop()
            idx = len(split_dim)
            if parent >= 0:
                (right if is_right else left)[parent] = idx
            if node.is_leaf:
                if node.leaf_id is None:
                    raise ValueError("tree leaves must be labelled (relabel_leaves)")
                split_dim.append(-1)
                split_val.append(0.0)
                left.append(-1)
                right.append(-1)
                leaf_id.append(int(node.leaf_id))
            else:
                split_dim.append(int(node.dim))
                split_val.append(float(node.val))
                left.append(-1)
                right.append(-1)
                leaf_id.append(-1)
                stack.append((node.right, idx, True))
                stack.append((node.left, idx, False))
        return cls(
            np.asarray(split_dim),
            np.asarray(split_val),
            np.asarray(left),
            np.asarray(right),
            np.asarray(leaf_id),
        )

    # ---------------------------------------------------------------- routing

    def route_batch(
        self, Q: np.ndarray, node: np.ndarray | None = None, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Leaf ids for ``(m, d)`` queries; one vectorized step per level.

        ``node`` (int64, length >= m) and ``rows`` (an ``arange`` of length
        >= m) are optional scratch buffers a caller may preallocate; the
        remaining per-level temporaries are O(m) and short-lived.
        """
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        m = Q.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        if node is None:
            node = np.zeros(m, dtype=np.int64)
        else:
            node = node[:m]
            node[:] = 0
        rows = np.arange(m) if rows is None else rows[:m]
        for _ in range(self._depth):
            # go_left uses <= exactly like route_one; a leaf's table entries
            # self-loop, so settled queries step in place.
            go_left = Q[rows, self._rdim[node]] <= self._rval[node]
            node <<= 1
            node += 1
            node -= go_left
            node = self._rchild[node]
        return self.leaf_id[node]

    def route_batch_into(self, Q: np.ndarray, ctx) -> np.ndarray:
        """Fused allocation-free routing into an execution context's arenas.

        Same routing semantics as :meth:`route_batch`, but every per-level
        temporary lives in ``ctx``'s preallocated buffers, so the
        steady-state batch path performs no per-call tensor allocations.
        ``Q`` must be float64 and C-contiguous (the caller guarantees it);
        returns the per-row *leaf ids* as a view of one of ``ctx``'s
        routing arenas — valid until the next routing call on the same
        context.

        Two implementations behind one seam. When the context carries box
        arenas (small trees, ``BOX_CELL_CAP``), every leaf's routing box is
        evaluated at once — ``(q > lo) & (q <= hi)`` over an ``(m, L, d)``
        broadcast, then ``all``/``argmax`` — five wide vector ops total,
        independent of tree depth; the boxes partition query space exactly
        (``lo`` exclusive, ``hi`` inclusive, matching the ``<=``-left
        routing rule), so ``argmax`` finds the single ``True`` per row and
        its position *is* the leaf id (:meth:`_validate_structure` makes
        leaf ids a permutation). Otherwise a per-level gather loop runs in
        the arenas: the child table is laid out ``[left, right]`` at
        ``[2n, 2n+1]``, so ``go_right = qv > val`` indexes it directly and
        the two node buffers ping-pong between the gather's source and
        destination.
        """
        m = Q.shape[0]
        if ctx._blo is not None:
            # Queries transpose to (d, m) so every broadcast op below runs
            # its inner loop over the m-contiguous axis (a (m, L, d) layout
            # would leave a length-d inner loop and pay the iterator
            # overhead m*L times).
            L = self.n_leaves
            d = ctx.input_dim
            lo, hi = self.route_boxes(d)  # (L, d, 1) each
            qt = ctx._qT[: d * m].reshape(d, m)
            qt[:] = Q.T
            B1 = ctx._blo[: L * d * m].reshape(L, d, m)
            B2 = ctx._bhi[: L * d * m].reshape(L, d, m)
            np.greater(qt, lo, out=B1)
            np.less_equal(qt, hi, out=B2)
            np.logical_and(B1, B2, out=B1)
            inb = ctx._bin[: L * m].reshape(L, m)
            np.all(B1, axis=1, out=inb)
            idx = ctx._idx[:m]
            np.argmax(inb, axis=0, out=idx)
            return idx
        a = ctx._node[:m]
        b = ctx._idx[:m]
        val = ctx._val[:m]
        qv = ctx._qv[:m]
        go = ctx._go[:m]
        rowbase = ctx._rowbase[:m]
        Qr = Q.reshape(-1)
        a[:] = 0
        for _ in range(self._depth):
            np.take(self._rdim, a, out=b)
            b += rowbase
            np.take(Qr, b, out=qv)
            np.take(self._rval, a, out=val)
            np.greater(qv, val, out=go)
            a <<= 1
            a += go
            np.take(self._rchild, a, out=b)
            a, b = b, a
        np.take(self.leaf_id, a, out=b)
        return b

    def route_boxes(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-leaf routing boxes for the vectorized box route, cached per
        ``dim`` (the tree is immutable)."""
        boxes = self._boxes.get(dim)
        if boxes is None:
            lo, hi = self.leaf_boxes(dim)
            boxes = (
                np.ascontiguousarray(lo)[:, :, None],
                np.ascontiguousarray(hi)[:, :, None],
            )
            self._boxes[dim] = boxes
        return boxes

    def route_one(self, q: np.ndarray) -> int:
        """Leaf id for a single query (scalar walk over Python lists)."""
        sd, sv, lc, rc = self._sd, self._sv, self._lc, self._rc
        node = 0
        d = sd[node]
        while d >= 0:
            node = lc[node] if q[d] <= sv[node] else rc[node]
            d = sd[node]
        return self._lid[node]

    def leaf_boxes(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Query-space bounding box of every leaf's routing region.

        Returns ``(lo, hi)``, each of shape ``(n_leaves, dim)`` and indexed
        by leaf id; sides never constrained by a split are ``-inf``/``inf``.
        Routing sends ``q[d] <= val`` left, so the boundary plane belongs to
        the left box; both bounds are reported closed, which is the
        conservative convention for intersection tests (a region sitting
        exactly on a split plane intersects both children's boxes). This is
        what the streaming subsystem uses to decide which leaf partitions a
        data mutation dirties.

        Computed once per ``dim`` (the tree is immutable, so every engine
        built on it shares the result); the arrays are read-only.
        """
        boxes = self._leaf_boxes.get(dim)
        if boxes is None:
            boxes = self._compute_leaf_boxes(dim)
            for a in boxes:
                a.flags.writeable = False
            self._leaf_boxes[dim] = boxes
        return boxes

    def _compute_leaf_boxes(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        max_dim = int(self.split_dim.max(initial=-1))
        if dim <= max_dim:
            raise ValueError(f"dim must exceed the largest split dim ({max_dim})")
        lo = np.full((self.n_leaves, dim), -np.inf)
        hi = np.full((self.n_leaves, dim), np.inf)
        stack = [(0, np.full(dim, -np.inf), np.full(dim, np.inf))]
        while stack:
            node, nlo, nhi = stack.pop()
            d = self._sd[node]
            if d < 0:
                lid = self._lid[node]
                lo[lid] = nlo
                hi[lid] = nhi
                continue
            v = self._sv[node]
            lhi = nhi.copy()
            lhi[d] = min(lhi[d], v)
            rlo = nlo.copy()
            rlo[d] = max(rlo[d], v)
            stack.append((self._rc[node], rlo, nhi))
            stack.append((self._lc[node], nlo, lhi))
        return lo, hi

    # ------------------------------------------------------------ persistence

    def to_dict(self) -> dict:
        return {
            "split_dim": self._sd,
            "split_val": self._sv,
            "left": self._lc,
            "right": self._rc,
            "leaf_id": self._lid,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "FlatTree":
        return cls(
            np.asarray(state["split_dim"]),
            np.asarray(state["split_val"]),
            np.asarray(state["left"]),
            np.asarray(state["right"]),
            np.asarray(state["leaf_id"]),
        )


class _LeafGroup:
    """Leaves sharing one MLP architecture, weights stacked per layer.

    Canonical storage is float64 and unfused: ``W[l]`` has shape
    ``(g, fan_in, fan_out)`` and ``b[l]`` shape ``(g, fan_out)`` where ``g``
    is the number of leaves in the group, with scaler statistics stacked
    alongside (identity statistics stand in for absent scalers). That is
    what serializes, what ``num_params`` counts and what the padded
    reference path (:meth:`forward_batch_padded`) runs.

    On first use the group lowers itself to an execution plan for its
    dtype tier (an engine that never answers, such as a streaming sketch's
    float64 canonical engine behind float32 serving, never builds one): per
    layer one *augmented fused* tensor ``_A[l]`` of shape
    ``(g, fan_in + 1, cols)`` holding ``[[W', 0], [b', 1]]`` — ``W'``/``b'``
    are the weights with the x-scaler folded into layer 0 and the y-scaler
    into the last layer, the extra row applies the bias, and the extra
    column (hidden layers only) carries a ones-lane through the network so
    activations stay augmented. One matmul per (layer, segment) is then the
    *entire* layer; ReLU runs once per layer over the whole sorted buffer
    (the ones-lane is unaffected: ``relu(1) == 1``).
    """

    __slots__ = (
        "layer_sizes",
        "leaf_ids",
        "W",
        "b",
        "x_mean",
        "x_scale",
        "y_mean",
        "y_scale",
        "dtype_name",
        "pad_widths",
        "_dtype",
        "_A",
        "_slot_A",
        "_cols",
        "_rows0",
        "_one_bufs",
        "_x_one",
        "_cap",
        "_qflat",
        "_hflat",
        "_ord",
        "_x3",
        "_h3",
        "_off",
        "_dest",
        "_t",
        "_eq",
        "_ans",
        "fb_batches",
        "fb_rows",
        "fb_segments",
    )

    def __init__(
        self,
        layer_sizes: list[int],
        leaf_ids: list[int],
        W: list[np.ndarray],
        b: list[np.ndarray],
        x_mean: np.ndarray,
        x_scale: np.ndarray,
        y_mean: np.ndarray,
        y_scale: np.ndarray,
        dtype: str = "float64",
        pad_widths: bool = True,
    ) -> None:
        self.layer_sizes = list(layer_sizes)
        self.leaf_ids = list(leaf_ids)
        self.W = [np.ascontiguousarray(w, dtype=np.float64) for w in W]
        self.b = [np.ascontiguousarray(x, dtype=np.float64) for x in b]
        self.x_mean = np.asarray(x_mean, dtype=np.float64)
        self.x_scale = np.asarray(x_scale, dtype=np.float64)
        self.y_mean = np.asarray(y_mean, dtype=np.float64)
        self.y_scale = np.asarray(y_scale, dtype=np.float64)
        g = len(self.leaf_ids)
        for li, (w, bias) in enumerate(zip(self.W, self.b)):
            expect_w = (g, self.layer_sizes[li], self.layer_sizes[li + 1])
            if w.shape != expect_w or bias.shape != expect_w[::2]:
                raise ValueError(
                    f"layer {li}: W{w.shape}/b{bias.shape} do not match "
                    f"architecture {self.layer_sizes} for {g} leaves"
                )
        if self.x_mean.shape != (g, self.layer_sizes[0]) or self.x_scale.shape != self.x_mean.shape:
            raise ValueError(
                f"x scaler stats must have shape ({g}, {self.layer_sizes[0]}), "
                f"got {self.x_mean.shape}/{self.x_scale.shape}"
            )
        if self.y_mean.shape != (g,) or self.y_scale.shape != (g,):
            raise ValueError(
                f"y scaler stats must have shape ({g},), got "
                f"{self.y_mean.shape}/{self.y_scale.shape}"
            )
        self.dtype_name = str(dtype)
        self.pad_widths = bool(pad_widths)
        self._dtype = resolve_dtype(self.dtype_name)
        # The fused plan is lowered on first use (see ensure_plan).
        self._A = self._slot_A = self._cols = self._rows0 = None
        self._one_bufs = self._x_one = None
        # Batch arena grows on demand (geometrically) and is reused across
        # calls; the scalar-path buffers are fixed-size.
        self._cap = 0
        self._qflat = None
        self._hflat = None
        self._ord = self._dest = self._t = self._eq = self._ans = None
        self._x3 = self._h3 = self._off = None
        # Segment-size observation counters (drained by the owning sketch at
        # context check-in; see ``CompiledSketch.segment_stats``).
        self.fb_batches = 0
        self.fb_rows = 0
        self.fb_segments = 0

    # ------------------------------------------------------------------- plan

    @property
    def has_plan(self) -> bool:
        """Whether the fused execution plan has been lowered yet."""
        return self._A is not None

    def ensure_plan(self) -> None:
        """Lower the fused execution plan unless that has happened already.

        :meth:`CompiledSketch._checkout` calls this before handing out a
        context (and :meth:`replicate` before sharing the plan), so an
        engine that never answers never holds a plan; the forward passes
        assume it exists. Groups can be shared across engines, so the
        lowering runs under one module lock: concurrent first uses build
        a single plan.
        """
        if self._A is None:
            with _PLAN_LOCK:
                if self._A is None:
                    self._build_plan()

    def _build_plan(self) -> None:
        """Lower canonical weights to fused augmented tensors (see class doc).

        Folding the scalers reassociates a handful of flops per unit —
        ``x @ (W/s) + (b - (m/s) @ W)`` instead of ``((x-m)/s) @ W + b`` —
        which perturbs float64 answers at the 1e-14 level, two orders inside
        the 1e-12 parity budget.

        With ``pad_widths`` (the default), each augmented tensor's row and
        column counts are rounded up to multiples of :data:`SIMD_LANES` with
        exact-zero entries: the extra input columns hold 0, the extra weight
        rows/columns hold 0, the ones-lane stays at column ``fan_out``, and
        ``relu(0) == 0`` carries the zero lanes through the net — so every
        matmul runs on aligned shapes while the arithmetic result only picks
        up exact ``+0.0`` terms. The final layer's output column count is
        never padded (answers stay a single column).
        """
        inv = 1.0 / self.x_scale
        fused_W = [w for w in self.W]
        fused_b = [x for x in self.b]
        fused_b[0] = fused_b[0] - np.einsum("gi,gio->go", self.x_mean * inv, fused_W[0])
        fused_W[0] = fused_W[0] * inv[:, :, None]
        fused_W[-1] = fused_W[-1] * self.y_scale[:, None, None]
        fused_b[-1] = fused_b[-1] * self.y_scale[:, None] + self.y_mean[:, None]
        g = len(self.leaf_ids)
        n_aff = len(fused_W)
        lanes = SIMD_LANES if self.pad_widths else 1
        up = lambda n: -(-n // lanes) * lanes  # noqa: E731
        A: list[np.ndarray] = []
        for li, (w, bias) in enumerate(zip(fused_W, fused_b)):
            fan_in, fan_out = w.shape[1], w.shape[2]
            last = li == n_aff - 1
            cols = fan_out if last else up(fan_out + 1)
            rows = up(fan_in + 1)
            a = np.zeros((g, rows, cols), dtype=self._dtype)
            a[:, :fan_in, :fan_out] = w
            a[:, fan_in, :fan_out] = bias
            if not last:
                a[:, fan_in, fan_out] = 1.0  # the carried ones-lane
            A.append(a)
        self._cols = [a.shape[2] for a in A]
        self._rows0 = A[0].shape[1]
        # Per-slot per-layer weight views as plain Python lists: the segment
        # loop and the scalar path index them without numpy dispatch.
        self._slot_A = [[a[s] for a in A] for s in range(g)]
        self._one_bufs = [np.empty(c, dtype=self._dtype) for c in self._cols]
        self._x_one = np.zeros(self._rows0, dtype=self._dtype)
        self._x_one[self.layer_sizes[0]] = 1.0
        # Last: ``has_plan``/``ensure_plan`` read ``_A`` as "plan complete".
        self._A = A

    def with_dtype(self, dtype: str, pad_widths: bool | None = None) -> "_LeafGroup":
        """This group lowered to another tier (canonical arrays are shared)."""
        pw = self.pad_widths if pad_widths is None else bool(pad_widths)
        if dtype == self.dtype_name and pw == self.pad_widths:
            return self
        return _LeafGroup(
            self.layer_sizes,
            self.leaf_ids,
            self.W,
            self.b,
            self.x_mean,
            self.x_scale,
            self.y_mean,
            self.y_scale,
            dtype=dtype,
            pad_widths=pw,
        )

    def replicate(self) -> "_LeafGroup":
        """A scratch replica of this group for one more execution context.

        Everything read-only at serve time — canonical weights, scaler
        statistics and the fused augmented plan — is *shared* with this
        group; only the mutable state (batch arena and the scalar-path
        workspace) is private, so a replica costs a few empty buffers, not
        another copy of the model.
        """
        self.ensure_plan()
        rep = object.__new__(_LeafGroup)
        rep.layer_sizes = self.layer_sizes
        rep.leaf_ids = self.leaf_ids
        rep.W = self.W
        rep.b = self.b
        rep.x_mean = self.x_mean
        rep.x_scale = self.x_scale
        rep.y_mean = self.y_mean
        rep.y_scale = self.y_scale
        rep.dtype_name = self.dtype_name
        rep.pad_widths = self.pad_widths
        rep._dtype = self._dtype
        rep._A = self._A
        rep._slot_A = self._slot_A
        rep._cols = self._cols
        rep._rows0 = self._rows0
        rep._one_bufs = [np.empty(c, dtype=self._dtype) for c in self._cols]
        rep._x_one = np.zeros(self._rows0, dtype=self._dtype)
        rep._x_one[self.layer_sizes[0]] = 1.0
        rep._cap = 0
        rep._qflat = None
        rep._hflat = None
        rep._ord = rep._dest = rep._t = rep._eq = rep._ans = None
        rep._x3 = rep._h3 = rep._off = None
        rep.fb_batches = 0
        rep.fb_rows = 0
        rep.fb_segments = 0
        return rep

    def _ensure_arena(self, m: int) -> None:
        if m <= self._cap:
            return
        cap = max(2 * self._cap, m, 256)
        d1 = self._rows0
        # The input buffer's ones-lane and zero pad lanes are
        # data-independent: set them once here, and every (rows, d1)-shaped
        # view of the flat buffer sees them.
        qflat = np.zeros(cap * d1, dtype=self._dtype)
        qflat.reshape(cap, d1)[:, self.layer_sizes[0]] = 1.0
        self._qflat = qflat
        self._hflat = [np.empty(cap * c, dtype=self._dtype) for c in self._cols]
        # Key-sort schedule arenas (see ``forward_batch_sched``).
        self._ord = np.empty(cap, dtype=np.int64)
        self._dest = np.empty(cap, dtype=np.int64)
        # Stacked-matmul arenas (see ``_forward_bmm``): the inflation guard
        # bounds the padded stack at 1.5x the batch plus one SIMD block per
        # leaf, so these cover every batch the guard admits.
        L = self.n_leaves
        n3cap = cap + (cap >> 1) + L * SIMD_LANES
        self._x3 = np.zeros(n3cap * d1, dtype=self._dtype)
        self._h3 = [np.empty(n3cap * c, dtype=self._dtype) for c in self._cols]
        self._off = np.empty(L, dtype=np.int64)
        self._t = np.empty(cap, dtype=np.int64)
        self._eq = np.empty(cap, dtype=bool)
        self._ans = np.empty(cap, dtype=self._dtype)
        self._cap = cap

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids)

    @property
    def n_layers(self) -> int:
        return len(self.W)

    def num_params(self) -> int:
        return int(sum(w[0].size + bias[0].size for w, bias in zip(self.W, self.b))) * len(
            self.leaf_ids
        )

    # ---------------------------------------------------------------- forward

    def forward_batch(self, Q: np.ndarray, slots: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Answers for queries ``Q`` where ``slots[i]`` is each query's
        within-group leaf slot (sort-segmented schedule).

        Queries are argsorted by slot once; each layer then runs one
        contiguous matmul per occupied slot-segment over the arena buffers,
        ReLU fires once per layer across the whole sorted batch, and the
        final column scatters back through the permutation. Not re-entrant
        (arena reuse) — :class:`CompiledSketch` serializes callers.
        """
        m = Q.shape[0]
        if out is None:
            out = np.empty(m, dtype=np.float64)
        if m == 0:
            return out
        self._ensure_arena(m)
        d = self.layer_sizes[0]
        X = self._qflat[: m * self._rows0].reshape(m, self._rows0)
        counts = np.bincount(slots, minlength=self.n_leaves)
        if counts.max() == m:
            # Single occupied slot (hot leaf, or a routed sub-batch): the
            # batch is one segment already — skip the sort and the scatter.
            order = None
            X[:, :d] = Q
            segs = [slice(0, m)]
            plans = [self._slot_A[int(slots[0])]]
        else:
            order = np.argsort(slots, kind="stable")
            X[:, :d] = Q[order]
            used = np.flatnonzero(counts)
            segs = []
            plans = []
            s0 = 0
            for slot, s1 in zip(used.tolist(), np.cumsum(counts[used]).tolist()):
                segs.append(slice(s0, s1))
                plans.append(self._slot_A[slot])
                s0 = s1
        self.fb_batches += 1
        self.fb_rows += m
        self.fb_segments += len(segs)
        H = X
        hflat, cols, matmul = self._hflat, self._cols, np.matmul
        n_aff = len(self._A)
        last = n_aff - 1
        for li in range(n_aff):
            O = hflat[li][: m * cols[li]].reshape(m, cols[li])
            for seg, plan in zip(segs, plans):
                matmul(H[seg], plan[li], out=O[seg])
            if li != last:
                np.maximum(O, 0.0, out=O)
            H = O
        if order is None:
            out[:] = H[:, 0]
        else:
            out[order] = H[:, 0]
        return out

    def forward_batch_sched(
        self, Q: np.ndarray, slots: np.ndarray, rows: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Fused-schedule batch kernel: counting sort, no argsort, no allocs.

        The segment schedule is emitted directly from the routing result:
        rows are counting-sorted by leaf slot through an in-place sort of
        packed ``slot * m + row`` keys in a preallocated arena (the row part
        makes keys unique, so ``key % m`` after the sort is the stable
        permutation and ``key // m`` the sorted slots), so the whole batch
        path — routing, schedule, activations, scatter — reuses arenas and
        performs no per-call tensor allocations beyond the caller's ``out``
        and O(n_leaves) segment bookkeeping. ``rows`` is a preallocated
        ``arange(m)`` view from the calling context.
        """
        m = Q.shape[0]
        if m == 0:
            return out
        self._ensure_arena(m)
        d = self.layer_sizes[0]
        X = self._qflat[: m * self._rows0].reshape(m, self._rows0)
        eq = self._eq[:m]
        np.equal(slots, slots[0], out=eq)
        if eq.all():
            # Single occupied slot (hot leaf, or a routed sub-batch): the
            # batch is one segment already — skip the schedule and scatter.
            dest = None
            X[:, :d] = Q
            segs = [slice(0, m)]
            plans = [self._slot_A[int(slots[0])]]
        else:
            key = self._t[:m]
            np.multiply(slots, m, out=key)
            key += rows
            key.sort()
            order = self._ord[:m]
            np.mod(key, m, out=order)  # row at each sorted position
            key //= m  # sorted slots
            dest = self._dest[:m]
            dest[order] = rows  # inverse permutation: row -> sorted position
            segs = []
            plans = []
            s0 = 0
            block = 0
            ne = eq[: m - 1]  # the single-slot check is done with ``eq``
            np.not_equal(key[1:], key[:-1], out=ne)
            bounds = np.flatnonzero(ne)  # O(n_leaves) ints
            for s1 in bounds.tolist() + [m - 1]:
                segs.append(slice(s0, s1 + 1))
                plans.append(self._slot_A[int(key[s1])])
                if s1 + 1 - s0 > block:
                    block = s1 + 1 - s0
                s0 = s1 + 1
        self.fb_batches += 1
        self.fb_rows += m
        self.fb_segments += len(segs)
        if dest is not None:
            # When every slot is occupied and the largest segment does not
            # inflate the batch too much, run each layer as ONE stacked
            # matmul over (n_leaves, block, width) instead of one call per
            # segment — the per-call dispatch of ~n_leaves * n_layers small
            # gemms dominates this kernel, and the fused ones-lane makes
            # zero pad rows exact (they stay zero through every layer), so
            # block padding costs only flops (measured ~0.15us/row against
            # ~1.5us per avoided gemm call). Heavily skewed or sparse
            # batches keep the per-segment loop.
            g = self.n_leaves
            lanes = SIMD_LANES if self.pad_widths else 1
            block_r = -(-block // lanes) * lanes
            if len(segs) == g and g * block_r <= m + (m >> 1) + g * lanes:
                return self._forward_bmm(Q, slots, dest, segs, block_r, out)
            X[dest, :d] = Q
        H = X
        hflat, cols, matmul = self._hflat, self._cols, np.matmul
        n_aff = len(self._A)
        last = n_aff - 1
        for li in range(n_aff):
            O = hflat[li][: m * cols[li]].reshape(m, cols[li])
            for seg, plan in zip(segs, plans):
                matmul(H[seg], plan[li], out=O[seg])
            if li != last:
                np.maximum(O, 0.0, out=O)
            H = O
        if dest is None:
            out[:] = H[:, 0]
        else:
            ans = self._ans[:m]
            np.take(H[:, 0], dest, out=ans)
            out[:] = ans
        return out

    def _forward_bmm(
        self,
        Q: np.ndarray,
        slots: np.ndarray,
        dest: np.ndarray,
        segs: list,
        block_r: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """Stacked-matmul tail of :meth:`forward_batch_sched`.

        Rows scatter into a zero-padded ``(n_leaves, block_r, width)``
        arena (slot ``k``'s segment occupies rows ``[k*block_r, ...)`` of
        the flat view) and every layer runs as a single ``np.matmul`` over
        the stack — the batched gemm loop lives in C, so dispatch cost no
        longer scales with the segment count. ``dest`` (the within-batch
        sorted position of each row) is consumed and overwritten with the
        arena destination.
        """
        m = Q.shape[0]
        d = self.layer_sizes[0]
        g = self.n_leaves
        off = self._off
        for k, seg in enumerate(segs):
            off[k] = k * block_r - seg.start
        t = self._t[:m]
        np.take(off, slots, out=t)
        dest += t  # arena row of each input row
        rows0 = self._rows0
        n3 = g * block_r
        X3f = self._x3[: n3 * rows0]
        X3f.fill(0.0)  # contiguous memset; pad rows must stay exactly zero
        X3 = X3f.reshape(n3, rows0)
        X3[dest, :d] = Q
        X3[dest, d] = 1.0  # the fused bias lane
        H = X3.reshape(g, block_r, rows0)
        matmul = np.matmul
        n_aff = len(self._A)
        last = n_aff - 1
        for li, a in enumerate(self._A):
            c = self._cols[li]
            O = self._h3[li][: n3 * c].reshape(g, block_r, c)
            matmul(H, a, out=O)
            if li != last:
                np.maximum(O, 0.0, out=O)
            H = O
        ans = self._ans[:m]
        np.take(H.reshape(n3), dest, out=ans)
        out[:] = ans
        return out

    def forward_one(self, q: np.ndarray, slot: int) -> float:
        """Single forward pass through the preallocated scalar buffers."""
        x = self._x_one
        # Cast into the tier; the augmented ones-slot and the zero pad lanes
        # beyond it are preset.
        x[: self.layer_sizes[0]] = q
        h = x
        plan = self._slot_A[slot]
        last = len(plan) - 1
        for li, a in enumerate(plan):
            buf = self._one_bufs[li]
            np.matmul(h, a, out=buf)
            if li != last:
                np.maximum(buf, 0.0, out=buf)
            h = buf
        return float(h[0])

    def forward_batch_padded(self, Q: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Reference padded schedule (the pre-segmentation PR-2 engine).

        Float64, unfused, elementwise scalers: queries are padded per leaf
        to a common block and the whole group runs as
        ``(g_used, block, fan_in) @ (g_used, fan_in, fan_out)`` batched
        matmuls, falling back to a per-leaf loop when padding would inflate
        a skewed batch by more than ~4x. Kept as the equivalence oracle for
        the segmented schedule and the ``speedup_vs_padded`` baseline;
        allocates its own temporaries, so it is pure and thread-safe.
        """
        m = Q.shape[0]
        out = np.empty(m, dtype=np.float64)
        if m == 0:
            return out
        order = np.argsort(slots, kind="stable")
        sorted_slots = slots[order]
        counts = np.bincount(sorted_slots, minlength=self.n_leaves)
        used = np.flatnonzero(counts)
        used_counts = counts[used]
        block = int(used_counts.max())
        if used.size * block > 4 * m + 1024:
            starts = np.concatenate(([0], np.cumsum(used_counts)))
            last = self.n_layers - 1
            for k, slot in enumerate(used):
                rows = order[starts[k] : starts[k + 1]]
                H = (Q[rows] - self.x_mean[slot]) / self.x_scale[slot]
                for li in range(self.n_layers):
                    H = H @ self.W[li][slot] + self.b[li][slot]
                    if li != last:
                        np.maximum(H, 0.0, out=H)
                out[rows] = H[:, 0] * self.y_scale[slot] + self.y_mean[slot]
            return out
        row = np.repeat(np.arange(used.size), used_counts)
        starts = np.concatenate(([0], np.cumsum(used_counts[:-1])))
        col = np.arange(m) - np.repeat(starts, used_counts)

        X = np.zeros((used.size, block, Q.shape[1]), dtype=np.float64)
        X[row, col] = Q[order]
        X -= self.x_mean[used, None, :]
        X /= self.x_scale[used, None, :]

        H = X
        last = self.n_layers - 1
        for li in range(self.n_layers):
            H = np.matmul(H, self.W[li][used])
            H += self.b[li][used, None, :]
            if li != last:
                np.maximum(H, 0.0, out=H)
        out[order] = H[row, col, 0] * self.y_scale[sorted_slots] + self.y_mean[sorted_slots]
        return out

    # ------------------------------------------------------------ persistence

    def to_dict(self) -> dict:
        return {
            "layer_sizes": self.layer_sizes,
            "leaf_ids": self.leaf_ids,
            "W": [w.tolist() for w in self.W],
            "b": [bias.tolist() for bias in self.b],
            "x_mean": self.x_mean.tolist(),
            "x_scale": self.x_scale.tolist(),
            "y_mean": self.y_mean.tolist(),
            "y_scale": self.y_scale.tolist(),
        }

    @classmethod
    def from_dict(cls, state: dict, dtype: str = "float64") -> "_LeafGroup":
        return cls(
            state["layer_sizes"],
            state["leaf_ids"],
            [np.asarray(w) for w in state["W"]],
            [np.asarray(bias) for bias in state["b"]],
            np.asarray(state["x_mean"]),
            np.asarray(state["x_scale"]),
            np.asarray(state["y_mean"]),
            np.asarray(state["y_scale"]),
            dtype=dtype,
        )


class _EngineContext:
    """One exclusive execution context of the replica pool.

    Holds a replica of every leaf group (shared weights/plan, private
    arenas — see :meth:`_LeafGroup.replicate`) plus private routing
    scratch. :class:`CompiledSketch` checks a context out per predict
    call, so concurrent callers each own their scratch instead of
    serializing on an engine-wide lock.

    A context also pins the *entire epoch state* it was built from — the
    flat tree, the leaf→(group, slot) maps and the epoch counter — so a
    predict that checked out before a :meth:`CompiledSketch.swap_from`
    finishes on a mutually consistent (tree, weights) pair from the old
    epoch even while the sketch object already serves the new one.
    """

    __slots__ = (
        "tree",
        "groups",
        "leaf_group",
        "leaf_slot",
        "lg_list",
        "ls_list",
        "slot_identity",
        "epoch",
        "planned",
        "wlo",
        "whi",
        "last_lid",
        "warm_hits",
        "warm_misses",
        "input_dim",
        "_cap",
        "_node",
        "_rows",
        "_slots",
        "_idx",
        "_val",
        "_qv",
        "_go",
        "_rowbase",
        "_blo",
        "_bhi",
        "_bin",
        "_qT",
    )

    def __init__(self, sketch: "CompiledSketch", groups: list[_LeafGroup]) -> None:
        self.tree = sketch.tree
        self.groups = groups
        self.leaf_group = sketch.leaf_group
        self.leaf_slot = sketch.leaf_slot
        self.lg_list = sketch._lg_list
        self.ls_list = sketch._ls_list
        self.slot_identity = sketch._slot_identity
        self.input_dim = sketch.input_dim
        self.epoch = sketch.epoch
        # Replicas share an already lowered plan; only the primary context
        # may wrap groups whose plan is still to be built (at checkout).
        self.planned = all(g.has_plan for g in groups)
        # Same-leaf warm-start state: routing boxes as Python lists (shared,
        # read-only), the last-hit leaf, and hit/miss counters drained by the
        # sketch at check-in.
        self.wlo, self.whi = sketch._warm_boxes()
        self.last_lid = -1
        self.warm_hits = 0
        self.warm_misses = 0
        self._cap = 0
        self._node = None
        self._rows = None
        self._slots = None
        self._idx = self._val = self._qv = self._go = self._rowbase = None
        self._blo = self._bhi = self._bin = self._qT = None

    def ensure_arena(self, m: int) -> None:
        if m <= self._cap:
            return
        cap = max(2 * self._cap, m, 256)
        self._node = np.empty(cap, dtype=np.int64)
        self._rows = np.arange(cap)
        self._slots = np.empty(cap, dtype=np.int64)
        # Fused-routing scratch (see ``FlatTree.route_batch_into``).
        # ``_idx`` is ``intp`` because ``np.argmax(..., out=)`` insists on
        # it; the level-loop fallback gathers into it just the same.
        self._idx = np.empty(cap, dtype=np.intp)
        self._val = np.empty(cap, dtype=np.float64)
        self._qv = np.empty(cap, dtype=np.float64)
        self._go = np.empty(cap, dtype=bool)
        self._rowbase = self._rows * self.input_dim
        L = self.tree.n_leaves
        d = self.input_dim
        if L * d * cap <= BOX_CELL_CAP:
            self._blo = np.empty(cap * L * d, dtype=bool)
            self._bhi = np.empty(cap * L * d, dtype=bool)
            self._bin = np.empty(cap * L, dtype=bool)
            self._qT = np.empty(cap * d, dtype=np.float64)
        else:
            self._blo = self._bhi = self._bin = self._qT = None
        self._cap = cap


class CompiledSketch:
    """A fitted NeuroSketch flattened for fast inference.

    Build one with :meth:`from_sketch` (or ``NeuroSketch.compile()``); it
    holds no references to the source sketch and serializes independently
    (:meth:`to_dict`/:meth:`from_dict`, :meth:`save`/:meth:`load`), so
    persisted sketches load straight into the fast path. ``dtype`` selects
    the execution tier (see the module docstring); :meth:`with_dtype`
    re-tiers cheaply because the canonical weights are tier-independent.
    """

    def __init__(
        self,
        tree: FlatTree,
        groups: list[_LeafGroup],
        leaf_group: np.ndarray,
        leaf_slot: np.ndarray,
        input_dim: int,
    ) -> None:
        self.tree = tree
        self.groups = list(groups)
        self.leaf_group = np.asarray(leaf_group, dtype=np.int64)
        self.leaf_slot = np.asarray(leaf_slot, dtype=np.int64)
        self.input_dim = int(input_dim)
        if self.leaf_group.shape != (tree.n_leaves,) or self.leaf_slot.shape != (tree.n_leaves,):
            raise ValueError("leaf_group/leaf_slot must have one entry per tree leaf")
        for lid in range(tree.n_leaves):
            g, s = int(self.leaf_group[lid]), int(self.leaf_slot[lid])
            if not (0 <= g < len(self.groups)) or not (0 <= s < self.groups[g].n_leaves):
                raise ValueError(f"leaf {lid} maps to missing group slot ({g}, {s})")
        tiers = {g.dtype_name for g in self.groups}
        if len(tiers) != 1:
            raise ValueError(f"all leaf groups must share one dtype tier, got {sorted(tiers)}")
        self.dtype_name = tiers.pop()
        # Scalar-path leaf maps as Python lists.
        self._lg_list = self.leaf_group.tolist()
        self._ls_list = self.leaf_slot.tolist()
        # from_stack layouts map leaf id i to slot i; skip the gather then.
        self._slot_identity = bool(
            np.array_equal(self.leaf_slot, np.arange(tree.n_leaves))
        )
        # Replica pool: context 0 wraps the primary groups (their arenas
        # would otherwise sit idle); further contexts are scratch replicas
        # created on demand up to ``max_replicas``. Checked-out contexts are
        # exclusive, so concurrent predicts never share mutable state.
        self.max_replicas = DEFAULT_MAX_REPLICAS
        #: ``True`` (default) routes batches through the fused
        #: route->segment scheduler (counting sort into arenas, small-batch
        #: scalar fast path); ``False`` keeps the PR-5 argsort schedule —
        #: the ``sched_fuse_speedup`` BENCH baseline.
        self.fused_schedule = True
        self.epoch = 0
        self._pool = threading.Condition()
        # Workload observation counters, drained from contexts at check-in:
        # same-leaf warm-start hits/misses (scalar path) and the segment-size
        # distribution of batch calls (``segment_stats``).
        self._warm_hits = 0
        self._warm_misses = 0
        self._seg_batches = 0
        self._seg_rows = 0
        self._seg_segments = 0
        self._wb = None  # epoch-tagged warm-start leaf boxes
        self._idle = [_EngineContext(self, self.groups)]
        self._n_contexts = 1

    # ------------------------------------------------------------------ build

    @classmethod
    def from_sketch(cls, sketch, dtype: str = "float64") -> "CompiledSketch":
        """Compile a fitted :class:`~repro.core.neurosketch.NeuroSketch`."""
        if sketch.tree is None or not sketch.models:
            raise RuntimeError("cannot compile an unfitted NeuroSketch")
        resolve_dtype(dtype)
        tree = FlatTree.from_tree(sketch.tree)
        n_leaves = tree.n_leaves
        if set(sketch.models) != set(range(n_leaves)):
            raise ValueError(
                f"models cover leaf ids {sorted(sketch.models)} but the tree "
                f"has leaves 0..{n_leaves - 1}"
            )
        input_dim = int(sketch.input_dim)

        group_index: dict[tuple[int, ...], int] = {}
        buckets: list[dict] = []
        leaf_group = np.empty(n_leaves, dtype=np.int64)
        leaf_slot = np.empty(n_leaves, dtype=np.int64)
        for lid in range(n_leaves):
            regressor = sketch.models[lid].regressor
            model = regressor.model
            if not isinstance(model, MLP):
                raise TypeError(
                    "compiled inference supports MLP leaf models; leaf "
                    f"{lid} holds {type(model).__name__}"
                )
            dense = model.dense_layers
            signature = tuple(model.layer_sizes)
            if signature[0] != input_dim:
                raise ValueError(
                    f"leaf {lid} expects input dim {signature[0]}, sketch has {input_dim}"
                )
            g = group_index.setdefault(signature, len(buckets))
            if g == len(buckets):
                buckets.append(
                    {"signature": signature, "leaf_ids": [], "dense": [], "regs": []}
                )
            bucket = buckets[g]
            leaf_group[lid] = g
            leaf_slot[lid] = len(bucket["leaf_ids"])
            bucket["leaf_ids"].append(lid)
            bucket["dense"].append(dense)
            bucket["regs"].append(regressor)

        groups: list[_LeafGroup] = []
        for bucket in buckets:
            signature = bucket["signature"]
            n_layers = len(signature) - 1
            W = [
                np.stack([dense[li].W for dense in bucket["dense"]])
                for li in range(n_layers)
            ]
            b = [
                np.stack([dense[li].b for dense in bucket["dense"]])
                for li in range(n_layers)
            ]
            x_mean = np.stack(
                [
                    r.x_scaler.mean_ if r.x_scaler is not None else np.zeros(input_dim)
                    for r in bucket["regs"]
                ]
            )
            x_scale = np.stack(
                [
                    r.x_scaler.scale_ if r.x_scaler is not None else np.ones(input_dim)
                    for r in bucket["regs"]
                ]
            )
            y_mean = np.array(
                [
                    float(r.y_scaler.mean_) if r.y_scaler is not None else 0.0
                    for r in bucket["regs"]
                ]
            )
            y_scale = np.array(
                [
                    float(r.y_scaler.scale_) if r.y_scaler is not None else 1.0
                    for r in bucket["regs"]
                ]
            )
            groups.append(
                _LeafGroup(
                    list(signature),
                    bucket["leaf_ids"],
                    W,
                    b,
                    x_mean,
                    x_scale,
                    y_mean,
                    y_scale,
                    dtype=dtype,
                )
            )
        return cls(tree, groups, leaf_group, leaf_slot, input_dim)

    @classmethod
    def from_stack(
        cls,
        tree,
        stacked,
        x_scaler=None,
        y_scaler=None,
        leaf_ids: list[int] | None = None,
        dtype: str = "float64",
        pad_widths: bool = True,
    ) -> "CompiledSketch":
        """Build directly from an already-stacked model set.

        ``tree`` may be a :class:`~repro.core.kdtree.QueryKDTree` (flattened
        here) or an already-flat :class:`FlatTree` (the streaming retrain
        path rebuilds engines without keeping the object tree around).
        ``stacked`` is a :class:`~repro.nn.stacked.StackedMLP` whose slot
        ``k`` holds leaf ``leaf_ids[k]`` (default: slot order is leaf-id
        order); the optional stacked scalers
        (:class:`~repro.nn.stacked.StackedStandardScaler`) carry the per-leaf
        standardization statistics, which the leaf group immediately fuses
        into its execution plan for the requested ``dtype`` tier. This is
        what the stacked training backend hands over after a fit — same
        weight tensors, no unstack/restack round-trip through per-leaf MLP
        objects. The slots must cover *every* tree leaf
        (mixed-architecture sketches go through :meth:`from_sketch` instead).
        ``pad_widths`` is the SIMD-padding knob handed to the leaf group
        (see :data:`SIMD_LANES`); canonical weights stay unpadded either way.
        The engine takes the stack's weight tensors as its canonical
        weights without copying them, so the caller must not train or
        write the stack afterwards.
        """
        resolve_dtype(dtype)
        flat = tree if isinstance(tree, FlatTree) else FlatTree.from_tree(tree)
        n_leaves = stacked.n_leaves
        leaf_ids = list(range(n_leaves)) if leaf_ids is None else [int(i) for i in leaf_ids]
        if sorted(leaf_ids) != list(range(flat.n_leaves)):
            raise ValueError(
                f"stack slots cover leaf ids {sorted(leaf_ids)} but the tree "
                f"has leaves 0..{flat.n_leaves - 1}"
            )
        input_dim = int(stacked.layer_sizes[0])
        if x_scaler is not None:
            x_mean = np.array(x_scaler.mean_, dtype=np.float64)
            x_scale = np.array(x_scaler.scale_, dtype=np.float64)
        else:
            x_mean = np.zeros((n_leaves, input_dim))
            x_scale = np.ones((n_leaves, input_dim))
        if y_scaler is not None:
            y_mean = np.array(y_scaler.mean_, dtype=np.float64)
            y_scale = np.array(y_scaler.scale_, dtype=np.float64)
        else:
            y_mean = np.zeros(n_leaves)
            y_scale = np.ones(n_leaves)
        group = _LeafGroup(
            list(stacked.layer_sizes),
            leaf_ids,
            list(stacked.W),
            list(stacked.b),
            x_mean,
            x_scale,
            y_mean,
            y_scale,
            dtype=dtype,
            pad_widths=pad_widths,
        )
        leaf_group = np.zeros(flat.n_leaves, dtype=np.int64)
        leaf_slot = np.empty(flat.n_leaves, dtype=np.int64)
        for slot, lid in enumerate(leaf_ids):
            leaf_slot[lid] = slot
        return cls(flat, [group], leaf_group, leaf_slot, input_dim)

    @property
    def pad_widths(self) -> bool:
        """Whether this engine's execution plan uses SIMD-padded widths."""
        return self.groups[0].pad_widths

    def with_dtype(
        self,
        dtype: str,
        pad_widths: bool | None = None,
        fused_schedule: bool | None = None,
    ) -> "CompiledSketch":
        """This sketch on another execution tier (tree and weights shared).

        ``pad_widths``/``fused_schedule`` override the kernel knobs on the
        returned engine (``None`` inherits); the BENCH harness uses them to
        time the unpadded and unfused baselines against the same weights.
        """
        resolve_dtype(dtype)
        fs = self.fused_schedule if fused_schedule is None else bool(fused_schedule)
        pw = self.pad_widths if pad_widths is None else bool(pad_widths)
        if dtype == self.dtype_name and pw == self.pad_widths and fs == self.fused_schedule:
            return self
        groups = [g.with_dtype(dtype, pad_widths=pw) for g in self.groups]
        if any(g is mine for g, mine in zip(groups, self.groups)):
            # Same plan, different schedule flag: replicate so the two
            # engines' primary contexts never share mutable arenas.
            groups = [g.replicate() for g in groups]
        eng = CompiledSketch(
            self.tree,
            groups,
            self.leaf_group,
            self.leaf_slot,
            self.input_dim,
        )
        eng.fused_schedule = fs
        return eng

    # --------------------------------------------------------------- predict

    def _checkout(self) -> _EngineContext:
        """An exclusive execution context (grows the pool up to the cap)."""
        with self._pool:
            while True:
                if self._idle:
                    ctx = self._idle.pop()
                    if not ctx.planned:
                        for g in ctx.groups:
                            g.ensure_plan()
                        ctx.planned = True
                    return ctx
                if self._n_contexts < self.max_replicas:
                    self._n_contexts += 1
                    try:
                        return _EngineContext(self, [g.replicate() for g in self.groups])
                    except BaseException:
                        # The slot was claimed but never materialized (e.g.
                        # an allocation failure in replicate); without the
                        # rollback the pool capacity shrinks permanently and
                        # waiters can deadlock on contexts that will never
                        # check back in.
                        self._n_contexts -= 1
                        self._pool.notify()
                        raise
                self._pool.wait()

    def _warm_boxes(self) -> tuple[list, list]:
        """Per-leaf routing boxes for the same-leaf warm-start, as nested
        Python lists (the scalar path compares ~``input_dim`` floats per
        call; list indexing keeps that free of numpy dispatch). Computed once
        per epoch and shared read-only by every context. Callers hold the
        pool lock or run during construction."""
        wb = self._wb
        if wb is None or wb[0] != self.epoch:
            lo, hi = self.tree.leaf_boxes(self.input_dim)
            wb = (self.epoch, lo.tolist(), hi.tolist())
            self._wb = wb
        return wb[1], wb[2]

    def _checkin(self, ctx: _EngineContext) -> None:
        with self._pool:
            self._warm_hits += ctx.warm_hits
            self._warm_misses += ctx.warm_misses
            ctx.warm_hits = 0
            ctx.warm_misses = 0
            for g in ctx.groups:
                self._seg_batches += g.fb_batches
                self._seg_rows += g.fb_rows
                self._seg_segments += g.fb_segments
                g.fb_batches = 0
                g.fb_rows = 0
                g.fb_segments = 0
            if ctx.epoch != self.epoch:
                # The context predates a hot-swap: its groups hold the old
                # epoch's weights, so returning it to the idle list would
                # leak stale answers. Retire it and free the pool slot.
                self._n_contexts -= 1
            else:
                self._idle.append(ctx)
            self._pool.notify()

    def swap_from(self, other: "CompiledSketch") -> int:
        """Atomically adopt ``other``'s tree and weights; returns the new epoch.

        The streaming hot-swap seam: a maintenance pass builds a fresh
        engine (re-tiered from canonical float64) and installs it here
        without ever exposing a mixed state. Under the pool condition the
        tree, the leaf maps and the groups swap together and the epoch
        counter bumps; idle contexts are discarded and replaced with a
        fresh replica of the new epoch, while contexts already checked out
        keep their captured old-epoch state to completion and are retired —
        not pooled — on check-in. Callers therefore observe either the old
        epoch's answers or the new epoch's, never a mixture.
        """
        if other is self:
            raise ValueError("cannot swap a sketch from itself")
        if other.input_dim != self.input_dim:
            raise ValueError(
                f"input dim mismatch: {other.input_dim} != {self.input_dim}"
            )
        if other.dtype_name != self.dtype_name:
            raise ValueError(
                f"dtype tier mismatch: {other.dtype_name!r} != {self.dtype_name!r} "
                "(re-tier with with_dtype before swapping)"
            )
        with self._pool:
            self.tree = other.tree
            self.groups = list(other.groups)
            self.leaf_group = other.leaf_group
            self.leaf_slot = other.leaf_slot
            self._lg_list = other._lg_list
            self._ls_list = other._ls_list
            self._slot_identity = other._slot_identity
            self.epoch += 1
            # The warm-start and segment counters describe the retired
            # epoch's traffic; carrying them across a swap would skew the
            # hit rate and the auto-batch suggestion for the new weights.
            self._warm_hits = 0
            self._warm_misses = 0
            self._seg_batches = 0
            self._seg_rows = 0
            self._seg_segments = 0
            checked_out = self._n_contexts - len(self._idle)
            # Fresh primary context over *replicas* of the adopted groups:
            # ``other``'s own context 0 keeps exclusive use of their arenas.
            self._idle = [_EngineContext(self, [g.replicate() for g in self.groups])]
            self._n_contexts = checked_out + 1
            self._pool.notify_all()
            return self.epoch

    @property
    def n_replicas(self) -> int:
        """Execution contexts created so far (grows with peak concurrency)."""
        with self._pool:
            return self._n_contexts

    def replica_stats(self) -> dict:
        """Pool counters, e.g. for a serving layer's stats endpoint."""
        with self._pool:
            scalar_calls = self._warm_hits + self._warm_misses
            return {
                "replicas": self._n_contexts,
                "idle": len(self._idle),
                "max_replicas": self.max_replicas,
                "dtype": self.dtype_name,
                "epoch": self.epoch,
                "warm_hits": self._warm_hits,
                "warm_misses": self._warm_misses,
                "warm_hit_rate": (
                    self._warm_hits / scalar_calls if scalar_calls else 0.0
                ),
            }

    def segment_stats(self) -> dict:
        """Observed segment-size distribution of batch predicts.

        Each ``forward_batch`` call contributes its row count and the number
        of occupied leaf segments it split into; from those the mean rows
        per segment and the suggested micro-batch flush threshold are
        derived: enough rows that the *average* flush lands
        ``TARGET_SEGMENT_ROWS`` rows on every occupied segment, clamped to
        ``[MIN_AUTO_BATCH, MAX_AUTO_BATCH]``. ``suggested_max_batch`` falls
        back to ``DEFAULT_MAX_BATCH`` until any batch has been observed.
        This is what a ``MicroBatcher`` in ``max_batch_size="auto"`` mode
        polls. Batches below ``SMALL_BATCH_ROWS`` run the scalar kernel
        and do not contribute here; counters reset on ``swap_from`` so the
        suggestion tracks the live epoch's traffic.
        """
        with self._pool:
            batches = self._seg_batches
            rows = self._seg_rows
            segments = self._seg_segments
        mean_rows = rows / segments if segments else 0.0
        mean_segments = segments / batches if batches else 0.0
        if batches:
            suggested = int(round(TARGET_SEGMENT_ROWS * max(1.0, mean_segments)))
            suggested = max(MIN_AUTO_BATCH, min(MAX_AUTO_BATCH, suggested))
        else:
            suggested = DEFAULT_MAX_BATCH
        return {
            "batches": batches,
            "rows": rows,
            "segments": segments,
            "mean_segment_rows": mean_rows,
            "mean_segments_per_batch": mean_segments,
            "suggested_max_batch": suggested,
        }

    def predict(self, Q: np.ndarray) -> np.ndarray:
        """Answers for a batch of queries, shape ``(m,)`` (always float64)."""
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        if Q.shape[1] != self.input_dim:
            raise ValueError(f"expected queries of dim {self.input_dim}, got {Q.shape[1]}")
        m = Q.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.float64)
        out = np.empty(m, dtype=np.float64)
        ctx = self._checkout()
        try:
            if m == 1:
                # Single-row batches (the service's uncached ask path) skip
                # routing/segmentation and run the scalar kernel, so a
                # 1-query ``predict`` and ``predict_one`` answer identically.
                out[0] = self._predict_one_ctx(ctx, Q[0])
                return out
            if self.fused_schedule and m < SMALL_BATCH_ROWS:
                # Small-batch fast path: at this scale the scheduling
                # overhead exceeds the gemm advantage, so run the scalar
                # kernel row by row (same-leaf warm-start included).
                for i in range(m):
                    out[i] = self._predict_one_ctx(ctx, Q[i])
                return out
            ctx.ensure_arena(m)
            if self.fused_schedule and len(ctx.groups) == 1:
                if not Q.flags.c_contiguous:
                    Q = np.ascontiguousarray(Q)
                slots = ctx.tree.route_batch_into(Q, ctx)
                if not ctx.slot_identity:
                    slots = np.take(ctx.leaf_slot, slots, out=ctx._slots[:m])
                ctx.groups[0].forward_batch_sched(Q, slots, ctx._rows[:m], out=out)
                return out
            leaves = ctx.tree.route_batch(Q, node=ctx._node, rows=ctx._rows)
            if len(ctx.groups) == 1:
                if ctx.slot_identity:
                    slots = leaves
                else:
                    slots = np.take(ctx.leaf_slot, leaves, out=ctx._slots[:m])
                ctx.groups[0].forward_batch(Q, slots, out=out)
                return out
            gid = ctx.leaf_group[leaves]
            for g, group in enumerate(ctx.groups):
                sel = np.flatnonzero(gid == g)
                if sel.size:
                    out[sel] = group.forward_batch(Q[sel], ctx.leaf_slot[leaves[sel]])
        finally:
            self._checkin(ctx)
        return out

    def predict_one(self, q: np.ndarray) -> float:
        """Single-query fast path (exclusive scratch via the replica pool)."""
        q = np.asarray(q, dtype=np.float64).ravel()
        if q.shape[0] != self.input_dim:
            raise ValueError(f"expected a query of dim {self.input_dim}, got {q.shape[0]}")
        ctx = self._checkout()
        try:
            return self._predict_one_ctx(ctx, q)
        finally:
            self._checkin(ctx)

    def _predict_one_ctx(self, ctx: _EngineContext, q: np.ndarray) -> float:
        # Same-leaf warm-start: point workloads (trajectories, range sweeps)
        # tend to hit the leaf they hit last call. A leaf's routing region is
        # exactly ``lo < q <= hi`` of its box (routing sends ``q[d] <= val``
        # left), so the membership test is equivalent to a full route — the
        # tree walk is skipped only when it provably lands on the same leaf.
        lid = ctx.last_lid
        if lid >= 0:
            for x, lo, hi in zip(q, ctx.wlo[lid], ctx.whi[lid]):
                if x <= lo or x > hi:
                    break
            else:
                ctx.warm_hits += 1
                return ctx.groups[ctx.lg_list[lid]].forward_one(q, ctx.ls_list[lid])
        ctx.warm_misses += 1
        lid = ctx.tree.route_one(q)
        ctx.last_lid = lid
        return ctx.groups[ctx.lg_list[lid]].forward_one(q, ctx.ls_list[lid])

    def predict_padded(self, Q: np.ndarray) -> np.ndarray:
        """Reference padded-schedule batch predict (see
        :meth:`_LeafGroup.forward_batch_padded`); float64, pure, lock-free."""
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        if Q.shape[1] != self.input_dim:
            raise ValueError(f"expected queries of dim {self.input_dim}, got {Q.shape[1]}")
        m = Q.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.float64)
        with self._pool:  # one consistent epoch snapshot across a hot-swap
            tree, groups = self.tree, self.groups
            leaf_group, leaf_slot = self.leaf_group, self.leaf_slot
        leaves = tree.route_batch(Q)
        if len(groups) == 1:
            return groups[0].forward_batch_padded(Q, leaf_slot[leaves])
        out = np.empty(m, dtype=np.float64)
        gid = leaf_group[leaves]
        for g, group in enumerate(groups):
            sel = np.flatnonzero(gid == g)
            if sel.size:
                out[sel] = group.forward_batch_padded(Q[sel], leaf_slot[leaves[sel]])
        return out

    __call__ = predict

    # ------------------------------------------------------------------ size

    @property
    def n_leaves(self) -> int:
        return self.tree.n_leaves

    def num_params(self) -> int:
        return sum(g.num_params() for g in self.groups)

    def num_bytes(self) -> int:
        """Same storage accounting as the object path: float32 weights plus
        16 bytes per internal split node."""
        return self.num_params() * BYTES_PER_PARAM + 16 * self.tree.n_internal

    # ------------------------------------------------------------ persistence

    def to_dict(self) -> dict:
        return {
            "format": "compiled-sketch-v1",
            "dtype": self.dtype_name,
            "input_dim": self.input_dim,
            "tree": self.tree.to_dict(),
            "leaf_group": self.leaf_group.tolist(),
            "leaf_slot": self.leaf_slot.tolist(),
            "groups": [g.to_dict() for g in self.groups],
        }

    @classmethod
    def from_dict(cls, state: dict, dtype: str | None = None) -> "CompiledSketch":
        """Rebuild from a payload; ``dtype`` overrides the recorded tier.

        The serialized weights are canonical float64 regardless of tier, so
        any payload loads onto any tier; payloads predating the tiered
        engine carry no ``dtype`` key and default to ``float64``.
        """
        if state.get("format") != "compiled-sketch-v1":
            raise ValueError(f"not a compiled sketch payload: {state.get('format')!r}")
        tier = dtype if dtype is not None else state.get("dtype", "float64")
        resolve_dtype(tier)
        return cls(
            FlatTree.from_dict(state["tree"]),
            [_LeafGroup.from_dict(g, dtype=tier) for g in state["groups"]],
            np.asarray(state["leaf_group"]),
            np.asarray(state["leaf_slot"]),
            state["input_dim"],
        )

    def save(self, path: str) -> None:
        """Persist as gzipped JSON (mirrors ``NeuroSketch.save``)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path: str, dtype: str | None = None) -> "CompiledSketch":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), dtype=dtype)

    def save_npz(self, path: str) -> None:
        """Save as an uncompressed binary ``.npz`` that loads fast.

        The gzip-JSON artifact is the durable interchange format; this one
        loads in milliseconds — binary float64 arrays round-trip bit-exactly
        and skip JSON number parsing entirely. Same canonical (unfused)
        weights as :meth:`to_dict`, so :meth:`load_npz` rebuilds a
        bit-identical engine on any tier.
        """
        arrays = self.npz_payload()
        meta = {
            "format": "compiled-sketch-npz-v1",
            "dtype": self.dtype_name,
            "input_dim": self.input_dim,
            "n_groups": len(self.groups),
        }
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    def npz_payload(self) -> dict[str, np.ndarray]:
        """Canonical arrays of the ``.npz`` spill format (sans ``meta``).

        Exposed so composite artifacts — the streaming bundle embeds a
        compiled engine next to its own state — can carry the exact same
        arrays under the same keys and rebuild through
        :meth:`from_npz_payload`.
        """
        arrays: dict[str, np.ndarray] = {
            "tree_split_dim": self.tree.split_dim,
            "tree_split_val": self.tree.split_val,
            "tree_left": self.tree.left,
            "tree_right": self.tree.right,
            "tree_leaf_id": self.tree.leaf_id,
            "leaf_group": self.leaf_group,
            "leaf_slot": self.leaf_slot,
        }
        for gi, g in enumerate(self.groups):
            arrays[f"g{gi}_layer_sizes"] = np.asarray(g.layer_sizes, dtype=np.int64)
            arrays[f"g{gi}_leaf_ids"] = np.asarray(g.leaf_ids, dtype=np.int64)
            arrays[f"g{gi}_x_mean"] = g.x_mean
            arrays[f"g{gi}_x_scale"] = g.x_scale
            arrays[f"g{gi}_y_mean"] = g.y_mean
            arrays[f"g{gi}_y_scale"] = g.y_scale
            for li, (w, bias) in enumerate(zip(g.W, g.b)):
                arrays[f"g{gi}_W{li}"] = w
                arrays[f"g{gi}_b{li}"] = bias
        return arrays

    @classmethod
    def from_npz_payload(
        cls, payload, n_groups: int, input_dim: int, dtype: str
    ) -> "CompiledSketch":
        """Rebuild from :meth:`npz_payload` arrays (``payload`` is any mapping)."""
        resolve_dtype(dtype)
        tree = FlatTree(
            payload["tree_split_dim"],
            payload["tree_split_val"],
            payload["tree_left"],
            payload["tree_right"],
            payload["tree_leaf_id"],
        )
        groups = []
        for gi in range(int(n_groups)):
            layer_sizes = payload[f"g{gi}_layer_sizes"].tolist()
            n_layers = len(layer_sizes) - 1
            groups.append(
                _LeafGroup(
                    layer_sizes,
                    payload[f"g{gi}_leaf_ids"].tolist(),
                    [payload[f"g{gi}_W{li}"] for li in range(n_layers)],
                    [payload[f"g{gi}_b{li}"] for li in range(n_layers)],
                    payload[f"g{gi}_x_mean"],
                    payload[f"g{gi}_x_scale"],
                    payload[f"g{gi}_y_mean"],
                    payload[f"g{gi}_y_scale"],
                    dtype=dtype,
                )
            )
        return cls(
            tree,
            groups,
            payload["leaf_group"],
            payload["leaf_slot"],
            int(input_dim),
        )

    @classmethod
    def load_npz(cls, path: str, dtype: str | None = None) -> "CompiledSketch":
        """Rebuild from a :meth:`save_npz` file (what ``repro serve`` boots)."""
        with np.load(path) as payload:
            if "meta" not in payload.files:
                raise ValueError(f"not a compiled-sketch npz payload: {path}")
            meta = json.loads(bytes(payload["meta"]).decode("utf-8"))
            if meta.get("format") != "compiled-sketch-npz-v1":
                raise ValueError(
                    f"not a compiled-sketch npz payload: format {meta.get('format')!r}"
                )
            tier = dtype if dtype is not None else meta["dtype"]
            return cls.from_npz_payload(
                payload, meta["n_groups"], meta["input_dim"], dtype=tier
            )

    def __repr__(self) -> str:
        return (
            f"CompiledSketch(n_leaves={self.n_leaves}, groups={len(self.groups)}, "
            f"nodes={self.tree.n_nodes}, input_dim={self.input_dim}, "
            f"dtype={self.dtype_name})"
        )
