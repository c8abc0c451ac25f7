"""The mutable sketch: dirty-leaf tracking, partial retrain, hot-swap.

A :class:`StreamingSketch` wraps a canonical float64
:class:`~repro.core.compiled.CompiledSketch` (single leaf group, slot
``k`` = leaf ``k``) together with the live data
(:class:`~repro.stream.delta.DeltaStore`), the training workload
(``Q_train``/``y_train``) and a :class:`~repro.stream.policy
.MaintenancePolicy`. Mutations flow:

1. ``append``/``delete`` land in the delta store; the changed rows'
   normalized coordinates are intersected with the kd-tree's *query-space
   leaf boxes* (:meth:`~repro.core.compiled.FlatTree.leaf_boxes`) to find
   every leaf partition whose queries can reach a changed row — those
   leaves are **dirty**.
2. Dirty leaves' training labels are refreshed: COUNT/SUM apply an exact
   per-query delta from just the changed rows; other aggregates rescan
   the live data.
3. The policy gates retraining on accumulated dirty-row counts and label
   drift. Approved leaves retrain as a stack of their own: the stacked
   trainer sees only those leaves, so the optimizer state, scratch and
   best-parameter copies of a retrain — and its time — scale with the
   number of dirty leaves, not with the sketch. Their weights are written
   into a copy of the canonical weights, where clean slots keep their
   current values bit-exactly.
4. That stack compiles to a fresh canonical engine, re-tiers to
   every registered serving dtype, and lands via
   :meth:`~repro.core.compiled.CompiledSketch.swap_from` — in-flight
   batches finish on the old epoch, new calls see the new one, never a
   mixture.

Retraining is deterministic by construction: dirty slot ``l`` at epoch
``e`` initializes and shuffles from seeds derived as ``(seed, e, l)``, so
two sketches that apply the same mutation sequence — e.g. a served sketch
and an in-process reference — produce bit-identical engines.
"""

from __future__ import annotations

import copy
import json
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.compiled import (
    DEFAULT_SERVING_DTYPE,
    CompiledSketch,
    resolve_dtype,
)
from repro.core.kdtree import QueryKDTree
from repro.data.dataset import Dataset
from repro.nn.network import MLP, mlp_architecture
from repro.nn.scalers import StackedStandardScaler
from repro.nn.stacked import StackedMLP, StackedTrainer
from repro.nn.train_core import TrainConfig
from repro.queries.aggregates import get_aggregate
from repro.queries.executor import ExactEngine
from repro.queries.predicates import AxisRangePredicate
from repro.stream.delta import DeltaStore
from repro.stream.policy import MaintenancePolicy

#: Aggregates whose labels update from the changed rows alone (no rescan):
#: COUNT and SUM are additive over rows, so an append/delete contributes an
#: exact signed per-query delta.
DELTA_AGGREGATES = ("COUNT", "SUM")

#: Cap on |queries| x |changed rows| per block in the exact-delta path.
_DELTA_BLOCK_CELLS = 4_000_000

#: Cap on |leaves| x |changed rows| x |active attrs| per dirty-marking block.
_DIRTY_BLOCK_CELLS = 8_000_000

#: Where an ingest's time goes: the mutation with its dirty marking and
#: label refresh, the retrain of approved leaves, and (in the serving
#: layer) the answer-cache invalidation.
STAGES = ("apply_s", "retrain_s", "invalidate_s")


@dataclass
class IngestResult:
    """What one mutation did to the sketch."""

    op: str
    appended: int
    deleted: int
    dirty_leaves: list[int]
    retrained_leaves: list[int]
    swapped: bool
    epoch: int
    data_version: int
    #: Query-space boxes of the dirty leaves (one row per dirty leaf;
    #: unconstrained sides are +-inf) — what a serving cache invalidates.
    dirty_lo: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    dirty_hi: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    #: Seconds spent applying the mutation and retraining (both 0 when
    #: there was nothing to do).
    apply_s: float = 0.0
    retrain_s: float = 0.0

    def to_dict(self) -> dict:
        """Wire-friendly summary (the boxes stay server-side)."""
        return {
            "op": self.op,
            "appended": self.appended,
            "deleted": self.deleted,
            "dirty_leaves": list(self.dirty_leaves),
            "retrained_leaves": list(self.retrained_leaves),
            "swapped": self.swapped,
            "epoch": self.epoch,
            "data_version": self.data_version,
        }


def summarize(results: list[IngestResult]) -> dict:
    """The summary of one ingest call that applied ``results`` in order:
    what ``repro ingest`` prints and the serving layer answers, with
    ``stages`` holding the call's apply and retrain seconds."""
    return {
        "op": "+".join(r.op for r in results),
        "appended": sum(r.appended for r in results),
        "deleted": sum(r.deleted for r in results),
        "dirty_leaves": sorted({l for r in results for l in r.dirty_leaves}),
        "retrained_leaves": sorted({l for r in results for l in r.retrained_leaves}),
        "swapped": any(r.swapped for r in results),
        "epoch": results[-1].epoch,
        "data_version": results[-1].data_version,
        "stages": {
            "apply_s": sum(r.apply_s for r in results),
            "retrain_s": sum(r.retrain_s for r in results),
        },
    }


class StreamingSketch:
    """A compiled sketch that accepts appends and deletes while serving.

    Build one with :meth:`build` (fresh fit) or :func:`load_stream_sketch`
    (a saved bundle). ``predict``/``predict_one`` serve from the engine of
    :attr:`serving_dtype`; :meth:`with_dtype` returns a view on another
    tier that *shares* all mutable state, so one ingest updates every
    tier's engine.

    The canonical engine must hold a single uniform-architecture leaf
    group in slot-identity layout (what :meth:`~repro.core.compiled
    .CompiledSketch.from_stack` produces) — incremental retraining patches
    leaf slots in place, which only makes sense when every leaf is
    trainable and addressable by id.
    """

    FORMAT = "stream-sketch-npz-v1"

    def __init__(
        self,
        canonical: CompiledSketch,
        predicate: AxisRangePredicate,
        aggregate,
        store: DeltaStore,
        Q_train: np.ndarray,
        y_train: np.ndarray,
        config: TrainConfig,
        policy: MaintenancePolicy | None = None,
        seed: int = 0,
        serving_dtype: str = DEFAULT_SERVING_DTYPE,
        epoch: int = 0,
        data_version: int = 0,
        y_snapshot: np.ndarray | None = None,
        pending: np.ndarray | None = None,
    ) -> None:
        if canonical.dtype_name != "float64":
            raise ValueError("the canonical engine must be the float64 tier")
        if len(canonical.groups) != 1 or not canonical._slot_identity:
            raise ValueError(
                "streaming maintenance needs a single-group, slot-identity "
                "engine (build via StreamingSketch.build or from_stack)"
            )
        if not isinstance(predicate, AxisRangePredicate):
            raise TypeError("streaming ingest supports axis-range predicates")
        if predicate.param_dim != canonical.input_dim:
            raise ValueError(
                f"predicate param dim {predicate.param_dim} != engine input "
                f"dim {canonical.input_dim}"
            )
        resolve_dtype(serving_dtype)
        self.predicate = predicate
        self.aggregate = get_aggregate(aggregate)
        self.store = store
        self.Q_train = np.atleast_2d(np.asarray(Q_train, dtype=np.float64))
        self.y_train = np.asarray(y_train, dtype=np.float64).copy()
        if self.Q_train.shape != (self.y_train.shape[0], predicate.param_dim):
            raise ValueError("Q_train/y_train shapes do not match the predicate")
        self.config = config
        self.policy = policy or MaintenancePolicy()
        self.seed = int(seed)
        self.serving_dtype = serving_dtype
        # Mutable scalars live in a dict shared by every with_dtype view,
        # so an ingest through any view is visible to all of them.
        self._mut = {
            "canonical": canonical,
            "epoch": int(epoch),
            "data_version": int(data_version),
            # (ExactEngine over the live rows, store.n_total it covers):
            # built on first use, extended by appends, dropped by deletes.
            "labels": None,
            # Running seconds per ingest stage (see STAGES).
            "stages": dict.fromkeys(STAGES, 0.0),
        }
        self._y_snapshot = (
            self.y_train.copy()
            if y_snapshot is None
            else np.asarray(y_snapshot, dtype=np.float64).copy()
        )
        n_leaves = canonical.tree.n_leaves
        self._pending = (
            np.zeros(n_leaves, dtype=np.int64)
            if pending is None
            else np.asarray(pending, dtype=np.int64).copy()
        )
        if self._pending.shape != (n_leaves,):
            raise ValueError("pending counters need one entry per leaf")
        self._lock = threading.RLock()
        # The engines registry has its own lock so predicts never wait on
        # an in-flight ingest: serving continues on the old epoch until the
        # retrain swaps, which is the whole point of the hot-swap seam.
        self._eng_lock = threading.Lock()
        self._engines: dict[str, CompiledSketch] = {}
        self._leaf_of_query = canonical.tree.route_batch(self.Q_train)
        self._q_by_leaf = [
            np.flatnonzero(self._leaf_of_query == l) for l in range(n_leaves)
        ]
        if any(idx.size == 0 for idx in self._q_by_leaf):
            raise ValueError("every leaf needs at least one training query")

    # ------------------------------------------------------------------ build

    @classmethod
    def build(
        cls,
        dataset: Dataset,
        Q_train: np.ndarray,
        aggregate="AVG",
        active_attrs=None,
        fixed_range=None,
        tree_height: int = 6,
        depth: int = 5,
        width_first: int = 60,
        width_rest: int = 30,
        config: TrainConfig | None = None,
        policy: MaintenancePolicy | None = None,
        seed: int = 0,
        serving_dtype: str = DEFAULT_SERVING_DTYPE,
    ) -> "StreamingSketch":
        """Fit a fresh mutable sketch on a dataset and training workload.

        The kd-tree is built ungrouped and unmerged (every leaf keeps its
        own trainable slot — the precondition for incremental retraining);
        training uses the stacked backend with the epoch-0 seed schedule,
        so a later full rebuild on the same data is bit-reproducible.
        """
        if active_attrs is None:
            active_idx = tuple(range(dataset.dim))
        else:
            active_idx = tuple(
                dataset.column_index(a) if isinstance(a, str) else int(a)
                for a in active_attrs
            )
        fixed_r = None
        if fixed_range is not None:
            fixed_r = (
                [float(fixed_range)] * len(active_idx)
                if np.isscalar(fixed_range)
                else list(fixed_range)
            )
        predicate = AxisRangePredicate(dataset.dim, active_idx, fixed_r=fixed_r)
        Q_train = np.atleast_2d(np.asarray(Q_train, dtype=np.float64))
        aggregate = get_aggregate(aggregate)
        engine = ExactEngine(dataset.X, dataset.measure_values)
        y_train = engine.answer(predicate, Q_train, aggregate)

        tree = QueryKDTree(Q_train, tree_height)
        config = config or TrainConfig()
        layer_sizes = mlp_architecture(
            predicate.param_dim, depth=depth, width_first=width_first, width_rest=width_rest
        )
        canonical = _fit_canonical(
            tree, Q_train, y_train, layer_sizes, config, seed, epoch=0
        )
        return cls(
            canonical,
            predicate,
            aggregate,
            DeltaStore.from_dataset(dataset),
            Q_train,
            y_train,
            config,
            policy=policy,
            seed=seed,
            serving_dtype=serving_dtype,
        )

    # ------------------------------------------------------------- properties

    @property
    def canonical(self) -> CompiledSketch:
        """The canonical float64 engine holding the current epoch's weights."""
        return self._mut["canonical"]

    @property
    def epoch(self) -> int:
        return self._mut["epoch"]

    @property
    def data_version(self) -> int:
        return self._mut["data_version"]

    @property
    def n_leaves(self) -> int:
        return self.canonical.tree.n_leaves

    @property
    def input_dim(self) -> int:
        return self.canonical.input_dim

    @property
    def dtype_name(self) -> str:
        """The serving tier (mirrors ``CompiledSketch.dtype_name``)."""
        return self.serving_dtype

    def num_params(self) -> int:
        return self.canonical.num_params()

    def num_bytes(self) -> int:
        return self.canonical.num_bytes()

    @property
    def max_replicas(self) -> int:
        return self.canonical.max_replicas

    @max_replicas.setter
    def max_replicas(self, value: int) -> None:
        """Raise the replica cap on the canonical and every serving engine
        (new engines inherit the canonical's cap via ``_fresh_engine``)."""
        self.canonical.max_replicas = int(value)
        with self._eng_lock:
            engines = list(self._engines.values())
        for eng in engines:
            eng.max_replicas = max(eng.max_replicas, int(value))

    # ---------------------------------------------------------------- serving

    def engine(self, dtype: str | None = None) -> CompiledSketch:
        """The stable serving engine of a tier (created once, then swapped
        in place by retrains, so callers may hold onto it)."""
        tier = self.serving_dtype if dtype is None else dtype
        resolve_dtype(tier)
        with self._eng_lock:
            eng = self._engines.get(tier)
            if eng is None:
                eng = _fresh_engine(self.canonical, tier)
                self._engines[tier] = eng
            return eng

    def predict(self, Q: np.ndarray) -> np.ndarray:
        return self.engine().predict(Q)

    def predict_one(self, q: np.ndarray) -> float:
        return self.engine().predict_one(q)

    __call__ = predict

    def with_dtype(self, dtype: str) -> "StreamingSketch":
        """A view of this sketch serving on another tier.

        The view shares *all* mutable state (delta store, labels, engines,
        lock, epoch), so ingesting through any view hot-swaps every tier.
        """
        resolve_dtype(dtype)
        if dtype == self.serving_dtype:
            return self
        view = copy.copy(self)
        view.serving_dtype = dtype
        view.engine(dtype)
        return view

    def replica_stats(self) -> dict:
        return self.engine().replica_stats()

    # ------------------------------------------------------------- mutations

    def append(self, rows_raw: np.ndarray) -> IngestResult:
        """Append raw data rows; retrain and hot-swap if the policy says so."""
        with self._lock:
            t0 = time.perf_counter()
            Xn = self.store.append(rows_raw)
            k = Xn.shape[0]
            measure = np.atleast_2d(np.asarray(rows_raw, dtype=np.float64))[
                :, self.store.measure_index
            ]
            return self._apply(
                "append", Xn, measure, np.ones(k), appended=k, deleted=0, t0=t0
            )

    def delete(self, lo_raw: np.ndarray, hi_raw: np.ndarray) -> IngestResult:
        """Delete live rows in the raw-space box ``[lo, hi)``; maybe retrain."""
        with self._lock:
            t0 = time.perf_counter()
            Xn = self.store.delete(lo_raw, hi_raw)
            k = Xn.shape[0]
            if k:
                self._mut["labels"] = None  # rebuilt over the live rows on next use
            raw = self.store.scaler.inverse_transform(Xn) if k else Xn
            measure = raw[:, self.store.measure_index] if k else np.empty(0)
            return self._apply(
                "delete", Xn, measure, -np.ones(k), appended=0, deleted=k, t0=t0
            )

    def _apply(
        self,
        op: str,
        Xn: np.ndarray,
        measure: np.ndarray,
        signs: np.ndarray,
        appended: int,
        deleted: int,
        t0: float,
    ) -> IngestResult:
        """Dirty-mark, refresh labels, maybe retrain + swap. Lock held;
        ``t0`` is when the mutation started, for the stage timings."""
        mut = self._mut
        if appended == 0 and deleted == 0:
            return IngestResult(
                op, 0, 0, [], [], False, mut["epoch"], mut["data_version"]
            )
        mut["data_version"] += 1
        counts = self._dirty_counts(Xn)
        dirty = np.flatnonzero(counts)
        self._pending[dirty] += counts[dirty]
        if dirty.size:
            self._refresh_labels(dirty, Xn, measure, signs)
        retrained: list[int] = []
        for l in np.flatnonzero(self._pending > 0):
            if self.policy.should_retrain(int(self._pending[l]), self._drift(int(l))):
                retrained.append(int(l))
        apply_s = time.perf_counter() - t0
        retrain_s = self._retrain(retrained) if retrained else 0.0
        self.record_stage("apply_s", apply_s)
        lo, hi = self._leaf_boxes()
        return IngestResult(
            op,
            appended,
            deleted,
            [int(l) for l in dirty],
            retrained,
            bool(retrained),
            mut["epoch"],
            mut["data_version"],
            dirty_lo=lo[dirty],
            dirty_hi=hi[dirty],
            apply_s=apply_s,
            retrain_s=retrain_s,
        )

    def preview_dirty(self, rows_raw: np.ndarray) -> np.ndarray:
        """Which leaves would appending these raw rows dirty? (No mutation —
        what an operator checks before scheduling a large batch.)"""
        with self._lock:
            rows = np.atleast_2d(np.asarray(rows_raw, dtype=np.float64))
            return np.flatnonzero(self._dirty_counts(self.store.scaler.transform(rows)))

    def retrain_pending(self) -> IngestResult:
        """Force-retrain every leaf with pending changes, policy aside.

        The operator-triggered maintenance flush: appends accumulated under
        a lenient policy are folded into the weights now. No-op (and no
        epoch bump) when nothing is pending.
        """
        with self._lock:
            mut = self._mut
            pending = [int(l) for l in np.flatnonzero(self._pending > 0)]
            retrain_s = self._retrain(pending) if pending else 0.0
            lo, hi = self._leaf_boxes()
            idx = np.asarray(pending, dtype=np.int64)
            return IngestResult(
                "retrain",
                0,
                0,
                pending,
                pending,
                bool(pending),
                mut["epoch"],
                mut["data_version"],
                dirty_lo=lo[idx],
                dirty_hi=hi[idx],
                retrain_s=retrain_s,
            )

    def record_stage(self, stage: str, seconds: float) -> None:
        """Add ``seconds`` to the running total of an ingest stage (one of
        :data:`STAGES`); ``stats()["stages"]`` reports the totals. The
        serving layer records ``invalidate_s`` here, since the answer cache
        is its own."""
        with self._lock:
            self._mut["stages"][stage] += float(seconds)

    def rebuild(self) -> CompiledSketch:
        """Retrain *every* leaf from scratch on the current labels.

        Returns the freshly fitted float64 engine without swapping it in —
        the rebuild-from-scratch reference that incremental maintenance is
        benchmarked against. Uses the next epoch's seed schedule, so the
        dirty slots of a subsequent :meth:`retrain_pending` initialize
        identically to their rebuilt counterparts.
        """
        with self._lock:
            canonical = self.canonical
            return _fit_canonical(
                canonical.tree,
                self.Q_train,
                self.y_train,
                canonical.groups[0].layer_sizes,
                self.config,
                self.seed,
                epoch=self.epoch + 1,
            )

    # ---------------------------------------------------------- dirty marking

    def _leaf_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Query-space leaf boxes (memoised on the immutable tree)."""
        return self.canonical.tree.leaf_boxes(self.predicate.param_dim)

    def _dirty_counts(self, Xn: np.ndarray) -> np.ndarray:
        """How many of the changed (normalized) rows each leaf can reach.

        Leaf ``L`` is dirty for row ``x`` iff some query in ``L``'s box
        matches ``x``: per active attribute ``j`` that needs a corner
        ``c_j <= x_j`` reachable in the box and enough range to cover it,
        i.e. ``lo_c[j] <= x_j < hi_c[j] + r_max[j]`` (``r_max`` the box's
        largest range, or the predicate's fixed range). Boxes are clamped
        to the unit query cube first — the workload's queries live there —
        and rows outside ``[0, 1)`` on an inactive attribute match no
        query at all.
        """
        pred = self.predicate
        L = self.n_leaves
        out = np.zeros(L, dtype=np.int64)
        k = Xn.shape[0]
        if k == 0:
            return out
        a = pred.n_active
        act = list(pred.active_attrs)
        lo, hi = self._leaf_boxes()
        lo_c = np.clip(lo[:, :a], 0.0, 1.0)[:, None, :]
        hi_c = np.clip(hi[:, :a], 0.0, 1.0)[:, None, :]
        if pred.fixed_r is not None:
            reach = hi_c + pred.fixed_r[None, None, :]
        else:
            reach = hi_c + np.clip(hi[:, a:], 0.0, 1.0)[:, None, :]
        inactive = [j for j in range(pred.n_attrs) if j not in set(act)]
        block = max(1, _DIRTY_BLOCK_CELLS // max(1, L * a))
        for start in range(0, k, block):
            stop = min(k, start + block)
            xa = Xn[start:stop, act][None, :, :]
            ok = np.all((lo_c <= xa) & (xa < reach), axis=2)
            if inactive:
                xi = Xn[start:stop][:, inactive]
                ok &= np.all((xi >= 0.0) & (xi < 1.0), axis=1)[None, :]
            out += ok.sum(axis=1)
        return out

    # --------------------------------------------------------- label refresh

    def _refresh_labels(
        self, dirty: np.ndarray, Xn: np.ndarray, measure: np.ndarray, signs: np.ndarray
    ) -> None:
        """Bring dirty leaves' training labels up to the post-mutation data."""
        q_idx = np.concatenate([self._q_by_leaf[int(l)] for l in dirty])
        if self.aggregate.name in DELTA_AGGREGATES and Xn.shape[0] > 0:
            lo_q, hi_q = self.predicate.batch_bounds(self.Q_train[q_idx])
            weights = signs if self.aggregate.name == "COUNT" else signs * measure
            k, d = Xn.shape
            block = max(1, _DELTA_BLOCK_CELLS // max(1, k * d))
            for start in range(0, q_idx.size, block):
                stop = min(q_idx.size, start + block)
                match = np.all(
                    (Xn[None, :, :] >= lo_q[start:stop, None, :])
                    & (Xn[None, :, :] < hi_q[start:stop, None, :]),
                    axis=2,
                )
                self.y_train[q_idx[start:stop]] += match @ weights
        else:
            self.y_train[q_idx] = self._label_engine().answer(
                self.predicate, self.Q_train[q_idx], self.aggregate
            )

    def _label_engine(self) -> ExactEngine:
        """An exact engine over the live rows, kept across appends.

        Rows appended since it was built are merged into its index
        (:meth:`ExactEngine.extend`), which is bitwise equal to indexing
        the live rows afresh; only after a delete is it rebuilt. Lock held.
        """
        store = self.store
        held = self._mut["labels"]
        if held is None:
            engine = ExactEngine(store.live_X, store.live_measure)
        else:
            engine, n_total = held
            if store.n_total > n_total:
                # No delete since it was built, so every later row is live.
                rows = store.appended_raw[n_total - store.base_raw.shape[0] :]
                engine = engine.extend(
                    store.scaler.transform(rows), rows[:, store.measure_index]
                )
        self._mut["labels"] = (engine, store.n_total)
        return engine

    def _drift(self, leaf: int) -> float:
        """Relative label drift of a leaf since its last retrain."""
        idx = self._q_by_leaf[leaf][: self.policy.probe_queries]
        now = self.y_train[idx]
        then = self._y_snapshot[idx]
        return float(np.max(np.abs(now - then) / (np.abs(then) + 1e-12)))

    # --------------------------------------------------------------- retrain

    def _retrain(self, retrain_ids: list[int]) -> float:
        """Refit the given leaf slots and hot-swap every tier. Lock held.

        Only the retrained leaves enter the stacked fit, so the fit's
        memory and time scale with their number. Their weights and scaler
        statistics land in a copy of the canonical group's; clean slots
        keep theirs bit-exactly (a per-leaf scaler fit depends on that
        leaf's rows alone, so refitting a clean leaf on the labels it was
        last trained on would reproduce its statistics anyway). Returns
        the seconds it took.
        """
        t0 = time.perf_counter()
        mut = self._mut
        canonical: CompiledSketch = mut["canonical"]
        group = canonical.groups[0]
        new_epoch = mut["epoch"] + 1

        models = [
            MLP(group.layer_sizes, seed=np.random.default_rng([self.seed, new_epoch, l, 0]))
            for l in retrain_ids
        ]
        result = StackedTrainer(self.config).fit(
            models,
            [self.Q_train[self._q_by_leaf[l]] for l in retrain_ids],
            [self.y_train[self._q_by_leaf[l]] for l in retrain_ids],
            seeds=[[self.seed, new_epoch, l, 1] for l in retrain_ids],
        )
        W = [w.copy() for w in group.W]
        b = [bias.copy() for bias in group.b]
        for li in range(len(W)):
            W[li][retrain_ids] = result.stacked.W[li]
            b[li][retrain_ids] = result.stacked.b[li]
        scalers = []
        for mean, scale, fitted in (
            (group.x_mean, group.x_scale, result.x_scaler),
            (group.y_mean, group.y_scale, result.y_scaler),
        ):
            scaler = StackedStandardScaler()
            scaler.mean_, scaler.scale_ = mean.copy(), scale.copy()
            if fitted is not None:
                scaler.mean_[retrain_ids] = fitted.mean_
                scaler.scale_[retrain_ids] = fitted.scale_
            scalers.append(scaler)
        new_canonical = CompiledSketch.from_stack(
            canonical.tree,
            StackedMLP(group.layer_sizes, W, b),
            x_scaler=scalers[0],
            y_scaler=scalers[1],
            dtype="float64",
        )
        new_canonical.max_replicas = canonical.max_replicas

        mut["canonical"] = new_canonical
        mut["epoch"] = new_epoch
        for l in retrain_ids:
            idx = self._q_by_leaf[l]
            self._y_snapshot[idx] = self.y_train[idx]
        self._pending[retrain_ids] = 0
        # Canonical was rebound above, so any engine materialized after this
        # point is already on the new epoch; snapshotting the registry under
        # its lock catches every engine created before.
        with self._eng_lock:
            engines = list(self._engines.items())
        for tier, eng in engines:
            eng.swap_from(_fresh_engine(new_canonical, tier))
        retrain_s = time.perf_counter() - t0
        self.record_stage("retrain_s", retrain_s)
        return retrain_s

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        with self._lock:
            return {
                "epoch": self.epoch,
                "data_version": self.data_version,
                "n_leaves": self.n_leaves,
                "n_live_rows": self.store.n_live,
                "n_total_rows": self.store.n_total,
                "appended_rows": int(self.store.appended_raw.shape[0]),
                "pending_leaves": int((self._pending > 0).sum()),
                "serving_dtype": self.serving_dtype,
                "tiers": sorted(self._engines),
                "aggregate": self.aggregate.name,
                "stages": dict(self._mut["stages"]),
            }

    # ------------------------------------------------------------ persistence

    def save_npz(self, path: str) -> None:
        """Persist the full mutable state as one binary bundle.

        The bundle embeds the canonical engine's exact
        :meth:`~repro.core.compiled.CompiledSketch.npz_payload` arrays next
        to the stream state, so :func:`load_stream_sketch` rebuilds a
        bit-identical sketch — including the deterministic retrain seed
        schedule, which is what makes a loaded worker's post-ingest
        weights byte-for-byte equal to the in-process sketch's.
        """
        with self._lock:
            canonical = self.canonical
            arrays = canonical.npz_payload()
            arrays.update(self.store.to_arrays())
            arrays["stream_Q_train"] = self.Q_train
            arrays["stream_y_train"] = self.y_train
            arrays["stream_y_snapshot"] = self._y_snapshot
            arrays["stream_pending"] = self._pending
            pred = self.predicate
            meta = {
                "format": self.FORMAT,
                "n_groups": len(canonical.groups),
                "input_dim": canonical.input_dim,
                "serving_dtype": self.serving_dtype,
                "epoch": self.epoch,
                "data_version": self.data_version,
                "seed": self.seed,
                "aggregate": self.aggregate.name,
                "measure_index": self.store.measure_index,
                "config": asdict(self.config),
                "policy": self.policy.to_dict(),
                "predicate": {
                    "n_attrs": pred.n_attrs,
                    "active_attrs": list(pred.active_attrs),
                    "fixed_r": None if pred.fixed_r is None else pred.fixed_r.tolist(),
                },
            }
            arrays["meta"] = np.frombuffer(
                json.dumps(meta).encode("utf-8"), dtype=np.uint8
            )
            with open(path, "wb") as fh:
                np.savez(fh, **arrays)


def _fresh_engine(canonical: CompiledSketch, tier: str) -> CompiledSketch:
    """A new serving engine on ``tier`` over the canonical weights.

    Same-tier engines get *replicated* groups (shared weights and plan,
    private scratch arenas) so the canonical engine's own context never
    shares mutable state with a serving engine's.
    """
    if tier == canonical.dtype_name:
        eng = CompiledSketch(
            canonical.tree,
            [g.replicate() for g in canonical.groups],
            canonical.leaf_group,
            canonical.leaf_slot,
            canonical.input_dim,
        )
    else:
        eng = canonical.with_dtype(tier)
    eng.max_replicas = max(eng.max_replicas, canonical.max_replicas)
    return eng


def _fit_canonical(
    tree,
    Q_train: np.ndarray,
    y_train: np.ndarray,
    layer_sizes: list[int],
    config: TrainConfig,
    seed: int,
    epoch: int,
) -> CompiledSketch:
    """Stacked fit of every leaf with the deterministic seed schedule."""
    from repro.core.compiled import FlatTree

    flat = tree if isinstance(tree, FlatTree) else FlatTree.from_tree(tree)
    leaf_of_query = flat.route_batch(Q_train)
    L = flat.n_leaves
    models = []
    Qs = []
    ys = []
    seeds = []
    for l in range(L):
        idx = np.flatnonzero(leaf_of_query == l)
        if idx.size == 0:
            raise ValueError(f"leaf {l} has no training queries")
        Qs.append(Q_train[idx])
        ys.append(y_train[idx])
        models.append(
            MLP(layer_sizes, seed=np.random.default_rng([int(seed), int(epoch), l, 0]))
        )
        seeds.append([int(seed), int(epoch), l, 1])
    result = StackedTrainer(config).fit(models, Qs, ys, seeds=seeds)
    return result.compile(flat, dtype="float64")


def is_stream_bundle(path: str) -> bool:
    """Is this ``.npz`` file a :meth:`StreamingSketch.save_npz` bundle?"""
    try:
        with np.load(path) as payload:
            if "meta" not in payload.files:
                return False
            meta = json.loads(bytes(payload["meta"]).decode("utf-8"))
    except Exception:
        return False
    return isinstance(meta, dict) and meta.get("format") == StreamingSketch.FORMAT


def load_stream_sketch(path: str, serving_dtype: str | None = None) -> StreamingSketch:
    """Rebuild a :class:`StreamingSketch` from a :meth:`~StreamingSketch
    .save_npz` bundle (bit-identical state)."""
    with np.load(path) as payload:
        if "meta" not in payload.files:
            raise ValueError(f"not a stream-sketch bundle: {path}")
        meta = json.loads(bytes(payload["meta"]).decode("utf-8"))
        if meta.get("format") != StreamingSketch.FORMAT:
            raise ValueError(
                f"not a stream-sketch bundle: format {meta.get('format')!r}"
            )
        canonical = CompiledSketch.from_npz_payload(
            payload, meta["n_groups"], meta["input_dim"], dtype="float64"
        )
        store = DeltaStore.from_arrays(payload, meta["measure_index"])
        spec = meta["predicate"]
        predicate = AxisRangePredicate(
            spec["n_attrs"], spec["active_attrs"], fixed_r=spec["fixed_r"]
        )
        return StreamingSketch(
            canonical,
            predicate,
            meta["aggregate"],
            store,
            payload["stream_Q_train"],
            payload["stream_y_train"],
            TrainConfig(**meta["config"]),
            policy=MaintenancePolicy.from_dict(meta["policy"]),
            seed=meta["seed"],
            serving_dtype=serving_dtype or meta["serving_dtype"],
            epoch=meta["epoch"],
            data_version=meta["data_version"],
            y_snapshot=payload["stream_y_snapshot"],
            pending=payload["stream_pending"],
        )
