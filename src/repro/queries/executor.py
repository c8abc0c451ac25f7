"""Exact query-function evaluation.

This is the "ground truth" engine: it computes ``f_D(q)`` exactly. For
axis-aligned ranges it answers from a per-attribute sorted index that
:class:`ExactEngine` builds once, at construction: ``X`` transposed, and per
attribute a stable argsort of the rows plus the sorted keys. A query's
``[lo, hi)`` bound on one attribute is then a contiguous slice of that
attribute's sort order, found by ``searchsorted``. Each query takes the
attribute whose slice holds the fewest rows, tests its other bounds on that
slice only, sorts the surviving row ids into ascending order and aggregates
their measure values — VAR/STD in two passes (the sum, then the squared
deviations from the mean). Ascending row order
makes every answer a function of the rows the query matches alone, so it is
bitwise independent of the rest of the batch and of rows outside the box.
Other predicates fall back to a per-query masked evaluation.
:meth:`ExactEngine.extend` indexes appended rows by merging them into each
attribute's sort order, for callers whose data grows.

The paper uses an equivalent scan (Section 4.2, "a typical algorithm
iterates over the points in the database ... checks whether it matches the
RAQ predicate") to label training queries.
"""

from __future__ import annotations

import numpy as np

from repro.queries.aggregates import Aggregate, get_aggregate
from repro.queries.predicates import AxisRangePredicate, Predicate


def evaluate_axis_range_batch(
    X: np.ndarray,
    measure: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    aggregate: Aggregate,
) -> np.ndarray:
    """Exact answers for a batch of axis-aligned range queries.

    Builds a throwaway :class:`ExactEngine`; callers that answer more than
    one batch over the same data should keep an engine instead.

    Parameters
    ----------
    X:
        ``(n, d)`` normalized data.
    measure:
        ``(n,)`` raw measure values.
    lo, hi:
        ``(m, d)`` full per-attribute bounds (inactive attributes spanning
        ``[0, 1]``).
    aggregate:
        Resolved aggregate object.
    """
    return ExactEngine(X, measure).answer_bounds(lo, hi, aggregate)


def evaluate_predicate_batch(
    X: np.ndarray,
    measure: np.ndarray,
    predicate: Predicate,
    Q: np.ndarray,
    aggregate: Aggregate,
) -> np.ndarray:
    """Generic per-query exact evaluation for arbitrary predicates."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    out = np.empty(Q.shape[0], dtype=np.float64)
    for i, q in enumerate(Q):
        out[i] = aggregate(measure[predicate.matches(q, X)])
    return out


class ExactEngine:
    """Exact RAQ evaluation over a snapshot of one dataset's normalized view.

    This is both the training-label generator and the "exact" baseline's
    compute core. The engine copies ``X`` and ``measure`` and indexes the
    copies, so a caller that later mutates its arrays cannot desync the
    index; to see new data, build a new engine or :meth:`extend` this one.
    """

    def __init__(self, X: np.ndarray, measure: np.ndarray) -> None:
        X, measure = _check_rows(X, measure)
        XT = np.array(X.T, order="C")
        order = np.argsort(XT, axis=1, kind="stable")
        self._hold(XT, order, np.take_along_axis(XT, order, axis=1), np.array(measure))

    def _hold(self, XT, order, keys, measure) -> None:
        self._XT, self._order, self._keys, self.measure = XT, order, keys, measure
        for arr in (XT, order, keys, measure):
            arr.flags.writeable = False

    @property
    def X(self) -> np.ndarray:
        """The indexed ``(n, d)`` data (a read-only view)."""
        return self._XT.T

    def num_bytes(self) -> int:
        """Bytes the index holds: ``X`` transposed, the per-attribute
        argsort and sorted keys, and the measure copy."""
        return sum(a.nbytes for a in (self._XT, self._order, self._keys, self.measure))

    def extend(self, X_new: np.ndarray, measure_new: np.ndarray) -> "ExactEngine":
        """A new engine over this engine's rows followed by ``X_new``.

        The appended rows are sorted on their own and merged into each
        attribute's sort order after any equal keys (older rows first, as
        the stable argsort orders them), so the result is bitwise equal to
        an engine built over the concatenated rows, at the cost of a copy
        instead of a sort. This engine is left unchanged.
        """
        X_new, measure_new = _check_rows(X_new, measure_new)
        d, n = self._XT.shape
        if X_new.shape[1] != d:
            raise ValueError(f"appended rows must have {d} columns, got {X_new.shape[1]}")
        new_T = np.array(X_new.T, order="C")
        new_order = np.argsort(new_T, axis=1, kind="stable")
        new_keys = np.take_along_axis(new_T, new_order, axis=1)
        order = np.empty((d, n + new_T.shape[1]), dtype=self._order.dtype)
        keys = np.empty(order.shape, dtype=np.float64)
        for j in range(d):
            at = np.searchsorted(self._keys[j], new_keys[j], side="right")
            order[j] = np.insert(self._order[j], at, new_order[j] + n)
            keys[j] = np.insert(self._keys[j], at, new_keys[j])
        engine = ExactEngine.__new__(ExactEngine)
        engine._hold(
            np.concatenate([self._XT, new_T], axis=1),
            order,
            keys,
            np.concatenate([self.measure, measure_new]),
        )
        return engine

    def answer(self, predicate: Predicate, Q: np.ndarray, aggregate) -> np.ndarray:
        """Exact answers for a batch of queries ``Q`` (shape ``(m, param_dim)``)."""
        aggregate = get_aggregate(aggregate)
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        if isinstance(predicate, AxisRangePredicate):
            lo, hi = predicate.batch_bounds(Q)
            return self.answer_bounds(lo, hi, aggregate)
        return evaluate_predicate_batch(self.X, self.measure, predicate, Q, aggregate)

    def answer_one(self, predicate: Predicate, q: np.ndarray, aggregate) -> float:
        """Exact answer for a single query."""
        return float(self.answer(predicate, np.atleast_2d(q), aggregate)[0])

    def answer_bounds(self, lo: np.ndarray, hi: np.ndarray, aggregate) -> np.ndarray:
        """Exact answers for ``(m, d)`` half-open boxes ``lo <= x < hi``."""
        aggregate = get_aggregate(aggregate)
        lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
        hi = np.atleast_2d(np.asarray(hi, dtype=np.float64))
        XT, order, keys = self._XT, self._order, self._keys
        d, n = XT.shape
        m = lo.shape[0]
        if lo.shape != (m, d) or hi.shape != (m, d):
            raise ValueError(f"bounds must be (m, {d}), got {lo.shape} and {hi.shape}")
        # Per attribute, the rows with lo <= x < hi sit at sorted positions
        # [start, stop) of that attribute's order.
        start = np.empty((m, d), dtype=np.intp)
        stop = np.empty((m, d), dtype=np.intp)
        for j in range(d):
            start[:, j] = np.searchsorted(keys[j], lo[:, j], side="left")
            stop[:, j] = np.searchsorted(keys[j], hi[:, j], side="left")
        size = np.maximum(stop - start, 0)
        # Attributes narrowest slab first; plain lists keep the loop cheap.
        by_size = np.argsort(size, axis=1, kind="stable").tolist()
        start_l, stop_l, size_l = start.tolist(), stop.tolist(), size.tolist()
        lo_l, hi_l = lo.tolist(), hi.tolist()
        measure = self.measure
        name = aggregate.name
        out = np.full(m, aggregate.empty_value)
        for i in range(m):
            attrs, sz = by_size[i], size_l[i]
            j = attrs[0]
            if sz[j] == 0:
                continue
            rows = order[j, start_l[i][j] : stop_l[i][j]]
            for k in attrs[1:]:
                if sz[k] == n:  # spans every row, as does every later one
                    break
                v = XT[k, rows]
                rows = rows[(v >= lo_l[i][k]) & (v < hi_l[i][k])]
                if rows.size == 0:
                    break
            if rows.size == 0:
                continue  # every answer starts out as the empty-box value
            if name == "COUNT":
                out[i] = rows.size
                continue
            # Ascending row order: the floating-point sum then depends only on
            # which rows matched, not on the slab they were found through.
            values = measure[np.sort(rows)]
            # SUM/AVG/VAR/STD inline, computed exactly as numpy's sum/mean/
            # var/std do (VAR/STD in two passes: E[x²] − E[x]² would cancel
            # when the spread is small against the mean), without the
            # per-call overhead of going through ``aggregate``.
            if name == "SUM":
                out[i] = values.sum()
            elif name == "AVG":
                out[i] = values.sum() / values.size
            elif name in ("VAR", "STD"):
                dev = values - values.sum() / values.size
                var = (dev * dev).sum() / values.size
                out[i] = var if name == "VAR" else np.sqrt(var)
            else:
                out[i] = aggregate(values)
        return out


def _check_rows(X, measure) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    measure = np.asarray(measure, dtype=np.float64)
    if X.ndim != 2 or measure.ndim != 1 or X.shape[0] != measure.shape[0]:
        raise ValueError("X must be (n, d) and measure (n,) with matching n")
    return X, measure
