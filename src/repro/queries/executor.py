"""Exact query-function evaluation.

This is the "ground truth" engine: it computes ``f_D(q)`` exactly. For
axis-aligned ranges it answers from a per-attribute sorted index that
:class:`ExactEngine` builds once, at construction: ``X`` transposed, and per
attribute a stable argsort of the rows plus the sorted keys. A query's
``[lo, hi)`` bound on one attribute is then a contiguous slice of that
attribute's sort order, found by ``searchsorted``. Each query takes the
attribute whose slice holds the fewest rows, tests its other bounds on that
slice only, sorts the surviving row ids into ascending order and aggregates
their measure values — COUNT/SUM/AVG/STD/VAR from (count, sum, sum of
squares), any other aggregate on the values themselves. Ascending row order
makes every answer a function of the rows the query matches alone, so it is
bitwise independent of the rest of the batch and of rows outside the box.
Other predicates fall back to a per-query masked evaluation.

The paper uses an equivalent scan (Section 4.2, "a typical algorithm
iterates over the points in the database ... checks whether it matches the
RAQ predicate") to label training queries.
"""

from __future__ import annotations

import numpy as np

from repro.queries.aggregates import (
    MOMENT_AGGREGATES,
    Aggregate,
    get_aggregate,
    moment_aggregate_batch,
)
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
    index; to see new data, build a new engine.
    """

    def __init__(self, X: np.ndarray, measure: np.ndarray) -> None:
        X = np.asarray(X, dtype=np.float64)
        measure = np.asarray(measure, dtype=np.float64)
        if X.ndim != 2 or measure.ndim != 1 or X.shape[0] != measure.shape[0]:
            raise ValueError("X must be (n, d) and measure (n,) with matching n")
        self._XT = np.array(X.T, order="C")
        self._order = np.argsort(self._XT, axis=1, kind="stable")
        self._keys = np.take_along_axis(self._XT, self._order, axis=1)
        self.measure = np.array(measure)
        for arr in (self._XT, self._order, self._keys, self.measure):
            arr.flags.writeable = False

    @property
    def X(self) -> np.ndarray:
        """The indexed ``(n, d)`` data (a read-only view)."""
        return self._XT.T

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
        moments = name in MOMENT_AGGREGATES
        counts = np.zeros(m)
        sums = np.zeros(m)
        sumsqs = np.zeros(m)
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
            if name == "COUNT":
                counts[i] = rows.size
                continue
            # Ascending row order: the floating-point sum then depends only on
            # which rows matched, not on the slab they were found through.
            values = measure[np.sort(rows)]
            if moments:
                counts[i] = values.size
                sums[i] = values.sum()
                sumsqs[i] = values @ values
            else:
                out[i] = aggregate(values)
        if moments:
            return moment_aggregate_batch(name, counts, sums, sumsqs)
        return out
