"""Exact baseline: ground-truth answers from the sorted per-attribute index."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AQPMethod
from repro.queries.query_function import QueryFunction


class ExactScan(AQPMethod):
    """Answers every query exactly through the query function's
    :class:`~repro.queries.executor.ExactEngine`, whose per-attribute sorted
    index is built once when the query function is constructed; ``fit``
    and ``predict`` never rebuild it."""

    name = "exact"

    def __init__(self) -> None:
        self._qf: QueryFunction | None = None

    def fit(self, query_function: QueryFunction = None, Q_train=None, y_train=None) -> "ExactScan":
        self._qf = query_function
        return self

    def predict(self, Q: np.ndarray) -> np.ndarray:
        if self._qf is None:
            raise RuntimeError("ExactScan is not fitted")
        return self._qf(Q)

    def num_bytes(self) -> int:
        """What answering holds: the engine's index, ~3x the attribute bytes."""
        if self._qf is None:
            raise RuntimeError("ExactScan is not fitted")
        return self._qf.engine.num_bytes()
