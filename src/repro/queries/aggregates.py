"""Aggregation functions.

The paper's theory covers COUNT/SUM/AVG; NeuroSketch itself "makes no
assumption on the aggregation function" (Section 4.3) and is evaluated on
AVG, SUM, COUNT, STD and MEDIAN. This registry implements those plus a few
extras (VAR, MIN, MAX, arbitrary percentiles).

Convention for empty ranges: COUNT and SUM are naturally 0; value-aggregates
(AVG, STD, MEDIAN, ...) are defined as 0 so training labels are always
finite (see DESIGN.md, "Conventions").
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np


class Aggregate:
    """A named aggregation function over a 1-d array of measure values.

    ``fn`` receives a *non-empty* float array; empty selections short-circuit
    to :attr:`empty_value`.
    """

    def __init__(self, name: str, fn: Callable[[np.ndarray], float], empty_value: float = 0.0):
        self.name = name
        self._fn = fn
        self.empty_value = float(empty_value)

    def __call__(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return self.empty_value
        return float(self._fn(values))

    def __repr__(self) -> str:
        return f"Aggregate({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Aggregate) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


class Percentile(Aggregate):
    """PERCENTILE(p) aggregate, p in [0, 100]; MEDIAN is Percentile(50)."""

    def __init__(self, p: float):
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        self.p = float(p)
        super().__init__(f"P{p:g}", lambda v: float(np.percentile(v, p)))


COUNT = Aggregate("COUNT", lambda v: float(v.size))
SUM = Aggregate("SUM", lambda v: float(v.sum()))
AVG = Aggregate("AVG", lambda v: float(v.mean()))
STD = Aggregate("STD", lambda v: float(v.std()))
VAR = Aggregate("VAR", lambda v: float(v.var()))
MEDIAN = Aggregate("MEDIAN", lambda v: float(np.median(v)))
MIN = Aggregate("MIN", lambda v: float(v.min()))
MAX = Aggregate("MAX", lambda v: float(v.max()))

_REGISTRY: dict[str, Aggregate] = {
    agg.name: agg for agg in (COUNT, SUM, AVG, STD, VAR, MEDIAN, MIN, MAX)
}
_REGISTRY["STDEV"] = STD  # paper uses both spellings
_REGISTRY["VARIANCE"] = VAR

AGGREGATE_NAMES: tuple[str, ...] = tuple(_REGISTRY)

def get_aggregate(agg: Union[str, Aggregate]) -> Aggregate:
    """Resolve an aggregate by name (case-insensitive) or pass one through."""
    if isinstance(agg, Aggregate):
        return agg
    key = str(agg).upper()
    if key.startswith("P") and key[1:].replace(".", "", 1).isdigit():
        return Percentile(float(key[1:]))
    if key not in _REGISTRY:
        raise KeyError(f"unknown aggregate {agg!r}; have {AGGREGATE_NAMES}")
    return _REGISTRY[key]
