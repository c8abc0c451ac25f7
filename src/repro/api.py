"""The public estimator protocol and registry.

Every RAQ answerer in this repo — :class:`~repro.core.neurosketch.NeuroSketch`
and all of :mod:`repro.baselines` — implements one protocol:

- ``fit(query_function, Q_train, y_train)`` — preprocessing over the data
  and/or the labelled training workload. ``fit`` always receives the query
  function *and* the workload; each estimator uses what it needs (sampling
  baselines read the dataset through the query function and ignore the
  workload, learned estimators train on the workload).
- ``predict(Q)`` — approximate answers for a query batch ``(m, d)``.
- ``predict_one(q)`` — single-query path, what the paper's query-time
  benchmarks measure. The default delegates to :meth:`predict` on a 1-row
  batch; estimators with a genuinely faster scalar path override it.
- ``num_bytes()`` — storage footprint of the estimator's state (the paper's
  storage metric).
- ``supports(query_function)`` — the paper's support matrix (e.g. VerdictDB
  lacks STD/MEDIAN); defaults to ``True``.
- ``save(path)`` / ``load(path)`` — gzip-JSON persistence for estimators
  that are sketch artifacts (NeuroSketch and its compiled form); synopsis
  baselines that are cheap to rebuild may leave these unimplemented.

The registry at the bottom maps CLI names (``neurosketch``, ``exact``,
``rtree``, ``tree-agg``, ``verdictdb``, ``uniform``) to factories; the
experiment runner and the serving layer both resolve estimators through it.
"""

from __future__ import annotations

import gzip
import json
from typing import Callable, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.queries.query_function import QueryFunction


class Estimator:
    """One range-aggregate-query estimator under the unified protocol.

    Subclasses implement :meth:`fit`, :meth:`predict` and :meth:`num_bytes`;
    :meth:`predict_one`, :meth:`supports` and persistence have usable
    defaults.
    """

    #: Registry/display name; concrete estimators override it.
    name: str = "abstract"

    def fit(
        self,
        query_function: "QueryFunction | None" = None,
        Q_train: np.ndarray | None = None,
        y_train: np.ndarray | None = None,
    ) -> "Estimator":
        raise NotImplementedError

    def predict(self, Q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_one(self, q: np.ndarray) -> float:
        """Single-query path; the shared fallback routes through ``predict``."""
        return float(self.predict(np.atleast_2d(q))[0])

    def num_bytes(self) -> int:
        raise NotImplementedError

    def supports(self, query_function: "QueryFunction") -> bool:
        """Whether this engine can answer the given query function at all."""
        return True

    # ------------------------------------------------------------ persistence
    #
    # Estimators that are persistent artifacts implement ``to_dict`` /
    # ``from_dict``; ``save``/``load`` then round-trip through gzipped JSON.

    def to_dict(self) -> dict:
        raise NotImplementedError(f"{type(self).__name__} does not serialize")

    @classmethod
    def from_dict(cls, state: dict) -> "Estimator":
        raise NotImplementedError(f"{cls.__name__} does not serialize")

    def save(self, path: str) -> None:
        """Persist as gzipped JSON (via :meth:`to_dict`)."""
        # Serialize before touching the file, so a failing to_dict (unfitted
        # or non-serializable estimator) cannot truncate an existing artifact.
        state = self.to_dict()
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(state, fh)

    @classmethod
    def load(cls, path: str) -> "Estimator":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# --------------------------------------------------------------------- registry

#: name -> factory(**build kwargs) -> Estimator
_FACTORIES: dict[str, Callable[..., Estimator]] = {}

#: alternate spellings accepted by the CLI
_ALIASES: dict[str, str] = {
    "ns": "neurosketch",
    "exact-scan": "exact",
    "r-tree": "rtree",
    "tree_agg": "tree-agg",
    "treeagg": "tree-agg",
    "verdict": "verdictdb",
    "mean": "uniform",
}


def _ensure_builtin_estimators() -> None:
    # The built-in factories live in repro.eval.adapters (which imports the
    # concrete estimators); importing it lazily keeps this module cycle-free
    # while making the registry self-populating.
    import repro.eval.adapters  # noqa: F401


def register_estimator(name: str, factory: Callable[..., Estimator]) -> None:
    """Add an estimator factory (used by tests and future engines).

    Names are normalized to lowercase so registration and resolution
    (which lowercases its input) can never disagree.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("estimator name must be non-empty")
    _FACTORIES[key] = factory


def estimator_names() -> tuple[str, ...]:
    _ensure_builtin_estimators()
    return tuple(_FACTORIES)


def resolve_estimator_name(name: str) -> str:
    _ensure_builtin_estimators()
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _FACTORIES:
        raise KeyError(
            f"unknown estimator {name!r}; have {estimator_names()} "
            f"(aliases: {tuple(_ALIASES)})"
        )
    return key


def build_estimator(
    name: str,
    *,
    seed: int = 0,
    tree_height: int = 4,
    n_partitions: int | None = 8,
    depth: int = 5,
    width_first: int = 60,
    width_rest: int = 30,
    epochs: int = 60,
    batch_size: int = 256,
    lr: float = 1e-3,
    optimizer: str = "adam",
    patience: int = 15,
    min_delta: float = 1e-6,
    train_backend: str = "stacked",
    build_workers: int = 1,
    build_shards: int | None = None,
    sample_frac: float = 0.1,
    compile: bool = True,
    infer_dtype: str = "float64",
) -> Estimator:
    """Instantiate a registered estimator with experiment-level knobs.

    Factories take only the kwargs they care about; unknown knobs are
    ignored per estimator, so one config shape drives the whole registry.
    """
    key = resolve_estimator_name(name)
    return _FACTORIES[key](
        seed=seed,
        tree_height=tree_height,
        n_partitions=n_partitions,
        depth=depth,
        width_first=width_first,
        width_rest=width_rest,
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        optimizer=optimizer,
        patience=patience,
        min_delta=min_delta,
        train_backend=train_backend,
        build_workers=build_workers,
        build_shards=build_shards,
        sample_frac=sample_frac,
        compile=compile,
        infer_dtype=infer_dtype,
    )
