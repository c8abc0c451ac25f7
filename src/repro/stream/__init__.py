"""Streaming ingest subsystem: incremental sketch maintenance.

The reproduction's core pipeline is build-once/read-forever, but the
paper's target workloads (pm25 sensor feeds, veraset staypoints) are
streams. This package makes a fitted sketch *mutable*:

- :class:`~repro.stream.delta.DeltaStore` — the live data view: the seed
  dataset's rows plus appended rows minus deleted ones, normalized through
  the seed dataset's *frozen* min-max scaler so query semantics never
  shift under mutation.
- :class:`~repro.stream.policy.MaintenancePolicy` — decides when a dirty
  leaf's accumulated drift warrants retraining (row-count and
  aggregate-drift thresholds).
- :class:`~repro.stream.sketch.StreamingSketch` — the mutable sketch:
  ``append``/``delete`` route data changes through the flat kd-tree's
  leaf boxes to mark affected leaf partitions dirty, refresh those leaves'
  training labels (an exact-delta fast path for COUNT/SUM, a live rescan
  otherwise), retrain only the dirty slots as a stack of their own (so
  retrain memory and time scale with the number of dirty leaves), and
  atomically hot-swap the retrained weights into every
  serving-tier engine (:meth:`repro.core.compiled.CompiledSketch
  .swap_from`), bumping the epoch.
"""

from repro.stream.delta import DeltaStore
from repro.stream.policy import MaintenancePolicy
from repro.stream.sketch import IngestResult, StreamingSketch, load_stream_sketch

__all__ = [
    "DeltaStore",
    "IngestResult",
    "MaintenancePolicy",
    "StreamingSketch",
    "load_stream_sketch",
]
