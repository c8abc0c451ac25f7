"""In-memory span recorder, percentile helpers and run provenance.

A span is ``(name, start_s, end_s, parent, request_id)``: ``parent`` is the
index of the enclosing span (or ``None``), ``request_id`` ties the spans of
one request together. Spans stay in a Python list while the run is
measured and are written out once, after it. With ``enabled=False`` the
recorder keeps nothing, but :class:`Span` still times its block, so the
untraced run measures set-up stages through the same code.
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

perf = time.perf_counter


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: list[tuple | None] = []
        self.t0 = perf()

    def add(self, name: str, start: float, end: float, parent=None, rid=None) -> int | None:
        """Record a finished span; returns its index (``None`` when disabled)."""
        if not self.enabled:
            return None
        self.spans.append((name, start, end, parent, rid))
        return len(self.spans) - 1

    def span(self, name: str, parent=None, rid=None) -> "Span":
        return Span(self, name, parent, rid)

    def summary(self) -> dict:
        """Per span name: count, total and median duration, and self time
        (duration minus the part its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        by_name: dict[str, list[tuple[float, float]]] = {}
        for i, s in enumerate(self.spans):
            if s is not None:
                d = s[2] - s[1]
                by_name.setdefault(s[0], []).append((d, d - child_time[i]))
        return {
            name: {
                "count": len(rows),
                "total_s": float(sum(d for d, _ in rows)),
                "median_s": float(np.median([d for d, _ in rows])),
                "self_total_s": float(sum(st for _, st in rows)),
            }
            for name, rows in sorted(by_name.items())
        }

    def write(self, path: str, extra: dict) -> None:
        """Write every span, times relative to the tracer's creation (a span
        left open by an exception is written as ``null`` so indices hold)."""
        rows = [
            None if s is None else [s[0], s[1] - self.t0, s[2] - self.t0, s[3], s[4]]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "summary": self.summary(),
                    "span_fields": ["name", "start_s", "end_s", "parent", "request_id"],
                    "spans": rows,
                },
                fh,
            )


class Span:
    """Context manager timing one block. Its slot is reserved on entry, so
    spans opened inside it can name it as their parent."""

    __slots__ = ("tracer", "name", "parent", "rid", "start", "end", "index")

    def __init__(self, tracer: Tracer, name: str, parent, rid) -> None:
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.rid = rid
        self.index = None

    def __enter__(self) -> "Span":
        if self.tracer.enabled:
            self.index = len(self.tracer.spans)
            self.tracer.spans.append(None)
        self.start = perf()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf()
        if self.index is not None:
            self.tracer.spans[self.index] = (
                self.name, self.start, self.end, self.parent, self.rid
            )

    @property
    def seconds(self) -> float:
        return self.end - self.start


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def peak_rss_bytes(pid: int | str = "self") -> int:
    """Peak resident set size (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of all CPUs since boot, from ``/proc/stat``;
    steal is time a virtual CPU was ready but the host ran something else."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    # guest time (fields 8-9) is already counted in user and nice
    return fields[7], sum(fields[:8])


def host_info() -> dict:
    """Where a result was measured: core count, CPU model and the
    library's own numpy/BLAS/platform provenance."""
    from repro.eval.timing import environment_provenance

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "machine": platform.machine(),
        "environment": environment_provenance(),
    }
