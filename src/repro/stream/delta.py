"""The live data view behind a mutable sketch.

A :class:`DeltaStore` holds the seed dataset's raw rows, rows appended
since, and a liveness mask (deletes tombstone rows rather than compacting,
so row identity is stable across the stream). All predicate evaluation
happens in the *seed dataset's* normalized space: the min-max scaler is
frozen at build time, so a query vector keeps meaning the same raw-space
range no matter how the data moves — appended rows outside the seed's
min/max simply normalize outside ``[0, 1]`` and fall outside every
in-range query, exactly as they should.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.data.normalization import MinMaxScaler

#: Spare rows the buffer gains at least when an append outgrows it.
_MIN_SPARE_ROWS = 16


def _read_only(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


class DeltaStore:
    """Base rows + appended rows - deleted rows, under a frozen scaler.

    Parameters
    ----------
    base_raw:
        ``(n0, d)`` raw rows of the seed dataset.
    scaler:
        The seed dataset's fitted :class:`MinMaxScaler` (frozen; never
        refit on mutation).
    measure_index:
        Column index of the measure attribute.
    appended_raw, live:
        Resume state (deserialization); by default nothing is appended and
        every base row is live.
    """

    def __init__(
        self,
        base_raw: np.ndarray,
        scaler: MinMaxScaler,
        measure_index: int,
        appended_raw: np.ndarray | None = None,
        live: np.ndarray | None = None,
    ) -> None:
        base = np.asarray(base_raw, dtype=np.float64)
        if base.ndim != 2:
            raise ValueError(f"base rows must be 2-d, got shape {base.shape}")
        self.scaler = scaler
        self.measure_index = int(measure_index)
        d = base.shape[1]
        if not 0 <= self.measure_index < d:
            raise ValueError(f"measure index {measure_index} out of range for {d} columns")
        if appended_raw is None:
            appended_raw = np.empty((0, d), dtype=np.float64)
        appended = np.asarray(appended_raw, dtype=np.float64)
        if appended.ndim != 2 or appended.shape[1] != d:
            raise ValueError("appended rows must match the base row width")
        n = base.shape[0] + appended.shape[0]
        live = np.ones(n, dtype=bool) if live is None else np.array(live, dtype=bool)
        if live.shape != (n,):
            raise ValueError(f"live mask must cover all {n} rows")
        self._n_base = base.shape[0]
        self._n = n
        # Base then appended rows in one buffer whose first ``_n`` rows are
        # filled; appends write into the spare rows and regrow it by
        # doubling, so a stream of small appends copies each row O(1)
        # times. Until the first append the buffer is the base array.
        self._rows = base if appended.shape[0] == 0 else np.concatenate([base, appended])
        self._live = live

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "DeltaStore":
        return cls(dataset.raw, dataset.scaler, dataset.measure_index)

    # ------------------------------------------------------------------ shape

    @property
    def dim(self) -> int:
        return self._rows.shape[1]

    @property
    def n_total(self) -> int:
        """All rows ever seen, including tombstoned ones."""
        return self._n

    @property
    def n_live(self) -> int:
        return int(self._live[: self._n].sum())

    @property
    def base_raw(self) -> np.ndarray:
        """The seed dataset's rows, raw units (read-only view)."""
        return _read_only(self._rows[: self._n_base])

    @property
    def appended_raw(self) -> np.ndarray:
        """Rows appended since the seed, raw units (read-only view)."""
        return _read_only(self._rows[self._n_base : self._n])

    @property
    def all_raw(self) -> np.ndarray:
        """Every row ever seen (base then appended), raw units (read-only
        view)."""
        return _read_only(self._rows[: self._n])

    @property
    def live(self) -> np.ndarray:
        """Liveness of every row ever seen (read-only view)."""
        return _read_only(self._live[: self._n])

    @property
    def live_raw(self) -> np.ndarray:
        return self.all_raw[self.live]

    @property
    def live_X(self) -> np.ndarray:
        """Live rows in the frozen normalized space."""
        return self.scaler.transform(self.live_raw)

    @property
    def live_measure(self) -> np.ndarray:
        """Raw measure values of live rows (aggregates read raw units)."""
        return self.live_raw[:, self.measure_index]

    # ------------------------------------------------------------- mutations

    def append(self, rows_raw: np.ndarray) -> np.ndarray:
        """Append raw rows; returns their normalized coordinates."""
        rows = np.atleast_2d(np.asarray(rows_raw, dtype=np.float64))
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError(f"appended rows must have {self.dim} columns, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("appended rows must be finite")
        k = rows.shape[0]
        if k == 0:
            return rows
        n, stop = self._n, self._n + k
        if stop > self._rows.shape[0]:
            spare = self._rows.shape[0] - self._n_base
            cap = self._n_base + max(stop - self._n_base, 2 * spare, _MIN_SPARE_ROWS)
            grown = np.empty((cap, self.dim), dtype=np.float64)
            grown[:n] = self._rows[:n]
            self._rows = grown
            live = np.empty(cap, dtype=bool)
            live[:n] = self._live[:n]
            self._live = live
        self._rows[n:stop] = rows
        self._live[n:stop] = True
        self._n = stop
        return self.scaler.transform(rows)

    def delete(self, lo_raw: np.ndarray, hi_raw: np.ndarray) -> np.ndarray:
        """Tombstone live rows inside the raw-space box ``[lo, hi)``.

        Returns the normalized coordinates of the rows actually deleted
        (the caller marks leaves dirty from them).
        """
        lo = np.asarray(lo_raw, dtype=np.float64).ravel()
        hi = np.asarray(hi_raw, dtype=np.float64).ravel()
        if lo.shape != (self.dim,) or hi.shape != (self.dim,):
            raise ValueError(f"delete bounds must have {self.dim} components")
        rows = self._rows[: self._n]
        hit = self._live[: self._n] & np.all((rows >= lo) & (rows < hi), axis=1)
        if not hit.any():
            return np.empty((0, self.dim), dtype=np.float64)
        # A fresh mask, so a ``live`` view taken before stays as it was.
        live = self._live.copy()
        live[: self._n] &= ~hit
        self._live = live
        return self.scaler.transform(rows[hit])

    # ------------------------------------------------------------ persistence

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {
            "store_base_raw": self.base_raw,
            "store_appended_raw": self.appended_raw,
            "store_live": self.live,
            "store_scaler_lo": np.asarray(self.scaler.lo_, dtype=np.float64),
            "store_scaler_hi": np.asarray(self.scaler.hi_, dtype=np.float64),
        }

    @classmethod
    def from_arrays(cls, payload, measure_index: int) -> "DeltaStore":
        scaler = MinMaxScaler()
        scaler.lo_ = np.asarray(payload["store_scaler_lo"], dtype=np.float64)
        scaler.hi_ = np.asarray(payload["store_scaler_hi"], dtype=np.float64)
        return cls(
            payload["store_base_raw"],
            scaler,
            measure_index,
            appended_raw=payload["store_appended_raw"],
            live=payload["store_live"],
        )

    def __repr__(self) -> str:
        return (
            f"DeltaStore(n_live={self.n_live}, n_total={self.n_total}, "
            f"appended={self._n - self._n_base}, dim={self.dim})"
        )
