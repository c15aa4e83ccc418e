"""Bounded in-memory timeseries store for latency decompositions.

The store is the queryable half of :mod:`repro.latency`: the
collector pushes one :class:`~repro.latency.decompose.PacketRecord`
per delivered packet, and the store maintains — all bounded, all
O(1) per record —

* run-level per-segment log2 histograms (reusing the telemetry
  :class:`~repro.telemetry.registry.Histogram`) in its own
  :class:`~repro.telemetry.registry.MetricRegistry`, so the standard
  exporters work unchanged (``/prometheus`` is one
  :func:`~repro.telemetry.exporters.prometheus_text` call away);
* tumbling windows over *simulated* time, each closed window frozen
  into an immutable :class:`WindowSummary` (what ``/stream`` emits);
* per-flow and per-function rollups (segment totals and counts),
  bounded with least-recently-updated eviction;
* a ring of recent raw records for ``/packets/<flow>`` drill-down.

Thread-safety: ``add`` and every reader take one internal lock, and
window closes notify a condition variable so an HTTP streamer can
block in :meth:`wait_for_windows` instead of polling.  The lock is
uncontended in single-threaded runs (experiments, tests) and only
ever shared between the scenario thread and server handlers in
``latency-serve``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..telemetry.exporters import prometheus_text
from ..telemetry.registry import Histogram, MetricRegistry
from .decompose import ALL_CLASSES, PacketRecord, RESIDUAL

MS = 1_000_000

#: Default tumbling-window width: 10 simulated milliseconds.
DEFAULT_WINDOW_NS = 10 * MS


class WindowSummary:
    """One closed tumbling window's aggregate, immutable once built."""

    __slots__ = ("index", "start_ns", "end_ns", "count",
                 "e2e_mean_ns", "e2e_p50_ns", "e2e_p99_ns",
                 "e2e_max_ns", "segment_mean_ns")

    def __init__(self, index: int, start_ns: int, end_ns: int,
                 count: int, e2e_mean_ns: float, e2e_p50_ns: float,
                 e2e_p99_ns: float, e2e_max_ns: int,
                 segment_mean_ns: Dict[str, float]) -> None:
        self.index = index
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.count = count
        self.e2e_mean_ns = e2e_mean_ns
        self.e2e_p50_ns = e2e_p50_ns
        self.e2e_p99_ns = e2e_p99_ns
        self.e2e_max_ns = e2e_max_ns
        self.segment_mean_ns = segment_mean_ns

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "count": self.count,
            "e2e_mean_ns": self.e2e_mean_ns,
            "e2e_p50_ns": self.e2e_p50_ns,
            "e2e_p99_ns": self.e2e_p99_ns,
            "e2e_max_ns": self.e2e_max_ns,
            "segment_mean_ns": dict(self.segment_mean_ns),
        }

    def __repr__(self) -> str:
        return (f"WindowSummary(#{self.index} n={self.count} "
                f"mean={self.e2e_mean_ns:.0f}ns)")


class _WindowAccum:
    """The open (still-filling) state of one tumbling window."""

    __slots__ = ("index", "count", "e2e_hist", "segment_totals")

    def __init__(self, index: int) -> None:
        self.index = index
        self.count = 0
        self.e2e_hist = Histogram("window_e2e_ns")
        self.segment_totals = {cls: 0 for cls in ALL_CLASSES}

    def add(self, record: PacketRecord) -> None:
        self.count += 1
        self.e2e_hist.observe(record.e2e_ns)
        totals = self.segment_totals
        for cls, value in record.segments.items():
            totals[cls] += value

    def freeze(self, window_ns: int) -> WindowSummary:
        hist = self.e2e_hist
        n = self.count
        return WindowSummary(
            index=self.index,
            start_ns=self.index * window_ns,
            end_ns=(self.index + 1) * window_ns,
            count=n,
            e2e_mean_ns=hist.mean,
            e2e_p50_ns=hist.quantile(0.50),
            e2e_p99_ns=hist.quantile(0.99),
            e2e_max_ns=hist.vmax if hist.vmax is not None else 0,
            segment_mean_ns={cls: (tot / n if n else 0.0)
                             for cls, tot in
                             self.segment_totals.items()})


class _Rollup:
    """Per-flow / per-function segment totals."""

    __slots__ = ("count", "e2e_total_ns", "bytes_total",
                 "segment_totals", "last_received_ns")

    def __init__(self) -> None:
        self.count = 0
        self.e2e_total_ns = 0
        self.bytes_total = 0
        self.segment_totals = {cls: 0 for cls in ALL_CLASSES}
        self.last_received_ns = 0

    def add(self, record: PacketRecord) -> None:
        self.count += 1
        self.e2e_total_ns += record.e2e_ns
        self.bytes_total += record.size_bytes
        self.last_received_ns = record.received_ns
        totals = self.segment_totals
        for cls, value in record.segments.items():
            totals[cls] += value

    def as_dict(self) -> Dict[str, object]:
        n = self.count
        return {
            "count": n,
            "bytes_total": self.bytes_total,
            "e2e_mean_ns": self.e2e_total_ns / n if n else 0.0,
            "last_received_ns": self.last_received_ns,
            "segment_mean_ns": {cls: (tot / n if n else 0.0)
                                for cls, tot in
                                self.segment_totals.items()},
        }


class LatencyStore:
    """Bounded aggregate + timeseries view over packet records."""

    def __init__(self, window_ns: int = DEFAULT_WINDOW_NS,
                 max_windows: int = 512, max_records: int = 4096,
                 max_flows: int = 1024,
                 max_functions: int = 256) -> None:
        if window_ns <= 0:
            raise ValueError("window_ns must be > 0")
        self.window_ns = window_ns
        self.max_windows = max_windows
        self.max_flows = max_flows
        self.max_functions = max_functions
        self.registry = MetricRegistry()
        self._lock = threading.Lock()
        self._window_closed = threading.Condition(self._lock)
        self._records: Deque[PacketRecord] = deque(maxlen=max_records)
        self._windows: Deque[WindowSummary] = deque(maxlen=max_windows)
        # A small dict of still-open windows absorbs records that come
        # in out of ``received_ns`` order (one event heap delivers them
        # in order; other feeders need not); a window closes once a
        # strictly newer one opens.
        self._open: Dict[int, _WindowAccum] = {}
        self._max_index = -1
        self._flows: Dict[str, _Rollup] = {}
        self._functions: Dict[str, _Rollup] = {}
        self.total_records = 0
        self.late_records = 0
        self._m_packets = self.registry.counter("latency_packets_total")
        self._m_bytes = self.registry.counter("latency_bytes_total")
        self._h_e2e = self.registry.histogram("latency_e2e_ns")
        self._h_segments = {
            cls: self.registry.histogram("latency_segment_ns",
                                         segment=cls)
            for cls in ALL_CLASSES}

    # -- ingest ---------------------------------------------------------

    def add(self, record: PacketRecord) -> None:
        with self._lock:
            self.total_records += 1
            self._m_packets.inc()
            self._m_bytes.inc(record.size_bytes)
            self._h_e2e.observe(record.e2e_ns)
            for cls, value in record.segments.items():
                self._h_segments[cls].observe(value)
            self._records.append(record)
            self._rollup(self._flows, record.flow,
                         self.max_flows).add(record)
            self._rollup(self._functions, record.function or "(none)",
                         self.max_functions).add(record)
            index = record.received_ns // self.window_ns
            accum = self._open.get(index)
            if accum is None:
                if index < self._max_index:
                    # Arrived after its window already closed: keep
                    # the run-level aggregates honest, skip the window
                    # series.
                    self.late_records += 1
                    return
                accum = self._open[index] = _WindowAccum(index)
                if index > self._max_index:
                    self._max_index = index
                    self._close_older(index)
            accum.add(record)

    def _rollup(self, table: Dict[str, _Rollup], key: str,
                bound: int) -> _Rollup:
        entry = table.pop(key, None)
        if entry is None:
            entry = _Rollup()
            if len(table) >= bound:
                table.pop(next(iter(table)))
        # Re-insert so dict order is least-recently-updated first and
        # the eviction above drops the coldest key.
        table[key] = entry
        return entry

    def _close_older(self, newest_index: int) -> None:
        closed = False
        for index in sorted(self._open):
            if index >= newest_index:
                break
            self._windows.append(
                self._open.pop(index).freeze(self.window_ns))
            closed = True
        if closed:
            self._window_closed.notify_all()

    def flush(self) -> None:
        """Close every still-open window (end of run / shutdown)."""
        with self._lock:
            self._close_older(self._max_index + 1)

    # -- queries --------------------------------------------------------

    @property
    def count(self) -> int:
        return self.total_records

    def segment_histogram(self, cls: str) -> Histogram:
        return self._h_segments[cls]

    def e2e_histogram(self) -> Histogram:
        return self._h_e2e

    def mean_e2e_ns(self) -> float:
        with self._lock:
            return self._h_e2e.mean

    def windows(self, since_index: int = -1) -> List[WindowSummary]:
        """Closed windows with ``index > since_index``, oldest
        first."""
        with self._lock:
            return [w for w in self._windows if w.index > since_index]

    def wait_for_windows(self, since_index: int,
                         timeout: Optional[float] = None
                         ) -> List[WindowSummary]:
        """Block until a window newer than ``since_index`` closes;
        returns the new summaries ([] on timeout)."""
        with self._window_closed:
            out = [w for w in self._windows if w.index > since_index]
            if out:
                return out
            self._window_closed.wait(timeout)
            return [w for w in self._windows if w.index > since_index]

    def recent(self, flow: Optional[str] = None,
               limit: int = 50) -> List[PacketRecord]:
        """Most recent records (newest first), optionally one flow."""
        with self._lock:
            out: List[PacketRecord] = []
            for record in reversed(self._records):
                if flow is not None and record.flow != flow:
                    continue
                out.append(record)
                if len(out) >= limit:
                    break
            return out

    def segment_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-class run-level stats (count/mean/p50/p99/max)."""
        out: Dict[str, Dict[str, object]] = {}
        for cls in ALL_CLASSES:
            hist = self._h_segments[cls]
            out[cls] = {
                "count": hist.count,
                "total_ns": hist.total,
                "mean_ns": hist.mean,
                "p50_ns": hist.quantile(0.50),
                "p99_ns": hist.quantile(0.99),
                "max_ns": hist.vmax if hist.vmax is not None else 0,
            }
        return out

    def snapshot(self) -> Dict[str, object]:
        """The full JSON-serializable state (the ``/snapshot``
        payload)."""
        with self._lock:
            hist = self._h_e2e
            return {
                "packets": self.total_records,
                "late_records": self.late_records,
                "window_ns": self.window_ns,
                "e2e": {
                    "count": hist.count,
                    "mean_ns": hist.mean,
                    "p50_ns": hist.quantile(0.50),
                    "p99_ns": hist.quantile(0.99),
                    "max_ns": hist.vmax if hist.vmax is not None else 0,
                },
                "segments": self.segment_summary(),
                "flows": {k: v.as_dict()
                          for k, v in self._flows.items()},
                "functions": {k: v.as_dict()
                              for k, v in self._functions.items()},
                "windows": [w.as_dict() for w in self._windows],
            }

    def prometheus(self) -> str:
        """The store's registry in Prometheus text format."""
        with self._lock:
            return prometheus_text(self.registry)

    def __repr__(self) -> str:
        return (f"LatencyStore(packets={self.total_records}, "
                f"windows={len(self._windows)})")
