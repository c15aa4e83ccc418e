"""CPU accounting for the Eden data path (paper Figure 12).

The paper decomposes Eden's CPU overhead into three components measured
against a vanilla TCP stack: *API* (passing metadata information to the
enclave), *enclave* (classification matching plus state preparation and
commit), and *interpreter* (executing the action function bytecode).

:class:`CpuAccounting` collects per-packet wall-clock samples for each
bucket.  Totals and counts are exact; per-bucket *samples* are bounded
by reservoir sampling (Algorithm R) so a long sweep holds a uniform
random subset of fixed size instead of one entry per packet —
percentiles stay unbiased while memory stays O(reservoir).  When a
:class:`~repro.telemetry.registry.MetricRegistry` is attached, every
sample is mirrored into a log-bucketed ``cpu_ns{component=...}``
histogram so accounting shows up in telemetry snapshots and exports.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional

from ..telemetry.registry import (MetricRegistry, NULL_HISTOGRAM,
                                  nearest_rank)

BUCKETS = ("api", "enclave", "interpreter")

#: Default per-bucket reservoir size: enough for stable tail
#: percentiles (p95 rank error < 1% at this size) at fixed memory.
RESERVOIR_SIZE = 4096


class Reservoir:
    """Uniform fixed-size sample of a stream (Vitter's Algorithm R)."""

    __slots__ = ("capacity", "seen", "values", "_rng")

    def __init__(self, capacity: int,
                 rng: Optional[random.Random] = None) -> None:
        if capacity <= 0:
            raise ValueError("reservoir capacity must be > 0")
        self.capacity = capacity
        self.seen = 0
        self.values: List[int] = []
        self._rng = rng if rng is not None else random.Random(0)

    def add(self, value: int) -> None:
        self.seen += 1
        if len(self.values) < self.capacity:
            self.values.append(value)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self.values[slot] = value

    def clear(self) -> None:
        self.seen = 0
        self.values.clear()


class CpuAccounting:
    """Accumulates per-packet processing-time samples per component.

    ``enabled`` is fixed at construction.  A disabled accounting —
    every enclave and host stack has one unless given another —
    records nothing and builds no RNG, reservoir or histogram.
    """

    def __init__(self, enabled: bool = True,
                 registry: Optional[MetricRegistry] = None,
                 reservoir_size: int = RESERVOIR_SIZE,
                 rng: Optional[random.Random] = None) -> None:
        self.enabled = enabled
        self._lap_start = 0
        # Exact aggregates (never sampled) ...
        self._totals: Dict[str, int] = {b: 0 for b in BUCKETS}
        self._counts: Dict[str, int] = {b: 0 for b in BUCKETS}
        self.registry = registry
        if not enabled:
            return
        # ... a bounded uniform sample per bucket for percentiles ...
        seeded = rng if rng is not None else random.Random(0)
        self._reservoirs: Dict[str, Reservoir] = {
            b: Reservoir(reservoir_size, seeded) for b in BUCKETS}
        # ... and an optional telemetry mirror.
        if registry is not None:
            self._hists = {b: registry.histogram("cpu_ns", component=b)
                           for b in BUCKETS}
        else:
            self._hists = {b: NULL_HISTOGRAM for b in BUCKETS}

    def record(self, bucket: str, elapsed_ns: int) -> None:
        if not self.enabled:
            return
        self._totals[bucket] += elapsed_ns
        self._counts[bucket] += 1
        self._reservoirs[bucket].add(elapsed_ns)
        self._hists[bucket].observe(elapsed_ns)

    def now(self) -> int:
        return time.perf_counter_ns() if self.enabled else 0

    def mark(self) -> None:
        """Start timing a stretch that :meth:`lap` will close."""
        self._lap_start = self.now()

    def lap(self, bucket: str) -> None:
        """Record the time since the last :meth:`mark` or :meth:`lap`
        under ``bucket`` and start the next stretch; the cost of
        recording falls in neither."""
        self.record(bucket, self.now() - self._lap_start)
        self._lap_start = self.now()

    @property
    def samples(self) -> Dict[str, List[int]]:
        """Per-bucket retained samples (a bounded reservoir, not the
        full stream — use :meth:`totals`/:meth:`counts` for exact
        aggregates)."""
        if not self.enabled:
            return {b: [] for b in BUCKETS}
        return {b: list(r.values) for b, r in self._reservoirs.items()}

    def totals(self) -> Dict[str, int]:
        return dict(self._totals)

    def counts(self) -> Dict[str, int]:
        return dict(self._counts)

    def mean_ns(self, bucket: str) -> float:
        count = self._counts[bucket]
        return self._totals[bucket] / count if count else 0.0

    def percentile_ns(self, bucket: str, pct: float) -> float:
        if not self.enabled:
            return nearest_rank([], pct)
        return nearest_rank(self._reservoirs[bucket].values, pct)

    def reset(self) -> None:
        for bucket in BUCKETS:
            self._totals[bucket] = 0
            self._counts[bucket] = 0
            if self.enabled:
                self._reservoirs[bucket].clear()
