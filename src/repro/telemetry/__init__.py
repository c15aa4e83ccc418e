"""Unified telemetry: metrics registry, data-path spans, exporters.

One :class:`Telemetry` object bundles the three pieces every
instrumented component needs:

* ``registry`` — a :class:`~repro.telemetry.registry.MetricRegistry`
  of counters/gauges/log-bucketed histograms,
* ``tracer`` — a :class:`~repro.telemetry.spans.Tracer` whose
  finished spans land in
* ``recorder`` — a bounded
  :class:`~repro.telemetry.spans.FlightRecorder`.

Components take ``telemetry=None`` and fall back to
:data:`NULL_TELEMETRY`, whose registry hands out no-op instruments
and whose tracer hands out a no-op span — instrumentation then costs
one empty method call, nothing more.  The enclave data path guards
even that behind one cached ``tracing`` test, so an enclave without
telemetry binds no per-hop instruments
(``tests/telemetry/test_instrumentation.py``), and one with telemetry
runs each function on the same tier as one without
(``tests/telemetry/test_same_tier.py``); the wall-clock cost of "on"
is ``bench/``'s ``telemetry.on_overhead_pct``.

Usage::

    tel = Telemetry()
    enclave = Enclave("h1.enclave", telemetry=tel)
    ...
    print(prometheus_text(tel.registry))
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from .registry import (Counter, Gauge, Histogram, MetricRegistry,
                       NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM,
                       RegistryError, nearest_rank)
from .spans import (FlightRecorder, NULL_SPAN, Span, Tracer,
                    format_trace, spans_for_packet,
                    traces_containing)
from .exporters import (jsonl_dump, metric_jsonl_lines,
                        prometheus_text, span_jsonl_lines,
                        write_jsonl)

__all__ = [
    "Telemetry", "NULL_TELEMETRY",
    "MetricRegistry", "Counter", "Gauge", "Histogram",
    "RegistryError", "nearest_rank",
    "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM", "NULL_SPAN",
    "Tracer", "Span", "FlightRecorder",
    "traces_containing", "format_trace", "spans_for_packet",
    "prometheus_text", "metric_jsonl_lines", "span_jsonl_lines",
    "jsonl_dump", "write_jsonl",
]


class Telemetry:
    """Registry + tracer + flight recorder for one run.

    ``latency`` optionally carries a
    :class:`repro.latency.LatencyCollector`: a sink for *simulated-
    time* per-packet events (stack emit, rate-limiter queueing, port
    dwell, host receive) that the latency-decomposition subsystem
    joins into per-packet delay breakdowns.  It stays ``None`` unless
    a run opts in, so instrumented components guard with one
    ``is not None`` check and pay nothing otherwise.
    """

    def __init__(self, enabled: bool = True,
                 recorder_capacity: int = 4096,
                 clock: Optional[Callable[[], int]] = None,
                 latency=None) -> None:
        self.enabled = enabled
        self.registry = MetricRegistry(enabled=enabled)
        self.recorder = FlightRecorder(recorder_capacity)
        self.tracer = Tracer(self.recorder, enabled=enabled,
                             clock=clock or time.perf_counter_ns)
        self.latency = latency if enabled else None

    def reset(self) -> None:
        self.registry.reset()
        self.recorder.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"Telemetry({state}, "
                f"{len(self.registry.instruments())} instruments, "
                f"{self.recorder.recorded} spans)")


#: Shared disabled bundle; ``component(telemetry=None)`` binds to this.
NULL_TELEMETRY = Telemetry(enabled=False, recorder_capacity=1)
