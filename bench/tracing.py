"""Spans and counts at layer boundaries, recorded from outside.

The benchmark may not edit ``src/``, so a traced run wraps public
methods with instance attributes (the way ``experiments/fig12.py``
wraps ``send_packet``) — or, for objects created mid-run, with a
class attribute that :meth:`Tracer.unwrap_all` restores.  Every call
through a wrapper is counted; a span (name, start, end, parent,
trace id, weight) is recorded only while the current *trace unit* —
a burst, slice or chunk — is sampled, so most of the run pays one
counter bump per boundary and nothing else.

Spans stay in memory until :meth:`Tracer.write_jsonl`.  A layer's
self time is its spans' duration minus what their child spans cover.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layers, most specific prefix first; a span belongs to the first
#: layer its name starts with.
LAYERS = ("lang", "core.stage", "core.enclave", "stack.ratelimiter",
          "stack", "transport.tcp", "netsim", "control", "fleet",
          "bench")

#: Name of the root span of one trace unit.
UNIT = "bench.unit"

_MISSING = object()

# (name, start_ns, end_ns, parent index or -1, trace id, weight)
Span = Tuple[str, int, int, int, int, int]


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise KeyError(f"span {name!r} belongs to no layer")


def direct(_index: int, fn: Callable[[], object]) -> object:
    """The untraced stand-in for :meth:`Tracer.unit`."""
    return fn()


class Tracer:
    def __init__(self, stride: int) -> None:
        self.stride = stride
        #: A slot is None only while its span is open.
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.sampling = False
        self._trace_id = -1
        self._stack: List[int] = []
        self._wrapped: List[Tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, obj: object, attr: str, name: str,
             weight: Optional[Callable[..., int]] = None) -> None:
        """Route ``obj.attr`` through a counting, span-recording
        wrapper.  ``weight(*args)`` sizes a call that handles several
        items (a batch); counts and spans carry it."""
        layer_of(name)
        inner = getattr(obj, attr)
        self._wrapped.append((obj, attr,
                              vars(obj).get(attr, _MISSING)))
        counts = self.counts
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            size = 1 if weight is None else weight(*args)
            counts[name] += size
            if not self.sampling:
                return inner(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                self._trace_id, size)

        setattr(obj, attr, traced)

    def unwrap_all(self) -> None:
        for obj, attr, original in reversed(self._wrapped):
            if original is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._wrapped.clear()

    def unit(self, index: int, fn: Callable[[], object]) -> object:
        """Run ``fn`` as trace unit ``index``; every ``stride``-th
        unit records spans under one :data:`UNIT` root."""
        self.counts[UNIT] += 1
        if index % self.stride:
            return fn()
        self._trace_id = index
        self.sampling = True
        root = len(self.spans)
        self.spans.append(None)
        self._stack.append(root)
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.sampling = False
            self.spans[root] = (UNIT, start, end, -1, index, 1)

    # -- analysis ----------------------------------------------------------

    def summary(self, slowdown: float) -> "TraceSummary":
        """Totals over the recorded spans; ``slowdown`` (the run's
        median calibration) turns their times into reference-box
        nanoseconds."""
        if self._stack:
            raise RuntimeError("spans are still open")
        return TraceSummary(self.spans, self.counts, slowdown)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                name, start, end, parent, trace, size = span
                out.write(json.dumps({
                    "span": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "trace": trace,
                    "weight": size}) + "\n")


class TraceSummary:
    """Per-name totals, self times and durations of recorded spans.

    The ``*_ns`` dicts hold raw nanoseconds; the accessor methods
    return reference-box nanoseconds.
    """

    def __init__(self, spans: List[Span], counts: Counter,
                 slowdown: float) -> None:
        self.counts = counts
        self.slowdown = slowdown
        covered: Dict[int, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.weight: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[int]] = defaultdict(list)
        for name, start, end, parent, _trace, _size in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (name, start, end, _parent, _trace,
                    size) in enumerate(spans):
            duration = end - start
            self.total_ns[name] += duration
            self.self_ns[name] += duration - covered[index]
            self.weight[name] += size
            self.durations[name].append(duration)
        self.unit_ns = self.total_ns.get(UNIT, 0)

    def per_item_ns(self, name: str, self_time: bool = False,
                    per: Optional[str] = None) -> float:
        """Mean (self) ns of ``name`` spans per weighted item of
        ``per`` spans (default: of their own)."""
        items = self.weight.get(per or name)
        if not items:
            return 0.0
        source = self.self_ns if self_time else self.total_ns
        return source.get(name, 0) / items / self.slowdown

    def percentile_ns(self, name: str, pct: float) -> float:
        """Nearest-rank percentile of ``name`` spans' durations."""
        values = sorted(self.durations.get(name, ()))
        if not values:
            return 0.0
        rank = max(1, math.ceil(len(values) * pct / 100))
        return values[rank - 1] / self.slowdown

    def median_ns(self, name: str) -> float:
        values = self.durations.get(name)
        if not values:
            return 0.0
        return statistics.median(values) / self.slowdown

    def share(self, name: str) -> float:
        """Inclusive time of ``name`` spans over all unit time."""
        if not self.unit_ns:
            return 0.0
        return self.total_ns.get(name, 0) / self.unit_ns

    def layer_self_share(self, layer: str) -> float:
        """Self time of every span of ``layer`` over all unit time."""
        if not self.unit_ns:
            return 0.0
        own = sum(ns for name, ns in self.self_ns.items()
                  if layer_of(name) == layer)
        return own / self.unit_ns
