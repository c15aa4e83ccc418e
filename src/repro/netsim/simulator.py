"""Deterministic discrete-event simulator core.

All simulated time is integer nanoseconds.  Events scheduled for the
same instant fire in scheduling order (a monotonically increasing
sequence number breaks ties), which makes every run bit-for-bit
reproducible for a given seed.

:meth:`Simulator.schedule` returns an :class:`Event` its caller may
cancel or move; :meth:`post` (and :meth:`at`, at an absolute time)
puts work on the heap that nobody will, and returns nothing.  The heap
holds ``(time, seq, event)`` tuples, and ``(time, seq, callback,
args)`` for :meth:`post` and :meth:`file`.  ``seq`` is unique,
so heap operations compare ints in C and never reach the third item.
Cancelling marks the event and leaves its entry in the heap as a
tombstone that the loop drops when it surfaces.

:meth:`Simulator.reschedule` moves a timer.  It is defined as
``event.cancel(); schedule(delay, event.callback, *event.args)`` — the
new sequence number is drawn at the same moment — but it re-uses the
handle, and when the new key is later than the entry the event already
has in the heap it only rewrites the key: the stale entry is re-filed
under the stored key when it surfaces, without advancing the clock or
counting as an event.  A timer re-armed on every ACK therefore costs
a heap push only when its old deadline actually passes.  Fire order,
``events_processed`` and ``pending`` are the same as with cancel +
schedule.

:meth:`draw` takes the key ``schedule`` would and pushes nothing; the
slot fires only if filed before the loop passes it (``key <=
_passed``), and an empty one moves no clock and is never pending.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional, Tuple

NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

KBPS = 1_000
MBPS = 1_000_000
GBPS = 1_000_000_000

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(Exception):
    """The simulation reached an inconsistent state."""


class Event:
    """A scheduled callback; cancellable until it fires.

    ``time`` and ``seq`` are the event's current key.  ``_entry`` is
    the heap entry that stands for it (None once fired or once a
    cancelled entry was dropped); the entry's key may be earlier than
    the event's after a deferring :meth:`Simulator.reschedule`.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled",
                 "_owner", "_entry")

    def __init__(self, time: int, seq: int, callback: Callable,
                 args: tuple, owner: "Optional[Simulator]") -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._owner = owner
        self._entry: Optional[Tuple[int, int, Event]] = None

    def cancel(self) -> None:
        # The owner's live-event counter must move exactly once per
        # event: repeated cancels and cancels after the event fired
        # (owner already detached) are no-ops.
        if self.cancelled:
            return
        self.cancelled = True
        if self._owner is not None:
            self._owner._live -= 1
            self._owner = None


class Simulator:
    """Event loop with an integer-nanosecond clock.

    A single :class:`random.Random` seeded at construction is shared by
    every component that needs randomness (ECMP hashing salt, workload
    generation, the enclave's ``rand`` builtin), so a run is fully
    determined by its seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: int = 0
        self.rng = random.Random(seed)
        self._heap: List[tuple] = []
        self._seq = 0                  # the next sequence number
        self._live = 0
        #: Keys up to this have passed: the entry firing (or last fired)
        #: or, after a run, ``(now, last seq drawn)``.
        self._passed: tuple = (0, -1)
        self.events_processed = 0
        # Bound lazily (bind_telemetry) to avoid importing telemetry
        # nulls here; run() checks for None instead.
        self._m_events = None
        self._g_now = None
        #: Per-packet latency event sink
        #: (:class:`repro.latency.LatencyCollector`); None keeps the
        #: data-path instrumentation in :mod:`repro.netsim.link` and
        #: :mod:`repro.netsim.host` on a one-comparison no-op path.
        self.latency = None

    def bind_telemetry(self, telemetry) -> None:
        """Mirror the event counter and clock into a
        :class:`repro.telemetry.MetricRegistry` (batched per run() so
        the event loop itself stays uninstrumented)."""
        if telemetry is None or not telemetry.enabled:
            return
        self._m_events = telemetry.registry.counter("sim_events_total")
        self._g_now = telemetry.registry.gauge("sim_now_ns")
        latency = getattr(telemetry, "latency", None)
        if latency is not None:
            self.latency = latency

    def schedule(self, delay_ns: int, callback: Callable,
                 *args) -> Event:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now."""
        time, seq = self.draw(delay_ns)
        event = Event(time, seq, callback, args, self)
        event._entry = entry = (time, seq, event)
        _heappush(self._heap, entry)
        self._live += 1
        return event

    def post(self, delay_ns: int, callback: Callable, *args) -> None:
        """:meth:`schedule` an event that nobody will cancel or move."""
        if delay_ns < 0:
            raise SimulationError(
                f"cannot schedule {delay_ns} ns in the past")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (self.now + delay_ns, seq, callback, args))
        self._live += 1

    def draw(self, delay_ns: int) -> Tuple[int, int]:
        """The key an event scheduled ``delay_ns`` from now would get;
        nothing fires there unless a callback is filed there."""
        if delay_ns < 0:
            raise SimulationError(
                f"cannot schedule {delay_ns} ns in the past")
        seq = self._seq
        self._seq = seq + 1
        return (self.now + delay_ns, seq)

    def file(self, key: Tuple[int, int], callback: Callable,
             *args) -> None:
        """:meth:`post` at a drawn key, once and before it passes."""
        if key <= self._passed:
            raise SimulationError(f"cannot file passed key {key}")
        _heappush(self._heap, (key[0], key[1], callback, args))
        self._live += 1

    def at(self, time_ns: int, callback: Callable, *args) -> None:
        """:meth:`post` ``callback`` at an absolute simulation time."""
        self.post(time_ns - self.now, callback, *args)

    def reschedule(self, event: Event, delay_ns: int) -> Event:
        """Move ``event`` (live, cancelled or fired) to ``delay_ns``
        from now and return it, live.

        Observably ``event.cancel(); return self.schedule(delay_ns,
        event.callback, *event.args)``, except that the handle is
        re-used: the caller's reference denotes the moved event.
        """
        if delay_ns < 0:
            event.cancel()
            raise SimulationError(
                f"cannot schedule {delay_ns} ns in the past")
        time = self.now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        if event._owner is None:
            event.cancelled = False
            event._owner = self
            self._live += 1
        event.time = time
        event.seq = seq
        entry = event._entry
        if entry is None or time < entry[0]:
            # No entry, or one too late to carry the new key: file a
            # fresh entry; the old one (if any) is dead from now on.
            event._entry = entry = (time, seq, event)
            _heappush(self._heap, entry)
        return event

    def run(self, until_ns: Optional[int] = None) -> int:
        """Run until the heap drains or ``until_ns`` passes; the clock
        then ends at ``until_ns`` (if later).  Returns the number of
        events processed."""
        heap = self._heap
        heappop = _heappop
        until = 1 << 63 if until_ns is None else until_ns
        processed = 0
        while heap:
            entry = heappop(heap)
            time = entry[0]
            if time > until:
                _heappush(heap, entry)
                break
            callback = entry[2]
            if callback.__class__ is Event:
                event = callback
                if event.seq != entry[1] or event.cancelled:
                    self._settle(entry)
                    continue
                event._owner = None
                event._entry = None
                callback, args = event.callback, event.args
            else:
                args = entry[3]
            if time < self.now:
                raise SimulationError("event time went backwards")
            self.now = time
            self._passed = entry
            self._live -= 1
            callback(*args)
            processed += 1
        if until_ns is not None and self.now < until_ns:
            self.now = until_ns
        if until_ns is None or self.now == until_ns:
            self._passed = (self.now, self._seq - 1)
        self.events_processed += processed
        if self._m_events is not None:
            self._m_events.inc(processed)
            self._g_now.set(self.now)
        return processed

    @property
    def pending(self) -> int:
        """Number of live (not yet fired, not cancelled) events.

        O(1): a counter maintained by schedule/cancel/run instead of a
        heap scan.
        """
        return self._live

    def _settle(self, entry: Tuple[int, int, Event]) -> None:
        """Dispose of a popped entry that does not fire: a cancelled
        event's own entry is forgotten, one a later-key reschedule
        deferred is re-filed under the event's current key, and one a
        fresher entry superseded is simply dropped."""
        event = entry[2]
        if event._entry is not entry:
            return
        if event.cancelled:
            event._entry = None
        else:
            event._entry = entry = (event.time, event.seq, event)
            _heappush(self._heap, entry)

    def clock(self) -> int:
        """Clock callable handed to enclaves (CLOCK opcode source)."""
        return self.now
