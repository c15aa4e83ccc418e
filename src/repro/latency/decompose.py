"""Correlating raw per-packet events into delay decompositions.

Every component on the data path reports timestamped events in
*simulated* nanoseconds, keyed by ``packet.packet_id``:

* the host stack reports the send time, the scheduled emit time, and
  the modeled processing-cost parts (vanilla stack/classification,
  enclave match, function execution);
* a rate-limited queue reports enqueue and release times;
* every output port reports enqueue and transmit-start times plus the
  serialization and propagation delay of the hop;
* the destination host reports arrival.

The collector joins them into one :class:`PacketRecord` per delivered
packet.  The accounting identity is the design contract::

    e2e = t_received - t_sent
        = stage_classify + enclave_match + interpreter_execute
        + host_queue + ratelimiter_queue + switch_queue
        + link_serialization + link_propagation + unattributed

``unattributed`` is computed as the closing residual, so the segments
*always* sum exactly to the observed end-to-end delay; with complete
instrumentation it is exactly 0 (asserted analytically in
``tests/latency/test_decompose.py``), and any positive residual is an
honest signal of an uninstrumented wait, never a silently absorbed
error.

Segment taxonomy (all integer ns of simulated time):

``stage_classify``
    The vanilla stack + API/classification cost
    (``HostStack.stack_latency_ns`` — paper Figure 12's "API" +
    baseline send path).
``enclave_match``
    The enclave placement's per-packet base cost (match-action
    lookup; ``Enclave.per_packet_base_cost_ns``).
``interpreter_execute``
    Action-function execution: executed bytecode ops or, under the
    native charge, executed actions (``interpreter_ns_per_op`` /
    ``native_action_cost_ns``).
``host_queue``
    Extra wait from the stack's monotonic-emission clamp (a packet
    cannot leave before its predecessor — host-side HOL ordering).
``ratelimiter_queue``
    Token-bucket queueing in :mod:`repro.stack.ratelimiter` (Pulsar);
    0 for packets that pass through unlimited.
``switch_queue``
    Output-port queueing summed over every hop — the host NIC and
    each switch port (all devices are output-queued).
``link_serialization``
    Wire serialization time summed over every hop.
``link_propagation``
    Propagation delay summed over every hop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Attributable segment classes, in data-path order.
SEGMENTS: Tuple[str, ...] = (
    "stage_classify",
    "enclave_match",
    "interpreter_execute",
    "host_queue",
    "ratelimiter_queue",
    "switch_queue",
    "link_serialization",
    "link_propagation",
)

#: The explicit residual class closing the accounting identity.
RESIDUAL = "unattributed"

#: Every class a decomposition carries.
ALL_CLASSES: Tuple[str, ...] = SEGMENTS + (RESIDUAL,)


def flow_key(five_tuple: Sequence[int]) -> str:
    """Canonical (URL-safe) string form of a flow's five-tuple."""
    return "-".join(str(v) for v in five_tuple)


class PacketRecord:
    """One delivered packet's complete delay decomposition."""

    __slots__ = ("packet_id", "flow", "function", "size_bytes",
                 "sent_ns", "received_ns", "segments")

    def __init__(self, packet_id: int, flow: str, function: str,
                 size_bytes: int, sent_ns: int, received_ns: int,
                 segments: Dict[str, int]) -> None:
        self.packet_id = packet_id
        self.flow = flow
        self.function = function
        self.size_bytes = size_bytes
        self.sent_ns = sent_ns
        self.received_ns = received_ns
        self.segments = segments

    @property
    def e2e_ns(self) -> int:
        return self.received_ns - self.sent_ns

    @property
    def residual_ns(self) -> int:
        return self.segments[RESIDUAL]

    def as_dict(self) -> Dict[str, object]:
        return {
            "packet_id": self.packet_id,
            "flow": self.flow,
            "function": self.function,
            "size_bytes": self.size_bytes,
            "sent_ns": self.sent_ns,
            "received_ns": self.received_ns,
            "e2e_ns": self.e2e_ns,
            "segments": dict(self.segments),
        }

    def __repr__(self) -> str:
        return (f"PacketRecord(#{self.packet_id} {self.flow} "
                f"e2e={self.e2e_ns}ns "
                f"residual={self.residual_ns}ns)")


class _Journey:
    """The in-flight event accumulator for one tracked packet."""

    __slots__ = ("flow", "function", "size_bytes", "sent_ns",
                 "emit_ns", "classify_ns", "match_ns", "execute_ns",
                 "rlq_in_ns", "rlq_wait_ns", "port_in_ns",
                 "port_wait_ns", "serialize_ns", "propagate_ns")

    def __init__(self, flow: str, function: str, size_bytes: int,
                 sent_ns: int, emit_ns: int, classify_ns: int,
                 match_ns: int, execute_ns: int) -> None:
        self.flow = flow
        self.function = function
        self.size_bytes = size_bytes
        self.sent_ns = sent_ns
        self.emit_ns = emit_ns
        self.classify_ns = classify_ns
        self.match_ns = match_ns
        self.execute_ns = execute_ns
        self.rlq_in_ns: Optional[int] = None
        self.rlq_wait_ns = 0
        self.port_in_ns: Optional[int] = None
        self.port_wait_ns = 0
        self.serialize_ns = 0
        self.propagate_ns = 0


class LatencyCollector:
    """Joins per-packet data-path events into segment records.

    Bounded: at most ``max_pending`` in-flight journeys are kept;
    when the bound is hit the oldest journey is evicted (and counted)
    — a packet lost without an observable drop event can therefore
    never grow memory.  Completed records are pushed into a
    :class:`~repro.latency.store.LatencyStore`.

    Correlation is by ``packet.packet_id``; events for ids that were
    never started (sent before the collector was bound, or control
    traffic outside an instrumented stack) are counted as orphans and
    otherwise ignored.
    """

    def __init__(self, store=None, max_pending: int = 65536) -> None:
        if max_pending <= 0:
            raise ValueError("max_pending must be > 0")
        if store is None:
            from .store import LatencyStore
            store = LatencyStore()
        self.store = store
        self.max_pending = max_pending
        self._pending: Dict[int, _Journey] = {}
        self.started = 0
        self.completed = 0
        self.dropped = 0
        self.evicted = 0
        self.restarted = 0
        self.orphan_events = 0

    # -- event intake (called from instrumented components) ------------

    def stack_sent(self, packet, now_ns: int, emit_ns: int,
                   classify_ns: int, match_ns: int, execute_ns: int,
                   functions: Sequence[str] = ()) -> None:
        """The host stack accepted a packet for transmission at
        ``now_ns`` and scheduled its emission at ``emit_ns``, having
        charged the given modeled processing costs."""
        pid = packet.packet_id
        if pid in self._pending:
            # A retransmission reuses the packet object (and id):
            # restart the journey — the decomposition describes the
            # delivering attempt.
            self.restarted += 1
        else:
            self.started += 1
        if len(self._pending) >= self.max_pending:
            self._pending.pop(next(iter(self._pending)))
            self.evicted += 1
        self._pending[pid] = _Journey(
            flow=flow_key(packet.five_tuple),
            function=functions[0] if functions else "",
            size_bytes=packet.size, sent_ns=now_ns, emit_ns=emit_ns,
            classify_ns=classify_ns, match_ns=match_ns,
            execute_ns=execute_ns)

    def rlq_enqueued(self, packet_id: int, now_ns: int,
                     queue: str) -> None:
        journey = self._pending.get(packet_id)
        if journey is None:
            self.orphan_events += 1
            return
        journey.rlq_in_ns = now_ns

    def rlq_released(self, packet_id: int, now_ns: int) -> None:
        journey = self._pending.get(packet_id)
        if journey is None:
            self.orphan_events += 1
            return
        if journey.rlq_in_ns is not None:
            journey.rlq_wait_ns += now_ns - journey.rlq_in_ns
            journey.rlq_in_ns = None

    def port_enqueued(self, packet_id: int, now_ns: int) -> None:
        journey = self._pending.get(packet_id)
        if journey is None:
            self.orphan_events += 1
            return
        journey.port_in_ns = now_ns

    def port_tx_start(self, packet_id: int, now_ns: int,
                      tx_ns: int, prop_ns: int) -> None:
        journey = self._pending.get(packet_id)
        if journey is None:
            self.orphan_events += 1
            return
        if journey.port_in_ns is not None:
            journey.port_wait_ns += now_ns - journey.port_in_ns
            journey.port_in_ns = None
        journey.serialize_ns += tx_ns
        journey.propagate_ns += prop_ns

    def packet_dropped(self, packet_id: int) -> None:
        """The packet will never arrive: discard its journey."""
        if self._pending.pop(packet_id, None) is not None:
            self.dropped += 1

    def host_received(self, packet, now_ns: int, host: str) -> None:
        """Arrival at a destination NIC: finalize and store."""
        journey = self._pending.pop(packet.packet_id, None)
        if journey is None:
            return
        segments = {
            "stage_classify": journey.classify_ns,
            "enclave_match": journey.match_ns,
            "interpreter_execute": journey.execute_ns,
            "host_queue": (journey.emit_ns - journey.sent_ns -
                           journey.classify_ns - journey.match_ns -
                           journey.execute_ns),
            "ratelimiter_queue": journey.rlq_wait_ns,
            "switch_queue": journey.port_wait_ns,
            "link_serialization": journey.serialize_ns,
            "link_propagation": journey.propagate_ns,
        }
        e2e = now_ns - journey.sent_ns
        segments[RESIDUAL] = e2e - sum(segments.values())
        self.completed += 1
        self.store.add(PacketRecord(
            packet_id=packet.packet_id, flow=journey.flow,
            function=journey.function, size_bytes=journey.size_bytes,
            sent_ns=journey.sent_ns, received_ns=now_ns,
            segments=segments))

    # -- introspection --------------------------------------------------

    @property
    def pending(self) -> int:
        return len(self._pending)

    def stats(self) -> Dict[str, int]:
        return {
            "started": self.started,
            "completed": self.completed,
            "dropped": self.dropped,
            "evicted": self.evicted,
            "restarted": self.restarted,
            "orphan_events": self.orphan_events,
            "pending": len(self._pending),
        }

    def __repr__(self) -> str:
        return (f"LatencyCollector(completed={self.completed}, "
                f"pending={len(self._pending)}, "
                f"dropped={self.dropped})")
