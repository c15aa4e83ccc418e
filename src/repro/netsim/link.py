"""Output ports and links: strict-priority queues + serialization.

Every device-to-device connection is a pair of unidirectional
:class:`Port` objects.  A port owns eight strict-priority FIFO queues
(802.1q priority code points 0-7, higher PCP served first — the
commodity "network priorities" support Eden assumes, Section 3.5), a
byte-capacity tail-drop limit, an optional ECN marking threshold, and
the attached link's rate and propagation delay.

Transmission is serialized: while a packet is on the wire the port is
busy; when it goes idle the highest-priority head-of-line packet is
transmitted next.

A transmission posts its arrival at the peer and draws the key of its
end (:meth:`Simulator.draw`): the port is busy until the loop passes
that key, and files ``_tx_done`` there only if a packet waits.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, TYPE_CHECKING

from .packet import Packet
from .simulator import SEC, Simulator

if TYPE_CHECKING:
    from .switchdev import Device

NUM_PRIORITIES = 8
DEFAULT_QUEUE_CAPACITY = 300_000      # bytes, shared across priorities
DEFAULT_PROP_DELAY_NS = 1_000         # 1 us per hop


class PortStats:
    __slots__ = ("tx_packets", "tx_bytes", "drops", "drop_bytes",
                 "ecn_marks", "busy_ns", "failed_drops")

    def __init__(self) -> None:
        self.tx_packets = 0
        self.tx_bytes = 0
        self.drops = 0
        self.drop_bytes = 0
        self.ecn_marks = 0
        self.busy_ns = 0
        self.failed_drops = 0


class Port:
    """One unidirectional output port plus the link it drives."""

    def __init__(self, sim: Simulator, name: str, rate_bps: int,
                 prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
                 queue_capacity_bytes: int = DEFAULT_QUEUE_CAPACITY,
                 ecn_threshold_bytes: Optional[int] = None) -> None:
        if rate_bps <= 0:
            raise ValueError(f"port {name}: rate must be positive")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.prop_delay_ns = prop_delay_ns
        self.queue_capacity_bytes = queue_capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.peer: Optional["Device"] = None
        self._queues: List[Deque[Packet]] = [
            deque() for _ in range(NUM_PRIORITIES)]
        #: The same queues in service order, highest priority first.
        self._by_service = self._queues[::-1]
        self._queued_bytes = 0
        self._waiting = 0                   # packets in the queues
        self._tx_end = (-1, -1)             # key of the last one's end
        self._filed = False                 # whether _tx_done is there
        self.failed = False
        self.stats = PortStats()

    # -- failure injection -------------------------------------------------

    def fail(self) -> int:
        """Take the link down: queued and future packets are lost.

        Returns the number of packets dropped from the queue.  In-
        flight packets (already serialized onto the wire) still
        arrive, like a real fiber cut at the transmitter.
        """
        self.failed = True
        dropped = 0
        lat = self.sim.latency
        for queue in self._queues:
            while queue:
                packet = queue.popleft()
                self._queued_bytes -= packet.size
                self.stats.failed_drops += 1
                if lat is not None:
                    lat.packet_dropped(packet.packet_id)
                dropped += 1
        self._waiting = 0
        return dropped

    def repair(self) -> None:
        """Bring the link back up."""
        self.failed = False

    def connect(self, peer: "Device") -> None:
        self.peer = peer

    # -- enqueue/dequeue ---------------------------------------------------

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    def enqueue(self, packet: Packet) -> bool:
        """Queue a packet for transmission; False means tail-dropped."""
        if self.peer is None:
            raise RuntimeError(f"port {self.name} is not connected")
        # Dwell-time instrumentation (repro.latency): sim.latency is
        # None unless a run bound a LatencyCollector, so the disabled
        # path costs one attribute load + comparison per packet.
        sim = self.sim
        lat = sim.latency
        if self.failed:
            self.stats.failed_drops += 1
            if lat is not None:
                lat.packet_dropped(packet.packet_id)
            return False
        size = packet.size
        queued = self._queued_bytes
        if queued + size > self.queue_capacity_bytes:
            self.stats.drops += 1
            self.stats.drop_bytes += size
            if lat is not None:
                lat.packet_dropped(packet.packet_id)
            return False
        if self.ecn_threshold_bytes is not None and \
                queued >= self.ecn_threshold_bytes:
            packet.ecn = 1
            self.stats.ecn_marks += 1
        if lat is not None:
            lat.port_enqueued(packet.packet_id, sim.now)
        if self._tx_end <= sim._passed:   # idle: straight onto the wire
            self._transmit(packet)
            return True
        prio = packet.priority
        if not 0 <= prio < NUM_PRIORITIES:
            prio = 0 if prio < 0 else NUM_PRIORITIES - 1
        self._queues[prio].append(packet)
        self._queued_bytes = queued + size
        self._waiting += 1
        if not self._filed:
            self._filed = True
            sim.file(self._tx_end, self._tx_done)
        return True

    def _tx_done(self) -> None:
        """The filed end of a transmission: put the next queued packet
        on the wire (the queue is empty only if :meth:`fail` ran)."""
        self._filed = False
        for queue in self._by_service:
            if queue:
                packet = queue.popleft()
                break
        else:
            return
        self._queued_bytes -= packet.size
        self._waiting -= 1
        self._transmit(packet)

    def _transmit(self, packet: Packet) -> None:
        size = packet.size
        tx_ns = size * 8 * SEC // self.rate_bps
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += size
        stats.busy_ns += tx_ns
        sim = self.sim
        lat = sim.latency
        if lat is not None:
            lat.port_tx_start(packet.packet_id, sim.now, tx_ns,
                              self.prop_delay_ns)
        sim.post(tx_ns + self.prop_delay_ns, self._deliver, packet)
        self._tx_end = sim.draw(tx_ns)
        if self._waiting:
            self._filed = True
            sim.file(self._tx_end, self._tx_done)

    def _deliver(self, packet: Packet) -> None:
        packet.hop_count += 1
        self.peer.receive(packet, self)

    # -- introspection -----------------------------------------------------

    def utilization(self, elapsed_ns: int) -> float:
        """Fraction of ``elapsed_ns`` the link spent transmitting."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.stats.busy_ns / elapsed_ns)

    def __repr__(self) -> str:
        return (f"Port({self.name}, {self.rate_bps / 1e9:g} Gbps, "
                f"queued={self._queued_bytes}B)")


def duplex_connect(sim: Simulator, a: "Device", b: "Device",
                   rate_bps: int,
                   prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
                   queue_capacity_bytes: int = DEFAULT_QUEUE_CAPACITY,
                   ecn_threshold_bytes: Optional[int] = None
                   ) -> "tuple[Port, Port]":
    """Create the two directed ports of a full-duplex link a<->b and
    attach them to the devices."""
    a_to_b = Port(sim, f"{a.name}->{b.name}", rate_bps, prop_delay_ns,
                  queue_capacity_bytes, ecn_threshold_bytes)
    b_to_a = Port(sim, f"{b.name}->{a.name}", rate_bps, prop_delay_ns,
                  queue_capacity_bytes, ecn_threshold_bytes)
    a_to_b.connect(b)
    b_to_a.connect(a)
    a.attach_port(a_to_b, b)
    b.attach_port(b_to_a, a)
    return a_to_b, b_to_a
