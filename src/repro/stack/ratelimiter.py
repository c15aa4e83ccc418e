"""Token-bucket rate limiters for the end-host stack.

Pulsar's data-plane function (paper Figure 3) sends each packet "to
queue queueMap[packet.tenant] and charge[s] it size bytes" — where the
charge is the *operation* size for READs and the packet size otherwise.
These are those queues: each :class:`RateLimitedQueue` is a token
bucket whose tokens are bytes, draining a FIFO of packets; the charge
of a packet is taken from ``packet.charge_bytes`` (action functions set
``packet.charge`` to override the default of the wire size).
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from ..netsim.packet import Packet
from ..netsim.simulator import SEC, Simulator
from ..telemetry import NULL_TELEMETRY


class RateLimitedQueue:
    """A byte token bucket in front of a FIFO of packets."""

    def __init__(self, sim: Simulator, name: str, rate_bps: int,
                 burst_bytes: int,
                 forward: Callable[[Packet], None],
                 max_queue_bytes: int = 4_000_000,
                 telemetry=None) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self.forward = forward
        self.max_queue_bytes = max_queue_bytes
        self._tokens = float(burst_bytes)
        self._last_refill = sim.now
        self._queue: Deque[Tuple[Packet, int]] = deque()
        self._queued_bytes = 0
        self._drain_event = None
        self.enqueued = 0
        self.forwarded = 0
        self.dropped = 0
        self.charged_bytes = 0
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Latency-decomposition sink (repro.latency): enqueue/release
        #: timestamps keyed by packet id; None is a no-op path.
        self._lat = getattr(tel, "latency", None)
        registry = tel.registry
        self._m_enqueued = registry.counter(
            "ratelimiter_enqueued_total", queue=name)
        self._m_forwarded = registry.counter(
            "ratelimiter_forwarded_total", queue=name)
        self._m_dropped = registry.counter(
            "ratelimiter_dropped_total", queue=name)
        self._h_charge = registry.histogram(
            "ratelimiter_charge_bytes", queue=name)
        self._g_backlog = registry.gauge(
            "ratelimiter_backlog_bytes", queue=name)

    def set_rate(self, rate_bps: int) -> None:
        """Controller update of the queue's rate."""
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self._refill()
        self.rate_bps = rate_bps
        self._reschedule()

    def submit(self, packet: Packet) -> bool:
        """Queue a packet; False means the queue overflowed."""
        charge = packet.charge_bytes
        if self._queued_bytes + packet.size > self.max_queue_bytes:
            self.dropped += 1
            self._m_dropped.inc()
            if self._lat is not None:
                self._lat.packet_dropped(packet.packet_id)
            return False
        self._queue.append((packet, charge))
        self._queued_bytes += packet.size
        self.enqueued += 1
        self._m_enqueued.inc()
        if self._lat is not None:
            self._lat.rlq_enqueued(packet.packet_id, self.sim.now,
                                   self.name)
        self._drain()
        self._g_backlog.set(self._queued_bytes)
        return True

    def submit_batch(self, packets: Sequence[Packet]) -> List[bool]:
        """Admit many same-tick packets with one token computation.

        Equivalent to ``[self.submit(p) for p in packets]`` — same
        admission decisions, same forwarded packets in the same order,
        same token balance, same release time for whatever stays
        queued (``tests/stack/test_ratelimiter_batch.py``) — but the
        bucket refill, the backlog gauge update and the drain-timer
        reschedule happen once per batch instead of once per packet.
        Admission and draining still interleave per packet because a
        drain can free queue space that changes a later packet's
        overflow check.
        """
        self._refill()
        out: List[bool] = []
        for packet in packets:
            charge = packet.charge_bytes
            if self._queued_bytes + packet.size > self.max_queue_bytes:
                self.dropped += 1
                self._m_dropped.inc()
                if self._lat is not None:
                    self._lat.packet_dropped(packet.packet_id)
                out.append(False)
                continue
            self._queue.append((packet, charge))
            self._queued_bytes += packet.size
            self.enqueued += 1
            self._m_enqueued.inc()
            if self._lat is not None:
                self._lat.rlq_enqueued(packet.packet_id, self.sim.now,
                                       self.name)
            self._drain_ready()
            out.append(True)
        self._g_backlog.set(self._queued_bytes)
        self._reschedule()
        return out

    @property
    def backlog_bytes(self) -> int:
        return self._queued_bytes

    def _refill(self) -> None:
        elapsed = self.sim.now - self._last_refill
        if elapsed > 0:
            self._tokens = min(
                float(self.burst_bytes),
                self._tokens + elapsed * self.rate_bps / (8.0 * SEC))
            self._last_refill = self.sim.now

    def _drain(self) -> None:
        self._refill()
        self._drain_ready()
        self._g_backlog.set(self._queued_bytes)
        self._reschedule()

    def _drain_ready(self) -> None:
        """Forward packets while the bucket covers the head charge."""
        while self._queue:
            packet, charge = self._queue[0]
            if charge > self.burst_bytes:
                # A charge above the bucket capacity can never gather
                # enough tokens: drop it rather than wedge the queue.
                self._queue.popleft()
                self._queued_bytes -= packet.size
                self.dropped += 1
                self._m_dropped.inc()
                if self._lat is not None:
                    self._lat.packet_dropped(packet.packet_id)
                continue
            if charge > self._tokens:
                break
            self._queue.popleft()
            self._queued_bytes -= packet.size
            self._tokens -= charge
            self.charged_bytes += charge
            self.forwarded += 1
            self._m_forwarded.inc()
            self._h_charge.observe(charge)
            if self._lat is not None:
                self._lat.rlq_released(packet.packet_id, self.sim.now)
            self.forward(packet)

    def _reschedule(self) -> None:
        # One drain timer per queue, kept across cancel and fire and
        # moved with Simulator.reschedule.
        if not self._queue:
            if self._drain_event is not None:
                self._drain_event.cancel()
            return
        _, charge = self._queue[0]
        deficit = charge - self._tokens
        wait_ns = max(1, int(deficit * 8 * SEC / self.rate_bps))
        if self._drain_event is None:
            self._drain_event = self.sim.schedule(wait_ns, self._drain)
        else:
            self.sim.reschedule(self._drain_event, wait_ns)


class RateLimiterBank:
    """The set of rate-limited queues of one host, keyed by queue id.

    Queue id 0 is "no rate limiting" by convention; action functions
    steer packets by writing ``packet.queue_id``.
    """

    def __init__(self, sim: Simulator,
                 forward: Callable[[Packet], None],
                 telemetry=None) -> None:
        self.sim = sim
        self.forward = forward
        self.telemetry = telemetry
        self._queues: Dict[int, RateLimitedQueue] = {}

    def configure(self, queue_id: int, rate_bps: int,
                  burst_bytes: int = 100_000) -> RateLimitedQueue:
        if queue_id == 0:
            raise ValueError("queue id 0 means 'not rate limited'")
        queue = self._queues.get(queue_id)
        if queue is None:
            queue = RateLimitedQueue(
                self.sim, f"rlq{queue_id}", rate_bps, burst_bytes,
                self.forward, telemetry=self.telemetry)
            self._queues[queue_id] = queue
        else:
            queue.set_rate(rate_bps)
        return queue

    def queue(self, queue_id: int) -> Optional[RateLimitedQueue]:
        return self._queues.get(queue_id)

    def submit(self, packet: Packet) -> bool:
        """Route a packet to its queue; unknown ids pass through."""
        queue = self._queues.get(packet.queue_id)
        if queue is None:
            self.forward(packet)
            return True
        return queue.submit(packet)

    def submit_batch(self, packets: Sequence[Packet]) -> List[bool]:
        """Route a same-tick batch, admitting each run of packets
        bound for the same queue with one token computation.

        Forwarding order is identical to submitting the packets one by
        one: runs are split exactly where ``queue_id`` changes, so a
        pass-through packet between two rate-limited ones still leaves
        in between.
        """
        out: List[bool] = []
        i, n = 0, len(packets)
        while i < n:
            qid = packets[i].queue_id
            j = i + 1
            while j < n and packets[j].queue_id == qid:
                j += 1
            queue = self._queues.get(qid)
            if queue is None:
                for k in range(i, j):
                    self.forward(packets[k])
                    out.append(True)
            else:
                out.extend(queue.submit_batch(packets[i:j]))
            i = j
        return out
