"""The end-host network stack with the Eden enclave at its bottom.

Mirrors Figure 5 of the paper.  On transmit, a packet produced by the
transport (already tagged with its message's class and metadata — the
*API* step of Section 4.2) passes through the enclave's match-action
pipeline, then through any rate-limited queue the action functions
selected, and finally out of the NIC port chosen by the packet's path
label.  On receive, packets are optionally run through the enclave
(needed by receive-side functions such as stateful firewalls) and
demultiplexed to TCP connections or listeners.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..core.accounting import CpuAccounting
from ..core.enclave import Enclave
from ..netsim.packet import FLAG_SYN, Packet, PROTO_TCP
from ..netsim.simulator import Simulator
from ..telemetry import NULL_TELEMETRY, Telemetry
from ..transport.tcp import TcpConnection
from .ratelimiter import RateLimiterBank


#: The per-action charge of the paper's native baseline (Figs 9, 10).
NATIVE_ACTION_COST_NS = 150


class StackError(Exception):
    """The host stack was misconfigured or misused."""


class HostStack:
    """Transport + Eden data path of one end host.

    A packet the enclave processed is delayed by the placement's match
    cost plus the cost of the actions it ran, charged one of two ways:
    ``interpreter_ns_per_op`` per executed bytecode op (the default),
    or, when ``native_action_cost_ns`` is given, that much per
    executed action whatever its op count — the paper's "native"
    baseline, a policy hard-coded in the enclave (Section 5.1).
    """

    def __init__(self, sim: Simulator, host,
                 enclave: Optional[Enclave] = None,
                 accounting: Optional[CpuAccounting] = None,
                 process_rx: bool = False,
                 process_pure_acks: bool = True,
                 stack_latency_ns: int = 300,
                 interpreter_ns_per_op: int = 12,
                 native_action_cost_ns: Optional[int] = None,
                 batch_data_path: bool = False,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.sim = sim
        self.host = host
        self.enclave = enclave
        self.accounting = accounting or CpuAccounting(enabled=False)
        self.telemetry = (telemetry if telemetry is not None
                          else NULL_TELEMETRY)
        #: Latency-decomposition sink (repro.latency); None means the
        #: per-packet hooks below reduce to one comparison.
        self._lat = getattr(self.telemetry, "latency", None)
        registry = self.telemetry.registry
        self._m_tx = registry.counter("stack_packets_sent_total",
                                      host=host.name)
        self._m_enclave_drops = registry.counter(
            "stack_enclave_drops_total", host=host.name)
        self._m_to_controller = registry.counter(
            "stack_to_controller_total", host=host.name)
        self.process_rx = process_rx
        self.process_pure_acks = process_pure_acks
        # Simulated per-packet processing costs (Section 5.4's CPU
        # overheads translated into data-path latency): the vanilla
        # stack cost, then the per-op or the per-action charge.
        self.stack_latency_ns = stack_latency_ns
        self.interpreter_ns_per_op = interpreter_ns_per_op
        self.native_action_cost_ns = native_action_cost_ns
        self._last_emit_at = 0
        # Batched data path (opt-in): packets sent or received in the
        # same simulated tick are coalesced by a zero-delay flush
        # event and run through Enclave.process_batch in one go.
        # Per-packet delays, ordering, and enclave state are identical
        # to the scalar path; only the per-packet setup cost is
        # amortized.
        self.batch_data_path = batch_data_path
        self._tx_pending: List[Tuple[Packet, bool]] = []
        self._tx_flush_scheduled = False
        self._rx_pending: List[Packet] = []
        self._rx_flush_scheduled = False
        self.rate_limiters = RateLimiterBank(sim, self._emit,
                                             telemetry=telemetry)
        self._connections: Dict[Tuple, TcpConnection] = {}
        self._listeners: Dict[int, Callable] = {}
        self._ephemeral_ports = itertools.count(40_000)
        #: path label -> neighbor name; label 0 / unmapped labels use
        #: :attr:`default_peer` if set, else the first attached port.
        self.path_port_map: Dict[int, str] = {}
        self.default_peer: Optional[str] = None
        self.packets_sent = 0
        self.packets_dropped_by_enclave = 0
        self.packets_to_controller = 0
        host.bind_stack(self)

    @property
    def ip(self) -> int:
        return self.host.ip

    # -- connection management ------------------------------------------------

    def listen(self, port: int,
               on_connection: Callable[[TcpConnection], None]) -> None:
        """Accept connections on ``port``; the callback receives each
        new connection before its SYN is processed."""
        if port in self._listeners:
            raise StackError(f"port {port} already has a listener")
        self._listeners[port] = on_connection

    def connect(self, remote_ip: int, remote_port: int,
                local_port: Optional[int] = None,
                tenant: int = 0) -> TcpConnection:
        """Actively open a TCP connection."""
        if local_port is None:
            local_port = next(self._ephemeral_ports)
        conn = TcpConnection(self.sim, self, self.ip, local_port,
                             remote_ip, remote_port, tenant=tenant)
        key = conn.five_tuple
        if key in self._connections:
            raise StackError(f"connection {key} already exists")
        self._connections[key] = conn
        conn.connect()
        return conn

    def connection_done(self, conn: TcpConnection) -> None:
        self._connections.pop(conn.five_tuple, None)

    def connections(self) -> List[TcpConnection]:
        return list(self._connections.values())

    # -- transmit path ---------------------------------------------------------

    def send_packet(self, packet: Packet,
                    pure_ack: bool = False) -> None:
        """TX entry point used by the transport."""
        if self.batch_data_path:
            self._tx_pending.append((packet, pure_ack))
            if not self._tx_flush_scheduled:
                self._tx_flush_scheduled = True
                self.sim.post(0, self._flush_tx)
            return
        # The "API" step: metadata already attached by the transport's
        # message bookkeeping travels with the packet into the enclave.
        accounting = self.accounting
        if accounting.enabled:
            t0 = accounting.now()
            classifications = packet.classifications
            accounting.record("api", accounting.now() - t0)
        else:
            classifications = packet.classifications

        result = None
        match_ns = exec_ns = 0
        if self.enclave is not None and \
                (self.process_pure_acks or not pure_ack):
            result = self.enclave.process_packet(
                packet, classifications, now_ns=self.sim.now)
            if self._finish_tx_result(packet, result):
                if self._lat is not None:
                    self._lat.packet_dropped(packet.packet_id)
                return
            match_ns, exec_ns = self._enclave_delay_parts(result)
        emit_at = self._schedule_emit(
            packet, self.stack_latency_ns + match_ns + exec_ns)
        if self._lat is not None:
            self._lat.stack_sent(
                packet, self.sim.now, emit_at,
                self.stack_latency_ns, match_ns, exec_ns,
                result.executed if result is not None else ())

    def _enclave_delay_parts(self, result) -> Tuple[int, int]:
        """(match, execute) components of the enclave's modeled
        per-packet data-path delay: the placement's base cost for the
        match-action lookup, then the executed bytecode ops or the
        executed actions, whichever the stack charges."""
        match_ns = self.enclave.per_packet_base_cost_ns
        if self.native_action_cost_ns is None:
            exec_ns = (result.interpreter_ops *
                       self.interpreter_ns_per_op)
        else:
            exec_ns = len(result.executed) * self.native_action_cost_ns
        return match_ns, exec_ns

    def _enclave_delay_ns(self, result) -> int:
        match_ns, exec_ns = self._enclave_delay_parts(result)
        return match_ns + exec_ns

    def _finish_tx_result(self, packet: Packet, result) -> bool:
        """Per-packet TX bookkeeping; True means the packet stops."""
        if result.to_controller:
            self.packets_to_controller += 1
            self._m_to_controller.inc()
        if result.drop:
            self.packets_dropped_by_enclave += 1
            self._m_enclave_drops.inc()
            return True
        return False

    def _schedule_emit(self, packet: Packet, delay: int) -> int:
        # Per-packet processing delay; clamped monotonic so the stack
        # never reorders its own transmissions.
        now = self.sim.now
        emit_at = now + delay
        if emit_at < self._last_emit_at:
            emit_at = self._last_emit_at
        self._last_emit_at = emit_at
        self.sim.post(emit_at - now, self.rate_limiters.submit, packet)
        return emit_at

    def _flush_tx(self) -> None:
        """Zero-delay flush: process the tick's TX backlog as one
        enclave batch, then hand same-release-time packets to the rate
        limiters as one :meth:`RateLimiterBank.submit_batch`.

        Per-packet results — writes, drops, delays, emission order —
        match the scalar path exactly.
        """
        self._tx_flush_scheduled = False
        pending, self._tx_pending = self._tx_pending, []
        if not pending:
            return
        now = self.sim.now
        results: List[Optional[object]] = [None] * len(pending)
        if self.enclave is not None:
            batch = []
            slots = []
            for i, (packet, pure_ack) in enumerate(pending):
                if self.process_pure_acks or not pure_ack:
                    batch.append((packet, packet.classifications))
                    slots.append(i)
            for i, result in zip(slots, self.enclave.process_batch(
                    batch, now_ns=now)):
                results[i] = result
        # emit_at is monotonic across the batch, so packets sharing a
        # release time form runs — each run becomes one batched rate
        # limiter submission.
        run_at = -1
        run: List[Packet] = []
        for i, (packet, _pure_ack) in enumerate(pending):
            result = results[i]
            match_ns = exec_ns = 0
            if result is not None:
                if self._finish_tx_result(packet, result):
                    if self._lat is not None:
                        self._lat.packet_dropped(packet.packet_id)
                    continue
                match_ns, exec_ns = self._enclave_delay_parts(result)
            emit_at = now + self.stack_latency_ns + match_ns + exec_ns
            if emit_at < self._last_emit_at:
                emit_at = self._last_emit_at
            self._last_emit_at = emit_at
            if self._lat is not None:
                self._lat.stack_sent(
                    packet, now, emit_at, self.stack_latency_ns,
                    match_ns, exec_ns,
                    result.executed if result is not None else ())
            if emit_at != run_at:
                if run:
                    self.sim.at(run_at,
                                self.rate_limiters.submit_batch, run)
                run_at = emit_at
                run = []
            run.append(packet)
        if run:
            self.sim.at(run_at, self.rate_limiters.submit_batch, run)

    def _emit(self, packet: Packet) -> None:
        """Hand a packet to the NIC port selected by its path label."""
        port = None
        if packet.path_id and packet.path_id in self.path_port_map:
            port = self.host.port_to(
                self.path_port_map[packet.path_id])
        elif self.default_peer is not None:
            port = self.host.port_to(self.default_peer)
        elif self.host.ports:
            port = self.host.ports[0]
        if port is None:
            raise StackError(
                f"host {self.host.name} has no port for packet "
                f"{packet!r}")
        self.packets_sent += 1
        self._m_tx.inc()
        port.enqueue(packet)

    # -- receive path ------------------------------------------------------------

    def handle_rx(self, packet: Packet, from_port) -> None:
        if packet.dst_ip != self.host.ip:
            return  # not ours; hosts do not forward
        if self.enclave is not None and self.process_rx:
            if self.batch_data_path:
                self._rx_pending.append(packet)
                if not self._rx_flush_scheduled:
                    self._rx_flush_scheduled = True
                    self.sim.post(0, self._flush_rx)
                return
            result = self.enclave.process_packet(
                packet, packet.classifications, now_ns=self.sim.now)
            if result.drop:
                return
        self._deliver_rx(packet)

    def _flush_rx(self) -> None:
        """Zero-delay flush: run the tick's RX backlog through the
        enclave as one batch, delivering survivors in arrival order."""
        self._rx_flush_scheduled = False
        pending, self._rx_pending = self._rx_pending, []
        if not pending:
            return
        results = self.enclave.process_batch(
            [(p, p.classifications) for p in pending],
            now_ns=self.sim.now)
        for packet, result in zip(pending, results):
            if result.drop:
                continue
            self._deliver_rx(packet)

    def _deliver_rx(self, packet: Packet) -> None:
        """Demultiplex one received packet to its connection."""
        key = packet.reverse_five_tuple
        conn = self._connections.get(key)
        if conn is None:
            if packet.flags & FLAG_SYN and \
                    packet.dst_port in self._listeners and \
                    packet.proto == PROTO_TCP:
                conn = TcpConnection(
                    self.sim, self, self.ip, packet.dst_port,
                    packet.src_ip, packet.src_port,
                    tenant=packet.tenant)
                self._connections[key] = conn
                self._listeners[packet.dst_port](conn)
            else:
                return  # no connection, no listener: silently dropped
        conn.handle_packet(packet)
