"""Sharded control fabric: 1024+ enclaves in one process.

A fleet-scale rollout is control traffic, not packet traffic, so this
module shards the *control* world: the controller (plane +
orchestrator) lives on shard 0, agents are spread over shards
``1..n``, and every shard runs its own
:class:`~repro.netsim.simulator.Simulator` heap.  The shards advance
in conservative windows whose width is the base one-way control
latency: jitter and injected extra delay only ever *add*, so no
cross-shard envelope can arrive earlier than one window after it was
sent, and envelopes wait in a mailbox until the barrier that ends
their window (docs/FLEET.md, "The fabric's windows").

:class:`ShardedControlFabric` is a drop-in
:class:`~repro.control.transport.Transport`, so the plane, agents,
channel retransmit logic, fault injection and epoch fencing are the
*exact same code* that runs on the single-heap
:class:`~repro.control.transport.SimTransport` — only the event
heaps are partitioned.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Tuple

from ..control.agent import EnclaveAgent, agent_address
from ..control.channel import ChannelConfig
from ..control.faults import FaultInjector
from ..control.messages import Envelope
from ..control.plane import ControlPlane
from ..control.transport import Transport
from ..netsim.simulator import MS, Simulator
from ..telemetry import NULL_TELEMETRY, Telemetry

#: Shard that hosts the controller endpoint.
CONTROLLER_SHARD = 0

#: Queued cross-shard envelope: (arrival_ns, src_shard, seq, env).
#: The tuple prefix is the deterministic delivery order at a barrier.
_Handoff = Tuple[int, int, int, Envelope]


class FabricError(Exception):
    """The control fabric was misconfigured."""


class ShardedControlFabric(Transport):
    """A sharded :class:`Transport` for controller <-> agent traffic."""

    def __init__(self, n_shards: int, seed: int = 0,
                 delay_ns: int = 50_000, jitter_ns: int = 0,
                 faults: Optional[FaultInjector] = None) -> None:
        super().__init__()
        if n_shards < 1:
            raise FabricError("need at least one agent shard")
        if delay_ns <= 0:
            raise FabricError("control delay must be positive")
        self.delay_ns = delay_ns
        self.jitter_ns = jitter_ns
        self.faults = faults
        # Shard 0 is the controller's; agents live on 1..n_shards.
        self.sims: List[Simulator] = [
            Simulator(seed=seed * 7919 + sid)
            for sid in range(n_shards + 1)]
        if faults is not None and faults.scheduler is None:
            # Partition windows arm on the controller shard's clock.
            faults.bind_scheduler(self.sims[CONTROLLER_SHARD])
        self.now = 0
        self.windows = 0
        self.handoffs = 0
        self._owner: Dict[str, int] = {}
        self._mailbox: List[_Handoff] = []
        self._seq = itertools.count()
        self.cross_shard_sends = 0
        self.local_sends = 0

    # -- placement ---------------------------------------------------------

    def place(self, address: str, shard_id: int) -> None:
        """Pin ``address`` to a shard; must precede ``register``."""
        if not 0 <= shard_id < len(self.sims):
            raise FabricError(f"no shard {shard_id}")
        self._owner[address] = shard_id

    def register(self, address: str, deliver) -> None:
        if address not in self._owner:
            # Controller-side endpoints default to shard 0; agents
            # must be placed explicitly before construction.
            self._owner[address] = CONTROLLER_SHARD
        super().register(address, deliver)

    def shard_of(self, address: str) -> int:
        return self._owner[address]

    def scheduler_for(self, address: str) -> Simulator:
        """The heap an endpoint at ``address`` must schedule on."""
        return self.sims[self._owner[address]]

    # -- transport ---------------------------------------------------------

    def send(self, env: Envelope) -> None:
        self.sent += 1
        src_shard = self._owner.get(env.src, CONTROLLER_SHARD)
        sim = self.sims[src_shard]
        copies = 1
        if self.faults is not None:
            copies = self.faults.deliveries(env)
        for _ in range(copies):
            delay = self.delay_ns
            if self.jitter_ns:
                delay += sim.rng.randrange(self.jitter_ns + 1)
            if self.faults is not None:
                delay += self.faults.extra_delay()
            dst_shard = self._owner.get(env.dst)
            if dst_shard is None or dst_shard == src_shard:
                # Unknown destinations stay local and are dropped at
                # delivery, matching SimTransport.
                self.local_sends += 1
                sim.schedule(delay, self._deliver, env)
            else:
                self.cross_shard_sends += 1
                self._mailbox.append(
                    (sim.now + delay, src_shard, next(self._seq), env))

    def _drain(self) -> int:
        """Schedule every queued envelope on its destination heap in
        ``_Handoff`` order; returns how many moved."""
        batch = sorted(self._mailbox)
        self._mailbox.clear()
        for arrival, _src_shard, _seq, env in batch:
            dst_shard = self._owner.get(env.dst, CONTROLLER_SHARD)
            self.sims[dst_shard].at(arrival, self._deliver, env)
        return len(batch)

    # -- running -----------------------------------------------------------

    @property
    def events_processed(self) -> int:
        return sum(s.events_processed for s in self.sims)

    def run(self, until_ns: Optional[int] = None) -> int:
        """Drive every shard to quiescence (or ``until_ns``) in
        conservative windows of ``delay_ns``; returns events fired.

        A window starts at the earliest pending event and spans the
        base control delay, which no envelope can beat, so nothing a
        shard sends inside a window is due elsewhere before the
        barrier that ends it.  The barrier moves the mailbox into the
        destination heaps.
        """
        processed = 0
        while True:
            # Envelopes queued between run() calls (setup code,
            # orchestrator kicks) must land in their heaps before any
            # shard runs past their arrival.  The drain empties the
            # mailbox, so the heaps alone say when the next thing
            # happens.
            self.handoffs += self._drain()
            times = [t for t in (sim.next_event_time()
                                 for sim in self.sims)
                     if t is not None]
            if not times:
                break
            t_min = min(times)
            if until_ns is not None and t_min > until_ns:
                break
            w_end = max(self.now, t_min) + self.delay_ns
            if until_ns is not None and w_end > until_ns:
                w_end = until_ns
            for sim in self.sims:
                processed += sim.run(until_ns=w_end)
            self.now = w_end
            self.handoffs += self._drain()
            self.windows += 1
            if until_ns is not None and w_end >= until_ns:
                break
        if until_ns is None:
            self.now = max(sim.now for sim in self.sims)
        else:
            # Shards that stopped short move their clocks up; none
            # has an event due before ``until_ns``.
            for sim in self.sims:
                if sim.now < until_ns:
                    sim.run(until_ns=until_ns)
            self.now = max(self.now, until_ns)
        return processed


class ShardedFleet:
    """A controller plus ``n_hosts`` enclave agents on a fabric.

    Hosts are named ``h0001..hNNNN`` and round-robined over the agent
    shards.  ``make_enclave(host)`` supplies each host's
    :class:`~repro.core.enclave.Enclave`.  The plane compiles each
    function once and every agent binds that artifact, so installing
    on a thousand real enclaves costs a thousand binds, not a thousand
    compiles, and the hosts' first packets heat one shared program.
    """

    def __init__(self, n_hosts: int, n_shards: int, make_enclave,
                 seed: int = 1, loss: float = 0.0,
                 dup_prob: float = 0.0, extra_delay_ns: int = 0,
                 delay_ns: int = 50_000, jitter_ns: int = 0,
                 report_interval_ns: int = 20 * MS,
                 channel_config: Optional[ChannelConfig] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        if n_hosts < 1:
            raise FabricError("need at least one host")
        self.telemetry = (telemetry if telemetry is not None
                          else NULL_TELEMETRY)
        self.faults = FaultInjector(
            rng=random.Random(seed * 1_000_003 + 17),
            drop_prob=loss, dup_prob=dup_prob,
            extra_delay_ns=extra_delay_ns)
        self.fabric = ShardedControlFabric(
            n_shards, seed=seed, delay_ns=delay_ns,
            jitter_ns=jitter_ns, faults=self.faults)
        controller_sim = self.fabric.sims[CONTROLLER_SHARD]
        self.plane = ControlPlane(
            self.fabric, scheduler=controller_sim,
            rng=controller_sim.rng, config=channel_config,
            telemetry=telemetry)
        self.hosts: List[str] = []
        self.agents: Dict[str, EnclaveAgent] = {}
        self.enclaves: Dict[str, object] = {}
        width = max(4, len(str(n_hosts)))
        for i in range(n_hosts):
            host = f"h{i + 1:0{width}d}"
            shard = 1 + i % n_shards
            addr = agent_address(host)
            self.fabric.place(addr, shard)
            shard_sim = self.fabric.sims[shard]
            enclave = make_enclave(host)
            agent = EnclaveAgent(
                host, enclave, self.fabric, scheduler=shard_sim,
                rng=shard_sim.rng, config=channel_config)
            self.hosts.append(host)
            self.agents[host] = agent
            self.enclaves[host] = enclave
            self.plane.attach(host)
            if report_interval_ns > 0:
                agent.start_reporting(report_interval_ns)

    @property
    def controller_sim(self) -> Simulator:
        return self.fabric.sims[CONTROLLER_SHARD]

    def run(self, until_ns: Optional[int] = None) -> int:
        return self.fabric.run(until_ns=until_ns)
