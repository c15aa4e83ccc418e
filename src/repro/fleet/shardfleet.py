"""A fleet of enclave agents and their controller on one event heap.

:class:`ShardedFleet` puts a :class:`~repro.control.plane.ControlPlane`,
``n_hosts`` enclave agents and a
:class:`~repro.control.faults.FaultInjector` on one seeded
:class:`~repro.netsim.simulator.Simulator`, joined by a lossy
:class:`~repro.control.transport.SimTransport` — the same way
``fleet-demo`` (:mod:`repro.fleet.ddos`) and
``Controller(transport="sim")`` run control traffic.  A rollout is
control traffic on coarse timescales, so one heap carries 1024 hosts,
and on one heap a run does not depend on how callers chunk
``run(until)`` (docs/FLEET.md, "One heap: why").
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..control.agent import EnclaveAgent
from ..control.faults import FaultInjector
from ..control.plane import ControlPlane
from ..control.transport import SimTransport
from ..netsim.simulator import MS, Simulator


class FabricError(Exception):
    """The fleet was misconfigured."""


class FleetTransport(SimTransport):
    """The fleet's :class:`SimTransport`, plus the clock and run
    surface callers read from ``fleet.fabric``."""

    #: Synchronisation windows stepped: one heap needs none.
    windows = 0

    @property
    def now(self) -> int:
        return self.sim.now

    @property
    def events_processed(self) -> int:
        return self.sim.events_processed

    def scheduler_for(self, address: str) -> Simulator:
        """The heap an endpoint at ``address`` schedules on: the one
        heap, whatever the address."""
        return self.sim

    def run(self, until_ns: Optional[int] = None) -> int:
        return self.sim.run(until_ns=until_ns)


class ShardedFleet:
    """A controller plus ``n_hosts`` enclave agents on one heap.

    Hosts are named ``h0001..hNNNN``.  ``make_enclave(host)`` supplies
    each host's :class:`~repro.core.enclave.Enclave`.  The plane
    compiles each function once and every agent binds that artifact,
    so installing on a thousand real enclaves costs a thousand binds,
    not a thousand compiles, and the hosts' first packets heat one
    shared program.  ``n_shards`` changes nothing: it is kept only
    because existing callers pass it by position.
    """

    def __init__(self, n_hosts: int, n_shards: int, make_enclave,
                 seed: int = 1, loss: float = 0.0,
                 dup_prob: float = 0.0,
                 report_interval_ns: int = 20 * MS) -> None:
        if n_hosts < 1:
            raise FabricError("need at least one host")
        sim = Simulator(seed=seed)
        faults = FaultInjector(
            rng=random.Random(seed * 1_000_003 + 17),
            drop_prob=loss, dup_prob=dup_prob, scheduler=sim)
        # SimTransport's 50 us one-way delay, no jitter, no extra
        # delay, default channel timers.
        self.fabric = FleetTransport(sim, faults=faults)
        self.plane = ControlPlane(self.fabric, scheduler=sim,
                                  rng=sim.rng)
        self.hosts: List[str] = []
        self.agents: Dict[str, EnclaveAgent] = {}
        self.enclaves: Dict[str, object] = {}
        width = max(4, len(str(n_hosts)))
        for i in range(n_hosts):
            host = f"h{i + 1:0{width}d}"
            enclave = make_enclave(host)
            agent = EnclaveAgent(host, enclave, self.fabric,
                                 scheduler=sim, rng=sim.rng)
            self.hosts.append(host)
            self.agents[host] = agent
            self.enclaves[host] = enclave
            self.plane.attach(host)
            if report_interval_ns > 0:
                agent.start_reporting(report_interval_ns)

    @property
    def controller_sim(self) -> Simulator:
        return self.fabric.sim

    def run(self, until_ns: Optional[int] = None) -> int:
        return self.fabric.run(until_ns=until_ns)
