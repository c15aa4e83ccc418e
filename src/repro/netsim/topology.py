"""Topology construction.

:class:`Network` owns the devices and links of one simulated
datacenter fabric, and the canned topologies used by the paper's
evaluation are built here:

* :func:`star` — n hosts behind one switch (the software testbed of
  Section 4.3: five machines on an Arista 7050QX); used for the flow
  scheduling (Fig 9), storage QoS (Fig 11) and overhead (Fig 12)
  experiments.
* :func:`asymmetric_two_path` — two hosts joined by a 10 Gbps and a
  1 Gbps path (Figure 1 / the programmable-NIC testbed of Section 5.2);
  used for the ECMP/WCMP experiment (Fig 10).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .host import Host
from .link import DEFAULT_PROP_DELAY_NS, Port, duplex_connect
from .packet import ip_of
from .simulator import GBPS, Simulator
from .switchdev import Device, Switch


class TopologyError(Exception):
    """The topology request was inconsistent."""


class Network:
    """A container of hosts, switches, and the links between them."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        self.links: List[Tuple[str, str, int]] = []
        self._next_host_index = 1

    # -- construction -----------------------------------------------------

    def add_host(self, name: str,
                 ip: Optional[int] = None) -> Host:
        if name in self.hosts or name in self.switches:
            raise TopologyError(f"duplicate device name {name!r}")
        if ip is None:
            ip = ip_of(self._next_host_index)
        self._next_host_index += 1
        host = Host(self.sim, name, ip)
        self.hosts[name] = host
        return host

    def add_switch(self, name: str) -> Switch:
        if name in self.hosts or name in self.switches:
            raise TopologyError(f"duplicate device name {name!r}")
        switch = Switch(self.sim, name)
        self.switches[name] = switch
        return switch

    def device(self, name: str) -> Device:
        if name in self.hosts:
            return self.hosts[name]
        if name in self.switches:
            return self.switches[name]
        raise TopologyError(f"no device {name!r}")

    def connect(self, a: str, b: str, rate_bps: int,
                prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
                queue_capacity_bytes: int = 300_000,
                ecn_threshold_bytes: Optional[int] = None
                ) -> Tuple[Port, Port]:
        ports = duplex_connect(
            self.sim, self.device(a), self.device(b), rate_bps,
            prop_delay_ns=prop_delay_ns,
            queue_capacity_bytes=queue_capacity_bytes,
            ecn_threshold_bytes=ecn_threshold_bytes)
        self.links.append((a, b, rate_bps))
        return ports

    # -- failure injection ----------------------------------------------

    def fail_link(self, a: str, b: str) -> int:
        """Cut the a<->b link in both directions; returns packets
        dropped from the two queues."""
        dropped = self.device(a).port_to(b).fail()
        dropped += self.device(b).port_to(a).fail()
        return dropped

    def repair_link(self, a: str, b: str) -> None:
        self.device(a).port_to(b).repair()
        self.device(b).port_to(a).repair()

    # -- queries ----------------------------------------------------------

    def host_ip(self, name: str) -> int:
        return self.hosts[name].ip

    def adjacency(self) -> Dict[str, List[Tuple[str, int]]]:
        """Neighbor lists with link rates (for route computation)."""
        adj: Dict[str, List[Tuple[str, int]]] = {}
        for a, b, rate in self.links:
            adj.setdefault(a, []).append((b, rate))
            adj.setdefault(b, []).append((a, rate))
        return adj


def star(sim: Simulator, n_hosts: int,
         host_rate_bps: int = 10 * GBPS,
         switch_name: str = "tor",
         queue_capacity_bytes: int = 300_000,
         prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
         host_rates: Optional[Dict[str, int]] = None) -> Network:
    """n hosts (named h1..hn) behind one top-of-rack switch.

    ``host_rates`` optionally overrides the link rate of individual
    hosts (Fig 11's storage server sits behind a 1 Gbps link).
    """
    if n_hosts < 2:
        raise TopologyError("a star needs at least two hosts")
    net = Network(sim)
    tor = net.add_switch(switch_name)
    for i in range(1, n_hosts + 1):
        name = f"h{i}"
        host = net.add_host(name)
        rate = (host_rates or {}).get(name, host_rate_bps)
        net.connect(name, switch_name, rate,
                    prop_delay_ns=prop_delay_ns,
                    queue_capacity_bytes=queue_capacity_bytes)
        tor.install_route(host.ip, [name])
    return net


#: Path labels used by the two-path topology.
PATH_FAST = 1
PATH_SLOW = 2


def asymmetric_two_path(sim: Simulator,
                        fast_bps: int = 10 * GBPS,
                        slow_bps: int = 1 * GBPS,
                        prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
                        queue_capacity_bytes: int = 300_000) -> Network:
    """Figure 1 / Section 5.2: h1 and h2 joined by two disjoint paths.

    h1 -- sfast -- h2 at ``fast_bps`` and h1 -- sslow -- h2 at
    ``slow_bps``.  Hosts have one NIC port per path (the testbed's
    dual-port NICs); path labels :data:`PATH_FAST`/:data:`PATH_SLOW`
    select between them, and the hosts' ``path_port_map`` must be set
    accordingly (see :func:`repro.netsim.routing.setup_two_path_hosts`).
    """
    net = Network(sim)
    h1 = net.add_host("h1")
    h2 = net.add_host("h2")
    sfast = net.add_switch("sfast")
    sslow = net.add_switch("sslow")
    net.connect("h1", "sfast", fast_bps, prop_delay_ns=prop_delay_ns,
                queue_capacity_bytes=queue_capacity_bytes)
    net.connect("sfast", "h2", fast_bps, prop_delay_ns=prop_delay_ns,
                queue_capacity_bytes=queue_capacity_bytes)
    net.connect("h1", "sslow", slow_bps, prop_delay_ns=prop_delay_ns,
                queue_capacity_bytes=queue_capacity_bytes)
    net.connect("sslow", "h2", slow_bps, prop_delay_ns=prop_delay_ns,
                queue_capacity_bytes=queue_capacity_bytes)
    for switch in (sfast, sslow):
        switch.install_route(h1.ip, ["h1"])
        switch.install_route(h2.ip, ["h2"])
    return net
