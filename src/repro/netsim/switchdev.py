"""Network devices: the common base class and commodity switches.

Eden assumes only commodity network support (Section 3.5): priority
queuing (802.1q PCP, implemented in :mod:`repro.netsim.link`) and
label-based source routing — end hosts put a path label in the packet
(VLAN tag in the prototype) and switches forward by label, as in
SPAIN/MPLS.  Switches here implement exactly that: a label forwarding
table installed by the controller, with destination-based routing plus
flow-hash ECMP as the default when no label is present.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .link import Port
from .packet import Packet
from .simulator import Simulator


class Device:
    """Anything with ports: a switch or an end host."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: List[Port] = []
        self._port_by_peer: Dict[str, Port] = {}

    def attach_port(self, port: Port, peer: "Device") -> None:
        self.ports.append(port)
        self._port_by_peer[peer.name] = port

    def port_to(self, peer_name: str) -> Port:
        try:
            return self._port_by_peer[peer_name]
        except KeyError:
            raise KeyError(
                f"{self.name} has no port to {peer_name!r}; neighbors: "
                f"{sorted(self._port_by_peer)}") from None

    @property
    def neighbors(self) -> List[str]:
        return sorted(self._port_by_peer)

    def receive(self, packet: Packet, from_port: Port) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


def flow_hash(five_tuple: Tuple[int, int, int, int, int],
              salt: int) -> int:
    """Deterministic 32-bit mix of a five-tuple (ECMP hashing)."""
    h = salt & 0xFFFFFFFF
    for value in five_tuple:
        h ^= value & 0xFFFFFFFF
        h = (h * 0x01000193) & 0xFFFFFFFF
        h ^= h >> 15
    return h


class Switch(Device):
    """An output-queued switch with label and L3 forwarding.

    Forwarding decision, in order:

    1. **Label**: if the packet carries a non-zero ``path_id`` and the
       label table has an entry for it, forward to that neighbor
       (source routing; entries are installed by the controller).
    2. **L3 + ECMP**: look up ``dst_ip`` in the route table; if several
       next hops are listed, pick one by hashing the five-tuple
       (per-flow ECMP, the datacenter default the paper's Section 2.1.1
       starts from).

    Packets with no matching entry are counted and dropped.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.label_table: Dict[int, str] = {}
        self.route_table: Dict[int, List[str]] = {}
        self.ecmp_salt = sim.rng.getrandbits(32)
        self.rx_packets = 0
        self.no_route_drops = 0

    # -- controller-facing configuration -------------------------------

    def install_label(self, label: int, next_hop: str) -> None:
        if label == 0:
            raise ValueError("label 0 is reserved for 'no label'")
        self.label_table[label] = next_hop

    def remove_label(self, label: int) -> None:
        self.label_table.pop(label, None)

    def install_route(self, dst_ip: int,
                      next_hops: List[str]) -> None:
        if not next_hops:
            raise ValueError("route needs at least one next hop")
        self.route_table[dst_ip] = list(next_hops)

    # -- data path -------------------------------------------------------

    def receive(self, packet: Packet, from_port: Port) -> None:
        self.rx_packets += 1
        port = self._forwarding_port(packet)
        if port is None:
            self.no_route_drops += 1
            return
        port.enqueue(packet)

    def _forwarding_port(self, packet: Packet) -> Optional[Port]:
        if packet.path_id:
            next_hop = self.label_table.get(packet.path_id)
            if next_hop is not None:
                return self.port_to(next_hop)
        next_hops = self.route_table.get(packet.dst_ip)
        if not next_hops:
            return None
        if len(next_hops) == 1:
            choice = next_hops[0]
        else:
            index = flow_hash(packet.five_tuple,
                              self.ecmp_salt) % len(next_hops)
            choice = next_hops[index]
        return self.port_to(choice)
