"""Discrete-event datacenter network simulator (the Eden substrate)."""

from .host import Host
from .link import DEFAULT_PROP_DELAY_NS, NUM_PRIORITIES, Port, duplex_connect
from .packet import (FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN,
                     HEADER_BYTES, MSS, MTU, Packet, PROTO_TCP,
                     PROTO_UDP, ip_of)
from .routing import (as_graph, install_l3_routes, install_path_labels,
                      provision_labeled_paths, simple_paths)
from .simulator import (Event, GBPS, KBPS, MBPS, MS, NS, SEC,
                        SimulationError, Simulator, US)
from .packet import reset_packet_ids
from .switchdev import Device, Switch, flow_hash
from .topology import (Network, PATH_FAST, PATH_SLOW, TopologyError,
                       asymmetric_two_path, star)
from .pcap import PcapWriter, PortTap, read_pcap
from .wire import WireFormatError, decode as wire_decode, encode as wire_encode, ipv4_checksum
from .tracing import (FlowRecord, FlowTracker, SeriesStats,
                      ThroughputMeter, mean, percentile)

__all__ = [
    "DEFAULT_PROP_DELAY_NS", "Device", "Event", "FLAG_ACK", "FLAG_FIN",
    "FLAG_RST", "FLAG_SYN", "FlowRecord", "FlowTracker", "GBPS",
    "HEADER_BYTES", "Host", "KBPS", "MBPS", "MS", "MSS", "MTU",
    "Network", "NS", "NUM_PRIORITIES", "PATH_FAST", "PATH_SLOW",
    "Packet", "Port", "PROTO_TCP", "PROTO_UDP", "SEC", "SeriesStats",
    "SimulationError", "Simulator", "Switch", "ThroughputMeter",
    "TopologyError", "US", "as_graph", "asymmetric_two_path",
    "duplex_connect", "flow_hash", "install_l3_routes",
    "install_path_labels", "ip_of", "mean", "percentile",
    "provision_labeled_paths", "simple_paths", "star",
    "PcapWriter", "PortTap", "read_pcap",
    "reset_packet_ids",
    "WireFormatError", "wire_decode", "wire_encode", "ipv4_checksum",
]
