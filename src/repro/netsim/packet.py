"""Packets and header constants.

A :class:`Packet` carries the union of the header fields the simulator
needs (Ethernet/802.1q, IPv4, TCP) plus the Eden annotations — the
class/metadata classifications attached by stages — and the
action-function-writable fields of the default packet schema
(``priority``, ``path_id``, ``drop``, ``to_controller``, ``queue_id``,
``charge``, ``ecn``).  Attribute names match the schema exactly, so the
enclave reads and writes packets with plain ``getattr``/``setattr``.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Tuple

PROTO_TCP = 6
PROTO_UDP = 17

#: Bytes of header per packet (Ethernet + IPv4 + TCP, no options).
HEADER_BYTES = 14 + 20 + 20
#: Maximum segment size (payload bytes per full packet).
MSS = 1460
#: Maximum transmission unit (payload + IP/TCP headers).
MTU = MSS + HEADER_BYTES

FLAG_SYN = 0x1
FLAG_ACK = 0x2
FLAG_FIN = 0x4
FLAG_RST = 0x8

_packet_ids = itertools.count(1)

#: The metadata of a packet no message tagged: empty and read-only.
NO_METADATA: Mapping[str, object] = MappingProxyType({})


def reset_packet_ids() -> None:
    """Restart the process-global packet-id counter at 1.

    Packet ids only exist to make captures readable; they are the one
    piece of packet state not derived from a run's seed.  Determinism
    tests that digest on-the-wire bytes call this before each run so
    two same-seed runs in one process produce identical frames.
    """
    global _packet_ids
    _packet_ids = itertools.count(1)


class Packet:
    """One network packet.

    ``size`` is the on-wire size in bytes (headers included) — it backs
    the ``ipv4.total_length`` mapping of the packet schema.  ``charge``
    is the number of bytes a rate limiter should charge for this packet
    (0 means "use ``size``"); Pulsar's action function overrides it for
    READ requests.
    """

    __slots__ = (
        "packet_id", "src_ip", "dst_ip", "src_port", "dst_port",
        "proto", "size", "payload_len", "seq", "ack", "flags",
        "priority", "path_id", "drop", "to_controller", "queue_id",
        "charge", "ecn", "tenant", "classifications", "metadata",
        "created_at", "flow_id", "hop_count", "sack",
    )

    def __init__(self, src_ip: int, dst_ip: int, src_port: int,
                 dst_port: int, proto: int = PROTO_TCP,
                 payload_len: int = 0, seq: int = 0, ack: int = 0,
                 flags: int = 0, tenant: int = 0,
                 created_at: int = 0) -> None:
        self.packet_id = next(_packet_ids)
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.proto = proto
        self.payload_len = payload_len
        self.size = payload_len + HEADER_BYTES
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.priority = 0
        self.path_id = 0
        self.drop = 0
        self.to_controller = 0
        self.queue_id = 0
        self.charge = 0
        self.ecn = 0
        self.tenant = tenant
        #: The Eden classifications of the packet's message.  A TCP
        #: segment carries its message record's tuple and read-only
        #: metadata mapping themselves, shared by all its segments.
        self.classifications: Sequence = ()
        self.metadata: Mapping[str, object] = NO_METADATA
        self.created_at = created_at
        self.flow_id: Optional[Tuple] = None
        self.hop_count = 0
        #: SACK blocks piggybacked on ACKs: the receiver's whole
        #: out-of-order set as sorted (start, end) ranges, led by a
        #: DSACK block when it reports a duplicate.
        self.sack: Tuple[Tuple[int, int], ...] = ()

    @property
    def five_tuple(self) -> Tuple[int, int, int, int, int]:
        return (self.src_ip, self.src_port, self.dst_ip,
                self.dst_port, self.proto)

    @property
    def reverse_five_tuple(self) -> Tuple[int, int, int, int, int]:
        return (self.dst_ip, self.dst_port, self.src_ip,
                self.src_port, self.proto)

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def charge_bytes(self) -> int:
        """Bytes a rate limiter should account for this packet."""
        return self.charge if self.charge > 0 else self.size

    def __repr__(self) -> str:
        flags = "".join(name for bit, name in
                        ((FLAG_SYN, "S"), (FLAG_ACK, "A"),
                         (FLAG_FIN, "F"), (FLAG_RST, "R"))
                        if self.flags & bit) or "-"
        return (f"Packet#{self.packet_id}({self.src_ip}:{self.src_port}"
                f"->{self.dst_ip}:{self.dst_port} {flags} "
                f"seq={self.seq} ack={self.ack} len={self.payload_len} "
                f"prio={self.priority} path={self.path_id})")


def ip_of(host_index: int) -> int:
    """A stable fake IPv4 address for host number ``host_index``."""
    return (10 << 24) | host_index
