"""On-the-wire packet encoding: Ethernet + 802.1q + IPv4 + TCP.

The packet-schema annotations of paper Figure 8 map state variables to
concrete header fields (``priority`` -> the 802.1q priority code
point, ``size`` -> the IPv4 TotalLength, ``path_id`` -> the VLAN id
used as the source-routing label of Section 3.5).  This module makes
that mapping real: it serializes a simulator :class:`Packet` to the
byte layout a NIC would emit and parses it back, so the header-map
claims are checkable (see ``tests/netsim/test_wire.py``).

Layout (all integers big-endian):

* Ethernet: dst MAC (6) | src MAC (6) | TPID 0x8100 (2)
* 802.1q tag: PCP(3 bits) DEI(1) VLAN id(12)  | EtherType 0x0800 (2)
* IPv4 (20 bytes, no options): version/IHL, DSCP/ECN, total length,
  id, flags/fragment, TTL, protocol, checksum, src, dst
* TCP (20 bytes, no real options): ports, seq, ack, data offset,
  flags, window, checksum, urgent
* SACK blocks are carried after the TCP header as a simple
  count-prefixed list (a simulator simplification of the TCP options
  encoding; real stacks fit at most 3-4 blocks).
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from .packet import (FLAG_ACK, FLAG_FIN, FLAG_RST, FLAG_SYN,
                     HEADER_BYTES, Packet)

ETHERTYPE_VLAN = 0x8100
ETHERTYPE_IPV4 = 0x0800
ETH_HEADER = struct.Struct("!6s6sH")
VLAN_TAG = struct.Struct("!HH")
IPV4_HEADER = struct.Struct("!BBHHHBBHII")
TCP_HEADER = struct.Struct("!HHIIBBHHH")
SACK_COUNT = struct.Struct("!B")
SACK_BLOCK = struct.Struct("!QQ")

#: TCP flag bits on the wire (subset).
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_ACK = 0x10

_SIM_TO_WIRE_FLAGS = ((FLAG_FIN, TCP_FIN), (FLAG_SYN, TCP_SYN),
                      (FLAG_RST, TCP_RST), (FLAG_ACK, TCP_ACK))


class WireFormatError(Exception):
    """The byte string is not a well-formed simulator frame."""


def ipv4_checksum(header: bytes) -> int:
    """RFC 791 ones'-complement header checksum."""
    if len(header) % 2:
        header += b"\x00"
    total = 0
    for i in range(0, len(header), 2):
        total += (header[i] << 8) | header[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _mac_of(ip: int) -> bytes:
    """A deterministic fake MAC derived from an IP address."""
    return b"\x02\x00" + struct.pack("!I", ip & 0xFFFFFFFF)


def encode(packet: Packet) -> bytes:
    """Serialize a packet (headers + zeroed payload bytes)."""
    pcp = min(max(packet.priority, 0), 7)
    vlan_id = packet.path_id & 0x0FFF
    tci = (pcp << 13) | vlan_id
    eth = ETH_HEADER.pack(_mac_of(packet.dst_ip),
                          _mac_of(packet.src_ip), ETHERTYPE_VLAN)
    vlan = VLAN_TAG.pack(tci, ETHERTYPE_IPV4)

    total_length = 20 + 20 + packet.payload_len
    dscp_ecn = (packet.ecn & 0x3)
    ip_wo_checksum = IPV4_HEADER.pack(
        0x45, dscp_ecn, total_length, packet.packet_id & 0xFFFF,
        0, 64, packet.proto & 0xFF, 0,
        packet.src_ip & 0xFFFFFFFF, packet.dst_ip & 0xFFFFFFFF)
    checksum = ipv4_checksum(ip_wo_checksum)
    ip = IPV4_HEADER.pack(
        0x45, dscp_ecn, total_length, packet.packet_id & 0xFFFF,
        0, 64, packet.proto & 0xFF, checksum,
        packet.src_ip & 0xFFFFFFFF, packet.dst_ip & 0xFFFFFFFF)

    wire_flags = 0
    for sim_bit, wire_bit in _SIM_TO_WIRE_FLAGS:
        if packet.flags & sim_bit:
            wire_flags |= wire_bit
    tcp = TCP_HEADER.pack(
        packet.src_port & 0xFFFF, packet.dst_port & 0xFFFF,
        packet.seq & 0xFFFFFFFF, packet.ack & 0xFFFFFFFF,
        5 << 4, wire_flags, 0xFFFF, 0, 0)

    sack_blocks = tuple(packet.sack)[:255]
    sack = SACK_COUNT.pack(len(sack_blocks))
    for start, end in sack_blocks:
        sack += SACK_BLOCK.pack(start & (2**64 - 1),
                                end & (2**64 - 1))

    payload = bytes(packet.payload_len)
    return eth + vlan + ip + tcp + sack + payload


def decode(frame: bytes) -> Packet:
    """Parse a frame produced by :func:`encode`."""
    offset = 0
    try:
        _, _, ethertype = ETH_HEADER.unpack_from(frame, offset)
        offset += ETH_HEADER.size
        if ethertype != ETHERTYPE_VLAN:
            raise WireFormatError(
                f"expected a VLAN tag, got ethertype {ethertype:#x}")
        tci, inner_type = VLAN_TAG.unpack_from(frame, offset)
        offset += VLAN_TAG.size
        if inner_type != ETHERTYPE_IPV4:
            raise WireFormatError(
                f"expected IPv4, got ethertype {inner_type:#x}")

        (ver_ihl, dscp_ecn, total_length, _ident, _frag, _ttl, proto,
         checksum, src_ip, dst_ip) = IPV4_HEADER.unpack_from(frame,
                                                             offset)
        if ver_ihl != 0x45:
            raise WireFormatError(
                f"unsupported IPv4 version/IHL {ver_ihl:#x}")
        header_bytes = frame[offset:offset + 20]
        zeroed = header_bytes[:10] + b"\x00\x00" + header_bytes[12:]
        if ipv4_checksum(zeroed) != checksum:
            raise WireFormatError("IPv4 checksum mismatch")
        offset += IPV4_HEADER.size

        (src_port, dst_port, seq, ack, _off, wire_flags, _win,
         _cksum, _urg) = TCP_HEADER.unpack_from(frame, offset)
        offset += TCP_HEADER.size

        (n_sack,) = SACK_COUNT.unpack_from(frame, offset)
        offset += SACK_COUNT.size
        sack: List[Tuple[int, int]] = []
        for _ in range(n_sack):
            start, end = SACK_BLOCK.unpack_from(frame, offset)
            offset += SACK_BLOCK.size
            sack.append((start, end))
    except struct.error as exc:
        raise WireFormatError(f"truncated frame: {exc}") from exc

    payload_len = total_length - 40
    if payload_len < 0:
        raise WireFormatError(
            f"IPv4 total length {total_length} below header size")
    if len(frame) - offset < payload_len:
        raise WireFormatError("frame shorter than IPv4 total length")

    sim_flags = 0
    for sim_bit, wire_bit in _SIM_TO_WIRE_FLAGS:
        if wire_flags & wire_bit:
            sim_flags |= sim_bit

    packet = Packet(src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
                    dst_port=dst_port, proto=proto,
                    payload_len=payload_len, seq=seq, ack=ack,
                    flags=sim_flags)
    packet.priority = tci >> 13
    packet.path_id = tci & 0x0FFF
    packet.ecn = dscp_ecn & 0x3
    packet.sack = tuple(sack)
    return packet


def header_roundtrip_fields() -> Tuple[str, ...]:
    """Packet attributes preserved by encode/decode — exactly the
    header-mapped fields of the default packet schema plus the TCP
    essentials."""
    return ("src_ip", "dst_ip", "src_port", "dst_port", "proto",
            "payload_len", "size", "seq", "ack", "flags", "priority",
            "path_id", "ecn", "sack")
