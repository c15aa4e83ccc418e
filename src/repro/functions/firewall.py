"""Stateful firewalling: connection tracking and port knocking.

Paper Table 1 lists "stateful firewall" functions as expressible in
Eden out of the box (port knocking, after OpenState [13]) — they need
data-plane state and computation but no application semantics and no
network support.

Both functions keep their state in writable *global* arrays (hash
buckets), so the concurrency model of Section 3.4.4 derives the
``SERIAL`` level for them: no two of their invocations may run at
once, which is what a firewall wants.

* :func:`stateful_firewall_action` handles both directions in one
  program: outbound packets record their flow in a symmetric hash
  bucket; inbound packets are dropped unless their (reverse) flow was
  seen or they target the whitelisted port.
* :func:`port_knock_action` implements the classic knock sequence:
  a source must hit three secret ports in order before the protected
  port opens for it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.controller import Controller
from ..lang.annotations import (AccessLevel, Field, FieldKind, Lifetime,
                                schema)

FIREWALL_FUNCTION_NAME = "stateful_firewall"
PORT_KNOCK_FUNCTION_NAME = "port_knock"

FIREWALL_GLOBAL_SCHEMA = schema(
    "FirewallGlobal", Lifetime.GLOBAL, [
        Field("flow_seen", AccessLevel.READ_WRITE, FieldKind.ARRAY),
        Field("my_ip", AccessLevel.READ_ONLY),
        Field("allow_port", AccessLevel.READ_ONLY, default=-1),
    ])

PORT_KNOCK_GLOBAL_SCHEMA = schema(
    "PortKnockGlobal", Lifetime.GLOBAL, [
        Field("knock_state", AccessLevel.READ_WRITE, FieldKind.ARRAY),
        Field("knock1", AccessLevel.READ_ONLY),
        Field("knock2", AccessLevel.READ_ONLY),
        Field("knock3", AccessLevel.READ_ONLY),
        Field("open_port", AccessLevel.READ_ONLY),
    ])


def stateful_firewall_action(packet, _global):
    """Allow inbound traffic only for flows initiated outbound.

    The bucket index is symmetric in the two endpoints (XOR mixing),
    so a flow and its reverse land in the same bucket.
    """
    n = len(_global.flow_seen)
    if n == 0:
        return 0
    mix = (packet.src_ip ^ packet.dst_ip) * 2654435761 + \
          (packet.src_port ^ packet.dst_port) * 40503
    idx = mix % n
    if packet.dst_ip == _global.my_ip:
        if _global.flow_seen[idx] == 0 and \
                packet.dst_port != _global.allow_port:
            packet.drop = 1
    else:
        _global.flow_seen[idx] = 1
    return 0


def port_knock_action(packet, _global):
    """OpenState-style port knocking: knock1 -> knock2 -> knock3 opens
    ``open_port`` for the knocking source; a wrong knock resets."""
    n = len(_global.knock_state)
    if n == 0:
        return 0
    idx = packet.src_ip % n
    stage = _global.knock_state[idx]
    port = packet.dst_port
    if port == _global.open_port:
        if stage < 3:
            packet.drop = 1
    elif port == _global.knock1:
        if stage < 3:
            _global.knock_state[idx] = 1
    elif port == _global.knock2:
        if stage == 1 or stage == 2:
            # Advance — and stay advanced on duplicate knocks
            # (retransmitted SYNs must not reset the sequence).
            _global.knock_state[idx] = 2
        elif stage < 3:
            _global.knock_state[idx] = 0
    elif port == _global.knock3:
        if stage == 2 or stage == 3:
            _global.knock_state[idx] = 3
        elif stage < 3:
            _global.knock_state[idx] = 0
    else:
        if stage < 3:
            _global.knock_state[idx] = 0
    return 0


class FirewallDeployment:
    """Installs the connection-tracking firewall at a host.

    The enclave must process the receive path too
    (``HostStack(process_rx=True)``) for inbound enforcement.
    """

    def __init__(self, controller: Controller, buckets: int = 1024,
                 backend: str = "interpreter") -> None:
        self.controller = controller
        self.buckets = buckets
        self.backend = backend

    def install(self, host: str, host_ip: int,
                allow_port: int = -1) -> None:
        self.controller.install_function(
            host, stateful_firewall_action,
            name=FIREWALL_FUNCTION_NAME,
            global_schema=FIREWALL_GLOBAL_SCHEMA, backend=self.backend)
        enclave = self.controller.enclave(host)
        enclave.set_global_array(FIREWALL_FUNCTION_NAME, "flow_seen",
                                 [0] * self.buckets)
        enclave.set_global(FIREWALL_FUNCTION_NAME, "my_ip", host_ip)
        enclave.set_global(FIREWALL_FUNCTION_NAME, "allow_port",
                           allow_port)
        self.controller.install_rule(host, "*", FIREWALL_FUNCTION_NAME)


class PortKnockDeployment:
    """Installs port knocking at a host (receive-path enforcement)."""

    def __init__(self, controller: Controller, buckets: int = 1024,
                 backend: str = "interpreter") -> None:
        self.controller = controller
        self.buckets = buckets
        self.backend = backend

    def install(self, host: str, knocks: Sequence[int],
                open_port: int) -> None:
        if len(knocks) != 3:
            raise ValueError("the knock sequence has three ports")
        self.controller.install_function(
            host, port_knock_action, name=PORT_KNOCK_FUNCTION_NAME,
            global_schema=PORT_KNOCK_GLOBAL_SCHEMA,
            backend=self.backend)
        enclave = self.controller.enclave(host)
        enclave.set_global_array(PORT_KNOCK_FUNCTION_NAME,
                                 "knock_state", [0] * self.buckets)
        for i, port in enumerate(knocks, start=1):
            enclave.set_global(PORT_KNOCK_FUNCTION_NAME, f"knock{i}",
                               port)
        enclave.set_global(PORT_KNOCK_FUNCTION_NAME, "open_port",
                           open_port)
        self.controller.install_rule(host, "*",
                                     PORT_KNOCK_FUNCTION_NAME)
