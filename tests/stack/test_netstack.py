"""Tests for the host network stack: TX/RX paths and the enclave hook."""

import pytest

from repro.core import Enclave
from repro.netsim import (GBPS, MS, PATH_FAST, PATH_SLOW, Simulator,
                          asymmetric_two_path, star)
from repro.stack import HostStack, StackError


def drop_everything(packet):
    packet.drop = 1


def tag_path_slow(packet):
    packet.path_id = 2


def drop_inbound_port_9(packet):
    if packet.dst_port == 9 and packet.dst_ip == packet.dst_ip:
        packet.drop = 1


@pytest.fixture
def pair():
    sim = Simulator(seed=4)
    net = star(sim, 2, host_rate_bps=10 * GBPS)
    return sim, net


class TestBasicPaths:
    def test_listen_twice_rejected(self, pair):
        sim, net = pair
        stack = HostStack(sim, net.hosts["h1"])
        stack.listen(80, lambda c: None)
        with pytest.raises(StackError):
            stack.listen(80, lambda c: None)

    def test_duplicate_connect_rejected(self, pair):
        sim, net = pair
        s1 = HostStack(sim, net.hosts["h1"])
        HostStack(sim, net.hosts["h2"])
        s1.connect(net.host_ip("h2"), 80, local_port=1234)
        with pytest.raises(StackError):
            s1.connect(net.host_ip("h2"), 80, local_port=1234)

    def test_ephemeral_ports_unique(self, pair):
        sim, net = pair
        s1 = HostStack(sim, net.hosts["h1"])
        HostStack(sim, net.hosts["h2"])
        ports = {s1.connect(net.host_ip("h2"), 80).local_port
                 for _ in range(5)}
        assert len(ports) == 5

    def test_foreign_packets_ignored(self, pair):
        sim, net = pair
        s2 = HostStack(sim, net.hosts["h2"])
        from repro.netsim import Packet
        alien = Packet(src_ip=99, dst_ip=12345, src_port=1,
                       dst_port=2, payload_len=10)
        s2.handle_rx(alien, None)  # not ours: silently ignored

    def test_packet_to_closed_port_ignored(self, pair):
        sim, net = pair
        s1 = HostStack(sim, net.hosts["h1"])
        HostStack(sim, net.hosts["h2"])
        conn = s1.connect(net.host_ip("h2"), 7777)  # nobody listens
        sim.run(until_ns=3 * MS)
        assert not conn.established_at


class TestEnclaveOnTx:
    def test_enclave_drop_blocks_transmission(self, pair):
        sim, net = pair
        enclave = Enclave("e", clock=sim.clock)
        enclave.install_function(drop_everything)
        enclave.install_rule("*", "drop_everything")
        s1 = HostStack(sim, net.hosts["h1"], enclave=enclave)
        HostStack(sim, net.hosts["h2"])
        s1.connect(net.host_ip("h2"), 80)
        sim.run(until_ns=5 * MS)
        assert s1.packets_sent == 0
        assert s1.packets_dropped_by_enclave > 0

    def test_pure_acks_can_skip_enclave(self, pair):
        sim, net = pair
        enclave = Enclave("e", clock=sim.clock)
        enclave.install_function(drop_everything)
        enclave.install_rule("*", "drop_everything")
        # Only pure ACKs escape the dropper.
        s1 = HostStack(sim, net.hosts["h1"], enclave=enclave,
                       process_pure_acks=False)
        s2 = HostStack(sim, net.hosts["h2"])
        s2.listen(80, lambda c: None)
        s1.connect(net.host_ip("h2"), 80)
        sim.run(until_ns=5 * MS)
        assert s1.packets_dropped_by_enclave > 0  # SYN dropped

    def test_processing_delay_preserves_fifo(self, pair):
        sim, net = pair
        s1 = HostStack(sim, net.hosts["h1"], stack_latency_ns=1000)
        HostStack(sim, net.hosts["h2"])
        emitted = []
        original = s1.rate_limiters.submit
        s1.rate_limiters.submit = \
            lambda p: (emitted.append((sim.now, p.packet_id)),
                       original(p))
        conn = s1.connect(net.host_ip("h2"), 80)
        sim.run(until_ns=5 * MS)
        times = [t for t, _ in emitted]
        assert times == sorted(times)

    @pytest.mark.parametrize("action_cost_ns", (None, 150))
    def test_execute_charged_per_op_or_per_action(self, pair,
                                                 action_cost_ns):
        """By default the stack delays a packet by the ops its actions
        executed; given ``native_action_cost_ns``, by that much per
        executed action whatever its op count."""
        sim, net = pair
        enclave = Enclave("e", clock=sim.clock)
        fn = enclave.install_function(tag_path_slow)
        enclave.install_rule("*", "tag_path_slow")
        s1 = HostStack(sim, net.hosts["h1"], enclave=enclave,
                       stack_latency_ns=1000, interpreter_ns_per_op=7,
                       native_action_cost_ns=action_cost_ns)
        HostStack(sim, net.hosts["h2"])
        emitted = []
        s1.rate_limiters.submit = lambda p: emitted.append(sim.now)
        s1.connect(net.host_ip("h2"), 80)
        sim.run(until_ns=1 * MS)
        ops = fn.stats.ops_executed
        assert fn.stats.invocations == 1 and ops > 1
        execute_ns = 7 * ops if action_cost_ns is None else 150
        assert emitted == [1000 + enclave.per_packet_base_cost_ns +
                           execute_ns]


class TestPathSelection:
    def test_path_port_map_routes_by_label(self):
        sim = Simulator(seed=5)
        net = asymmetric_two_path(sim)
        enclave = Enclave("e", clock=sim.clock)
        enclave.install_function(tag_path_slow)
        enclave.install_rule("*", "tag_path_slow")
        s1 = HostStack(sim, net.hosts["h1"], enclave=enclave)
        s2 = HostStack(sim, net.hosts["h2"])
        s1.path_port_map = {1: "sfast", 2: "sslow"}
        # Labels must be routable at the switches.
        net.switches["sslow"].install_label(2, "h2")
        got = []

        def on_conn(conn):
            conn.on_data = lambda c, n: got.append(n)

        s2.listen(80, on_conn)
        conn = s1.connect(net.host_ip("h2"), 80)
        conn.message_send(3000)
        sim.run(until_ns=20 * MS)
        assert got and got[-1] == 3000
        slow_tx = net.switches["sslow"].port_to("h2").stats.tx_packets
        assert slow_tx >= 3  # data went via the slow path

    def test_unmapped_label_uses_default_port(self):
        sim = Simulator(seed=5)
        net = asymmetric_two_path(sim)
        s1 = HostStack(sim, net.hosts["h1"])
        s2 = HostStack(sim, net.hosts["h2"])
        got = []

        def on_conn(conn):
            conn.on_data = lambda c, n: got.append(n)

        s2.listen(80, on_conn)
        conn = s1.connect(net.host_ip("h2"), 80)
        conn.message_send(1000)
        sim.run(until_ns=20 * MS)
        assert got  # default (first) port reached h2 via sfast


class TestEnclaveOnRx:
    def test_rx_processing_can_drop(self, pair):
        sim, net = pair
        enclave = Enclave("e", clock=sim.clock)
        enclave.install_function(drop_everything)
        enclave.install_rule("*", "drop_everything")
        s1 = HostStack(sim, net.hosts["h1"])
        s2 = HostStack(sim, net.hosts["h2"], enclave=enclave,
                       process_rx=True)
        s2.listen(80, lambda c: None)
        conn = s1.connect(net.host_ip("h2"), 80)
        sim.run(until_ns=10 * MS)
        # Inbound SYNs eaten by the receive-side enclave: no
        # connection ever forms.
        assert conn.state != "established"
        assert not s2.connections()
