"""Tests for the TCP transport: handshake, delivery, loss recovery,
reordering tolerance, message semantics."""

import pytest

from repro.core.stage import Classification
from repro.netsim import GBPS, MS, SEC, Simulator, star
from repro.netsim.packet import MSS
from repro.stack import HostStack
from repro.transport import TcpConnection


@pytest.fixture
def rig():
    """Two hosts behind one switch, plus a data sink on h2:5000."""
    sim = Simulator(seed=2)
    net = star(sim, 2, host_rate_bps=10 * GBPS)
    s1 = HostStack(sim, net.hosts["h1"])
    s2 = HostStack(sim, net.hosts["h2"])
    delivered = {}

    def on_conn(conn):
        conn.on_data = lambda c, total: delivered.__setitem__(
            c.five_tuple, total)

    s2.listen(5000, on_conn)
    return sim, net, s1, s2, delivered


class TestHandshakeAndTransfer:
    def test_connection_establishes(self, rig):
        sim, net, s1, s2, _ = rig
        established = []
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.on_established = lambda c: established.append(sim.now)
        sim.run(until_ns=5 * MS)
        assert established and conn.state == TcpConnection.ESTABLISHED

    def test_small_message_delivered(self, rig):
        sim, net, s1, s2, delivered = rig
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(500)
        sim.run(until_ns=5 * MS)
        assert list(delivered.values()) == [500]

    def test_multi_segment_message(self, rig):
        sim, net, s1, s2, delivered = rig
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(10 * MSS + 7)
        sim.run(until_ns=20 * MS)
        assert list(delivered.values()) == [10 * MSS + 7]

    def test_multiple_messages_in_order(self, rig):
        sim, net, s1, s2, delivered = rig
        conn = s1.connect(net.host_ip("h2"), 5000)
        for size in (100, 5000, 30):
            conn.message_send(size)
        sim.run(until_ns=20 * MS)
        assert list(delivered.values()) == [5130]

    def test_message_send_before_connect_auto_opens(self, rig):
        sim, net, s1, s2, delivered = rig
        conn = TcpConnection(sim, s1, s1.ip, 4444,
                             net.host_ip("h2"), 5000)
        s1._connections[conn.five_tuple] = conn
        conn.message_send(100)
        sim.run(until_ns=5 * MS)
        assert list(delivered.values()) == [100]

    def test_zero_byte_message_rejected(self, rig):
        sim, net, s1, _, _ = rig
        conn = s1.connect(net.host_ip("h2"), 5000)
        with pytest.raises(ValueError):
            conn.message_send(0)

    def test_concurrent_connections(self, rig):
        sim, net, s1, s2, delivered = rig
        for _ in range(5):
            conn = s1.connect(net.host_ip("h2"), 5000)
            conn.message_send(2000)
        sim.run(until_ns=20 * MS)
        assert sorted(delivered.values()) == [2000] * 5


class TestMessageSemantics:
    def test_on_complete_fires_when_acked(self, rig):
        sim, net, s1, s2, _ = rig
        conn = s1.connect(net.host_ip("h2"), 5000)
        done = []
        conn.message_send(5000,
                          on_complete=lambda rec, now: done.append(
                              (rec.start_seq, rec.end_seq, now)))
        sim.run(until_ns=20 * MS)
        assert len(done) == 1
        start, end, when = done[0]
        assert end - start == 5000 and when > 0

    def test_completion_order_matches_send_order(self, rig):
        sim, net, s1, s2, _ = rig
        conn = s1.connect(net.host_ip("h2"), 5000)
        order = []
        for i, size in enumerate((4000, 100, 9000)):
            conn.message_send(
                size, on_complete=lambda r, n, i=i: order.append(i))
        sim.run(until_ns=20 * MS)
        assert order == [0, 1, 2]

    def test_classifications_ride_on_packets(self, rig):
        sim, net, s1, s2, _ = rig
        seen = []
        original = s1.send_packet

        def spy(packet, pure_ack=False):
            if packet.payload_len > 0:
                seen.append(tuple(c.class_name
                                  for c in packet.classifications))
            original(packet, pure_ack=pure_ack)

        s1.send_packet = spy
        conn = s1.connect(net.host_ip("h2"), 5000)
        cls = [Classification("app.r1.msg", {"msg_id": ("app", 1)})]
        conn.message_send(3 * MSS, classifications=cls)
        sim.run(until_ns=20 * MS)
        assert len(seen) == 3
        assert all(s == ("app.r1.msg",) for s in seen)

    def test_segments_share_read_only_message_data(self, rig):
        """Every segment of a message carries the message record's
        classifications and metadata themselves: the caller's dict is
        copied once at send time, so mutating it afterwards changes no
        packet, and no packet can write the shared data."""
        sim, net, s1, s2, _ = rig
        sent = []
        original = s1.send_packet

        def spy(packet, pure_ack=False):
            if packet.payload_len > 0:
                sent.append((packet, dict(packet.metadata)))
            original(packet, pure_ack=pure_ack)

        s1.send_packet = spy
        conn = s1.connect(net.host_ip("h2"), 5000)
        cls = [Classification("app.r1.msg", {"msg_id": ("app", 1)})]
        metadata = {"msg_size": 3 * MSS, "tenant": 4}
        record = conn.message_send(3 * MSS, classifications=cls,
                                   metadata=metadata)
        metadata["msg_size"] = 1
        metadata["extra"] = 2
        cls.append(Classification("app.r1.other", {}))
        sim.run(until_ns=20 * MS)
        assert len(sent) == 3
        for packet, seen_at_send in sent:
            assert packet.classifications is record.classifications
            assert packet.metadata is record.metadata
            assert seen_at_send == {"msg_size": 3 * MSS, "tenant": 4}
            assert dict(packet.metadata) == seen_at_send
            assert [c.class_name for c in packet.classifications] == \
                ["app.r1.msg"]
            with pytest.raises(TypeError):
                packet.metadata["msg_size"] = 0
            with pytest.raises(TypeError):
                del packet.metadata["tenant"]
            with pytest.raises(AttributeError):
                packet.metadata.update(extra=1)
            with pytest.raises(TypeError):
                packet.classifications[0] = None
            with pytest.raises(AttributeError):
                packet.classifications.append(None)
        assert dict(record.metadata) == {"msg_size": 3 * MSS,
                                         "tenant": 4}

    def test_segments_do_not_span_messages(self, rig):
        sim, net, s1, s2, _ = rig
        sizes = []
        original = s1.send_packet

        def spy(packet, pure_ack=False):
            if packet.payload_len > 0:
                sizes.append(packet.payload_len)
            original(packet, pure_ack=pure_ack)

        s1.send_packet = spy
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(MSS + 10)  # 2 segments: MSS, 10
        conn.message_send(20)        # separate packet
        sim.run(until_ns=20 * MS)
        assert sizes == [MSS, 10, 20]

    def test_send_after_close_rejected(self, rig):
        sim, net, s1, _, _ = rig
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(10)
        conn.close()
        with pytest.raises(RuntimeError):
            conn.message_send(10)


class TestClose:
    def test_clean_close_completes(self, rig):
        sim, net, s1, s2, delivered = rig
        conn = s1.connect(net.host_ip("h2"), 5000)
        closed = []
        conn.on_close = lambda c: closed.append(sim.now)
        conn.message_send(1000)
        conn.close()
        sim.run(until_ns=20 * MS)
        assert conn.state == TcpConnection.DONE
        assert closed
        assert conn.five_tuple not in s1._connections

    def test_receiver_side_finishes_on_fin(self, rig):
        sim, net, s1, s2, delivered = rig
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(1000)
        conn.close()
        sim.run(until_ns=20 * MS)
        assert not s2.connections()


class TestLossRecovery:
    def make_lossy(self, rig, drop_indices):
        """Drop the n-th data packets traversing the tor->h2 port."""
        sim, net, s1, s2, delivered = rig
        port = net.switches["tor"].port_to("h2")
        counter = {"n": 0}
        original = port.enqueue

        def lossy(packet):
            if packet.payload_len > 0:
                counter["n"] += 1
                if counter["n"] in drop_indices:
                    return False  # dropped
            return original(packet)

        port.enqueue = lossy
        return sim, net, s1, s2, delivered

    def test_single_drop_recovers_via_fast_retransmit(self, rig):
        sim, net, s1, s2, delivered = self.make_lossy(rig, {3})
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(20 * MSS)
        sim.run(until_ns=100 * MS)
        assert list(delivered.values()) == [20 * MSS]
        assert conn.stats.fast_retransmits >= 1
        assert conn.stats.timeouts == 0

    def test_burst_drop_recovers(self, rig):
        sim, net, s1, s2, delivered = self.make_lossy(
            rig, set(range(5, 12)))
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(30 * MSS)
        sim.run(until_ns=200 * MS)
        assert list(delivered.values()) == [30 * MSS]

    def test_tail_drop_recovers(self, rig):
        # The last packets of the window are lost: no dupacks; the
        # tail loss probe (or RTO) must fire.
        sim, net, s1, s2, delivered = self.make_lossy(
            rig, {9, 10})
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(10 * MSS)
        sim.run(until_ns=200 * MS)
        assert list(delivered.values()) == [10 * MSS]

    def test_syn_loss_retries(self, rig):
        sim, net, s1, s2, delivered = rig
        port = net.hosts["h1"].ports[0]
        original = port.enqueue
        state = {"dropped": False}

        def drop_first_syn(packet):
            if packet.is_syn and not state["dropped"]:
                state["dropped"] = True
                return False
            return original(packet)

        port.enqueue = drop_first_syn
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(100)
        sim.run(until_ns=100 * MS)
        assert list(delivered.values()) == [100]
        assert conn.stats.timeouts >= 1

    def test_cwnd_reduced_on_loss(self, rig):
        sim, net, s1, s2, delivered = self.make_lossy(rig, {8})
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(40 * MSS)
        sim.run(until_ns=100 * MS)
        assert conn.ssthresh < (1 << 30)


class TestRttAndRto:
    def test_srtt_estimated(self, rig):
        sim, net, s1, s2, _ = rig
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(5 * MSS)
        sim.run(until_ns=20 * MS)
        assert conn.srtt is not None
        assert 0 < conn.srtt < 1 * MS

    def test_rto_floor_respected(self, rig):
        sim, net, s1, s2, _ = rig
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(5 * MSS)
        sim.run(until_ns=20 * MS)
        assert conn.rto >= conn.min_rto_ns

    def test_rto_backoff_doubles(self, rig):
        sim, net, s1, s2, _ = rig
        # Cut the wire entirely after connect to force repeated RTOs.
        conn = s1.connect(net.host_ip("h2"), 5000)
        sim.run(until_ns=2 * MS)
        port = net.hosts["h1"].ports[0]
        port.enqueue = lambda packet: False
        conn.message_send(1000)
        rto_before = conn.rto
        sim.run(until_ns=50 * MS)
        assert conn.stats.timeouts >= 2
        assert conn.rto > rto_before


class TestReorderingTolerance:
    def test_dup_thresh_adapts_upward(self, rig):
        """Persistent reordering raises the duplicate-ACK threshold
        instead of triggering endless spurious retransmissions."""
        sim, net, s1, s2, delivered = rig
        port = net.switches["tor"].port_to("h2")
        original = port.enqueue
        counter = {"n": 0, "held": None}

        def reorder(packet):
            # Delay every 12th data packet behind the next few.
            if packet.payload_len > 0:
                counter["n"] += 1
                if counter["n"] % 12 == 0:
                    sim.schedule(40_000, original, packet)
                    return True
            return original(packet)

        port.enqueue = reorder
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.message_send(300 * MSS)
        sim.run(until_ns=200 * MS)
        assert list(delivered.values()) == [300 * MSS]
        assert conn.dup_thresh > 3

    def test_adaptation_can_be_disabled(self, rig):
        sim, net, s1, s2, _ = rig
        conn = s1.connect(net.host_ip("h2"), 5000)
        conn.adaptive_reordering = False
        port = net.switches["tor"].port_to("h2")
        original = port.enqueue
        counter = {"n": 0}

        def reorder(packet):
            if packet.payload_len > 0:
                counter["n"] += 1
                if counter["n"] % 12 == 0:
                    sim.schedule(40_000, original, packet)
                    return True
            return original(packet)

        port.enqueue = reorder
        conn.message_send(300 * MSS)
        sim.run(until_ns=200 * MS)
        assert conn.dup_thresh == 3
