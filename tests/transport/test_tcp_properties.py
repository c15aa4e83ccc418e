"""Property-based robustness tests for the TCP transport.

The invariant: whatever (bounded) loss and reordering the network
inflicts, every queued message is eventually delivered in full and in
order, and the receiver's delivered-byte count never runs ahead of
what the sender emitted.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.netsim import GBPS, MS, Simulator, star
from repro.netsim.packet import MSS
from repro.stack import HostStack
from repro.transport.tcp import MAX_RTO_NS

#: The most drops ``test_heavy_loss_single_big_message`` draws.
HEAVY_DROPS = 25


def run_transfer(seed, sizes, drop_mask, reorder_every,
                 until_ns=400 * MS):
    """One transfer under a deterministic loss/reorder pattern, run
    to ``until_ns``.

    ``drop_mask`` is a set of data-packet indices to drop (first
    transmission attempt counted by traversal order); a packet index
    divisible by ``reorder_every`` (if non-zero) is delayed by 30 us
    instead of dropped.
    """
    sim = Simulator(seed=seed)
    net = star(sim, 2, host_rate_bps=10 * GBPS)
    s1 = HostStack(sim, net.hosts["h1"])
    s2 = HostStack(sim, net.hosts["h2"])
    port = net.switches["tor"].port_to("h2")
    original = port.enqueue
    counter = {"n": 0}

    def mangle(packet):
        if packet.payload_len > 0:
            counter["n"] += 1
            n = counter["n"]
            if n in drop_mask:
                return False
            if reorder_every and n % reorder_every == 0:
                sim.schedule(30_000, original, packet)
                return True
        return original(packet)

    port.enqueue = mangle
    delivered = {}

    def on_conn(conn):
        conn.on_data = lambda c, total: delivered.__setitem__(
            "total", total)

    s2.listen(7000, on_conn)
    conn = s1.connect(net.host_ip("h2"), 7000)
    completed = []
    for size in sizes:
        conn.message_send(size, on_complete=lambda r, t: (
            completed.append(r.end_seq - r.start_seq)))
    sim.run(until_ns=until_ns)
    return sizes, delivered.get("total", 0), completed, conn


class TestDeliveryUnderAdversity:
    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4 * MSS), min_size=1,
                          max_size=4),
           drops=st.sets(st.integers(1, 30), max_size=6),
           reorder_every=st.sampled_from([0, 5, 9]))
    def test_everything_delivered(self, sizes, drops,
                                  reorder_every):
        sizes, total, completed, conn = run_transfer(
            seed=1, sizes=sizes, drop_mask=drops,
            reorder_every=reorder_every)
        assert total == sum(sizes)
        assert completed == list(sizes)  # completion in send order

    @settings(max_examples=15, deadline=None)
    @given(drops=st.sets(st.integers(1, 60), max_size=HEAVY_DROPS))
    @example(drops=set(range(1, 12)) | {13, 16, 17, 21, 22, 23, 28, 29})
    def test_heavy_loss_single_big_message(self, drops):
        """Each drop costs at most one retransmission timeout, which
        backs off to at most ``MAX_RTO_NS``: the transfer completes
        within one such timeout per drop, plus one.  (The example
        needs eight timeouts, the last of them past 400 ms.)"""
        sizes, total, completed, conn = run_transfer(
            seed=2, sizes=[40 * MSS], drop_mask=drops,
            reorder_every=0, until_ns=(HEAVY_DROPS + 1) * MAX_RTO_NS)
        assert total == 40 * MSS
        assert completed == [40 * MSS]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_clean_path_no_retransmits(self, seed):
        sizes, total, completed, conn = run_transfer(
            seed=seed, sizes=[10 * MSS], drop_mask=set(),
            reorder_every=0)
        assert total == 10 * MSS
        assert conn.stats.retransmits == 0
        assert conn.stats.timeouts == 0

    @settings(max_examples=15, deadline=None)
    @given(reorder_every=st.integers(2, 12))
    def test_pure_reordering_never_loses_data(self, reorder_every):
        sizes, total, completed, conn = run_transfer(
            seed=3, sizes=[30 * MSS], drop_mask=set(),
            reorder_every=reorder_every)
        assert total == 30 * MSS
        # Reordering may trigger spurious retransmits, but DSACK
        # feedback must keep them bounded.
        assert conn.stats.retransmits < 60
