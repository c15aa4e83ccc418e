"""Oracle for TCP's indexed ACK path.

``ReferenceTcp`` keeps the per-segment scans the indexed path
replaced: a linear ``_is_sacked``, a ``_sack_retransmit`` that visits
every segment from ``snd_una``, a ``_sacked_bytes`` that rescans every
block, an RTT sample and purge that scan all of ``_send_times``,
list-rebuilding purges of the retransmit marks and the scoreboard,
and the receiver's linear duplicate test, sort-and-merge stash and
fixed-point drain.  The production connection must
pick the identical retransmissions in the identical order with the
identical budget — on random scoreboards, and packet for packet in
the loss/reordering harness of ``test_tcp_properties`` — and its
running SACKed-bytes count must equal the rescan whenever it is read.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import Simulator
from repro.netsim.packet import FLAG_ACK, MSS, Packet
from repro.stack import netstack
from repro.transport.tcp import TcpConnection

from test_tcp_properties import run_transfer


class ReferenceTcp(TcpConnection):
    """TcpConnection with the scans of the old ACK path."""

    def _record_send_time(self, seq):
        self._send_times[seq] = self.sim.now

    def _sample_rtt(self, ack):
        candidates = [s for s in self._send_times if s < ack]
        if not candidates:
            return
        seq = max(candidates)
        if seq in self._retransmitted:
            return  # Karn's algorithm
        sample = self.sim.now - self._send_times[seq]
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample // 2
        else:
            err = abs(sample - self.srtt)
            self.rttvar = (3 * self.rttvar + err) // 4
            self.srtt = (7 * self.srtt + sample) // 8
        self.rto = max(self.min_rto_ns, self.srtt + 4 * self.rttvar)

    def _forget_acked(self, ack):
        for seq in [s for s in self._send_times if s < ack]:
            del self._send_times[seq]
        self._retransmitted = {s for s in self._retransmitted
                               if s >= ack}
        self._sacked = [(s, e) for s, e in self._sacked if e > ack]

    def _merge_sack(self, blocks):
        merged = list(self._sacked)
        for s, e in blocks:
            if e > self.snd_una:
                merged.append((max(s, self.snd_una), e))
        merged.sort()
        out = []
        for s, e in merged:
            if out and s <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], e))
            else:
                out.append((s, e))
        self._sacked = out

    def _sacked_bytes(self):
        # The reference's own scoreboard updates bypass the production
        # running total, so it must not inherit the count.
        total = 0
        for s, e in self._sacked:
            lo = max(s, self.snd_una)
            hi = min(e, self.snd_nxt)
            if hi > lo:
                total += hi - lo
        return total

    def _is_sacked(self, start, end):
        for s, e in self._sacked:
            if s <= start and end <= e:
                return True
            if s > start:
                break
        return False

    def _sack_retransmit(self):
        if not self.in_fast_recovery:
            return
        budget = self.cwnd - self._pipe()
        high_sacked = max((e for _, e in self._sacked), default=0)
        lost_below = high_sacked - (self.dup_thresh - 1) * MSS
        seq = self.snd_una
        limit = min(self.recover, self.snd_nxt, lost_below)
        while budget > 0 and seq < limit:
            segment = self._segment_at(seq)
            if segment is None:
                break
            length, is_fin, record = segment
            span = length + (1 if is_fin else 0)
            if span <= 0:
                break
            if seq not in self._rtx_this_recovery and \
                    not self._is_sacked(seq, seq + span):
                self._rtx_this_recovery.add(seq)
                self._retransmit_segment(seq, length, is_fin, record)
                budget -= max(length, 1)
            seq += span
        if budget > 0:
            self._try_send()

    def _ooo_holds(self, start, end):
        return any(s <= start and end <= e for s, e in self._ooo)

    def _stash_ooo(self, start, end):
        self._ooo.append((start, end))
        self._ooo.sort()
        merged = []
        for s, e in self._ooo:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self._ooo = merged

    def _drain_ooo(self):
        changed = True
        while changed:
            changed = False
            for s, e in list(self._ooo):
                if s <= self.rcv_nxt < e:
                    self.rcv_nxt = e
                    self._ooo.remove((s, e))
                    changed = True
                elif e <= self.rcv_nxt:
                    self._ooo.remove((s, e))
                    changed = True


class RecordingStack:
    """Stands in for HostStack: keeps what the connection sends."""

    def __init__(self):
        self.sent = []

    def send_packet(self, packet, pure_ack=False):
        self.sent.append((packet.seq, packet.payload_len, packet.flags,
                          packet.ack, tuple(packet.classifications)))

    def connection_done(self, conn):
        pass


def segment_starts(sizes, fin):
    """Every segment start of the send buffer, in seq order (data
    starts at 1; a FIN takes the seq after the data)."""
    starts = []
    seq = 1
    for size in sizes:
        end = seq + size
        starts.extend(range(seq, end, MSS))
        seq = end
    if fin:
        starts.append(seq)
    return starts, seq + (1 if fin else 0)


@st.composite
def scoreboards(draw):
    sizes = draw(st.lists(st.integers(1, 8 * MSS), min_size=1,
                          max_size=8))
    fin = draw(st.booleans())
    starts, buffer_end = segment_starts(sizes, fin)
    bounds = starts + [buffer_end]
    una_i = draw(st.integers(0, len(starts) - 1))
    nxt_i = draw(st.integers(una_i + 1, len(bounds) - 1))
    snd_una, snd_nxt = bounds[una_i], bounds[nxt_i]
    recover = bounds[draw(st.integers(una_i + 1, nxt_i))]
    # Block edges mostly on segment boundaries, as a receiver reports
    # them, but also anywhere in the window.
    edge = st.one_of(st.sampled_from(bounds[una_i:nxt_i + 1]),
                     st.integers(snd_una, snd_nxt))
    blocks = [(min(a, b), max(a, b)) for a, b in draw(
        st.lists(st.tuples(edge, edge), max_size=6)) if a != b]
    in_window = starts[una_i:nxt_i]
    rtx = draw(st.sets(st.sampled_from(in_window), max_size=4))
    # Around the flight size, so the budget is sometimes spent
    # inside the window and sometimes left over for new data.
    cwnd = max(MSS, snd_nxt - snd_una +
               draw(st.integers(-10 * MSS, 10 * MSS)))
    return {
        "sizes": sizes, "fin": fin, "snd_una": snd_una,
        "snd_nxt": snd_nxt, "recover": recover, "blocks": blocks,
        "rtx": rtx, "cwnd": cwnd,
        "dup_thresh": draw(st.sampled_from([3, 3, 4, 6, 8])),
        "sent": in_window,
    }


def recovering_connection(cls, board):
    """A connection in fast recovery holding ``board``."""
    stack = RecordingStack()
    conn = cls(Simulator(seed=1), stack, 1, 1000, 2, 2000)
    conn.state = conn.SYN_SENT      # queue without sending
    for i, size in enumerate(board["sizes"]):
        conn.message_send(size, classifications=(f"m{i}",))
    if board["fin"]:
        conn.close()
    conn.state = conn.ESTABLISHED
    conn.rcv_nxt = 1
    conn.snd_una = board["snd_una"]
    conn.snd_nxt = board["snd_nxt"]
    for seq in board["sent"]:
        conn._record_send_time(seq)
    conn.recover = board["recover"]
    conn.cwnd = board["cwnd"]
    conn.dup_thresh = board["dup_thresh"]
    conn.in_fast_recovery = True
    conn._merge_sack(board["blocks"])
    conn._rtx_this_recovery = set(board["rtx"])
    return conn, stack


def outcome(conn, stack):
    return (stack.sent, sorted(conn._rtx_this_recovery), conn.snd_nxt,
            conn.stats, list(conn._send_times), conn._sacked)


def test_every_segment_aligned_scoreboard():
    """Small scope, exhaustively: two messages of five segments (the
    last of the first one short), every subset of the ten segments
    SACKed, a window that runs out inside the holes and one that
    does not."""
    sizes = [4 * MSS + 100, 5 * MSS]
    starts, end = segment_starts(sizes, fin=False)
    bounds = starts + [end]
    for mask in range(1 << len(starts)):
        blocks = [(bounds[i], bounds[i + 1]) for i in range(len(starts))
                  if mask >> i & 1]
        for cwnd in (3 * MSS, 40 * MSS):
            board = {"sizes": sizes, "fin": False, "snd_una": 1,
                     "snd_nxt": end, "recover": end, "blocks": blocks,
                     "rtx": {1}, "cwnd": cwnd, "dup_thresh": 3,
                     "sent": starts}
            new = recovering_connection(TcpConnection, board)
            old = recovering_connection(ReferenceTcp, board)
            new[0]._sack_retransmit()
            old[0]._sack_retransmit()
            assert outcome(*new) == outcome(*old), (mask, cwnd)


class TestRandomScoreboards:
    @settings(max_examples=400, deadline=None)
    @given(board=scoreboards())
    def test_sack_retransmit_matches_per_segment_walk(self, board):
        new = recovering_connection(TcpConnection, board)
        old = recovering_connection(ReferenceTcp, board)
        new[0]._sack_retransmit()
        old[0]._sack_retransmit()
        assert outcome(*new) == outcome(*old)

    @settings(max_examples=200, deadline=None)
    @given(board=scoreboards(), data=st.data())
    def test_is_sacked_matches_linear_scan(self, board, data):
        new, _ = recovering_connection(TcpConnection, board)
        old, _ = recovering_connection(ReferenceTcp, board)
        start = data.draw(st.integers(board["snd_una"] - 2,
                                      board["snd_nxt"]))
        end = start + data.draw(st.integers(0, 3 * MSS))
        assert new._is_sacked(start, end) == old._is_sacked(start, end)

    @settings(max_examples=200, deadline=None)
    @given(board=scoreboards(), data=st.data())
    def test_new_ack_matches_full_scans(self, board, data):
        """RTT sample, purges and the recovery they trigger."""
        new = recovering_connection(TcpConnection, board)
        old = recovering_connection(ReferenceTcp, board)
        ack = data.draw(st.integers(board["snd_una"] + 1,
                                    board["snd_nxt"]))
        now = data.draw(st.integers(0, 10**6))
        for conn, _ in (new, old):
            conn.sim.run(until_ns=now)
            conn._handle_new_ack(ack)
        assert outcome(*new) == outcome(*old)
        assert (new[0].srtt, new[0].rto, new[0]._sacked) == \
            (old[0].srtt, old[0].rto, old[0]._sacked)


@settings(max_examples=150, deadline=None)
@given(board=scoreboards(), data=st.data())
def test_ack_sequence_matches(board, data):
    """A run of duplicate and partial ACKs with growing SACK reports
    through ``_handle_ack``: window inflation, repeated hole walks
    (resumed while ``snd_una`` stands still), partial-ACK recovery,
    and timeouts after which duplicate ACKs start a new recovery at
    the same ``snd_una``."""
    new = recovering_connection(TcpConnection, board)
    old = recovering_connection(ReferenceTcp, board)
    starts, end = segment_starts(board["sizes"], board["fin"])
    bounds = starts + [end]
    edge = st.sampled_from(bounds)
    for _ in range(data.draw(st.integers(1, 12))):
        conn = new[0]
        if data.draw(st.integers(0, 9)) == 0:
            for conn, _ in (new, old):
                conn._on_rto()
            assert outcome(*new) == outcome(*old)
            continue
        higher = [b for b in bounds if conn.snd_una < b <= conn.snd_nxt]
        advance = data.draw(st.sampled_from([0, 0, 0, 1, 2]))
        ack = (higher[min(advance, len(higher)) - 1]
               if advance and higher else conn.snd_una)
        blocks = tuple((min(a, b), max(a, b)) for a, b in data.draw(
            st.lists(st.tuples(edge, edge), max_size=3)) if a != b)
        for conn, _ in (new, old):
            packet = Packet(2, 1, 2000, 1000, ack=ack, flags=FLAG_ACK)
            packet.sack = blocks
            conn._handle_ack(packet)
        assert outcome(*new) == outcome(*old)
        assert (new[0].cwnd, new[0].in_fast_recovery) == \
            (old[0].cwnd, old[0].in_fast_recovery)


@settings(max_examples=300, deadline=None)
@given(reports=st.lists(
    st.tuples(st.integers(0, 20),
              st.lists(st.tuples(st.integers(0, 300), st.integers(1, 40)),
                       max_size=5)),
    max_size=8))
def test_merge_sack_matches_sort_and_merge(reports):
    """Scoreboard updates from a sequence of ACKs, each moving
    ``snd_una`` on and reporting blocks (some below it, some touching
    held blocks)."""
    conns = [cls(Simulator(), RecordingStack(), 1, 1, 2, 2)
             for cls in (TcpConnection, ReferenceTcp)]
    for advance, blocks in reports:
        for conn in conns:
            conn.snd_una += advance
            conn._forget_acked(conn.snd_una)
            conn._merge_sack([(s, s + n) for s, n in blocks])
        assert conns[0]._sacked == conns[1]._sacked
        assert conns[0]._sack_starts == [s for s, _ in conns[0]._sacked]


@st.composite
def ooo_states(draw):
    ranges = draw(st.lists(st.tuples(st.integers(2, 200),
                                     st.integers(1, 30)), max_size=8))
    rcv_nxt = draw(st.integers(1, 220))
    return rcv_nxt, [(s, s + n) for s, n in ranges]


@settings(max_examples=300, deadline=None)
@given(state=ooo_states())
def test_drain_matches_fixed_point(state):
    rcv_nxt, ranges = state
    conns = []
    for cls in (TcpConnection, ReferenceTcp):
        conn = cls(Simulator(), RecordingStack(), 1, 1, 2, 2)
        for s, e in ranges:
            if s > rcv_nxt:
                conn._stash_ooo(s, e)
        conn.rcv_nxt = rcv_nxt
        conn._drain_ooo()
        conns.append((conn.rcv_nxt, conn._ooo))
    assert conns[0] == conns[1]


@settings(max_examples=300, deadline=None)
@given(ranges=st.lists(st.tuples(st.integers(2, 200), st.integers(1, 30)),
                       max_size=10),
       probes=st.lists(st.tuples(st.integers(0, 240), st.integers(1, 40)),
                       max_size=10))
def test_stash_and_duplicate_test_match_sort_and_scan(ranges, probes):
    """The bisecting receiver set against sort-and-merge and a linear
    scan, after every out-of-order segment (overlapping, touching,
    nested and disjoint ones)."""
    conns = [cls(Simulator(), RecordingStack(), 1, 1, 2, 2)
             for cls in (TcpConnection, ReferenceTcp)]
    for s, n in ranges:
        for conn in conns:
            conn._stash_ooo(s, s + n)
        assert conns[0]._ooo == conns[1]._ooo
        for start, n in probes:
            assert conns[0]._ooo_holds(start, start + n) == \
                conns[1]._ooo_holds(start, start + n)


def traced_transfer(monkeypatch, cls, **kwargs):
    """run_transfer with every connection built as ``cls``; returns
    what the harness returns plus every packet any stack sent."""
    sent = []
    send_packet = netstack.HostStack.send_packet
    connections = []

    def recording_send(stack, packet, *args, **kw):
        sent.append((stack.sim.now, packet.src_port, packet.seq,
                     packet.payload_len, packet.flags, packet.ack,
                     packet.sack))
        return send_packet(stack, packet, *args, **kw)

    class Recorded(cls):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            connections.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(netstack.HostStack, "send_packet", recording_send)
        patch.setattr(netstack, "TcpConnection", Recorded)
        sizes, total, completed, conn = run_transfer(**kwargs)
    return (total, completed, conn.stats, sent), connections


def check_ascending(monkeypatch):
    """Assert after every insertion that ``_send_times`` keys ascend;
    counts the insertions that landed below the right edge."""
    record = TcpConnection._record_send_time
    behind = []

    def checked(conn, seq):
        if conn._send_times and seq < next(reversed(conn._send_times)):
            behind.append(seq)
        record(conn, seq)
        keys = list(conn._send_times)
        assert keys == sorted(keys)

    monkeypatch.setattr(TcpConnection, "_record_send_time", checked)
    return behind


class TestAdversityHarness:
    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4 * MSS), min_size=1,
                          max_size=4),
           drops=st.sets(st.integers(1, 40), max_size=10),
           reorder_every=st.sampled_from([0, 2, 3, 5, 9]))
    def test_same_packets_as_reference(self, sizes, drops,
                                       reorder_every):
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_ascending(monkeypatch)
            kwargs = dict(seed=1, sizes=sizes, drop_mask=drops,
                          reorder_every=reorder_every)
            new, _ = traced_transfer(monkeypatch, TcpConnection,
                                     **kwargs)
            old, _ = traced_transfer(monkeypatch, ReferenceTcp,
                                     **kwargs)
        assert new == old

    def test_rewind_overtaken_by_ack_keeps_keys_ascending(
            self, monkeypatch):
        """An RTO rewinds snd_nxt, then a cumulative ACK for data the
        receiver already held jumps snd_una past it: the next sends
        are first sends of acknowledged seqs, below the right edge of
        ``_send_times``.  The keys must stay sorted and the run must
        still match the reference packet for packet."""
        behind = check_ascending(monkeypatch)
        kwargs = dict(seed=2, sizes=[40 * MSS], drop_mask=REWIND_DROPS,
                      reorder_every=0)
        new, _ = traced_transfer(monkeypatch, TcpConnection, **kwargs)
        assert behind, "the scenario no longer rewinds past an ACK"
        old, _ = traced_transfer(monkeypatch, ReferenceTcp, **kwargs)
        assert new == old


#: A drop pattern for ``run_transfer(seed=2, sizes=[40 * MSS])`` whose
#: timeout rewind is overtaken by a cumulative ACK.
REWIND_DROPS = {7, 14, 21, 23, 28, 31, 36, 40, 41, 58, 59}


def sack_accounting(monkeypatch, cls, **kwargs):
    """run_transfer with every connection built as a ``cls`` whose
    every ``_sacked_bytes`` read is checked against the rescan.

    Returns, per ACK any connection handled, the port, SACKed-bytes
    count and ``_pipe()`` after it; and the kinds of window the
    reads saw: ``"below"`` when a block started below ``snd_una``,
    ``"above"`` when one ended above ``snd_nxt``, ``"rewound"`` when
    ``snd_nxt`` was at or below ``snd_una`` with blocks held.
    """
    acks = []
    seen = set()

    class Checked(cls):
        def _sacked_bytes(self):
            count = super()._sacked_bytes()
            assert count == ReferenceTcp._sacked_bytes(self), \
                (self._sacked, self.snd_una, self.snd_nxt)
            if self._sacked:
                if self.snd_nxt <= self.snd_una:
                    seen.add("rewound")
                if self._sacked[0][0] < self.snd_una:
                    seen.add("below")
                if self._sacked[-1][1] > self.snd_nxt:
                    seen.add("above")
            return count

        def _handle_ack(self, packet):
            super()._handle_ack(packet)
            acks.append((self.local_port, self._sacked_bytes(),
                         self._pipe()))

    with monkeypatch.context() as patch:
        patch.setattr(netstack, "TcpConnection", Checked)
        run_transfer(**kwargs)
    return acks, seen


def check_sack_accounting(max_examples):
    """The running SACKed-bytes count equals the rescan on every read,
    and every ACK leaves ``_pipe()`` where the reference has it, under
    loss, reordering and the RTO rewinds heavy loss brings."""

    @settings(max_examples=max_examples, deadline=None)
    @given(sizes=st.lists(st.integers(1, 12 * MSS), min_size=1,
                          max_size=4),
           drops=st.sets(st.integers(1, 60), max_size=20),
           reorder_every=st.sampled_from([0, 2, 3, 5, 9]))
    def prop(sizes, drops, reorder_every):
        kwargs = dict(seed=1, sizes=sizes, drop_mask=drops,
                      reorder_every=reorder_every)
        with pytest.MonkeyPatch.context() as monkeypatch:
            new, _ = sack_accounting(monkeypatch, TcpConnection,
                                     **kwargs)
            old, _ = sack_accounting(monkeypatch, ReferenceTcp,
                                     **kwargs)
        assert new == old

    prop()


class TestSackAccounting:
    def test_count_matches_rescan(self):
        check_sack_accounting(max_examples=50)

    @pytest.mark.differential
    def test_count_matches_rescan_at_depth(self, request):
        if "differential" not in request.config.getoption("markexpr"):
            pytest.skip("ten times the examples: run with "
                        "-m differential")
        check_sack_accounting(max_examples=500)

    def test_transfer_reads_blocks_outside_the_window(
            self, monkeypatch):
        """This transfer reads the count with blocks below
        ``snd_una`` (a partial ACK in recovery, before the purge) and
        above ``snd_nxt`` (after an RTO rewind), so the clipping is
        exercised, not assumed."""
        kwargs = dict(seed=2, sizes=[16741, 48614, 23497],
                      drop_mask=CLIPPING_DROPS, reorder_every=5)
        new, seen = sack_accounting(monkeypatch, TcpConnection,
                                    **kwargs)
        assert {"below", "above"} <= seen
        old, _ = sack_accounting(monkeypatch, ReferenceTcp, **kwargs)
        assert new == old


#: A drop pattern for ``run_transfer(seed=2, sizes=[16741, 48614,
#: 23497], reorder_every=5)`` that reads the SACKed-bytes count with
#: blocks on both sides of the window.
CLIPPING_DROPS = {1, 2, 4, 7, 8, 11, 14, 16, 24, 25, 30, 31, 34, 35, 37,
                  42, 47, 50, 54, 57}


@settings(max_examples=300, deadline=None)
@given(reports=st.lists(
    st.tuples(st.integers(0, 20),
              st.lists(st.tuples(st.integers(0, 300), st.integers(1, 40)),
                       max_size=5)),
    min_size=1, max_size=8),
    data=st.data())
def test_sacked_bytes_matches_rescan_on_any_window(reports, data):
    """The count on scoreboards built by ACKs, read against windows
    anywhere: around the blocks, inside one, and with ``snd_nxt`` at
    or below ``snd_una`` (an RTO rewind, one overtaken by an ACK)."""
    conn = TcpConnection(Simulator(), RecordingStack(), 1, 1, 2, 2)
    for advance, blocks in reports:
        conn.snd_una += advance
        conn._forget_acked(conn.snd_una)
        conn._merge_sack([(s, s + n) for s, n in blocks])
        assert conn._sacked_total == sum(e - s for s, e in conn._sacked)
        una = conn.snd_una
        conn.snd_una = data.draw(st.integers(0, 360))
        conn.snd_nxt = data.draw(st.integers(0, 360))
        assert conn._sacked_bytes() == \
            ReferenceTcp._sacked_bytes(conn)
        conn.snd_una = una
