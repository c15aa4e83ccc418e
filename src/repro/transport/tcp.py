"""A NewReno-style TCP for the simulator.

Deliberately simplified but dynamically faithful where the paper's
results depend on it:

* slow start / congestion avoidance with an initial window of 10 MSS;
* duplicate-ACK fast retransmit and NewReno fast recovery — this is
  what makes per-packet multi-path spraying (Figure 10) lose throughput
  to reordering, exactly the effect the paper observes ("throughput is
  lower than the full 11Gbps ... due to in-network reordering of
  packets [29]");
* SACK with RFC 6675-style loss detection, DSACK-driven reordering
  tolerance (the duplicate-ACK threshold adapts like Linux's
  ``tp->reordering``), and a tail loss probe, so heavy multipath
  reordering degrades throughput without collapsing it;
* retransmission timeouts with exponential backoff and SACK-aware
  go-back-N;
* message boundaries: applications send *messages* (Section 4.2's
  extended socket send), the sender records the sequence range of each
  message together with its Eden classifications, and every outgoing
  segment carries the classifications of the message it belongs to.

No receive-window modeling and no delayed ACKs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from types import MappingProxyType
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..core.stage import Classification
from ..netsim.packet import (FLAG_ACK, FLAG_FIN, FLAG_SYN, MSS, Packet,
                             PROTO_TCP)
from ..netsim.simulator import MS, Simulator

INITIAL_CWND_MSS = 10
DUPACK_THRESHOLD = 3
#: Reordering-tolerance cap: like Linux's ``tp->reordering``, the
#: duplicate-ACK threshold adapts upward when ACKs reveal reordering
#: rather than loss, up to this many segments.
MAX_DUPACK_THRESHOLD = 8
MIN_RTO_NS = 2 * MS
INITIAL_RTO_NS = 2 * MS
MAX_RTO_NS = 200 * MS
ACK_PRIORITY = 7


@dataclass
class MessageRecord:
    """One application message inside the send buffer.

    Every segment of the message carries this record's
    ``classifications`` tuple and ``metadata`` mapping themselves, so
    both are read-only: ``message_send`` copies the caller's metadata
    into a :class:`types.MappingProxyType`.
    """

    start_seq: int
    end_seq: int
    classifications: Tuple[Classification, ...]
    metadata: Mapping[str, object]
    enqueued_at: int
    on_complete: Optional[Callable[["MessageRecord", int], None]] = None
    completed: bool = False


@dataclass
class TcpStats:
    segments_sent: int = 0
    bytes_sent: int = 0
    retransmits: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0
    dupacks_received: int = 0
    acks_received: int = 0
    bytes_delivered: int = 0


class TcpConnection:
    """One endpoint of a TCP connection.

    Created either actively through
    :meth:`repro.stack.netstack.HostStack.connect` or passively when a
    SYN arrives on a listening port.  Applications interact through
    :meth:`message_send`, :attr:`on_data`, and :meth:`close`.
    """

    # Connection states.
    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"
    FIN_WAIT = "fin-wait"
    CLOSE_WAIT = "close-wait"
    DONE = "done"

    def __init__(self, sim: Simulator, stack, local_ip: int,
                 local_port: int, remote_ip: int, remote_port: int,
                 tenant: int = 0) -> None:
        self.sim = sim
        self.stack = stack
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.tenant = tenant
        self._five_tuple = (local_ip, local_port, remote_ip, remote_port,
                            PROTO_TCP)
        self.state = self.CLOSED
        self.stats = TcpStats()

        # Sender state.  Sequence space: SYN consumes seq 0; data
        # starts at 1; FIN consumes one sequence number after the data.
        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = INITIAL_CWND_MSS * MSS
        self.ssthresh = 1 << 30
        self.dupacks = 0
        self.dup_thresh = DUPACK_THRESHOLD
        self.adaptive_reordering = True
        self.recover = 0
        self.in_fast_recovery = False
        self._send_buffer_end = 1       # next free sequence number
        self._messages: List[MessageRecord] = []
        self._message_starts: List[int] = []
        self._first_incomplete = 0
        self._fin_queued = False
        self._fin_seq: Optional[int] = None
        #: First-transmission time per segment seq.  Keys ascend (new
        #: data extends the right edge; _record_send_time re-sorts in
        #: the one case that does not), so acknowledged ones are a
        #: prefix.
        self._send_times: Dict[int, int] = {}
        self._retransmitted: set = set()
        # SACK scoreboard: merged (start, end) ranges the receiver
        # reported holding above the cumulative ACK, plus the segments
        # already retransmitted in the current recovery episode.
        self._sacked: List[Tuple[int, int]] = []
        self._sack_starts: List[int] = []     # block starts, for bisect
        #: Bytes the blocks hold, unclipped (see _sacked_bytes).
        self._sacked_total = 0
        self._rtx_this_recovery: set = set()
        #: Seq where this recovery's last hole walk stopped: every
        #: segment below it is SACKed or retransmitted.
        self._sack_walked = 0
        self.srtt: Optional[int] = None
        self.rttvar = 0
        #: Per-connection RTO floor; raise it for connections shaped
        #: by token buckets well below line rate (shaping delay must
        #: not look like loss).
        self.min_rto_ns = MIN_RTO_NS
        self.rto = INITIAL_RTO_NS
        self._rto_event = None
        # Tail loss probe (RFC 8985-flavored): retransmit the highest
        # outstanding segment after ~2 RTTs of ACK silence so a lost
        # window tail is detected at RTT rather than RTO timescales.
        self._pto_event = None
        self._pto_backoff = 1
        self._last_data_seq: Optional[int] = None

        # DCTCP (optional): ECN-fraction-proportional window
        # reduction.  Enabled with :meth:`enable_dctcp`; requires
        # switch ports configured with an ECN marking threshold.
        self.dctcp_enabled = False
        self.dctcp_alpha = 0.0
        self.dctcp_g = 1 / 16
        self._dctcp_acked = 0
        self._dctcp_marked = 0
        self._dctcp_window_end = 0

        # Receiver state.
        self.rcv_nxt = 0
        self._ooo: List[Tuple[int, int]] = []   # sorted disjoint ranges
        self._peer_fin_seq: Optional[int] = None
        #: Pending DSACK block: a duplicate segment to report on the
        #: next ACK (RFC 2883) so the sender can detect spurious
        #: retransmissions caused by reordering.
        self._pending_dsack: Optional[Tuple[int, int]] = None
        #: ECN mark seen on the data packet being acknowledged, to be
        #: echoed on the next ACK (DCTCP's per-packet echo).
        self._ecn_echo_pending = False

        # Application callbacks.
        self.on_data: Optional[Callable[["TcpConnection", int],
                                        None]] = None
        self.on_established: Optional[Callable[["TcpConnection"],
                                               None]] = None
        self.on_close: Optional[Callable[["TcpConnection"], None]] = None

        self.opened_at = sim.now
        self.established_at: Optional[int] = None
        self.closed_at: Optional[int] = None

    # -- identifiers -------------------------------------------------------

    @property
    def five_tuple(self) -> Tuple[int, int, int, int, int]:
        return self._five_tuple

    def __repr__(self) -> str:
        return (f"TcpConnection({self.local_ip}:{self.local_port}->"
                f"{self.remote_ip}:{self.remote_port} {self.state} "
                f"cwnd={self.cwnd})")

    # -- application interface ---------------------------------------------

    def connect(self) -> None:
        """Actively open: send SYN."""
        if self.state is not self.CLOSED:
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = self.SYN_SENT
        self.snd_nxt = 0
        self._emit(seq=0, payload=0, flags=FLAG_SYN)
        self.snd_nxt = 1
        self._arm_rto()

    def message_send(self, nbytes: int,
                     classifications: Sequence[Classification] = (),
                     metadata: Optional[Dict[str, object]] = None,
                     on_complete: Optional[Callable] = None) -> \
            MessageRecord:
        """Queue one application message of ``nbytes`` for delivery.

        This is the extended send primitive of Section 4.2: the message
        carries class and metadata information which each of its
        packets will present to the enclave.  ``on_complete(record,
        now_ns)`` fires when the whole message has been cumulatively
        acknowledged.
        """
        if nbytes <= 0:
            raise ValueError("messages must have at least one byte")
        if self._fin_queued:
            raise RuntimeError("cannot send after close()")
        record = MessageRecord(
            start_seq=self._send_buffer_end,
            end_seq=self._send_buffer_end + nbytes,
            classifications=tuple(classifications),
            metadata=MappingProxyType(dict(metadata or {})),
            enqueued_at=self.sim.now,
            on_complete=on_complete)
        self._messages.append(record)
        self._message_starts.append(record.start_seq)
        self._send_buffer_end += nbytes
        if self.state is self.ESTABLISHED:
            self._try_send()
        elif self.state is self.CLOSED:
            self.connect()
        return record

    def enable_dctcp(self, g: float = 1 / 16) -> None:
        """Switch this connection's congestion response to DCTCP.

        The receiver echoes ECN marks on its ACKs; the sender keeps a
        moving estimate ``alpha`` of the marked fraction and cuts the
        window by ``alpha/2`` once per window with marks — mild,
        proportional backoff instead of Reno's halving.
        """
        self.dctcp_enabled = True
        self.dctcp_g = g

    def close(self) -> None:
        """Half-close after all queued data is sent."""
        if self._fin_queued:
            return
        self._fin_queued = True
        self._fin_seq = self._send_buffer_end
        self._send_buffer_end += 1
        if self.state is self.ESTABLISHED:
            self._try_send()

    # -- segment arrival -----------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Process one inbound segment addressed to this connection."""
        if packet.flags & FLAG_SYN:
            self._handle_syn(packet)
            return
        if packet.flags & FLAG_ACK:
            self._handle_ack(packet)
        if packet.payload_len > 0 or packet.flags & FLAG_FIN:
            self._handle_data(packet)

    def _handle_syn(self, packet: Packet) -> None:
        if packet.flags & FLAG_ACK:
            # SYN-ACK for our active open.
            if self.state is self.SYN_SENT:
                self.state = self.ESTABLISHED
                self.established_at = self.sim.now
                self.snd_una = 1
                self.rcv_nxt = 1
                self._cancel_rto()
                self._send_ack()
                if self.on_established:
                    self.on_established(self)
                self._try_send()
        else:
            # Passive open: reply SYN-ACK (stack created us on demand).
            if self.state in (self.CLOSED, self.SYN_RECEIVED):
                self.state = self.SYN_RECEIVED
                self.rcv_nxt = 1
                self._emit(seq=0, payload=0, flags=FLAG_SYN | FLAG_ACK,
                           ack=self.rcv_nxt)
                self.snd_nxt = 1

    # .. sender side ..........................................................

    def _handle_ack(self, packet: Packet) -> None:
        if self.state is self.SYN_RECEIVED:
            self.state = self.ESTABLISHED
            self.established_at = self.sim.now
            self.snd_una = max(self.snd_una, 1)
            if self.on_established:
                self.on_established(self)
        ack = packet.ack
        self.stats.acks_received += 1
        if packet.sack:
            first_start, first_end = packet.sack[0]
            if first_end <= ack and self.adaptive_reordering:
                # DSACK: our retransmission was spurious — the
                # original had merely been reordered.  Tolerate more.
                self.dup_thresh = min(MAX_DUPACK_THRESHOLD,
                                      self.dup_thresh + 2)
            self._merge_sack(packet.sack)
        if ack > self.snd_una:
            if self.dctcp_enabled:
                self._process_ecn_echo(packet, ack - self.snd_una)
            self._pto_backoff = 1
            self._handle_new_ack(ack)
        elif ack == self.snd_una and self.snd_nxt > ack:
            self.stats.dupacks_received += 1
            self.dupacks += 1
            if self.in_fast_recovery:
                # Window inflation during recovery; fill further holes
                # the SACK scoreboard exposes.
                self.cwnd += MSS
                self._sack_retransmit()
            elif self.dupacks >= self.dup_thresh or \
                    self._sacked_bytes() >= self.dup_thresh * MSS:
                # Classic trigger, or the RFC 6675 one: enough bytes
                # SACKed means loss even with few duplicate ACKs.
                self._enter_fast_recovery()
        if self.snd_nxt > self.snd_una:
            self._arm_pto()
        self._maybe_finish()

    def _process_ecn_echo(self, packet: Packet,
                          newly_acked: int) -> None:
        """DCTCP sender side: account the echoed mark and apply the
        once-per-window proportional reduction."""
        self._dctcp_acked += newly_acked
        if packet.ecn:
            self._dctcp_marked += newly_acked
        if packet.ack < self._dctcp_window_end:
            return
        # One observation window completed.
        if self._dctcp_acked > 0:
            fraction = self._dctcp_marked / self._dctcp_acked
            self.dctcp_alpha = ((1 - self.dctcp_g) *
                                self.dctcp_alpha +
                                self.dctcp_g * fraction)
            if self._dctcp_marked > 0:
                self.cwnd = max(
                    2 * MSS,
                    int(self.cwnd * (1 - self.dctcp_alpha / 2)))
                self.ssthresh = self.cwnd
        self._dctcp_acked = 0
        self._dctcp_marked = 0
        self._dctcp_window_end = self.snd_nxt

    def _handle_new_ack(self, ack: int) -> None:
        newly_acked = ack - self.snd_una
        self._sample_rtt(ack)
        self.snd_una = ack
        if self.adaptive_reordering and self.dupacks > 0 and \
                not self.in_fast_recovery:
            # The hole filled by itself: that was reordering, not
            # loss.  Raise the tolerance (Linux-style).
            self.dup_thresh = min(MAX_DUPACK_THRESHOLD,
                                  max(self.dup_thresh,
                                      self.dupacks + 1))
        self.dupacks = 0
        if self.in_fast_recovery:
            if ack >= self.recover:
                self.in_fast_recovery = False
                self.cwnd = self.ssthresh
                self._rtx_this_recovery.clear()
            else:
                # Partial ACK: SACK-based recovery retransmits the
                # remaining holes as the window allows.
                self.cwnd = max(MSS,
                                self.cwnd - newly_acked + MSS)
                self._sack_retransmit()
        else:
            if self.cwnd < self.ssthresh:
                self.cwnd += min(newly_acked, MSS)
            else:
                self.cwnd += max(1, MSS * MSS // self.cwnd)
        self._forget_acked(ack)
        self._complete_messages(ack)
        if self.snd_nxt > self.snd_una:
            self._arm_rto()
        else:
            self._cancel_rto()
        self._try_send()

    def _forget_acked(self, ack: int) -> None:
        """Drop the retransmit marks and SACK blocks ``ack`` covers
        (``_sample_rtt`` already dropped the send times)."""
        if self._retransmitted:
            self._retransmitted = {s for s in self._retransmitted
                                   if s >= ack}
        # Blocks are sorted and disjoint, so the covered ones are a
        # prefix.
        sacked = self._sacked
        if not sacked:
            return
        covered = freed = 0
        while covered < len(sacked) and sacked[covered][1] <= ack:
            start, end = sacked[covered]
            freed += end - start
            covered += 1
        if covered:
            del sacked[:covered]
            del self._sack_starts[:covered]
            self._sacked_total -= freed

    def _enter_fast_recovery(self) -> None:
        self.stats.fast_retransmits += 1
        flight = self._outstanding()
        self.ssthresh = max(flight // 2, 2 * MSS)
        self.recover = self.snd_nxt
        self.in_fast_recovery = True
        self.cwnd = self.ssthresh + self.dup_thresh * MSS
        self._rtx_this_recovery.clear()
        self._sack_walked = 0
        self._retransmit_one(self.snd_una)
        self._rtx_this_recovery.add(self.snd_una)
        self._sack_retransmit()

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.state is self.DONE or self._outstanding() == 0:
            return
        self.stats.timeouts += 1
        flight = self._outstanding()
        self.ssthresh = max(flight // 2, 2 * MSS)
        self.cwnd = MSS
        self.in_fast_recovery = False
        self.dupacks = 0
        self.rto = min(self.rto * 2, MAX_RTO_NS)
        # Rewind and retransmit from the hole; the SACK scoreboard is
        # kept (the simulated receiver never reneges) so already
        # received data is not resent.
        self._rtx_this_recovery.clear()
        self.snd_nxt = self.snd_una
        if self.snd_una == 0 and self.state is self.SYN_SENT:
            self._emit(seq=0, payload=0, flags=FLAG_SYN)
            self.snd_nxt = 1
        else:
            self._try_send(mark_retransmit=True)
        self._arm_rto()

    def _try_send(self, mark_retransmit: bool = False) -> None:
        if self.state is not self.ESTABLISHED and \
                self.state is not self.FIN_WAIT:
            return
        while True:
            in_flight = self.snd_nxt - self.snd_una
            if in_flight >= self.cwnd:
                break
            seq = self.snd_nxt
            segment = self._segment_at(seq)
            if segment is None:
                break
            length, is_fin, record = segment
            span = length + (1 if is_fin else 0)
            if self._sacked and \
                    self._is_sacked(seq, seq + span):
                # The receiver already holds this segment (resend
                # after an RTO rewind): skip over it.
                self.snd_nxt = seq + span
                continue
            first_time = seq not in self._send_times
            if first_time:
                self._record_send_time(seq)
            else:
                self._retransmitted.add(seq)
            if mark_retransmit or not first_time:
                self.stats.retransmits += 1
            flags = FLAG_ACK | (FLAG_FIN if is_fin else 0)
            self._emit(seq, length, flags, self.rcv_nxt, record)
            self.snd_nxt = seq + span
            if length > 0:
                self._last_data_seq = seq
            self.stats.segments_sent += 1
            self.stats.bytes_sent += length
            if self._rto_event is None:
                self._arm_rto()
            self._arm_pto()
            if is_fin:
                if self.state is self.ESTABLISHED:
                    self.state = self.FIN_WAIT
                break

    def _message_for(self, seq: int) -> Optional[MessageRecord]:
        if not self._messages:
            return None
        idx = bisect.bisect_right(self._message_starts, seq) - 1
        if idx < 0:
            return None
        record = self._messages[idx]
        if seq >= record.end_seq:
            return None
        return record

    def _outstanding(self) -> int:
        return self.snd_nxt - self.snd_una

    def _complete_messages(self, ack: int) -> None:
        while self._first_incomplete < len(self._messages):
            record = self._messages[self._first_incomplete]
            if record.end_seq > ack:
                break
            record.completed = True
            self._first_incomplete += 1
            if record.on_complete:
                record.on_complete(record, self.sim.now)
        # Trim fully acknowledged messages so long-running flows do
        # not accumulate unbounded send-buffer metadata.
        if self._first_incomplete > 4096:
            del self._messages[:self._first_incomplete]
            del self._message_starts[:self._first_incomplete]
            self._first_incomplete = 0

    def _record_send_time(self, seq: int) -> None:
        send_times = self._send_times
        if send_times and seq < next(reversed(send_times)):
            # Only after an RTO rewind overtaken by a cumulative ACK:
            # snd_nxt < snd_una resends acknowledged data whose send
            # time was already forgotten.  Keep the keys ascending.
            send_times[seq] = self.sim.now
            self._send_times = dict(sorted(send_times.items()))
        else:
            send_times[seq] = self.sim.now

    def _sample_rtt(self, ack: int) -> None:
        """Sample the RTT from the highest segment ``ack`` covers and
        forget the send times of every segment it covers — the front
        of ``_send_times``, so this costs O(newly acknowledged)."""
        send_times = self._send_times
        acked = []
        for seq in send_times:
            if seq >= ack:
                break
            acked.append(seq)
        if not acked:
            return
        seq = acked[-1]
        sent_at = send_times[seq]
        for covered in acked:
            del send_times[covered]
        if seq in self._retransmitted:
            return  # Karn's algorithm
        sample = self.sim.now - sent_at
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample // 2
        else:
            err = abs(sample - self.srtt)
            self.rttvar = (3 * self.rttvar + err) // 4
            self.srtt = (7 * self.srtt + sample) // 8
        self.rto = max(self.min_rto_ns, self.srtt + 4 * self.rttvar)

    # .. SACK scoreboard ...................................................

    def _merge_sack(self, blocks) -> None:
        """Add the reported blocks above ``snd_una`` to the scoreboard,
        keeping it sorted with overlapping or touching blocks merged.

        The receiver reports its whole out-of-order set on every ACK,
        so most blocks are already held: a bisect says so and the
        block is skipped.
        """
        sacked = self._sacked
        starts = self._sack_starts
        una = self.snd_una
        for s, e in blocks:
            if e <= una:
                continue
            if s < una:
                s = una
            i = bisect.bisect_right(starts, s) - 1
            if i >= 0 and e <= sacked[i][1]:
                continue
            if i >= 0 and s <= sacked[i][1]:
                s = sacked[i][0]        # extends its predecessor
            else:
                i += 1
            j = i
            absorbed = 0
            while j < len(sacked) and sacked[j][0] <= e:
                held_start, held_end = sacked[j]
                absorbed += held_end - held_start
                if held_end > e:
                    e = held_end
                j += 1
            sacked[i:j] = [(s, e)]
            starts[i:j] = [s]
            self._sacked_total += e - s - absorbed

    def _is_sacked(self, start: int, end: int) -> bool:
        # Blocks are sorted, disjoint and not adjacent: only the last
        # one starting at or before ``start`` can hold the range.
        i = bisect.bisect_right(self._sack_starts, start) - 1
        return i >= 0 and end <= self._sacked[i][1]

    def _sacked_bytes(self) -> int:
        """SACKed bytes inside ``[snd_una, snd_nxt)``.

        The running total of the blocks less what sticks out of the
        window.  Blocks are sorted and disjoint, so only blocks at
        either end can stick out: the first ones between a partial
        ACK and ``_forget_acked``, the last ones after an RTO rewind
        pulls ``snd_nxt`` back.  Otherwise this is O(1).
        """
        sacked = self._sacked
        una = self.snd_una
        nxt = self.snd_nxt
        if not sacked or nxt <= una:
            return 0
        total = self._sacked_total
        i = 0
        while i < len(sacked) and sacked[i][0] < una:
            s, e = sacked[i]
            total -= (e if e < una else una) - s
            i += 1
        j = len(sacked) - 1
        while j >= 0 and sacked[j][1] > nxt:
            s, e = sacked[j]
            total -= e - (s if s > nxt else nxt)
            j -= 1
        return total

    def _pipe(self) -> int:
        """In-flight estimate: outstanding minus SACKed bytes."""
        return self._outstanding() - self._sacked_bytes()

    def _segment_at(self, seq: int
                    ) -> Optional[Tuple[int, bool,
                                        Optional[MessageRecord]]]:
        """(payload_len, is_fin, message) of the segment starting at
        ``seq``, or None past the end of the send buffer.

        Segments never span message boundaries, so each packet belongs
        to exactly one message and inherits its classifications.
        """
        record = self._message_for(seq)
        if record is not None:
            return (min(MSS, record.end_seq - seq), False, record)
        if self._fin_seq is not None and seq == self._fin_seq:
            return (0, True, None)
        return None

    def _sack_retransmit(self) -> None:
        """SACK-based loss recovery: retransmit the holes below
        ``recover`` that the scoreboard exposes, as the window
        allows, then send new data with any remaining budget.

        The walk visits segments in seq order from ``snd_una`` but
        jumps over each run of segments a SACK block holds whole, so
        it costs O(hole segments + blocks), not O(window).  Within one
        recovery a segment once SACKed or retransmitted stays skipped
        (the receiver never reneges, and only a new recovery clears
        the retransmit marks), so the walk resumes where the previous
        one stopped, or at ``snd_una`` once a partial ACK passed that:
        each segment is visited at most once per recovery.
        """
        if not self.in_fast_recovery:
            return
        budget = self.cwnd - self._pipe()
        # RFC 6675-style IsLost: a hole counts as lost only once
        # enough data above it has been SACKed; otherwise it may just
        # be reordered and still in flight.
        sacked = self._sacked
        high_sacked = sacked[-1][1] if sacked else 0
        lost_below = high_sacked - (self.dup_thresh - 1) * MSS
        seq = self.snd_una
        if self._sack_walked > seq:
            seq = self._sack_walked
        limit = min(self.recover, self.snd_nxt, lost_below)
        starts = self._sack_starts
        # sacked[after - 1] is the last block starting at or before seq.
        after = bisect.bisect_right(starts, seq)
        rtx = self._rtx_this_recovery
        record = None
        end_seq = seq       # end of ``record``'s data; look up first
        while budget > 0 and seq < limit:
            if seq < end_seq:
                length = min(MSS, end_seq - seq)
                is_fin = False
            else:
                segment = self._segment_at(seq)
                if segment is None:
                    break
                length, is_fin, record = segment
                end_seq = seq if record is None else record.end_seq
            span = length + 1 if is_fin else length
            while after < len(starts) and starts[after] <= seq:
                after += 1
            if after and seq + span <= sacked[after - 1][1]:
                # Held whole by a block: so is every segment of this
                # message up to the one holding the block's end.
                block_end = sacked[after - 1][1]
                if is_fin:
                    seq += span
                elif block_end >= end_seq:
                    seq = end_seq
                else:
                    seq += (block_end - seq) // MSS * MSS
                continue
            if seq not in rtx:
                rtx.add(seq)
                self._retransmit_segment(seq, length, is_fin, record)
                budget -= max(length, 1)
            seq += span
        self._sack_walked = seq
        if budget > 0:
            self._try_send()

    def _retransmit_segment(self, seq: int, length: int, is_fin: bool,
                            record: Optional[MessageRecord]) -> None:
        self._retransmitted.add(seq)
        self.stats.retransmits += 1
        flags = FLAG_ACK | (FLAG_FIN if is_fin else 0)
        self._emit(seq, length, flags, self.rcv_nxt, record)

    def _retransmit_one(self, seq: int) -> None:
        segment = self._segment_at(seq)
        if segment is not None:
            self._retransmit_segment(seq, *segment)

    # .. receiver side ..........................................................

    def _handle_data(self, packet: Packet) -> None:
        if packet.ecn:
            self._ecn_echo_pending = True
        start = packet.seq
        end = packet.seq + packet.payload_len
        if packet.flags & FLAG_FIN:
            self._peer_fin_seq = end
            end += 1
        advanced = False
        if start <= self.rcv_nxt < end:
            self.rcv_nxt = end
            advanced = True
            self._drain_ooo()
        elif start > self.rcv_nxt:
            if self._ooo_holds(start, end):
                self._pending_dsack = (start, end)  # duplicate
            else:
                self._stash_ooo(start, end)
        else:
            # Entirely below rcv_nxt: a duplicate — report via DSACK.
            self._pending_dsack = (start, end)
        self._send_ack()
        if advanced:
            delivered = self.rcv_nxt - 1  # exclude SYN
            if self._peer_fin_seq is not None and \
                    self.rcv_nxt > self._peer_fin_seq:
                delivered -= 1
            self.stats.bytes_delivered = delivered
            if self.on_data and packet.payload_len > 0:
                self.on_data(self, delivered)
            if self._peer_fin_seq is not None and \
                    self.rcv_nxt >= self._peer_fin_seq + 1 and \
                    self.state is self.ESTABLISHED:
                self.state = self.CLOSE_WAIT
        self._maybe_finish()

    def _ooo_holds(self, start: int, end: int) -> bool:
        # Ranges are sorted and disjoint: only the last one starting
        # at or before ``start`` can hold the segment.
        ooo = self._ooo
        i = bisect.bisect_left(ooo, (start + 1,)) - 1
        return i >= 0 and end <= ooo[i][1]

    def _stash_ooo(self, start: int, end: int) -> None:
        """Add ``[start, end)`` to the out-of-order set, merging it
        with the ranges it overlaps or touches."""
        ooo = self._ooo
        # ooo[i] is the first range starting at or after ``start``,
        # or the one before it if that one reaches ``start``.
        i = bisect.bisect_left(ooo, (start,))
        if i and ooo[i - 1][1] >= start:
            i -= 1
            start = ooo[i][0]
        j = i
        while j < len(ooo) and ooo[j][0] <= end:
            if ooo[j][1] > end:
                end = ooo[j][1]
            j += 1
        ooo[i:j] = [(start, end)]

    def _drain_ooo(self) -> None:
        # _ooo is sorted and disjoint: the ranges the advanced rcv_nxt
        # reaches are a prefix, and each can only extend it further.
        ooo = self._ooo
        rcv_nxt = self.rcv_nxt
        reached = 0
        for s, e in ooo:
            if s > rcv_nxt:
                break
            if e > rcv_nxt:
                rcv_nxt = e
            reached += 1
        if reached:
            del ooo[:reached]
            self.rcv_nxt = rcv_nxt

    def _maybe_finish(self) -> None:
        if self.state is self.DONE:
            return
        sent_all = (self._fin_seq is not None and
                    self.snd_una >= self._fin_seq + 1)
        got_fin = (self._peer_fin_seq is not None and
                   self.rcv_nxt >= self._peer_fin_seq + 1)
        # A connection is done when our FIN is acked and, if the peer
        # initiated data, we saw its FIN; for one-sided flows the
        # receiving end finishes on FIN receipt alone.
        if sent_all and (got_fin or self._peer_fin_seq is None):
            self._finish()
        elif got_fin and self._fin_seq is None and \
                self._outstanding() == 0 and not self._messages:
            self._finish()

    def _finish(self) -> None:
        self.state = self.DONE
        self.closed_at = self.sim.now
        self._cancel_rto()
        if self.on_close:
            self.on_close(self)
        self.stack.connection_done(self)

    # -- emission -------------------------------------------------------------

    def _send_ack(self) -> None:
        # Real TCP fits 3-4 SACK blocks per option; the simulator
        # reports the whole out-of-order set so the sender scoreboard
        # is exact (RFC 2018's intent without option-space limits).
        # A pending DSACK block leads, per RFC 2883.
        sack = tuple(self._ooo)
        if self._pending_dsack is not None:
            sack = (self._pending_dsack,) + sack
            self._pending_dsack = None
        ecn_echo = self._ecn_echo_pending
        self._ecn_echo_pending = False
        self._emit(self.snd_nxt, 0, FLAG_ACK, self.rcv_nxt, None,
                   ACK_PRIORITY, sack, ecn_echo)

    def _emit(self, seq: int, payload: int, flags: int, ack: int = 0,
              record: Optional[MessageRecord] = None,
              priority: Optional[int] = None,
              sack: Tuple[Tuple[int, int], ...] = (),
              ecn_echo: bool = False) -> None:
        """Send one segment; ``record`` is the message a data segment
        belongs to (its caller already looked it up).  The segment
        carries the record's read-only classifications and metadata
        themselves, not copies."""
        # Positional, which costs a fraction of eleven keywords on
        # every segment: (src_ip, dst_ip, src_port, dst_port, proto,
        # payload_len, seq, ack, flags, tenant, created_at).
        packet = Packet(self.local_ip, self.remote_ip, self.local_port,
                        self.remote_port, PROTO_TCP, payload, seq, ack,
                        flags, self.tenant, self.sim.now)
        packet.flow_id = self._five_tuple
        packet.sack = sack
        if ecn_echo:
            packet.ecn = 1
        if priority is not None:
            packet.priority = priority
        if record is not None:
            packet.classifications = record.classifications
            packet.metadata = record.metadata
        self.stack.send_packet(packet,
                               payload == 0 and flags == FLAG_ACK)

    # -- timers -------------------------------------------------------------

    # Re-arming moves the existing timer with Simulator.reschedule
    # (same fire order as cancel + schedule, no heap push unless the
    # deadline moves earlier).  The RTO handle doubles as the "armed"
    # flag; the PTO handle is kept across cancel and fire so the next
    # arm can move it.

    def _arm_rto(self) -> None:
        self._cancel_pto()
        if self._rto_event is None:
            self._rto_event = self.sim.schedule(self.rto, self._on_rto)
        else:
            self.sim.reschedule(self._rto_event, self.rto)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        self._cancel_pto()

    def _pto_delay(self) -> int:
        if self.srtt is not None:
            base = max(2 * self.srtt, 100_000)  # >= 2 RTTs, >= 100 us
        else:
            base = 3 * 1_000_000  # 3 ms before any RTT sample
        return min(base * self._pto_backoff, self.rto)

    def _arm_pto(self) -> None:
        if self.snd_nxt <= self.snd_una:
            self._cancel_pto()
        elif self._pto_event is None:
            self._pto_event = self.sim.schedule(self._pto_delay(),
                                                self._on_pto)
        else:
            self.sim.reschedule(self._pto_event, self._pto_delay())

    def _cancel_pto(self) -> None:
        if self._pto_event is not None:
            self._pto_event.cancel()

    def _on_pto(self) -> None:
        """Tail loss probe: ACK silence while data is outstanding —
        retransmit the highest data segment to elicit a SACK."""
        if self.state is self.DONE or self._outstanding() == 0:
            return
        probe_seq = self._last_data_seq
        if probe_seq is None or probe_seq < self.snd_una:
            probe_seq = self.snd_una
        self._retransmit_one(probe_seq)
        self._pto_backoff = min(self._pto_backoff * 2, 8)
        self._arm_pto()
