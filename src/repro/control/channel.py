"""Reliable, ordered, idempotent delivery of control messages.

One :class:`ControlEndpoint` lives at the controller and one at every
enclave agent.  Per peer, an endpoint owns an outgoing *stream*
(session number + sequence counter + unacked window) and mirrors the
peer's incoming stream (expected session, last delivered seq, reorder
buffer).  On top of an unreliable transport this provides:

* **at-least-once delivery** — unacked messages are retransmitted on a
  timeout that backs off exponentially (capped, with deterministic
  jitter drawn from the injected RNG);
* **exactly-once processing** — receivers deduplicate by sequence
  number and deliver strictly in order, so idempotent retransmits and
  duplicated envelopes never re-apply an operation;
* **session fencing** — streams are restarted with a higher session
  number on reconnect (enclave restart, controller-initiated replay);
  envelopes from dead sessions are discarded, so a retransmit from
  before a restart can never leapfrog the replayed desired state.

Acks are sent after *processing*, and a ``Nack`` carries the reason
(e.g. ``stale-epoch``) plus the exception the apply raised, so the
synchronous inproc facade can re-raise it in the caller.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..telemetry import NULL_TELEMETRY, Telemetry
from .messages import (Ack, ControlError, ControlMessage, Envelope,
                       Nack)
from .transport import Transport

#: How many processed-message outcomes are remembered per peer for
#: re-acking duplicates whose original ack was lost.
_RESULT_CACHE = 256


@dataclass
class ChannelConfig:
    """Retransmission policy knobs."""

    rto_ns: int = 5_000_000             # initial retransmit timeout
    backoff_factor: int = 2
    backoff_cap_ns: int = 80_000_000    # retransmit interval ceiling
    jitter_ns: int = 1_000_000          # uniform, de-synchronizes herds
    max_retries: Optional[int] = None   # None = retry forever

    def backoff_ns(self, attempts: int, rng: random.Random) -> int:
        delay = self.rto_ns
        for _ in range(attempts):
            delay *= self.backoff_factor
            if delay >= self.backoff_cap_ns:
                delay = self.backoff_cap_ns
                break
        if self.jitter_ns:
            delay += rng.randrange(self.jitter_ns + 1)
        return delay


@dataclass
class Outcome:
    """Result of processing one delivered message."""

    ok: bool = True
    result: object = None
    reason: str = ""
    error: Optional[BaseException] = None
    #: The refused op's index, as :class:`~repro.control.messages.
    #: Nack` carries it.
    op_index: Optional[int] = None


#: The outcome of a message whose handler returned nothing; shared, so
#: no one may mutate an outcome.
_OK = Outcome(True)


class PendingSend:
    """Sender-side handle for one reliable message."""

    __slots__ = ("env", "attempts", "acked", "nacked", "failed",
                 "superseded", "reason", "error", "op_index", "result",
                 "_timer")

    def __init__(self, env: Envelope) -> None:
        self.env = env
        self.attempts = 0          # retransmissions, not counting #1
        self.acked = False
        self.nacked = False
        self.failed = False        # max_retries exhausted
        self.superseded = False    # stream reset; op covered by replay
        self.reason = ""
        self.error: Optional[BaseException] = None
        self.op_index: Optional[int] = None
        self.result: object = None
        self._timer = None

    @property
    def done(self) -> bool:
        return self.acked or self.nacked or self.failed or \
            self.superseded

    @property
    def ok(self) -> bool:
        return self.acked

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


class _PeerStream:
    """Both directions of one endpoint↔peer relationship."""

    __slots__ = ("tx_session", "tx_next_seq", "pending",
                 "rx_session", "rx_last_delivered", "rx_buffer",
                 "rx_results")

    def __init__(self) -> None:
        self.tx_session = 1
        self.tx_next_seq = 0
        self.pending: Dict[int, PendingSend] = {}
        self.rx_session = 0
        self.rx_last_delivered = -1
        self.rx_buffer: Dict[int, ControlMessage] = {}
        self.rx_results: "OrderedDict[int, Outcome]" = OrderedDict()

    def reset_tx(self) -> None:
        for pending in self.pending.values():
            pending.superseded = True
            pending._cancel_timer()
        self.pending.clear()
        self.tx_session += 1
        self.tx_next_seq = 0

    def reset_rx(self, session: int) -> None:
        self.rx_session = session
        self.rx_last_delivered = -1
        self.rx_buffer.clear()
        self.rx_results.clear()


@dataclass
class ChannelStats:
    sent: int = 0
    sent_unreliable: int = 0
    retransmits: int = 0
    acked: int = 0
    nacked: int = 0
    expired: int = 0
    delivered: int = 0
    duplicates_dropped: int = 0
    stale_session_drops: int = 0
    reacked: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


#: ``handler(src, payload) -> Optional[Outcome]`` — raised exceptions
#: become Nacks carrying the exception.
HandlerFn = Callable[[str, ControlMessage], Optional[Outcome]]


class ControlEndpoint:
    """One party of the control channel (controller or agent)."""

    def __init__(self, address: str, transport: Transport,
                 scheduler=None, rng: Optional[random.Random] = None,
                 config: Optional[ChannelConfig] = None,
                 handler: Optional[HandlerFn] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.address = address
        self.transport = transport
        self.scheduler = scheduler
        self.rng = rng if rng is not None else random.Random(0)
        self.config = config if config is not None else ChannelConfig()
        self.handler = handler
        self.stats = ChannelStats()
        #: Called with ``(peer, pending)`` when a send is nacked.
        self.on_nack: Optional[Callable[[str, PendingSend], None]] = None
        #: Called with every envelope this endpoint receives, before
        #: it is processed.
        self.on_receive: Optional[Callable[[Envelope], None]] = None
        #: Called with ``(peer, pending)`` when a send runs out of
        #: retries (``max_retries``): a resolution no envelope brings.
        self.on_expire: Optional[Callable[[str, PendingSend], None]] = \
            None
        #: Called each time an Ack is sent; what it returns rides on
        #: the Ack as ``report``.  It is never cached with the
        #: outcome, so a re-ack carries a freshly built one.
        self.ack_report: Optional[Callable[[], ControlMessage]] = None
        self._peers: Dict[str, _PeerStream] = {}
        # Every ChannelStats field is mirrored into a registry counter
        # labeled by endpoint, so channel health shows up in telemetry
        # snapshots and exports.
        self.telemetry = (telemetry if telemetry is not None
                          else NULL_TELEMETRY)
        registry = self.telemetry.registry
        self._m = {name: registry.counter(f"channel_{name}_total",
                                          endpoint=address)
                   for name in ChannelStats().as_dict()}
        self._h_backoff = registry.histogram("channel_backoff_ns",
                                             endpoint=address)
        transport.register(address, self._on_receive)

    # -- sending -----------------------------------------------------------

    def _peer(self, address: str) -> _PeerStream:
        stream = self._peers.get(address)
        if stream is None:
            stream = self._peers[address] = _PeerStream()
        return stream

    def send(self, dst: str, payload: ControlMessage,
             reliable: bool = True) -> Optional[PendingSend]:
        """Send ``payload``; returns a handle for reliable sends."""
        stream = self._peer(dst)
        if not reliable:
            self.stats.sent_unreliable += 1
            self._m["sent_unreliable"].inc()
            self.transport.send(Envelope(self.address, dst,
                                         stream.tx_session, -1,
                                         payload))
            return None
        seq = stream.tx_next_seq
        stream.tx_next_seq += 1
        env = Envelope(self.address, dst, stream.tx_session, seq,
                       payload)
        pending = PendingSend(env)
        stream.pending[seq] = pending
        self.stats.sent += 1
        self._m["sent"].inc()
        self.transport.send(env)
        # A synchronous transport may have delivered and acked already.
        if not pending.done and self.scheduler is not None:
            self._arm_timer(dst, stream, pending)
        elif not pending.done and self.transport.synchronous:
            raise ControlError(
                f"synchronous send of {env.describe()} did not "
                f"complete")
        return pending

    def _arm_timer(self, dst: str, stream: _PeerStream,
                   pending: PendingSend) -> None:
        delay = self.config.backoff_ns(pending.attempts, self.rng)
        self._h_backoff.observe(delay)
        if pending._timer is None:
            pending._timer = self.scheduler.schedule(
                delay, self._on_timeout, dst, stream.tx_session,
                pending.env.seq)
        else:
            # A retransmit re-arms the timer that just fired.
            self.scheduler.reschedule(pending._timer, delay)

    def _on_timeout(self, dst: str, session: int, seq: int) -> None:
        stream = self._peers.get(dst)
        if stream is None or stream.tx_session != session:
            return
        pending = stream.pending.get(seq)
        if pending is None or pending.done:
            return
        cfg = self.config
        if cfg.max_retries is not None and \
                pending.attempts >= cfg.max_retries:
            pending.failed = True
            del stream.pending[seq]
            self.stats.expired += 1
            self._m["expired"].inc()
            if self.on_expire is not None:
                self.on_expire(dst, pending)
            return
        pending.attempts += 1
        self.stats.retransmits += 1
        self._m["retransmits"].inc()
        self.transport.send(pending.env)
        self._arm_timer(dst, stream, pending)

    def reset_peer(self, dst: str) -> None:
        """Start a fresh outgoing session to ``dst``.

        In-flight sends are marked ``superseded`` — the caller is
        expected to replay their content under the new session.
        """
        self._peer(dst).reset_tx()

    def reset_all_peers(self) -> None:
        for stream in self._peers.values():
            stream.reset_tx()
            stream.reset_rx(0)

    def pending_count(self, dst: Optional[str] = None) -> int:
        if dst is not None:
            stream = self._peers.get(dst)
            return len(stream.pending) if stream else 0
        return sum(len(s.pending) for s in self._peers.values())

    # -- receiving ---------------------------------------------------------

    def _on_receive(self, env: Envelope) -> None:
        if self.on_receive is not None:
            self.on_receive(env)
        payload = env.payload
        kind = type(payload)
        if kind is Ack or kind is Nack:
            self._on_ack(env.src, payload, kind is Nack)
            return
        if not env.reliable:
            self.stats.delivered += 1
            self._m["delivered"].inc()
            self._process(env.src, payload)
            return
        stream = self._peer(env.src)
        if env.session < stream.rx_session:
            self.stats.stale_session_drops += 1
            self._m["stale_session_drops"].inc()
            return
        if env.session > stream.rx_session:
            stream.reset_rx(env.session)
        if env.seq <= stream.rx_last_delivered:
            # Already processed: the ack was lost — re-ack with the
            # remembered outcome so the sender can complete.
            self.stats.duplicates_dropped += 1
            self._m["duplicates_dropped"].inc()
            outcome = stream.rx_results.get(env.seq, _OK)
            self._send_outcome(env.src, stream.rx_session, env.seq,
                               outcome)
            self.stats.reacked += 1
            self._m["reacked"].inc()
            return
        if env.seq in stream.rx_buffer:
            # Buffered but not yet deliverable (gap before it); it
            # will be acked when the gap fills and it is processed.
            self.stats.duplicates_dropped += 1
            self._m["duplicates_dropped"].inc()
            return
        stream.rx_buffer[env.seq] = payload
        while stream.rx_last_delivered + 1 in stream.rx_buffer:
            seq = stream.rx_last_delivered + 1
            queued = stream.rx_buffer.pop(seq)
            stream.rx_last_delivered = seq
            self.stats.delivered += 1
            self._m["delivered"].inc()
            outcome = self._process(env.src, queued)
            stream.rx_results[seq] = outcome
            while len(stream.rx_results) > _RESULT_CACHE:
                stream.rx_results.popitem(last=False)
            self._send_outcome(env.src, stream.rx_session, seq,
                               outcome)

    def _process(self, src: str, payload: ControlMessage) -> Outcome:
        if self.handler is None:
            return _OK
        try:
            outcome = self.handler(src, payload)
        except Exception as exc:
            return Outcome(False, reason=type(exc).__name__,
                           error=exc)
        return outcome if outcome is not None else _OK

    def _send_outcome(self, dst: str, session: int, seq: int,
                      outcome: Outcome) -> None:
        if outcome.ok:
            reply: ControlMessage = Ack(
                session=session, seq=seq, result=outcome.result,
                report=(self.ack_report() if self.ack_report is not None
                        else None))
        else:
            reply = Nack(session=session, seq=seq,
                         reason=outcome.reason, error=outcome.error,
                         op_index=outcome.op_index)
        self.send(dst, reply, reliable=False)

    def _on_ack(self, src: str, payload, nack: bool) -> None:
        stream = self._peers.get(src)
        if stream is None or payload.session != stream.tx_session:
            return
        pending = stream.pending.pop(payload.seq, None)
        if pending is None:
            return
        pending._cancel_timer()
        if nack:
            pending.nacked = True
            pending.reason = payload.reason
            pending.error = payload.error
            pending.op_index = payload.op_index
            self.stats.nacked += 1
            self._m["nacked"].inc()
            if self.on_nack is not None:
                self.on_nack(src, pending)
        else:
            pending.result = payload.result
            pending.acked = True
            self.stats.acked += 1
            self._m["acked"].inc()
