"""Transports that move control envelopes between endpoints.

Two implementations of the same two-method interface
(``register(address, deliver)`` / ``send(envelope)``):

* :class:`InprocTransport` — synchronous, lossless, zero-delay.  This
  is the ``transport="inproc"`` mode of
  :class:`~repro.core.controller.Controller`: every send is delivered
  (and acked) before the call returns, which preserves the original
  direct-call semantics of the controller API exactly.

* :class:`SimTransport` — delivery is an event on the discrete-event
  :class:`~repro.netsim.simulator.Simulator`, after a configurable
  base delay plus uniform jitter, filtered through an optional
  :class:`~repro.control.faults.FaultInjector` (drop / duplicate /
  extra delay / partition).  This is the lossy channel the paper's
  coarse-timescale control loop must survive.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from .faults import FaultInjector
from .messages import ControlError, Envelope

DeliverFn = Callable[[Envelope], None]


class Transport:
    """Address-indexed delivery fabric for control envelopes."""

    #: True when ``send`` delivers (and any ack returns) synchronously.
    synchronous = False

    def __init__(self) -> None:
        self._endpoints: Dict[str, DeliverFn] = {}
        self.sent = 0
        self.delivered = 0

    def register(self, address: str, deliver: DeliverFn) -> None:
        if address in self._endpoints:
            raise ControlError(
                f"address {address!r} already registered")
        self._endpoints[address] = deliver

    def unregister(self, address: str) -> None:
        self._endpoints.pop(address, None)

    def _deliver(self, env: Envelope) -> None:
        deliver = self._endpoints.get(env.dst)
        if deliver is None:
            # Receiver gone (e.g. mid-restart): the message is lost;
            # reliability above us retransmits.
            return
        self.delivered += 1
        deliver(env)

    def send(self, env: Envelope) -> None:
        raise NotImplementedError


class InprocTransport(Transport):
    """Synchronous, perfectly reliable in-process delivery."""

    synchronous = True

    def send(self, env: Envelope) -> None:
        self.sent += 1
        self._deliver(env)


class SimTransport(Transport):
    """Simulator-scheduled delivery with loss, delay and duplication."""

    synchronous = False

    def __init__(self, sim, delay_ns: int = 50_000,
                 jitter_ns: int = 0,
                 faults: Optional[FaultInjector] = None,
                 rng: Optional[random.Random] = None) -> None:
        super().__init__()
        if delay_ns < 0 or jitter_ns < 0:
            raise ControlError("delay/jitter must be non-negative")
        self.sim = sim
        self.delay_ns = delay_ns
        self.jitter_ns = jitter_ns
        self.faults = faults
        self.rng = rng if rng is not None else sim.rng

    def _one_way_delay(self) -> int:
        delay = self.delay_ns
        if self.jitter_ns:
            delay += self.rng.randrange(self.jitter_ns + 1)
        if self.faults is not None:
            delay += self.faults.extra_delay()
        return delay

    def send(self, env: Envelope) -> None:
        self.sent += 1
        copies = 1
        if self.faults is not None:
            copies = self.faults.deliveries(env)
        for _ in range(copies):
            self.sim.post(self._one_way_delay(), self._deliver, env)
