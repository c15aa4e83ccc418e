"""Fault injection for the control channel.

The paper's control loop is coarse-timescale and must survive an
imperfect network between controller and enclaves.  This harness makes
that imperfection explicit and deterministic: a
:class:`FaultInjector` sits inside :class:`~repro.control.transport.
SimTransport` and decides, per envelope, whether to drop, duplicate or
extra-delay it, and whether either endpoint is currently partitioned.
Enclave restarts (losing all data-plane soft state, to be replayed
from the controller's desired-state table) are injected with
:func:`schedule_restart`.

All randomness comes from the injected :class:`random.Random` —
normally the simulator's seeded RNG — so every fault schedule is
bit-for-bit reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Set

from .messages import Envelope


class FaultInjector:
    """Drops, duplicates, delays and partitions control messages.

    Probabilities are evaluated independently per send; a partition
    beats everything (no traffic in or out of a partitioned address).
    ``extra_delay_ns`` is the *maximum* additional one-way latency; the
    actual value is drawn uniformly per delivery.
    """

    def __init__(self, rng: Optional[random.Random] = None,
                 drop_prob: float = 0.0,
                 dup_prob: float = 0.0,
                 extra_delay_ns: int = 0,
                 scheduler=None) -> None:
        for name, p in (("drop_prob", drop_prob),
                        ("dup_prob", dup_prob)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.rng = rng if rng is not None else random.Random(0)
        self.drop_prob = drop_prob
        self.dup_prob = dup_prob
        self.extra_delay_ns = extra_delay_ns
        #: Needed only for scheduled partition windows (``heal_at_ns``
        #: / :meth:`partition_window`); any object with ``at(time_ns,
        #: cb, *args)`` works, normally the :class:`Simulator`.
        self.scheduler = scheduler
        self._partitioned: Set[str] = set()
        # Per-address partition generation: every partition/heal bumps
        # it, so a *scheduled* heal only fires against the partition
        # it was armed for — never against a newer one installed
        # after a manual heal (long runs re-partition freely).
        self._partition_gen: Dict[str, int] = {}
        self.dropped = 0
        self.duplicated = 0
        self.partition_drops = 0
        self.scheduled_heals_fired = 0

    # -- partitions --------------------------------------------------------

    def partition(self, address: str,
                  heal_at_ns: Optional[int] = None) -> None:
        """Cut the endpoint ``address`` off from everyone.

        With ``heal_at_ns`` the partition heals itself at that
        absolute sim time — unless it was manually healed or replaced
        by a newer partition first (generation fencing).
        """
        self._partitioned.add(address)
        gen = self._bump_gen(address)
        if heal_at_ns is not None:
            if self.scheduler is None:
                raise ValueError(
                    "heal_at_ns needs a scheduler; pass one to the "
                    "constructor")
            self.scheduler.at(heal_at_ns, self._scheduled_heal,
                              address, gen)

    def partition_window(self, address: str, start_ns: int,
                         heal_at_ns: int) -> None:
        """Partition ``address`` during ``[start_ns, heal_at_ns)``."""
        if heal_at_ns <= start_ns:
            raise ValueError(
                f"empty partition window [{start_ns}, {heal_at_ns})")
        if self.scheduler is None:
            raise ValueError(
                "partition_window needs a scheduler; pass one to the "
                "constructor")
        self.scheduler.at(start_ns, self.partition, address,
                          heal_at_ns)

    def _bump_gen(self, address: str) -> int:
        gen = self._partition_gen.get(address, 0) + 1
        self._partition_gen[address] = gen
        return gen

    def _scheduled_heal(self, address: str, gen: int) -> None:
        if self._partition_gen.get(address) != gen:
            return  # fenced: healed or re-partitioned since arming
        self.heal(address)
        self.scheduled_heals_fired += 1

    def heal(self, address: str) -> None:
        if address in self._partitioned:
            self._partitioned.discard(address)
            self._bump_gen(address)

    def heal_all(self) -> None:
        for address in list(self._partitioned):
            self.heal(address)

    def is_partitioned(self, address: str) -> bool:
        return address in self._partitioned

    # -- per-envelope decisions -------------------------------------------

    def deliveries(self, env: Envelope) -> int:
        """How many copies of ``env`` to deliver (0 = lost).

        Duplication models a retransmit racing its own ack; both
        copies then exercise the receiver's dedup path.
        """
        partitioned = self._partitioned
        if partitioned and (env.src in partitioned or
                            env.dst in partitioned):
            self.partition_drops += 1
            return 0
        if self.drop_prob and self.rng.random() < self.drop_prob:
            self.dropped += 1
            return 0
        if self.dup_prob and self.rng.random() < self.dup_prob:
            self.duplicated += 1
            return 2
        return 1

    def extra_delay(self) -> int:
        if self.extra_delay_ns <= 0:
            return 0
        return self.rng.randrange(self.extra_delay_ns + 1)

    def summary(self) -> dict:
        return {"dropped": self.dropped,
                "duplicated": self.duplicated,
                "partition_drops": self.partition_drops,
                "scheduled_heals_fired": self.scheduled_heals_fired,
                "partitioned": sorted(self._partitioned)}


def schedule_restart(sim, at_ns: int, agent) -> None:
    """Restart ``agent``'s enclave at absolute sim time ``at_ns``.

    The agent loses all soft state (installed functions, rules,
    globals, epochs, channel sessions) and announces itself to the
    controller with a ``Hello``, triggering desired-state replay.
    """
    sim.at(at_ns, agent.restart)
