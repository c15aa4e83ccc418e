"""Property test: the one-event port against the two-event port.

``Port`` posts one event per transmission (the arrival at the peer)
and only draws the key of the transmission's end, filing ``_tx_done``
there once a packet waits.  ``ReferencePort`` below is the design it
replaced: every transmission schedules both the arrival and its own
end, and the end marks the port idle when every queue is empty.

Seeded random programs drive one of each on a simulator of its own:
random sizes and priorities (out-of-range ones too), tail drops, an
ECN threshold, ``fail()``/``repair()`` while a packet is on the wire,
enqueues at the very instant a transmission ends from events filed
before and after that end, and enqueues between ``run()`` calls,
including while a packet is on the wire.  Deliveries (time, sequence
number and order), ``PortStats``, the latency hooks' calls, the clock
and the sequence counter must be identical; the event count must fall
by exactly the ends the reference fired on empty queues.
"""

import random
from collections import deque

import pytest

from repro.netsim.link import NUM_PRIORITIES, Port, PortStats
from repro.netsim.simulator import GBPS, SEC, Simulator

SEEDS = 40
#: Program events each rig may schedule.
SPAWN_LIMIT = 220


class ReferencePort:
    """The two-event port: ``_tx_done`` is scheduled for every
    transmission and goes idle when it finds every queue empty."""

    def __init__(self, sim, name, rate_bps, prop_delay_ns,
                 queue_capacity_bytes, ecn_threshold_bytes):
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.prop_delay_ns = prop_delay_ns
        self.queue_capacity_bytes = queue_capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.peer = None
        self._queues = [deque() for _ in range(NUM_PRIORITIES)]
        self._queued_bytes = 0
        self._busy = False
        self.failed = False
        self.stats = PortStats()
        #: Transmission ends that fired with every queue empty.
        self.idle_ends = 0

    def connect(self, peer):
        self.peer = peer

    def fail(self):
        self.failed = True
        lat = self.sim.latency
        for queue in self._queues:
            while queue:
                packet = queue.popleft()
                self._queued_bytes -= packet.size
                self.stats.failed_drops += 1
                if lat is not None:
                    lat.packet_dropped(packet.packet_id)

    def repair(self):
        self.failed = False

    def enqueue(self, packet):
        lat = self.sim.latency
        if self.failed:
            self.stats.failed_drops += 1
            if lat is not None:
                lat.packet_dropped(packet.packet_id)
            return False
        size = packet.size
        queued = self._queued_bytes
        if queued + size > self.queue_capacity_bytes:
            self.stats.drops += 1
            self.stats.drop_bytes += size
            if lat is not None:
                lat.packet_dropped(packet.packet_id)
            return False
        if self.ecn_threshold_bytes is not None and \
                queued >= self.ecn_threshold_bytes:
            packet.ecn = 1
            self.stats.ecn_marks += 1
        prio = packet.priority
        if not 0 <= prio < NUM_PRIORITIES:
            prio = 0 if prio < 0 else NUM_PRIORITIES - 1
        self._queues[prio].append(packet)
        self._queued_bytes = queued + size
        if lat is not None:
            lat.port_enqueued(packet.packet_id, self.sim.now)
        if not self._busy:
            self._next()
        return True

    def _end(self):
        if not any(self._queues):
            self.idle_ends += 1
        self._next()

    def _next(self):
        for queue in reversed(self._queues):
            if queue:
                packet = queue.popleft()
                break
        else:
            self._busy = False
            return
        self._busy = True
        size = packet.size
        self._queued_bytes -= size
        tx_ns = size * 8 * SEC // self.rate_bps
        self.stats.tx_packets += 1
        self.stats.tx_bytes += size
        self.stats.busy_ns += tx_ns
        lat = self.sim.latency
        if lat is not None:
            lat.port_tx_start(packet.packet_id, self.sim.now, tx_ns,
                              self.prop_delay_ns)
        self.sim.schedule(tx_ns + self.prop_delay_ns, self._deliver,
                          packet)
        self.sim.schedule(tx_ns, self._end)

    def _deliver(self, packet):
        packet.hop_count += 1
        self.peer.receive(packet, self)


class Pkt:
    __slots__ = ("packet_id", "size", "priority", "ecn", "hop_count")

    def __init__(self, packet_id, size, priority):
        self.packet_id = packet_id
        self.size = size
        self.priority = priority
        self.ecn = 0
        self.hop_count = 0


class Hooks:
    """A latency collector that logs every call the port makes."""

    def __init__(self, log, rig):
        self.log = log
        self.rig = rig

    def port_enqueued(self, packet_id, now):
        self.log.append(("enqueued", packet_id, now))

    def port_tx_start(self, packet_id, now, tx_ns, prop_ns):
        self.log.append(("tx_start", packet_id, now, tx_ns, prop_ns))
        self.rig.fails_before_tx = self.rig.fails

    def packet_dropped(self, packet_id):
        self.log.append(("dropped", packet_id))


class Rig:
    """One port, its sink and a random program driving both.  Every
    choice comes from the rig's own generator at the moment it is
    made, so two rigs whose ports behave alike stay in lockstep."""

    def __init__(self, port_cls, seed):
        self.rng = rng = random.Random(seed)
        self.sim = sim = Simulator()
        self.log = []
        sim.latency = Hooks(self.log, self)
        # 8 Gbps: a packet of n bytes is on the wire for n ns, so ends
        # fall on the instants the program picks.
        self.port = port_cls(
            sim, "p", 8 * GBPS, rng.choice((0, 0, 1, 7, 30)),
            rng.choice((60, 150, 10 ** 6)), rng.choice((None, 0, 25)))
        self.port.connect(self)
        self.packets = 0
        self.spawned = 0
        self.fails = self.fails_before_tx = 0
        #: Situations seen at enqueue time, for the coverage check.
        self.seen = set()
        for _ in range(12):
            self.spawn(rng.randrange(80))

    def spawn(self, delay):
        if self.spawned < SPAWN_LIMIT:
            self.spawned += 1
            self.sim.schedule(delay, self.fire)

    def enqueue(self):
        rng = self.rng
        self.packets += 1
        packet = Pkt(self.packets, rng.randint(1, 40),
                     rng.choice((0, 1, 3, 7, 7, -2, 9)))
        port = self.port
        end = getattr(port, "_tx_end", None)
        if end is not None and end[0] == self.sim.now:
            self.seen.add("end filed earlier" if end > self.sim._passed
                          else "end filed later")
        if not 0 <= packet.priority < NUM_PRIORITIES:
            self.seen.add("priority out of range")
        port.enqueue(packet)

    def act(self):
        rng = self.rng
        roll = rng.random()
        if roll < 0.08:
            self.fails += 1
            self.port.fail()
        elif roll < 0.2:
            self.port.repair()
        else:
            for _ in range(rng.choice((1, 1, 2, 3))):
                self.enqueue()

    def fire(self):
        self.log.append(("fire", self.sim.now, self.sim._passed[1]))
        self.act()
        for _ in range(self.rng.choice((0, 1, 1, 2))):
            self.spawn(self.rng.choice((0, 0, 1, 3, 9,
                                        self.rng.randrange(70))))

    def receive(self, packet, port):
        self.log.append(("deliver", packet.packet_id, self.sim.now,
                         self.sim._passed[1], packet.hop_count,
                         packet.ecn))
        roll = self.rng.random()
        if roll < 0.25:
            self.enqueue()          # same instant as the end (prop 0)
        elif roll < 0.4:
            self.spawn(0)


def stats_of(port):
    return tuple(getattr(port.stats, slot) for slot in PortStats.__slots__)


def drive(seed):
    """Play one program through both ports in random run chunks,
    comparing after each; returns what the run covered."""
    new, ref = Rig(Port, seed), Rig(ReferencePort, seed)
    ends = {"filed": 0, "empty": 0}
    filed_end = new.port._tx_done

    def counting_end():
        ends["filed"] += 1
        if not any(new.port._queues):
            # Only a fail() during the transmission can leave a filed
            # end to find every queue empty.
            assert new.fails > new.fails_before_tx
            ends["empty"] += 1
        filed_end()

    new.port._tx_done = counting_end
    control = random.Random(seed + 10 ** 6)
    covered = set()
    for _ in range(400):
        if not new.sim.pending and not ref.sim.pending:
            break
        now = new.sim.now
        # Some runs stop just past the end of the transmission on the
        # wire, some inside it.
        end = max(now, new.port._tx_end[0])
        until = control.choice((None, now, now + control.randrange(1, 50),
                                end + control.randrange(
                                    new.port.prop_delay_ns + 1)))
        new.sim.run(until_ns=until)
        ref.sim.run(until_ns=until)
        assert new.sim.now == ref.sim.now
        assert new.sim._seq == ref.sim._seq
        assert new.log == ref.log
        if control.random() < 0.5:
            covered.add("enqueue while on the wire"
                        if new.port._tx_end > new.sim._passed
                        else "enqueue between runs")
            new.act()
            ref.act()
    assert new.log == ref.log
    assert stats_of(new.port) == stats_of(ref.port)
    assert new.sim.events_processed == (
        ref.sim.events_processed - ref.port.idle_ends + ends["empty"])
    stats = new.port.stats
    covered |= new.seen
    covered |= {name for name, count in (
        ("tail drop", stats.drops), ("ECN mark", stats.ecn_marks),
        ("dropped while failed", stats.failed_drops),
        ("end filed", ends["filed"])) if count}
    return covered


@pytest.mark.parametrize("seed", range(SEEDS))
def test_port_matches_two_event_reference(seed):
    drive(seed)


def test_programs_cover_every_situation():
    covered = set()
    for seed in range(SEEDS):
        covered |= drive(seed)
    assert covered == {
        "end filed earlier", "end filed later", "priority out of range",
        "enqueue between runs", "enqueue while on the wire", "tail drop",
        "ECN mark", "dropped while failed", "end filed"}


class Sink:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet, port):
        self.arrivals.append((packet.packet_id, self.sim.now))


@pytest.mark.parametrize("port_cls", [Port, ReferencePort])
def test_run_ending_mid_transmission_keeps_port_busy(port_cls):
    """A run that ends inside a transmission leaves the port busy
    until that end, though only a drawn key marks it, so a packet
    enqueued between runs waits for it, as it did when the end was an
    event of its own."""
    sim = Simulator()
    sink = Sink(sim)
    port = port_cls(sim, "p", 8 * GBPS, 30, 10 ** 6, None)
    port.connect(sink)
    sim.schedule(0, port.enqueue, Pkt(1, 10, 0))   # on the wire 0-10
    assert sim.run(until_ns=5) == 1
    assert sim.now == 5
    port.enqueue(Pkt(2, 5, 0))
    sim.run(until_ns=20)
    assert sim.now == 20
    port.enqueue(Pkt(3, 5, 0))                    # idle again at 20
    sim.run()
    assert sink.arrivals == [(1, 40), (2, 45), (3, 55)]


@pytest.mark.differential
def test_port_matches_reference_at_depth(request):
    if "differential" not in request.config.getoption("markexpr"):
        pytest.skip("ten times the seeds: run with -m differential")
    for seed in range(SEEDS, 11 * SEEDS):
        drive(seed)
