"""Property test: the heap-based Simulator against a naive reference.

Seeded random event programs — schedule, cancel, reschedule, events
that spawn more events (including same-instant ones) from inside
callbacks — run through both the production heap simulator and a
deliberately naive executor that keeps a plain list and re-sorts it
on every step.  The observable callback order must be identical,
including same-instant ties (defined to fire in schedule order) and
events created while the batch they join is already firing.

``reschedule`` is specified as cancel + schedule: the reference does
exactly that, the heap moves the handle (and may leave a deferred
entry behind), and the two must agree after every single fire.
"""

import random

import pytest

from repro.netsim.simulator import SimulationError, Simulator

SPAWN_LIMIT = 600
#: Moves revive fired events, so they are capped like spawns.
MOVE_LIMIT = 400


class HeapExecutor:
    """The production simulator behind the common driver API."""

    def __init__(self):
        self.sim = Simulator()

    @property
    def now(self):
        return self.sim.now

    def schedule(self, delay, callback, *args):
        return self.sim.schedule(delay, callback, *args)

    def cancel(self, handle):
        handle.cancel()

    def reschedule(self, handle, delay):
        return self.sim.reschedule(handle, delay)

    def run(self, until_ns=None, max_events=None):
        return self.sim.run(until_ns=until_ns, max_events=max_events)

    def next_event_time(self):
        return self.sim.next_event_time()

    @property
    def processed(self):
        return self.sim.events_processed

    @property
    def pending(self):
        return self.sim.pending


class ReferenceExecutor:
    """Sorted-list executor: obviously correct, O(n log n) per event.

    Keeps every live event in a plain list and re-sorts by
    ``(time, schedule_seq)`` before each step — the specification the
    heap implementation must match.  ``reschedule`` is literally
    cancel + schedule.
    """

    def __init__(self):
        self.now = 0
        self.processed = 0
        self._events = []
        self._seq = 0

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay} ns in the past")
        record = [self.now + delay, self._seq, callback, args, False]
        self._seq += 1
        self._events.append(record)
        return record

    def cancel(self, record):
        record[4] = True

    def reschedule(self, record, delay):
        self.cancel(record)
        return self.schedule(delay, record[2], *record[3])

    def _live(self):
        live = [r for r in self._events if not r[4]]
        live.sort(key=lambda r: (r[0], r[1]))
        return live

    def run(self, until_ns=None, max_events=None):
        processed = 0
        while max_events is None or processed < max_events:
            live = self._live()
            if not live or (until_ns is not None and
                            live[0][0] > until_ns):
                break
            record = live[0]
            self._events.remove(record)
            self.now = record[0]
            record[2](*record[3])
            processed += 1
        # The clock moves on to ``until_ns`` only when nothing live is
        # left at or before it.
        if until_ns is not None and self.now < until_ns:
            live = self._live()
            if not live or live[0][0] > until_ns:
                self.now = until_ns
        self.processed += processed
        return processed

    def next_event_time(self):
        live = self._live()
        return live[0][0] if live else None

    @property
    def pending(self):
        return sum(1 for r in self._events if not r[4])


def build_program(rng, n_roots=25, n_ids=80):
    """A random event program as plain data.

    ``rules[event_id] = (spawns, cancels, moves)``: when ``event_id``
    fires it schedules each ``(delay, child_id)`` (delay 0 joins the
    batch currently firing), cancels the latest handle of each listed
    id and reschedules the latest handle of each ``(target_id,
    delay)`` in ``moves``.  A target may be live, cancelled, already
    fired or never scheduled (skipped); a move may land later, earlier
    or at the same instant as the target's deadline.
    """
    rules = {}
    for event_id in range(n_ids):
        spawns = []
        cancels = []
        moves = []
        if rng.random() < 0.7:
            for _ in range(rng.randrange(1, 4)):
                delay = rng.choice((0, 0, 1, 3, rng.randrange(40)))
                spawns.append((delay, rng.randrange(n_ids)))
        if rng.random() < 0.4:
            cancels.append(rng.randrange(n_ids))
        if rng.random() < 0.5:
            for _ in range(rng.randrange(1, 3)):
                delay = rng.choice((0, 1, 5, rng.randrange(60)))
                moves.append((rng.randrange(n_ids), delay))
        rules[event_id] = (spawns, cancels, moves)
    roots = [(rng.randrange(60), rng.randrange(n_ids))
             for _ in range(n_roots)]
    return roots, rules


class Driver:
    """Plays one program against one executor, logging fire order.

    Every scheduled event carries a token; the driver tracks each
    token's state and deadline itself, so it can classify the moves it
    makes (``self.moves``) without asking the executor.
    """

    def __init__(self, executor, roots, rules):
        self.executor = executor
        self.rules = rules
        self.handles = {}
        self.state = {}
        self.deadline = {}
        self.log = []
        self.moves = set()
        self.spawned = 0
        self.moved = 0
        for time, event_id in roots:
            self._spawn(time, event_id)

    def _spawn(self, delay, event_id):
        if self.spawned >= SPAWN_LIMIT:
            return
        token = self.spawned
        self.spawned += 1
        self.handles[event_id] = (token, self.executor.schedule(
            delay, self._fire, event_id, token))
        self.state[token] = "live"
        self.deadline[token] = self.executor.now + delay

    def _fire(self, event_id, token):
        assert self.state[token] == "live"
        self.state[token] = "fired"
        self.log.append((event_id, token, self.executor.now))
        spawns, cancels, moves = self.rules[event_id]
        for delay, child_id in spawns:
            self._spawn(delay, child_id)
        for target in cancels:
            if target in self.handles:
                token, handle = self.handles[target]
                self.executor.cancel(handle)
                if self.state[token] == "live":
                    self.state[token] = "cancelled"
        for target, delay in moves:
            if target in self.handles:
                self._move(target, delay)

    def _move(self, target, delay):
        if self.moved >= MOVE_LIMIT:
            return
        self.moved += 1
        token, handle = self.handles[target]
        new_time = self.executor.now + delay
        kind = self.state[token]
        if kind == "live":
            old_time = self.deadline[token]
            kind = ("later" if new_time > old_time else
                    "earlier" if new_time < old_time else "same instant")
        self.moves.add(kind)
        self.handles[target] = (token, self.executor.reschedule(handle,
                                                                delay))
        self.state[token] = "live"
        self.deadline[token] = new_time


def observation(executor, driver):
    return (list(driver.log), executor.processed, executor.pending,
            executor.next_event_time(), executor.now)


@pytest.mark.parametrize("seed", range(15))
def test_heap_matches_reference_executor(seed):
    rng = random.Random(seed)
    roots, rules = build_program(rng)

    heap = HeapExecutor()
    heap_driver = Driver(heap, roots, rules)
    heap_processed = heap.run()

    reference = ReferenceExecutor()
    ref_driver = Driver(reference, roots, rules)
    ref_processed = reference.run()

    assert heap_driver.log == ref_driver.log
    assert heap_processed == ref_processed
    assert heap.pending == reference.pending == 0
    assert len(heap_driver.log) > 0


@pytest.mark.parametrize("seed", range(15))
def test_heap_matches_reference_after_every_fire(seed):
    """Lockstep: one event at a time, comparing the fire log, the
    processed count, ``pending`` and ``next_event_time()`` after each
    — so a deferred entry surfacing early is never seen as an event
    and never changes what ``next_event_time`` reports."""
    rng = random.Random(seed)
    roots, rules = build_program(rng)
    heap, reference = HeapExecutor(), ReferenceExecutor()
    heap_driver = Driver(heap, roots, rules)
    ref_driver = Driver(reference, roots, rules)
    assert observation(heap, heap_driver) == \
        observation(reference, ref_driver)
    while True:
        fired = heap.run(max_events=1)
        assert fired == reference.run(max_events=1)
        assert observation(heap, heap_driver) == \
            observation(reference, ref_driver)
        if not fired:
            break
    assert heap_driver.moves == ref_driver.moves


def bounded_lockstep(seed):
    """Play one program through both executors in runs bounded by
    ``until_ns``, ``max_events`` or both, in random mixes, comparing
    after each run; returns how many runs ``max_events`` cut while a
    live event was left at or before ``until_ns``."""
    rng = random.Random(seed)
    roots, rules = build_program(rng)
    heap, reference = HeapExecutor(), ReferenceExecutor()
    heap_driver = Driver(heap, roots, rules)
    ref_driver = Driver(reference, roots, rules)
    cut_inside_until = 0
    while reference.pending:
        until_ns = rng.choice((None, reference.now,
                               reference.now + rng.randrange(1, 40)))
        max_events = rng.choice((None, 0, 1, 2, 5))
        fired = heap.run(until_ns=until_ns, max_events=max_events)
        assert fired == reference.run(until_ns=until_ns,
                                      max_events=max_events)
        assert observation(heap, heap_driver) == \
            observation(reference, ref_driver)
        upcoming = reference.next_event_time()
        if until_ns is not None and fired == max_events and \
                upcoming is not None and upcoming <= until_ns:
            cut_inside_until += 1
    assert heap_driver.log == ref_driver.log
    return cut_inside_until


@pytest.mark.parametrize("seed", range(15))
def test_heap_matches_reference_in_bounded_runs(seed):
    """The same events fire, and the clock ends at the same place:
    at ``until_ns`` only once nothing live is left at or before it,
    so a run cut by ``max_events`` resumes cleanly."""
    bounded_lockstep(seed)


def test_bounded_runs_cut_inside_until():
    assert sum(bounded_lockstep(seed) for seed in range(15)) > 0


def test_programs_cover_every_kind_of_move():
    kinds = set()
    for seed in range(15):
        roots, rules = build_program(random.Random(seed))
        driver = Driver(HeapExecutor(), roots, rules)
        driver.executor.run()
        kinds |= driver.moves
    assert kinds == {"later", "earlier", "same instant", "cancelled",
                     "fired"}


def test_same_instant_spawn_joins_current_batch_in_order():
    """An event scheduled with delay 0 from inside a callback fires in
    the same instant, after everything already scheduled there."""
    for executor in (HeapExecutor(), ReferenceExecutor()):
        log = []
        executor.schedule(
            10, lambda: (log.append("first"),
                         executor.schedule(0, log.append, "spawned")))
        executor.schedule(10, log.append, "second")
        executor.run()
        assert log == ["first", "second", "spawned"]


def test_cancel_inside_batch_prevents_same_instant_peer():
    """Cancelling a same-instant peer from a callback must stop it in
    both executors (the heap pops lazily; the reference filters)."""
    for executor_cls in (HeapExecutor, ReferenceExecutor):
        executor = executor_cls()
        log = []
        handles = {}

        def killer():
            log.append("killer")
            executor.cancel(handles["victim"])

        executor.schedule(5, killer)
        handles["victim"] = executor.schedule(5, log.append, "victim")
        executor.schedule(5, log.append, "survivor")
        executor.run()
        assert log == ["killer", "survivor"]


def test_reschedule_to_same_instant_goes_behind_its_peers():
    """A move draws a fresh sequence number, so an event moved to the
    instant it already had fires after peers scheduled meanwhile."""
    for executor in (HeapExecutor(), ReferenceExecutor()):
        log = []
        handle = executor.schedule(10, log.append, "moved")
        executor.schedule(10, log.append, "peer")
        executor.reschedule(handle, 10)
        executor.run()
        assert log == ["peer", "moved"]
