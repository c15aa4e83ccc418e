"""Property test: the heap-based Simulator against a naive reference.

Seeded random event programs — schedule, cancel, reschedule, events
that spawn more events (including same-instant ones) from inside
callbacks — run through both the production heap simulator and a
deliberately naive executor that keeps a plain list and re-sorts it
on every step.  The observable callback order must be identical,
including same-instant ties (defined to fire in schedule order) and
events created while the batch they join is already firing.

``reschedule`` is specified as cancel + schedule: the reference does
exactly that, and the heap moves the handle (and may leave a deferred
entry behind).

Programs also ``post`` events (no handle), ``draw`` keys and ``file``
callbacks at drawn keys later, in the same instant or after a run
boundary.  The reference keeps each drawn key as a slot that passes
when the loop fires something keyed after it, or when a run ends at or
past it.

The player records what it sees from inside every fired callback —
the clock, ``pending`` and which drawn keys have passed — so the two
executors are compared after every single fire, inside same-instant
batches too.
"""

import random

import pytest

from repro.netsim.simulator import SimulationError, Simulator

SPAWN_LIMIT = 600
#: Moves revive fired events, so they are capped like spawns.
MOVE_LIMIT = 400


class HeapExecutor:
    """The production simulator behind the common player API."""

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

    def post(self, delay, callback, *args):
        self.sim.post(delay, callback, *args)

    def draw(self, delay):
        return self.sim.draw(delay)

    def file(self, key, callback, *args):
        self.sim.file(key, callback, *args)

    def passed(self, key):
        return key <= self.sim._passed

    def run(self, until_ns=None):
        return self.sim.run(until_ns=until_ns)

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
    cancel + schedule.  A drawn key is a slot in ``_slots`` that only
    records whether the loop has passed it.
    """

    def __init__(self):
        self.now = 0
        self.processed = 0
        self._events = []
        self._seq = 0
        self._slots = {}          # drawn key -> passed

    def schedule(self, delay, callback, *args):
        time, seq = self.draw(delay)
        del self._slots[time, seq]
        record = [time, seq, callback, args, False]
        self._events.append(record)
        return record

    def post(self, delay, callback, *args):
        self.schedule(delay, callback, *args)

    def draw(self, delay):
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {delay} ns in the past")
        key = (self.now + delay, self._seq)
        self._seq += 1
        self._slots[key] = False
        return key

    def file(self, key, callback, *args):
        if self._slots[key]:
            raise SimulationError(f"cannot file passed key {key}")
        self._events.append([key[0], key[1], callback, args, False])

    def passed(self, key):
        return self._slots[key]

    def cancel(self, record):
        record[4] = True

    def reschedule(self, record, delay):
        self.cancel(record)
        return self.schedule(delay, record[2], *record[3])

    def _live(self):
        live = [r for r in self._events if not r[4]]
        live.sort(key=lambda r: (r[0], r[1]))
        return live

    def _pass(self, until_key):
        for key in self._slots:
            if key <= until_key:
                self._slots[key] = True

    def run(self, until_ns=None):
        processed = 0
        while True:
            live = self._live()
            if not live or (until_ns is not None and
                            live[0][0] > until_ns):
                break
            record = live[0]
            self._events.remove(record)
            self.now = record[0]
            self._pass((record[0], record[1]))
            record[2](*record[3])
            processed += 1
        # Everything up to the end of the run has passed.
        if until_ns is None or until_ns >= self.now:
            if until_ns is not None:
                self.now = until_ns
            self._pass((self.now, self._seq))
        self.processed += processed
        return processed

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


def build_keyed(rng, n_ids=80, n_slots=12):
    """The program's keyed half: ``keyed[event_id] = (posts, draws,
    files)``.  When ``event_id`` fires it posts each ``(delay,
    child_id)``, draws a key into each ``(delay, slot_id)`` slot and
    files a fresh ``child_id`` at the key in each ``(slot_id,
    child_id)`` slot.  A filed key may lie in the current instant,
    ahead, or behind the loop (the file is refused)."""
    keyed = {}
    for event_id in range(n_ids):
        posts, draws, files = [], [], []
        if rng.random() < 0.4:
            posts.append((rng.choice((0, 0, 2, rng.randrange(40))),
                          rng.randrange(n_ids)))
        if rng.random() < 0.5:
            draws.append((rng.choice((0, 0, 1, 4, rng.randrange(30))),
                          rng.randrange(n_slots)))
        if rng.random() < 0.5:
            files.append((rng.randrange(n_slots), rng.randrange(n_ids)))
        keyed[event_id] = (posts, draws, files)
    return keyed


class Player:
    """Plays one program against one executor, logging fire order.

    Every scheduled event carries a token; the player tracks each
    token's state and deadline itself, so it can classify the moves it
    makes (``self.moves``) without asking the executor.  Each fired
    callback ends by recording what the executor shows it
    (``self.seen``).
    """

    def __init__(self, executor, roots, rules, keyed=None):
        self.executor = executor
        self.rules = rules
        self.keyed = keyed or {}
        self.handles = {}
        self.state = {}
        self.deadline = {}
        self.log = []
        self.moves = set()
        self.spawned = 0
        self.moved = 0
        #: Drawn keys: every one, and the open one per slot.
        self.drawn = []
        self.slots = {}
        #: Per fire: the clock, ``pending`` and which keys have passed.
        self.seen = []
        #: The keyed situations the program ran into.
        self.kinds = set()
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
        posts, draws, files = self.keyed.get(event_id, ((), (), ()))
        for delay, child_id in posts:
            token = self._token()
            if token is not None:
                self.kinds.add("post")
                self.executor.post(delay, self._fire, child_id, token)
        for delay, slot_id in draws:
            self.touch(slot_id, delay)
        for slot_id, child_id in files:
            if slot_id in self.slots:
                self.touch(slot_id, 0, child_id)
        executor = self.executor
        self.seen.append((executor.now, executor.pending,
                          [executor.passed(key) for key in self.drawn]))

    def _token(self):
        if self.spawned >= SPAWN_LIMIT:
            return None
        token = self.spawned
        self.spawned += 1
        self.state[token] = "live"
        return token

    def touch(self, slot_id, delay, child_id=0):
        """File ``child_id`` at the slot's open key, or draw one."""
        key = self.slots.pop(slot_id, None)
        if key is None:
            key = self.slots[slot_id] = self.executor.draw(delay)
            self.drawn.append(key)
            return
        token = self._token()
        if token is None:
            return
        now = self.executor.now
        try:
            self.executor.file(key, self._fire, child_id, token)
        except SimulationError:
            self.state[token] = "refused"
            self.kinds.add("refused: passed")
            return
        self.kinds.add("filed in this instant" if key[0] == now
                       else "filed ahead")

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


def observation(executor, player):
    return (list(player.log), executor.processed, executor.pending,
            executor.now, [executor.passed(key) for key in player.drawn])


SEEDS = 15


def make_program(seed):
    """The seed's program: its scheduling rules and its keyed half."""
    roots, rules = build_program(random.Random(seed))
    return roots, rules, build_keyed(random.Random(seed + 10 ** 6))


def lockstep(seed):
    """Both executors through one run each, comparing the fire log and
    what each fired callback saw (the clock, ``pending`` and which
    drawn keys have passed) — so a deferred entry surfacing early is
    never seen as an event and never moves ``pending``."""
    program = make_program(seed)
    heap, reference = HeapExecutor(), ReferenceExecutor()
    heap_player = Player(heap, *program)
    ref_player = Player(reference, *program)
    assert observation(heap, heap_player) == \
        observation(reference, ref_player)
    assert heap.run() == reference.run()
    assert heap_player.seen == ref_player.seen
    assert observation(heap, heap_player) == \
        observation(reference, ref_player)
    assert heap_player.moves == ref_player.moves
    assert heap_player.kinds == ref_player.kinds
    return heap_player.moves | heap_player.kinds


@pytest.mark.parametrize("seed", range(SEEDS))
def test_heap_matches_reference_executor(seed):
    program = make_program(seed)
    heap = HeapExecutor()
    heap_player = Player(heap, *program)
    heap_processed = heap.run()

    reference = ReferenceExecutor()
    ref_player = Player(reference, *program)
    ref_processed = reference.run()

    assert heap_player.log == ref_player.log
    assert heap_processed == ref_processed
    assert heap.pending == reference.pending == 0
    assert len(heap_player.log) > 0


@pytest.mark.parametrize("seed", range(SEEDS))
def test_heap_matches_reference_after_every_fire(seed):
    lockstep(seed)


def bounded_lockstep(seed):
    """Play one program through both executors in runs bounded by
    random ``until_ns`` (at the clock, behind it or ahead of it),
    drawing and filing keys between runs, and comparing after each
    run and after every fire."""
    rng = random.Random(seed)
    program = make_program(seed)
    heap, reference = HeapExecutor(), ReferenceExecutor()
    heap_player = Player(heap, *program)
    ref_player = Player(reference, *program)
    while reference.pending:
        until_ns = rng.choice((reference.now, reference.now - 1,
                               reference.now + rng.randrange(1, 40)))
        assert heap.run(until_ns) == reference.run(until_ns)
        assert observation(heap, heap_player) == \
            observation(reference, ref_player)
        if rng.random() < 0.4:
            touch = (rng.randrange(12), rng.choice((0, 1, 5)),
                     rng.randrange(80))
            heap_player.touch(*touch)
            ref_player.touch(*touch)
            assert observation(heap, heap_player) == \
                observation(reference, ref_player)
    assert heap_player.seen == ref_player.seen


@pytest.mark.parametrize("seed", range(SEEDS))
def test_heap_matches_reference_in_bounded_runs(seed):
    """The same events fire, and the clock ends at the same place:
    at ``until_ns`` once a run passes it, so the next run resumes
    there."""
    bounded_lockstep(seed)


def test_programs_cover_every_keyed_situation():
    seen = set()
    for seed in range(SEEDS):
        seen |= lockstep(seed)
    assert seen >= {"post", "refused: passed", "filed in this instant",
                    "filed ahead"}


@pytest.mark.differential
def test_heap_matches_reference_at_depth(request):
    if "differential" not in request.config.getoption("markexpr"):
        pytest.skip("ten times the seeds: run with -m differential")
    for seed in range(SEEDS, 10 * SEEDS):
        test_heap_matches_reference_executor(seed)
        lockstep(seed)
        bounded_lockstep(seed)


def test_programs_cover_every_kind_of_move():
    kinds = set()
    for seed in range(SEEDS):
        player = Player(HeapExecutor(), *make_program(seed))
        player.executor.run()
        kinds |= player.moves
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
