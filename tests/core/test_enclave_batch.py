"""Edge cases for ``Enclave.process_batch``.

The batch path must be packet-for-packet equivalent to scalar
``process_packet`` — these tests pin the boundary conditions the
differential harness is unlikely to hit by chance: empty batches,
rule churn between batches (memo invalidation), a ConcurrencyViolation
striking part of a batch (the rest keeps processing) or the second hop
of a table chain, message-scoped state accumulated across a batch,
two functions drawing from the shared RNG in one batch, and
interpreter limits changed after a function turned hot.

The second half pins the generated per-packet plan against what only
the enclave can do to it: limits, RNG and clock changed under a built
plan, ``replace_function``, LRU eviction and ``invalidate``, the dry-run
flag, a held guard, and what its source may contain.
"""

import random

import pytest

from repro.core import (Classification, ConcurrencyViolation, Enclave,
                        EnclaveError)
from repro.lang import (AccessLevel, Field, FieldKind, Lifetime,
                        pycodegen, schema)

pytestmark = pytest.mark.batch


# Module-level actions so their source survives quotation.

def set_priority_five(packet):
    packet.priority = 5


def tag_low(packet):
    packet.priority = 1


def count_message_bytes(packet, msg):
    msg.total = msg.total + packet.size


def bump_counter(packet, _global):
    _global.counter = _global.counter + 1


def rand_priority(packet):
    packet.priority = rand(1000)


def rand_path(packet):
    packet.path_id = rand(1000)


MSG_SCHEMA = schema("Msg", Lifetime.MESSAGE, [
    Field("total", AccessLevel.READ_WRITE),
])
COUNTER_SCHEMA = schema("Cnt", Lifetime.GLOBAL, [
    Field("counter", AccessLevel.READ_WRITE),
])


class FakePacket:
    def __init__(self, **kw):
        self.src_ip = kw.get("src_ip", 1)
        self.dst_ip = kw.get("dst_ip", 2)
        self.src_port = kw.get("src_port", 1000)
        self.dst_port = kw.get("dst_port", 80)
        self.proto = 6
        self.size = kw.get("size", 1500)
        self.priority = 0
        self.path_id = 0
        self.drop = 0
        self.to_controller = 0
        self.queue_id = 0
        self.charge = 0
        self.ecn = 0
        self.tenant = 0


def _msg_cls(key):
    return [Classification("app.r1.x", {"msg_id": ("m", key)})]


def _send(enclave, pairs, use_batch, now_ns=None):
    """The same packets through either entry point."""
    if use_batch:
        return enclave.process_batch(pairs, now_ns=now_ns)
    return [enclave.process_packet(p, cls, now_ns=now_ns)
            for p, cls in pairs]


def test_empty_batch_returns_empty_list():
    enclave = Enclave("batch.test")
    enclave.install_function(set_priority_five)
    enclave.install_rule("*", "set_priority_five")
    assert enclave.process_batch([]) == []
    assert enclave.packets_processed == 0


def test_batch_spanning_rule_install_and_remove():
    """Rule churn between batches must invalidate the lookup memo for
    the batched pass exactly as for scalar lookups."""
    enclave = Enclave("batch.test")
    enclave.install_function(set_priority_five)
    enclave.install_function(tag_low, name="tag_low")
    rule = enclave.install_rule("*", "set_priority_five")

    batch = [(FakePacket(), ()) for _ in range(4)]
    first = enclave.process_batch(batch)
    assert all(r.executed == ["set_priority_five"] for r in first)
    assert all(p.priority == 5 for p, _ in batch)

    enclave.remove_rule(rule)
    missed = enclave.process_batch([(FakePacket(), ())
                                    for _ in range(3)])
    assert all(r.executed == [] for r in missed)
    assert all(r.matched_classes == [] for r in missed)

    enclave.install_rule("*", "tag_low")
    batch2 = [(FakePacket(), ()) for _ in range(4)]
    second = enclave.process_batch(batch2)
    assert all(r.executed == ["tag_low"] for r in second)
    assert all(p.priority == 1 for p, _ in batch2)
    # Misses still count as processed packets (scalar parity).
    assert enclave.packets_processed == 11


def test_concurrency_violation_mid_batch_isolated():
    """An externally held PER_MESSAGE guard errors only that
    message's packets; the remainder of the batch still processes."""
    enclave = Enclave("batch.test")
    fn = enclave.install_function(count_message_bytes,
                                  message_schema=MSG_SCHEMA)
    enclave.install_rule("*", "count_message_bytes")

    fn.guard.acquire(("m", 0))   # simulate an in-flight invocation
    try:
        batch = [(FakePacket(size=100 + i), _msg_cls(i % 2))
                 for i in range(6)]
        results = enclave.process_batch(batch, now_ns=7)
    finally:
        fn.guard.release(("m", 0))

    blocked = [r for i, r in enumerate(results) if i % 2 == 0]
    passed = [r for i, r in enumerate(results) if i % 2 == 1]
    assert all(isinstance(r.error, ConcurrencyViolation)
               for r in blocked)
    assert all(r.executed == [] for r in blocked)
    assert all(r.error is None and
               r.executed == ["count_message_bytes"] for r in passed)
    # Errored packets are not counted as processed (the scalar path
    # raises before its bookkeeping).
    assert enclave.packets_processed == 3
    # Only message ("m", 1) accumulated state: sizes 101 + 103 + 105.
    entries = fn.message_store._entries
    assert list(entries) == [("m", 1)]
    assert entries[("m", 1)].values["total"] == 101 + 103 + 105
    # Scalar path agrees: it raises for the held message.
    fn.guard.acquire(("m", 0))
    try:
        with pytest.raises(ConcurrencyViolation):
            enclave.process_packet(FakePacket(), _msg_cls(0),
                                   now_ns=8)
    finally:
        fn.guard.release(("m", 0))


def test_serial_violation_blocks_whole_batch_then_recovers():
    enclave = Enclave("batch.test")
    fn = enclave.install_function(bump_counter,
                                  global_schema=COUNTER_SCHEMA)
    enclave.install_rule("*", "bump_counter")

    fn.guard.acquire("external")
    try:
        results = enclave.process_batch([(FakePacket(), ())
                                         for _ in range(3)])
    finally:
        fn.guard.release("external")
    assert all(isinstance(r.error, ConcurrencyViolation)
               for r in results)
    assert enclave.packets_processed == 0
    assert enclave.query_global("bump_counter")["counter"] == 0

    ok = enclave.process_batch([(FakePacket(), ()) for _ in range(3)])
    assert all(r.error is None for r in ok)
    assert enclave.query_global("bump_counter")["counter"] == 3
    assert enclave.packets_processed == 3


def test_message_scoped_state_accumulates_across_batch():
    """One batch mixing two messages leaves the same message state as
    the equivalent scalar sequence."""
    sizes = [100, 200, 300, 400, 500]

    def run(use_batch):
        enclave = Enclave("batch.test")
        fn = enclave.install_function(count_message_bytes,
                                      message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "count_message_bytes")
        pairs = [(FakePacket(size=s), _msg_cls(i % 2))
                 for i, s in enumerate(sizes)]
        if use_batch:
            enclave.process_batch(pairs, now_ns=3)
        else:
            for p, cls in pairs:
                enclave.process_packet(p, cls, now_ns=3)
        return {k: (e.values["total"], e.packets)
                for k, e in fn.message_store._entries.items()}

    scalar_state = run(use_batch=False)
    batch_state = run(use_batch=True)
    assert batch_state == scalar_state
    assert batch_state[("m", 0)] == (100 + 300 + 500, 3)
    assert batch_state[("m", 1)] == (200 + 400, 2)


def test_mixed_rule_batch_shares_the_rng_like_scalar():
    """Two functions that both call ``rand()`` draw from the one
    enclave RNG in arrival order, whichever entry point runs them."""
    classes = ["app.r1.a", "app.r1.b", "app.r1.b", "app.r1.a",
               "app.r1.b", "app.r1.a", "app.r1.a", "app.r1.b"]

    def run(use_batch):
        rng = random.Random(11)
        enclave = Enclave("batch.test", rng=rng)
        enclave.install_function(rand_priority)
        enclave.install_function(rand_path)
        enclave.install_rule("app.r1.a", "rand_priority")
        enclave.install_rule("app.r1.b", "rand_path")
        pairs = [(FakePacket(), [Classification(name, {})])
                 for name in classes]
        results = _send(enclave, pairs, use_batch, now_ns=1)
        return ([(p.priority, p.path_id) for p, _ in pairs], results,
                rng.getstate())

    fields, results, rng_state = run(use_batch=True)
    assert (fields, results, rng_state) == run(use_batch=False)
    assert [r.executed for r in results] == [
        ["rand_priority" if name.endswith("a") else "rand_path"]
        for name in classes]
    assert len(set(fields)) > 2, "rand() should actually vary"


def test_violation_on_second_hop_of_a_chain_is_parked_per_packet():
    """table 0 -> PARALLEL function -> table 1 -> PER_MESSAGE function
    whose guard is held for one message: in a batch only that
    message's packets carry the error, and every counter equals the
    scalar run, which raises after the first hop committed."""

    def run(use_batch):
        enclave = Enclave("batch.test")
        enclave.create_table(1)
        first = enclave.install_function(set_priority_five)
        second = enclave.install_function(count_message_bytes,
                                          message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "set_priority_five", next_table=1)
        enclave.install_rule("*", "count_message_bytes", table_id=1)
        pairs = [(FakePacket(size=100 + i), _msg_cls(i % 2))
                 for i in range(6)]
        second.guard.acquire(("m", 0))
        try:
            if use_batch:
                results = enclave.process_batch(pairs, now_ns=7)
            else:
                results = []
                for packet, cls in pairs:
                    try:
                        results.append(enclave.process_packet(
                            packet, cls, now_ns=7))
                    except ConcurrencyViolation as violation:
                        results.append(violation)
        finally:
            second.guard.release(("m", 0))
        state = {key: (entry.values["total"], entry.packets)
                 for key, entry in second.message_store._entries.items()}
        return results, (
            [p.priority for p, _ in pairs], first.stats, second.stats,
            state, enclave.packets_processed, enclave.packets_dropped)

    batch_results, batch_counters = run(use_batch=True)
    scalar_results, scalar_counters = run(use_batch=False)
    assert batch_counters == scalar_counters
    priorities, first_stats, second_stats, state, processed, _ = \
        batch_counters
    # The first hop ran and committed for every packet ...
    assert priorities == [5] * 6
    assert first_stats.invocations == 6
    # ... the second only for the message whose guard was free.
    assert second_stats.invocations == 3
    assert state == {("m", 1): (101 + 103 + 105, 3)}
    assert processed == 3
    for i, (got, want) in enumerate(zip(batch_results, scalar_results)):
        if i % 2:
            assert got == want and got.error is None
            assert got.executed == ["set_priority_five",
                                    "count_message_bytes"]
        else:
            assert isinstance(want, ConcurrencyViolation)
            assert isinstance(got.error, ConcurrencyViolation)
            assert str(got.error) == str(want)
            assert got.executed == []
            assert got.matched_classes == ["app.r1.x"]


def _count_executes(fn):
    """Wrap ``fn.execute`` as ``bench/tracing.py`` does.  Only the
    generic tier of ``run_packet`` calls it, so the count tells
    whether the generated plan or the generic tier ran a packet."""
    calls = [0]
    inner = fn.execute

    def counted(fields, arrays):
        calls[0] += 1
        return inner(fields, arrays)

    fn.execute = counted
    return calls


def _heat(enclave, fn, cls=()):
    """Packets until ``fn``'s plan runs them; returns the execute
    counter, which stays put for as long as the plan does."""
    for _ in range(pycodegen.TIER_UP_CALLS + 1):
        enclave.process_packet(FakePacket(), cls, now_ns=1)
    executes = _count_executes(fn)
    enclave.process_packet(FakePacket(), cls, now_ns=1)
    assert executes[0] == 0, "the plan should be running by now"
    return executes


@pytest.mark.parametrize("use_batch", (False, True))
def test_table_still_chained_to_cannot_be_deleted(use_batch):
    """Deleting a table some rule still names as ``next_table`` used
    to succeed, and the next matching packet raised ``KeyError`` after
    its first hop had committed."""
    enclave = Enclave("batch.test")
    enclave.create_table(1)
    enclave.install_function(set_priority_five)
    enclave.install_function(tag_low, name="tag_low")
    first = enclave.install_rule("*", "set_priority_five", next_table=1)
    enclave.install_rule("*", "tag_low", table_id=1, next_table=1)
    with pytest.raises(EnclaveError,
                       match=f"rule {first} in table 0") as refused:
        enclave.delete_table(1)
    assert "table 1" in str(refused.value)
    assert enclave.query_tables() == [0, 1]
    pairs = [(FakePacket(), ()) for _ in range(3)]
    results = _send(enclave, pairs, use_batch)
    assert all(r.executed[:2] == ["set_priority_five", "tag_low"]
               for r in results)
    # Only references from other tables hold a table: its own rules
    # go with it.
    enclave.remove_rule(first)
    enclave.delete_table(1)
    assert enclave.query_tables() == [0]
    assert _send(enclave, pairs, use_batch)[0].executed == []


def test_lowered_op_budget_faults_on_both_entry_points():
    """Interpreter limits are read on every invocation: lowering the
    op budget after a function turned hot faults the next packet,
    identically through either entry point — on the call that
    compiles and runs the body through the bound executor, on the
    first call of the plan, and under a plan built earlier."""

    def run(use_batch, warm_up):
        enclave = Enclave("batch.test")
        fn = enclave.install_function(set_priority_five)
        enclave.install_rule("*", "set_priority_five")

        def send(n):
            pairs = [(FakePacket(), ()) for _ in range(n)]
            results = _send(enclave, pairs, use_batch)
            return results, [p.priority for p, _ in pairs]

        send(warm_up)
        executes = _count_executes(fn)
        enclave.interpreter.op_budget = 1
        sent = send(2)
        assert isinstance(fn.program._pycodegen,
                          pycodegen.CompiledProgram)
        return sent, fn.stats, executes[0]

    for extra, generic_calls in ((0, 1), (2, 0)):
        warm_up = pycodegen.TIER_UP_CALLS + extra
        (results, priorities), stats, executes = run(True, warm_up)
        assert ((results, priorities), stats, executes) == \
            run(False, warm_up)
        assert executes == generic_calls
        assert [r.faults for r in results] == [1, 1]
        assert [r.executed for r in results] == [[], []]
        assert priorities == [0, 0]       # forwarded unmodified
        assert stats.faults == 2
        assert stats.invocations == warm_up


# -- the generated per-packet plan ------------------------------------

def rand_total(packet, msg):
    msg.total = msg.total + rand(1000)
    packet.priority = clock() % 8


def nested_call(packet):
    def twice(x):
        return x + x
    packet.priority = 1 + twice(packet.size)


def sum_scratch(packet, _global):
    _global.scratch[0] = _global.scratch[0] + packet.size
    packet.priority = len(_global.records)


ARRAY_SCHEMA = schema("Arr", Lifetime.GLOBAL, [
    Field("scratch", AccessLevel.READ_WRITE, FieldKind.ARRAY),
    Field("records", AccessLevel.READ_ONLY, FieldKind.RECORD_ARRAY,
          record_fields=("lo", "hi")),
])


def _limits_enclave(action, backend, **schemas):
    enclave = Enclave("batch.test", rng=random.Random(5),
                      clock=lambda: 1000)
    fn = enclave.install_function(action, name="f", backend=backend,
                                  **schemas)
    enclave.install_rule("*", "f")
    return enclave, fn


@pytest.mark.parametrize("action,schemas,change", [
    (set_priority_five, {},
     lambda e, fn: setattr(e.interpreter, "max_operand_stack", 0)),
    (nested_call, {},
     lambda e, fn: setattr(e.interpreter, "max_call_depth", 1)),
    (sum_scratch, {"global_schema": ARRAY_SCHEMA},
     lambda e, fn: setattr(e.interpreter, "max_heap_words", 3)),
    # Copy-in fault: a record array that is not whole records.
    (sum_scratch, {"global_schema": ARRAY_SCHEMA},
     lambda e, fn: fn.global_store._arrays.update(records=[1, 2, 3])),
], ids=["stack", "call_depth", "heap", "stride"])
def test_plan_reads_limits_live_and_faults_like_the_generic_tier(
        action, schemas, change):
    """Each limit lowered under a built plan faults the next packets,
    commits nothing of them and leaves exactly what a ``tree``-pinned
    function (generic tier throughout) leaves; restoring the limit
    lets packets through again."""

    def run(backend):
        enclave, fn = _limits_enclave(action, backend, **schemas)
        if schemas:
            enclave.set_global_array("f", "scratch", [0] * 4)
        if backend == "interpreter":
            _heat(enclave, fn)
        else:
            for _ in range(pycodegen.TIER_UP_CALLS + 2):
                enclave.process_packet(FakePacket(), (), now_ns=1)
        saved = (vars(enclave.interpreter).copy(),
                 fn.global_store and dict(fn.global_store._arrays))
        change(enclave, fn)
        faulted = [FakePacket(size=100 + i) for i in range(3)]
        results = enclave.process_batch([(p, ()) for p in faulted])
        vars(enclave.interpreter).update(saved[0])
        if fn.global_store:
            fn.global_store._arrays.update(saved[1])
        after = [FakePacket(size=7), FakePacket(size=8)]
        results.append(enclave.process_packet(after[0]))
        if schemas:     # a larger heap moves the high-water mark
            enclave.set_global_array("f", "scratch", [0] * 9)
        results.append(enclave.process_packet(after[1]))
        return (results, [vars(p) for p in faulted + after], fn.stats,
                fn.global_store and fn.global_store.snapshot())

    hot = run("interpreter")
    assert hot == run("tree")
    results, packets, stats, _ = hot
    assert [r.faults for r in results] == [1, 1, 1, 0, 0]
    assert [p["priority"] for p in packets[:3]] == [0, 0, 0]
    assert stats.faults == 3
    assert stats.max_heap_bytes == (9 * 8 if schemas else 0)


def test_plan_follows_a_swapped_rng_and_clock():
    """RNG and clock are the interpreter's, per call, under a plan."""

    def run(backend):
        enclave, fn = _limits_enclave(rand_total, backend,
                                      message_schema=MSG_SCHEMA)
        cls = _msg_cls(0)
        if backend == "interpreter":
            _heat(enclave, fn, cls)
        else:
            for _ in range(pycodegen.TIER_UP_CALLS + 2):
                enclave.process_packet(FakePacket(), cls, now_ns=1)
        enclave.interpreter.rng = random.Random(99)
        enclave.interpreter.clock = lambda: 123456
        packet = FakePacket()
        enclave.process_packet(packet, cls, now_ns=2)
        return (packet.priority,
                fn.message_store._entries[("m", 0)].values,
                enclave.interpreter.rng.getstate())

    hot = run("interpreter")
    assert hot == run("tree")
    assert hot[0] == 123456 % 8
    assert hot[2] != random.Random(99).getstate()


def bump_counter_by_two(packet, _global):
    _global.counter = _global.counter + 2


def test_replace_function_on_a_hot_function():
    """The replacement starts cold, and once hot its plan reads and
    writes the carried-over global store; the old object, invalidated,
    can only run the cold tree walk."""
    enclave = Enclave("batch.test")
    old = enclave.install_function(bump_counter, name="bump",
                                   global_schema=COUNTER_SCHEMA)
    enclave.install_rule("*", "bump")
    _heat(enclave, old)
    counter = pycodegen.TIER_UP_CALLS + 2
    assert enclave.query_global("bump")["counter"] == counter

    new = enclave.replace_function("bump", bump_counter_by_two)
    assert new.global_store is old.global_store
    assert old.program._pycodegen is None
    executes = _heat(enclave, new)
    counter += 2 * (pycodegen.TIER_UP_CALLS + 2)
    enclave.process_batch([(FakePacket(), ()) for _ in range(3)])
    assert executes[0] == 0
    assert enclave.query_global("bump")["counter"] == counter + 6
    assert new.stats.invocations == pycodegen.TIER_UP_CALLS + 5

    # Whoever still holds the old object gets the generic tier and
    # the tree walk, never the plan or the compiled body it had.
    old_executes = _count_executes(old)
    compiled = pycodegen.stats()["programs_compiled"]
    assert old.run_packet(FakePacket(), None) > 0
    assert old_executes[0] == 1
    assert old.program._pycodegen == 1      # one cold call counted
    assert pycodegen.stats()["programs_compiled"] == compiled
    assert enclave.query_global("bump")["counter"] == counter + 7


def test_lru_eviction_sends_the_next_packet_to_the_generic_tier(
        monkeypatch):
    """An evicted program is cold: its plan answers by running
    nothing, the packet takes the generic tier (counted once toward
    the next tier-up) and results do not change."""
    monkeypatch.setattr(pycodegen, "CACHE_LIMIT", 1)
    enclave = Enclave("batch.test")
    first = enclave.install_function(set_priority_five)
    second = enclave.install_function(tag_low, name="tag_low")
    enclave.install_rule("app.r1.a", "set_priority_five")
    enclave.install_rule("app.r1.b", "tag_low")
    cls_a = [Classification("app.r1.a", {})]
    cls_b = [Classification("app.r1.b", {})]
    executes = _heat(enclave, first, cls_a)
    stale_plan = pycodegen.plan_for(enclave.interpreter, first)
    _heat(enclave, second, cls_b)         # evicts the first program
    assert first.program._pycodegen is None

    packet = FakePacket()
    result = enclave.process_packet(packet, cls_a)
    assert result.executed == ["set_priority_five"]
    assert packet.priority == 5
    assert executes[0] == 1
    assert first.program._pycodegen == 1
    # The dropped plan itself refuses to run generated code.
    untouched = FakePacket()
    assert stale_plan(untouched, None, None) is None
    assert untouched.priority == 0
    assert first.stats.invocations == pycodegen.TIER_UP_CALLS + 3


def test_invalidate_under_a_built_plan_returns_to_the_generic_tier():
    enclave = Enclave("batch.test")
    fn = enclave.install_function(set_priority_five)
    enclave.install_rule("*", "set_priority_five")
    executes = _heat(enclave, fn)
    assert pycodegen.invalidate(fn.program)
    results = enclave.process_batch([(FakePacket(), ())
                                     for _ in range(2)])
    assert [r.executed for r in results] == [["set_priority_five"]] * 2
    assert executes[0] == 2
    assert fn.program._pycodegen == 2


def count_and_tag(packet, msg):
    msg.total = msg.total + packet.size
    packet.priority = 3


def test_dry_run_under_a_plan_commits_message_state_only():
    """``commit_packet_writes=False`` (the paper's baseline-Eden
    configuration) is honoured by the plan, and is read per packet:
    fig9 flips it after install."""
    enclave = Enclave("batch.test")
    fn = enclave.install_function(count_and_tag, name="f",
                                  message_schema=MSG_SCHEMA,
                                  commit_packet_writes=False)
    enclave.install_rule("*", "f")
    _heat(enclave, fn, _msg_cls(0))
    total = 1500 * (pycodegen.TIER_UP_CALLS + 2)
    packet = FakePacket(size=10)
    enclave.process_packet(packet, _msg_cls(0), now_ns=1)
    assert packet.priority == 0
    entry = fn.message_store._entries[("m", 0)]
    assert entry.values["total"] == total + 10
    fn.commit_packet_writes = True
    enclave.process_packet(packet, _msg_cls(0), now_ns=1)
    assert packet.priority == 3
    assert entry.values["total"] == total + 20


def test_held_per_message_guard_raises_before_the_plan_runs():
    enclave = Enclave("batch.test")
    fn = enclave.install_function(count_message_bytes,
                                  message_schema=MSG_SCHEMA)
    enclave.install_rule("*", "count_message_bytes")
    executes = _heat(enclave, fn, _msg_cls(0))
    entry = fn.message_store._entries[("m", 0)]
    before = (dict(entry.values), entry.packets, fn.stats.invocations,
              enclave.packets_processed)
    fn.guard.acquire(("m", 0))
    try:
        with pytest.raises(ConcurrencyViolation):
            enclave.process_packet(FakePacket(), _msg_cls(0), now_ns=1)
        parked = enclave.process_batch([(FakePacket(), _msg_cls(0))],
                                       now_ns=1)
    finally:
        fn.guard.release(("m", 0))
    assert isinstance(parked[0].error, ConcurrencyViolation)
    assert (dict(entry.values), entry.packets, fn.stats.invocations,
            enclave.packets_processed) == before
    assert executes[0] == 0
    # The guard is free again: the plan runs the next packet.
    enclave.process_packet(FakePacket(size=1), _msg_cls(0), now_ns=1)
    assert entry.values["total"] == before[0]["total"] + 1
    assert executes[0] == 0


def test_generated_plan_allocates_no_snapshot_objects():
    """The hot tier is one pass: no ``ExecStats``/``ExecResult``, no
    field buffer, no commit dict — and no call back into the
    ``execute`` boundary or the message store."""
    enclave = Enclave("batch.test")
    fn = enclave.install_function(count_and_tag, name="f",
                                  message_schema=MSG_SCHEMA)
    enclave.install_rule("*", "f")
    _heat(enclave, fn, _msg_cls(0))
    source = pycodegen.plan_for(enclave.interpreter, fn).source
    for banned in ("ExecStats", "ExecResult", "_field_buf", "execute(",
                   "commit(", "dict(", "{"):
        assert banned not in source, banned
    # Only the written slots go back: ``size`` is read, never stored.
    assert "packet.priority = " in source
    assert "packet.size = " not in source
    assert "setattr" not in source


def test_field_names_reach_generated_source_only_as_constants():
    """A field name that is not a plain identifier (the DSL cannot
    produce one, a hand-built program can) is written back through
    ``setattr`` with the name as a string constant, never spliced in
    as code."""
    from repro.lang.bytecode import Assembler, FieldRef, Op, Program

    hostile = "x = 1\nimport os\n#"
    enclave = Enclave("batch.test", packet_schema=schema(
        "Pkt", Lifetime.PACKET,
        [Field(hostile, AccessLevel.READ_WRITE),
         Field("class", AccessLevel.READ_WRITE)]))
    fn = enclave.install_function("def f(packet):\n    pass\n",
                                  name="f")
    asm = Assembler("f", n_args=0)
    for slot in (0, 1):
        asm.emit(Op.GETF, slot)
        asm.emit(Op.CONST, 1)
        asm.emit(Op.ADD)
        asm.emit(Op.PUTF, slot)
    asm.emit(Op.CONST, 0)
    asm.emit(Op.RET)
    fn.program = Program(
        name="f", functions=(asm.finish(n_locals=0),),
        field_table=(FieldRef("packet", hostile, True),
                     FieldRef("packet", "class", True)),
        array_table=())
    fn._build_hot_path()
    enclave.install_rule("*", "f")

    class Packet:
        pass

    packet = Packet()
    setattr(packet, hostile, 0)
    setattr(packet, "class", 10)
    executes = _count_executes(fn)
    for _ in range(pycodegen.TIER_UP_CALLS + 4):
        assert enclave.process_packet(packet).executed == ["f"]
    assert executes[0] == pycodegen.TIER_UP_CALLS + 1
    assert getattr(packet, hostile) == pycodegen.TIER_UP_CALLS + 4
    assert getattr(packet, "class") == pycodegen.TIER_UP_CALLS + 14
    source = pycodegen.plan_for(enclave.interpreter, fn).source
    assert repr(hostile) in source
    assert "import os" not in source.replace(repr(hostile), "")
    assert "packet.class" not in source
