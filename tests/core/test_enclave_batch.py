"""Edge cases for ``Enclave.process_batch``.

The batch path must be packet-for-packet equivalent to scalar
``process_packet`` — these tests pin the boundary conditions the
differential harness is unlikely to hit by chance: empty batches,
rule churn between batches (memo invalidation), a ConcurrencyViolation
striking part of a batch (the rest keeps processing) or the second hop
of a table chain, message-scoped state accumulated across a batch,
and two functions drawing from the shared RNG in one batch.  The
generated per-packet plan's own tests live in ``test_plan.py``.
"""

import random

import pytest

from repro.core import (Classification, ConcurrencyViolation, Enclave,
                        EnclaveError)

from test_plan import (COUNTER_SCHEMA, MSG_SCHEMA, FakePacket, _msg_cls,
                       _send, bump_counter, count_message_bytes,
                       set_priority_five, tag_low)
# The plan's tests live in test_plan.py, where the differential job
# runs them; imported here they keep their ids in this file until it
# goes.
from test_plan import (  # noqa: F401
    test_dry_run_under_a_plan_commits_message_state_only,
    test_field_names_reach_generated_source_only_as_constants,
    test_generated_plan_allocates_no_snapshot_objects,
    test_held_per_message_guard_raises_before_the_plan_runs,
    test_lowered_op_budget_faults_on_both_entry_points,
    test_plan_follows_a_swapped_rng_and_clock,
    test_plan_reads_limits_live_and_faults_like_the_generic_tier,
    test_replace_function_on_a_hot_function)

pytestmark = pytest.mark.batch


# Module-level actions so their source survives quotation.

def rand_priority(packet):
    packet.priority = rand(1000)


def rand_path(packet):
    packet.path_id = rand(1000)


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
