"""Edge cases for ``Enclave.process_batch``.

The batch path must be packet-for-packet equivalent to scalar
``process_packet`` — these tests pin the boundary conditions the
differential harness is unlikely to hit by chance: empty batches,
rule churn between batches (memo invalidation), message-scoped state
accumulated across a batch, and two functions drawing from the shared
RNG in one batch.  The generated per-packet plan's own tests live in
``test_plan.py``.
"""

import random

import pytest

from repro.core import Classification, Enclave, EnclaveError
from repro.telemetry import Telemetry

from test_plan import (MSG_SCHEMA, FakePacket, _msg_cls, _send,
                       count_message_bytes, set_priority_five, tag_low)
# The plan's tests live in test_plan.py, where the differential job
# runs them; imported here they keep their ids in this file until it
# goes.
from test_plan import (  # noqa: F401
    test_dry_run_under_a_plan_commits_message_state_only,
    test_field_names_reach_generated_source_only_as_constants,
    test_generated_plan_allocates_no_snapshot_objects,
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


def drop_packet(packet):
    packet.drop = 1


def divide_by_path(packet):
    packet.priority = 100 // packet.path_id


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


def _telemetry_run(use_batch, batches):
    """An enclave under an enabled ``Telemetry``: a two-hop chain, a
    drop, a fault, a message-state hop and a miss, the same packets
    through either entry point in ``batches`` batches.  Returns the
    enclave's instruments by name and the function stats."""
    telemetry = Telemetry()
    enclave = Enclave("batch.telemetry", telemetry=telemetry)
    enclave.create_table(1)
    enclave.install_function(set_priority_five)
    enclave.install_function(tag_low, name="tag_low")
    enclave.install_function(drop_packet)
    enclave.install_function(divide_by_path)
    enclave.install_function(count_message_bytes,
                             message_schema=MSG_SCHEMA)
    enclave.install_rule("app.r1.chain", "set_priority_five",
                         next_table=1)
    enclave.install_rule("*", "tag_low", table_id=1)
    enclave.install_rule("app.r1.drop", "drop_packet")
    enclave.install_rule("app.r1.fault", "divide_by_path")
    enclave.install_rule("app.r1.x", "count_message_bytes")
    classes = ("chain", "drop", "fault", "miss")
    pairs = [(FakePacket(), [Classification(f"app.r1.{name}", {})])
             for name in classes * 3] + \
        [(FakePacket(size=64 * i), _msg_cls(i % 2)) for i in range(4)]
    size = len(pairs) // batches
    for start in range(0, len(pairs), size):
        _send(enclave, pairs[start:start + size], use_batch, now_ns=1)
    registry = telemetry.registry
    names = ("enclave_packets_total", "enclave_drops_total",
             "enclave_faults_total", "enclave_lookups_total",
             "enclave_lookup_hits_total", "enclave_invocations_total")
    counts = {name: registry.counter(name, enclave=enclave.name).value
              for name in names}
    ops = registry.histogram("enclave_packet_ops", enclave=enclave.name)
    counts["enclave_packet_ops"] = (ops.count, ops.total)
    sizes = registry.histogram("enclave_batch_size", enclave=enclave.name)
    counts["enclave_batch_size"] = sizes.count
    return counts, {name: enclave.function(name).stats
                    for name in enclave.functions()}


def test_batch_counts_what_its_packets_count():
    """Under telemetry, ``process_batch`` of N packets and N
    ``process_packet`` calls leave equal packet, drop, lookup, hit,
    invocation and fault counters and an equal ``enclave_packet_ops``
    count and sum: a batch is the scalar step in a loop and counts
    nothing twice.  ``enclave_batch_size`` is observed once per
    batch, and never by the scalar calls."""
    scalar, scalar_stats = _telemetry_run(False, 1)
    assert scalar.pop("enclave_batch_size") == 0
    for batches in (1, 4):
        batched, batched_stats = _telemetry_run(True, batches)
        assert batched.pop("enclave_batch_size") == batches
        assert batched == scalar
        assert batched_stats == scalar_stats
    ops_count, ops_sum = scalar.pop("enclave_packet_ops")
    assert ops_count == 16 and ops_sum > 0
    assert scalar == {
        "enclave_packets_total": 16, "enclave_drops_total": 3,
        "enclave_faults_total": 3, "enclave_lookups_total": 19,
        "enclave_lookup_hits_total": 16,
        "enclave_invocations_total": 13}
