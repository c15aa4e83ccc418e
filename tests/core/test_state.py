"""Tests for enclave state management and the concurrency model."""

import pytest

from repro.core import (ConcurrencyLevel, GlobalStore, MessageStore,
                        StateError)
from repro.lang import (AccessLevel, DEFAULT_PACKET_SCHEMA, Field,
                        FieldKind, Lifetime, compile_ast, lower, schema)
from repro.lang.analysis import facts

GLB = schema("G", Lifetime.GLOBAL, [
    Field("knob", AccessLevel.READ_WRITE, default=7),
    Field("weights", AccessLevel.READ_ONLY, FieldKind.ARRAY),
    Field("recs", AccessLevel.READ_ONLY, FieldKind.RECORD_ARRAY,
          record_fields=("a", "b")),
])

MSG = schema("M", Lifetime.MESSAGE, [
    Field("size", AccessLevel.READ_WRITE),
    Field("priority", AccessLevel.READ_ONLY, default=7),
])


class TestGlobalStore:
    def test_scalar_defaults(self):
        store = GlobalStore(GLB)
        assert store.scalar("knob") == 7

    def test_set_scalar(self):
        store = GlobalStore(GLB)
        store.set_scalar("knob", 99)
        assert store.scalar("knob") == 99

    def test_set_scalar_on_array_rejected(self):
        store = GlobalStore(GLB)
        with pytest.raises(StateError, match="set_array"):
            store.set_scalar("weights", 1)

    def test_set_array(self):
        store = GlobalStore(GLB)
        store.set_array("weights", [1, 2, 3])
        assert store.array("weights") == [1, 2, 3]

    def test_set_array_on_scalar_rejected(self):
        store = GlobalStore(GLB)
        with pytest.raises(StateError, match="set_scalar"):
            store.set_array("knob", [1])

    def test_set_records(self):
        store = GlobalStore(GLB)
        store.set_records("recs", [(1, 2), (3, 4)])
        assert store.array("recs") == [1, 2, 3, 4]

    def test_set_records_wrong_arity_rejected(self):
        store = GlobalStore(GLB)
        with pytest.raises(StateError, match="members"):
            store.set_records("recs", [(1, 2, 3)])

    def test_record_stride_validated_on_set_array(self):
        store = GlobalStore(GLB)
        with pytest.raises(StateError, match="stride"):
            store.set_array("recs", [1, 2, 3])

    def test_keyed_arrays(self):
        store = GlobalStore(GLB)
        store.set_keyed_array("weights", (10, 20), [5, 6])
        assert store.keyed_array("weights", (10, 20)) == [5, 6]
        assert store.keyed_array("weights", (1, 1)) == []

    def test_snapshot_is_a_copy(self):
        store = GlobalStore(GLB)
        store.set_array("weights", [1])
        snap = store.snapshot()
        snap["weights"].append(99)
        assert store.array("weights") == [1]

    def test_snapshot_includes_keyed_arrays(self):
        store = GlobalStore(GLB)
        store.set_keyed_array("weights", (1, 2), [1, 900, 2, 100])
        store.set_keyed_array("weights", (3, 4), [7])
        snap = store.snapshot()
        assert snap["weights"] == {(1, 2): [1, 900, 2, 100], (3, 4): [7]}
        snap["weights"][(3, 4)].append(99)
        assert store.keyed_array("weights", (3, 4)) == [7]

    def test_commit_wraps_values(self):
        store = GlobalStore(GLB)
        store.commit_scalar("knob", 1 << 64)
        assert store.scalar("knob") == 0

    def test_handed_out_arrays_refuse_in_place_change(self):
        """What a reader holds is what the store holds until the next
        store write: no reader can change it under the store."""
        store = GlobalStore(GLB)
        store.set_array("weights", [1, 2, 3])
        store.set_keyed_array("weights", (1, 2), [4])
        held = [store.array("weights"), store.array("recs"),
                store.keyed_array("weights", (1, 2)),
                store.keyed_array("weights", (9, 9))]
        for arr in held:
            for mutate in (lambda a: a.append(1),
                           lambda a: a.__setitem__(slice(None), [7]),
                           lambda a: a.extend([1]), lambda a: a.clear()):
                with pytest.raises(TypeError):
                    mutate(arr)
        assert held == [[1, 2, 3], [], [4], []]
        assert store.keyed_array("weights", (9, 9)) == []
        store.commit_array("weights", [5])
        with pytest.raises(TypeError):
            store.array("weights").insert(0, 1)
        assert held[0] == [1, 2, 3] and store.array("weights") == [5]

    def test_heap_image_lasts_until_an_array_write(self):
        store = GlobalStore(GLB)
        store.set_array("weights", [1, -2])
        store.set_records("recs", [(3, 4)])
        names = ("recs", "weights")
        image = store.heap_image(names)
        assert image == ([3, 4, 1, -2], (0, 2), (2, 2))
        assert store.heap_image(names) is image
        store.set_scalar("knob", 5)
        store.commit_scalar("knob", 6)
        assert store.heap_image(names) is image
        writes = [
            lambda: store.set_array("weights", [1 << 63]),
            lambda: store.set_records("recs", []),
            lambda: store.set_keyed_array("weights", (1,), [9]),
            lambda: store.commit_array("weights", [8, 9, 10]),
        ]
        for write in writes:
            write()
            fresh = store.heap_image(names)
            assert fresh is not image
            image = fresh
        assert image == ([8, 9, 10], (0, 0), (0, 3))
        assert store.heap_image(("weights",)) == ([8, 9, 10], (0,), (3,))


class TestMessageStore:
    def test_lookup_creates_with_defaults(self):
        store = MessageStore(MSG)
        entry, is_new = store.lookup("m1", now_ns=0)
        assert is_new
        assert entry.values == {"size": 0, "priority": 7}

    def test_metadata_seeds_matching_fields(self):
        store = MessageStore(MSG)
        entry, _ = store.lookup("m1", 0, {"priority": 2, "junk": 9})
        assert entry.values["priority"] == 2
        assert "junk" not in entry.values

    def test_metadata_ignored_on_existing_entry(self):
        store = MessageStore(MSG)
        store.lookup("m1", 0, {"priority": 2})
        entry, is_new = store.lookup("m1", 1, {"priority": 5})
        assert not is_new
        assert entry.values["priority"] == 2

    def test_commit_updates(self):
        store = MessageStore(MSG)
        store.lookup("m1", 0)
        store.commit("m1", {"size": 123})
        entry, _ = store.lookup("m1", 1)
        assert entry.values["size"] == 123

    def test_commit_unknown_key_rejected(self):
        store = MessageStore(MSG)
        with pytest.raises(StateError):
            store.commit("nope", {"size": 1})

    def test_end_message(self):
        store = MessageStore(MSG)
        store.lookup("m1", 0)
        store.end_message("m1")
        assert "m1" not in store
        assert store.expired_total == 1

    def test_end_message_idempotent(self):
        store = MessageStore(MSG)
        store.end_message("ghost")
        assert store.expired_total == 0

    def test_idle_expiry(self):
        store = MessageStore(MSG, idle_timeout_ns=100)
        store.lookup("old", 0)
        store.lookup("fresh", 950)
        dropped = store.expire_idle(now_ns=1000)
        assert dropped == 1
        assert "old" not in store and "fresh" in store

    def test_packet_counting(self):
        store = MessageStore(MSG)
        store.lookup("m1", 0)
        entry, _ = store.lookup("m1", 1)
        assert entry.packets == 2
        assert store.created_total == 1


# -- concurrency derivation ------------------------------------------------

def _conc(src):
    """The level the enclave enforces: read off the bytecode."""
    prog = lower(src, packet_schema=DEFAULT_PACKET_SCHEMA,
                 message_schema=MSG, global_schema=schema(
                     "G2", Lifetime.GLOBAL, [
                         Field("knob", AccessLevel.READ_WRITE),
                         Field("buckets", AccessLevel.READ_WRITE,
                               FieldKind.ARRAY)]))
    return facts(compile_ast(prog)).concurrency


class TestConcurrencyModel:
    def test_packet_only_writes_are_parallel(self):
        assert _conc("def f(packet):\n"
                     "    packet.priority = 1\n") is \
            ConcurrencyLevel.PARALLEL

    def test_message_reads_are_parallel(self):
        assert _conc("def f(packet, msg):\n"
                     "    packet.priority = msg.priority\n") is \
            ConcurrencyLevel.PARALLEL

    def test_message_writes_serialize_per_message(self):
        # Figure 7: "the function can update the message size and,
        # hence, we will process at most one packet per message
        # concurrently."
        assert _conc("def f(packet, msg):\n"
                     "    msg.size = msg.size + packet.size\n") is \
            ConcurrencyLevel.PER_MESSAGE

    def test_global_scalar_writes_serialize(self):
        assert _conc("def f(packet, _global):\n"
                     "    _global.knob = 1\n") is \
            ConcurrencyLevel.SERIAL

    def test_global_array_writes_serialize(self):
        assert _conc("def f(packet, _global):\n"
                     "    _global.buckets[0] = 1\n") is \
            ConcurrencyLevel.SERIAL

    def test_global_write_dominates_message_write(self):
        assert _conc("def f(packet, msg, _global):\n"
                     "    msg.size = 1\n"
                     "    _global.knob = 2\n") is \
            ConcurrencyLevel.SERIAL

    def test_writes_in_nested_functions_count(self):
        assert _conc("def f(packet, msg):\n"
                     "    def bump():\n"
                     "        msg.size = msg.size + 1\n"
                     "        return 0\n"
                     "    x = bump()\n") is \
            ConcurrencyLevel.PER_MESSAGE
