"""Tests for the Section 6 extensions: batching, dynamic updates,
function composition, and controller monitoring."""

import pytest

from repro.core import (ChainLink, CompositionError, Controller,
                        Enclave, FunctionChain)
from repro.core.stage import Classification
from repro.lang import AccessLevel, Field, FieldKind, Lifetime, schema

MSG_SCHEMA = schema("Msg", Lifetime.MESSAGE, [
    Field("total", AccessLevel.READ_WRITE),
])


def count_bytes(packet, msg):
    msg.total = msg.total + packet.size


def count_bytes_twice(packet, msg):
    msg.total = msg.total + 2 * packet.size


def set_priority_one(packet):
    packet.priority = 1


def set_priority_two(packet):
    packet.priority = 2


def set_queue_nine(packet):
    packet.queue_id = 9


def set_path_three(packet):
    packet.path_id = 3


class FakePacket:
    def __init__(self, src_port=1000, size=1500):
        self.src_ip, self.dst_ip = 1, 2
        self.src_port, self.dst_port, self.proto = src_port, 80, 6
        self.size = size
        self.priority = self.path_id = self.drop = 0
        self.to_controller = self.queue_id = self.charge = 0
        self.ecn = self.tenant = 0


class TestBatchProcessing:
    def test_batch_preserves_input_order(self):
        enclave = Enclave("e")
        enclave.install_function(set_priority_one)
        enclave.install_rule("*", "set_priority_one")
        batch = [(FakePacket(src_port=p), []) for p in (1, 2, 1, 3)]
        results = enclave.process_batch(batch)
        assert len(results) == 4
        assert all(r.executed == ["set_priority_one"]
                   for r in results)
        assert all(p.priority == 1 for p, _ in batch)

    def test_batch_splits_by_message(self):
        # Packets of the same message must be processed against a
        # consistent message state even when interleaved in a batch.
        enclave = Enclave("e")
        enclave.install_function(count_bytes,
                                 message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "count_bytes")
        cls_a = [Classification("x.r.m", {"msg_id": ("x", 1)})]
        cls_b = [Classification("x.r.m", {"msg_id": ("x", 2)})]
        batch = [(FakePacket(size=100), cls_a),
                 (FakePacket(size=200), cls_b),
                 (FakePacket(size=100), cls_a),
                 (FakePacket(size=200), cls_b)]
        enclave.process_batch(batch)
        store = enclave.function("count_bytes").message_store
        assert store.lookup(("x", 1), 0)[0].values["total"] == 200
        assert store.lookup(("x", 2), 0)[0].values["total"] == 400

    def test_batch_without_classifications_groups_by_flow(self):
        enclave = Enclave("e")
        enclave.install_function(count_bytes,
                                 message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "count_bytes")
        batch = [(FakePacket(src_port=1, size=10), []),
                 (FakePacket(src_port=2, size=20), []),
                 (FakePacket(src_port=1, size=10), [])]
        enclave.process_batch(batch)
        store = enclave.function("count_bytes").message_store
        assert len(store) == 2

    def test_empty_batch(self):
        enclave = Enclave("e")
        assert enclave.process_batch([]) == []


class TestDynamicUpdates:
    def test_replace_swaps_program(self):
        enclave = Enclave("e")
        enclave.install_function(set_priority_one, name="policy")
        enclave.install_rule("*", "policy")
        p1 = FakePacket()
        enclave.process_packet(p1)
        assert p1.priority == 1
        enclave.replace_function("policy", set_priority_two)
        p2 = FakePacket()
        enclave.process_packet(p2)
        assert p2.priority == 2

    def test_replace_preserves_rules(self):
        enclave = Enclave("e")
        enclave.install_function(set_priority_one, name="policy")
        rid = enclave.install_rule("*", "policy")
        enclave.replace_function("policy", set_priority_two)
        rules = enclave.query_rules(0)
        assert [r.rule_id for r in rules] == [rid]

    def test_replace_preserves_message_state(self):
        enclave = Enclave("e")
        enclave.install_function(count_bytes, name="counter",
                                 message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "counter")
        cls = [Classification("x.r.m", {"msg_id": ("x", 1)})]
        enclave.process_packet(FakePacket(size=100), cls)
        # Swap in an identical program; accumulated state survives.
        enclave.replace_function("counter", count_bytes)
        enclave.process_packet(FakePacket(size=100), cls)
        store = enclave.function("counter").message_store
        assert store.lookup(("x", 1), 0)[0].values["total"] == 200

    def test_replace_unknown_function_rejected(self):
        from repro.core import EnclaveError
        enclave = Enclave("e")
        with pytest.raises(EnclaveError):
            enclave.replace_function("ghost", set_priority_one)

    def test_controller_replace_fans_out(self):
        controller = Controller()
        for host in ("h1", "h2"):
            enclave = Enclave(host)
            controller.register_enclave(host, enclave)
            enclave.install_function(set_priority_one, name="policy")
            enclave.install_rule("*", "policy")
        controller.replace_function(["h1", "h2"], "policy",
                                    set_priority_two)
        for host in ("h1", "h2"):
            p = FakePacket()
            controller.enclave(host).process_packet(p)
            assert p.priority == 2


class TestFunctionChain:
    def make_controller(self):
        controller = Controller()
        controller.register_enclave("h1", Enclave("h1.enclave"))
        return controller

    def test_chain_executes_in_order(self):
        controller = self.make_controller()
        chain = FunctionChain(controller, [
            ChainLink(set_priority_one),
            ChainLink(set_queue_nine),
            ChainLink(set_path_three),
        ])
        tables = chain.deploy("h1")
        assert tables[0] == 0 and len(tables) == 3
        packet = FakePacket()
        result = controller.enclave("h1").process_packet(packet)
        assert result.executed == ["set_priority_one",
                                   "set_queue_nine",
                                   "set_path_three"]
        assert (packet.priority, packet.queue_id,
                packet.path_id) == (1, 9, 3)

    def test_conflicting_writes_rejected(self):
        controller = self.make_controller()
        with pytest.raises(CompositionError, match="priority"):
            FunctionChain(controller, [
                ChainLink(set_priority_one),
                ChainLink(set_priority_two),
            ])

    def test_empty_chain_rejected(self):
        with pytest.raises(CompositionError):
            FunctionChain(self.make_controller(), [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(CompositionError, match="duplicate"):
            FunctionChain(self.make_controller(), [
                ChainLink(set_priority_one, name="x"),
                ChainLink(set_queue_nine, name="x"),
            ])

    def test_pattern_miss_ends_walk(self):
        controller = self.make_controller()
        chain = FunctionChain(controller, [
            ChainLink(set_priority_one, pattern="app.r1.special"),
            ChainLink(set_queue_nine),
        ])
        chain.deploy("h1")
        plain = FakePacket()
        result = controller.enclave("h1").process_packet(plain)
        assert result.executed == []  # head pattern missed

        special = FakePacket()
        cls = [Classification("app.r1.special",
                              {"msg_id": ("a", 1)})]
        result = controller.enclave("h1").process_packet(special,
                                                         cls)
        assert result.executed == ["set_priority_one",
                                   "set_queue_nine"]


class TestMonitoring:
    def test_stats_summary(self):
        enclave = Enclave("e")
        enclave.install_function(count_bytes,
                                 message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "count_bytes")
        for i in range(3):
            enclave.process_packet(FakePacket(src_port=i))
        stats = enclave.stats_summary()["count_bytes"]
        assert stats["invocations"] == 3
        assert stats["messages_tracked"] == 3
        assert stats["ops_executed"] > 0

    def test_stats_summary_memo_moves_with_every_change(self):
        """One mapping per (generation, packets_processed), shared
        until either moves; an old one is never updated in place."""
        enclave = Enclave("e")
        flow = ("enclave", (1, 7, 2, 80, 6))
        seen = [enclave.stats_summary()]

        def moved():
            summary = enclave.stats_summary()
            assert enclave.stats_summary() is summary
            assert all(summary is not old for old in seen)
            seen.append(summary)
            return summary.get("count_bytes")

        assert seen[0] == {}
        assert enclave.stats_summary() is seen[0]
        enclave.install_function(count_bytes,
                                 message_schema=MSG_SCHEMA)
        assert moved()["invocations"] == 0
        enclave.install_rule("*", "count_bytes")
        assert enclave.stats_summary() is seen[-1]  # rules show nothing
        enclave.process_packet(FakePacket(src_port=7))
        assert moved()["invocations"] == 1
        assert seen[-2]["count_bytes"]["invocations"] == 0
        assert seen[-1]["count_bytes"]["messages_tracked"] == 1
        enclave.end_message("count_bytes", flow)
        assert moved()["messages_tracked"] == 0
        enclave.process_packet(FakePacket(src_port=7))
        assert moved()["messages_tracked"] == 1
        assert enclave.expire_idle_messages(now_ns=10 ** 12) == 1
        assert moved()["messages_tracked"] == 0
        enclave.replace_function("count_bytes", count_bytes_twice)
        assert moved()["invocations"] == 0
        enclave.install_function(set_priority_one, name="p")
        assert set(enclave.stats_summary()) == {"count_bytes", "p"}
        moved()
        enclave.remove_function("p")
        moved()
        assert set(seen[-1]) == {"count_bytes"}
        enclave.process_packet(FakePacket(src_port=7))
        assert moved()["invocations"] == 1
        enclave.clear()
        assert moved() is None and seen[-1] == {}

    def test_controller_collects_from_all_hosts(self):
        controller = Controller()
        for host in ("h1", "h2"):
            enclave = Enclave(host)
            controller.register_enclave(host, enclave)
            enclave.install_function(set_priority_one, name="p")
            enclave.install_rule("*", "p")
        controller.enclave("h1").process_packet(FakePacket())
        stats = controller.collect_stats()
        assert stats["h1"]["p"]["invocations"] == 1
        assert stats["h2"]["p"]["invocations"] == 0
