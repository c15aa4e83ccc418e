"""Edge cases across the core: replace-function compatibility,
expression statements with side effects, rule-set interplay."""

import pytest

from repro.core import Enclave, EnclaveError
from repro.core.stage import Classification
from repro.lang import (AccessLevel, DslError, Field, Lifetime,
                        schema)

MSG_SCHEMA = schema("Msg", Lifetime.MESSAGE, [
    Field("total", AccessLevel.READ_WRITE),
])


def add_one(packet, msg):
    msg.total = msg.total + 1


def uses_unknown_field(packet, msg):
    msg.nonexistent = 5


def helper_called_as_statement(packet, msg):
    def bump(amount):
        msg.total = msg.total + amount
        return amount

    bump(2)
    bump(3)
    packet.priority = 1


class FakePacket:
    def __init__(self, src_port=1000):
        self.src_ip, self.dst_ip = 1, 2
        self.src_port, self.dst_port, self.proto = src_port, 80, 6
        self.size = 1000
        self.priority = self.path_id = self.drop = 0
        self.to_controller = self.queue_id = self.charge = 0
        self.ecn = self.tenant = 0


class TestReplaceCompatibility:
    def test_replace_with_incompatible_schema_rejected(self):
        enclave = Enclave("e")
        enclave.install_function(add_one, message_schema=MSG_SCHEMA)
        with pytest.raises(DslError, match="no field"):
            enclave.replace_function("add_one", uses_unknown_field)
        # The original function is still installed and functional.
        enclave.install_rule("*", "add_one")
        packet = FakePacket()
        result = enclave.process_packet(packet)
        assert result.executed == ["add_one"]


class TestSideEffectStatements:
    def test_helper_calls_as_statements(self):
        enclave = Enclave("e")
        enclave.install_function(helper_called_as_statement,
                                 message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "helper_called_as_statement")
        cls = [Classification("a.r.m", {"msg_id": ("a", 1)})]
        packet = FakePacket()
        enclave.process_packet(packet, cls)
        store = enclave.function(
            "helper_called_as_statement").message_store
        assert store.lookup(("a", 1), 0)[0].values["total"] == 5
        assert packet.priority == 1

    def test_both_backends_agree_on_side_effects(self):
        totals = {}
        for backend in ("interpreter", "tree"):
            enclave = Enclave(f"e.{backend}")
            enclave.install_function(helper_called_as_statement,
                                     message_schema=MSG_SCHEMA,
                                     backend=backend)
            enclave.install_rule("*", "helper_called_as_statement")
            cls = [Classification("a.r.m", {"msg_id": ("a", 1)})]
            enclave.process_packet(FakePacket(), cls)
            store = enclave.function(
                "helper_called_as_statement").message_store
            totals[backend] = store.lookup(
                ("a", 1), 0)[0].values["total"]
        assert totals["interpreter"] == totals["tree"] == 5


class TestMultiClassPackets:
    """A message can belong to several classes (one per rule-set);
    the first matching table rule wins (by priority)."""

    def test_most_specific_rule_wins_by_priority(self):
        enclave = Enclave("e")
        enclave.install_function(add_one, message_schema=MSG_SCHEMA)

        def set_drop(packet):
            packet.drop = 1

        enclave.install_function(set_drop, name="set_drop")
        enclave.install_rule("app.r1.*", "add_one", priority=0)
        enclave.install_rule("app.r2.SENSITIVE", "set_drop",
                             priority=10)
        cls = [Classification("app.r1.GET", {"msg_id": ("a", 1)}),
               Classification("app.r2.SENSITIVE",
                              {"msg_id": ("a", 1)})]
        packet = FakePacket()
        result = enclave.process_packet(packet, cls)
        assert result.executed == ["set_drop"]
        assert result.drop

    def test_first_metadata_msg_id_wins(self):
        enclave = Enclave("e")
        enclave.install_function(add_one, message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "add_one")
        cls = [Classification("app.r1.GET", {"msg_id": ("a", 1)}),
               Classification("app.r2.DEFAULT",
                              {"msg_id": ("a", 2)})]
        enclave.process_packet(FakePacket(), cls)
        store = enclave.function("add_one").message_store
        assert ("a", 1) in store
        assert ("a", 2) not in store
