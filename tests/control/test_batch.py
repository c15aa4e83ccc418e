"""A config batch is applied whole or not at all.

:meth:`ControlPlane.batch` sends one host several ops as one
:class:`ConfigBatch`; the agent applies them in one event, and if the
enclave refuses op k — it fails verification, names an unknown
function, or writes an unknown global — undoes ops 0..k-1 and Nacks
with the error's class name and k.  Afterwards the enclave's
functions (the very bindings, with their programs, stats and message
state), tables, rules and globals, and the agent's applied epoch, are
what they were before the batch.
"""

import dataclasses

import pytest

from repro.control import (ConfigBatch, ControlError, InstallFunction,
                           STALE_EPOCH)
from repro.core import Controller, Enclave
from repro.lang import (AccessLevel, DEFAULT_PACKET_SCHEMA, Field,
                        FieldKind, Instr, Lifetime, Op, schema)
from repro.lang.compiler import compile_action

HOST = "h1"

LEVEL_SCHEMA = schema("Level", Lifetime.GLOBAL, [
    Field("level", AccessLevel.READ_ONLY, default=1),
    Field("weights", AccessLevel.READ_ONLY, FieldKind.ARRAY),
    Field("paths", AccessLevel.READ_ONLY, FieldKind.ARRAY),
])

SEEN_SCHEMA = schema("Seen", Lifetime.MESSAGE, [
    Field("seen", AccessLevel.READ_WRITE, default=0),
])


def level_fn(packet, msg, _global):
    msg.seen = msg.seen + 1
    packet.priority = _global.level


def level_fn_v2(packet, msg, _global):
    msg.seen = msg.seen + 2
    packet.priority = _global.level + 1


def extra_fn(packet):
    packet.queue_id = 4


def other_fn(packet):
    packet.path_id = 2


class Packet:
    def __init__(self, src_ip=1):
        self.src_ip, self.dst_ip = src_ip, 2
        self.src_port, self.dst_port, self.proto = 1000, 80, 6
        self.size = 100
        self.priority = self.path_id = self.drop = 0
        self.to_controller = self.queue_id = self.charge = 0
        self.ecn = self.tenant = 0


def rejected_action():
    """``other_fn``'s artifact with a body the verifier refuses."""
    action = compile_action(other_fn,
                            packet_schema=DEFAULT_PACKET_SCHEMA,
                            name="rejected_fn")
    entry = action.program.functions[0]
    program = dataclasses.replace(
        action.program, functions=(dataclasses.replace(
            entry, code=(Instr(Op.ADD), Instr(Op.RET))),))
    return dataclasses.replace(action, program=program)


@pytest.fixture
def controller():
    """One host running ``level_fn`` (globals set, two messages seen)
    chained from table 0 into ``extra_fn`` in table 1."""
    controller = Controller()
    controller.register_enclave(HOST, Enclave("h1.enclave"))
    plane = controller.plane
    plane.install_function(HOST, "level_fn", level_fn,
                           message_schema=SEEN_SCHEMA,
                           global_schema=LEVEL_SCHEMA)
    plane.install_function(HOST, "extra_fn", extra_fn)
    plane.install_rule(HOST, "*", "level_fn", next_table=1)
    plane.install_rule(HOST, "*", "extra_fn", table_id=1)
    plane.set_global(HOST, "level_fn", "level", 3)
    plane.set_global_array(HOST, "level_fn", "weights", (1, 2))
    plane.set_global_keyed(HOST, "level_fn", "paths", (1, 2), (5,))
    enclave = controller.enclave(HOST)
    for src_ip in (1, 1, 7):
        enclave.process_packet(Packet(src_ip))
    return controller


def state(controller):
    """Everything a refused batch must leave as it was."""
    enclave = controller.enclave(HOST)
    functions = {name: enclave.function(name)
                 for name in enclave.functions()}
    return {
        "functions": functions,
        "programs": {name: fn.program for name, fn in functions.items()},
        "stats": enclave.stats_summary(),
        "tables": {t: enclave.query_rules(t)
                   for t in enclave.query_tables()},
        "globals": {name: enclave.query_global(name)
                    for name, fn in functions.items()
                    if fn.global_store is not None},
        "messages": {name: (fn.message_store,
                            {key: dict(entry.values) for key, entry
                             in fn.message_store._entries.items()})
                     for name, fn in functions.items()
                     if fn.message_store is not None},
        "applied_epoch": controller.agent(HOST).applied_epoch,
    }


#: One wave's ops, each a plane call; between them they install a
#: function, re-install a present one, replace one, write every kind
#: of global, install a rule into two new tables, replace the rule
#: set and remove a function.
OPS = [
    lambda p: p.install_function(HOST, "other_fn", other_fn),
    lambda p: p.install_function(HOST, "level_fn", level_fn,
                                 message_schema=SEEN_SCHEMA,
                                 global_schema=LEVEL_SCHEMA),
    lambda p: p.replace_function(HOST, "level_fn", level_fn_v2),
    lambda p: p.set_global(HOST, "level_fn", "level", 9),
    lambda p: p.set_global_array(HOST, "level_fn", "weights", (7,)),
    lambda p: p.set_global_keyed(HOST, "level_fn", "paths", (1, 2),
                                 (6, 6)),
    lambda p: p.set_global_keyed(HOST, "level_fn", "paths", (3, 4),
                                 (8,)),
    lambda p: p.install_rule(HOST, "app.*", "other_fn", table_id=2,
                             next_table=3),
    lambda p: p.update_rules(HOST, [
        p.desired(HOST).rules[0], p.desired(HOST).rules[2]]),
    lambda p: p.remove_function(HOST, "extra_fn"),
]

#: A refused op, the reason the Nack carries.
REFUSED = [
    pytest.param(lambda p: p.install_function(HOST, "rejected_fn",
                                              rejected_action()),
                 "VerificationError", id="fails-verification"),
    pytest.param(lambda p: p.set_global(HOST, "ghost_fn", "level", 1),
                 "EnclaveError", id="unknown-function"),
    pytest.param(lambda p: p.install_rule(HOST, "*", "ghost_fn"),
                 "EnclaveError", id="rule-for-unknown-function"),
    pytest.param(lambda p: p.set_global(HOST, "level_fn", "ghost", 1),
                 "SchemaError", id="unknown-global"),
]


def send_batch(plane, ops):
    """``ops`` as one batch; the send and each op's message index."""
    starts = []
    with plane.batch(HOST) as batch:
        for op in ops:
            starts.append(len(batch.messages))
            op(plane)
    return batch, starts


@pytest.mark.parametrize("refused, reason", REFUSED)
@pytest.mark.parametrize("k", range(len(OPS) + 1))
def test_refused_op_leaves_the_enclave_as_it_was(controller, refused,
                                                 reason, k):
    plane = controller.plane
    before = state(controller)
    batch, starts = send_batch(plane, OPS[:k] + [refused] + OPS[k:])
    pending = batch.pending
    assert isinstance(pending.env.payload, ConfigBatch)
    assert pending.nacked
    assert pending.reason == reason
    assert pending.op_index == starts[k]
    assert type(pending.error).__name__ == reason
    assert state(controller) == before
    # The data path runs the old configuration.
    packet = Packet()
    assert controller.enclave(HOST).process_packet(packet).executed == \
        ["level_fn", "extra_fn"]
    assert (packet.priority, packet.queue_id) == (3, 4)


def test_batch_applies_whole_at_its_last_op_epoch(controller):
    plane = controller.plane
    agent = controller.agent(HOST)
    epoch = plane.desired(HOST).epoch
    batch, _starts = send_batch(plane, OPS)
    message = batch.pending.env.payload
    # One epoch per op, the batch at the last.
    assert [op.epoch for op in message.ops] == \
        list(range(epoch + 1, epoch + 1 + len(message.ops)))
    assert message.epoch == plane.desired(HOST).epoch == \
        agent.applied_epoch
    assert batch.pending.acked
    assert len(batch.pending.result) == len(message.ops)
    enclave = controller.enclave(HOST)
    assert enclave.functions() == ["level_fn", "other_fn"]
    assert enclave.query_global("level_fn")["level"] == 9
    packet = Packet()
    assert enclave.process_packet(packet).executed == ["level_fn"]
    assert packet.priority == 10
    # Every epoch below the batch's is stale, the ops' own included.
    stale = controller.plane.endpoint.send(
        plane.agent_addr(HOST),
        InstallFunction(host=HOST, epoch=message.ops[-1].epoch - 1,
                        name="zombie"))
    assert stale.nacked and stale.reason == STALE_EPOCH
    assert stale.op_index is None


def test_one_message_goes_bare(controller):
    plane = controller.plane
    with plane.batch(HOST) as batch:
        assert plane.set_global(HOST, "level_fn", "level", 5) is None
    assert type(batch.pending.env.payload).__name__ == "UpdateGlobals"
    assert batch.pending.acked


def test_a_refused_bare_message_is_undone_too(controller):
    """A bare ``UpdateRules`` refused midway (its second rule names an
    unknown function) leaves the first one's table change undone."""
    plane = controller.plane
    before = state(controller)
    rules = list(plane.desired(HOST).rules)
    bad = dataclasses.replace(rules[1], function="ghost_fn",
                              table_id=5)
    pending = plane.update_rules(HOST, [rules[0], bad])
    assert pending.nacked and pending.reason == "EnclaveError"
    assert pending.op_index == 0
    assert state(controller) == before


def test_a_batch_is_for_one_host_and_does_not_nest(controller):
    controller.register_enclave("h2", Enclave("h2.enclave"))
    plane = controller.plane
    with pytest.raises(ControlError, match="batch for 'h1' is open"):
        with plane.batch(HOST):
            plane.install_function("h2", "extra_fn", extra_fn)
    with pytest.raises(ControlError, match="'h1' is already open"):
        with plane.batch(HOST):
            with plane.batch(HOST):
                pass
