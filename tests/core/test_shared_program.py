"""One compiled artifact, many enclaves.

The control plane compiles an action once and every enclave binds that
artifact, so the ``Program`` — its generated body, compiled by the
first install, and the compiled plan — is shared, while each binding
keeps its own executor, plan instance, state and stats.  A restart,
replace or remove on one enclave leaves the others' code in place: it
lives in a slot on the program, as long as the program does.
"""

import pytest

from repro.core.enclave import Enclave
from repro.core.stage import Classification
from repro.lang import (AccessLevel, DEFAULT_PACKET_SCHEMA, Field,
                        Lifetime, pycodegen, schema)
from repro.lang.compiler import compile_action

N = 4

MSG_SCHEMA = schema("Msg", Lifetime.MESSAGE, [
    Field("total", AccessLevel.READ_WRITE),
])
COUNTER_SCHEMA = schema("Cnt", Lifetime.GLOBAL, [
    Field("counter", AccessLevel.READ_WRITE),
])


def account(packet, msg, _global):
    _global.counter = _global.counter + 1
    msg.total = msg.total + packet.size
    packet.priority = (msg.total // 1000) % 8


def tag_seven(packet, msg, _global):
    packet.priority = 7


class FakePacket:
    def __init__(self, size=1500):
        self.src_ip, self.dst_ip = 1, 2
        self.src_port, self.dst_port, self.proto = 1000, 80, 6
        self.size = size
        self.priority = self.path_id = self.drop = 0
        self.to_controller = self.queue_id = self.charge = 0
        self.ecn = self.tenant = 0


def _artifact():
    return compile_action(account, packet_schema=DEFAULT_PACKET_SCHEMA,
                          message_schema=MSG_SCHEMA,
                          global_schema=COUNTER_SCHEMA, name="account")


def _fleet(action, backend="interpreter"):
    enclaves = []
    for i in range(N):
        enclave = Enclave(f"e{i}")
        enclave.install_function(action, backend=backend)
        enclave.install_rule("*", "account")
        enclaves.append(enclave)
    return enclaves


def _cls(key):
    return [Classification("app.r1.x", {"msg_id": ("m", key)})]


def _rounds(enclaves, n):
    """``n`` rounds of one packet to each enclave, in turn."""
    for _ in range(n):
        for enclave in enclaves:
            enclave.process_packet(FakePacket(), _cls(0), now_ns=1)


def _is_hot(program):
    return isinstance(getattr(program, "_pycodegen", None),
                      pycodegen.CompiledProgram)


def _count_executes(fn):
    """Only the generic tier calls ``fn.execute``: a count that stays
    put means the plan ran the packets."""
    calls = [0]
    inner = fn.execute

    def counted(fields, arrays):
        calls[0] += 1
        return inner(fields, arrays)

    fn.execute = counted
    return calls


def test_the_fleet_heats_one_program():
    action = _artifact()
    before = pycodegen.stats()
    enclaves = _fleet(action)
    # The first install compiles the body; the others bind it.
    assert _is_hot(action.program)
    installed = pycodegen.stats()
    assert installed["programs_compiled"] == \
        before["programs_compiled"] + 1
    assert installed["plans_compiled"] == before["plans_compiled"]
    fns = [enclave.function("account") for enclave in enclaves]
    assert all(fn._plan is None for fn in fns)
    # Each binding's first packet builds its plan from the one
    # compiled plan code.
    _rounds(enclaves, 2)
    after = pycodegen.stats()
    assert after["programs_compiled"] == installed["programs_compiled"]
    assert after["plans_compiled"] == before["plans_compiled"] + 1
    assert all(fn._plan is not None for fn in fns)
    assert len({id(fn._plan) for fn in fns}) == N
    assert [e.query_global("account")["counter"] for e in enclaves] \
        == [2] * N


@pytest.mark.parametrize("op", ["restart", "replace", "remove"])
def test_one_binding_leaving_keeps_the_others_hot(op):
    action = _artifact()
    enclaves = _fleet(action)
    _rounds(enclaves, 2)
    first, others = enclaves[0], enclaves[1:]
    plans = [e.function("account")._plan for e in others]
    assert all(plan is not None for plan in plans)
    if op == "restart":
        first.clear()
    elif op == "replace":
        # The replacement's program is compiled at its install.
        first.replace_function("account", tag_seven)
    else:
        first.remove_rule(1)
        first.remove_function("account")
    assert _is_hot(action.program)
    compiled = pycodegen.stats()["programs_compiled"]
    executes = [_count_executes(e.function("account")) for e in others]
    _rounds(others, 2)
    assert all(e.function("account")._plan is plan
               for e, plan in zip(others, plans))
    assert executes == [[0]] * len(others)
    assert pycodegen.stats()["programs_compiled"] == compiled


@pytest.mark.parametrize("use_batch", (False, True))
def test_a_shared_fleet_equals_a_tree_fleet(use_batch):
    """Bindings sharing one program, against bindings pinned to the
    tree walk: the same results, packets, stats, message entries and
    global state, enclave by enclave."""
    shared_action = _artifact()
    shared = _fleet(shared_action)
    tree = _fleet(_artifact(), backend="tree")
    seen = {id(shared): [], id(tree): []}
    for round_ in range(8):
        for fleet in (shared, tree):
            for i, enclave in enumerate(fleet):
                pairs = [(FakePacket(size=100 * (round_ + i + j + 1)),
                          _cls(j % 2)) for j in range(3)]
                if use_batch:
                    results = enclave.process_batch(pairs, now_ns=round_)
                else:
                    results = [enclave.process_packet(p, c, now_ns=round_)
                               for p, c in pairs]
                seen[id(fleet)].append(
                    [(r, vars(p)) for r, (p, _) in zip(results, pairs)])
    assert _is_hot(shared_action.program)
    assert seen[id(shared)] == seen[id(tree)]
    for a, b in zip(shared, tree):
        fa, fb = a.function("account"), b.function("account")
        assert fa.stats == fb.stats
        assert a.query_global("account") == b.query_global("account")
        assert {k: e.values for k, e in fa.message_store._entries.items()} \
            == {k: e.values for k, e in fb.message_store._entries.items()}
