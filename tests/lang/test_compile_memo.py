"""One compile per action per process (``compiler.compile_shared``).

Every place that compiles DSL source — an enclave's install and
replace, the control plane's send — goes through one memo keyed by the
action (a function itself, source text by its text), the name, each
schema's content (binders by identity) and the compile options.  Equal requests get the *same* artifact, so its
``Program`` and the code pycodegen compiles into it are shared by
every enclave, plane and build in the process; ``compile_action``
stays a pure compile.
"""

import pytest

from repro.core import Controller, Enclave
from repro.experiments.fig9 import build_flow_scheduling
from repro.functions.pias import PIAS_FUNCTION_NAME
from repro.lang import (DEFAULT_PACKET_SCHEMA, AccessLevel, Field,
                        Lifetime, compiler, schema)
from repro.lang.compiler import compile_action, compile_shared

COUNTER_SCHEMA = schema("Cnt", Lifetime.GLOBAL, [
    Field("counter", AccessLevel.READ_WRITE),
])


def bump(packet, _global):
    _global.counter = _global.counter + 1
    packet.priority = 2


def read_level(packet, _global):
    packet.priority = _global.level


def _binder(level):
    """Binders from one factory: one qualified name, two behaviours."""
    def bind(packet, store):
        return level
    return bind


def _level_schema(binder):
    return schema("Level", Lifetime.GLOBAL, [
        Field("level", AccessLevel.READ_ONLY, binder=binder)])


class Packet:
    def __init__(self):
        self.src_ip, self.dst_ip = 1, 2
        self.src_port, self.dst_port, self.proto = 1000, 80, 6
        self.size = 100
        self.priority = self.path_id = self.drop = 0
        self.to_controller = self.queue_id = self.charge = 0
        self.ecn = self.tenant = 0


@pytest.fixture
def memo(monkeypatch):
    """A memo of the test's own, so entries earlier tests left do not
    hit; yields a function giving the counters' change since."""
    monkeypatch.setattr(compiler, "_MEMO", {})
    base = compiler.memo_stats()

    def delta():
        now = compiler.memo_stats()
        return {k: now[k] - base[k] for k in ("misses", "drops")}
    return delta


def test_equal_requests_share_one_artifact(memo):
    """Two enclaves, a control plane and a direct call: one compile,
    one artifact, one ``Program``."""
    enclaves = [Enclave(f"e{i}") for i in range(2)]
    fns = [e.install_function(bump, global_schema=COUNTER_SCHEMA)
           for e in enclaves]
    controller = Controller()
    controller.register_enclave("h1", Enclave("h1.e"))
    controller.install_function("h1", bump, global_schema=COUNTER_SCHEMA)
    shipped = controller.enclave("h1").function("bump").action
    direct = compile_shared(bump, DEFAULT_PACKET_SCHEMA,
                            global_schema=COUNTER_SCHEMA, name="bump")
    assert fns[0].action is fns[1].action is shipped is direct
    assert memo() == {"misses": 1, "drops": 0}
    # Each binding keeps its own state.
    enclaves[0].install_rule("*", "bump")
    enclaves[0].process_packet(Packet())
    assert [e.query_global("bump")["counter"] for e in enclaves] == [1, 0]


def test_two_builds_share_one_artifact(memo):
    """Two builds of the Fig 9 PIAS scenario in one process: the
    second compiles nothing, and every host of both runs one
    artifact."""
    builds = [build_flow_scheduling("pias", "eden", seed=seed,
                                    duration_ms=1)
              for seed in (1, 2)]
    actions = {build.controller.enclave(host).function(
        PIAS_FUNCTION_NAME).action
        for build in builds for host in build.controller.hosts()}
    assert len(actions) == 1
    assert memo()["misses"] == 1


def test_a_different_request_compiles_again(memo):
    base = compile_shared(bump, DEFAULT_PACKET_SCHEMA,
                          global_schema=COUNTER_SCHEMA, name="bump")
    others = [
        compile_shared(bump, DEFAULT_PACKET_SCHEMA,
                       global_schema=COUNTER_SCHEMA, name="other"),
        compile_shared(bump, DEFAULT_PACKET_SCHEMA,
                       global_schema=COUNTER_SCHEMA, name="bump",
                       optimize_tail_calls=False),
        compile_shared(bump, DEFAULT_PACKET_SCHEMA,
                       global_schema=COUNTER_SCHEMA, name="bump",
                       peephole=False),
        compile_shared(bump, DEFAULT_PACKET_SCHEMA,
                       global_schema=schema("Cnt", Lifetime.GLOBAL, [
                           Field("counter", AccessLevel.READ_WRITE,
                                 default=7)]), name="bump"),
    ]
    assert all(other is not base for other in others)
    assert memo()["misses"] == 1 + len(others)
    # An equal schema built anew hits: schemas key by content.
    again = compile_shared(bump, DEFAULT_PACKET_SCHEMA,
                           global_schema=schema("Cnt", Lifetime.GLOBAL, [
                               Field("counter", AccessLevel.READ_WRITE)]),
                           name="bump")
    assert again is base
    assert memo()["misses"] == 1 + len(others)


def test_source_text_keys_by_its_dedented_text(memo):
    """A function keys by itself (its source is read only on a miss);
    source text by its dedented text, so indentation does not split
    an entry."""
    text = "def f(packet):\n    packet.priority = 3\n"
    indented = "".join("    " + line for line in text.splitlines(True))
    a = compile_shared(text, DEFAULT_PACKET_SCHEMA)
    assert compile_shared(indented, DEFAULT_PACKET_SCHEMA) is a
    assert memo()["misses"] == 1


def test_binders_are_compared_by_identity(memo):
    """Two schemas whose ``_schema_text`` is equal — binders from one
    factory share a qualified name — get artifacts of their own, and
    each runs its own binder."""
    low, high = _level_schema(_binder(1)), _level_schema(_binder(6))
    assert compiler._schema_text(low) == compiler._schema_text(high)
    a = compile_shared(read_level, DEFAULT_PACKET_SCHEMA,
                       global_schema=low)
    b = compile_shared(read_level, DEFAULT_PACKET_SCHEMA,
                       global_schema=high)
    assert a is not b
    assert a.global_schema is low and b.global_schema is high
    assert memo()["misses"] == 2
    seen = []
    for action in (a, b):
        enclave = Enclave("binders")
        enclave.install_function(action)
        enclave.install_rule("*", "read_level")
        packet = Packet()
        enclave.process_packet(packet)
        seen.append(packet.priority)
    assert seen == [1, 6]


def test_the_oldest_entry_is_dropped_past_the_bound(memo, monkeypatch):
    monkeypatch.setattr(compiler, "MEMO_LIMIT", 3)
    sources = [f"def f{i}(packet):\n    packet.priority = {i}\n"
               for i in range(4)]
    first = [compile_shared(s, DEFAULT_PACKET_SCHEMA) for s in sources]
    assert memo() == {"misses": 4, "drops": 1}
    assert compiler.memo_stats()["size"] == 3
    # The newest three still hit; the oldest compiles anew, equal by
    # content, and drops the next oldest.
    assert compile_shared(sources[3], DEFAULT_PACKET_SCHEMA) is first[3]
    again = compile_shared(sources[0], DEFAULT_PACKET_SCHEMA)
    assert again is not first[0]
    assert again.digest == first[0].digest
    assert memo() == {"misses": 5, "drops": 2}


def test_compile_action_stays_a_pure_compile(memo):
    a = compile_action(bump, DEFAULT_PACKET_SCHEMA,
                       global_schema=COUNTER_SCHEMA)
    b = compile_action(bump, DEFAULT_PACKET_SCHEMA,
                       global_schema=COUNTER_SCHEMA)
    assert a is not b and a.program is not b.program
    assert a == b
    assert memo() == {"misses": 0, "drops": 0}
