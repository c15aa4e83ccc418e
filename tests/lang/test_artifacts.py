"""The southbound artifact: content addressing and the trust boundary.

``compile_action`` returns a :class:`CompiledAction` — bytecode,
schemas and options under one digest — and that artifact is what the
control plane ships.  The agent's enclave verifies it before binding:
one that ``verify`` rejects, whose tables claim more than its schemas
grant, or that was compiled for another packet schema is Nacked with
the enclave's error, and the enclave — functions, rules, stats, state —
and the agent's applied epoch stay as they were, even over a lossy
channel.
"""

import dataclasses

import pytest

from repro.control import ChannelConfig, FaultInjector
from repro.core import Controller, Enclave
from repro.lang import (AccessLevel, DEFAULT_PACKET_SCHEMA, Field,
                        FieldRef, FunctionCode, Instr, Lifetime, Op,
                        Program, VerificationError, schema)
from repro.lang.analysis import facts
from repro.lang.compiler import CompiledAction, compile_action
from repro.netsim.simulator import MS, Simulator

import program_gen as pg
from conftest import GLB_SCHEMA, MSG_SCHEMA, REJECTED_PROGRAMS

LEVEL_SCHEMA = schema("Lvl", Lifetime.GLOBAL, [
    Field("level", AccessLevel.READ_ONLY, default=1),
])

SOURCE = ("def f(packet, _global):\n"
          "    packet.priority = _global.level + 3\n")


def _compile(source=SOURCE, glb=LEVEL_SCHEMA, name="f", **options):
    return compile_action(source, packet_schema=DEFAULT_PACKET_SCHEMA,
                          global_schema=glb, name=name, **options)


class TestContentAddressing:
    def test_two_compiles_share_a_digest(self):
        a, b = _compile(), _compile()
        assert a.program is not b.program
        assert a.digest == b.digest
        assert a == b and hash(a) == hash(b)

    def test_the_digest_covers_what_an_enclave_would_run(self):
        variants = {
            "constant": _compile(SOURCE.replace("+ 3", "+ 4")),
            "access level": _compile(glb=schema("Lvl", Lifetime.GLOBAL, [
                Field("level", AccessLevel.READ_WRITE, default=1)])),
            "schema default": _compile(glb=schema(
                "Lvl", Lifetime.GLOBAL, [
                    Field("level", AccessLevel.READ_ONLY, default=2)])),
            "name": _compile(name="g"),
            "option": _compile(optimize_tail_calls=False),
        }
        digests = {what: a.digest for what, a in variants.items()}
        assert _compile().digest not in digests.values()
        assert len(set(digests.values())) == len(digests)

    def test_unpacks_as_ast_and_program(self):
        action = _compile()
        prog_ast, program = action
        assert program is action.program
        assert prog_ast is action.prog_ast
        assert action.name == program.name == "f"


# -- the trust boundary --------------------------------------------------

FAST = ChannelConfig(rto_ns=1 * MS, backoff_cap_ns=8 * MS,
                     jitter_ns=100_000)


def good_fn(packet, _global):
    packet.priority = _global.level


class Rig:
    """One host running ``good_fn`` behind a lossy control channel."""

    def __init__(self, seed):
        self.sim = Simulator(seed=seed)
        faults = FaultInjector(rng=self.sim.rng, drop_prob=0.3,
                               dup_prob=0.1, scheduler=self.sim)
        self.controller = Controller(transport="sim", sim=self.sim,
                                     faults=faults, channel_config=FAST)
        self.enclave = Enclave("h1.enclave", clock=self.sim.clock,
                               rng=self.sim.rng)
        self.controller.register_enclave("h1", self.enclave)
        self.agent = self.controller.agent("h1")
        self.await_all([
            *self.controller.install_function(
                "h1", good_fn, global_schema=LEVEL_SCHEMA),
            *self.controller.install_rule("h1", "*", "good_fn"),
            *self.controller.set_global("h1", "good_fn", "level", 4)])
        for _ in range(3):
            self.enclave.process_packet(Packet())

    def await_all(self, pendings):
        while not all(p.done for p in pendings):
            self.sim.run(until_ns=self.sim.now + 5 * MS)
        return pendings

    def state(self):
        enclave = self.enclave
        return (enclave.functions(),
                [(t, [(r.pattern, r.function, r.next_table)
                      for r in enclave.query_rules(t)])
                 for t in enclave.query_tables()],
                enclave.stats_summary(),
                enclave.query_global("good_fn"),
                self.agent.applied_epoch, self.agent.applied_ops)

    def ship(self, action, name="rogue"):
        """Install ``action`` through the plane; the Nack it earns."""
        (pending,) = self.await_all([
            self.controller.plane.install_function("h1", name, action)])
        return pending


class Packet:
    src_ip = dst_ip = src_port = dst_port = proto = 1
    size = 100
    priority = path_id = drop = to_controller = queue_id = 0
    charge = ecn = tenant = 0


def _assert_refused(rig, action, error, name="rogue"):
    before = rig.state()
    pending = rig.ship(action, name)
    assert pending.nacked, pending.reason
    assert isinstance(pending.error, error)
    assert pending.reason == error.__name__
    assert rig.state() == before
    packet = Packet()
    assert rig.enclave.process_packet(packet).executed == ["good_fn"]
    assert packet.priority == 4


@pytest.mark.parametrize("build, reason", REJECTED_PROGRAMS)
def test_rejected_bytecode_is_nacked_and_changes_nothing(build, reason):
    rig = Rig(seed=len(reason))
    action = CompiledAction(build(), DEFAULT_PACKET_SCHEMA, None,
                            GLB_SCHEMA)
    _assert_refused(rig, action, VerificationError)
    # Installed under a present name, it is a replace: refused alike.
    _assert_refused(rig, CompiledAction(
        build(), DEFAULT_PACKET_SCHEMA, None, LEVEL_SCHEMA),
        VerificationError, name="good_fn")


class _Sly(str):
    """Equal to, and hashing like, the name it wraps."""

    def __repr__(self):
        return "print('INJECTED') or 'level'"


def test_a_table_name_that_writes_its_own_source_is_refused(capsys):
    """A schema-valid artifact whose global field is named by a ``str``
    subclass with its own ``__repr__``: a hot function's plan would
    splice that repr into its source.  The enclave refuses it."""
    program = _compile().program
    table = tuple(dataclasses.replace(ref, name=_Sly(ref.name))
                  if ref.scope == "global" else ref
                  for ref in program.field_table)
    rogue = CompiledAction(
        dataclasses.replace(program, field_table=table),
        DEFAULT_PACKET_SCHEMA, None, LEVEL_SCHEMA)
    enclave = Enclave("e")
    with pytest.raises(VerificationError,
                       match="name must be of type str, not _Sly"):
        enclave.install_function(rogue, name="f")
    assert enclave.functions() == []
    assert "INJECTED" not in capsys.readouterr().out


def _rejected_mutants(count):
    found = []
    for seed in range(40):
        program = compile_action(
            pg.generate_program(seed), packet_schema=DEFAULT_PACKET_SCHEMA,
            message_schema=MSG_SCHEMA, global_schema=GLB_SCHEMA).program
        for k in range(5):
            mutant = pg.mutate(program, seed * 1009 + k)
            if facts(mutant).violation is not None:
                found.append(mutant)
                break
        if len(found) == count:
            return found
    raise AssertionError("too few rejected mutants")


@pytest.mark.parametrize("index", range(4))
def test_rejected_mutant_is_nacked_and_changes_nothing(index):
    mutant = _rejected_mutants(4)[index]
    _assert_refused(Rig(seed=100 + index), CompiledAction(
        mutant, DEFAULT_PACKET_SCHEMA, MSG_SCHEMA, GLB_SCHEMA),
        VerificationError)


def _write_size():
    """Bytecode writing ``packet.size``, which the canonical schema
    declares read-only — the table entry claims it writable."""
    return Program("liar", (FunctionCode("f", 0, 1, (
        Instr(Op.CONST, 1), Instr(Op.PUTF, 0),
        Instr(Op.CONST, 0), Instr(Op.RET))),),
        (FieldRef("packet", "size", True),), ())


def test_tables_claiming_more_than_the_schemas_are_nacked():
    action = CompiledAction(_write_size(), DEFAULT_PACKET_SCHEMA)
    _assert_refused(Rig(seed=5), action, VerificationError)
    missing = CompiledAction(Program("ghost", (FunctionCode("f", 0, 1, (
        Instr(Op.GETF, 0), Instr(Op.RET))),),
        (FieldRef("global", "nothing", False),), ()),
        DEFAULT_PACKET_SCHEMA)
    _assert_refused(Rig(seed=6), missing, VerificationError)


def test_another_packet_schema_is_nacked():
    other = schema("OtherPacket", Lifetime.PACKET,
                   [Field("priority", AccessLevel.READ_WRITE)])
    action = compile_action("def f(packet):\n    packet.priority = 1\n",
                            packet_schema=other, name="f")
    from repro.core import EnclaveError
    _assert_refused(Rig(seed=7), action, EnclaveError)


def test_program_without_functions_is_rejected():
    action = CompiledAction(Program("empty", (), (), ()),
                            DEFAULT_PACKET_SCHEMA)
    _assert_refused(Rig(seed=8), action, VerificationError)
