"""The one bytecode analysis (``repro.lang.analysis.facts``).

The enclave reports the concurrency level the *bytecode* implies
(Section 3.4.4) — a hand-assembled program gets the level of what it
actually writes; ``test_commutation.py`` checks what the level
claims.  :func:`concurrency_of` below is the same derivation
from the typed AST; it lives here, as the oracle: over every program
the repo can compile the two agree, except where the peephole
optimizer deleted a write, and then the bytecode level is the lower.

The facts are computed once per ``Program`` and cached on it: the
whole verify -> compile -> plan-build sequence of an install and its
first packet analyses a program exactly once.  Their resource bounds
are pinned here for a few Table-1 programs and for a cyclic call
graph, which proves only its deepest frame (their soundness is
``TestBounds`` in the differential harness).  So are the per-slot
effects — read, may-write and must-write sets and the slots a tier
loads — for hand-written shapes and every Table-1 program (their
soundness is ``TestEffects`` there).
"""

import glob
import os

import pytest

from repro.core.enclave import Enclave
from repro.core.stage import Classification
from repro.functions.library import table1
from repro.lang import (DEFAULT_PACKET_SCHEMA, ast_nodes as T,
                        compile_action, compile_ast, pycodegen, verify)
from repro.lang import analysis
from repro.lang.analysis import ConcurrencyLevel, facts
from repro.lang.bytecode import FieldRef, FunctionCode, Instr, Op, Program

import program_gen as pg
from conftest import GLB_SCHEMA, MSG_SCHEMA

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
#: Seeds per generator profile of the concurrency sweep.
SWEEP_SEEDS = range(120)

_ORDER = (ConcurrencyLevel.PARALLEL, ConcurrencyLevel.PER_MESSAGE,
          ConcurrencyLevel.SERIAL)


def concurrency_of(prog_ast):
    """The AST oracle: the level a program's write statements imply."""
    scopes = {stmt.scope
              for fn in prog_ast.functions
              for stmt in T.walk_stmts(fn.body)
              if isinstance(stmt, (T.AssignState, T.AssignArray))}
    if "global" in scopes:
        return ConcurrencyLevel.SERIAL
    if "message" in scopes:
        return ConcurrencyLevel.PER_MESSAGE
    return ConcurrencyLevel.PARALLEL


def _assert_levels_agree(prog_ast, raw, opt, label):
    """Both compilations verify; unoptimized bytecode has the AST's
    level; optimized bytecode has it too unless the optimizer removed
    a write, and never a higher one."""
    verify(raw)
    verify(opt)
    want = concurrency_of(prog_ast)
    assert facts(raw).concurrency is want, label
    got = facts(opt).concurrency
    assert _ORDER.index(got) <= _ORDER.index(want), label
    if got is not want:
        kept = (facts(opt).effects.written, facts(opt).uses(Op.HSTORE))
        assert kept != (facts(raw).effects.written,
                        facts(raw).uses(Op.HSTORE)), \
            f"{label}: level fell without a write removed"


class TestConcurrencyFromBytecode:
    @pytest.mark.parametrize("profile", pg.PROFILES)
    def test_generated_programs(self, profile):
        for seed in SWEEP_SEEDS:
            prog_ast = pg.lower_source(
                pg.generate_program(seed, profile=profile))
            _assert_levels_agree(prog_ast,
                                 compile_ast(prog_ast, peephole=False),
                                 compile_ast(prog_ast),
                                 f"{profile}{seed}")

    def test_corpus_programs(self):
        paths = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.py")))
        assert paths
        for path in paths:
            with open(path) as fh:
                prog_ast = pg.lower_source(fh.read())
            _assert_levels_agree(prog_ast,
                                 compile_ast(prog_ast, peephole=False),
                                 compile_ast(prog_ast), path)

    def test_table1_demos(self):
        demos = [e for e in table1() if e.demo is not None]
        assert len(demos) == 14
        for entry in demos:
            spec = entry.demo
            compiled = [compile_action(
                spec.action, packet_schema=DEFAULT_PACKET_SCHEMA,
                message_schema=spec.message_schema,
                global_schema=spec.global_schema,
                name=spec.function_name, peephole=peephole)
                for peephole in (False, True)]
            prog_ast = compiled[0].prog_ast
            _assert_levels_agree(prog_ast, compiled[0].program,
                                 compiled[1].program, entry.name)
            # The demos agree exactly: no write of theirs is dead.
            assert facts(compiled[1].program).concurrency is \
                concurrency_of(prog_ast), entry.name


DEAD_MESSAGE_WRITE = (
    "def f(packet, msg):\n"
    "    if 1 == 2:\n"
    "        msg.counter = 1\n"
    "    packet.priority = 3\n"
)


def test_a_write_the_optimizer_removed_does_not_serialize():
    """The AST says PER_MESSAGE; the bytecode has no message PUTF, so
    the enclave runs the function PARALLEL and, through either entry
    point, writes no message state back."""
    prog_ast = pg.lower_source(DEAD_MESSAGE_WRITE)
    assert concurrency_of(prog_ast) is ConcurrencyLevel.PER_MESSAGE
    program = compile_ast(prog_ast)
    assert {program.field_table[i].scope
            for i in facts(program).effects.written} == {"packet"}

    for use_batch in (False, True):
        enclave = Enclave("analysis.test")
        fn = enclave.install_function(DEAD_MESSAGE_WRITE, name="f",
                                      message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "f")
        assert fn.concurrency is ConcurrencyLevel.PARALLEL
        assert fn.message_writes == []

        class Packet:
            priority = 0

        cls = [Classification("app.r1.m", {"msg_id": ("m", 0)})]
        packets = [Packet() for _ in range(4)]
        if use_batch:
            enclave.process_batch([(p, cls) for p in packets])
        else:
            for p in packets:
                enclave.process_packet(p, cls)
        assert pycodegen.plan_for(enclave.interpreter, fn) is not None
        assert [p.priority for p in packets] == [3] * len(packets)
        entry = fn.message_store._entries[("m", 0)]
        assert entry.values == {"counter": 0, "limit": 5}


def test_facts_are_cached_on_the_program_and_survive_tier_up():
    program = compile_ast(pg.lower_source(pg.generate_program(3)))
    found = facts(program)
    assert facts(program) is found
    assert pycodegen.code_for(program) is not None
    assert facts(program) is found


def test_install_tier_up_and_plan_build_analyse_once(monkeypatch):
    calls = []
    real = analysis._analyse

    def counted(program):
        calls.append(program.name)
        return real(program)

    monkeypatch.setattr(analysis, "_analyse", counted)
    # An artifact of its own: one compiled from source may already sit
    # analysed in the compile memo.
    action = compile_action(pg.generate_program(5),
                            packet_schema=DEFAULT_PACKET_SCHEMA,
                            message_schema=MSG_SCHEMA,
                            global_schema=GLB_SCHEMA, name="f")
    compiled = pycodegen.stats()["programs_compiled"]
    enclave = Enclave("analysis.test")
    fn = enclave.install_function(action)
    enclave.set_global_array("f", "weights", list(range(8)))
    enclave.set_global_array("f", "scratch", [0] * 8)
    enclave.install_rule("*", "f")
    # The install verifies and compiles the program.
    assert calls == ["f"]
    assert pycodegen.stats()["programs_compiled"] == compiled + 1

    class Packet:
        size = priority = queue_id = 0

    # The first packet builds the plan, and every packet runs on it,
    # not on the generic tier's ``execute``.
    executes = []
    fn.execute = lambda *args: executes.append(args)
    for _ in range(3):
        enclave.process_packet(Packet())
    assert executes == []
    assert calls == ["f"]


# -- resource bounds ----------------------------------------------------

def _demo_bounds(name):
    entry = next(e for e in table1()
                 if e.demo is not None and e.demo.function_name == name)
    spec = entry.demo
    return facts(compile_action(
        spec.action, packet_schema=DEFAULT_PACKET_SCHEMA,
        message_schema=spec.message_schema,
        global_schema=spec.global_schema, name=name).program).bounds


@pytest.mark.parametrize("name,stack,calls", [
    ("pias", 4, 2),                          # the search loop, called
    ("wcmp", 4, 1),                          # two loops over one array
    ("pulsar", 2, 1),                        # loop-free
    ("centralized_cc", 1, 1),
])
def test_table1_bounds(name, stack, calls):
    bounds = _demo_bounds(name)
    assert (bounds.stack, bounds.calls) == (stack, calls)


def test_a_recursive_program_is_bounded_by_its_frame():
    """A cyclic call graph proves no stack or call chain, only its
    deepest frame: with no op budget its runs stay on generated code,
    whose CALLs fault where the call-depth limit says."""
    program = Program("loop", (
        FunctionCode("f", 0, 0, (Instr(Op.CALL, 1), Instr(Op.RET))),
        FunctionCode("g", 0, 0, (Instr(Op.CALL, 1), Instr(Op.RET)))),
        (), ())
    verify(program)
    assert facts(program).bounds == analysis.Bounds(frame=1)
    tree = pg.run_interp(program, [], [], "tree", op_budget=None)
    with pg.tree_walks() as walks:
        generated = pg.run_interp(program, [], [], "pycodegen",
                                  op_budget=None)
    assert walks == [0]
    assert tree == generated == (
        "fault", "InterpreterFault", "call depth exceeds 64")


# -- per-slot effects ---------------------------------------------------

def _effects_by_name(program):
    """``(read, may_write, must_write, loads)`` of ``program`` as sets
    of ``"scope.name"``."""
    effects = facts(program).effects
    table = program.field_table

    def named(slots):
        return {f"{table[i].scope}.{table[i].name}" for i in slots}

    sets = [set().union(*(named(getattr(effects.scopes[scope], kind))
                          for scope in ("packet", "message", "global")))
            for kind in ("read", "may_write", "must_write")]
    return (*sets, named(effects.loads))


def _dsl(source):
    return compile_action(source, packet_schema=DEFAULT_PACKET_SCHEMA,
                          name="f").program


#: ``packet.size`` (read-only) and ``packet.priority`` (writable).
_SIZE_PRIORITY = (FieldRef("packet", "size", False),
                  FieldRef("packet", "priority", True))


def _assembled(entry, callee):
    """``f`` of ``entry`` calling ``g(x)`` of ``callee``, over
    :data:`_SIZE_PRIORITY`."""
    program = Program("f", (
        FunctionCode("f", 0, 0, tuple(Instr(*i) for i in entry)),
        FunctionCode("g", 1, 1, tuple(Instr(*i) for i in callee))),
        _SIZE_PRIORITY, ())
    verify(program)
    return program


def _unread_slots_do_not_matter(program, inputs):
    """Every run of ``program`` on ``inputs`` (``packet.size`` values)
    leaves the same result, written slots, stats or fault when the
    slots outside ``loads`` hold garbage."""
    effects = facts(program).effects
    written = effects.written
    for size in inputs:
        runs = []
        for garbage in (None, -7, 1 << 40):
            fvec = [size, 3]
            for i in range(len(fvec)):
                if garbage is not None and i not in effects.loads:
                    fvec[i] = garbage
            res = pg.run_interp(program, fvec, [], "tree")
            if res[0] == "ok":
                res = res[:2] + ([res[2][i] for i in written],) + res[3:]
            runs.append(res)
        assert runs[1:] == runs[:1] * 2, (size, runs)


@pytest.mark.parametrize("source,want", [
    # A write on one arm only: the other path writes back what came in.
    ("def f(packet):\n"
     "    if packet.size > 100:\n"
     "        packet.priority = 1\n",
     ({"packet.size"}, {"packet.priority"}, set(),
      {"packet.size", "packet.priority"})),
    # A read after a write reads the write, not the packet.
    ("def f(packet):\n"
     "    packet.priority = 4\n"
     "    packet.queue_id = packet.priority + packet.size\n",
     ({"packet.size"}, {"packet.priority", "packet.queue_id"},
      {"packet.priority", "packet.queue_id"}, {"packet.size"})),
    # A write only inside a loop, which may run no trip.
    ("def f(packet):\n"
     "    v = 0\n"
     "    while v < packet.size:\n"
     "        packet.priority = v\n"
     "        v = v + 1\n",
     ({"packet.size"}, {"packet.priority"}, set(),
      {"packet.size", "packet.priority"})),
], ids=("one arm", "read after write", "loop"))
def test_effects_of_dsl_shapes(source, want):
    program = _dsl(source)
    assert _effects_by_name(program) == want
    assert facts(program).effects.callee_fields is False


def test_a_callee_getf_is_a_read_and_loads_every_slot():
    """The callee reads ``size`` before anything writes it; a callee
    that touches field slots gets every slot handed over, so every
    slot is loaded."""
    program = _assembled(
        [(Op.CONST, 0), (Op.CALL, 1), (Op.PUTF, 1), (Op.CONST, 0),
         (Op.RET,)],
        [(Op.GETF, 0), (Op.RET,)])
    assert _effects_by_name(program) == (
        {"packet.size"}, {"packet.priority"}, {"packet.priority"},
        {"packet.size", "packet.priority"})
    assert facts(program).effects.callee_fields is True
    _unread_slots_do_not_matter(program, (0, 5))


def test_a_callee_halt_is_an_exit_before_the_entry_writes():
    """``g`` HALTs when its argument is 0: that path ends the
    invocation before the entry's PUTF, so ``priority`` is not
    must-written, and its incoming value is loaded for the write-back
    of that path."""
    program = _assembled(
        [(Op.GETF, 0), (Op.CALL, 1), (Op.POP,), (Op.CONST, 5),
         (Op.PUTF, 1), (Op.CONST, 0), (Op.RET,)],
        [(Op.LOAD, 0), (Op.JZ, 4), (Op.CONST, 0), (Op.HALT,),
         (Op.CONST, 1), (Op.RET,)])
    assert _effects_by_name(program) == (
        {"packet.size"}, {"packet.priority"}, set(),
        {"packet.size", "packet.priority"})
    assert facts(program).effects.callee_fields is False
    _unread_slots_do_not_matter(program, (0, 1, 9))


def test_a_putf_after_a_call_needs_no_read():
    """The callee returns on every path and touches no slot: the PUTF
    after the CALL writes ``priority`` before every exit, and
    ``size`` is never read, so nothing is loaded."""
    program = _assembled(
        [(Op.CONST, 2), (Op.CALL, 1), (Op.PUTF, 1), (Op.CONST, 0),
         (Op.RET,)],
        [(Op.LOAD, 0), (Op.CONST, 1), (Op.ADD,), (Op.RET,)])
    assert _effects_by_name(program) == (
        set(), {"packet.priority"}, {"packet.priority"}, set())
    _unread_slots_do_not_matter(program, (0, 4))


def test_a_recursive_callee_that_returns_keeps_the_write_after_it():
    """Over a cyclic call graph the summaries reach a fixed point: the
    countdown returns on every path, so the PUTF after its CALL is
    must-written."""
    program = _assembled(
        [(Op.GETF, 0), (Op.CONST, 7), (Op.BAND,), (Op.CALL, 1),
         (Op.PUTF, 1), (Op.CONST, 0), (Op.RET,)],
        [(Op.LOAD, 0), (Op.JZ, 7), (Op.LOAD, 0), (Op.CONST, 1),
         (Op.SUB,), (Op.CALL, 1), (Op.RET,), (Op.CONST, 0),
         (Op.RET,)])
    assert facts(program).bounds.calls is None
    assert _effects_by_name(program) == (
        {"packet.size"}, {"packet.priority"}, {"packet.priority"},
        {"packet.size"})
    _unread_slots_do_not_matter(program, (0, 3, 12))


#: Per Table-1 program: the slots some path reads before writing, and
#: the slots every exit has written.
TABLE1_EFFECTS = {
    "wcmp": ((), ()),
    "message_wcmp": (("message.cached_path",), ()),
    "ananta_nat": (("packet.dst_ip", "global.vip", "packet.src_ip",
                    "packet.src_port", "packet.dst_port"), ()),
    "mcrouter_select": (("message.key_hash",), ()),
    "sinbad_select": ((), ()),
    "pulsar": (("message.op_read", "message.msg_size", "packet.size",
                "packet.tenant"), ("packet.charge",)),
    "network_qos": (("packet.tenant", "packet.size"),
                    ("packet.charge",)),
    "pias": (("message.size", "packet.size", "message.priority"),
             ("message.size", "packet.priority")),
    "sff": (("message.assigned", "message.msg_size"),
            ("packet.priority",)),
    "qjump": (("message.level",), ()),
    "centralized_cc": (("message.paced_queue",), ("packet.queue_id",)),
    "port_knock": (("packet.src_ip", "packet.dst_port",
                    "global.open_port", "global.knock1",
                    "global.knock2", "global.knock3"), ()),
    "stateful_firewall": (("packet.src_ip", "packet.dst_ip",
                           "packet.src_port", "packet.dst_port",
                           "global.my_ip", "global.allow_port"), ()),
}


@pytest.mark.parametrize("entry", [e for e in table1()
                                   if e.demo is not None],
                         ids=lambda e: e.name)
def test_table1_read_and_must_write_sets(entry):
    spec = entry.demo
    program = compile_action(
        spec.action, packet_schema=DEFAULT_PACKET_SCHEMA,
        message_schema=spec.message_schema,
        global_schema=spec.global_schema,
        name=spec.function_name).program
    read, may, must, loads = _effects_by_name(program)
    want_read, want_must = TABLE1_EFFECTS[spec.function_name]
    assert (read, must) == (set(want_read), set(want_must))
    assert must <= may
    assert loads == read | (may - must)
