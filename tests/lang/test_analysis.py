"""The one bytecode analysis (``repro.lang.analysis.facts``).

The enclave enforces the concurrency level the *bytecode* implies
(Section 3.4.4) — a hand-assembled program gets the level of what it
actually writes.  :func:`concurrency_of` below is the same derivation
from the typed AST; it lives here, as the oracle: over every program
the repo can compile the two agree, except where the peephole
optimizer deleted a write, and then the bytecode level is the lower.

The facts are computed once per ``Program`` and cached on it: the
whole verify -> compile -> plan-build sequence of an install and its
first packet analyses a program exactly once.  Their resource bounds
are pinned here for a few Table-1 programs and for a cyclic call
graph, which proves only its deepest frame (their soundness is
``TestBounds`` in the differential harness).
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
from repro.lang.bytecode import FunctionCode, Instr, Op, Program

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
        kept = (facts(opt).written, facts(opt).stores_to_heap)
        assert kept != (facts(raw).written, facts(raw).stores_to_heap), \
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
            for i in facts(program).written} == {"packet"}

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
