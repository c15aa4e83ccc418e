"""Edge-case pins for the codegen fault contract.

Two scenarios where the pycodegen backend hoists or batches work
that the tree walk does one op at a time — exactly where a sloppy
implementation would drift from the reference semantics:

* an op-budget fault whose boundary lands *inside* a straight-line
  segment (codegen charges a segment's ops up-front);
* an operand-stack-depth fault at the exact limit (generated code
  only checks depth at new running maxima);

and one it must never see: a ``PUTF`` to a read-only field slot,
which the verifier rejects, so the program stays on the tree walk and
every dispatch raises the tree walk's scope fault.

Every scenario is pinned to identical ``ExecStats`` and identical
fault class + *message* for the tree walk and the default dispatch
(whose first run compiles a verified program), using the same summary
tuples as the differential harness.
"""

import pytest

from repro.lang import pycodegen
from repro.lang.bytecode import (Assembler, FieldRef, FunctionCode,
                                 Instr, Op, Program)
from repro.lang.compiler import compile_ast

import program_gen as pg

DISPATCHES = ("tree", "pycodegen")

LOOP_SOURCE = (
    "def f(packet, msg, _global):\n"
    "    v0 = 8\n"
    "    while v0 > 0:\n"
    "        v0 = v0 - 1\n"
    "        msg.counter = msg.counter + v0\n"
)

DEEP_EXPR_SOURCE = (
    "def f(packet, msg, _global):\n"
    "    v0 = packet.size + (msg.counter + (msg.limit + "
    "(_global.knob + packet.priority)))\n"
)


def _compile(source):
    program = compile_ast(pg.lower_source(source))
    assert pycodegen.code_for(program) is not None
    return program


def _zero_vectors(program):
    return ([0] * len(program.field_table),
            [[] for _ in program.array_table])


class TestBudgetFaultMidSegment:
    """Budget hoisting inside generated segments never changes
    outcomes."""

    def test_every_budget_boundary_agrees(self):
        """Sweep the budget across every op of a loop.

        Codegen charges a whole segment at its first op, so many of
        these budgets land mid-segment; the fault (class, reason) and
        any ok-run stats must still be bit-identical to the per-op
        tree walk.
        """
        program = _compile(LOOP_SOURCE)
        fvec, avec = _zero_vectors(program)
        total = pg.run_interp(program, fvec, avec, "tree")[4][0]
        assert total > 50
        faults = 0
        for budget in range(1, total + 2):
            runs = {d: pg.run_interp(program, fvec, avec, d,
                                     op_budget=budget)
                    for d in DISPATCHES}
            assert runs["pycodegen"] == runs["tree"], budget
            if runs["tree"][0] == "fault":
                faults += 1
                assert runs["tree"][1] == "InterpreterFault"
                assert runs["tree"][2] == \
                    f"op budget of {budget} exceeded"
        # Every budget below the program's total op count faults.
        assert faults == total - 1


class TestStackDepthFaultAtExactLimit:
    """The depth check convention is invisible at the boundary."""

    def _depth(self, program):
        fvec, avec = _zero_vectors(program)
        return pg.run_interp(program, fvec, avec, "tree")[4][1]

    def test_exact_limit_is_allowed(self):
        program = _compile(DEEP_EXPR_SOURCE)
        depth = self._depth(program)
        assert depth >= 5
        fvec, avec = _zero_vectors(program)
        runs = [pg.run_interp(program, fvec, avec, d,
                              max_operand_stack=depth)
                for d in DISPATCHES]
        assert runs[0][0] == "ok"
        assert runs[0] == runs[1]
        assert runs[0][4][1] == depth  # stats pin the exact maximum

    def test_one_below_limit_faults_identically(self):
        program = _compile(DEEP_EXPR_SOURCE)
        depth = self._depth(program)
        fvec, avec = _zero_vectors(program)
        runs = [pg.run_interp(program, fvec, avec, d,
                              max_operand_stack=depth - 1)
                for d in DISPATCHES]
        assert runs[0] == runs[1]
        assert runs[0] == (
            "fault", "InterpreterFault",
            f"operand stack of {depth} words exceeds limit "
            f"{depth - 1}")


def _shape_program(*listing):
    """A hand-assembled entry over ``message.counter`` (writable) and
    ``packet.size``; ``listing`` holds ``(op, arg)`` pairs and ops."""
    code = tuple(Instr(*item) if isinstance(item, tuple) else Instr(item)
                 for item in listing)
    program = Program(
        name="shape", functions=(FunctionCode("f", 0, 1, code),),
        field_table=(FieldRef("message", "counter", True),
                     FieldRef("packet", "size", False)),
        array_table=())
    assert pycodegen.code_for(program) is not None
    return program


#: A loop whose exit jumps past a tail that returns after its last
#: back edge: WCMP's weighted search after jump threading.
RETURNING_LOOP_TAIL = _shape_program(
    (Op.GETF, 1), (Op.STORE, 0),
    (Op.LOAD, 0), (Op.CONST, 1), Op.SUB, (Op.STORE, 0),   # 2: header
    (Op.LOAD, 0), (Op.JZ, 22),                  # the loop's exit
    (Op.GETF, 0), (Op.LOAD, 0), Op.ADD, (Op.PUTF, 0),
    (Op.LOAD, 0), (Op.CONST, 2), Op.CGT,
    (Op.JNZ, 2),                                # last back edge
    (Op.GETF, 0), (Op.CONST, 100), Op.ADD, (Op.PUTF, 0),  # the tail
    (Op.CONST, 1), Op.RET,
    (Op.CONST, 0), Op.RET)                      # 22: the follow

#: Branches straight to the join of the if/else around them: port
#: knocking's and the stateful firewall's shapes after threading.
JOIN_JUMPS = _shape_program(
    (Op.GETF, 1), (Op.JZ, 16),                  # if size:
    (Op.GETF, 1), (Op.CONST, 3), Op.CLT,
    (Op.JZ, 22),                                #   straight to the join
    (Op.GETF, 1), (Op.CONST, 2), Op.CEQ,
    (Op.JZ, 13),                                #   an if/else whose
    (Op.CONST, 7), (Op.PUTF, 0),                #   then-part jumps
    (Op.JMP, 22),                               #   straight to the join
    (Op.CONST, 8), (Op.PUTF, 0),                # 13
    (Op.JMP, 22),                               # the then-part's end
    (Op.CONST, 9), (Op.PUTF, 0),                # 16: else
    (Op.GETF, 0), (Op.CONST, 1), Op.ADD, (Op.PUTF, 0),
    (Op.CONST, 0), Op.RET)                      # 22: the join


class TestThreadedShapes:
    """The two shapes jump threading leaves in Table-1 programs run on
    the structured emitter exactly like the tree walk: every input
    path, under every op budget up to the run's need."""

    @pytest.mark.parametrize("program", (RETURNING_LOOP_TAIL, JOIN_JUMPS),
                             ids=("returning loop tail", "join jumps"))
    def test_every_path_and_budget_agrees(self, program):
        for size in range(-1, 7):
            fvec = [10, size]
            total = pg.run_interp(program, fvec, [], "tree")[4][0]
            for budget in range(1, total + 2):
                runs = {d: pg.run_interp(program, fvec, [], d,
                                         op_budget=budget)
                        for d in DISPATCHES}
                assert runs["pycodegen"] == runs["tree"], (size, budget)


def _readonly_putf_program():
    """Hand-assembled ``CONST 7; PUTF 0`` against a read-only slot.

    The DSL frontend and the verifier both reject this statically, so
    the runtime check is reachable only from raw bytecode — exactly
    the defense-in-depth path generated code must not bypass.  The
    generated-code backend compiles only what the verifier accepts,
    so this program never warms.
    """
    asm = Assembler("f", n_args=0)
    asm.emit(Op.CONST, 7)
    asm.emit(Op.PUTF, 0)
    asm.emit(Op.CONST, 0)
    asm.emit(Op.RET)
    program = Program(
        name="readonly_putf",
        functions=(asm.finish(n_locals=0),),
        field_table=(FieldRef("message", "limit", False),),
        array_table=())
    assert pycodegen.code_for(program) is None
    return program


class TestReadonlyPutfScopeFault:
    def test_all_dispatches_fault_with_scope_and_name(self):
        program = _readonly_putf_program()
        runs = [pg.run_interp(program, [5], [], d)
                for d in DISPATCHES]
        assert runs[0] == runs[1]
        assert runs[0] == (
            "fault", "InterpreterFault",
            "write to read-only field message.limit")

    def test_writable_twin_succeeds(self):
        """The same shape against a writable slot runs fine."""
        asm = Assembler("f", n_args=0)
        asm.emit(Op.CONST, 7)
        asm.emit(Op.PUTF, 0)
        asm.emit(Op.CONST, 0)
        asm.emit(Op.RET)
        program = Program(
            name="writable_putf",
            functions=(asm.finish(n_locals=0),),
            field_table=(FieldRef("message", "counter", True),),
            array_table=())
        assert pycodegen.code_for(program) is not None
        runs = [pg.run_interp(program, [5], [], d)
                for d in DISPATCHES]
        assert runs[0] == runs[1]
        assert runs[0][0] == "ok"
        assert runs[0][2] == [7]  # the PUTF landed
