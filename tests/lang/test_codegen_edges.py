"""Edge-case pins for the codegen fault contract.

Three scenarios where the pycodegen backend hoists or batches work
that the tree walk does one op at a time — exactly where a sloppy
implementation would drift from the reference semantics:

* an op-budget fault whose boundary lands *inside* a straight-line
  segment (codegen charges a segment's ops up-front);
* an operand-stack-depth fault at the exact limit (generated code
  only checks depth at new running maxima);
* a ``PUTF`` to a read-only field slot (the generated code must raise
  the scope fault itself).

Every scenario is pinned to identical ``ExecStats`` and identical
fault class + *message* for the tree walk and the generated code
(every program is warmed first), using the same summary tuples as the
differential harness.
"""

import pytest

from repro.lang.bytecode import (Assembler, FieldRef, Op,
                                 Program)
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
    assert pg.warm(program)
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


def _readonly_putf_program():
    """Hand-assembled ``CONST 7; PUTF 0`` against a read-only slot.

    The DSL frontend and the verifier both reject this statically, so
    the runtime check is reachable only from raw bytecode — exactly
    the defense-in-depth path generated code must not bypass.
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
    assert pg.warm(program)
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
        assert pg.warm(program)
        runs = [pg.run_interp(program, [5], [], d)
                for d in DISPATCHES]
        assert runs[0] == runs[1]
        assert runs[0][0] == "ok"
        assert runs[0][2] == [7]  # the PUTF landed
