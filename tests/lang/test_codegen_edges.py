"""Edge-case pins for the codegen fault contract.

Generated code counts a segment's ops and its deepest push once, and
tests neither the op budget nor the stack limit: a run under an op
budget, or whose limits the program's bounds do not fit, goes to the
tree walk.  Two scenarios sit exactly on that line, where a sloppy
entry test would drift from the reference semantics:

* no op budget, where generated code counts a loop's ops per segment,
  and every op budget across the loop's run, each handed to the tree
  walk, which counts every op;
* an operand-stack limit at and one below the exact depth;

and one it must never see: a ``PUTF`` to a read-only field slot,
which the verifier rejects, so the program stays on the tree walk and
every dispatch raises the tree walk's scope fault.

Generated code also computes in Python expressions and takes the
64-bit wrap only where a value is observed; ``TestDeferredWrap`` feeds
one overflowed value to each such point — a compare, a branch test,
``//``, ``%``, ``>>``, a shift amount, a heap address, PUTF, RET, a
CALL argument, a RAND bound — where a missing wrap changes the answer.

Every scenario is pinned to identical ``ExecStats`` and an identical
fault — class, message and pc — for the tree walk and the default
dispatch (whose first run compiles a verified program), using the
differential harness's summary tuples with the fault's pc added, and
to the tier the default dispatch ran: generated code, or the tree walk
it hands a run under a budget or limits its bounds do not fit.
"""

import random

import pytest

from repro.lang import Interpreter, InterpreterFault, pycodegen
from repro.lang.analysis import facts
from repro.lang.bytecode import (ArrayRef, Assembler, FieldRef,
                                 FunctionCode, Instr, Op, Program)
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


def _run(program, fvec, avec, dispatch, **limits):
    """``program_gen.run_interp``, with a fault's pc in its summary."""
    interp = Interpreter(dispatch=dispatch, rng=random.Random(3),
                         **limits)
    try:
        return pg.summary(interp.execute(program, list(fvec),
                                         [list(a) for a in avec]))
    except InterpreterFault as fault:
        return pg.summary(fault) + (fault.pc,)


def _runs(program, fvec, avec, op_budget=None, **limits):
    """The tree walk's and the default dispatch's :func:`_run` under
    one set of limits, and whether the default dispatch walked the
    tree.  With no ``op_budget`` the tree walk runs under the
    harness's, and the default dispatch, after it, under none."""
    tree = _run(program, fvec, avec, "tree",
                op_budget=op_budget or pg.OP_BUDGET, **limits)
    assert op_budget or not pg.stopped(tree)
    with pg.tree_walks() as walks:
        generated = _run(program, fvec, avec, "pycodegen",
                         op_budget=op_budget, **limits)
    return tree, generated, bool(walks[0])


class TestBudgetFaultMidSegment:
    """Counting ops per segment never changes outcomes."""

    def test_every_budget_boundary_agrees(self):
        """Generated code counts a whole segment at its first op, and
        with no budget reports the tree walk's op count.  Sweep the
        budget across every op of the loop's run and past it: every
        budgeted run goes to the tree walk, which faults at the op
        past the budget (class, reason, pc).
        """
        program = _compile(LOOP_SOURCE)
        fvec, avec = _zero_vectors(program)
        free, generated, walked = _runs(program, fvec, avec)
        assert generated == free
        assert not walked
        total = free[4][0]
        assert total > 50
        faults = 0
        for budget in range(1, total + 2):
            tree, generated, walked = _runs(program, fvec, avec,
                                            op_budget=budget)
            assert generated == tree, budget
            assert walked, budget
            if tree[0] == "fault":
                faults += 1
                assert tree[1] == "InterpreterFault"
                assert tree[2] == f"op budget of {budget} exceeded"
        # Every budget below the program's total op count faults.
        assert faults == total - 1


class TestStackDepthFaultAtExactLimit:
    """The stack bound is exact: at the limit the generated code runs,
    one below it the tree walk faults."""

    def _depth(self, program):
        fvec, avec = _zero_vectors(program)
        return pg.run_interp(program, fvec, avec, "tree")[4][1]

    def test_exact_limit_is_allowed(self):
        program = _compile(DEEP_EXPR_SOURCE)
        depth = self._depth(program)
        assert depth >= 5
        fvec, avec = _zero_vectors(program)
        assert facts(program).bounds.stack == depth
        tree, generated, walked = _runs(program, fvec, avec,
                                        max_operand_stack=depth)
        assert tree[0] == "ok"
        assert generated == tree
        assert not walked
        assert tree[4][1] == depth  # stats pin the exact maximum

    def test_one_below_limit_faults_identically(self):
        program = _compile(DEEP_EXPR_SOURCE)
        depth = self._depth(program)
        fvec, avec = _zero_vectors(program)
        tree, generated, walked = _runs(program, fvec, avec,
                                        max_operand_stack=depth - 1)
        assert generated == tree
        assert walked
        assert tree[:3] == (
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
    the structured emitter exactly like the tree walk on every input
    path with no op budget, and under every op budget up to the run's
    need the default dispatch hands the run to the tree walk, which
    faults to the pc."""

    @pytest.mark.parametrize("program", (RETURNING_LOOP_TAIL, JOIN_JUMPS),
                             ids=("returning loop tail", "join jumps"))
    def test_every_path_and_budget_agrees(self, program):
        for size in range(-1, 7):
            fvec = [10, size]
            free, generated, walked = _runs(program, fvec, [])
            assert generated == free, size
            assert not walked, size
            for budget in range(1, free[4][0] + 2):
                tree, generated, walked = _runs(program, fvec, [],
                                                op_budget=budget)
                assert generated == tree, (size, budget)
                assert walked, (size, budget)


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


# -- the wrap where a value is observed ----------------------------------

INT_MAX = 2**63 - 1
#: ``INT_MAX + INT_MAX + k`` is ``k - 2`` once wrapped.
TWICE = ((Op.GETF, 0), (Op.GETF, 0), Op.ADD)


def _wrap_program(*listing, helper=None):
    """A hand-assembled entry over ``packet.size`` (read-only, slot 0),
    ``packet.priority`` (slot 1) and ``message.counter`` (slot 2), both
    writable, and an eight-word read-only array; ``helper`` is the
    listing of a one-argument function 1."""
    def code(items):
        return tuple(Instr(*item) if isinstance(item, tuple)
                     else Instr(item) for item in items)

    functions = (FunctionCode("f", 0, 1, code(listing)),)
    if helper is not None:
        functions += (FunctionCode("g", 1, 1, code(helper)),)
    program = Program(
        name="wrap", functions=functions,
        field_table=(FieldRef("packet", "size", False),
                     FieldRef("packet", "priority", True),
                     FieldRef("message", "counter", True)),
        array_table=(ArrayRef("global", "weights", 1, False),))
    assert pycodegen.code_for(program) is not None
    return program


def _flatten(*parts):
    out = []
    for part in parts:
        out.extend(part if isinstance(part, tuple) and
                   not isinstance(part[0], Op) else (part,))
    return out


WEIGHTS = [10, 11, 12, 13, 14, 15, 16, 17]

#: One program per point where generated code observes a value, each
#: fed a value outside the 64-bit range that the wrap brings back: a
#: missing wrap changes the answer.  ``(listing, helper, expected)``:
#: ``expected`` is the priority left behind, the value returned, or
#: the fault reason.
OBSERVED = {
    "INT_MAX + 1 < 0": (_flatten(
        (Op.GETF, 0), (Op.CONST, 1), Op.ADD, (Op.CONST, 0), Op.CLT,
        (Op.PUTF, 1), (Op.CONST, 0), Op.RET), None, ("priority", 1)),
    "JZ on a sum of 2**64": (_flatten(
        TWICE, (Op.CONST, 2), Op.ADD, (Op.JZ, 8),
        (Op.CONST, 5), (Op.PUTF, 1),
        (Op.CONST, 0), Op.RET), None, ("priority", 0)),
    "// of an overflowed product": (_flatten(
        (Op.GETF, 0), (Op.CONST, 3), Op.MUL, (Op.CONST, 7), Op.DIV,
        (Op.PUTF, 1), (Op.CONST, 0), Op.RET), None,
        ("priority", (INT_MAX - 2) // 7)),
    "% of an overflowed product": (_flatten(
        (Op.GETF, 0), (Op.CONST, 3), Op.MUL, (Op.CONST, 7), Op.MOD,
        (Op.PUTF, 1), (Op.CONST, 0), Op.RET), None,
        ("priority", (INT_MAX - 2) % 7)),
    ">> of an overflowed product": (_flatten(
        (Op.GETF, 0), (Op.CONST, 3), Op.MUL, (Op.CONST, 60), Op.SHR,
        (Op.PUTF, 1), (Op.CONST, 0), Op.RET), None,
        ("priority", (INT_MAX - 2) >> 60)),
    "a shift amount in range once wrapped": (_flatten(
        (Op.CONST, 1), TWICE, (Op.CONST, 5), Op.ADD, Op.SHL,
        (Op.PUTF, 1), (Op.CONST, 0), Op.RET), None, ("priority", 8)),
    "a heap address 2**64 + k wrapping into range": (_flatten(
        (Op.ABASE, 0), TWICE, Op.ADD, (Op.CONST, 5), Op.ADD, Op.HLOAD,
        (Op.PUTF, 1), (Op.CONST, 0), Op.RET), None, ("priority", 13)),
    "a heap address 2**64 + k wrapping out of range": (_flatten(
        (Op.ABASE, 0), TWICE, Op.ADD, (Op.CONST, 13), Op.ADD, Op.HLOAD,
        (Op.PUTF, 1), (Op.CONST, 0), Op.RET), None,
        ("fault", "heap read at 11 out of bounds (heap has 8 words)", 7)),
    "PUTF of an overflowed sum": (_flatten(
        TWICE, (Op.PUTF, 2), (Op.CONST, 0), Op.RET), None,
        ("counter", -2)),
    "RET of an overflowed sum": (_flatten(TWICE, Op.RET), None,
                                 ("value", -2)),
    "a CALL argument that overflowed": (_flatten(
        TWICE, (Op.CALL, 1), (Op.PUTF, 1), (Op.CONST, 0), Op.RET),
        _flatten((Op.LOAD, 0), (Op.CONST, 3), Op.DIV, Op.RET),
        ("priority", -1)),
    "a RAND bound that overflowed": (_flatten(
        TWICE, (Op.CONST, 3), Op.ADD, Op.RAND, (Op.CONST, 1), Op.ADD,
        (Op.PUTF, 1), (Op.CONST, 0), Op.RET), None,
        ("priority", random.Random(3).randrange(1) + 1)),
}


@pytest.mark.differential
class TestDeferredWrap:
    """Generated code wraps a value only where it is observed; each
    program here observes an overflowed value at one such point, and
    generated code must give the tree walk's value, ``ExecStats`` and
    fault (reason and pc) — and must be what ran."""

    @pytest.mark.parametrize("name", list(OBSERVED))
    def test_observed_value_is_the_word(self, name):
        listing, helper, (what, want, *pc) = OBSERVED[name]
        program = _wrap_program(*listing, helper=helper)
        fvec = [INT_MAX, 0, 0]
        tree, generated, walked = _runs(program, fvec, [WEIGHTS])
        assert generated == tree
        assert not walked
        if what == "fault":
            assert tree[:3] == ("fault", "InterpreterFault", want)
            assert tree[3] == pc[0]
        else:
            assert tree[0] == "ok"
            got = {"value": tree[1], "priority": tree[2][1],
                   "counter": tree[2][2]}[what]
            assert got == want

    def test_a_deferred_operand_keeps_its_slot(self):
        """``(8 >> (size % 64)) << (counter % 64)``: the shifted value
        is deferred while reading the first amount's slot, which the
        second amount, one deeper, must not overwrite under it."""
        program = _wrap_program(
            (Op.CONST, 8), (Op.GETF, 0), (Op.CONST, 64), Op.MOD, Op.SHR,
            (Op.GETF, 2), (Op.CONST, 64), Op.MOD, Op.SHL, (Op.PUTF, 1),
            (Op.CONST, 0), Op.RET)
        tree, generated, walked = _runs(program, [3, 0, 2], [WEIGHTS])
        assert generated == tree
        assert not walked
        assert tree[2][1] == (8 >> 3) << 2

    def test_an_entry_argument_outside_the_range_walks_the_tree(self):
        """Generated code keeps words in its locals, and the intervals
        take the entry's locals for words: a direct caller's argument
        that is not one (``2**64`` here, which the tree walk's ADD
        wraps to 0) runs on the tree walk."""
        program = _wrap_program((Op.LOAD, 0), (Op.CONST, 0), Op.ADD,
                                Op.RET)
        results = []
        for dispatch in DISPATCHES:
            with pg.tree_walks() as walks:
                result = Interpreter(dispatch=dispatch).execute(
                    program, [0, 0, 0], [WEIGHTS], args=(2**64,))
            results.append((result.value, walks[0]))
        assert results == [(0, 1), (0, 1)]
        with pg.tree_walks() as walks:
            assert Interpreter().execute(program, [0, 0, 0], [WEIGHTS],
                                         args=(-2,)).value == -2
        assert walks == [0]
