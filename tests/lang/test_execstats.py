"""ExecStats accounting across dispatch modes.

Generated code charges a whole straight-line segment's ops at its
first op; ``ops_executed`` must still count the *constituent*
bytecode ops so the §5.4 micro-bench (ns/op) stays comparable across
dispatch modes.  These tests pin the count for hand-assembled
programs, and assert tree/pycodegen stats equality on compiled
programs (the pycodegen runs are warmed, so they are generated code).
"""

import pytest

from repro.lang import Instr, Interpreter, Op, pycodegen
from repro.lang.bytecode import FunctionCode, Program

import program_gen as pg
from conftest import Harness


def _program(code, name="pinned", n_locals=2):
    fn = FunctionCode("f", 0, n_locals, tuple(code))
    return Program(name, (fn,), (), ())


class TestPinnedOpCounts:
    def test_straight_line_counts_constituents(self):
        # One generated segment of four ops must report 4 ops.
        prog = _program([
            Instr(Op.CONST, 2),
            Instr(Op.CONST, 3),
            Instr(Op.ADD),
            Instr(Op.RET),
        ])
        assert pycodegen.code_for(prog) is not None
        for dispatch in ("tree", "pycodegen"):
            res = Interpreter(dispatch=dispatch).execute(prog, [], [])
            assert res.value == 5
            assert res.stats.ops_executed == 4, dispatch
            assert res.stats.max_operand_stack == 2, dispatch

    def test_loop_counts_constituents(self):
        # A count-down loop:
        #   0 CONST 5
        #   1 STORE 0
        #   2 LOAD 0         loop header
        #   3 CONST 0
        #   4 CGT
        #   5 JZ 11
        #   6 LOAD 0
        #   7 CONST 1
        #   8 SUB
        #   9 STORE 0
        #  10 JMP 2
        #  11 LOAD 0
        #  12 RET
        prog = _program([
            Instr(Op.CONST, 5),
            Instr(Op.STORE, 0),
            Instr(Op.LOAD, 0),
            Instr(Op.CONST, 0),
            Instr(Op.CGT),
            Instr(Op.JZ, 11),
            Instr(Op.LOAD, 0),
            Instr(Op.CONST, 1),
            Instr(Op.SUB),
            Instr(Op.STORE, 0),
            Instr(Op.JMP, 2),
            Instr(Op.LOAD, 0),
            Instr(Op.RET),
        ])
        # 2 setup ops + 5 iterations of 9 ops (2..10) + the exit pass
        # (2..5, then 11..12) = 2 + 45 + 4 + 2 = 53.
        tree = Interpreter(dispatch="tree").execute(prog, [], [])
        assert pycodegen.code_for(prog) is not None
        hot = Interpreter(dispatch="pycodegen").execute(prog, [], [])
        assert tree.value == 0
        assert hot.value == tree.value
        assert tree.stats.ops_executed == 53
        assert hot.stats == tree.stats


class TestCompiledProgramStats:
    @pytest.mark.parametrize("source,fields", [
        ("def f(packet, msg, _global):\n"
         "    total = 0\n"
         "    for i in range(8):\n"
         "        total += _global.weights[i % 8] * 3\n"
         "    packet.queue_id = total % 251\n",
         {("packet", "size"): 640}),
        ("def f(packet, msg, _global):\n"
         "    def helper(a, b):\n"
         "        if a > b:\n"
         "            return a - b\n"
         "        return helper(a + 1, b)\n"
         "    packet.queue_id = helper(0, 3)\n",
         {}),
    ])
    def test_stats_identical_across_dispatch(self, source, fields):
        h = Harness(source)
        arrays = {("global", "weights"): [3, 1, 4, 1, 5, 9, 2, 6]}
        res_tree, _, _ = h.run(fields=fields, arrays=arrays,
                               dispatch="tree")
        assert pycodegen.code_for(h.program) is not None
        res_hot, _, _ = h.run(fields=fields, arrays=arrays,
                              dispatch="pycodegen")
        assert res_hot.stats == res_tree.stats
        assert res_tree.stats.ops_executed > 0
