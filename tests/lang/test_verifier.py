"""Tests for static bytecode verification."""

import pytest

from repro.lang import Op, VerificationError, verify
from repro.lang.bytecode import (ArrayRef, FieldRef, FunctionCode,
                                 Instr, Program)

from conftest import Harness

FIELDS = (FieldRef("packet", "priority", True),
          FieldRef("packet", "size", False))
ARRAYS = (ArrayRef("global", "weights", 1, False),)


def make_program(code, n_locals=2, functions_extra=()):
    fns = (FunctionCode("f", 0, n_locals, tuple(code)),) + \
        tuple(functions_extra)
    return Program(name="p", functions=fns, field_table=FIELDS,
                   array_table=ARRAYS)


class TestStructuralChecks:
    def test_valid_program_passes(self):
        prog = make_program([Instr(Op.CONST, 1), Instr(Op.RET)])
        assert verify(prog) >= 1

    def test_empty_function_rejected(self):
        with pytest.raises(VerificationError, match="empty"):
            verify(make_program([]))

    def test_jump_out_of_range_rejected(self):
        with pytest.raises(VerificationError, match="jump target"):
            verify(make_program([Instr(Op.JMP, 99),
                                 Instr(Op.CONST, 0),
                                 Instr(Op.RET)]))

    def test_field_index_out_of_range_rejected(self):
        with pytest.raises(VerificationError, match="field index"):
            verify(make_program([Instr(Op.GETF, 7), Instr(Op.RET)]))

    def test_write_to_readonly_field_rejected(self):
        with pytest.raises(VerificationError, match="read-only"):
            verify(make_program([Instr(Op.CONST, 1),
                                 Instr(Op.PUTF, 1),
                                 Instr(Op.CONST, 0),
                                 Instr(Op.RET)]))

    def test_array_index_out_of_range_rejected(self):
        with pytest.raises(VerificationError, match="array index"):
            verify(make_program([Instr(Op.ABASE, 3), Instr(Op.RET)]))

    def test_call_target_out_of_range_rejected(self):
        with pytest.raises(VerificationError, match="call target"):
            verify(make_program([Instr(Op.CALL, 5),
                                 Instr(Op.RET)]))

    def test_local_slot_out_of_range_rejected(self):
        with pytest.raises(VerificationError, match="local slot"):
            verify(make_program([Instr(Op.LOAD, 9), Instr(Op.RET)]))


class TestStackDiscipline:
    def test_underflow_rejected(self):
        with pytest.raises(VerificationError, match="underflow"):
            verify(make_program([Instr(Op.ADD), Instr(Op.RET)]))

    def test_ret_needs_value(self):
        with pytest.raises(VerificationError, match="RET"):
            verify(make_program([Instr(Op.RET)]))

    def test_fallthrough_off_end_rejected(self):
        with pytest.raises(VerificationError, match="fall off"):
            verify(make_program([Instr(Op.CONST, 1)]))

    def test_inconsistent_merge_depth_rejected(self):
        # One path pushes a value before the merge point, the other
        # does not.
        code = [
            Instr(Op.CONST, 1),     # 0
            Instr(Op.JZ, 3),        # 1: depth 0 at 3 via this edge
            Instr(Op.CONST, 5),     # 2: depth 1 at 3 via fallthrough
            Instr(Op.CONST, 9),     # 3: merge point
            Instr(Op.RET),
        ]
        with pytest.raises(VerificationError, match="merge"):
            verify(make_program(code))

    def test_reports_max_depth(self):
        prog = make_program([
            Instr(Op.CONST, 1), Instr(Op.CONST, 2),
            Instr(Op.CONST, 3), Instr(Op.ADD), Instr(Op.ADD),
            Instr(Op.RET)])
        assert verify(prog) == 3

    def test_max_depth_limit_enforced(self):
        prog = make_program([
            Instr(Op.CONST, 1), Instr(Op.CONST, 2),
            Instr(Op.CONST, 3), Instr(Op.ADD), Instr(Op.ADD),
            Instr(Op.RET)])
        with pytest.raises(VerificationError, match="exceeds limit"):
            verify(prog, max_operand_stack=2)

    def test_call_effect_uses_callee_arity(self):
        helper = FunctionCode("g", 2, 2,
                              (Instr(Op.CONST, 0), Instr(Op.RET)))
        code = [Instr(Op.CONST, 1), Instr(Op.CONST, 2),
                Instr(Op.CALL, 1), Instr(Op.RET)]
        prog = make_program(code, functions_extra=(helper,))
        assert verify(prog) >= 2

    def test_call_underflow_rejected(self):
        helper = FunctionCode("g", 2, 2,
                              (Instr(Op.CONST, 0), Instr(Op.RET)))
        code = [Instr(Op.CONST, 1), Instr(Op.CALL, 1),
                Instr(Op.RET)]
        with pytest.raises(VerificationError, match="underflow"):
            verify(make_program(code, functions_extra=(helper,)))


class TestOnlyVerificationErrorEscapes:
    """Malformed instructions are violations: never a Python error out
    of the checker, never accepted."""

    def test_raw_int_call_opcode_rejected(self):
        with pytest.raises(VerificationError, match="unknown opcode 70"):
            verify(make_program([Instr(Op.CONST, 1), Instr(70, 1),
                                 Instr(Op.RET)]))

    def test_raw_int_halt_opcode_rejected(self):
        # 90 equals Op.HALT as an int but is not an Op: the tree walk
        # faults on it as an unknown opcode.
        with pytest.raises(VerificationError, match="unknown opcode 90"):
            verify(make_program([Instr(90), Instr(Op.CONST, 0),
                                 Instr(Op.RET)]))

    def test_string_jump_target_rejected(self):
        with pytest.raises(VerificationError,
                           match="JMP argument must be an int, not str"):
            verify(make_program([Instr(Op.JMP, "x"),
                                 Instr(Op.CONST, 0), Instr(Op.RET)]))

    def test_float_local_slot_rejected(self):
        with pytest.raises(VerificationError,
                           match="LOAD argument must be an int, not float"):
            verify(make_program([Instr(Op.LOAD, 0.0), Instr(Op.RET)]))

    def test_frame_narrower_than_its_arguments_rejected(self):
        helper = FunctionCode("g", 2, 1,
                              (Instr(Op.CONST, 0), Instr(Op.RET)))
        code = [Instr(Op.CONST, 1), Instr(Op.CONST, 2),
                Instr(Op.CALL, 1), Instr(Op.RET)]
        with pytest.raises(VerificationError,
                           match="frame of 1 locals cannot hold 2 "
                                 "arguments"):
            verify(make_program(code, functions_extra=(helper,)))


def _ops(*listing):
    """``Instr``s from ``(op, arg)`` pairs and bare ops."""
    return [Instr(*item) if isinstance(item, tuple) else Instr(item)
            for item in listing]


class TestControlStructure:
    """Reachable code nests into loops and if/else shapes or it is a
    violation, so a verified function is one generated code can write
    as ``while``/``if``.  Each function below once ran on a
    basic-block dispatch loop instead."""

    def test_improperly_nested_loops_rejected(self):
        code = _ops((Op.CONST, 3), (Op.STORE, 0),
                    (Op.LOAD, 0),                  # 2: loop A
                    (Op.CONST, 1), Op.SUB, (Op.STORE, 0),
                    (Op.LOAD, 0),                  # 6: loop B
                    (Op.CONST, 2), Op.CGT,
                    (Op.JNZ, 2),                   # A's back edge
                    (Op.LOAD, 0),
                    (Op.JNZ, 6),                   # B's, after A ends
                    (Op.CONST, 0), Op.RET)
        with pytest.raises(VerificationError,
                           match="loop 6-12 crosses the end 10 of the "
                                 "block around it") as err:
            verify(make_program(code))
        assert err.value.pc == 6

    def test_branch_into_a_loop_interior_rejected(self):
        code = _ops((Op.CONST, 3), (Op.STORE, 0),
                    (Op.LOAD, 1), (Op.JNZ, 6),     # past the header
                    (Op.LOAD, 0), (Op.STORE, 1),   # 4: header
                    (Op.LOAD, 0), (Op.CONST, 1), Op.SUB, Op.DUP,
                    (Op.STORE, 0), (Op.JNZ, 4),
                    (Op.CONST, 0), Op.RET)
        with pytest.raises(VerificationError,
                           match="loop 4-12 crosses the end 6"):
            verify(make_program(code))

    def test_forward_jump_over_live_code_rejected(self):
        code = _ops((Op.CONST, 3), (Op.STORE, 0),
                    (Op.JMP, 5),                   # into the body
                    (Op.LOAD, 0), (Op.STORE, 1),   # 3: header
                    (Op.LOAD, 0), (Op.CONST, 1), Op.SUB, Op.DUP,
                    (Op.STORE, 0), (Op.JNZ, 3),
                    (Op.CONST, 0), Op.RET)
        with pytest.raises(VerificationError,
                           match="JMP 5 skips reachable code at 3"):
            verify(make_program(code))

    @pytest.mark.parametrize("branch", (Op.JMP, Op.JZ),
                             ids=("JMP", "JZ"))
    def test_continue_of_an_outer_loop_from_an_inner_one_rejected(
            self, branch):
        """A two-level ``continue``: what jump threading makes of an
        inner loop's exit straight into the outer loop's back edge."""
        inner = [(Op.LOAD, 1), (Op.JZ, 11), (Op.JMP, 2)] \
            if branch is Op.JMP else [(Op.LOAD, 1), (Op.JZ, 2)]
        done = 8 + len(inner) + 3
        code = _ops((Op.CONST, 3), (Op.STORE, 0),
                    (Op.LOAD, 0), (Op.JZ, done),   # 2: outer loop
                    (Op.LOAD, 0), (Op.CONST, 1), Op.SUB, (Op.STORE, 0),
                    *inner,                        # 8: inner loop
                    (Op.LOAD, 1), (Op.JNZ, 8),
                    (Op.JMP, 2),
                    (Op.CONST, 0), Op.RET)
        with pytest.raises(VerificationError,
                           match=f"{branch.name} 2 is neither a loop "
                                 f"exit nor a jump forward"):
            verify(make_program(code))

    def test_code_entered_only_after_a_return_rejected(self):
        code = _ops((Op.CONST, 1), (Op.JZ, 6),
                    (Op.CONST, 0), Op.RET,
                    (Op.LOAD, 0), (Op.STORE, 0),   # 4: header, from 8
                    (Op.LOAD, 0), (Op.JZ, 9),
                    (Op.JMP, 4),
                    (Op.CONST, 0), Op.RET)
        with pytest.raises(VerificationError,
                           match="reachable code after the end of its "
                                 "block") as err:
            verify(make_program(code))
        assert err.value.pc == 4


class _Sly(str):
    def __repr__(self):
        return "print('INJECTED') or 'priority'"


class _Wide(int):
    def __format__(self, spec):
        return "1) or print('INJECTED') or (1"


class TestTableEntriesAreExactBuiltins:
    """Generated code splices names and strides into Python source, so
    a table entry made of a ``str`` or ``int`` subclass is refused."""

    @pytest.mark.parametrize("fields, arrays, reason", [
        ((FieldRef("packet", _Sly("priority"), True),), ARRAYS,
         "field table entry 0: name must be of type str, not _Sly"),
        ((FieldRef(_Sly("packet"), "priority", True),), ARRAYS,
         "field table entry 0: scope must be of type str, not _Sly"),
        ((FieldRef("packet", "priority", 1),), ARRAYS,
         "field table entry 0: writable must be of type bool, not int"),
        (FIELDS, (ArrayRef("global", "weights", _Wide(1), False),),
         "array table entry 0: stride must be of type int, not _Wide"),
        (FIELDS, (ArrayRef("global", "weights", True, False),),
         "array table entry 0: stride must be of type int, not bool"),
    ], ids=("name", "scope", "writable", "stride", "bool stride"))
    def test_subclass_refused(self, fields, arrays, reason):
        program = Program(name="p", functions=make_program(
            [Instr(Op.CONST, 1), Instr(Op.RET)]).functions,
            field_table=fields, array_table=arrays)
        with pytest.raises(VerificationError, match=reason):
            verify(program)


class TestCompilerOutputAlwaysVerifies:
    SOURCES = [
        "def f(packet):\n    packet.priority = 1\n",
        ("def f(packet):\n"
         "    for i in range(10):\n"
         "        if i == 3:\n"
         "            break\n"
         "        packet.priority = i\n"),
        ("def f(packet, msg, _global):\n"
         "    def search(i):\n"
         "        if i >= len(_global.records):\n"
         "            return 0\n"
         "        return search(i + 1)\n"
         "    msg.counter = search(0)\n"),
        ("def f(packet):\n"
         "    x = 1 if packet.size > 0 and packet.size < 99 else 0\n"
         "    packet.priority = x\n"),
    ]

    @pytest.mark.parametrize("source", SOURCES)
    def test_verifies(self, source):
        h = Harness(source)  # Harness calls verify()
        assert h.program is not None


def _chain_source(terms):
    test = " or ".join(f"packet.src_port == {i}" for i in range(terms))
    return f"def chain(packet):\n    if {test}:\n        packet.priority = 1\n"


def _loops_source(depth):
    lines = ["def nest(packet):", "    x = 0"]
    for level in range(depth):
        lines.append("    " * (level + 1) + f"for i{level} in range(1):")
    lines.append("    " * (depth + 1) + "x = x + 1")
    lines.append("    packet.priority = x")
    return "\n".join(lines) + "\n"


class _Packet:
    def __init__(self, src_port):
        self.src_ip, self.dst_ip = 1, 2
        self.src_port, self.dst_port, self.proto = src_port, 80, 6
        self.size = 1500
        self.priority = self.path_id = self.drop = 0
        self.to_controller = self.queue_id = self.charge = 0
        self.ecn = self.tenant = 0


class TestNestingBounds:
    """CPython compiles at most 100 levels of indentation and 20
    nested blocks, and generated code nests one level per loop body
    and per arm of an if (each short-circuit ``or`` opens one more).
    A deeper function is refused at install; it used to install and
    then raise ``IndentationError`` or ``SyntaxError`` out of
    ``process_packet`` once it turned hot."""

    @pytest.mark.parametrize("source, reason", [
        (_chain_source(120),
         "control structure nests 91 levels deep; at most 90 compile"),
        (_loops_source(19), "loops nest 19 deep; at most 18 compile"),
    ], ids=("120-term or chain", "19 nested loops"))
    def test_refused_at_install(self, source, reason):
        from repro.core import Enclave
        with pytest.raises(VerificationError, match=reason):
            Enclave().install_function(source)

    @pytest.mark.parametrize("source", [_chain_source(90),
                                        _loops_source(18)],
                             ids=("90-term or chain", "18 nested loops"))
    def test_just_under_the_bound_runs_hot_like_the_tree_walk(
            self, source):
        from repro.core import Enclave
        from repro.lang import pycodegen
        enclaves = {}
        for backend in ("interpreter", "tree"):
            enclave = enclaves[backend] = Enclave()
            enclave.install_function(source, name="f", backend=backend)
            enclave.install_rule("*", "f")
        plans = pycodegen.stats()["plans_compiled"]
        for port in range(0, 120, 3):
            got = []
            for enclave in enclaves.values():
                packet = _Packet(port)
                enclave.process_packet(packet)
                got.append(packet.priority)
            assert got[0] == got[1], port
        assert pycodegen.stats()["plans_compiled"] == plans + 1
