"""Shared helpers for the language-layer tests."""

import random

import pytest

from repro.lang import (AccessLevel, ArrayRef, DEFAULT_PACKET_SCHEMA,
                        Field, FieldKind, FieldRef, FunctionCode, Instr,
                        Interpreter, Lifetime, NativeFunction, Op,
                        Program, compile_action, schema, verify)

MSG_SCHEMA = schema("M", Lifetime.MESSAGE, [
    Field("counter", AccessLevel.READ_WRITE),
    Field("limit", AccessLevel.READ_ONLY, default=5),
])

GLB_SCHEMA = schema("G", Lifetime.GLOBAL, [
    Field("weights", AccessLevel.READ_ONLY, FieldKind.ARRAY),
    Field("records", AccessLevel.READ_ONLY, FieldKind.RECORD_ARRAY,
          record_fields=("lo", "hi")),
    Field("scratch", AccessLevel.READ_WRITE, FieldKind.ARRAY),
    Field("knob", AccessLevel.READ_WRITE),
])


class Harness:
    """Compile once, run against named fields/arrays conveniently."""

    def __init__(self, source, optimize_tail_calls=True,
                 message=True, glb=True):
        self.ast, self.program = compile_action(
            source,
            packet_schema=DEFAULT_PACKET_SCHEMA,
            message_schema=MSG_SCHEMA if message else None,
            global_schema=GLB_SCHEMA if glb else None,
            optimize_tail_calls=optimize_tail_calls)
        verify(self.program)

    def field_index(self, scope, name):
        for i, ref in enumerate(self.program.field_table):
            if (ref.scope, ref.name) == (scope, name):
                return i
        raise KeyError((scope, name))

    def run(self, backend="interpreter", fields=None, arrays=None,
            seed=0, clock=0, **interp_kwargs):
        fields = dict(fields or {})
        arrays = dict(arrays or {})
        fvec = []
        for ref in self.program.field_table:
            fvec.append(fields.get((ref.scope, ref.name), 0))
        avec = []
        for ref in self.program.array_table:
            avec.append(list(arrays.get((ref.scope, ref.name), [])))
        rng = random.Random(seed)
        if backend == "interpreter":
            interp = Interpreter(rng=rng, clock=lambda: clock,
                                 **interp_kwargs)
            result = interp.execute(self.program, fvec, avec)
        else:
            native = NativeFunction(self.ast, self.program, rng=rng,
                                    clock=lambda: clock)
            result = native.execute(fvec, avec)
        out_fields = {
            (ref.scope, ref.name): v
            for ref, v in zip(self.program.field_table, result.fields)}
        out_arrays = {
            (ref.scope, ref.name): v
            for ref, v in zip(self.program.array_table, result.arrays)}
        return result, out_fields, out_arrays


@pytest.fixture
def harness():
    return Harness


# -- bytecode the verifier rejects -------------------------------------

_REJECT_FIELDS = (FieldRef("packet", "priority", True),
                  FieldRef("packet", "size", False))
_REJECT_ARRAYS = (ArrayRef("global", "weights", 1, False),)


def _rejected(code, helper=None):
    extra = (helper,) if helper is not None else ()
    return lambda: Program(
        "rejected", (FunctionCode("f", 0, 2, tuple(code)),) + extra,
        _REJECT_FIELDS, _REJECT_ARRAYS)


def _two_arg_helper(n_locals):
    return FunctionCode("g", 2, n_locals,
                        (Instr(Op.CONST, 0), Instr(Op.RET)))


#: One hand-assembled program per class of violation the verifier
#: reports (bar "missing argument": ``Instr`` refuses to build one),
#: as ``pytest.param(build, reason)``: ``build()`` returns a
#: fresh Program (no tier state carried over) over the field table
#: ``(packet.priority rw, packet.size ro)`` and the array table
#: ``(global.weights ro)``; ``reason`` matches the VerificationError.
REJECTED_PROGRAMS = [
    pytest.param(_rejected([]), "empty function body",
                 id="empty_function"),
    pytest.param(_rejected([Instr(Op.JMP, 99), Instr(Op.CONST, 0),
                            Instr(Op.RET)]),
                 "jump target 99", id="jump_out_of_range"),
    pytest.param(_rejected([Instr(Op.GETF, 7), Instr(Op.RET)]),
                 "field index 7", id="field_index"),
    pytest.param(_rejected([Instr(Op.CONST, 1), Instr(Op.PUTF, 1),
                            Instr(Op.CONST, 0), Instr(Op.RET)]),
                 "write to read-only field packet.size",
                 id="readonly_putf"),
    pytest.param(_rejected([Instr(Op.ABASE, 3), Instr(Op.RET)]),
                 "array index 3", id="array_index"),
    pytest.param(_rejected([Instr(Op.CALL, 5), Instr(Op.RET)]),
                 "call target 5", id="call_target"),
    pytest.param(_rejected([Instr(Op.LOAD, 9), Instr(Op.RET)]),
                 "local slot 9", id="local_slot"),
    pytest.param(_rejected([Instr(Op.ADD), Instr(Op.RET)]),
                 "operand stack underflow", id="underflow"),
    pytest.param(_rejected([Instr(Op.CONST, 1), Instr(Op.CALL, 1),
                            Instr(Op.RET)], _two_arg_helper(2)),
                 "operand stack underflow", id="call_underflow"),
    pytest.param(_rejected([Instr(Op.RET)]),
                 "RET with empty operand stack", id="ret_empty"),
    pytest.param(_rejected([Instr(Op.CONST, 1)]),
                 "fall off the end", id="fall_off_end"),
    # Depth 0 or 2 at the join, depending on packet.size.
    pytest.param(_rejected([Instr(Op.GETF, 1), Instr(Op.JZ, 4),
                            Instr(Op.CONST, 1), Instr(Op.CONST, 2),
                            Instr(Op.CONST, 3), Instr(Op.RET)]),
                 "inconsistent stack depth", id="uneven_join"),
    pytest.param(_rejected([Instr(Op.CONST, 1), Instr(70, 1),
                            Instr(Op.RET)]),
                 "unknown opcode 70", id="raw_int_call"),
    pytest.param(_rejected([Instr(90), Instr(Op.CONST, 0),
                            Instr(Op.RET)]),
                 "unknown opcode 90", id="raw_int_halt"),
    pytest.param(_rejected([Instr(Op.JMP, "x"), Instr(Op.CONST, 0),
                            Instr(Op.RET)]),
                 "JMP argument must be an int", id="string_jump_target"),
    pytest.param(_rejected([Instr(Op.LOAD, 0.0), Instr(Op.RET)]),
                 "LOAD argument must be an int", id="float_local_slot"),
    pytest.param(_rejected([Instr(Op.CONST, 1), Instr(Op.CONST, 2),
                            Instr(Op.CALL, 1), Instr(Op.RET)],
                           _two_arg_helper(1)),
                 "frame of 1 locals cannot hold 2 arguments",
                 id="narrow_frame"),
]
