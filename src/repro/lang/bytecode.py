"""Bytecode ISA for the Eden enclave interpreter.

The interpreter is a stack machine "similar in spirit to the JVM"
(Section 4.1).  Values on the operand stack are 64-bit signed integers;
the paper's language subset has no floating point, objects or exceptions.

Arrays live in a flat integer *heap*, populated by the enclave runtime at
invocation time with a consistent copy of the message/global arrays the
program needs (Section 3.4.4: "more complicated types, such as arrays,
are placed in the program heap ... by copying the values from the flow or
function state").  Bytecode addresses the heap through ``ABASE``/``ALEN``
plus ordinary arithmetic, with every access bounds-checked by ``HLOAD``/
``HSTORE``.

Scalar state variables (packet, message, and global integers) are
accessed through a per-program *field table* built by the compiler:
``GETF``/``PUTF`` carry an index into that table.  Access control is
checked both at compile time and when the interpreter commits writes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

INT_BITS = 64
INT_MASK = (1 << INT_BITS) - 1
INT_MIN = -(1 << (INT_BITS - 1))
INT_MAX = (1 << (INT_BITS - 1)) - 1


def wrap64(value: int) -> int:
    """Wrap a Python int to 64-bit two's-complement semantics."""
    value &= INT_MASK
    if value > INT_MAX:
        value -= 1 << INT_BITS
    return value


class Op(enum.IntEnum):
    """Opcodes of the Eden stack machine."""

    # Constants and locals
    CONST = 1        # arg: value            -> push value
    LOAD = 2         # arg: slot             -> push local[slot]
    STORE = 3        # arg: slot             -> local[slot] = pop

    # Stack manipulation
    POP = 10         # discard top of stack
    DUP = 11         # duplicate top of stack
    SWAP = 12        # swap top two values

    # Arithmetic (binary ops pop rhs then lhs, push result)
    ADD = 20
    SUB = 21
    MUL = 22
    DIV = 23         # truncated toward negative infinity (Python //)
    MOD = 24
    NEG = 25
    BAND = 26
    BOR = 27
    BXOR = 28
    BNOT = 29
    SHL = 30
    SHR = 31

    # Comparisons (push 1 or 0)
    CEQ = 40
    CNE = 41
    CLT = 42
    CLE = 43
    CGT = 44
    CGE = 45
    NOTL = 46        # logical not: push (pop == 0)

    # Control flow
    JMP = 50         # arg: target pc
    JZ = 51          # arg: target pc; jump if pop == 0
    JNZ = 52         # arg: target pc; jump if pop != 0

    # State access
    GETF = 60        # arg: field-table index -> push field value
    PUTF = 61        # arg: field-table index; field = pop
    ABASE = 62       # arg: array-table index -> push heap base address
    ALEN = 63        # arg: array-table index -> push element count
    HLOAD = 64       # pop addr -> push heap[addr]
    HSTORE = 65      # pop addr, pop value -> heap[addr] = value

    # Procedure calls (non-tail recursion; tail calls become JMPs)
    CALL = 70        # arg: function index; operands already on stack
    RET = 71         # return to caller with top of stack as result

    # Builtins (Section 4.1: random numbers, high-frequency clock)
    RAND = 80        # pop bound -> push uniform integer in [0, bound)
    CLOCK = 81       # push current time in nanoseconds

    HALT = 90        # stop; top of stack (if any) is the program result


#: Opcodes that carry an immediate argument.
OPS_WITH_ARG = frozenset({
    Op.CONST, Op.LOAD, Op.STORE, Op.JMP, Op.JZ, Op.JNZ,
    Op.GETF, Op.PUTF, Op.ABASE, Op.ALEN, Op.CALL,
})

#: (pops, pushes) stack effect per opcode; CALL/RET are special-cased in
#: the verifier.
STACK_EFFECT = {
    Op.CONST: (0, 1), Op.LOAD: (0, 1), Op.STORE: (1, 0),
    Op.POP: (1, 0), Op.DUP: (1, 2), Op.SWAP: (2, 2),
    Op.ADD: (2, 1), Op.SUB: (2, 1), Op.MUL: (2, 1), Op.DIV: (2, 1),
    Op.MOD: (2, 1), Op.NEG: (1, 1), Op.BAND: (2, 1), Op.BOR: (2, 1),
    Op.BXOR: (2, 1), Op.BNOT: (1, 1), Op.SHL: (2, 1), Op.SHR: (2, 1),
    Op.CEQ: (2, 1), Op.CNE: (2, 1), Op.CLT: (2, 1), Op.CLE: (2, 1),
    Op.CGT: (2, 1), Op.CGE: (2, 1), Op.NOTL: (1, 1),
    Op.JMP: (0, 0), Op.JZ: (1, 0), Op.JNZ: (1, 0),
    Op.GETF: (0, 1), Op.PUTF: (1, 0),
    Op.ABASE: (0, 1), Op.ALEN: (0, 1),
    Op.HLOAD: (1, 1), Op.HSTORE: (2, 0),
    Op.RAND: (1, 1), Op.CLOCK: (0, 1),
    Op.HALT: (0, 0), Op.RET: (1, 0),
    # Op.CALL handled specially (depends on callee arity)
}


@dataclass(frozen=True)
class Instr:
    """A single instruction: opcode plus optional immediate argument."""

    op: Op
    arg: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op in OPS_WITH_ARG:
            if self.arg is None:
                raise ValueError(f"{self.op.name} requires an argument")
        elif self.arg is not None:
            raise ValueError(f"{self.op.name} takes no argument")

    def __repr__(self) -> str:
        if self.arg is None:
            return self.op.name
        return f"{self.op.name} {self.arg}"


@dataclass(frozen=True)
class FieldRef:
    """Entry in a program's field table: a scalar state variable.

    ``scope`` is one of ``"packet"``, ``"message"``, ``"global"`` and
    ``writable`` records the declared access level so the interpreter can
    reject PUTFs to read-only state even if a verifier was bypassed.
    """

    scope: str
    name: str
    writable: bool


@dataclass(frozen=True)
class ArrayRef:
    """Entry in a program's array table: an array state variable.

    ``stride`` is the number of heap words per element (>1 for record
    arrays).  ``writable`` marks whether HSTOREs into the array's heap
    region are allowed and whether it is copied back on commit.
    """

    scope: str
    name: str
    stride: int
    writable: bool


@dataclass(frozen=True)
class FunctionCode:
    """Bytecode of one compiled function (entry point or helper)."""

    name: str
    n_args: int
    n_locals: int
    code: Tuple[Instr, ...]

    def __len__(self) -> int:
        return len(self.code)


@dataclass(frozen=True)
class Program:
    """A fully compiled action function.

    ``functions[0]`` is the entry point; further entries are nested
    helper functions reachable through CALL.  The field and array tables
    are shared across all functions of the program.
    """

    name: str
    functions: Tuple[FunctionCode, ...]
    field_table: Tuple[FieldRef, ...]
    array_table: Tuple[ArrayRef, ...]
    source: str = ""

    @property
    def entry(self) -> FunctionCode:
        return self.functions[0]

    def function_index(self, name: str) -> int:
        for i, f in enumerate(self.functions):
            if f.name == name:
                return i
        raise KeyError(name)

    def disassemble(self) -> str:
        """Human-readable listing of all functions in the program."""
        lines: List[str] = [f"program {self.name}"]
        for fi, fn in enumerate(self.functions):
            lines.append(
                f"  fn[{fi}] {fn.name} args={fn.n_args} "
                f"locals={fn.n_locals}")
            for pc, instr in enumerate(fn.code):
                note = ""
                if instr.op in (Op.GETF, Op.PUTF):
                    ref = self.field_table[instr.arg]
                    note = f"    ; {ref.scope}.{ref.name}"
                elif instr.op in (Op.ABASE, Op.ALEN):
                    ref = self.array_table[instr.arg]
                    note = f"    ; {ref.scope}.{ref.name}"
                elif instr.op is Op.CALL:
                    note = f"    ; {self.functions[instr.arg].name}"
                lines.append(f"    {pc:4d}: {instr!r}{note}")
        return "\n".join(lines)


class Assembler:
    """Small helper for emitting bytecode with labelled jumps.

    The compiler uses one assembler per function; labels are resolved to
    instruction indices when :meth:`finish` is called.
    """

    def __init__(self, name: str, n_args: int) -> None:
        self.name = name
        self.n_args = n_args
        self._instrs: List[Tuple[Op, object]] = []
        self._labels: dict = {}
        self._next_label = 0

    def emit(self, op: Op, arg: Optional[int] = None) -> int:
        """Append an instruction; returns its index."""
        self._instrs.append((op, arg))
        return len(self._instrs) - 1

    def new_label(self) -> str:
        self._next_label += 1
        return f"L{self._next_label}"

    def emit_jump(self, op: Op, label: str) -> int:
        """Append a jump to a label resolved later."""
        self._instrs.append((op, label))
        return len(self._instrs) - 1

    def bind(self, label: str) -> None:
        """Bind ``label`` to the next instruction index."""
        if label in self._labels:
            raise ValueError(f"label {label} bound twice")
        self._labels[label] = len(self._instrs)

    @property
    def here(self) -> int:
        return len(self._instrs)

    def finish(self, n_locals: int) -> FunctionCode:
        """Resolve labels and freeze the function's bytecode."""
        code: List[Instr] = []
        for op, arg in self._instrs:
            if isinstance(arg, str):
                if arg not in self._labels:
                    raise ValueError(f"unbound label {arg}")
                arg = self._labels[arg]
            code.append(Instr(op, arg))
        return FunctionCode(name=self.name, n_args=self.n_args,
                            n_locals=n_locals, code=tuple(code))
