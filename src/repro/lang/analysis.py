"""One static analysis of a program's bytecode, computed once.

Everything that needs to know something about a program's instructions
before running them reads it from :func:`facts`: the verifier (is it
safe to install?), the generated-code backend (operand-stack depth per
pc, jump edges, which ops each function uses) and the enclave (which
field slots a run can change, and the concurrency level those writes
imply, Section 3.4.4).  The record is computed by one pass over every
function and cached on the :class:`~repro.lang.bytecode.Program`; it
depends only on the immutable bytecode, so nothing ever invalidates it.

A program with a violation is one :func:`repro.lang.verifier.verify`
rejects; the other fields of its record keep their defaults, and no
consumer reads them.
"""

from __future__ import annotations

import enum
from typing import List, NamedTuple, Optional, Tuple

from .bytecode import OPS_WITH_ARG, STACK_EFFECT, Op, Program


class ConcurrencyLevel(enum.Enum):
    """How many invocations of a program the enclave may run at once.

    Derived from the writes in the bytecode (Section 3.4.4):

    * ``PARALLEL`` — the program writes only packet state: any number of
      packets may be processed concurrently.
    * ``PER_MESSAGE`` — the program writes message state: at most one
      packet *per message* concurrently.
    * ``SERIAL`` — the program writes global state: one invocation at a
      time.
    """

    PARALLEL = "parallel"
    PER_MESSAGE = "per-message"
    SERIAL = "serial"


class Violation(NamedTuple):
    """The first reason the verifier rejects a program."""

    function: str
    pc: int
    reason: str


class ProgramFacts(NamedTuple):
    """What the bytecode of one program says before it runs."""

    #: The first violation (structure checks first, then stack
    #: discipline, function by function), or None.
    violation: Optional[Violation]
    #: Per function, the operand-stack depth before each pc; None
    #: where the pc is unreachable.
    depths: Tuple[Tuple[Optional[int], ...], ...] = ()
    #: Worst-case single-frame operand-stack depth over all functions.
    max_depth: int = 0
    #: Per function, ``(pc, target)`` of every JMP/JZ/JNZ, by pc.
    jumps: Tuple[Tuple[Tuple[int, int], ...], ...] = ()
    #: Per function, the distinct opcodes it contains, sorted.
    ops_used: Tuple[Tuple[Op, ...], ...] = ()
    #: Field-table slots some PUTF targets, sorted.  A slot outside
    #: them leaves every run with the value it came in with.
    written: Tuple[int, ...] = ()
    #: Whether any HSTORE exists; without one every array is unchanged.
    stores_to_heap: bool = False
    concurrency: ConcurrencyLevel = ConcurrencyLevel.SERIAL

    def uses(self, op: Op) -> bool:
        """Whether any function of the program contains ``op``."""
        return any(op in ops for ops in self.ops_used)


def facts(program: Program) -> ProgramFacts:
    """The program's facts, analysed on first request."""
    cached = getattr(program, "_facts", None)
    if cached is None:
        cached = _analyse(program)
        object.__setattr__(program, "_facts", cached)
    return cached


_JUMPS = frozenset({Op.JMP, Op.JZ, Op.JNZ})


def _analyse(program: Program) -> ProgramFacts:
    functions = program.functions
    fields = program.field_table
    n_arrays = len(program.array_table)
    n_functions = len(functions)
    depths: List[Tuple[Optional[int], ...]] = []
    jumps_per_fn: List[Tuple[Tuple[int, int], ...]] = []
    ops_per_fn: List[Tuple[Op, ...]] = []
    written = set()
    max_depth = 0
    if not n_functions:
        return ProgramFacts(Violation("", 0, "program has no functions"))
    for fn in functions:
        code = fn.code
        n = len(code)
        name = fn.name
        if not n:
            return ProgramFacts(Violation(name, 0, "empty function body"))
        if fn.n_args > fn.n_locals:
            return ProgramFacts(Violation(
                name, 0, f"frame of {fn.n_locals} locals cannot hold "
                f"{fn.n_args} arguments"))

        # Structure: every instruction, reachable or not.
        ops = set()
        jumps = []
        for pc, instr in enumerate(code):
            op = instr.op
            if op.__class__ is not Op:
                return ProgramFacts(Violation(
                    name, pc, f"unknown opcode {op!r}"))
            ops.add(op)
            if op not in OPS_WITH_ARG:
                continue
            arg = instr.arg
            if arg is None:
                return ProgramFacts(Violation(
                    name, pc, f"{op.name} missing argument"))
            if arg.__class__ is not int:
                return ProgramFacts(Violation(
                    name, pc, f"{op.name} argument must be an int, not "
                    f"{type(arg).__name__}"))
            if op in _JUMPS:
                if not 0 <= arg < n:
                    return ProgramFacts(Violation(
                        name, pc, f"jump target {arg} outside [0, {n})"))
                jumps.append((pc, arg))
            elif op is Op.GETF or op is Op.PUTF:
                if not 0 <= arg < len(fields):
                    return ProgramFacts(Violation(
                        name, pc, f"field index {arg} outside field table"))
                if op is Op.PUTF:
                    ref = fields[arg]
                    if not ref.writable:
                        return ProgramFacts(Violation(
                            name, pc, f"write to read-only field "
                            f"{ref.scope}.{ref.name}"))
                    written.add(arg)
            elif op is Op.ABASE or op is Op.ALEN:
                if not 0 <= arg < n_arrays:
                    return ProgramFacts(Violation(
                        name, pc, f"array index {arg} outside array table"))
            elif op is Op.CALL:
                if not 0 <= arg < n_functions:
                    return ProgramFacts(Violation(
                        name, pc, f"call target {arg} outside function "
                        f"table"))
            elif (op is Op.LOAD or op is Op.STORE) and \
                    not 0 <= arg < fn.n_locals:
                return ProgramFacts(Violation(
                    name, pc, f"local slot {arg} outside frame of "
                    f"{fn.n_locals}"))

        # Stack discipline: abstract interpretation of operand-stack
        # depth.  Every reachable pc sees one depth whatever the path,
        # the depth never goes negative, and no reachable path falls
        # past the last instruction.
        depth_at: List[Optional[int]] = [None] * n
        depth_at[0] = 0
        work = [0]
        while work:
            pc = work.pop()
            depth = depth_at[pc]
            instr = code[pc]
            op = instr.op
            if op is Op.CALL:
                pops, pushes = functions[instr.arg].n_args, 1
            elif op is Op.RET:
                if depth < 1:
                    return ProgramFacts(Violation(
                        name, pc, "RET with empty operand stack"))
                continue
            elif op is Op.HALT:
                continue
            else:
                pops, pushes = STACK_EFFECT[op]
            if depth < pops:
                return ProgramFacts(Violation(
                    name, pc, f"operand stack underflow: depth {depth}, "
                    f"{op.name} pops {pops}"))
            new_depth = depth - pops + pushes
            if new_depth > max_depth:
                max_depth = new_depth
            if op is Op.JMP:
                successors: Tuple[int, ...] = (instr.arg,)
            elif op is Op.JZ or op is Op.JNZ:
                successors = (instr.arg, pc + 1)
            else:
                successors = (pc + 1,)
            for succ in successors:
                if succ >= n:
                    return ProgramFacts(Violation(
                        name, pc,
                        "control flow can fall off the end of the code"))
                seen = depth_at[succ]
                if seen is None:
                    depth_at[succ] = new_depth
                    work.append(succ)
                elif seen != new_depth:
                    return ProgramFacts(Violation(
                        name, succ, f"inconsistent stack depth at merge "
                        f"point: {seen} vs {new_depth}"))
        depths.append(tuple(depth_at))
        jumps_per_fn.append(tuple(jumps))
        ops_per_fn.append(tuple(sorted(ops)))

    stores_to_heap = any(Op.HSTORE in ops for ops in ops_per_fn)
    scopes = {fields[i].scope for i in written}
    if stores_to_heap or "global" in scopes:
        level = ConcurrencyLevel.SERIAL
    elif "message" in scopes:
        level = ConcurrencyLevel.PER_MESSAGE
    else:
        level = ConcurrencyLevel.PARALLEL
    return ProgramFacts(
        violation=None, depths=tuple(depths), max_depth=max_depth,
        jumps=tuple(jumps_per_fn), ops_used=tuple(ops_per_fn),
        written=tuple(sorted(written)),
        stores_to_heap=stores_to_heap, concurrency=level)
