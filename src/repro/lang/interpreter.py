"""Stack-based bytecode interpreter for Eden action functions.

Per Section 3.4.3 and 4.1 of the paper: execution is stack based,
similar in spirit to the JVM; the interpreter uses a (bounded) operand
stack and heap; a faulty action function terminates *its own* execution
without affecting the rest of the system — here, a fault raises
:class:`InterpreterFault`, which the enclave catches and turns into a
"forward unmodified" decision.

The interpreter deliberately supports an *optional* op budget.  The
paper "chose not to restrict the complexity of the computation"
(Section 6); the default follows suit (no budget), but tests and
paranoid deployments can set one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .bytecode import Op, Program, wrap64

#: Default resource bounds ("relatively small programs that use limited
#: (operand) stack and heap space", Section 4.1).
DEFAULT_MAX_OPERAND_STACK = 256   # words
DEFAULT_MAX_CALL_DEPTH = 64       # frames
DEFAULT_MAX_HEAP_WORDS = 16384    # words
WORD_BYTES = 8


class InterpreterFault(Exception):
    """The action function faulted; the packet is forwarded unmodified."""

    def __init__(self, reason: str, program: str = "",
                 pc: int = -1) -> None:
        self.reason = reason
        self.program = program
        self.pc = pc
        super().__init__(f"{program}@{pc}: {reason}" if program
                         else reason)


@dataclass
class ExecStats:
    """Resource usage of one invocation (feeds the §5.4 micro-bench)."""

    ops_executed: int = 0
    max_operand_stack: int = 0    # words
    max_call_depth: int = 0
    heap_words: int = 0

    @property
    def stack_bytes(self) -> int:
        return self.max_operand_stack * WORD_BYTES

    @property
    def heap_bytes(self) -> int:
        return self.heap_words * WORD_BYTES


@dataclass
class ExecResult:
    """Outcome of one successful invocation.

    ``fields`` holds the (possibly updated) scalar state values in
    field-table order; ``arrays`` the (possibly updated) array contents
    in array-table order, flattened by stride.  The enclave runtime
    commits the writable entries back to its authoritative state.
    """

    value: int
    fields: List[int]
    arrays: List[List[int]]
    stats: ExecStats


class _Frame:
    __slots__ = ("func_index", "locals", "stack", "return_pc")

    def __init__(self, func_index: int, locals_: List[int],
                 return_pc: int) -> None:
        self.func_index = func_index
        self.locals = locals_
        self.stack: List[int] = []
        self.return_pc = return_pc


# -- shared helpers (used by the tree walk and the generated code) ------

def _make_locals(n_locals: int, args: Sequence[int]) -> List[int]:
    locals_ = list(args) + [0] * (n_locals - len(args))
    if len(locals_) < n_locals:
        raise InterpreterFault("too few arguments for frame")
    return locals_


def _copy_in(program: Program, fields: Sequence[int],
             arrays: Sequence[Sequence[int]], max_heap_words: int
             ) -> Tuple[List[int], List[int], List[int], List[int],
                        List[Tuple[int, int]]]:
    """Validate inputs and build the per-invocation state snapshot.

    Copy-in: scalars into a mutable field file, arrays into one
    contiguous heap (Section 3.4.4: the enclave "creates a consistent
    copy of the state needed by the program in the heap and stack").
    Returns ``(field_file, heap, bases, lengths, writable_ranges)``.
    """
    if len(fields) != len(program.field_table):
        raise InterpreterFault(
            f"expected {len(program.field_table)} fields, got "
            f"{len(fields)}", program.name)
    if len(arrays) != len(program.array_table):
        raise InterpreterFault(
            f"expected {len(program.array_table)} arrays, got "
            f"{len(arrays)}", program.name)
    field_file = [wrap64(v) for v in fields]
    heap: List[int] = []
    bases: List[int] = []
    lengths: List[int] = []
    writable_ranges: List[Tuple[int, int]] = []
    for ref, content in zip(program.array_table, arrays):
        if len(content) % ref.stride:
            raise InterpreterFault(
                f"array {ref.scope}.{ref.name}: length "
                f"{len(content)} not a multiple of stride "
                f"{ref.stride}", program.name)
        base = len(heap)
        bases.append(base)
        lengths.append(len(content) // ref.stride)
        heap.extend(wrap64(v) for v in content)
        if ref.writable:
            writable_ranges.append((base, len(heap)))
    if len(heap) > max_heap_words:
        raise InterpreterFault(
            f"heap of {len(heap)} words exceeds limit "
            f"{max_heap_words}", program.name)
    return field_file, heap, bases, lengths, writable_ranges


def state_word(value, scope: str, name: str, program: str) -> int:
    """``value``, read from the state slot ``scope.name``, as a 64-bit
    word: ``int()`` and the wrap.  The slow path of a state read
    in both enclave tiers, taken by any value that is not an exact
    in-range ``int``; a value ``int()`` refuses faults the invocation
    (Section 3.4.3) instead of escaping the enclave."""
    try:
        value = int(value)
    except (TypeError, ValueError, OverflowError):
        raise InterpreterFault(
            f"{scope}.{name} holds a {type(value).__name__}, not an "
            f"integer",
            program) from None
    return wrap64(value)


def _finish(program: Program, result: int, field_file: List[int],
            heap: List[int], bases: List[int], lengths: List[int],
            stats: ExecStats) -> ExecResult:
    arrays_out: List[List[int]] = []
    for i, ref in enumerate(program.array_table):
        base = bases[i]
        size = lengths[i] * ref.stride
        arrays_out.append(heap[base:base + size])
    return ExecResult(value=result, fields=field_file,
                      arrays=arrays_out, stats=stats)


class Interpreter:
    """Executes compiled programs against prepared state snapshots.

    One interpreter instance can be shared by all programs of an
    enclave; it holds only configuration (limits) plus the RNG and clock
    sources, not per-invocation state.

    ``dispatch`` names the execution backend in the
    :mod:`repro.lang.backends` registry.  The default, ``"pycodegen"``,
    runs a program as the generated straight-line Python of
    :mod:`repro.lang.pycodegen`, compiled on its first call;
    ``"tree"`` pins the decode-per-op reference loop.
    Those two are bit-for-bit identical (enforced by
    ``tests/lang/test_differential``); a backend registered later
    resolves the same way.
    """

    def __init__(self,
                 max_operand_stack: int = DEFAULT_MAX_OPERAND_STACK,
                 max_call_depth: int = DEFAULT_MAX_CALL_DEPTH,
                 max_heap_words: int = DEFAULT_MAX_HEAP_WORDS,
                 op_budget: Optional[int] = None,
                 rng: Optional[random.Random] = None,
                 clock: Optional[Callable[[], int]] = None,
                 dispatch: str = "pycodegen") -> None:
        self.max_operand_stack = max_operand_stack
        self.max_call_depth = max_call_depth
        self.max_heap_words = max_heap_words
        self.op_budget = op_budget
        self.rng = rng if rng is not None else random.Random(0)
        self.clock = clock if clock is not None else (lambda: 0)
        # Deferred import: backends imports from this module.
        from . import backends as _backends
        try:
            self._backend = _backends.get(dispatch)
        except KeyError:
            raise ValueError(
                f"dispatch must be one of "
                f"{', '.join(_backends.names())}; got {dispatch!r}"
            ) from None
        self.dispatch = dispatch
        # The one execute callable, bound once so the hot path pays no
        # registry lookup: ``self._execute(self, program, ...)``.
        self._execute = self._backend.execute

    def execute(self, program: Program,
                fields: Sequence[int],
                arrays: Sequence[Sequence[int]],
                args: Sequence[int] = ()) -> ExecResult:
        """Run ``program`` over a state snapshot.

        ``fields``/``arrays`` must align with the program's field and
        array tables (the enclave runtime prepares them; see
        ``repro.core.enclave``).  Array contents are flattened by
        stride.  Returns an :class:`ExecResult`; raises
        :class:`InterpreterFault` on any safety violation.
        """
        return self._execute(self, program, fields, arrays, args)

    def execute_batch(self, program: Program,
                      snapshots: Sequence[Tuple[Sequence[int],
                                                Sequence[Sequence[int]]]],
                      args: Sequence[int] = ()) -> List[object]:
        """Run ``program`` over a batch of state snapshots.

        The batched twin of :meth:`execute`: ``snapshots`` is a
        sequence of ``(fields, arrays)`` pairs and the result is a
        list, in order, of :class:`ExecResult` or — because batches
        must isolate faults per packet, exactly as the enclave does —
        the :class:`InterpreterFault` that invocation raised.

        Each entry is bit-for-bit identical to calling :meth:`execute`
        on the same interpreter with the same snapshot in the same
        order (shared RNG state included): the backend binds the
        program once per batch (``Backend.bind``), and the bound
        callable runs each snapshot.
        """
        run = self._backend.bind(self, program)
        out: List[object] = []
        for fields, arrays in snapshots:
            try:
                out.append(run(fields, arrays, args))
            except InterpreterFault as fault:
                out.append(fault)
        return out

    def execute_tree(self, program: Program,
                     fields: Sequence[int],
                     arrays: Sequence[Sequence[int]],
                     args: Sequence[int] = ()) -> ExecResult:
        """The original decode-per-op loop (the "slow path")."""
        field_file, heap, bases, lengths, writable_ranges = _copy_in(
            program, fields, arrays, self.max_heap_words)

        stats = ExecStats(heap_words=len(heap))
        entry = program.entry
        frame = _Frame(0, _make_locals(entry.n_locals, args),
                       return_pc=-1)
        frames: List[_Frame] = [frame]
        stats.max_call_depth = 1
        pc = 0
        code = entry.code
        budget = self.op_budget
        clock_value: Optional[int] = None
        # Operand-stack words held by frames *other than* the current
        # one; total depth = outer_depth + len(frame.stack).
        outer_depth = 0

        while True:
            if pc >= len(code):
                raise InterpreterFault("fell off end of code",
                                       program.name, pc)
            instr = code[pc]
            op = instr.op
            stack = frame.stack
            stats.ops_executed += 1
            if budget is not None and stats.ops_executed > budget:
                raise InterpreterFault(
                    f"op budget of {budget} exceeded",
                    program.name, pc)

            try:
                if op is Op.CONST:
                    stack.append(wrap64(instr.arg))
                elif op is Op.LOAD:
                    stack.append(frame.locals[instr.arg])
                elif op is Op.STORE:
                    frame.locals[instr.arg] = stack.pop()
                elif op is Op.POP:
                    stack.pop()
                elif op is Op.DUP:
                    stack.append(stack[-1])
                elif op is Op.SWAP:
                    stack[-1], stack[-2] = stack[-2], stack[-1]
                elif op is Op.ADD:
                    rhs = stack.pop()
                    stack[-1] = wrap64(stack[-1] + rhs)
                elif op is Op.SUB:
                    rhs = stack.pop()
                    stack[-1] = wrap64(stack[-1] - rhs)
                elif op is Op.MUL:
                    rhs = stack.pop()
                    stack[-1] = wrap64(stack[-1] * rhs)
                elif op is Op.DIV:
                    rhs = stack.pop()
                    if rhs == 0:
                        raise InterpreterFault("division by zero",
                                               program.name, pc)
                    stack[-1] = wrap64(stack[-1] // rhs)
                elif op is Op.MOD:
                    rhs = stack.pop()
                    if rhs == 0:
                        raise InterpreterFault("modulo by zero",
                                               program.name, pc)
                    stack[-1] = wrap64(stack[-1] % rhs)
                elif op is Op.NEG:
                    stack[-1] = wrap64(-stack[-1])
                elif op is Op.BAND:
                    rhs = stack.pop()
                    stack[-1] = wrap64(stack[-1] & rhs)
                elif op is Op.BOR:
                    rhs = stack.pop()
                    stack[-1] = wrap64(stack[-1] | rhs)
                elif op is Op.BXOR:
                    rhs = stack.pop()
                    stack[-1] = wrap64(stack[-1] ^ rhs)
                elif op is Op.BNOT:
                    stack[-1] = wrap64(~stack[-1])
                elif op is Op.SHL:
                    rhs = stack.pop()
                    if not 0 <= rhs < 64:
                        raise InterpreterFault(
                            f"shift amount {rhs} out of range",
                            program.name, pc)
                    stack[-1] = wrap64(stack[-1] << rhs)
                elif op is Op.SHR:
                    rhs = stack.pop()
                    if not 0 <= rhs < 64:
                        raise InterpreterFault(
                            f"shift amount {rhs} out of range",
                            program.name, pc)
                    stack[-1] = wrap64(stack[-1] >> rhs)
                elif op is Op.CEQ:
                    rhs = stack.pop()
                    stack[-1] = 1 if stack[-1] == rhs else 0
                elif op is Op.CNE:
                    rhs = stack.pop()
                    stack[-1] = 1 if stack[-1] != rhs else 0
                elif op is Op.CLT:
                    rhs = stack.pop()
                    stack[-1] = 1 if stack[-1] < rhs else 0
                elif op is Op.CLE:
                    rhs = stack.pop()
                    stack[-1] = 1 if stack[-1] <= rhs else 0
                elif op is Op.CGT:
                    rhs = stack.pop()
                    stack[-1] = 1 if stack[-1] > rhs else 0
                elif op is Op.CGE:
                    rhs = stack.pop()
                    stack[-1] = 1 if stack[-1] >= rhs else 0
                elif op is Op.NOTL:
                    stack[-1] = 1 if stack[-1] == 0 else 0
                elif op is Op.JMP:
                    pc = instr.arg
                    continue
                elif op is Op.JZ:
                    if stack.pop() == 0:
                        pc = instr.arg
                        continue
                elif op is Op.JNZ:
                    if stack.pop() != 0:
                        pc = instr.arg
                        continue
                elif op is Op.GETF:
                    stack.append(field_file[instr.arg])
                elif op is Op.PUTF:
                    ref = program.field_table[instr.arg]
                    if not ref.writable:
                        raise InterpreterFault(
                            f"write to read-only field "
                            f"{ref.scope}.{ref.name}",
                            program.name, pc)
                    field_file[instr.arg] = stack.pop()
                elif op is Op.ABASE:
                    stack.append(bases[instr.arg])
                elif op is Op.ALEN:
                    stack.append(lengths[instr.arg])
                elif op is Op.HLOAD:
                    addr = stack.pop()
                    if not 0 <= addr < len(heap):
                        raise InterpreterFault(
                            f"heap read at {addr} out of bounds "
                            f"(heap has {len(heap)} words)",
                            program.name, pc)
                    stack.append(heap[addr])
                elif op is Op.HSTORE:
                    addr = stack.pop()
                    value = stack.pop()
                    if not any(lo <= addr < hi
                               for lo, hi in writable_ranges):
                        raise InterpreterFault(
                            f"heap write at {addr} outside writable "
                            f"regions", program.name, pc)
                    heap[addr] = value
                elif op is Op.CALL:
                    callee = program.functions[instr.arg]
                    if len(frames) >= self.max_call_depth:
                        raise InterpreterFault(
                            f"call depth exceeds "
                            f"{self.max_call_depth}",
                            program.name, pc)
                    if len(stack) < callee.n_args:
                        raise InterpreterFault(
                            "operand stack underflow at call",
                            program.name, pc)
                    new_locals = _make_locals(
                        callee.n_locals,
                        stack[len(stack) - callee.n_args:])
                    del stack[len(stack) - callee.n_args:]
                    outer_depth += len(stack)
                    frame = _Frame(instr.arg, new_locals,
                                   return_pc=pc + 1)
                    frames.append(frame)
                    stats.max_call_depth = max(stats.max_call_depth,
                                               len(frames))
                    code = callee.code
                    pc = 0
                    continue
                elif op is Op.RET:
                    result = stack.pop() if stack else 0
                    frames.pop()
                    if not frames:
                        return _finish(
                            program, result, field_file, heap,
                            bases, lengths, stats)
                    return_pc = frame.return_pc
                    frame = frames[-1]
                    frame.stack.append(result)
                    outer_depth -= len(frame.stack) - 1
                    code = program.functions[frame.func_index].code
                    pc = return_pc
                    continue
                elif op is Op.RAND:
                    bound = stack.pop()
                    if bound <= 0:
                        raise InterpreterFault(
                            f"rand bound {bound} must be positive",
                            program.name, pc)
                    stack.append(self.rng.randrange(bound))
                elif op is Op.CLOCK:
                    if clock_value is None:
                        clock_value = wrap64(self.clock())
                    stack.append(clock_value)
                elif op is Op.HALT:
                    result = stack.pop() if stack else 0
                    return _finish(program, result, field_file,
                                   heap, bases, lengths, stats)
                else:
                    raise InterpreterFault(
                        f"unknown opcode {op!r}", program.name, pc)
            except IndexError:
                raise InterpreterFault(
                    "operand stack underflow", program.name, pc
                ) from None
            pc += 1
            depth = outer_depth + len(frame.stack)
            if depth > stats.max_operand_stack:
                stats.max_operand_stack = depth
                if depth > self.max_operand_stack:
                    raise InterpreterFault(
                        f"operand stack of {depth} words exceeds "
                        f"limit {self.max_operand_stack}",
                        program.name, pc)
