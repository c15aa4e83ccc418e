"""One static analysis of a program's bytecode, computed once.

Everything that needs to know something about a program's instructions
before running them reads it from :func:`facts`: the verifier (is it
safe to install?), the generated-code backend (operand-stack depth per
pc, each function's control structure, which ops each function uses)
and the enclave (which field slots a run can change, and the
concurrency level those writes imply, Section 3.4.4).  The record is
computed by one pass over every function and cached on the
:class:`~repro.lang.bytecode.Program`; it depends only on the immutable
bytecode, so nothing ever invalidates it.

Each function's reachable code must nest into the loop and if/else
shapes the compiler and its peephole pass emit (:class:`Block` and the
classes after it); anything else is a violation, so the generated-code
backend can write every verified function as ``while``/``if``.  So is
a nest Python would refuse to compile: deeper than
:data:`MAX_HEIGHT` levels of indentation, or than :data:`MAX_LOOPS`
loops.

A program with a violation is one :func:`repro.lang.verifier.verify`
rejects; the other fields of its record keep their defaults, and no
consumer reads them.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from .bytecode import OPS_WITH_ARG, STACK_EFFECT, Instr, Op, Program

#: Deepest structure the generated-code backend renders.  CPython's
#: tokenizer stops at 100 levels of indentation; the plan puts a body
#: two levels in (``def``, ``try``) and one op adds at most two more.
MAX_HEIGHT = 90
#: Most loops nested in one another.  CPython compiles at most 20
#: nested blocks; the plan's ``try`` and an HSTORE's ``for`` take two.
MAX_LOOPS = 18


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


class Block(NamedTuple):
    """A run of code in pc order: bare pcs (an ordinary op, a RET or
    HALT, a JZ/JNZ to the next pc, a JMP forward over dead code) and
    the shapes nested in it; dead code appears nowhere.  ``falls`` is
    whether control can leave through its end; ``height`` is how many
    levels of indentation its shapes nest when rendered (a loop body or
    an arm of an if is one level in, and a copied else-block counts
    wherever it is rendered)."""

    items: tuple
    falls: bool
    height: int


class Loop(NamedTuple):
    """``while True:`` over ``[header, end)``; ``end`` is its follow."""

    header: int
    end: int
    body: Block


class Exit(NamedTuple):
    """The JMP, JZ or JNZ at ``pc`` to the innermost loop's header
    (``"continue"``) or end (``"break"``)."""

    pc: int
    kind: str


class If(NamedTuple):
    """The JZ/JNZ at ``pc`` guards ``then``, its fall-through side.  A
    plain ``if`` (``join`` None) rejoins at the branch target; an
    if/else's then-part ends in a ``JMP join`` just before the target,
    where ``orelse`` starts (None when it is empty)."""

    pc: int
    then: Block
    orelse: Optional[Block]
    join: Optional[int]


class Split(NamedTuple):
    """The JZ/JNZ at ``pc`` in an if/else's then-part divides the rest
    of that then-part into two arms, ``taken`` and ``fallen``, that
    each end at the join.  ``fallen`` still runs the then-part's
    trailing JMP, and ``taken`` does when ``charge`` is 1.  The branch
    goes to the else-block (short-circuit ``and``/``or``: ``taken``
    is that block, copied), straight to the join (threading's work:
    ``taken`` is empty), or past a nested then-part that ends in a JMP
    straight to the join (``fallen`` is that part, ``taken`` the rest,
    ``charge`` 1)."""

    pc: int
    taken: Block
    fallen: Block
    charge: int


class ProgramFacts(NamedTuple):
    """What the bytecode of one program says before it runs."""

    #: The first violation (table entries first, then function by
    #: function: instructions, stack discipline, structure), or None.
    violation: Optional[Violation]
    #: Per function, the operand-stack depth before each pc; None
    #: where the pc is unreachable.
    depths: Tuple[Tuple[Optional[int], ...], ...] = ()
    #: Worst-case single-frame operand-stack depth over all functions.
    max_depth: int = 0
    #: Per function, its control structure: the root :class:`Block`.
    structure: Tuple[Block, ...] = ()
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
    structure_per_fn: List[Block] = []
    ops_per_fn: List[Tuple[Op, ...]] = []
    written = set()
    max_depth = 0
    if not n_functions:
        return ProgramFacts(Violation("", 0, "program has no functions"))
    reason = _table_violation(program)
    if reason is not None:
        return ProgramFacts(Violation(program.entry.name, 0, reason))
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

        # Every instruction, reachable or not.
        ops = set()
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

        # Control structure, over reachable code.
        try:
            structure = _Walk(code, depth_at).block(0, n)
        except _Unstructured as bad:
            return ProgramFacts(Violation(name, *bad.args))
        depths.append(tuple(depth_at))
        structure_per_fn.append(structure)
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
        structure=tuple(structure_per_fn), ops_used=tuple(ops_per_fn),
        written=tuple(sorted(written)),
        stores_to_heap=stores_to_heap, concurrency=level)


_FIELD_REF = (("scope", str), ("name", str), ("writable", bool))
_ARRAY_REF = _FIELD_REF + (("stride", int),)


def _table_violation(program: Program) -> Optional[str]:
    """Table entries are made of exact builtins: generated code splices
    names and strides into Python source, where a ``str`` or ``int``
    subclass's own ``__repr__`` or ``__format__`` would write code of
    its choosing."""
    for kind, refs, attrs in (("field", program.field_table, _FIELD_REF),
                              ("array", program.array_table, _ARRAY_REF)):
        for i, ref in enumerate(refs):
            for attr, want in attrs:
                value = getattr(ref, attr, None)
                if value.__class__ is not want:
                    return (f"{kind} table entry {i}: {attr} must be of "
                            f"type {want.__name__}, not "
                            f"{type(value).__name__}")
    return None


def _loops(code: Tuple[Instr, ...],
           depth_at: List[Optional[int]]) -> Dict[int, int]:
    """Each loop's region ``[header, end)``, by header: the one rule.

    A header is the target of a reachable backward jump.  Its region
    runs past the last such jump, takes in a ``JMP end + 1`` just after
    it (the compiler's for-loop exit), then runs on to the furthest pc
    a reachable jump inside it targets: a tail after the last back edge
    (a search loop's ``return`` on a hit) belongs to the loop, and
    every jump out of it goes to its one follow, ``end``."""
    last: Dict[int, int] = {}
    for pc, instr in enumerate(code):
        if instr.op in _JUMPS and instr.arg <= pc and \
                depth_at[pc] is not None:
            last[instr.arg] = pc
    n = len(code)
    loops: Dict[int, int] = {}
    for header, source in last.items():
        end = source + 1
        if end < n and code[end].op is Op.JMP and code[end].arg == end + 1:
            end += 1
        pc = header
        while pc < end:
            instr = code[pc]
            if instr.op in _JUMPS and instr.arg > end and \
                    depth_at[pc] is not None:
                end = instr.arg
            pc += 1
        loops[header] = end
    return loops


class _Unstructured(Exception):
    """``(pc, reason)``: reachable code the shapes do not cover."""


class _Walk:
    """Recovers one function's structure, or raises
    :class:`_Unstructured`.  Every reachable pc is placed once (an
    else-block that branches copy is walked once and shared), so the
    walk is linear in the code."""

    def __init__(self, code: Tuple[Instr, ...],
                 depth_at: List[Optional[int]]) -> None:
        self.code = code
        self.depth_at = depth_at
        self.loops = _loops(code, depth_at)
        self.open: List[Tuple[int, int]] = []    # (header, end) stack
        self.shared: Dict[Tuple[int, int], Block] = {}

    @staticmethod
    def _nested(pc: int, *arms: Optional[Block]) -> int:
        """The height of a shape at ``pc`` one level above ``arms``."""
        height = 1 + max(arm.height for arm in arms if arm is not None)
        if height > MAX_HEIGHT:
            raise _Unstructured(
                pc, f"control structure nests {height} levels deep; "
                f"at most {MAX_HEIGHT} compile")
        return height

    def _else(self, start: int, join: int) -> Block:
        """The else-block ``[start, join)``, walked once."""
        block = self.shared.get((start, join))
        if block is None:
            block = self.shared[start, join] = self.block(start, join)
        return block

    def block(self, start: int, end: int,
              escape: Optional[Tuple[int, int]] = None) -> Block:
        """The block over ``[start, end)``.  ``escape`` is ``(else
        start, join)`` while walking the rest of an if/else's
        then-part, which ``end`` closes with its JMP to the join."""
        code = self.code
        depth_at = self.depth_at
        loops = self.loops
        open_ = self.open
        items: list = []
        height = 0
        pc = start
        while pc < end:
            if pc in loops and (not open_ or open_[-1][0] != pc):
                loop_end = loops[pc]
                if loop_end > end:
                    raise _Unstructured(
                        pc, f"loop {pc}-{loop_end} crosses the end "
                        f"{end} of the block around it")
                if len(open_) == MAX_LOOPS:
                    raise _Unstructured(
                        pc, f"loops nest {MAX_LOOPS + 1} deep; at most "
                        f"{MAX_LOOPS} compile")
                open_.append((pc, loop_end))
                body = self.block(pc, loop_end)
                open_.pop()
                items.append(Loop(pc, loop_end, body))
                height = max(height, self._nested(pc, body))
                pc = loop_end
                continue
            if depth_at[pc] is None:
                pc += 1
                continue
            instr = code[pc]
            op = instr.op
            if op is Op.RET or op is Op.HALT:
                items.append(pc)
                break
            if op not in _JUMPS:
                items.append(pc)
                pc += 1
                continue
            target = instr.arg
            branch = op is not Op.JMP
            if branch and escape is not None and target in escape:
                split = Split(pc, self._else(target, escape[1]),
                              self.block(pc + 1, end, escape), 0)
                items.append(split)
                return Block(tuple(items), False, max(height, self._nested(
                    pc, split.taken, split.fallen)))
            if open_ and target in open_[-1]:
                items.append(Exit(pc, "continue"
                                  if target == open_[-1][0] else "break"))
                if not branch:
                    break
                pc += 1
                continue
            if not pc < target <= end:
                raise _Unstructured(
                    pc, f"{op.name} {target} is neither a loop exit nor "
                    f"a jump forward in its block")
            if not branch:
                for skipped in range(pc + 1, target):
                    if depth_at[skipped] is not None:
                        raise _Unstructured(
                            pc, f"JMP {target} skips reachable code "
                            f"at {skipped}")
                items.append(pc)
                pc = target
                continue
            if target == pc + 1:
                items.append(pc)
                pc += 1
                continue
            last = code[target - 1]
            if last.op is Op.JMP:
                join = last.arg
                if target <= join <= end and \
                        not (open_ and join == open_[-1][0]):
                    then = self.block(pc + 1, target - 1, (target, join))
                    orelse = self._else(target, join) \
                        if join > target else None
                    items.append(If(pc, then, orelse, join))
                    height = max(height, self._nested(pc, then, orelse))
                    pc = join
                    continue
                if escape is not None and join == escape[1] and \
                        not (open_ and join in open_[-1]):
                    then = self.block(pc + 1, target - 1, (join, join))
                    taken = self.block(target, end, escape)
                    items.append(Split(pc, taken, then, 1))
                    return Block(tuple(items), False, max(
                        height, self._nested(pc, taken, then)))
            then = self.block(pc + 1, target)
            items.append(If(pc, then, None, None))
            height = max(height, self._nested(pc, then))
            pc = target
        else:
            return Block(tuple(items), True, height)
        # A RET, HALT or loop exit ended the block: the rest is dead.
        for after in range(pc + 1, end):
            if depth_at[after] is not None:
                raise _Unstructured(
                    after, "reachable code after the end of its block")
        return Block(tuple(items), False, height)
