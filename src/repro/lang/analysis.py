"""One static analysis of a program's bytecode, computed once.

Everything that needs to know something about a program's instructions
before running them reads it from :func:`facts`: the verifier (is it
safe to install?), the generated-code backend (operand-stack depth per
pc, each function's control structure, which ops each function uses,
the value :class:`Intervals` that leave a wrap or a heap test idle, and
the worst-case stack and call chain of one run — :class:`Bounds` —
that its entry test holds against the limits) and the enclave (which
slots a run reads before writing them, may write and must write —
:class:`Effects`, from which both enclave tiers decide what to read
and write back — and the concurrency level the writes imply, Section
3.4.4).  The record is computed on first request and cached on the
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
import heapq
import sys
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .bytecode import (INT_MAX, INT_MIN, OPS_WITH_ARG, STACK_EFFECT,
                       Instr, Op, Program, wrap64)

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


class Bounds(NamedTuple):
    """What one invocation of a verified program can use at most, on
    every path, faulting ones included; None where no bound is proven.

    ``stack`` is the operand stack across frames, as the tree walk
    measures it (``ExecStats.max_operand_stack``): exact over an
    acyclic call graph, None over a cyclic one.  ``calls`` is the
    longest call chain in frames (``ExecStats.max_call_depth``), None
    over a cyclic call graph.  ``frame`` is the deepest operand stack
    any one frame holds, so ``frame`` times the call-depth limit bounds
    the stack of a run whose call chain that limit cuts.  No op count
    is bounded: a run under an op budget is the tree walk's, which
    counts every op.
    """

    stack: Optional[int] = None
    calls: Optional[int] = None
    frame: int = 0


class SlotEffects(NamedTuple):
    """What one invocation does to the slots of one scope, as sorted
    slot indices: field-table slots for packet, message and global
    state, array-table slots for arrays."""

    #: Slots some path reads before writing them (a GETF in a callee
    #: counts).
    read: Tuple[int, ...] = ()
    #: Slots some PUTF (or, for arrays, some HSTORE) may write.
    may_write: Tuple[int, ...] = ()
    #: Slots every normal exit — a RET of the entry, or a HALT anywhere
    #: — has written: the invocation leaves them holding what it wrote.
    must_write: Tuple[int, ...] = ()


#: The scopes of :attr:`Effects.scopes`, in the order the tiers commit.
SCOPES = ("packet", "message", "global", "array")


class Effects(NamedTuple):
    """The per-slot effects of one invocation, over every path.

    ``scopes`` maps each scope of :data:`SCOPES` to its
    :class:`SlotEffects`.  An array's contents are read whole (every
    array's length places the ones after it on the heap) and written
    word by word, so arrays are all read, their may-write set is the
    writable arrays when the program has an HSTORE at all, and no
    array is must-written.

    ``loads`` are the field slots a tier reads before the body: the
    read set, the slots written on some paths but not on all (each
    exit writes every may-write slot back, so a path that leaves one
    alone writes back what it came in with), and — when some callee
    has a GETF or PUTF, so the plan hands every slot to its callees
    (``callee_fields``) — every slot.  A slot outside ``loads`` is
    never converted: it is not read at all, or every exit has written
    it before any read.
    """

    scopes: Dict[str, SlotEffects]
    loads: Tuple[int, ...] = ()
    callee_fields: bool = False

    @property
    def written(self) -> Tuple[int, ...]:
        """Field slots some PUTF may write, in slot order."""
        return tuple(sorted(i for scope in SCOPES[:3]
                            for i in self.scopes[scope].may_write))


class Intervals(NamedTuple):
    """What the interval pass proves of one function's code, on every
    path that reaches each pc.

    ``exact`` holds the pcs of the ADD, SUB, MUL, NEG, SHL and DIV whose
    result, computed from words, is a word: the 64-bit wrap there is
    the identity.  ``in_bounds`` holds the pcs of the HLOADs, and of
    the HSTOREs into a writable array, whose address is ``ABASE k +
    x*stride + off`` with ``0 <= x < ALEN k`` and ``0 <= off <
    stride`` of array ``k``: the address lies in ``k``'s region of the
    heap, so the heap test always passes, and the ops that form it are
    exact."""

    exact: FrozenSet[int] = frozenset()
    in_bounds: FrozenSet[int] = frozenset()


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
    #: Per-slot read, may-write and must-write sets, per scope.  A slot
    #: outside every may-write set leaves every run with the value it
    #: came in with.
    effects: Effects = Effects({scope: SlotEffects() for scope in SCOPES})
    concurrency: ConcurrencyLevel = ConcurrencyLevel.SERIAL
    #: Worst-case stack and call chain of one invocation.
    bounds: Bounds = Bounds()
    #: Per function, its :class:`Intervals`: the wraps and heap tests
    #: that value ranges prove idle.
    intervals: Tuple[Intervals, ...] = ()

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

    effects = _effects(program, ops_per_fn, written)
    if any(Op.HSTORE in ops for ops in ops_per_fn) or \
            effects.scopes["global"].may_write:
        level = ConcurrencyLevel.SERIAL
    elif effects.scopes["message"].may_write:
        level = ConcurrencyLevel.PER_MESSAGE
    else:
        level = ConcurrencyLevel.PARALLEL
    return ProgramFacts(
        violation=None, depths=tuple(depths), max_depth=max_depth,
        structure=tuple(structure_per_fn), ops_used=tuple(ops_per_fn),
        effects=effects, concurrency=level,
        bounds=_bounds(program, depths), intervals=_intervals(program))


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


# -- per-slot effects ---------------------------------------------------

class _Summary(NamedTuple):
    """One function's effects on field slots, as bit masks over slot
    indices, from its entry with nothing written: ``reads``, the slots
    some path reads before writing them; ``ret`` and ``halt``, the
    slots written on every path to one of its RETs, and to a HALT in it
    or in a callee — None while no such path is known."""

    reads: int = 0
    ret: Optional[int] = None
    halt: Optional[int] = None


def _meet(known: Optional[int], more: int) -> int:
    return more if known is None else known & more


def _summarise(code: Tuple[Instr, ...],
               summaries: List[_Summary]) -> _Summary:
    """One function's :class:`_Summary`, its callees' taken as given:
    a forward pass over the slots written on every path to each pc,
    met where paths join."""
    done: List[Optional[int]] = [None] * len(code)
    done[0] = 0
    work = [0]
    reads = 0
    ret = halt = None
    while work:
        pc = work.pop()
        written = done[pc]
        op, arg = code[pc].op, code[pc].arg
        if op is Op.GETF:
            reads |= (1 << arg) & ~written
        elif op is Op.PUTF:
            written |= 1 << arg
        elif op is Op.CALL:
            callee = summaries[arg]
            reads |= callee.reads & ~written
            if callee.halt is not None:
                halt = _meet(halt, written | callee.halt)
            if callee.ret is None:
                continue            # it never returns: nothing follows
            written |= callee.ret
        elif op is Op.RET:
            ret = _meet(ret, written)
            continue
        elif op is Op.HALT:
            halt = _meet(halt, written)
            continue
        if op is Op.JMP:
            successors: Tuple[int, ...] = (arg,)
        elif op is Op.JZ or op is Op.JNZ:
            successors = (arg, pc + 1)
        else:
            successors = (pc + 1,)
        for succ in successors:
            seen = done[succ]
            if seen is None or seen & ~written:
                done[succ] = _meet(seen, written)
                work.append(succ)
    return _Summary(reads, ret, halt)


def _effects(program: Program, ops_per_fn: List[Tuple[Op, ...]],
             written: set) -> Effects:
    """The program's :class:`Effects`.  With calls, function summaries
    are iterated, callees (later functions) first, to a fixed point, so
    a cyclic call graph is covered: read sets only grow and must-write
    sets only shrink from "no exit known"."""
    functions = program.functions
    summaries = [_Summary()] * len(functions)
    calls = any(Op.CALL in ops for ops in ops_per_fn)
    order = range(len(functions) - 1, -1, -1) if calls else (0,)
    changed = True
    while changed:
        changed = False
        for fi in order:
            summary = _summarise(functions[fi].code, summaries)
            if summary != summaries[fi]:
                summaries[fi] = summary
                changed = calls
    entry = summaries[0]
    may = sum(1 << i for i in written)
    must = entry.ret if entry.halt is None else _meet(entry.ret, entry.halt)
    # No normal exit at all: no run writes anything back.
    must = may if must is None else must & may
    callee_fields = calls and any(
        Op.GETF in ops_per_fn[k] or Op.PUTF in ops_per_fn[k]
        for k in {instr.arg for fn in functions for instr in fn.code
                  if instr.op is Op.CALL})
    fields = program.field_table
    loads = ~0 if callee_fields else entry.reads | (may & ~must)
    sets: Dict[str, Tuple[list, list, list]] = {
        scope: ([], [], []) for scope in SCOPES[:3]}
    for i, ref in enumerate(fields):
        lists = sets.get(ref.scope)
        if lists is not None:
            for mask, slots in zip((entry.reads, may, must), lists):
                if mask >> i & 1:
                    slots.append(i)
    scopes = {scope: SlotEffects(*map(tuple, lists))
              for scope, lists in sets.items()}
    arrays = program.array_table
    stores = any(Op.HSTORE in ops for ops in ops_per_fn)
    scopes["array"] = SlotEffects(
        tuple(range(len(arrays))),
        tuple(i for i, ref in enumerate(arrays) if ref.writable and stores))
    return Effects(scopes, tuple(i for i in range(len(fields))
                                 if loads >> i & 1), callee_fields)


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


# -- resource bounds ----------------------------------------------------

#: Ops that leave the operand stack deeper: the only points where the
#: tree walk's high-water mark can rise.
PUSHES = frozenset(op for op, (pops, pushes) in STACK_EFFECT.items()
                   if pushes > pops)


def _bounds(program: Program,
            depths: List[Tuple[Optional[int], ...]]) -> Bounds:
    """The program's :class:`Bounds`; only ``frame`` is set over a
    call graph with a cycle reachable from the entry."""
    functions = program.functions
    callees = [sorted({instr.arg for pc, instr in enumerate(fn.code)
                       if instr.op is Op.CALL and depth[pc] is not None})
               for fn, depth in zip(functions, depths)]
    # The depths a frame holds when the tree walk measures: before
    # each op (after a CALL, its result) and after each push.
    frame = max((d + (instr.op in PUSHES)
                 for fn, depth in zip(functions, depths)
                 for instr, d in zip(fn.code, depth) if d is not None),
                default=0)
    # Callees before callers, from the entry; a callee still open on
    # the walk is a cycle.
    order: List[int] = []
    seen = {0: False}
    walk = [(0, iter(callees[0]))]
    while walk:
        fi, todo = walk[-1]
        for callee in todo:
            if callee not in seen:
                seen[callee] = False
                walk.append((callee, iter(callees[callee])))
                break
            if not seen[callee]:
                return Bounds(frame=frame)
        else:
            walk.pop()
            seen[fi] = True
            order.append(fi)
    stack: Dict[int, int] = {}
    chain: Dict[int, int] = {}
    for fi in order:
        deepest, longest = 0, 1
        for pc, instr in enumerate(functions[fi].code):
            depth = depths[fi][pc]
            if depth is None:
                continue
            if instr.op is Op.CALL:
                callee = instr.arg
                deepest = max(deepest, depth - functions[callee].n_args +
                              stack[callee])
                longest = max(longest, 1 + chain[callee])
            elif instr.op in PUSHES:
                deepest = max(deepest, depth + 1)
        stack[fi] = deepest
        chain[fi] = longest
    return Bounds(stack[0], chain[0], frame)


# -- value intervals ----------------------------------------------------
#
# A forward pass per function over abstract values ``(lo, hi, local,
# shape)``: the word lies in ``[lo, hi]``; ``local`` is the local slot
# it was loaded from while that slot still holds it; ``shape`` is None,
# a compare ``("cmp", symbol, a, b)`` of two abstract values, or a step
# towards an address inside array ``k``: ``("len", k)``, ``("base",
# k)``, ``("row", ks)`` (a value ``0 <= v < ALEN k`` for each ``k`` of
# ``ks``), ``("idx", ks, off)`` (``row * stride + off``) and ``("addr",
# k, off)`` (``ABASE k + idx``).  A state is the locals' ranges, the
# ``(slot, k)`` pairs with ``local[slot] < ALEN k``, and the stack.

#: Symbols of the compare ops, as Python writes them.
CMP_SYMBOLS = {Op.CEQ: "==", Op.CNE: "!=", Op.CLT: "<",
               Op.CLE: "<=", Op.CGT: ">", Op.CGE: ">="}
#: The compare that holds exactly when ``symbol`` does not.
NEGATED = {"<": ">=", ">=": "<", "<=": ">", ">": "<=",
           "==": "!=", "!=": "=="}
_FLIPPED = {"<": ">", ">": "<", "<=": ">=", ">=": "<=",
            "==": "==", "!=": "!="}
#: No list is longer: ALEN, ABASE and every address in an array's
#: region lie in ``[0, _SIZE]``.
_SIZE = min(sys.maxsize, INT_MAX)
_WORD = (INT_MIN, INT_MAX)
_ANY = (INT_MIN, INT_MAX, None, None)
_ZERO = (0, 0, None, None)
#: Updates of a callee's parameter ranges joined exactly before the
#: join widens.
_WIDEN_AFTER = 3


def _fit(lo: int, hi: int) -> Tuple[int, int, bool]:
    """An op's result range from its exact range: as it is when every
    value in it is a word (the op is exact), else every word."""
    if INT_MIN <= lo and hi <= INT_MAX:
        return lo, hi, True
    return INT_MIN, INT_MAX, False


def _corners(fn, a: tuple, bs) -> Tuple[int, int]:
    values = [fn(x, y) for x in (a[0], a[1]) for y in bs]
    return min(values), max(values)


def _narrow(lo: int, hi: int, symbol: str,
            other: tuple) -> Optional[Tuple[int, int]]:
    """``[lo, hi]`` where ``v symbol w`` holds for some ``w`` of
    ``other``; None when it holds for none."""
    olo, ohi = other[0], other[1]
    if symbol == "<":
        hi = min(hi, ohi - 1)
    elif symbol == "<=":
        hi = min(hi, ohi)
    elif symbol == ">":
        lo = max(lo, olo + 1)
    elif symbol == ">=":
        lo = max(lo, olo)
    elif symbol == "==":
        lo, hi = max(lo, olo), min(hi, ohi)
    elif olo == ohi:               # != one value: trim it off an end
        if lo == olo:
            lo += 1
        elif hi == olo:
            hi -= 1
    return (lo, hi) if lo <= hi else None


def _refine(state: tuple, symbol: str, a: tuple, b: tuple
            ) -> Optional[tuple]:
    """``state`` on the edge where ``a symbol b`` holds; None when no
    values of the operands' ranges make it hold."""
    locals_, rows, stack = state
    left = _narrow(a[0], a[1], symbol, b)
    right = _narrow(b[0], b[1], _FLIPPED[symbol], a)
    if left is None or right is None:
        return None
    for av, narrowed in ((a, left), (b, right)):
        slot = av[2]
        if slot is not None:
            lo, hi = locals_[slot]
            lo, hi = max(lo, narrowed[0]), min(hi, narrowed[1])
            if lo > hi:
                return None
            locals_ = locals_[:slot] + ((lo, hi),) + locals_[slot + 1:]
    # The one relational fact: a guard ``local < ALEN k``.
    if symbol == ">":
        a, b, symbol = b, a, "<"
    if symbol == "<" and a[2] is not None and b[3] is not None and \
            b[3][0] == "len":
        rows = rows | {(a[2], b[3][1])}
    return locals_, rows, stack


def _forget(av: tuple, slot: int) -> tuple:
    """``av`` after a STORE to ``slot``: it no longer names the slot."""
    lo, hi, local, shape = av
    if local == slot:
        local = None
    if shape is not None and shape[0] == "cmp" and \
            slot in (shape[2][2], shape[3][2]):
        shape = None
    return lo, hi, local, shape


def _as_idx(av: tuple, arrays) -> Optional[Tuple[FrozenSet[int], int]]:
    shape = av[3]
    if shape is None:
        return None
    if shape[0] == "idx":
        return shape[1], shape[2]
    if shape[0] == "row":
        ks = frozenset(k for k in shape[1] if arrays[k].stride == 1)
        return (ks, 0) if ks else None
    return None


def _address(op: Op, a: tuple, b: tuple, arrays) -> Optional[tuple]:
    """The shape of ``a op b`` on the way to an address inside one
    array, or None."""
    for x, y in ((a, b), (b, a)):
        shape = x[3]
        if shape is None:
            continue
        c = y[0] if y[0] == y[1] else None
        kind = shape[0]
        if op is Op.MUL:
            if kind == "row" and c is not None and c >= 1:
                ks = frozenset(k for k in shape[1]
                               if arrays[k].stride == c)
                if ks:
                    return ("idx", ks, 0)
        elif kind == "base":
            idx = _as_idx(y, arrays)
            if idx is not None and shape[1] in idx[0]:
                return ("addr", shape[1], idx[1])
        elif kind == "addr":
            if c is not None and \
                    0 <= shape[2] + c < arrays[shape[1]].stride:
                return ("addr", shape[1], shape[2] + c)
        elif c is not None:
            idx = _as_idx(x, arrays)
            if idx is not None:
                off = idx[1] + c
                ks = frozenset(k for k in idx[0]
                               if 0 <= off < arrays[k].stride)
                if ks:
                    return ("idx", ks, off)
    return None


def _bitwise(op: Op, a: tuple, b: tuple) -> Tuple[int, int]:
    if op is Op.BAND:
        if a[0] >= 0 and b[0] >= 0:
            return 0, min(a[1], b[1])
        if a[0] >= 0 or b[0] >= 0:
            return 0, a[1] if a[0] >= 0 else b[1]
    elif a[0] >= 0 and b[0] >= 0:
        return 0, (1 << max(a[1], b[1]).bit_length()) - 1
    return _WORD


#: The ops whose result the tree walk wraps, and the heap ops.
_MAY_WRAP = frozenset({Op.ADD, Op.SUB, Op.MUL, Op.NEG, Op.SHL, Op.DIV})
_HEAP = frozenset({Op.HLOAD, Op.HSTORE})


def _step(pc: int, instr: Instr, state: tuple, program: Program,
          proved: dict) -> List[Tuple[int, tuple]]:
    """The successors of ``pc`` with their states.  ``proved[pc]`` is
    set to what the op proves from ``state``: for an op that may wrap,
    whether it is exact; for a heap op, whether its address is inside
    its array; for a CALL, its arguments' ranges."""
    locals_, rows, stack = state
    op, arg = instr.op, instr.arg
    nxt = pc + 1
    arrays = program.array_table
    if op is Op.JMP:
        return [(arg, state)]
    if op is Op.JZ or op is Op.JNZ:
        v = stack[-1]
        rest = (locals_, rows, stack[:-1])
        shape = v[3]
        symbol, a, b = shape[1:] if shape is not None and \
            shape[0] == "cmp" else ("!=", v, _ZERO)
        nonzero = _refine(rest, symbol, a, b)
        zero = _refine(rest, NEGATED[symbol], a, b)
        taken, fallen = (zero, nonzero) if op is Op.JZ else \
            (nonzero, zero)
        return [(succ, s) for succ, s in ((arg, taken), (nxt, fallen))
                if s is not None]
    if op is Op.RET or op is Op.HALT:
        return []
    if op is Op.STORE:
        v = stack[-1]
        stack = tuple(_forget(av, arg) for av in stack[:-1])
        rows = frozenset(r for r in rows if r[0] != arg)
        if v[3] is not None and v[3][0] == "row":
            rows |= {(arg, k) for k in v[3][1]}
        locals_ = locals_[:arg] + ((v[0], v[1]),) + locals_[arg + 1:]
        return [(nxt, (locals_, rows, stack))]
    if op is Op.CALL:
        n_args = program.functions[arg].n_args
        keep = len(stack) - n_args
        proved[pc] = tuple((av[0], av[1]) for av in stack[keep:])
        return [(nxt, (locals_, rows, stack[:keep] + (_ANY,)))]
    if op is Op.HSTORE:
        addr = stack[-1][3]
        proved[pc] = addr is not None and addr[0] == "addr" and \
            arrays[addr[1]].writable
        return [(nxt, (locals_, rows, stack[:-2]))]
    if op is Op.POP or op is Op.PUTF:
        return [(nxt, (locals_, rows, stack[:-1]))]
    if op is Op.SWAP:
        return [(nxt, (locals_, rows, stack[:-2] + (stack[-1], stack[-2])))]

    pops = STACK_EFFECT[op][0]
    below = stack[:len(stack) - pops]
    exact = False
    if op is Op.CONST:
        w = wrap64(arg)
        out = (w, w, None, None)
    elif op is Op.LOAD:
        lo, hi = locals_[arg]
        ks = frozenset(k for slot, k in rows if slot == arg)
        out = (lo, hi, arg, ("row", ks) if ks and lo >= 0 else None)
    elif op is Op.DUP:
        below, out = stack, stack[-1]
    elif op is Op.GETF or op is Op.CLOCK:
        out = _ANY
    elif op is Op.ABASE or op is Op.ALEN:
        out = (0, _SIZE, None, ("base" if op is Op.ABASE else "len", arg))
    elif op is Op.HLOAD:
        addr = stack[-1][3]
        proved[pc] = addr is not None and addr[0] == "addr"
        out = _ANY
    elif op is Op.RAND:
        if stack[-1][1] < 1:
            return []              # every bound faults
        out = (0, stack[-1][1] - 1, None, None)
    elif op in CMP_SYMBOLS:
        out = (0, 1, None, ("cmp", CMP_SYMBOLS[op], stack[-2], stack[-1]))
    elif op is Op.NOTL:
        v = stack[-1]
        shape = v[3]
        out = (0, 1, None, ("cmp", NEGATED[shape[1]], shape[2], shape[3])
               if shape is not None and shape[0] == "cmp"
               else ("cmp", "==", v, _ZERO))
    elif op is Op.NEG:
        lo, hi, exact = _fit(-stack[-1][1], -stack[-1][0])
        out = (lo, hi, None, None)
    elif op is Op.BNOT:
        out = (-stack[-1][1] - 1, -stack[-1][0] - 1, None, None)
    else:
        a, b = stack[-2], stack[-1]
        shape = None
        if op is Op.ADD or op is Op.SUB or op is Op.MUL:
            if op is Op.ADD:
                lo, hi = a[0] + b[0], a[1] + b[1]
            elif op is Op.SUB:
                lo, hi = a[0] - b[1], a[1] - b[0]
            else:
                lo, hi = _corners(int.__mul__, a, (b[0], b[1]))
            lo, hi, exact = _fit(lo, hi)
            if op is not Op.SUB:
                shape = _address(op, a, b, arrays)
                if shape is not None:
                    lo, hi, exact = 0, _SIZE - 1, True
        elif op is Op.DIV or op is Op.MOD:
            divisors = [d for d in (b[0], b[1], -1, 1)
                        if d and b[0] <= d <= b[1]]
            if not divisors:
                return []          # always divides by zero
            if op is Op.DIV:
                lo, hi, exact = _fit(*_corners(int.__floordiv__, a,
                                               divisors))
            else:
                lo = b[0] + 1 if b[0] < 0 else 0
                hi = b[1] - 1 if b[1] > 0 else 0
        elif op is Op.SHL or op is Op.SHR:
            shifts = (max(b[0], 0), min(b[1], 63))
            if shifts[0] > shifts[1]:
                return []          # every amount faults
            if op is Op.SHL:
                lo, hi, exact = _fit(*_corners(int.__lshift__, a, shifts))
            else:
                lo, hi = _corners(int.__rshift__, a, shifts)
        else:
            lo, hi = _bitwise(op, a, b)
        out = (lo, hi, None, shape)
    if op in _MAY_WRAP:
        proved[pc] = exact
    return [(nxt, (locals_, rows, below + (out,)))]


def _join_range(old: tuple, new: tuple, widen: bool) -> Tuple[int, int]:
    if widen:
        return (old[0] if new[0] >= old[0] else INT_MIN,
                old[1] if new[1] <= old[1] else INT_MAX)
    return min(old[0], new[0]), max(old[1], new[1])


def _join_value(old: tuple, new: tuple, widen: bool) -> tuple:
    if old == new:
        return old
    shape, other = old[3], new[3]
    if shape != other:
        if shape is None or other is None or shape[0] != other[0]:
            shape = None
        elif shape[0] == "cmp":
            shape = None if shape[1] != other[1] else (
                "cmp", shape[1], _join_value(shape[2], other[2], widen),
                _join_value(shape[3], other[3], widen))
        elif shape[0] == "row":
            ks = shape[1] & other[1]
            shape = ("row", ks) if ks else None
        else:
            shape = None
    return _join_range(old, new, widen) + (
        old[2] if old[2] == new[2] else None, shape)


def _join(old: tuple, new: tuple, widen: bool) -> tuple:
    """Two states met where paths join, or a state revisited; ``widen``
    at a loop header, where a bound that still moves goes to the end of
    the word."""
    return (tuple(_join_range(x, y, widen)
                  for x, y in zip(old[0], new[0])),
            old[1] & new[1],
            tuple(_join_value(x, y, widen) for x, y in zip(old[2], new[2])))


def _function_intervals(program: Program, fi: int, start: tuple
                        ) -> Tuple[Intervals, Dict[int, tuple]]:
    """One function's :class:`Intervals` from its locals' ranges at
    entry, and the argument ranges its CALLs pass, by callee."""
    code = program.functions[fi].code
    heads = {instr.arg for pc, instr in enumerate(code)
             if instr.op in _JUMPS and instr.arg <= pc}
    state_at: List[Optional[tuple]] = [None] * len(code)
    state_at[0] = (start, frozenset(), ())
    # A pc is stepped again whenever its state grows, so its last step,
    # which ``proved`` keeps, saw its final state.  In pc order: forward
    # jumps go up, so a join is met once all its predecessors before
    # it have been.
    proved: Dict[int, object] = {}
    work = [0]
    queued = {0}
    while work:
        pc = heapq.heappop(work)
        queued.discard(pc)
        for succ, state in _step(pc, code[pc], state_at[pc], program,
                                 proved):
            old = state_at[succ]
            if old is not None:
                state = _join(old, state, succ in heads)
                if state == old:
                    continue
            state_at[succ] = state
            if succ not in queued:
                queued.add(succ)
                heapq.heappush(work, succ)
    calls: Dict[int, tuple] = {}
    for pc, args in proved.items():
        callee = code[pc].arg
        if code[pc].op is Op.CALL:
            seen = calls.get(callee)
            calls[callee] = args if seen is None else tuple(
                (min(x[0], y[0]), max(x[1], y[1]))
                for x, y in zip(seen, args))
    return Intervals(
        frozenset(pc for pc, ok in proved.items()
                  if ok is True and code[pc].op in _MAY_WRAP),
        frozenset(pc for pc, ok in proved.items()
                  if ok is True and code[pc].op in _HEAP)), calls


def _intervals(program: Program) -> Tuple[Intervals, ...]:
    """Every function's :class:`Intervals`.  The entry's locals are
    unknown (a caller's arguments can fill any of them); a callee's
    parameters range over the join of what its CALL sites pass, and
    its other locals start at 0.  A function is analysed again while
    a caller widens its parameters; after :data:`_WIDEN_AFTER` updates
    the join widens, so the passes end."""
    functions = program.functions
    params: List[Optional[tuple]] = [None] * len(functions)
    params[0] = (_WORD,) * functions[0].n_locals
    updates = [0] * len(functions)
    found = [Intervals()] * len(functions)
    dirty = {0}
    while dirty:
        fi = min(dirty)
        dirty.discard(fi)
        fn = functions[fi]
        start = params[fi] + ((0, 0),) * (fn.n_locals - len(params[fi]))
        found[fi], calls = _function_intervals(program, fi, start)
        for callee, args in calls.items():
            old = params[callee]
            new = args if old is None else tuple(
                _join_range(x, y, updates[callee] >= _WIDEN_AFTER)
                for x, y in zip(old, args))
            if new != old:
                params[callee] = new
                updates[callee] += 1
                dirty.add(callee)
    return tuple(found)
