"""One static analysis of a program's bytecode, computed once.

Everything that needs to know something about a program's instructions
before running them reads it from :func:`facts`: the verifier (is it
safe to install?), the generated-code backend (operand-stack depth per
pc, each function's control structure, which ops each function uses,
and the worst-case stack and op count of one run — :class:`Bounds` —
that its entry test holds against the limits) and the enclave (which
field slots a run can change, and the concurrency level those writes
imply, Section 3.4.4).  The record is
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

from .bytecode import (OPS_WITH_ARG, STACK_EFFECT, Instr, Op, Program,
                       wrap64)

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


class OpBound(NamedTuple):
    """A worst-case op count: ``const`` plus ``b * len(array k)`` for
    each ``(k, b)`` in ``per_len``, where ``len`` is what ``ALEN k``
    pushes (the array's record count)."""

    const: int
    per_len: Tuple[Tuple[int, int], ...] = ()

    def at(self, lengths) -> int:
        """The bound for one invocation's array lengths."""
        return self.const + sum(b * lengths[k] for k, b in self.per_len)

    def __str__(self) -> str:
        terms = [f"{b}*len(a{k})" for k, b in self.per_len]
        if self.const or not terms:
            terms.append(str(self.const))
        return " + ".join(terms)


class Bounds(NamedTuple):
    """What one invocation of a verified program can use at most, on
    every path, faulting ones included; None where no bound is proven.

    ``stack`` is the operand stack across frames, as the tree walk
    measures it (``ExecStats.max_operand_stack``): exact over an
    acyclic call graph, None over a cyclic one.  ``calls`` is the
    longest call chain in frames (``ExecStats.max_call_depth``), None
    over a cyclic call graph.  ``frame`` is the deepest operand stack
    any one frame holds, so ``frame`` times the call-depth limit bounds
    the stack of a run whose call chain that limit cuts.
    ``ops`` bounds ``ExecStats.ops_executed`` on entry with every local
    zero: exact path by path for loop-free code; a loop counts when an
    induction variable, started at a constant and stepped by a constant
    on every back edge, is tested against a constant or an ``ALEN``
    before each back edge, and then contributes its trip bound times
    its longest iteration (a product of two array lengths is None).
    """

    stack: Optional[int] = None
    calls: Optional[int] = None
    ops: Optional[OpBound] = None
    frame: int = 0


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
    #: Worst-case stack, call chain and op count of one invocation.
    bounds: Bounds = Bounds()

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
        stores_to_heap=stores_to_heap, concurrency=level,
        bounds=_bounds(program, depths))


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


# -- resource bounds ----------------------------------------------------

#: Ops that leave the operand stack deeper: the only points where the
#: tree walk's high-water mark can rise.
PUSHES = frozenset(op for op, (pops, pushes) in STACK_EFFECT.items()
                   if pushes > pops)
#: Largest constant the trip-count argument takes in: an induction
#: variable held this close to zero never wraps at 64 bits.
_SMALL = 1 << 40
#: Longest call chain whose op count is analysed (the analysis
#: recurses once per frame).
_MAX_CHAIN = 64
#: Most (function, argument values) pairs analysed per program: call
#: sites passing new constants on every level would otherwise multiply
#: them, and installing a program must stay cheap.
_MAX_CONTEXTS = 256

_ZERO = OpBound(0)
_ONE = OpBound(1)


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
    ops = None
    if chain[0] <= _MAX_CHAIN:
        entry_args = (_Sym(None, 0),) * functions[0].n_args
        try:
            ops = _OpCount(program, depths).of(0, entry_args)
        except _Unbounded:
            pass
    return Bounds(stack[0], chain[0], ops, frame)


def _lin_add(x: Optional[OpBound], y: Optional[OpBound]
             ) -> Optional[OpBound]:
    if x is None or y is None:
        return None
    if not y.per_len:
        return OpBound(x.const + y.const, x.per_len)
    per = dict(x.per_len)
    for k, b in y.per_len:
        per[k] = per.get(k, 0) + b
    return OpBound(x.const + y.const, tuple(sorted(per.items())))


def _lin_max(x: Optional[OpBound], y: Optional[OpBound]
             ) -> Optional[OpBound]:
    """Bounds both: array lengths are never negative."""
    if x is None or y is None:
        return y if x is None else x
    per = dict(x.per_len)
    for k, b in y.per_len:
        per[k] = max(per.get(k, 0), b)
    return OpBound(max(x.const, y.const), tuple(sorted(per.items())))


def _lin_mul(x: OpBound, y: OpBound) -> OpBound:
    if x.per_len and y.per_len:
        raise _Unbounded
    if x.per_len:
        x, y = y, x
    return OpBound(x.const * y.const,
                   tuple((k, x.const * b) for k, b in y.per_len))


class _Unbounded(Exception):
    """No op bound is proven for the program."""


class _Sym(NamedTuple):
    """A value known to be ``base + k``: ``base`` None (a constant),
    ``("len", a)`` (what ``ALEN a`` pushes) or ``("hdr", header,
    slot)`` (a local the loop at ``header`` writes, as it was when the
    current iteration started)."""

    base: Optional[tuple]
    k: int


class _Cmp(NamedTuple):
    """The 0/1 result of ``left op right``."""

    op: Op
    left: _Sym
    right: _Sym


_NEGATE = {Op.CLT: Op.CGE, Op.CGE: Op.CLT, Op.CLE: Op.CGT,
           Op.CGT: Op.CLE, Op.CEQ: Op.CNE, Op.CNE: Op.CEQ}
_TEST = {Op.CLT: int.__lt__, Op.CGE: int.__ge__, Op.CLE: int.__le__,
         Op.CGT: int.__gt__, Op.CEQ: int.__eq__, Op.CNE: int.__ne__}


def _invariant(base) -> bool:
    return base is None or base[0] == "len"


def _arith(op: Op, a, b):
    """``a op b`` for ADD, SUB, MUL and NEG (``b`` None), or None."""
    if a.__class__ is not _Sym:
        return None
    if op is Op.NEG:
        return _Sym(None, wrap64(-a.k)) if a.base is None else None
    if b.__class__ is not _Sym:
        return None
    if a.base is None and b.base is None:
        value = {Op.ADD: a.k + b.k, Op.SUB: a.k - b.k,
                 Op.MUL: a.k * b.k}[op]
        return _Sym(None, wrap64(value))
    if op is Op.MUL or b.base is not None and (op is Op.SUB or
                                               a.base is not None):
        return None
    base = a.base if b.base is None else b.base
    k = a.k + b.k if op is Op.ADD else a.k - b.k
    return _Sym(base, k) if -_SMALL <= k <= _SMALL else None


def _compare(op: Op, a, b):
    if a.__class__ is not _Sym or b.__class__ is not _Sym:
        return None
    if a.base is None and b.base is None:
        return _Sym(None, int(_TEST[op](a.k, b.k)))
    return _Cmp(op, a, b)


def _order_facts(cmp: _Cmp, truth: bool) -> List[tuple]:
    """What ``cmp`` coming out ``truth`` says about a loop-written
    local: ``(hdr base, +1, x, m)`` for ``hdr < x + m`` and ``(hdr
    base, -1, x, m)`` for ``hdr > x + m``, where ``x`` is invariant."""
    op = cmp.op if truth else _NEGATE[cmp.op]
    a, b = cmp.left, cmp.right
    below = {Op.CLT: [(a, b, 0)], Op.CLE: [(a, b, 1)],
             Op.CGT: [(b, a, 0)], Op.CGE: [(b, a, 1)],
             Op.CEQ: [(a, b, 1), (b, a, 1)]}.get(op, [])
    out = []
    for x, y, m in below:                       # x < y + m
        if abs(y.k + m - x.k) > _SMALL:
            continue
        if x.base is not None and x.base[0] == "hdr" and \
                _invariant(y.base):
            out.append((x.base, 1, y.base, y.k + m - x.k))
        elif y.base is not None and y.base[0] == "hdr" and \
                _invariant(x.base):
            out.append((y.base, -1, x.base, x.k - m - y.k))
    return out


def _mentions(value, header: int) -> bool:
    if value.__class__ is _Cmp:
        return _mentions(value.left, header) or \
            _mentions(value.right, header)
    return value is not None and value.base is not None and \
        value.base[0] == "hdr" and value.base[1] == header


def _join(a, b):
    if a is None:
        return b
    return (tuple(x if x == y else None for x, y in zip(a[0], b[0])),
            tuple(x if x == y else None for x, y in zip(a[1], b[1])),
            a[2] & b[2])


class _OpCount:
    """Worst-case op counts per ``(function, argument values)``.

    One forward pass over a function, in pc order, follows constants,
    array lengths and loop-written locals (as offsets from their value
    when the iteration started), and the order facts each branch
    establishes; it yields each loop's trip bound and each CALL's
    argument values.  One backward pass then takes the longest path
    to every end — a RET or HALT, and any op, where the invocation may
    fault — with each loop collapsed to its trip bound times its
    longest iteration plus its longest last visit."""

    def __init__(self, program: Program,
                 depths: List[Tuple[Optional[int], ...]]) -> None:
        self.functions = program.functions
        self.depths = depths
        self.memo: Dict[tuple, OpBound] = {}

    def of(self, fi: int, args: tuple) -> OpBound:
        key = (fi, args)
        if key not in self.memo:
            if len(self.memo) >= _MAX_CONTEXTS:
                raise _Unbounded
            self.memo[key] = self._count(fi, args)
        return self.memo[key]

    def _count(self, fi: int, args: tuple) -> OpBound:
        code = self.functions[fi].code
        depth_at = self.depths[fi]
        n = len(code)
        loops = _loops(code, depth_at)
        inner: List[Optional[int]] = [None] * (n + 1)
        outer: Dict[int, Optional[int]] = {}
        for header in sorted(loops):
            outer[header] = inner[header]
            for pc in range(header, loops[header]):
                inner[pc] = header
        trips: Dict[int, OpBound] = {}
        call_args: Dict[int, tuple] = {}
        if loops or any(instr.op is Op.CALL for instr in code):
            trips, call_args = self._forward(fi, args, loops)

        back: List[Optional[OpBound]] = [None] * (n + 1)
        out: List[OpBound] = [_ZERO] * (n + 1)

        def after(succ: int, loop: Optional[int]):
            """(longest to a back edge, longest to an end) from
            ``succ``, inside ``loop``."""
            if loop is not None:
                if succ == loop:
                    return _ZERO, _ZERO
                if succ >= loops[loop]:
                    return None, _ZERO
            return back[succ], out[succ]

        for pc in range(n - 1, -1, -1):
            if depth_at[pc] is None:
                continue
            loop = inner[pc]
            instr = code[pc]
            op = instr.op
            cost = _ONE
            if op is Op.RET or op is Op.HALT:
                here_back, here_out = None, _ZERO
            elif op is Op.JZ or op is Op.JNZ:
                b1, o1 = after(instr.arg, loop)
                b2, o2 = after(pc + 1, loop)
                here_back, here_out = _lin_max(b1, b2), _lin_max(o1, o2)
            else:
                here_back, here_out = after(
                    instr.arg if op is Op.JMP else pc + 1, loop)
                if op is Op.CALL:
                    cost = _lin_add(_ONE, self.of(instr.arg,
                                                  call_args[pc]))
            here_back = _lin_add(here_back, cost)
            here_out = _lin_add(here_out, cost)
            if pc in loops:
                total = _lin_add(_lin_mul(trips[pc], here_back or _ZERO),
                                 here_out)
                end_back, end_out = after(loops[pc], outer[pc])
                here_back = _lin_add(total, end_back)
                here_out = _lin_add(total, end_out)
            back[pc], out[pc] = here_back, here_out
        return out[0]

    def _forward(self, fi: int, args: tuple, loops: Dict[int, int]):
        functions = self.functions
        fn = functions[fi]
        code = fn.code
        depth_at = self.depths[fi]
        n = len(code)
        state: List[Optional[tuple]] = [None] * n
        state[0] = (args + (_Sym(None, 0),) * (fn.n_locals - len(args)),
                    (), frozenset())
        entry: Dict[int, tuple] = {}
        backs: Dict[int, list] = {header: [] for header in loops}
        call_args: Dict[int, tuple] = {}
        for pc in range(n):
            here = state[pc]
            if here is None or depth_at[pc] is None:
                continue
            locs, stack, facts = here
            locs, stack = list(locs), list(stack)
            if pc in loops:
                entry[pc] = tuple(locs)
                for p in range(pc, loops[pc]):
                    if code[p].op is Op.STORE and depth_at[p] is not None:
                        locs[code[p].arg] = _Sym(("hdr", pc, code[p].arg),
                                                 0)
                stack = [None] * len(stack)
            instr = code[pc]
            op = instr.op
            arg = instr.arg
            succs: List[Tuple[int, frozenset]] = [(pc + 1, facts)]
            if op is Op.CONST:
                stack.append(_Sym(None, wrap64(arg)))
            elif op is Op.LOAD:
                stack.append(locs[arg])
            elif op is Op.STORE:
                locs[arg] = stack.pop()
            elif op is Op.DUP:
                stack.append(stack[-1])
            elif op is Op.SWAP:
                stack[-1], stack[-2] = stack[-2], stack[-1]
            elif op in (Op.ADD, Op.SUB, Op.MUL):
                right = stack.pop()
                stack.append(_arith(op, stack.pop(), right))
            elif op is Op.NEG:
                stack.append(_arith(op, stack.pop(), None))
            elif op in _NEGATE:
                right = stack.pop()
                stack.append(_compare(op, stack.pop(), right))
            elif op is Op.NOTL:
                value = stack.pop()
                if value.__class__ is _Cmp:
                    value = value._replace(op=_NEGATE[value.op])
                elif value is not None and value.base is None:
                    value = _Sym(None, int(value.k == 0))
                else:
                    value = None
                stack.append(value)
            elif op is Op.ALEN:
                stack.append(_Sym(("len", arg), 0))
            elif op is Op.JMP:
                succs = [(arg, facts)]
            elif op is Op.JZ or op is Op.JNZ:
                value = stack.pop()
                succs = [(arg, facts), (pc + 1, facts)]
                if value.__class__ is _Cmp:
                    taken = op is Op.JNZ
                    succs = [(arg, facts.union(_order_facts(value, taken))),
                             (pc + 1, facts.union(
                                 _order_facts(value, not taken)))]
            elif op is Op.CALL:
                n_args = functions[arg].n_args
                passed = stack[len(stack) - n_args:]
                del stack[len(stack) - n_args:]
                call_args[pc] = tuple(
                    v if v.__class__ is _Sym and _invariant(v.base)
                    else None for v in passed)
                stack.append(None)
            elif op is Op.RET or op is Op.HALT:
                succs = []
            else:
                pops, pushes = STACK_EFFECT[op]
                del stack[len(stack) - pops:]
                stack.extend([None] * pushes)
            for succ, succ_facts in succs:
                if succ <= pc:
                    backs[succ].append((locs, succ_facts))
                    continue
                left = [h for h, end in loops.items()
                        if h <= pc < end <= succ] if loops else None
                new_locs, new_stack = tuple(locs), tuple(stack)
                if left:
                    new_locs = tuple(
                        None if any(_mentions(v, h) for h in left) else v
                        for v in new_locs)
                    new_stack = tuple(
                        None if any(_mentions(v, h) for h in left) else v
                        for v in new_stack)
                    succ_facts = frozenset(
                        f for f in succ_facts if f[0][1] not in left)
                state[succ] = _join(state[succ],
                                    (new_locs, new_stack, succ_facts))
        return ({header: self._trips(header, entry[header], edges)
                 for header, edges in backs.items()}, call_args)

    @staticmethod
    def _trips(header: int, entry: tuple, edges: list) -> OpBound:
        """How many visits to ``header`` can reach a back edge: the
        best bound any loop-written local gives, or :class:`_Unbounded`.

        A local that starts at the constant ``lo`` and that every back
        edge has moved up by at least 1 has, at the ``j``-th visit, a
        value of at least ``lo + j``; a visit that reaches a back edge
        carrying ``hdr < x + m`` has a value below ``x + m``.  So at
        most ``x + m - lo`` visits reach one (mirrored for a local
        moving down, whose ``x`` then only helps)."""
        best = None
        for slot, start in enumerate(entry):
            base = ("hdr", header, slot)
            if start is None or start.__class__ is not _Sym or \
                    start.base is not None or abs(start.k) > _SMALL:
                continue
            steps = set()
            limits: Optional[Dict[tuple, int]] = None
            for locs, facts in edges:
                value = locs[slot]
                if value.__class__ is not _Sym or value.base != base:
                    break
                steps.add((value.k > 0) - (value.k < 0))
                sign = 1 if value.k > 0 else -1
                here: Dict[tuple, int] = {}
                for hdr, fact_sign, x, m in facts:
                    if hdr == base and fact_sign == sign:
                        here[x] = m if x not in here else (
                            min(here[x], m) if sign > 0 else
                            max(here[x], m))
                if limits is None:
                    limits = here
                else:
                    limits = {x: (max(m, here[x]) if sign > 0 else
                                  min(m, here[x]))
                              for x, m in limits.items() if x in here}
            else:
                if len(steps) != 1 or 0 in steps or not limits:
                    continue
                sign = steps.pop()
                for x, m in limits.items():
                    if sign > 0:
                        trips = OpBound(max(0, m - start.k),
                                        () if x is None else ((x[1], 1),))
                    else:
                        trips = OpBound(max(0, start.k - m))
                    if best is None or (len(trips.per_len), trips.const) \
                            < (len(best.per_len), best.const):
                        best = trips
        if best is None:
            raise _Unbounded
        return best
