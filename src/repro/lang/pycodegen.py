"""Bytecode -> straight-line Python codegen backend.

The tree walk (``Interpreter.execute_tree``) re-decodes every
instruction through a long ``Op`` comparison chain.  This module
removes dispatch entirely: each :class:`~repro.lang.bytecode.Program`
is translated to Python source — one ``def`` per bytecode function,
operand-stack slots lowered to Python locals — and ``compile()``d
once.  Branches are recovered into real ``while``/``if`` structures
(the compiler emits reducible, linearly laid out control flow), guards
and budget checks are inlined, and the 64-bit wraparound is folded
away wherever the operand ranges make it the identity (``&``, ``|``,
``^``, ``~``, ``>>``, ``%`` of in-range values stay in range).

Generating and compiling the source costs a few tree-walk executions,
so a program starts *cold*: its first :data:`TIER_UP_CALLS`
invocations run on the tree walk — the executable semantics this
backend is proven against — and the next one compiles it.
:func:`code_for` is the one place that decides, and
:meth:`CodegenRunner.run` — the one execution body, which
:func:`execute_codegen` and :func:`execute_codegen_batch` wrap — asks
it on every call.

Once hot, each bytecode function is emitted in one of two shapes:

* ``structured`` — loops become ``while True:`` regions, forward
  branches become ``if``/``else``; zero dispatch overhead.
* ``blocks`` — a ``while``/``elif`` basic-block machine for control
  flow the structurizer does not recognize (e.g. exotic
  optimizer-threaded jumps); still straight-line inside blocks.

Programs whose operand-stack depth is not statically consistent
(hand-assembled bytecode the verifier would reject) never compile;
they stay on the tree walk (``stats()["programs_delegated"]``).

Semantics are kept bit-for-bit identical to the tree walk on results,
:class:`ExecStats` and fault *reasons* (the differential harness in
``tests/lang/test_differential.py`` enforces this, including across
the cold-to-hot boundary).  Two knowing divergences once hot: jumps to
negative targets fault as "fell off end of code" instead of wrapping
Python-style, and op-budget accounting is hoisted to segment
granularity — a budget fault can fire at a segment boundary a few ops
before the tree walk would raise it mid-segment (observable only with
budgets tighter than one straight-line segment).

The cold-call counter and, later, the compiled code live in one slot
on the ``Program`` instance; compiled programs are also tracked by a
bounded LRU registry.  :func:`invalidate` (the enclave calls it from
``replace_function``/``remove_function``/``clear``) and LRU eviction
both clear the slot, returning the program to cold.
"""

from __future__ import annotations

import keyword
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .bytecode import (INT_MASK, INT_MAX, Instr, Op, Program,
                       STACK_EFFECT, wrap64)
from .interpreter import (WORD_BYTES, ExecResult, ExecStats,
                          InterpreterFault, _copy_in, _finish,
                          _make_locals)

_CARRY = 1 << 64
#: Sentinel budget for "no budget": never exceeded by a real program.
_NO_BUDGET = 1 << 62

#: Modes a program can compile to (``stats()`` reports the tally).
MODE_STRUCTURED = "structured"
MODE_BLOCKS = "blocks"

#: Invocations a program runs on the tree walk before it is compiled.
#: Compiling pays off after ``compile cost / (tree cost - generated
#: cost)`` invocations.  For the 344-op PIAS search the benchmark's
#: rows give ``lang.first_exec_us.pycodegen`` = 1831 us when the first
#: call still compiled (so ~1810 us of compile), 344 ops x
#: ``lang.exec_ns_per_op.tree`` 1733 ns = 596 us per tree call and
#: 344 x 60 ns = 21 us per generated call: break-even at ~4 calls.
#: The 15-to-30-op library functions (mcrouter, Pulsar, QJump) compile
#: in ~0.8-1.1 ms and save ~40-50 us a call: ~20 calls.  16 sits
#: between the two — the regret either way is a few milliseconds per
#: program, once — keeps a function that only ever sees a handful of
#: packets (a fleet probe: eight) off the compiler entirely, and is
#: noise to one that sees thousands.
TIER_UP_CALLS = 16

#: Bounded code cache: at most this many compiled programs are kept
#: alive by the registry (the per-Program slot is cleared on eviction,
#: returning the program to cold).
CACHE_LIMIT = 256

_CMP_SYM = {
    Op.CEQ: "==", Op.CNE: "!=", Op.CLT: "<",
    Op.CLE: "<=", Op.CGT: ">", Op.CGE: ">=",
}

#: Ops the emitters understand; anything else delegates the program.
_KNOWN_OPS = frozenset(Op)


class _Bail(Exception):
    """Structurizer cannot express this function; fall to blocks."""


class _Ctx:
    """Mutable per-invocation state shared by the generated functions."""

    __slots__ = (
        "fields", "heap", "bases", "lengths", "wranges", "ops",
        "budget", "outer", "max_seen", "stack_limit", "depth",
        "call_limit", "max_depth", "rng", "clock", "clock_value",
        "halted", "name",
    )


def _budget_fault(ctx: _Ctx, pc: int) -> None:
    raise InterpreterFault(f"op budget of {ctx.budget} exceeded",
                           ctx.name, pc)


def _stack_fault(ctx: _Ctx, depth: int, pc: int) -> None:
    raise InterpreterFault(
        f"operand stack of {depth} words exceeds limit "
        f"{ctx.stack_limit}", ctx.name, pc)


class CompiledProgram:
    """One program's generated entry point plus bookkeeping."""

    __slots__ = ("program", "entry", "n_locals", "modes", "source")

    def __init__(self, program: Program, entry, n_locals: int,
                 modes: Tuple[str, ...], source: str) -> None:
        self.program = program
        self.entry = entry
        self.n_locals = n_locals
        self.modes = modes          # per-function tier
        self.source = source


# -- static operand-stack depth analysis --------------------------------

def _depth_map(program: Program, code: Sequence[Instr]
               ) -> Optional[Dict[int, int]]:
    """Depth *before* each reachable pc, or None if inconsistent.

    Mirrors the verifier's abstract interpretation but is tolerant:
    RET/HALT at any depth are fine (the tree walk returns 0 on an
    empty stack) and out-of-range jump targets simply have no
    successor (they fault as "fell off end" at run time).  A depth
    mismatch at a merge point or a static underflow returns None —
    such programs stay on the tree walk.
    """
    n = len(code)
    depth_at: Dict[int, int] = {0: 0}
    work = [0]
    while work:
        pc = work.pop()
        depth = depth_at[pc]
        instr = code[pc]
        op = instr.op
        if op.__class__ is not Op:
            return None           # raw-int opcodes: delegate
        if op is Op.CALL:
            try:
                callee = program.functions[instr.arg]
            except (IndexError, TypeError):
                continue          # compiles to a raiser; no successor
            if callee.n_args > callee.n_locals:
                # Frame wider than its local file; the tree walk
                # tolerates it but our generated signatures cannot.
                return None
            pops, pushes = callee.n_args, 1
        elif op in (Op.RET, Op.HALT):
            continue
        else:
            pops, pushes = STACK_EFFECT[op]
        if depth < pops:
            return None
        new_depth = depth - pops + pushes
        if op is Op.JMP:
            succs = [instr.arg]
        elif op in (Op.JZ, Op.JNZ):
            succs = [instr.arg, pc + 1]
        else:
            succs = [pc + 1]
        for succ in succs:
            if not 0 <= succ < n:
                continue          # fell-off-end raiser at run time
            if succ in depth_at:
                if depth_at[succ] != new_depth:
                    return None
            else:
                depth_at[succ] = new_depth
                work.append(succ)
    return depth_at


# -- shared per-op statement emission -----------------------------------

def _wrap_lines(target: str, expr: str) -> List[str]:
    """``target = wrap64(expr)``, inline."""
    return [f"_v = ({expr}) & {INT_MASK}",
            f"{target} = _v - {_CARRY} if _v > {INT_MAX} else _v"]


class _FuncEmitter:
    """Emits the Python body of one bytecode function.

    Both tiers share the per-op lowering; they differ only in how
    control transfers are rendered.  Operand-stack slot ``k`` is the
    Python local ``s{k}``; bytecode locals are the parameters
    ``l{k}``.  Budget accounting is hoisted: ops are counted per
    straight-line segment and the check is spliced in *ahead* of the
    segment's statements (same policy as fused superinstructions).
    """

    def __init__(self, program: Program, fi: int,
                 depth_at: Dict[int, int]) -> None:
        self.program = program
        self.fi = fi
        self.fn = program.functions[fi]
        self.code = self.fn.code
        self.depth_at = depth_at
        self.lines: List[str] = []
        self.indent = 2
        # Segment state (budget hoisting + stack-check filtering).
        self._anchor = 0
        self._anchor_indent = 2
        self._pending = 0
        self._seg_pc = 0
        self._seg_high = 0

    # -- low-level helpers ----------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def new_segment(self, pc: int, depth: int) -> None:
        self._anchor = len(self.lines)
        self._anchor_indent = self.indent
        self._pending = 0
        self._seg_pc = pc
        # ``depth - 1``, not ``depth``: every depth *strictly below*
        # the segment-entry depth has provably been through a check on
        # any path reaching here, but the entry depth itself may not
        # have (a CALL's result push is never checked — the tree walk
        # jumps straight past it).  Starting one lower keeps skipped
        # checks provably no-ops; extra checks land on pushes, where
        # the tree walk checks too, so they are exact either way.
        self._seg_high = depth - 1

    def flush(self) -> None:
        """Splice the segment's op count + budget check at its start."""
        if self._pending:
            pad = "    " * self._anchor_indent
            self.lines[self._anchor:self._anchor] = [
                f"{pad}ctx.ops += {self._pending}",
                f"{pad}if ctx.ops > ctx.budget:",
                f"{pad}    _budget_fault(ctx, {self._seg_pc})",
            ]
        self._pending = 0
        self._anchor = len(self.lines)
        self._anchor_indent = self.indent

    def _depth_check(self, new_depth: int, fault_pc: int) -> None:
        """The tree walk's post-push high-water bookkeeping.

        Emitted only when ``new_depth`` exceeds every depth seen so
        far in this segment — earlier checks already cover lower
        depths, and ``ctx.max_seen`` keeps the filter exact across
        segments.
        """
        if new_depth <= self._seg_high:
            return
        self._seg_high = new_depth
        self.w(f"_d = _o + {new_depth}")
        self.w("if _d > ctx.max_seen:")
        self.w("    ctx.max_seen = _d")
        self.w("    if _d > ctx.stack_limit:")
        self.w(f"        _stack_fault(ctx, _d, {fault_pc})")

    def _wrap_into(self, slot: str, expr: str) -> None:
        for line in _wrap_lines(slot, expr):
            self.w(line)

    def _raise(self, reason_expr: str, pc: int) -> None:
        self.w(f"raise InterpreterFault({reason_expr}, _NAME, {pc})")

    # -- one straight-line op -------------------------------------------

    def emit_op(self, pc: int, instr: Instr) -> bool:
        """Emit a non-control op; returns False when the op is an
        unconditional raiser (terminates the path)."""
        op = instr.op
        d = self.depth_at[pc]
        self._pending += 1
        top = f"s{d - 1}"
        nxt = f"s{d}"
        if op is Op.CONST:
            self.w(f"{nxt} = {wrap64(instr.arg)}")
            self._depth_check(d + 1, pc + 1)
        elif op is Op.LOAD:
            slot = self._local_slot(instr.arg)
            if slot is None:
                return self._underflow_raiser(pc)
            self.w(f"{nxt} = l{slot}")
            self._depth_check(d + 1, pc + 1)
        elif op is Op.STORE:
            slot = self._local_slot(instr.arg)
            if slot is None:
                return self._underflow_raiser(pc)
            self.w(f"l{slot} = {top}")
        elif op is Op.POP:
            pass
        elif op is Op.DUP:
            self.w(f"{nxt} = {top}")
            self._depth_check(d + 1, pc + 1)
        elif op is Op.SWAP:
            self.w(f"s{d - 1}, s{d - 2} = s{d - 2}, s{d - 1}")
        elif op in (Op.ADD, Op.SUB, Op.MUL):
            sym = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*"}[op]
            self._wrap_into(f"s{d - 2}", f"s{d - 2} {sym} {top}")
        elif op is Op.DIV:
            self.w(f"if {top} == 0:")
            self.indent += 1
            self._raise("'division by zero'", pc)
            self.indent -= 1
            self._wrap_into(f"s{d - 2}", f"s{d - 2} // {top}")
        elif op is Op.MOD:
            self.w(f"if {top} == 0:")
            self.indent += 1
            self._raise("'modulo by zero'", pc)
            self.indent -= 1
            self.w(f"s{d - 2} = s{d - 2} % {top}")
        elif op is Op.NEG:
            self._wrap_into(top, f"-{top}")
        elif op in (Op.BAND, Op.BOR, Op.BXOR):
            sym = {Op.BAND: "&", Op.BOR: "|", Op.BXOR: "^"}[op]
            self.w(f"s{d - 2} = s{d - 2} {sym} {top}")
        elif op is Op.BNOT:
            self.w(f"{top} = ~{top}")
        elif op in (Op.SHL, Op.SHR):
            self.w(f"if not 0 <= {top} < 64:")
            self.indent += 1
            self._raise(
                "f'shift amount {" + top + "} out of range'", pc)
            self.indent -= 1
            if op is Op.SHL:
                self._wrap_into(f"s{d - 2}", f"s{d - 2} << {top}")
            else:
                self.w(f"s{d - 2} = s{d - 2} >> {top}")
        elif op in _CMP_SYM:
            self.w(f"s{d - 2} = 1 if s{d - 2} {_CMP_SYM[op]} {top} "
                   f"else 0")
        elif op is Op.NOTL:
            self.w(f"{top} = 1 if {top} == 0 else 0")
        elif op is Op.GETF:
            if not self._index_ok(instr.arg, self.program.field_table):
                return self._underflow_raiser(pc)
            self.w(f"{nxt} = F[{instr.arg}]")
            self._depth_check(d + 1, pc + 1)
        elif op is Op.PUTF:
            try:
                ref = self.program.field_table[instr.arg]
            except (IndexError, TypeError):
                return self._underflow_raiser(pc)
            if not ref.writable:
                self._raise(
                    f"'write to read-only field "
                    f"{ref.scope}.{ref.name}'", pc)
                return False
            self.w(f"F[{instr.arg}] = {top}")
        elif op is Op.ABASE:
            if not self._index_ok(instr.arg, self.program.array_table):
                return self._underflow_raiser(pc)
            self.w(f"{nxt} = B[{instr.arg}]")
            self._depth_check(d + 1, pc + 1)
        elif op is Op.ALEN:
            if not self._index_ok(instr.arg, self.program.array_table):
                return self._underflow_raiser(pc)
            self.w(f"{nxt} = L[{instr.arg}]")
            self._depth_check(d + 1, pc + 1)
        elif op is Op.HLOAD:
            self.w(f"if not 0 <= {top} < len(H):")
            self.indent += 1
            self._raise(
                "f'heap read at {" + top + "} out of bounds "
                "(heap has {len(H)} words)'", pc)
            self.indent -= 1
            self.w(f"{top} = H[{top}]")
        elif op is Op.HSTORE:
            self.w("for _lo, _hi in W:")
            self.w(f"    if _lo <= {top} < _hi:")
            self.w(f"        H[{top}] = s{d - 2}")
            self.w("        break")
            self.w("else:")
            self.indent += 1
            self._raise(
                "f'heap write at {" + top + "} outside writable "
                "regions'", pc)
            self.indent -= 1
        elif op is Op.RAND:
            self.w(f"if {top} <= 0:")
            self.indent += 1
            self._raise(
                "f'rand bound {" + top + "} must be positive'", pc)
            self.indent -= 1
            self.w(f"{top} = ctx.rng.randrange({top})")
        elif op is Op.CLOCK:
            self.w("_c = ctx.clock_value")
            self.w("if _c is None:")
            self.w(f"    _v = ctx.clock() & {INT_MASK}")
            self.w(f"    _c = ctx.clock_value = _v - {_CARRY} "
                   f"if _v > {INT_MAX} else _v")
            self.w(f"{nxt} = _c")
            self._depth_check(d + 1, pc + 1)
        elif op is Op.CALL:
            return self._emit_call(pc, instr, d)
        else:                      # pragma: no cover - control ops
            raise AssertionError(f"emit_op got control op {op!r}")
        return True

    def _emit_call(self, pc: int, instr: Instr, d: int) -> bool:
        try:
            callee = self.program.functions[instr.arg]
        except (IndexError, TypeError):
            return self._underflow_raiser(pc)
        fidx = instr.arg
        if fidx < 0:               # Python-style negative index
            fidx += len(self.program.functions)
        n_args = callee.n_args
        if d < n_args:             # static underflow -> delegated
            return self._underflow_raiser(pc)
        # The CALL op itself is charged before the callee runs, like
        # the tree walk (budget check included via the flush).
        self.flush()
        self.w("if ctx.depth >= ctx.call_limit:")
        self.indent += 1
        self._raise("f'call depth exceeds {ctx.call_limit}'", pc)
        self.indent -= 1
        remain = d - n_args
        args = ", ".join(f"s{k}" for k in range(remain, d))
        pad = ", ".join("0" for _ in
                        range(callee.n_locals - n_args))
        call_args = ", ".join(p for p in ("ctx", args, pad) if p)
        if remain:
            self.w(f"ctx.outer += {remain}")
        self.w("ctx.depth += 1")
        self.w("if ctx.depth > ctx.max_depth:")
        self.w("    ctx.max_depth = ctx.depth")
        self.w(f"_r = _f{fidx}({call_args})")
        self.w("ctx.depth -= 1")
        self.w("if ctx.halted:")
        self.w("    return _r")
        if remain:
            self.w(f"ctx.outer -= {remain}")
        # No depth check on the pushed result: the tree walk's RET
        # path jumps straight to the next instruction.
        self.w(f"s{remain} = _r")
        self.new_segment(pc + 1, self.depth_at.get(pc + 1, remain + 1))
        return True

    def emit_return(self, pc: int, instr: Instr) -> None:
        """RET or HALT (both return the frame's value)."""
        d = self.depth_at[pc]
        self._pending += 1
        self.flush()
        value = f"s{d - 1}" if d > 0 else "0"
        if instr.op is Op.HALT:
            self.w("ctx.halted = True")
        self.w(f"return {value}")

    def emit_fell_off(self, pc: int) -> None:
        self.flush()
        self._raise("'fell off end of code'", pc)

    # -- small helpers ----------------------------------------------------

    def _local_slot(self, arg) -> Optional[int]:
        n = self.fn.n_locals
        if isinstance(arg, int):
            if 0 <= arg < n:
                return arg
            if -n <= arg < 0:      # Python-style negative indexing,
                return n + arg     # matching the tree walk's list read
        return None

    def _index_ok(self, arg, table) -> bool:
        try:
            table[arg]
        except (IndexError, TypeError):
            return False
        return True

    def _underflow_raiser(self, pc: int) -> bool:
        # The tree walk hits IndexError on out-of-range table/slot
        # operands and reports an operand-stack underflow; so do we.
        self._raise("'operand stack underflow'", pc)
        return False


# -- tier 1: structured control-flow recovery ---------------------------

class _Structurizer(_FuncEmitter):
    """Recovers ``while``/``if`` structure from the linear layout.

    Assumes the compiler's reducible shapes: back edges only to loop
    headers, loops properly nested, forward branches forming
    if/else diamonds or if-joins.  Raises :class:`_Bail` on anything
    else; the caller falls back to the block machine.
    """

    def __init__(self, program: Program, fi: int,
                 depth_at: Dict[int, int]) -> None:
        super().__init__(program, fi, depth_at)
        code = self.code
        n = len(code)
        self._targets: Set[int] = set()
        back: Dict[int, int] = {}
        for pc, instr in enumerate(code):
            if instr.op in (Op.JMP, Op.JZ, Op.JNZ):
                t = instr.arg
                if isinstance(t, int) and 0 <= t < n:
                    self._targets.add(t)
                    if t <= pc:
                        back[t] = max(back.get(t, 0), pc)
        #: header -> region end (one past the last back-edge source).
        self._loops = {h: src + 1 for h, src in back.items()}
        # Absorb a trailing exit jump: the compiler's for-loops end
        # with ``JZ header; JMP header+k`` where the JMP targets the
        # pc right after itself.  Folding that JMP into the region
        # makes every in-loop jump to it a plain ``break``.
        for h, e in list(self._loops.items()):
            if e < n and code[e].op is Op.JMP and code[e].arg == e + 1:
                self._loops[h] = e + 1
        regions = sorted((h, e) for h, e in self._loops.items())
        for i, (h1, e1) in enumerate(regions):
            for h2, e2 in regions[i + 1:]:
                if h2 < e1 and e2 > e1:
                    raise _Bail("loops not properly nested")
        # No jumps into a loop interior from outside it.
        for pc, instr in enumerate(code):
            if instr.op not in (Op.JMP, Op.JZ, Op.JNZ):
                continue
            t = instr.arg
            for h, e in self._loops.items():
                if h < t < e and not h <= pc < e:
                    raise _Bail("jump into loop interior")
        self._open: List[Tuple[int, int]] = []   # (header, end) stack
        self._emitted: Set[int] = set()
        self._dup = 0              # >0 while re-emitting a shared block

    def generate(self) -> None:
        self.new_segment(0, 0)
        falls = self._emit_seq(0, len(self.code))
        if falls:
            self.emit_fell_off(len(self.code))

    # Returns True when control can fall through past ``end``; False
    # when every path out of [start, end) transfers elsewhere.
    def _emit_seq(self, start: int, end: int,
                  escape: Optional[Tuple[int, int, int]] = None
                  ) -> bool:
        code = self.code
        pc = start
        while pc < end:
            if pc in self._loops and \
                    (not self._open or self._open[-1][0] != pc):
                le = self._loops[pc]
                if le > end:
                    raise _Bail("loop region crosses sequence end")
                self.flush()
                self.w("while True:")
                self.indent += 1
                self._open.append((pc, le))
                self.new_segment(pc, self.depth_at.get(pc, 0))
                falls = self._emit_seq(pc, le)
                if falls:
                    # The body's tail can fall past the region end
                    # (e.g. a conditional back edge as last op):
                    # charge its pending ops, then leave the loop.
                    self.flush()
                    self.w("break")
                self._open.pop()
                self.indent -= 1
                self.new_segment(le, self.depth_at.get(le, 0))
                pc = le
                continue
            if pc in self._emitted and not self._dup:
                raise _Bail("pc emitted twice")
            if pc not in self.depth_at:
                # Dead code: skippable unless something jumps here
                # (which would mean our reachability disagrees).
                if pc in self._targets:
                    raise _Bail("jump target unreachable in analysis")
                pc += 1
                continue
            if not self._dup:
                self._emitted.add(pc)
            instr = code[pc]
            op = instr.op
            if op is Op.JMP:
                pc = self._emit_jmp(pc, instr, end)
                if pc is None:
                    return False
                continue
            if op in (Op.JZ, Op.JNZ):
                pc = self._emit_branch(pc, instr, end, escape)
                if pc is None:
                    return False
                continue
            if op in (Op.RET, Op.HALT):
                self.emit_return(pc, instr)
                nxt = self._skip_dead(pc + 1, end)
                if nxt is None:
                    return False
                pc = nxt
                self.new_segment(pc, self.depth_at.get(pc, 0))
                continue
            if not self.emit_op(pc, instr):
                # Unconditional raiser (readonly PUTF etc.).
                self.flush()
                nxt = self._skip_dead(pc + 1, end)
                if nxt is None:
                    return False
                pc = nxt
                self.new_segment(pc, self.depth_at.get(pc, 0))
                continue
            pc += 1
        return True

    def _skip_dead(self, pc: int, end: int) -> Optional[int]:
        """After an unconditional terminator: skip dead code; bail if
        a live join follows (the structurizer should have consumed it
        through an if/else)."""
        while pc < end:
            if pc in self.depth_at and pc not in self._emitted:
                if pc in self._targets:
                    raise _Bail("live join after terminator")
                raise _Bail("reachable fall-in after terminator")
            if pc in self._targets and pc not in self._emitted:
                raise _Bail("dead jump target after terminator")
            pc += 1
        return None

    def _emit_jmp(self, pc: int, instr: Instr,
                  end: int) -> Optional[int]:
        t = instr.arg
        self._pending += 1
        if self._open and t == self._open[-1][0]:
            self.flush()
            self.w("continue")
            return self._after_terminator(pc, end)
        if self._open and t == self._open[-1][1]:
            self.flush()
            self.w("break")
            return self._after_terminator(pc, end)
        if not isinstance(t, int) or not 0 <= t <= len(self.code):
            self.emit_fell_off(pc)  # negative/huge target (clamped)
            return self._after_terminator(pc, end)
        if t == len(self.code):
            self.emit_fell_off(len(self.code))
            return self._after_terminator(pc, end)
        if t > pc and t <= end:
            # Forward skip over dead code only.
            for q in range(pc + 1, t):
                if q in self.depth_at or q in self._targets:
                    raise _Bail("forward JMP over live code")
            self.flush()
            self.new_segment(t, self.depth_at.get(t, 0))
            return t
        raise _Bail("unstructured JMP")

    def _after_terminator(self, pc: int, end: int) -> Optional[int]:
        nxt = self._skip_dead(pc + 1, end)
        if nxt is None:
            return None
        self.new_segment(nxt, self.depth_at.get(nxt, 0))
        return nxt

    def _emit_branch(self, pc: int, instr: Instr, end: int,
                     escape: Optional[Tuple[int, int, int]] = None
                     ) -> Optional[int]:
        code = self.code
        t = instr.arg
        d = self.depth_at[pc]
        cond = f"s{d - 1}"
        # Fall-through executes when the jump is NOT taken.
        fall_sym = "!=" if instr.op is Op.JZ else "=="
        take_sym = "==" if instr.op is Op.JZ else "!="
        self._pending += 1
        if escape is not None and t == escape[0]:
            # Short-circuit boolean chains: several conditional jumps
            # escape to the same small else-block of an enclosing
            # if/else (e.g. ``a and b`` pushing 0/1).  Emit a private
            # copy of that block on the taken arm — op accounting
            # stays per-path exact — and nest the rest of this branch
            # under ``else`` so the copy falls straight to the join.
            es, join, jmp_pc = escape
            self.flush()
            self.w(f"if {cond} {take_sym} 0:")
            self.indent += 1
            self.new_segment(es, self.depth_at.get(es, d - 1))
            self._dup += 1
            falls = self._emit_seq(es, join)
            self._dup -= 1
            if falls:
                self.flush()
            self.indent -= 1
            self.w("else:")
            self.indent += 1
            self.new_segment(pc + 1, d - 1)
            falls = self._emit_seq(pc + 1, end, escape)
            if falls:
                self._pending += 1     # the enclosing join JMP
                self.flush()
            self.indent -= 1
            return None
        if not isinstance(t, int) or not 0 <= t <= len(code):
            t = len(code)
        if t == len(code):
            self.flush()
            self.w(f"if {cond} {take_sym} 0:")
            self.indent += 1
            self.new_segment(pc, d - 1)
            self.emit_fell_off(len(code))
            self.indent -= 1
            self.new_segment(pc + 1, d - 1)
            return pc + 1
        if self._open and t == self._open[-1][0]:
            self.flush()
            self.w(f"if {cond} {take_sym} 0:")
            self.w("    continue")
            self.new_segment(pc + 1, d - 1)
            return pc + 1
        if self._open and t == self._open[-1][1]:
            self.flush()
            self.w(f"if {cond} {take_sym} 0:")
            self.w("    break")
            self.new_segment(pc + 1, d - 1)
            return pc + 1
        if t <= pc or t > end:
            raise _Bail("unstructured conditional branch")
        if t == pc + 1:
            # Branch to the next instruction: pure pop.
            return pc + 1
        # if/else: the then-part ends with a forward JMP to the join.
        last = code[t - 1]
        if last.op is Op.JMP and isinstance(last.arg, int) \
                and t <= last.arg <= end \
                and not (self._open and
                         last.arg in (self._open[-1][0],)) \
                and last.arg != len(code):
            join = last.arg
            self.flush()
            self.w(f"if {cond} {fall_sym} 0:")
            self.indent += 1
            self.new_segment(pc + 1, d - 1)
            if not self._dup:
                self._emitted.add(t - 1)
            falls = self._emit_seq(pc + 1, t - 1,
                                   escape=(t, join, t - 1))
            if falls:
                # Charge the join JMP where it actually executes —
                # at the then-branch tail, not hoisted over any
                # nested loops the branch may contain.
                self._pending += 1
                self.flush()
            self.indent -= 1
            if join > t:
                self.w("else:")
                self.indent += 1
                self.new_segment(t, self.depth_at.get(t, d - 1))
                falls = self._emit_seq(t, join)
                if falls:
                    self.flush()
                self.indent -= 1
            self.new_segment(join, self.depth_at.get(join, 0))
            return join
        # Plain if: [pc+1, t) guarded, join at t.
        self.flush()
        self.w(f"if {cond} {fall_sym} 0:")
        self.indent += 1
        self.new_segment(pc + 1, d - 1)
        falls = self._emit_seq(pc + 1, t)
        if falls:
            self.flush()
        self.indent -= 1
        self.new_segment(t, self.depth_at.get(t, d - 1))
        return t


# -- tier 2: basic-block machine ----------------------------------------

class _BlockEmitter(_FuncEmitter):
    """``while``/``elif`` dispatch over basic blocks.

    Fully general (any jump graph with consistent depths); the elif
    scan costs a few integer compares per transfer, so this tier is
    slower than structured recovery but still dispatch-free inside
    blocks.
    """

    def generate(self) -> None:
        code = self.code
        n = len(code)
        leaders = {0}
        for pc, instr in enumerate(code):
            if instr.op in (Op.JMP, Op.JZ, Op.JNZ):
                if isinstance(instr.arg, int) and 0 <= instr.arg < n:
                    leaders.add(instr.arg)
                if pc + 1 < n:
                    leaders.add(pc + 1)
        order = sorted(p for p in leaders if p in self.depth_at)
        self.w("_b = 0")
        self.w("while True:")
        self.indent += 1
        first = True
        for b in order:
            self.w(("if" if first else "elif") + f" _b == {b}:")
            first = False
            self.indent += 1
            self.new_segment(b, self.depth_at[b])
            self._emit_block(b, leaders, n)
            self.indent -= 1
        self.w("else:" if not first else "if True:")
        self.indent += 1
        self.new_segment(n, 0)
        self.emit_fell_off(n)
        self.indent -= 1
        self.indent -= 1

    def _goto(self, target: int, n: int) -> None:
        if not isinstance(target, int) or not 0 <= target < n:
            target = -1            # fell-off sentinel (else branch)
        self.w(f"_b = {target}")
        self.w("continue")

    def _emit_block(self, start: int, leaders: Set[int],
                    n: int) -> None:
        code = self.code
        pc = start
        while True:
            if pc >= n:
                self.emit_fell_off(n)
                return
            instr = code[pc]
            op = instr.op
            if op is Op.JMP:
                self._pending += 1
                self.flush()
                self._goto(instr.arg, n)
                return
            if op in (Op.JZ, Op.JNZ):
                d = self.depth_at[pc]
                cond = f"s{d - 1}"
                sym = "==" if op is Op.JZ else "!="
                t = instr.arg
                if not isinstance(t, int) or not 0 <= t < n:
                    t = -1
                self._pending += 1
                self.flush()
                self.w(f"_b = {t} if {cond} {sym} 0 else {pc + 1}")
                self.w("continue")
                return
            if op in (Op.RET, Op.HALT):
                self.emit_return(pc, instr)
                return
            if not self.emit_op(pc, instr):
                self.flush()
                return
            pc += 1
            if pc in leaders:
                self.flush()
                self._goto(pc, n)
                return


# -- program compilation ------------------------------------------------

def _function_source(program: Program, fi: int
                     ) -> Optional[Tuple[str, List[str]]]:
    """(mode, lines) of one generated function, or None to delegate."""
    fn = program.functions[fi]
    if not fn.code:
        return None
    depth_at = _depth_map(program, fn.code)
    if depth_at is None:
        return None
    try:
        emitter = _Structurizer(program, fi, depth_at)
        emitter.generate()
        mode = MODE_STRUCTURED
    except _Bail:
        emitter = _BlockEmitter(program, fi, depth_at)
        emitter.generate()
        mode = MODE_BLOCKS

    params = ["ctx"] + [f"l{k}" for k in range(fn.n_locals)]
    header = [f"def _f{fi}({', '.join(params)}):"]
    prologue = ["    _o = ctx.outer"]
    ops_used = {i.op for i in fn.code}
    if ops_used & {Op.GETF, Op.PUTF}:
        prologue.append("    F = ctx.fields")
    if ops_used & {Op.HLOAD, Op.HSTORE}:
        prologue.append("    H = ctx.heap")
    if Op.ABASE in ops_used:
        prologue.append("    B = ctx.bases")
    if Op.ALEN in ops_used:
        prologue.append("    L = ctx.lengths")
    if Op.HSTORE in ops_used:
        prologue.append("    W = ctx.wranges")
    body = emitter.lines
    # _FuncEmitter writes at indent 2 (inside "while" for blocks uses
    # deeper); function bodies start at indent 1 -> dedent once.
    body = [ln[4:] if ln.startswith("    ") else ln for ln in body]
    return mode, header + prologue + body


_STATS = {
    "programs_compiled": 0,
    "functions_structured": 0,
    "functions_blocks": 0,
    "programs_delegated": 0,
    "cache_evictions": 0,
    "cache_invalidations": 0,
}

#: Bounded registry of live compiled programs (LRU by compile/use).
_CACHE: "OrderedDict[int, Program]" = OrderedDict()


def stats() -> Dict[str, int]:
    """Counters describing codegen activity (tiers, cache churn)."""
    out = dict(_STATS)
    out["cache_size"] = len(_CACHE)
    return out


def compile_pycode(program: Program) -> Optional[CompiledProgram]:
    """Generate + compile() this program now; None -> not compilable.

    The result is NOT cached here and the cold-call counter is not
    consulted; use :func:`code_for` on the execution path.
    """
    parts: List[str] = []
    modes: List[str] = []
    for fi in range(len(program.functions)):
        res = _function_source(program, fi)
        if res is None:
            _STATS["programs_delegated"] += 1
            return None
        mode, lines = res
        modes.append(mode)
        parts.extend(lines)
        parts.append("")
    source = "\n".join(parts)
    ns = {
        "InterpreterFault": InterpreterFault,
        "_budget_fault": _budget_fault,
        "_stack_fault": _stack_fault,
        "_NAME": program.name,
    }
    exec(compile(source, f"<pycodegen:{program.name}>", "exec"), ns)
    _STATS["programs_compiled"] += 1
    for mode in modes:
        key = ("functions_structured" if mode == MODE_STRUCTURED
               else "functions_blocks")
        _STATS[key] += 1
    return CompiledProgram(program, ns["_f0"],
                           program.entry.n_locals, tuple(modes),
                           source)


_DELEGATED = object()   # slot value: "this program never compiles"


def code_for(program: Program) -> Optional[CompiledProgram]:
    """The compiled program once hot; None while the tree walk runs it.

    Every execution asks exactly once, so a call that answers None is
    also counted: the ``_pycodegen`` slot on the Program holds the
    number of cold calls so far, then the :class:`CompiledProgram`
    (also tracked by the bounded LRU registry), or the delegate marker
    for programs the emitters cannot express.
    """
    slot = getattr(program, "_pycodegen", None)
    if slot.__class__ is CompiledProgram:
        if id(program) in _CACHE:
            _CACHE.move_to_end(id(program), last=True)
        return slot
    if slot is _DELEGATED:
        return None
    calls = slot or 0
    if calls < TIER_UP_CALLS:
        object.__setattr__(program, "_pycodegen", calls + 1)
        return None
    compiled = compile_pycode(program)
    if compiled is None:
        object.__setattr__(program, "_pycodegen", _DELEGATED)
        return None
    object.__setattr__(program, "_pycodegen", compiled)
    _CACHE[id(program)] = program
    while len(_CACHE) > CACHE_LIMIT:
        _, evicted = _CACHE.popitem(last=False)
        object.__setattr__(evicted, "_pycodegen", None)
        _STATS["cache_evictions"] += 1
    return compiled


def invalidate(program: Program) -> bool:
    """Return a program to cold (enclave function replace/remove).

    Drops the compiled code *and* the cold-call count.  Returns True
    when there was anything to drop.
    """
    dropped = getattr(program, "_pycodegen", None) is not None
    if dropped:
        object.__setattr__(program, "_pycodegen", None)
        _STATS["cache_invalidations"] += 1
    _CACHE.pop(id(program), None)
    return dropped


# -- execution ----------------------------------------------------------

class CodegenRunner:
    """Executor bound to one ``(interpreter, program)`` pair.

    The one place a program goes copy-in -> generated entry ->
    copy-out.  It keeps the execution context across invocations, but
    nothing the interpreter can change: limits, RNG and clock are read
    from it on every :meth:`run`, and :func:`code_for` is asked on
    every :meth:`run`, so a lowered budget or an invalidated program
    takes effect on the next call.
    """

    __slots__ = ("program", "ctx", "n_locals", "n_fields",
                 "no_arrays", "_interp")

    def __init__(self, interp, program: Program) -> None:
        self.program = program
        self._interp = interp
        self.n_locals = program.entry.n_locals
        self.n_fields = len(program.field_table)
        self.no_arrays = not program.array_table
        self.ctx = _Ctx()
        self.ctx.name = program.name

    def run(self, fields: Sequence[int],
            arrays: Sequence[Sequence[int]],
            args: Sequence[int] = ()) -> ExecResult:
        """Run the program: the tree walk while cold, generated code
        after."""
        program = self.program
        interp = self._interp
        compiled = code_for(program)
        if compiled is None or len(args) > self.n_locals:
            # Cold, not compilable, or over-long entry args growing the
            # frame beyond the generated signature (the tree walk
            # tolerates that).
            return interp.execute_tree(program, fields, arrays, args)
        plain = (self.no_arrays and not args and not len(arrays)
                 and len(fields) == self.n_fields)
        if plain:
            # Scalar state only (most of Table 1): nothing to lay out
            # on the heap, nothing to slice back out.
            field_file = [wrap64(v) for v in fields]
            heap: List[int] = []
            bases = lengths = wranges = ()
            locals_ = [0] * self.n_locals
        else:
            field_file, heap, bases, lengths, wranges = _copy_in(
                program, fields, arrays, interp.max_heap_words)
            locals_ = _make_locals(self.n_locals, args)
        ctx = self.ctx
        budget = interp.op_budget
        ctx.budget = budget if budget is not None else _NO_BUDGET
        ctx.stack_limit = interp.max_operand_stack
        ctx.call_limit = interp.max_call_depth
        ctx.rng = interp.rng
        ctx.clock = interp.clock
        ctx.fields = field_file
        ctx.heap = heap
        ctx.bases = bases
        ctx.lengths = lengths
        ctx.wranges = wranges
        ctx.ops = 0
        ctx.outer = 0
        ctx.max_seen = 0
        ctx.depth = 1
        ctx.max_depth = 1
        ctx.clock_value = None
        ctx.halted = False
        result = compiled.entry(ctx, *locals_)
        stats_ = ExecStats(ops_executed=ctx.ops,
                           max_operand_stack=ctx.max_seen,
                           max_call_depth=ctx.max_depth,
                           heap_words=len(heap))
        if plain:
            return ExecResult(value=result, fields=field_file,
                              arrays=[], stats=stats_)
        return _finish(program, result, field_file, heap, bases,
                       lengths, stats_)


# -- the per-packet plan ------------------------------------------------

def plan_for(interp, fn):
    """The whole invocation of an installed function as one generated
    callable, once its program is hot; None while it is cold.

    ``plan(packet, msg_entry, acct)`` is ``fn.run_packet``'s generic
    tier with nothing in between: each field-table slot read straight
    from the packet / ``msg_entry.values`` / ``fn.global_store``
    (``int()`` and the 64-bit wrap inline), arrays laid out on the
    heap with the stride and heap-limit checks, only the context slots
    this program's ops read reset — limits, RNG and clock from
    ``interp`` on every call — the generated body, the function's
    write lists (``fn.packet_writes`` and its siblings: the static
    write set) written back, ``fn.stats`` updated; it returns the op count
    and lets an :class:`InterpreterFault` out before anything is
    written.  Its first statement is the tier decision: once
    :func:`invalidate` or an eviction has taken the compiled program
    away it runs nothing and answers None.

    A cold program is only peeked at, never counted: the generic tier
    runs it through :meth:`CodegenRunner.run`, which asks
    :func:`code_for` once.
    """
    program = fn.program
    compiled = getattr(program, "_pycodegen", None)
    if compiled.__class__ is not CompiledProgram or \
            id(program) not in _CACHE or \
            any(ref.scope != "global" for ref in program.array_table):
        return None
    ns = {
        "InterpreterFault": InterpreterFault, "_NAME": program.name,
        "_program": program, "_compiled": compiled,
        "_touch": _CACHE.move_to_end, "_pid": id(program),
        "_fn": fn, "_interp": interp, "_f0": compiled.entry,
    }
    ops_used = {i.op for f in program.functions for i in f.code}
    scopes = ({ref.scope for ref in program.field_table} |
              {ref.scope for ref in program.array_table})
    head = ["def _plan(packet, msg, acct):",
            "    if _program._pycodegen is not _compiled:",
            "        return None",
            "    _touch(_pid)"]
    if "global" in scopes:
        head.append("    _g = _fn.global_store")
    if "message" in scopes:
        head.append("    _m = msg.values")
    for i, ref in enumerate(program.field_table):
        if ref.scope == "message":
            expr = f"_m[{ref.name!r}]"
        else:
            packet = ref.scope == "packet"
            field = (fn.packet_schema if packet
                     else fn.global_schema).field_named(ref.name)
            if field.binder is not None:
                ns[f"_b{i}"] = field.binder
                expr = f"int(_b{i}(packet, {'None' if packet else '_g'}))"
            elif packet:
                ns[f"_d{i}"] = field.default
                expr = f"int(getattr(packet, {ref.name!r}, _d{i}))"
            else:
                expr = f"_g.scalar({ref.name!r})"
        head += ["    " + ln for ln in _wrap_lines(f"f{i}", expr)]
    for i, ref in enumerate(program.array_table):
        binder = fn.global_schema.field_named(ref.name).binder
        if binder is not None:
            ns[f"_ab{i}"] = binder
            head.append(f"    a{i} = list(_ab{i}(packet, _g))")
        else:
            head.append(f"    a{i} = _g.array({ref.name!r})")

    # What the generic tier does inside ``execute``: heap layout,
    # frame set-up, the body.
    body: List[str] = []
    if program.array_table:
        body.append("H = []")
        for i, ref in enumerate(program.array_table):
            body.append(f"n{i} = len(a{i})")
            if ref.stride != 1:
                what = f"array {ref.scope}.{ref.name}: length "
                body += [
                    f"if n{i} % {ref.stride}:",
                    f"    raise InterpreterFault({what!r} + str(n{i}) "
                    f"+ ' not a multiple of stride {ref.stride}', "
                    f"_NAME)"]
            body += [
                f"b{i} = len(H)",
                f"H += [_w - {_CARRY} if (_w := _x & {INT_MASK}) > "
                f"{INT_MAX} else _w for _x in a{i}]"]
        n = len(program.array_table)
        body += [
            "if len(H) > _interp.max_heap_words:",
            "    raise InterpreterFault('heap of %d words exceeds "
            "limit %d' % (len(H), _interp.max_heap_words), _NAME)",
            "ctx.heap = H",
            "ctx.bases = (%s,)" % ", ".join(f"b{i}" for i in range(n)),
            "ctx.lengths = (%s,)" % ", ".join(
                f"n{i} // {ref.stride}"
                for i, ref in enumerate(program.array_table)),
            "ctx.wranges = (%s)" % "".join(
                f"(b{i}, b{i} + n{i}), "
                for i, ref in enumerate(program.array_table)
                if ref.writable)]
    fields = ", ".join(f"f{i}" for i in range(len(program.field_table)))
    body += [f"ctx.fields = F = [{fields}]",
             "ctx.ops = ctx.outer = ctx.max_seen = 0",
             "_b = _interp.op_budget",
             f"ctx.budget = {_NO_BUDGET} if _b is None else _b",
             "ctx.stack_limit = _interp.max_operand_stack"]
    if Op.CALL in ops_used:
        body += ["ctx.depth = ctx.max_depth = 1",
                 "ctx.call_limit = _interp.max_call_depth",
                 "ctx.halted = False"]
    if Op.RAND in ops_used:
        body.append("ctx.rng = _interp.rng")
    if Op.CLOCK in ops_used:
        body += ["ctx.clock = _interp.clock", "ctx.clock_value = None"]
    body.append("_f0(%s)" % ", ".join(
        ["ctx"] + ["0"] * compiled.n_locals))

    # The same write lists the generic tier walks, in its order.
    tail: List[str] = []
    if fn.packet_writes:
        tail.append("if _fn.commit_packet_writes:")
        for i, name in fn.packet_writes:
            plain = name.isidentifier() and not keyword.iskeyword(name)
            tail.append(f"    packet.{name} = F[{i}]" if plain else
                        f"    setattr(packet, {name!r}, F[{i}])")
    tail += [f"_m[{name!r}] = F[{i}]" for i, name in fn.message_writes]
    tail += [f"_g.commit_scalar({name!r}, F[{i}])"
             for i, name in fn.global_writes]
    tail += [f"_g.commit_array({name!r}, H[b{i}:b{i} + n{i}])"
             for i, name in fn.array_writes]
    tail += ["_s = _fn.stats",
             "_s.invocations += 1",
             "ops = ctx.ops",
             "_s.ops_executed += ops",
             f"_v = ctx.max_seen * {WORD_BYTES}",
             "if _v > _s.max_stack_bytes:",
             "    _s.max_stack_bytes = _v"]
    if program.array_table:
        tail += [f"_v = len(H) * {WORD_BYTES}",
                 "if _v > _s.max_heap_bytes:",
                 "    _s.max_heap_bytes = _v"]
    tail.append("return ops")

    source = "\n".join(
        head +
        ["    if acct is not None:",
         "        acct.lap('enclave')",
         "    try:"] +
        ["        " + ln for ln in body] +
        ["    finally:",
         "        if acct is not None:",
         "            acct.lap('interpreter')"] +
        ["    " + ln for ln in tail]) + "\n"
    ctx = ns["ctx"] = _Ctx()
    ctx.name = program.name
    # A program without arrays may still carry heap ops (they fault
    # on the empty heap); the body must find the slots set.
    ctx.heap = []
    ctx.bases = ctx.lengths = ctx.wranges = ()
    exec(compile(source, f"<pycodegen-plan:{program.name}>", "exec"),
         ns)
    plan = ns["_plan"]
    plan.source = source
    return plan


def execute_codegen(interp, program: Program, fields: Sequence[int],
                    arrays: Sequence[Sequence[int]],
                    args: Sequence[int] = ()) -> ExecResult:
    """One-shot :meth:`CodegenRunner.run`."""
    return CodegenRunner(interp, program).run(fields, arrays, args)


def execute_codegen_batch(interp, program: Program,
                          snapshots: Sequence[Tuple[Sequence[int],
                                                    Sequence[
                                                        Sequence[int]]]],
                          args: Sequence[int] = ()) -> List[object]:
    """Batched twin of :func:`execute_codegen`, faults isolated."""
    run = CodegenRunner(interp, program).run
    out: List[object] = []
    for fields, arrays in snapshots:
        try:
            out.append(run(fields, arrays, args))
        except InterpreterFault as fault:
            out.append(fault)
    return out
