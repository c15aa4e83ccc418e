"""Bytecode -> straight-line Python codegen backend.

The tree walk (``Interpreter.execute_tree``) re-decodes every
instruction through a long ``Op`` comparison chain.  This module
removes dispatch entirely: each :class:`~repro.lang.bytecode.Program`
is translated to Python source — one ``def`` per bytecode function —
and ``compile()``d once.  Branches become real ``while``/``if``
structures and guards are inlined.  The operand stack is kept
symbolically while the source is written: pure ops compute in Python
expressions, a compare that feeds a branch is the ``if`` test itself,
and a value lands in an operand-slot local only where it must (see
:class:`_Emitter`).

The 64-bit wraparound commutes with ``+ - * << & | ^ ~`` and negation,
so it is taken only where a value is observed — a compare, a branch
test, ``//``, ``%``, ``>>``, a shift amount, a heap address or stored
word, a RAND bound, STORE/PUTF, a CALL argument, a return — as a range
test that rarely calls ``wrap64``; a heap address is wrapped before
its bounds test.  Where the per-function value intervals of
:func:`repro.lang.analysis.facts` prove every op under a value exact,
there is no wrap at all, and an HLOAD they prove inside its array
(``ABASE k + x*stride + off`` under a guard ``x < ALEN k``: the record
search of PIAS, SFF and WCMP) tests no bounds.  Every Python local,
field slot and operand slot always holds a word: an entry argument
that is not one sends the run to the tree walk.

Generated code tests neither the op budget nor the operand-stack
limit, nor, over an acyclic call graph, the call-depth limit.  The
program's :class:`~repro.lang.analysis.Bounds` are proven once, by
:func:`repro.lang.analysis.facts`, and every run makes one entry test
against the limits as they are then (:func:`entry_test`); a run they
do not fit, and any run under an op budget, goes to the tree walk,
which faults where the limit says.  A recursive program's stack is
bounded by its deepest frame times the call-depth limit, which its
CALLs test.

The per-packet plan (:func:`plan_for`) reads only the slots an
invocation can observe, ``Effects.loads`` of
:func:`repro.lang.analysis.facts` — the generic tier reads the same —
keeps a value that is an exact ``int`` in the 64-bit range as it is,
and converts any other with ``interpreter.state_word``, which faults
the hop on a value ``int()`` refuses.

A program is compiled once, by :func:`code_for`: at install
(``PycodegenBackend.bind``), or on a direct caller's first call.
:meth:`CodegenRunner.run` — the one execution body, which
:func:`execute_codegen` wraps — runs it.

Each bytecode function is written as ``while True:`` loops and
``if``/``else`` from the nesting :func:`repro.lang.analysis.facts`
records: the verifier accepts only a function whose reachable code
nests that way, and this backend compiles exactly what
:func:`~repro.lang.verifier.verify` accepts; a program it rejects runs
on the tree walk (only a direct, unverified caller can run one).

Semantics are kept bit-for-bit identical to the tree walk on results,
:class:`ExecStats` and faults, reason and pc (the differential harness
in ``tests/lang/test_differential.py`` enforces this).

The compiled code lives in a slot on the ``Program`` instance, so
every enclave function bound to one program runs the same generated
code.  A ``Program`` is frozen, so its generated code depends on
nothing else: like :func:`repro.lang.analysis.facts`, it lives in a
slot on its ``Program`` and dies with it.
"""

from __future__ import annotations

import keyword
from typing import (Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .analysis import (CMP_SYMBOLS, NEGATED, PUSHES, Block, Bounds, Exit,
                       If, Loop, ProgramFacts, Split, facts)
from .bytecode import (INT_MASK, INT_MAX, INT_MIN, Instr, Op, Program,
                       wrap64)
from .interpreter import (WORD_BYTES, ExecResult, ExecStats,
                          InterpreterFault, _copy_in, _finish,
                          _make_locals, state_word)

_CARRY = 1 << 64

#: Ops that end a straight-line segment (a JZ/JNZ to the next pc
#: does not: it is rendered as a pop).
_SEGMENT_ENDS = frozenset({Op.JMP, Op.CALL, Op.RET, Op.HALT})



class _Ctx:
    """Mutable per-invocation state shared by the generated functions."""

    __slots__ = (
        "fields", "heap", "bases", "lengths", "wranges", "ops",
        "outer", "max_seen", "depth", "call_limit", "max_depth", "rng",
        "clock", "clock_value", "halted", "name",
    )


class CompiledProgram:
    """One program's generated functions plus bookkeeping.

    ``functions[k]`` is ``_fk(ctx, ...)``; ``entry`` is ``_f0``, which
    the generic tier runs, and ``fits(interp)`` its :func:`entry_test`.
    ``plan`` is the compiled per-packet plan :func:`plan_for` built for
    it — ``(packet schema, global schema, code, namespace, source)`` —
    which every installed function binding the program instantiates.
    """

    __slots__ = ("program", "functions", "entry", "fits", "n_locals",
                 "source", "plan")

    def __init__(self, program: Program, functions: tuple, fits,
                 source: str) -> None:
        self.program = program
        self.functions = functions
        self.entry = functions[0]
        self.fits = fits
        self.n_locals = program.entry.n_locals
        self.source = source
        self.plan = None


# -- the emitter --------------------------------------------------------

class _Val(NamedTuple):
    """One operand-stack entry as Python source.

    ``expr`` computes it: a word, or, with ``wrap``, an int congruent
    to the word mod 2**64 (``+ - * << & | ^ ~`` and negation commute
    with that reduction).  ``atom`` says it needs no parentheses as an
    operand.  A compare result carries its ``test``, ``(symbol, left,
    right)``, which holds when the value is 1.  ``reads`` names what it
    reads: locals ``lK``, field slots ``fK``, operand slots ``sK`` (an
    entry at depth ``d`` reads none below ``s{d}``) and the heap ``H``.
    """

    expr: str
    atom: bool = True
    wrap: bool = False
    test: Optional[Tuple[str, str, str]] = None
    reads: FrozenSet[str] = frozenset()


def _slot(d: int) -> _Val:
    """Operand slot ``d``, which always holds a word."""
    return _Val(f"s{d}", reads=frozenset((f"s{d}",)))


def _operand(v: _Val) -> str:
    return v.expr if v.atom else f"({v.expr})"


def _as_value(test: Tuple[str, str, str]) -> str:
    """The 0/1 value of a compare ``test``."""
    symbol, left, right = test
    return f"1 if {left} {symbol} {right} else 0"


def _reads_slot(v: _Val) -> bool:
    return any(name[0] == "s" for name in v.reads)


_ARITH = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*"}
_BITWISE = {Op.BAND: "&", Op.BOR: "|", Op.BXOR: "^"}


class _Emitter:
    """Emits the Python body of one bytecode function.

    It walks the function's structure from
    :func:`~repro.lang.analysis.facts` — loops, if/else shapes and the
    straight-line pcs between them — and lowers each op onto a symbolic
    operand stack of :class:`_Val`: a pure op (CONST, LOAD, GETF,
    ABASE, ALEN, the arithmetic and bitwise ops, the compares, NOTL)
    builds a Python expression instead of a statement, and a compare
    that feeds a JZ/JNZ becomes the ``if`` test itself.  An entry is
    materialised into its slot, the Python local ``s{depth}``, only
    before an op that writes what it reads (STORE, PUTF, HSTORE), that
    can fault and uses it twice, that calls, or at the edge of a
    straight-line segment; bytecode locals are the parameters ``l{k}``.
    Every Python local and every slot always holds a word.

    The 64-bit wrap is taken where a value is observed — a compare, a
    branch test, ``//``, ``%``, ``>>``, a shift amount, a heap address
    or stored word, a RAND bound, STORE, PUTF, a CALL argument, a
    return — as a range test, ``if not INT_MIN <= v <= INT_MAX: v =
    _wrap(v)``, and not at all where the function's
    :class:`~repro.lang.analysis.Intervals` prove every op under the
    value exact.  An HLOAD or HSTORE they prove inside its array tests
    no bounds.  Deferring a pure expression is invisible: it cannot
    fault, and op counts, ``_ms``, fault reasons and pcs are the tree
    walk's.

    The program is verified: every index, slot and jump target is in
    range, every reachable pc has one operand-stack depth, and every
    reachable pc sits in the recorded structure.

    Code runs only under limits its bounds fit (:func:`entry_test`), so
    it tests neither the op budget nor the stack limit, and a CALL
    tests the call-depth limit only in a recursive program.  It keeps
    the counts ``ExecStats`` reports in the locals ``_ops`` and
    ``_ms``, once per straight-line segment, spliced in *ahead* of the
    segment's statements: ``_ops`` grows by the segment's op count,
    and ``_ms`` rises to the deepest push in it.  A push is the only
    op that can raise the tree walk's high-water mark, and that mark
    is never below the current depth, so an update is left out where a
    lower bound on ``_ms`` known on every path to the segment covers
    it.  Hoisting either count ahead of a fault is invisible: a
    faulting invocation reports no stats.

    ``exit`` is None for a function of its own, ``_fN(ctx, ...)``,
    which takes the counts from ``ctx`` once, hands them back around
    each CALL and at each exit, and returns its value.  Otherwise the
    body is the entry inlined into the per-packet plan: every way out
    of the body runs the ``exit`` lines (the plan's write-back tail)
    instead of returning a value, and a CALL hands the counts and,
    when a callee touches them, the field slots to the callee's
    ``ctx`` and takes them back.
    """

    def __init__(self, program: Program, fi: int,
                 found: ProgramFacts,
                 exit: Optional[List[str]] = None) -> None:
        self.program = program
        self.fi = fi
        self.exit = exit
        self.field = "F[{}]" if exit is None else "f{}"
        # A callee's depths count from its caller's stack, ``_o``.
        self.outer = "_o + " if exit is None else ""
        if exit is not None:
            called = {instr.arg for fn in program.functions
                      for instr in fn.code if instr.op is Op.CALL}
            used = set().union(*(found.ops_used[k] for k in called))
            # A spill hands every slot over, so every slot is loaded
            # (``Effects.loads``).
            self._spill_fields = found.effects.callee_fields
            self._reload_fields = Op.PUTF in used
        self.recursive = found.bounds.calls is None
        self.code = program.functions[fi].code
        self.depth_at = found.depths[fi]
        self.structure = found.structure[fi]
        self.exact = found.intervals[fi].exact
        self.in_bounds = found.intervals[fi].in_bounds
        self.lines: List[str] = []
        self.stack: List[_Val] = []
        # A function's body sits in its ``def``; the plan's in a ``try``.
        self.indent = 1 if exit is None else 2
        # Segment state: where its counts go, its op count, its deepest
        # push; and the high-water mark every path here has reached.
        self._anchor = 0
        self._anchor_indent = self.indent
        self._pending = 0
        self._seg_high = 0
        self._floor = 0

    # -- low-level helpers ----------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def new_segment(self, depth: int) -> None:
        """Start a segment at an operand-stack depth of ``depth``, with
        every entry in its slot."""
        self._anchor = len(self.lines)
        self._anchor_indent = self.indent
        self._pending = 0
        self._seg_high = 0
        self._floor = max(self._floor, depth)
        self.stack[:] = [_slot(d) for d in range(depth)]

    def flush(self) -> None:
        """Splice the segment's counts in at its start."""
        pad = "    " * self._anchor_indent
        counts = []
        if self._pending:
            counts.append(f"{pad}_ops += {self._pending}")
        if self._seg_high > self._floor:
            high = f"{self.outer}{self._seg_high}"
            counts += [f"{pad}if {high} > _ms:",
                       f"{pad}    _ms = {high}"]
            self._floor = self._seg_high
        self.lines[self._anchor:self._anchor] = counts
        self._pending = 0
        self._seg_high = 0
        self._anchor = len(self.lines)
        self._anchor_indent = self.indent

    def _push(self, new_depth: int) -> None:
        """A push leaves the operand stack ``new_depth`` deep."""
        if new_depth > self._seg_high:
            self._seg_high = new_depth

    def _raise(self, reason_expr: str, pc: int) -> None:
        self.w(f"raise InterpreterFault({reason_expr}, _NAME, {pc})")

    def _fault_if(self, test: str, reason_expr: str, pc: int) -> None:
        self.w(f"if {test}:")
        self.indent += 1
        self._raise(reason_expr, pc)
        self.indent -= 1

    # -- the symbolic stack ---------------------------------------------

    def _wrap(self, name: str) -> None:
        """Reduce the int in ``name`` to its word."""
        self.w(f"if not {INT_MIN} <= {name} <= {INT_MAX}:")
        self.w(f"    {name} = _wrap({name})")

    def _assign(self, name: str, v: _Val) -> None:
        """``name = v`` as a word; nothing live reads ``name``."""
        if v.expr != name:
            self.w(f"{name} = {v.expr}")
        if v.wrap:
            self._wrap(name)

    def spill(self, pending: Sequence[_Val] = (), base: int = 0
              ) -> List[_Val]:
        """Materialise every live entry, and the popped ``pending``
        from depth ``base`` on, each into its own slot, in one
        simultaneous assignment."""
        items = list(enumerate(self.stack)) + [
            (base + k, v) for k, v in enumerate(pending)]
        moves = [(d, v) for d, v in items if v.expr != f"s{d}"]
        if moves:
            self.w(", ".join(f"s{d}" for d, _ in moves) + " = " +
                   ", ".join(v.expr for _, v in moves))
            for d, v in moves:
                if v.wrap:
                    self._wrap(f"s{d}")
        self.stack[:] = [_slot(d) for d in range(len(self.stack))]
        return [_slot(base + k) for k in range(len(pending))]

    def _spill_readers(self, name: str) -> None:
        """Before a write to ``name``: spill if a live entry reads it."""
        if any(name in v.reads for v in self.stack):
            self.spill()

    def _words(self, vals: Sequence[_Val], base: int,
               needs: str = "") -> List[_Val]:
        """The popped ``vals``, from depth ``base`` on, observed.  Per
        value, ``needs`` says how: ``w`` (the default) a word, ``a`` a
        word in one name (it is used more than once), ``-`` as it is.
        A value that may lie outside the range where a word is needed,
        or that is compound where a name is, goes to its slot."""
        out = list(vals)
        for i, v in enumerate(out):
            need = needs[i] if i < len(needs) else "w"
            if not (need == "w" and v.wrap or
                    need == "a" and (v.wrap or not v.atom)):
                continue
            name = f"s{base + i}"
            if any(name in e.reads for e in self.stack) or \
                    any(name in out[k].reads for k in range(i)):
                out[:i + 1] = self.spill(out[:i + 1], base)
            else:
                self._assign(name, v)
                out[i] = _slot(base + i)
        return out

    def _pop_words(self, n: int, needs: str = "") -> List[_Val]:
        """Pop the top ``n`` entries, lowest first, observed as
        :meth:`_words` says."""
        base = len(self.stack) - n
        vals = self.stack[base:]
        del self.stack[base:]
        return self._words(vals, base, needs)

    def _test(self, v: _Val, nonzero: bool) -> str:
        """The Python test that the popped ``v`` is (or is not) 0."""
        if v.test is not None:
            symbol, left, right = v.test
            if not nonzero:
                symbol = NEGATED[symbol]
            return f"{left} {symbol} {right}"
        (v,) = self._words([v], len(self.stack))
        return _operand(v) if nonzero else f"not {_operand(v)}"

    def _cond(self, pc: int, taken: bool) -> str:
        """Pop the JZ/JNZ operand at ``pc`` and spill the rest: the test
        for the branch being taken (or not)."""
        v = self.stack.pop()
        test = self._test(v, (self.code[pc].op is Op.JNZ) == taken)
        self.spill()
        return test

    # -- one straight-line op -------------------------------------------

    def emit_op(self, pc: int, instr: Instr) -> None:
        """Emit a non-control op."""
        op = instr.op
        stack = self.stack
        d = len(stack)
        self._pending += 1
        if op in PUSHES:
            self._push(d + 1)
        if op is Op.CONST:
            value = wrap64(instr.arg)
            stack.append(_Val(str(value) if value >= 0 else f"({value})"))
        elif op is Op.LOAD:
            stack.append(_Val(f"l{instr.arg}",
                              reads=frozenset((f"l{instr.arg}",))))
        elif op is Op.GETF:
            stack.append(_Val(self.field.format(instr.arg),
                              reads=frozenset((f"f{instr.arg}",))))
        elif op is Op.ABASE:
            stack.append(_Val(f"_B{instr.arg}"))
        elif op is Op.ALEN:
            stack.append(_Val(f"_L{instr.arg}"))
        elif op is Op.STORE or op is Op.PUTF:
            name = (f"l{instr.arg}" if op is Op.STORE
                    else f"f{instr.arg}")
            v = stack.pop()
            self._spill_readers(name)
            target = name if op is Op.STORE else \
                self.field.format(instr.arg)
            if v.wrap and target != name:   # a callee's ``F[k]``
                (v,) = self._words([v], d - 1)
            self._assign(target, v)
        elif op is Op.POP or op is Op.JZ or op is Op.JNZ:
            stack.pop()            # a branch to the next pc only pops
        elif op is Op.DUP:
            top = stack[-1]
            if top.atom and not _reads_slot(top):
                stack.append(top)
            else:
                self.spill()
                self.w(f"s{d} = s{d - 1}")
                stack.append(_slot(d))
        elif op is Op.SWAP:
            if _reads_slot(stack[-1]) or _reads_slot(stack[-2]):
                self.spill()
                self.w(f"s{d - 1}, s{d - 2} = s{d - 2}, s{d - 1}")
            else:
                stack[-1], stack[-2] = stack[-2], stack[-1]
        elif op in _ARITH or op in _BITWISE:
            rhs = stack.pop()
            lhs = stack.pop()
            wrap = lhs.wrap or rhs.wrap or (
                op in _ARITH and pc not in self.exact)
            symbol = _ARITH.get(op) or _BITWISE[op]
            stack.append(_Val(f"{_operand(lhs)} {symbol} {_operand(rhs)}",
                              False, wrap, None, lhs.reads | rhs.reads))
        elif op is Op.NEG or op is Op.BNOT:
            v = stack.pop()
            wrap = v.wrap or (op is Op.NEG and pc not in self.exact)
            symbol = "-" if op is Op.NEG else "~"
            stack.append(_Val(f"{symbol}{_operand(v)}", False, wrap,
                              None, v.reads))
        elif op is Op.DIV or op is Op.MOD:
            lhs, rhs = self._pop_words(2, "wa")
            what = "division" if op is Op.DIV else "modulo"
            self._fault_if(f"{rhs.expr} == 0", f"'{what} by zero'", pc)
            symbol = "//" if op is Op.DIV else "%"
            # Only INT_MIN // -1 leaves the range.
            wrap = op is Op.DIV and pc not in self.exact
            stack.append(_Val(f"{_operand(lhs)} {symbol} {rhs.expr}",
                              False, wrap, None, lhs.reads | rhs.reads))
        elif op is Op.SHL or op is Op.SHR:
            lhs, rhs = self._pop_words(2, "-a" if op is Op.SHL else "wa")
            self._fault_if(
                f"not 0 <= {rhs.expr} < 64",
                "f'shift amount {" + rhs.expr + "} out of range'", pc)
            wrap = op is Op.SHL and (lhs.wrap or pc not in self.exact)
            symbol = "<<" if op is Op.SHL else ">>"
            stack.append(_Val(f"{_operand(lhs)} {symbol} {rhs.expr}",
                              False, wrap, None, lhs.reads | rhs.reads))
        elif op in CMP_SYMBOLS:
            lhs, rhs = self._pop_words(2)
            test = (CMP_SYMBOLS[op], _operand(lhs), _operand(rhs))
            stack.append(_Val(_as_value(test),
                              False, False, test, lhs.reads | rhs.reads))
        elif op is Op.NOTL:
            v = stack.pop()
            if v.test is not None:
                symbol, left, right = v.test
                test = (NEGATED[symbol], left, right)
            else:
                (v,) = self._words([v], d - 1)
                test = ("==", _operand(v), "0")
            stack.append(_Val(_as_value(test),
                              False, False, test, v.reads))
        elif op is Op.HLOAD:
            (addr,) = self._pop_words(
                1, "w" if pc in self.in_bounds else "a")
            if pc not in self.in_bounds:
                self._fault_if(
                    f"not 0 <= {addr.expr} < len(H)",
                    "f'heap read at {" + addr.expr + "} out of bounds "
                    "(heap has {len(H)} words)'", pc)
            stack.append(_Val(f"H[{addr.expr}]",
                              reads=addr.reads | {"H"}))
        elif op is Op.HSTORE:
            value, addr = self._pop_words(
                2, "ww" if pc in self.in_bounds else "wa")
            self._spill_readers("H")
            if pc in self.in_bounds:
                self.w(f"H[{addr.expr}] = {value.expr}")
            else:
                self.w("for _lo, _hi in W:")
                self.w(f"    if _lo <= {addr.expr} < _hi:")
                self.w(f"        H[{addr.expr}] = {value.expr}")
                self.w("        break")
                self.w("else:")
                self.indent += 1
                self._raise(
                    "f'heap write at {" + addr.expr + "} outside "
                    "writable regions'", pc)
                self.indent -= 1
        elif op is Op.RAND:
            (bound,) = self._pop_words(1, "a")
            self._fault_if(
                f"{bound.expr} <= 0",
                "f'rand bound {" + bound.expr + "} must be positive'", pc)
            self._spill_readers(f"s{d - 1}")
            self.w(f"s{d - 1} = ctx.rng.randrange({bound.expr})")
            stack.append(_slot(d - 1))
        elif op is Op.CLOCK:
            self.w("_c = ctx.clock_value")
            self.w("if _c is None:")
            self.w("    _c = ctx.clock_value = _wrap(ctx.clock())")
            stack.append(_Val("_c"))
        elif op is Op.CALL:
            self._emit_call(pc, instr, d)
        else:                      # pragma: no cover - JMP, RET, HALT
            raise AssertionError(f"emit_op got control op {op!r}")

    def _emit_call(self, pc: int, instr: Instr, d: int) -> None:
        callee = self.program.functions[instr.arg]
        n_args = callee.n_args
        # The CALL op itself is counted before the callee runs, like
        # the tree walk.
        self.flush()
        args = self._pop_words(n_args)
        # The callee may write field slots and the heap.
        self.spill()
        if self.recursive:
            self._fault_if("ctx.depth >= ctx.call_limit",
                           "f'call depth exceeds {ctx.call_limit}'", pc)
        remain = d - n_args
        pad = ", ".join("0" for _ in
                        range(callee.n_locals - n_args))
        call_args = ", ".join(
            p for p in ["ctx"] + [v.expr for v in args] + [pad] if p)
        if remain:
            self.w(f"ctx.outer += {remain}")
        self.w("ctx.depth += 1")
        self.w("if ctx.depth > ctx.max_depth:")
        self.w("    ctx.max_depth = ctx.depth")
        self.w("ctx.ops = _ops")
        self.w("ctx.max_seen = _ms")
        fields = ", ".join(self.field.format(i)
                           for i in range(len(self.program.field_table)))
        if self.exit is not None and self._spill_fields and fields:
            self.w(f"ctx.fields = [{fields}]")
        self.w(f"s{remain} = _f{instr.arg}({call_args})")
        self.w("_ops = ctx.ops")
        self.w("_ms = ctx.max_seen")
        if self.exit is not None and self._reload_fields and fields:
            self.w(f"{fields}, = ctx.fields")
        self.w("ctx.depth -= 1")
        self.w("if ctx.halted:")
        self.indent += 1
        self._leave(f"s{remain}")
        self.indent -= 1
        if remain:
            self.w(f"ctx.outer -= {remain}")
        # The pushed result raises no mark: the callee pushed at least
        # as deep before its RET.
        self.new_segment(remain + 1)

    def emit_return(self, pc: int, instr: Instr) -> None:
        """RET or HALT (both return the frame's value)."""
        self._pending += 1
        self.flush()
        if instr.op is Op.HALT and self.exit is None:
            self.w("ctx.halted = True")
        value = "0"
        if self.stack and self.exit is None:
            value = self._pop_words(1)[0].expr
        self._leave(value)

    def _leave(self, value: str) -> None:
        """End the invocation: return ``value``, or run ``exit``."""
        if self.exit is None:
            self.w("ctx.ops = _ops")
            self.w("ctx.max_seen = _ms")
            self.w(f"return {value}")
        else:
            for line in self.exit:
                self.w(line)

    def depth(self, pc: int, default: int) -> int:
        """Depth before ``pc``; ``default`` where ``pc`` is
        unreachable or one past the end."""
        d = self.depth_at[pc] if pc < len(self.depth_at) else None
        return default if d is None else d

    # -- control structure ----------------------------------------------

    def generate(self) -> List[str]:
        """The lines of the function's body."""
        self.new_segment(0)
        if self._block(self.structure):
            self.flush()
            self._raise("'fell off end of code'", len(self.code))
        return self.lines

    def _block(self, block: Block) -> bool:
        """Render ``block``; returns whether control falls out of it."""
        code = self.code
        for item in block.items:
            if item.__class__ is int:
                instr = code[item]
                op = instr.op
                if op is Op.JMP:       # forward, over dead code
                    self._pending += 1
                    self.flush()
                    self.spill()
                    self.new_segment(self.depth(instr.arg, 0))
                elif op is Op.RET or op is Op.HALT:
                    self.emit_return(item, instr)
                else:
                    self.emit_op(item, instr)
            elif item.__class__ is Loop:
                self._loop(item)
            elif item.__class__ is If:
                self._if(item)
            elif item.__class__ is Split:
                self._split(item)
            else:
                self._exit(item)
        return block.falls

    def _loop(self, loop: Loop) -> None:
        # The straight-line ops that open the body run on every visit,
        # the first included: their deepest push is counted once, here.
        depth_at = self.depth_at
        for item in loop.body.items:
            if item.__class__ is not int or \
                    self.code[item].op in _SEGMENT_ENDS:
                break
            if self.code[item].op in PUSHES:
                self._push(depth_at[item] + 1)
        self.flush()
        self.spill()
        floor = self._floor
        self.w("while True:")
        self.indent += 1
        self.new_segment(self.depth(loop.header, 0))
        if self._block(loop.body):
            # The body's tail can fall past the region end (e.g. a
            # conditional back edge as last op): count its pending
            # ops, then leave the loop.
            self.flush()
            self.spill()
            self.w("break")
        self.indent -= 1
        self._floor = floor
        self.new_segment(self.depth(loop.end, 0))

    def _exit(self, node: Exit) -> None:
        self._pending += 1
        self.flush()
        if self.code[node.pc].op is Op.JMP:
            self.spill()
            self.w(node.kind)
            return
        self.w(f"if {self._cond(node.pc, True)}:")
        self.w(f"    {node.kind}")
        self.new_segment(self.depth_at[node.pc] - 1)

    def _arm(self, block: Block, depth: int, charge: int,
             floor: int) -> None:
        """One indented arm of an ``if``, entered at ``depth`` with the
        mark at least ``floor``, and the ``charge`` of the jump that
        ends it when it falls out — counted where it executes, not
        hoisted over loops the arm contains."""
        self.indent += 1
        self._floor = floor
        self.new_segment(depth)
        mark = len(self.lines)
        if self._block(block):
            self._pending += charge
            self.flush()
            self.spill()
        if len(self.lines) == mark:
            self.w("pass")         # an empty arm: a branch to the join
        self.indent -= 1
        self._floor = floor

    def _if(self, node: If) -> None:
        pc = node.pc
        d = self.depth_at[pc]
        target = self.code[pc].arg
        self._pending += 1
        self.flush()
        floor = self._floor
        self.w(f"if {self._cond(pc, False)}:")
        self._arm(node.then, d - 1, int(node.join is not None), floor)
        if node.orelse is not None:
            self.w("else:")
            self._arm(node.orelse, self.depth(target, d - 1), 0, floor)
        self.new_segment(self.depth(
            target if node.join is None else node.join,
            d - 1 if node.join is None else 0))

    def _split(self, node: Split) -> None:
        """A copied else-block is rendered again on the taken arm, so
        op counts stay exact per path; the fallen arm ends in the
        then-part's trailing JMP."""
        pc = node.pc
        d = self.depth_at[pc]
        target = self.code[pc].arg
        self._pending += 1
        self.flush()
        floor = self._floor
        self.w(f"if {self._cond(pc, True)}:")
        self._arm(node.taken, self.depth(target, d - 1), node.charge,
                  floor)
        self.w("else:")
        self._arm(node.fallen, d - 1, 1, floor)


# -- program compilation ------------------------------------------------

def _function_source(program: Program, fi: int, found: ProgramFacts
                     ) -> List[str]:
    """The lines of one generated function."""
    fn = program.functions[fi]
    params = ["ctx"] + [f"l{k}" for k in range(fn.n_locals)]
    header = [f"def _f{fi}({', '.join(params)}):"]
    prologue = ["    _o = ctx.outer", "    _ops = ctx.ops",
                "    _ms = ctx.max_seen"]
    ops_used = found.ops_used[fi]
    if Op.GETF in ops_used or Op.PUTF in ops_used:
        prologue.append("    F = ctx.fields")
    if Op.HLOAD in ops_used or Op.HSTORE in ops_used:
        prologue.append("    H = ctx.heap")
    if Op.HSTORE in ops_used:
        prologue.append("    W = ctx.wranges")
    prologue += ["    " + line for line in
                 _array_locals(fn.code, "ctx.bases", "ctx.lengths")]
    return header + prologue + _Emitter(program, fi, found).generate()


def _array_locals(code: Sequence[Instr], bases: str,
                  lengths: str) -> List[str]:
    """Lines that read each array base and length a function's ABASE
    and ALEN name into a local, ``_B{k}`` and ``_L{k}``, once per
    invocation: neither changes while it runs."""
    return [f"{prefix}{k} = {source}[{k}]"
            for op, prefix, source in ((Op.ABASE, "_B", bases),
                                       (Op.ALEN, "_L", lengths))
            for k in sorted({instr.arg for instr in code
                             if instr.op is op})]


_STATS = {
    "programs_compiled": 0,
    "plans_compiled": 0,
}


def stats() -> Dict[str, int]:
    """Counters: compiled programs and compiled plans."""
    return dict(_STATS)


def compile_pycode(program: Program) -> Optional[CompiledProgram]:
    """Generate + compile() this program now, uncached (the execution
    path uses :func:`code_for`); None -> rejected by the verifier."""
    found = facts(program)
    if found.violation is not None:
        return None
    parts = ["def _fits(_interp):",
             f"    return {entry_test(found.bounds)}", ""]
    for fi in range(len(program.functions)):
        parts.extend(_function_source(program, fi, found))
        parts.append("")
    source = "\n".join(parts)
    ns = {"InterpreterFault": InterpreterFault, "_NAME": program.name,
          "_wrap": wrap64}
    exec(compile(source, f"<pycodegen:{program.name}>", "exec"), ns)
    _STATS["programs_compiled"] += 1
    return CompiledProgram(
        program,
        tuple(ns[f"_f{fi}"] for fi in range(len(program.functions))),
        ns["_fits"], source)


def code_for(program: Program) -> Optional[CompiledProgram]:
    """The program's compiled code, compiled on the first call into
    the ``_pycodegen`` slot on the Program; None only for a program
    the verifier rejects."""
    compiled = getattr(program, "_pycodegen", None)
    if compiled is None:
        compiled = compile_pycode(program)
        object.__setattr__(program, "_pycodegen", compiled)
    return compiled


# -- execution ----------------------------------------------------------

def entry_test(bounds: Bounds) -> str:
    """The entry test of generated code, as Python source: a condition
    over the interpreter ``_interp`` that holds when ``bounds`` prove
    the run within the limits the code does not test, as they are when
    it is evaluated, and no op budget is set (generated code counts no
    op against one; the tree walk does).

    The stack of an acyclic program is bounded outright and its call
    chain tested here; a recursive program's CALLs test the call depth,
    which bounds its stack by its deepest frame times that limit."""
    if bounds.calls is None:
        terms = [f"{bounds.frame} * _interp.max_call_depth <= "
                 "_interp.max_operand_stack"]
    else:
        terms = [f"{bounds.stack} <= _interp.max_operand_stack",
                 f"{bounds.calls} <= _interp.max_call_depth"]
    terms.append("_interp.op_budget is None")
    return " and ".join(terms)


class CodegenRunner:
    """Executor bound to one ``(interpreter, program)`` pair.

    The one place a program goes copy-in -> generated entry ->
    copy-out, compiled (:func:`code_for`) when the runner is made.  It
    keeps the execution context across invocations, but nothing the
    interpreter can change: limits, RNG and clock are read from it on
    every :meth:`run`.  Each run makes one entry test,
    ``compiled.fits`` (:func:`entry_test`): a run the program's bounds
    do not prove within the limits as they are now, or under an op
    budget, goes to the tree walk, which faults where a limit says.
    """

    __slots__ = ("program", "compiled", "ctx", "n_locals", "n_fields",
                 "no_arrays", "_interp")

    def __init__(self, interp, program: Program) -> None:
        self.program = program
        self.compiled = code_for(program)
        self._interp = interp
        self.n_locals = program.entry.n_locals
        self.n_fields = len(program.field_table)
        self.no_arrays = not program.array_table
        self.ctx = _Ctx()
        self.ctx.name = program.name

    def run(self, fields: Sequence[int],
            arrays: Sequence[Sequence[int]],
            args: Sequence[int] = ()) -> ExecResult:
        """Run the program's generated code."""
        program = self.program
        interp = self._interp
        compiled = self.compiled
        if compiled is None or not compiled.fits(interp) or args and (
                len(args) > self.n_locals or not all(
                    a.__class__ is int and INT_MIN <= a <= INT_MAX
                    for a in args)):
            # A program the verifier rejects, an op budget, limits the
            # bounds do not fit, over-long entry args growing the frame
            # beyond the generated signature (the tree walk tolerates
            # that), or an arg that is not a word: generated code keeps
            # words in its locals.
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
    callable; None for a program with a non-global array, which the
    generic tier refuses.

    ``plan(packet, msg_entry, acct)`` is ``fn.run_packet``'s generic
    tier as one generated frame: each slot of ``Effects.loads`` — the
    read set, the slots written on some paths but not all, or every
    slot when a callee touches field slots; the generic tier reads the
    same — read straight from the packet / ``msg_entry.values`` /
    ``fn.global_store`` into a Python local (an exact in-range ``int``
    as it is, any other value through ``state_word``, whose
    :class:`InterpreterFault` on a value ``int()`` refuses faults the
    hop before anything runs), the heap with the stride and heap-limit
    checks, then the
    :func:`entry_test` against the limits read from ``interp`` on every
    call — a packet the bounds do not fit, or any packet under an op
    budget, goes to ``fn.run_generic``, whose generated code hands it
    to the tree walk — then RNG and clock read from ``interp``, the entry
    function's body inlined — emitted by the same :class:`_Emitter` as
    ``_f0``, with field slots, op count and stack high-water mark as
    locals of the plan — and at each of its exits the function's write
    lists (``fn.packet_writes`` and its siblings: the may-write sets)
    written back and ``fn.stats`` updated; it returns the op count and
    lets an :class:`InterpreterFault` out before anything is written.  Callees
    stay ``_fN(ctx, ...)``: around a CALL the plan hands them the op
    count and high-water mark on its context and takes them back.

    The heap is the image ``fn.global_store.heap_image`` keeps when
    no array of the program is writable or has a binder: only a store
    write changes those arrays, and the plan cannot write the image
    (its writable regions are empty).  Otherwise the plan copies the
    arrays onto a fresh heap per packet, as the generic tier does:
    the function writes that heap back, or a binder picks the array
    per packet.

    The plan's source depends only on the program and its schemas, so
    it is compiled once per compiled program and kept on it
    (``stats()["plans_compiled"]``); each installed function binding
    the program runs that code in a namespace and context of its own.
    """
    program = fn.program
    if any(ref.scope != "global" for ref in program.array_table):
        return None
    compiled = code_for(program)
    plan = compiled.plan
    if plan is None or plan[0] is not fn.packet_schema or \
            plan[1] is not fn.global_schema:
        plan = compiled.plan = _compile_plan(compiled, fn)
    _, _, code, base, source = plan
    ns = dict(base, _fn=fn, _interp=interp)
    ctx = ns["ctx"] = _Ctx()
    ctx.name = program.name
    # A program without arrays may still carry heap ops (they fault
    # on the empty heap); a callee must find the slots set.
    ctx.heap = []
    ctx.bases = ctx.lengths = ctx.wranges = ()
    exec(code, ns)
    run = ns["_plan"]
    run.source = source
    return run


def _compile_plan(compiled: CompiledProgram, fn) -> tuple:
    """The plan :func:`plan_for` instantiates, compiled for ``fn``'s
    program and schemas: ``(packet schema, global schema, code,
    namespace without the per-function names, source)``."""
    program = compiled.program
    found = facts(program)
    calls = found.uses(Op.CALL)
    ns = {"InterpreterFault": InterpreterFault, "_NAME": program.name,
          "_wrap": wrap64}
    if calls:
        ns.update((f"_f{k}", f) for k, f in enumerate(compiled.functions))
    table = program.field_table
    loads = found.effects.loads
    scopes = ({table[i].scope for i in loads} |
              {table[i].scope for i in found.effects.written} |
              {ref.scope for ref in program.array_table})
    head: List[str] = []
    if "global" in scopes:
        head.append("_g = _fn.global_store")
    if "message" in scopes:
        head.append("_m = msg.values")
    if loads:
        ns["_word"] = state_word
    # Only the slots ``Effects.loads`` names are read; an exact
    # in-range int is kept as it is, anything else converted by
    # ``state_word``, which faults on a value ``int()`` refuses.
    for i in loads:
        ref = table[i]
        if ref.scope == "message":
            expr = f"_m[{ref.name!r}]"
        else:
            packet = ref.scope == "packet"
            field = (fn.packet_schema if packet
                     else fn.global_schema).field_named(ref.name)
            if field.binder is not None:
                ns[f"_b{i}"] = field.binder
                expr = f"_b{i}(packet, {'None' if packet else '_g'})"
            elif packet:
                ns[f"_d{i}"] = field.default
                expr = f"getattr(packet, {ref.name!r}, _d{i})"
            else:
                expr = f"_g.scalar({ref.name!r})"
        head += [f"f{i} = {expr}",
                 f"if f{i}.__class__ is not int or not "
                 f"{INT_MIN} <= f{i} <= {INT_MAX}:",
                 f"    f{i} = _word(f{i}, {ref.scope!r}, {ref.name!r}, "
                 f"_NAME)"]
    # Arrays the function neither writes nor binds per packet are read
    # from the store's heap image, which only a store write changes;
    # any other array is read and copied onto a fresh heap per packet.
    bound = bool(program.array_table) and not any(
        ref.writable or
        fn.global_schema.field_named(ref.name).binder is not None
        for ref in program.array_table)
    for i, ref in enumerate(program.array_table):
        binder = fn.global_schema.field_named(ref.name).binder
        if binder is not None:
            ns[f"_ab{i}"] = binder
            head.append(f"a{i} = list(_ab{i}(packet, _g))")
        elif not bound:
            head.append(f"a{i} = _g.array({ref.name!r})")

    # What the generic tier does inside ``execute``: heap layout,
    # limits, frame set-up, the body.
    body: List[str] = []
    if program.array_table:
        n = len(program.array_table)
        if bound:
            ns["_K"] = tuple(ref.name for ref in program.array_table)
            body.append("H, B, (%s,) = _g.heap_image(_K)" % ", ".join(
                f"n{i}" for i in range(n)))
        else:
            body.append("H = []")
        for i, ref in enumerate(program.array_table):
            if not bound:
                body.append(f"n{i} = len(a{i})")
            if ref.stride != 1:
                what = f"array {ref.scope}.{ref.name}: length "
                body += [
                    f"if n{i} % {ref.stride}:",
                    f"    raise InterpreterFault({what!r} + str(n{i}) "
                    f"+ ' not a multiple of stride {ref.stride}', "
                    f"_NAME)"]
            if not bound:
                body += [
                    f"b{i} = len(H)",
                    f"H += [_w - {_CARRY} if (_w := _x & {INT_MASK}) > "
                    f"{INT_MAX} else _w for _x in a{i}]"]
        body += [
            "if len(H) > _interp.max_heap_words:",
            "    raise InterpreterFault('heap of %d words exceeds "
            "limit %d' % (len(H), _interp.max_heap_words), _NAME)"]
        if not bound:
            body.append(
                "B = (%s,)" % ", ".join(f"b{i}" for i in range(n)))
        body += [
            "L = (%s,)" % ", ".join(
                f"n{i} // {ref.stride}"
                for i, ref in enumerate(program.array_table)),
            "W = (%s)" % "".join(
                f"(b{i}, b{i} + n{i}), "
                for i, ref in enumerate(program.array_table)
                if ref.writable)]
        body += _array_locals(program.entry.code, "B", "L")
        if calls:
            body.append("ctx.heap, ctx.bases, ctx.lengths, ctx.wranges "
                        "= H, B, L, W")
    elif Op.HLOAD in found.ops_used[0] or Op.HSTORE in found.ops_used[0]:
        # No arrays: heap ops fault on the empty heap.
        body.append("H = W = ()")
    # The entry test: an op budget, or limits the bounds do not fit,
    # send the packet to the generic tier, as though there were no plan.
    body += [f"if not ({entry_test(found.bounds)}):",
             "    _a, acct = acct, None",
             "    return _fn.run_generic(packet, msg, _a)",
             "_ops = _ms = 0"]
    if calls:
        body += ["ctx.outer = 0",
                 "ctx.depth = ctx.max_depth = 1",
                 "ctx.halted = False"]
        if found.bounds.calls is None:
            body.append("ctx.call_limit = _interp.max_call_depth")
    if found.uses(Op.RAND):
        body.append("ctx.rng = _interp.rng")
    if found.uses(Op.CLOCK):
        body += ["ctx.clock = _interp.clock", "ctx.clock_value = None"]
    if compiled.n_locals:
        body.append(" = ".join(
            [f"l{k}" for k in range(compiled.n_locals)] + ["0"]))

    # Every exit of the body: close the interpreter lap — and drop
    # ``acct``, so a write-back that raises is not lapped twice by the
    # handler below — then the write lists the generic tier walks, in
    # its order, and the function stats.
    tail = ["if acct is not None:",
            "    acct.lap('interpreter')",
            "    acct = None"]
    if fn.packet_writes:
        tail.append("if _fn.commit_packet_writes:")
        for i, name in fn.packet_writes:
            plain = name.isidentifier() and not keyword.iskeyword(name)
            tail.append(f"    packet.{name} = f{i}" if plain else
                        f"    setattr(packet, {name!r}, f{i})")
    tail += [f"_m[{name!r}] = f{i}" for i, name in fn.message_writes]
    tail += [f"_g.commit_scalar({name!r}, f{i})"
             for i, name in fn.global_writes]
    tail += [f"_g.commit_array({name!r}, H[b{i}:b{i} + n{i}])"
             for i, name in fn.array_writes]
    tail += ["_s = _fn.stats",
             "_s.invocations += 1",
             "_s.ops_executed += _ops",
             f"_v = _ms * {WORD_BYTES}",
             "if _v > _s.max_stack_bytes:",
             "    _s.max_stack_bytes = _v"]
    if program.array_table:
        tail += [f"_v = len(H) * {WORD_BYTES}",
                 "if _v > _s.max_heap_bytes:",
                 "    _s.max_heap_bytes = _v"]
    tail.append("return _ops")
    inlined = _Emitter(program, 0, found, exit=tail).generate()

    source = "\n".join(
        ["def _plan(packet, msg, acct):"] +
        ["    " + ln for ln in head] +
        ["    if acct is not None:",
         "        acct.lap('enclave')",
         "    try:"] +
        ["        " + ln for ln in body] + inlined +
        ["    except BaseException:",
         "        if acct is not None:",
         "            acct.lap('interpreter')",
         "        raise"]) + "\n"
    code = compile(source, f"<pycodegen-plan:{program.name}>", "exec")
    _STATS["plans_compiled"] += 1
    return (fn.packet_schema, fn.global_schema, code, ns, source)


def execute_codegen(interp, program: Program, fields: Sequence[int],
                    arrays: Sequence[Sequence[int]],
                    args: Sequence[int] = ()) -> ExecResult:
    """One-shot :meth:`CodegenRunner.run`."""
    return CodegenRunner(interp, program).run(fields, arrays, args)
