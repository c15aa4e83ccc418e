"""Peephole optimization of compiled bytecode.

Section 3.4.4: "In the current version, we perform a number of
optimizations such as recognizing tail recursion and compiling it as a
loop."  Tail recursion lives in the compiler; this module adds the
rest of a classic peephole pipeline, run to a fixpoint:

* **constant folding** — ``CONST a; CONST b; <binop>`` becomes
  ``CONST (a op b)`` (with 64-bit wraparound, and never folding a
  faulting op such as division by zero — the fault must still happen
  at run time);
* **jump threading** — a jump whose target is another unconditional
  jump goes straight to the final destination;
* **constant-condition branches** — ``CONST c; JZ/JNZ`` becomes
  either a plain ``JMP`` or nothing;
* **dead-code elimination** — instructions unreachable from the entry
  point are dropped (with jump targets remapped).

Every pass preserves the program's observable semantics; the test
suite checks optimized and unoptimized programs against each other on
random inputs.  Threading can also turn a loop's exit into a jump
past the end of the ``if`` around it, a two-level jump that no
``while``/``if`` nesting expresses and :mod:`repro.lang.analysis`
rejects.  :func:`optimize_program` therefore keeps a function's
optimized code only if it still verifies; otherwise the function keeps
the compiler's code, which always does.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Set, Tuple

from .analysis import facts
from .bytecode import (FunctionCode, Instr, Op, Program, wrap64)

_FOLDABLE_BINOPS: Dict[Op, Callable[[int, int], Optional[int]]] = {
    Op.ADD: lambda a, b: wrap64(a + b),
    Op.SUB: lambda a, b: wrap64(a - b),
    Op.MUL: lambda a, b: wrap64(a * b),
    Op.DIV: lambda a, b: wrap64(a // b) if b != 0 else None,
    Op.MOD: lambda a, b: wrap64(a % b) if b != 0 else None,
    Op.BAND: lambda a, b: wrap64(a & b),
    Op.BOR: lambda a, b: wrap64(a | b),
    Op.BXOR: lambda a, b: wrap64(a ^ b),
    Op.SHL: lambda a, b: wrap64(a << b) if 0 <= b < 64 else None,
    Op.SHR: lambda a, b: wrap64(a >> b) if 0 <= b < 64 else None,
    Op.CEQ: lambda a, b: 1 if a == b else 0,
    Op.CNE: lambda a, b: 1 if a != b else 0,
    Op.CLT: lambda a, b: 1 if a < b else 0,
    Op.CLE: lambda a, b: 1 if a <= b else 0,
    Op.CGT: lambda a, b: 1 if a > b else 0,
    Op.CGE: lambda a, b: 1 if a >= b else 0,
}

_FOLDABLE_UNOPS: Dict[Op, Callable[[int], int]] = {
    Op.NEG: lambda a: wrap64(-a),
    Op.BNOT: lambda a: wrap64(~a),
    Op.NOTL: lambda a: 1 if a == 0 else 0,
}

_JUMPS = (Op.JMP, Op.JZ, Op.JNZ)


def optimize_program(program: Program,
                     max_rounds: int = 8) -> Program:
    """Return an equivalent program with peephole optimizations
    applied to every function whose optimized code still verifies.

    The returned program's :func:`~repro.lang.analysis.facts` are
    already computed, so verifying it costs nothing more.
    """
    originals = program.functions
    functions = [optimize_function(fn, max_rounds=max_rounds)
                 for fn in originals]
    while True:
        optimized = dataclasses.replace(program, functions=tuple(functions))
        bad = facts(optimized).violation
        undo = [i for i, fn in enumerate(functions) if bad is not None
                and fn.name == bad.function and fn is not originals[i]]
        if not undo:
            return optimized
        functions[undo[0]] = originals[undo[0]]


def optimize_function(fn: FunctionCode,
                      max_rounds: int = 8) -> FunctionCode:
    code = list(fn.code)
    for _ in range(max_rounds):
        changed = False
        changed |= _fold_constants(code)
        changed |= _thread_jumps(code)
        changed |= _fold_constant_branches(code)
        new_code, removed = _eliminate_dead_code(code)
        if removed:
            changed = True
        code = new_code
        if not changed:
            break
    return FunctionCode(name=fn.name, n_args=fn.n_args,
                        n_locals=fn.n_locals, code=tuple(code))


# -- individual passes -------------------------------------------------------
#
# In-place passes replace instructions with NOP-equivalents (CONST 0 +
# POP pairs would change stack traffic, so instead we rewrite windows
# and let dead-code elimination compact), keeping indices stable so
# jump targets stay valid until the final renumbering.

def _jump_targets(code: List[Instr]) -> Set[int]:
    return {i.arg for i in code if i.op in _JUMPS}


def _fold_constants(code: List[Instr]) -> bool:
    """CONST/CONST/binop and CONST/unop windows become one CONST.

    A window is only folded when no jump lands in its middle (a jump
    into the window would observe different stack contents).  One
    fold is applied per scan — with jump targets recomputed between
    scans — repeated to a local fixpoint.
    """
    changed = False
    while _fold_one_constant(code):
        changed = True
    return changed


def _fold_one_constant(code: List[Instr]) -> bool:
    targets = _jump_targets(code)
    for i in range(len(code)):
        # Unary: CONST a; unop
        if (i + 1 < len(code) and code[i].op is Op.CONST
                and code[i + 1].op in _FOLDABLE_UNOPS
                and i + 1 not in targets):
            value = _FOLDABLE_UNOPS[code[i + 1].op](code[i].arg)
            code[i] = Instr(Op.CONST, value)
            del code[i + 1]
            _shift_targets(code, removed_at=i + 1, count=1)
            return True
        # Binary: CONST a; CONST b; binop
        if (i + 2 < len(code) and code[i].op is Op.CONST
                and code[i + 1].op is Op.CONST
                and code[i + 2].op in _FOLDABLE_BINOPS
                and i + 1 not in targets and i + 2 not in targets):
            folder = _FOLDABLE_BINOPS[code[i + 2].op]
            value = folder(code[i].arg, code[i + 1].arg)
            if value is not None:
                code[i] = Instr(Op.CONST, value)
                del code[i + 1:i + 3]
                _shift_targets(code, removed_at=i + 1, count=2)
                return True
    return False


def _shift_targets(code: List[Instr], removed_at: int,
                   count: int) -> None:
    """Adjust jump targets after deleting ``count`` instructions at
    index ``removed_at``."""
    for idx, instr in enumerate(code):
        if instr.op in _JUMPS and instr.arg >= removed_at + count:
            code[idx] = Instr(instr.op, instr.arg - count)
        elif instr.op in _JUMPS and instr.arg > removed_at:
            # A target inside the removed window collapses onto the
            # fold result.
            code[idx] = Instr(instr.op, removed_at)


def _thread_jumps(code: List[Instr]) -> bool:
    """Retarget jumps that land on unconditional JMPs."""
    changed = False
    for idx, instr in enumerate(code):
        if instr.op not in _JUMPS:
            continue
        target = instr.arg
        seen = set()
        while (0 <= target < len(code)
               and code[target].op is Op.JMP
               and target not in seen):
            seen.add(target)
            target = code[target].arg
        if target != instr.arg:
            code[idx] = Instr(instr.op, target)
            changed = True
    return changed


def _fold_constant_branches(code: List[Instr]) -> bool:
    """CONST c; JZ/JNZ collapses to JMP or falls through.

    Both instructions are rewritten in place (the branch becomes
    either ``JMP target`` or ``JMP next``) so indices stay stable;
    dead-code elimination cleans up.
    """
    targets = _jump_targets(code)
    changed = False
    for idx in range(len(code) - 1):
        if code[idx].op is not Op.CONST:
            continue
        branch = code[idx + 1]
        if branch.op not in (Op.JZ, Op.JNZ) or \
                (idx + 1) in targets:
            continue
        value = code[idx].arg
        taken = (value == 0) if branch.op is Op.JZ else (value != 0)
        destination = branch.arg if taken else idx + 2
        code[idx] = Instr(Op.JMP, destination)
        code[idx + 1] = Instr(Op.JMP, destination)
        changed = True
    return changed


def _eliminate_dead_code(code: List[Instr]
                         ) -> Tuple[List[Instr], int]:
    """Drop unreachable instructions, remapping jump targets."""
    n = len(code)
    reachable: Set[int] = set()
    work = [0] if n else []
    while work:
        pc = work.pop()
        if pc in reachable or not 0 <= pc < n:
            continue
        reachable.add(pc)
        op = code[pc].op
        if op is Op.JMP:
            work.append(code[pc].arg)
        elif op in (Op.JZ, Op.JNZ):
            work.append(code[pc].arg)
            work.append(pc + 1)
        elif op in (Op.RET, Op.HALT):
            pass
        else:
            work.append(pc + 1)
    if len(reachable) == n:
        return code, 0
    mapping: Dict[int, int] = {}
    new_code: List[Instr] = []
    for pc in range(n):
        if pc in reachable:
            mapping[pc] = len(new_code)
            new_code.append(code[pc])
    for idx, instr in enumerate(new_code):
        if instr.op in _JUMPS:
            new_code[idx] = Instr(instr.op, mapping[instr.arg])
    return new_code, n - len(new_code)
