"""Static safety verification of compiled action-function bytecode.

The paper relies on the interpreter for isolation ("we do rely on
correct execution of the interpreter ... it is easier to guarantee the
correct execution of the interpreter than to verify every possible
action function", Section 3.4.3).  We keep that runtime enforcement and
*additionally* verify programs when the controller installs them, so
obviously malformed bytecode is rejected before it ever reaches the
data path:

* every opcode is an :class:`~repro.lang.bytecode.Op` and every
  immediate argument an ``int``;
* every jump lands inside the function;
* every field/array/function index is within its table, and every
  frame can hold its arguments;
* writes (PUTF) only target writable fields;
* the operand stack is consistent: the same depth at every program
  point regardless of path, no underflow, and a finite maximum.

The checks are the violation field of :func:`repro.lang.analysis.facts`;
the generated-code backend compiles a program exactly when it has none.
"""

from __future__ import annotations

from typing import Optional

from .analysis import facts
from .bytecode import Program


class VerificationError(Exception):
    """The program failed static verification and must not be installed."""

    def __init__(self, program: str, function: str, pc: int,
                 reason: str) -> None:
        self.program = program
        self.function = function
        self.pc = pc
        self.reason = reason
        super().__init__(f"{program}/{function}@{pc}: {reason}")


def verify(program: Program,
           max_operand_stack: Optional[int] = None) -> int:
    """Verify all functions of ``program``.

    Returns the maximum single-frame operand-stack depth across the
    program's functions.  Raises :class:`VerificationError` on any
    violation.
    """
    found = facts(program)
    if found.violation is not None:
        raise VerificationError(program.name, *found.violation)
    if max_operand_stack is not None and \
            found.max_depth > max_operand_stack:
        raise VerificationError(
            program.name, program.entry.name, 0,
            f"worst-case frame stack depth {found.max_depth} exceeds "
            f"limit {max_operand_stack}")
    return found.max_depth
