"""Static safety verification of compiled action-function bytecode.

The paper relies on the interpreter for isolation ("we do rely on
correct execution of the interpreter ... it is easier to guarantee the
correct execution of the interpreter than to verify every possible
action function", Section 3.4.3).  We keep that runtime enforcement and
*additionally* verify programs when the controller installs them, so
obviously malformed bytecode is rejected before it ever reaches the
data path:

* every opcode is an :class:`~repro.lang.bytecode.Op`, every
  immediate argument an ``int`` and every table entry made of exact
  ``str``, ``int`` and ``bool`` values;
* every jump lands inside the function;
* every field/array/function index is within its table, and every
  frame can hold its arguments;
* writes (PUTF) only target writable fields;
* the operand stack is consistent: the same depth at every program
  point regardless of path, no underflow, and a finite maximum;
* reachable code nests into loops and if/else shapes, so a verified
  program is a structured one.

The checks are the violation field of :func:`repro.lang.analysis.facts`;
the generated-code backend compiles a program exactly when it has none.
"""

from __future__ import annotations

from typing import Optional

from .analysis import facts
from .annotations import AccessLevel
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


_UNCHECKED = object()


def verify_action(action, max_operand_stack: Optional[int] = None
                  ) -> int:
    """:func:`verify` for a shipped artifact
    (:class:`~repro.lang.compiler.CompiledAction`): what an enclave
    checks before it binds one.

    The bytecode as above, then its field and array tables against the
    artifact's own schemas: every entry names a field of its scope's
    schema, of that field's shape (scalar, or array of the same
    stride), and a writable entry a field declared read-write.  The
    enclave reads and writes state through those tables, so they may
    not claim what the schemas do not grant.  The table check depends
    on the artifact alone and is made once per artifact.
    """
    program = action.program
    depth = verify(program, max_operand_stack)
    reason = getattr(action, "_table_violation", _UNCHECKED)
    if reason is _UNCHECKED:
        reason = _table_violation(action)
        object.__setattr__(action, "_table_violation", reason)
    if reason is not None:
        raise VerificationError(program.name, program.entry.name, 0,
                                reason)
    return depth


def _table_violation(action) -> Optional[str]:
    schemas = {"packet": action.packet_schema,
               "message": action.message_schema,
               "global": action.global_schema}
    program = action.program
    for refs, is_array in ((program.field_table, False),
                           (program.array_table, True)):
        for ref in refs:
            where = f"{ref.scope}.{ref.name}"
            scope = schemas.get(ref.scope)
            if scope is None or not scope.has_field(ref.name):
                return f"{where} is not in the artifact's schemas"
            declared = scope.field_named(ref.name)
            if declared.is_array is not is_array or \
                    (is_array and ref.stride != declared.stride):
                return f"{where} has another shape in its schema"
            if ref.writable and \
                    declared.access is not AccessLevel.READ_WRITE:
                return f"{where} is read-only in its schema"
    return None
