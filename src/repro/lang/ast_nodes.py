"""Typed intermediate AST for Eden action functions.

The DSL frontend (:mod:`repro.lang.dsl`) lowers a restricted Python
function into these nodes after resolving every name against the three
state schemas (packet / message / global).  The bytecode compiler
(:mod:`repro.lang.compiler`) consumes this representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple


class Node:
    """Base class for all typed AST nodes."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr(Node):
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """Integer literal (booleans are lowered to 1/0)."""
    value: int


@dataclass(frozen=True)
class LocalRef(Expr):
    """Read of a local variable or parameter, by slot number."""
    name: str
    slot: int


@dataclass(frozen=True)
class StateRef(Expr):
    """Read of a scalar state field, e.g. ``packet.size``.

    ``index`` is the position in the program's field table.
    """
    scope: str
    name: str
    index: int


@dataclass(frozen=True)
class ArrayIndex(Expr):
    """Read of an array element: ``arr[i]`` or ``arr[i].member``.

    ``array_index`` is the position in the program's array table;
    ``offset`` is the record-member offset (0 for flat arrays).
    """
    scope: str
    name: str
    array_index: int
    stride: int
    offset: int
    index: Expr


@dataclass(frozen=True)
class ArrayLen(Expr):
    """``len(arr)`` on an array state field."""
    scope: str
    name: str
    array_index: int


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary arithmetic/bitwise operation.

    ``op`` is one of ``+ - * // % & | ^ << >>``.
    """
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary operation; ``op`` is one of ``- ~ not``."""
    op: str
    operand: Expr


@dataclass(frozen=True)
class Compare(Expr):
    """Comparison producing 1 or 0; ``op`` in ``== != < <= > >=``."""
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class BoolOp(Expr):
    """Short-circuit ``and``/``or`` over two or more operands."""
    op: str  # "and" | "or"
    operands: Tuple[Expr, ...]


@dataclass(frozen=True)
class IfExp(Expr):
    """Conditional expression ``a if cond else b``."""
    cond: Expr
    then: Expr
    orelse: Expr


@dataclass(frozen=True)
class Call(Expr):
    """Call of a nested helper function defined inside the action
    function.  ``func_index`` is the callee's position in the program's
    function list."""
    name: str
    func_index: int
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Builtin(Expr):
    """Call of an interpreter builtin: ``rand(bound)`` or ``clock()``."""
    name: str  # "rand" | "clock"
    args: Tuple[Expr, ...]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt(Node):
    __slots__ = ()


@dataclass(frozen=True)
class AssignLocal(Stmt):
    name: str
    slot: int
    value: Expr


@dataclass(frozen=True)
class AssignState(Stmt):
    """Write to a scalar state field, e.g. ``packet.priority = x``."""
    scope: str
    name: str
    index: int
    value: Expr


@dataclass(frozen=True)
class AssignArray(Stmt):
    """Write to an array element: ``arr[i] = x`` / ``arr[i].m = x``."""
    scope: str
    name: str
    array_index: int
    stride: int
    offset: int
    index: Expr
    value: Expr


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: Tuple[Stmt, ...]
    orelse: Tuple[Stmt, ...]


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class Break(Stmt):
    pass


@dataclass(frozen=True)
class Continue(Stmt):
    pass


@dataclass(frozen=True)
class Return(Stmt):
    """Return from the current function.

    A ``return`` with no value returns 0; the entry function's return
    value is exposed to the runtime as the program result.
    """
    value: Optional[Expr]


@dataclass(frozen=True)
class ExprStmt(Stmt):
    """An expression evaluated for effect (result discarded)."""
    value: Expr


@dataclass(frozen=True)
class Pass(Stmt):
    pass


# ---------------------------------------------------------------------------
# Functions and programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionDef(Node):
    """One function: the action-function entry point or a nested helper.

    ``params`` are the names of value parameters (state parameters such
    as ``packet`` never appear — they are resolved to StateRefs during
    lowering).  ``n_locals`` counts parameters plus local variables.
    """
    name: str
    params: Tuple[str, ...]
    n_locals: int
    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class ProgramAST(Node):
    """Typed AST of a whole action function.

    ``functions[0]`` is the entry point; the rest are nested helpers in
    definition order.  The field/array tables fix the meaning of
    ``StateRef.index`` / ``ArrayIndex.array_index`` for the backends.
    """
    name: str
    functions: Tuple[FunctionDef, ...]
    field_table: tuple    # Tuple[bytecode.FieldRef, ...]
    array_table: tuple    # Tuple[bytecode.ArrayRef, ...]
    source: str = ""


def walk_expr(expr: Expr):
    """Yield ``expr`` and all sub-expressions, depth-first."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expr(expr.lhs)
        yield from walk_expr(expr.rhs)
    elif isinstance(expr, Compare):
        yield from walk_expr(expr.lhs)
        yield from walk_expr(expr.rhs)
    elif isinstance(expr, UnaryOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, BoolOp):
        for op in expr.operands:
            yield from walk_expr(op)
    elif isinstance(expr, IfExp):
        yield from walk_expr(expr.cond)
        yield from walk_expr(expr.then)
        yield from walk_expr(expr.orelse)
    elif isinstance(expr, (Call, Builtin)):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, ArrayIndex):
        yield from walk_expr(expr.index)


def walk_stmts(stmts: Sequence[Stmt]):
    """Yield every statement in ``stmts``, recursively."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_stmts(stmt.then)
            yield from walk_stmts(stmt.orelse)
        elif isinstance(stmt, While):
            yield from walk_stmts(stmt.body)


def expressions_of(stmt: Stmt):
    """Yield the top-level expressions contained in one statement."""
    if isinstance(stmt, AssignLocal):
        yield stmt.value
    elif isinstance(stmt, AssignState):
        yield stmt.value
    elif isinstance(stmt, AssignArray):
        yield stmt.index
        yield stmt.value
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, While):
        yield stmt.cond
    elif isinstance(stmt, Return) and stmt.value is not None:
        yield stmt.value
    elif isinstance(stmt, ExprStmt):
        yield stmt.value
