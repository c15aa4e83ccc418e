"""Compiler from the typed action-function AST to enclave bytecode.

Mirrors Section 3.4.4 of the paper: the interesting work — resolving
state dependencies, access control and heap layout — already happened in
the frontend; "the rest of the compilation process, mainly the
translation of the abstract syntax tree to bytecode, is more
straightforward".  As in the paper, the compiler "performs a number of
optimizations such as recognizing tail recursion and compiling it as a
loop".
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Tuple,
                    Union)

from . import ast_nodes as T
from .annotations import Schema
from .bytecode import Assembler, FunctionCode, Op, Program
from .dsl import lower, source_of


class CompileError(Exception):
    """The typed AST could not be translated to bytecode."""


@dataclass
class _LoopLabels:
    continue_label: str
    break_label: str


class _FunctionCompiler:
    """Compiles one :class:`~.ast_nodes.FunctionDef` to bytecode."""

    def __init__(self, prog: T.ProgramAST, fn: T.FunctionDef,
                 fn_index: int, optimize_tail_calls: bool) -> None:
        self.prog = prog
        self.fn = fn
        self.fn_index = fn_index
        self.optimize_tail_calls = optimize_tail_calls
        self.asm = Assembler(fn.name, n_args=len(fn.params))
        self._loops: List[_LoopLabels] = []

    def compile(self) -> FunctionCode:
        self._compile_block(self.fn.body)
        # Falling off the end returns 0.
        self.asm.emit(Op.CONST, 0)
        self.asm.emit(Op.RET)
        return self.asm.finish(n_locals=self.fn.n_locals)

    # -- statements -----------------------------------------------------

    def _compile_block(self, stmts: Tuple[T.Stmt, ...]) -> None:
        for stmt in stmts:
            self._compile_stmt(stmt)

    def _compile_stmt(self, stmt: T.Stmt) -> None:
        if isinstance(stmt, T.AssignLocal):
            self._compile_expr(stmt.value)
            self.asm.emit(Op.STORE, stmt.slot)
        elif isinstance(stmt, T.AssignState):
            self._compile_expr(stmt.value)
            self.asm.emit(Op.PUTF, stmt.index)
        elif isinstance(stmt, T.AssignArray):
            self._compile_expr(stmt.value)
            self._compile_element_address(stmt)
            self.asm.emit(Op.HSTORE)
        elif isinstance(stmt, T.If):
            self._compile_if(stmt)
        elif isinstance(stmt, T.While):
            self._compile_while(stmt)
        elif isinstance(stmt, T.Break):
            if not self._loops:
                raise CompileError("break outside loop")
            self.asm.emit_jump(Op.JMP, self._loops[-1].break_label)
        elif isinstance(stmt, T.Continue):
            if not self._loops:
                raise CompileError("continue outside loop")
            self.asm.emit_jump(Op.JMP, self._loops[-1].continue_label)
        elif isinstance(stmt, T.Return):
            self._compile_return(stmt)
        elif isinstance(stmt, T.ExprStmt):
            self._compile_expr(stmt.value)
            self.asm.emit(Op.POP)
        elif isinstance(stmt, T.Pass):
            pass
        else:
            raise CompileError(f"unknown statement {stmt!r}")

    def _compile_if(self, stmt: T.If) -> None:
        else_label = self.asm.new_label()
        end_label = self.asm.new_label()
        self._compile_expr(stmt.cond)
        self.asm.emit_jump(Op.JZ, else_label)
        self._compile_block(stmt.then)
        if stmt.orelse:
            self.asm.emit_jump(Op.JMP, end_label)
            self.asm.bind(else_label)
            self._compile_block(stmt.orelse)
            self.asm.bind(end_label)
        else:
            self.asm.bind(else_label)

    def _compile_while(self, stmt: T.While) -> None:
        top = self.asm.new_label()
        end = self.asm.new_label()
        self.asm.bind(top)
        self._compile_expr(stmt.cond)
        self.asm.emit_jump(Op.JZ, end)
        self._loops.append(_LoopLabels(continue_label=top,
                                       break_label=end))
        self._compile_block(stmt.body)
        self._loops.pop()
        self.asm.emit_jump(Op.JMP, top)
        self.asm.bind(end)

    def _compile_return(self, stmt: T.Return) -> None:
        value = stmt.value
        if (self.optimize_tail_calls and isinstance(value, T.Call)
                and value.func_index == self.fn_index):
            # Tail recursion -> loop: evaluate all arguments, store them
            # into the parameter slots, and jump back to the top.
            for arg in value.args:
                self._compile_expr(arg)
            for slot in reversed(range(len(value.args))):
                self.asm.emit(Op.STORE, slot)
            self.asm.emit_jump(Op.JMP, "__entry")
            return
        if value is None:
            self.asm.emit(Op.CONST, 0)
        else:
            self._compile_expr(value)
        self.asm.emit(Op.RET)

    # -- expressions ------------------------------------------------------

    _BINOP_OPS = {
        "+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "//": Op.DIV,
        "%": Op.MOD, "&": Op.BAND, "|": Op.BOR, "^": Op.BXOR,
        "<<": Op.SHL, ">>": Op.SHR,
    }
    _CMP_OPS = {
        "==": Op.CEQ, "!=": Op.CNE, "<": Op.CLT, "<=": Op.CLE,
        ">": Op.CGT, ">=": Op.CGE,
    }

    def _compile_expr(self, expr: T.Expr) -> None:
        if isinstance(expr, T.Const):
            self.asm.emit(Op.CONST, expr.value)
        elif isinstance(expr, T.LocalRef):
            self.asm.emit(Op.LOAD, expr.slot)
        elif isinstance(expr, T.StateRef):
            self.asm.emit(Op.GETF, expr.index)
        elif isinstance(expr, T.ArrayLen):
            self.asm.emit(Op.ALEN, expr.array_index)
        elif isinstance(expr, T.ArrayIndex):
            self._compile_element_address(expr)
            self.asm.emit(Op.HLOAD)
        elif isinstance(expr, T.BinOp):
            self._compile_expr(expr.lhs)
            self._compile_expr(expr.rhs)
            self.asm.emit(self._BINOP_OPS[expr.op])
        elif isinstance(expr, T.UnaryOp):
            self._compile_expr(expr.operand)
            if expr.op == "-":
                self.asm.emit(Op.NEG)
            elif expr.op == "~":
                self.asm.emit(Op.BNOT)
            elif expr.op == "not":
                self.asm.emit(Op.NOTL)
            else:
                raise CompileError(f"unknown unary op {expr.op!r}")
        elif isinstance(expr, T.Compare):
            self._compile_expr(expr.lhs)
            self._compile_expr(expr.rhs)
            self.asm.emit(self._CMP_OPS[expr.op])
        elif isinstance(expr, T.BoolOp):
            self._compile_boolop(expr)
        elif isinstance(expr, T.IfExp):
            else_label = self.asm.new_label()
            end_label = self.asm.new_label()
            self._compile_expr(expr.cond)
            self.asm.emit_jump(Op.JZ, else_label)
            self._compile_expr(expr.then)
            self.asm.emit_jump(Op.JMP, end_label)
            self.asm.bind(else_label)
            self._compile_expr(expr.orelse)
            self.asm.bind(end_label)
        elif isinstance(expr, T.Call):
            for arg in expr.args:
                self._compile_expr(arg)
            self.asm.emit(Op.CALL, expr.func_index)
        elif isinstance(expr, T.Builtin):
            for arg in expr.args:
                self._compile_expr(arg)
            if expr.name == "rand":
                self.asm.emit(Op.RAND)
            elif expr.name == "clock":
                self.asm.emit(Op.CLOCK)
            else:
                raise CompileError(f"unknown builtin {expr.name!r}")
        else:
            raise CompileError(f"unknown expression {expr!r}")

    def _compile_boolop(self, expr: T.BoolOp) -> None:
        """Short-circuit and/or, normalized to 1/0."""
        short_label = self.asm.new_label()
        end_label = self.asm.new_label()
        short_op = Op.JZ if expr.op == "and" else Op.JNZ
        for operand in expr.operands:
            self._compile_expr(operand)
            self.asm.emit_jump(short_op, short_label)
        self.asm.emit(Op.CONST, 1 if expr.op == "and" else 0)
        self.asm.emit_jump(Op.JMP, end_label)
        self.asm.bind(short_label)
        self.asm.emit(Op.CONST, 0 if expr.op == "and" else 1)
        self.asm.bind(end_label)

    def _compile_element_address(
            self, node: Union[T.ArrayIndex, T.AssignArray]) -> None:
        """Push the heap address of ``arr[index]`` (+ record offset)."""
        self.asm.emit(Op.ABASE, node.array_index)
        self._compile_expr(node.index)
        if node.stride != 1:
            self.asm.emit(Op.CONST, node.stride)
            self.asm.emit(Op.MUL)
        self.asm.emit(Op.ADD)
        if node.offset:
            self.asm.emit(Op.CONST, node.offset)
            self.asm.emit(Op.ADD)


def compile_ast(prog: T.ProgramAST,
                optimize_tail_calls: bool = True,
                peephole: bool = True) -> Program:
    """Compile a typed AST into an executable :class:`Program`.

    ``peephole`` additionally runs the post-pass of
    :mod:`repro.lang.optimizer` (constant folding, jump threading,
    dead-code elimination).
    """
    functions: List[FunctionCode] = []
    for index, fn in enumerate(prog.functions):
        fc = _FunctionCompiler(prog, fn, index, optimize_tail_calls)
        fc.asm.bind("__entry")
        functions.append(fc.compile())
    program = Program(
        name=prog.name,
        functions=tuple(functions),
        field_table=prog.field_table,
        array_table=prog.array_table,
        source=prog.source,
    )
    if peephole:
        from .optimizer import optimize_program
        program = optimize_program(program)
    return program


@dataclass(frozen=True, eq=False)
class CompiledAction:
    """What the controller ships to an enclave: one compiled action.

    The bytecode :class:`Program` with the schemas it was compiled
    against and the compile options — everything an enclave needs to
    verify and bind it (Section 3.4.3: the controller compiles, the
    enclave verifies and interprets).  The artifact is
    content-addressed: :attr:`digest` covers the name, the bytecode,
    the field and array tables, the three schemas and the options,
    and equality and hashing go by it.  A schema field's ``binder``
    counts by its qualified name.

    ``prog_ast`` is the typed AST, kept for the one consumer that
    needs more than bytecode (``backend="native"``); it is not part of
    the content.  The artifact unpacks as ``(prog_ast, program)``.
    """

    program: Program
    packet_schema: Optional[Schema]
    message_schema: Optional[Schema] = None
    global_schema: Optional[Schema] = None
    optimize_tail_calls: bool = True
    peephole: bool = True
    prog_ast: Optional[T.ProgramAST] = field(default=None, repr=False)

    @property
    def name(self) -> str:
        return self.program.name

    @functools.cached_property
    def digest(self) -> str:
        """sha256 of the artifact's content, in hex."""
        program = self.program
        parts = [repr((program.name, self.optimize_tail_calls,
                       self.peephole))]
        for fn in program.functions:
            parts.append(repr((fn.name, fn.n_args, fn.n_locals,
                               [(i.op, i.arg) for i in fn.code])))
        parts.append(repr(program.field_table))
        parts.append(repr(program.array_table))
        for scope_schema in (self.packet_schema, self.message_schema,
                             self.global_schema):
            parts.append(_schema_text(scope_schema))
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledAction):
            return NotImplemented
        return self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def __iter__(self) -> Iterator[object]:
        return iter((self.prog_ast, self.program))


def _schema_text(schema: Optional[Schema]) -> str:
    if schema is None:
        return "None"
    rows = [repr((schema.name, schema.lifetime.value))]
    for f in schema.fields:
        binder = f.binder
        rows.append(repr((
            f.name, f.access.value, f.kind.value,
            sorted(f.header_map.items()), f.record_fields, f.default,
            None if binder is None
            else f"{binder.__module__}.{binder.__qualname__}")))
    return "; ".join(rows)


def compile_action(fn: Union[Callable, str],
                   packet_schema: Optional[Schema] = None,
                   message_schema: Optional[Schema] = None,
                   global_schema: Optional[Schema] = None,
                   name: Optional[str] = None,
                   optimize_tail_calls: bool = True,
                   peephole: bool = True) -> CompiledAction:
    """Frontend + backend in one step: the shippable artifact."""
    prog_ast = lower(fn, packet_schema=packet_schema,
                     message_schema=message_schema,
                     global_schema=global_schema, name=name)
    program = compile_ast(prog_ast,
                          optimize_tail_calls=optimize_tail_calls,
                          peephole=peephole)
    # Side-attach the typed AST so the native backend in the registry
    # can compile this program without replumbing every call site
    # (Program is frozen; this is a cache slot, not program identity).
    object.__setattr__(program, "_prog_ast", prog_ast)
    return CompiledAction(program, packet_schema, message_schema,
                          global_schema, optimize_tail_calls, peephole,
                          prog_ast)


# -- one compile per action per process -------------------------------

#: Artifacts :func:`compile_shared` keeps, oldest dropped first: far
#: more than the actions a process installs, a bound for a control
#: loop that keeps shipping fresh source.
MEMO_LIMIT = 256

_MEMO: Dict[tuple, CompiledAction] = {}
_MEMO_STATS = {"misses": 0, "drops": 0}


def compile_shared(fn: Union[Callable, str],
                   packet_schema: Optional[Schema] = None,
                   message_schema: Optional[Schema] = None,
                   global_schema: Optional[Schema] = None,
                   name: Optional[str] = None,
                   optimize_tail_calls: bool = True,
                   peephole: bool = True) -> CompiledAction:
    """:func:`compile_action`, once per process for equal requests.

    Keyed by the action (a live function itself, source text by its
    dedented text), the name, the schemas (``Schema`` equality: by
    content, a binder by identity) and the options, and held
    strongly: a request equal to an earlier one gets the *same*
    artifact, so its ``Program`` and the code backends compile into it
    are shared by every enclave, plane and build in the process.  A
    function's source is read only on a miss.
    """
    key = (fn if callable(fn) else source_of(fn), name, packet_schema,
           message_schema, global_schema, optimize_tail_calls, peephole)
    action = _MEMO.get(key)
    if action is not None:
        return action
    _MEMO_STATS["misses"] += 1
    action = compile_action(fn, packet_schema, message_schema,
                            global_schema, name, optimize_tail_calls,
                            peephole)
    if len(_MEMO) >= MEMO_LIMIT:
        del _MEMO[next(iter(_MEMO))]
        _MEMO_STATS["drops"] += 1
    _MEMO[key] = action
    return action


def memo_stats() -> Dict[str, int]:
    """:func:`compile_shared`'s misses (compiles), drops and size."""
    return dict(_MEMO_STATS, size=len(_MEMO))
