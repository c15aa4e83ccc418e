"""DSL frontend: capture and lower restricted Python action functions.

The paper writes action functions in a subset of F# and captures their
abstract syntax tree with code quotations (Section 3.4.2).  The Python
analog is direct: an action function is written as a plain Python
function, its source is recovered with :func:`inspect.getsource` (the
"quotation"), parsed with :mod:`ast`, checked against the language
restrictions, and lowered to the typed AST in
:mod:`repro.lang.ast_nodes`.

The language subset mirrors the paper's:

* integers only — no floats, strings, objects or exceptions;
* assignments, ``if``/``elif``/``else``, ``while``, ``for i in range``,
  ``break``/``continue``, ``return``;
* one level of nested function definitions, including recursion (the
  compiler turns tail recursion into loops);
* reads/writes of the three state parameters (packet, message, global)
  according to their schema annotations;
* builtins ``rand(bound)``, ``clock()``, ``len(array)`` plus the pure
  sugar ``abs``/``min``/``max``.

Nested functions may read (but not assign) locals of the enclosing
action function; the frontend lambda-lifts such captures into hidden
trailing parameters so the backends never see closures.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from . import ast_nodes as T
from .annotations import AccessLevel, Field, FieldKind, Schema
from .bytecode import ArrayRef, FieldRef

SCOPE_ORDER = ("packet", "message", "global")
BUILTINS = ("rand", "clock")
PURE_SUGAR = ("abs", "min", "max")


class DslError(Exception):
    """The action function uses a construct outside the DSL subset."""

    def __init__(self, message: str, node: Optional[ast.AST] = None):
        if node is not None and hasattr(node, "lineno"):
            message = f"line {node.lineno}: {message}"
        super().__init__(message)


def source_of(fn: Union[Callable, str]) -> str:
    """The dedented source text of a live function (or of ``fn`` itself
    when it already is source text)."""
    if callable(fn):
        try:
            fn = inspect.getsource(fn)
        except (OSError, TypeError) as exc:
            raise DslError(
                f"cannot recover source of {fn!r}: {exc}") from exc
    return textwrap.dedent(fn)


def _function_node(source: str) -> ast.FunctionDef:
    try:
        module = ast.parse(source)
    except SyntaxError as exc:
        raise DslError(f"invalid syntax: {exc}") from exc
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            return node
    raise DslError("source does not contain a function definition")


def quote(fn: Union[Callable, str]) -> ast.FunctionDef:
    """Recover the AST of an action function (the "code quotation").

    Accepts either a live function object or its source text.  Returns
    the ``ast.FunctionDef`` node of the outermost function.
    """
    return _function_node(source_of(fn))


@dataclass
class _FnInfo:
    """Book-keeping for one function during lowering."""

    node: ast.FunctionDef
    params: List[str]
    assigned: Set[str]
    captures: List[str]
    index: int


class Lowerer:
    """Lower one action function to :class:`~.ast_nodes.ProgramAST`."""

    def __init__(self,
                 packet_schema: Optional[Schema] = None,
                 message_schema: Optional[Schema] = None,
                 global_schema: Optional[Schema] = None) -> None:
        self._schemas: Dict[str, Optional[Schema]] = {
            "packet": packet_schema,
            "message": message_schema,
            "global": global_schema,
        }
        # param-name -> scope ("packet" / "message" / "global")
        self._state_params: Dict[str, str] = {}
        self._field_table: List[FieldRef] = []
        self._field_index: Dict[Tuple[str, str], int] = {}
        self._array_table: List[ArrayRef] = []
        self._array_index: Dict[Tuple[str, str], int] = {}
        self._fns: Dict[str, _FnInfo] = {}
        self._fn_order: List[str] = []

    # -- public entry -------------------------------------------------

    def lower(self, fn: Union[Callable, str],
              name: Optional[str] = None) -> T.ProgramAST:
        # One ``inspect.getsource`` per install: the text feeds both
        # the parse and ``ProgramAST.source``.
        source = source_of(fn)
        node = _function_node(source)
        prog_name = name or node.name
        self._bind_state_params(node)
        self._collect_functions(node)
        self._resolve_captures()

        functions: List[T.FunctionDef] = []
        for fn_name in self._fn_order:
            functions.append(self._lower_function(self._fns[fn_name]))
        return T.ProgramAST(
            name=prog_name,
            functions=tuple(functions),
            field_table=tuple(self._field_table),
            array_table=tuple(self._array_table),
            source=source,
        )

    # -- signature and nested-function discovery ----------------------

    #: Accepted parameter names per scope, mirroring the paper's
    #: ``fun(packet, msg, _global)`` signature (Figure 7).
    PARAM_SCOPES = {
        "packet": "packet", "pkt": "packet",
        "msg": "message", "message": "message",
        "_global": "global", "glob": "global",
    }

    def _bind_state_params(self, node: ast.FunctionDef) -> None:
        args = node.args
        if args.vararg or args.kwarg or args.kwonlyargs or args.defaults:
            raise DslError(
                "action functions take only plain positional state "
                "parameters", node)
        for arg in args.args:
            scope = self.PARAM_SCOPES.get(arg.arg)
            if scope is None:
                raise DslError(
                    f"unknown state parameter {arg.arg!r}; use "
                    f"packet/pkt, msg/message, or _global/glob", node)
            if scope in self._state_params.values():
                raise DslError(
                    f"the {scope} scope is bound twice", node)
            if self._schemas[scope] is None:
                raise DslError(
                    f"parameter {arg.arg!r} binds the {scope} scope but "
                    f"no {scope} schema was provided", node)
            self._state_params[arg.arg] = scope

    def _collect_functions(self, node: ast.FunctionDef) -> None:
        """Register the entry function and its nested helpers."""
        self._register_function(node, is_entry=True)
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                self._register_function(stmt, is_entry=False)

    def _register_function(self, node: ast.FunctionDef,
                           is_entry: bool) -> None:
        if node.name in self._fns:
            raise DslError(f"function {node.name!r} defined twice", node)
        if is_entry:
            params: List[str] = []
        else:
            args = node.args
            if args.vararg or args.kwarg or args.kwonlyargs or \
                    args.defaults:
                raise DslError(
                    "nested functions take only plain positional "
                    "parameters", node)
            params = [a.arg for a in args.args]
            for p in params:
                if p in self._state_params:
                    raise DslError(
                        f"nested function parameter {p!r} shadows a "
                        f"state parameter", node)
        for inner in ast.walk(node):
            if inner is not node and isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda)) and not is_entry:
                raise DslError(
                    "nested functions may not define further functions",
                    inner)
        assigned = set(params)
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name) and \
                    isinstance(inner.ctx, ast.Store):
                assigned.add(inner.id)
            elif isinstance(inner, ast.FunctionDef) and inner is not node:
                # Skip names assigned inside nested defs of the entry.
                pass
        if not is_entry:
            info = _FnInfo(node=node, params=params, assigned=assigned,
                           captures=[], index=len(self._fn_order))
        else:
            # For the entry, re-compute assigned names excluding nested
            # function bodies (they have their own scopes).
            assigned = set()
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    continue
                for inner in ast.walk(stmt):
                    if isinstance(inner, ast.Name) and \
                            isinstance(inner.ctx, ast.Store):
                        assigned.add(inner.id)
            info = _FnInfo(node=node, params=[], assigned=assigned,
                           captures=[], index=0)
        self._fns[node.name] = info
        self._fn_order.append(node.name)

    def _resolve_captures(self) -> None:
        """Lambda-lift: compute, to a fixpoint, the entry locals each
        nested function needs as hidden trailing parameters."""
        entry = self._fns[self._fn_order[0]]
        changed = True
        while changed:
            changed = False
            for fn_name in self._fn_order[1:]:
                info = self._fns[fn_name]
                free = self._free_names(info)
                for name in free:
                    if name in entry.assigned and \
                            name not in info.captures:
                        info.captures.append(name)
                        changed = True

    def _free_names(self, info: _FnInfo) -> List[str]:
        """Names read in ``info`` that are not bound locally.

        Includes the captures of callees (they become call-site
        arguments and must therefore be in scope here too).
        """
        bound = set(info.params) | info.assigned | set(info.captures)
        free: List[str] = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load):
                name = node.id
                if name in bound or name in self._state_params:
                    continue
                if name in self._fns or name in BUILTINS or \
                        name in PURE_SUGAR or name in ("True", "False",
                                                       "len", "range"):
                    continue
                if name not in free:
                    free.append(name)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in self._fns:
                for captured in self._fns[node.func.id].captures:
                    if captured not in bound and captured not in free:
                        free.append(captured)
        return free

    # -- per-function lowering -----------------------------------------

    def _lower_function(self, info: _FnInfo) -> T.FunctionDef:
        ctx = _FunctionCtx(self, info)
        body_stmts = [s for s in info.node.body
                      if not isinstance(s, ast.FunctionDef)]
        body = ctx.lower_block(body_stmts, definitely=set(ctx.params))
        return T.FunctionDef(
            name=info.node.name,
            params=tuple(ctx.params),
            n_locals=len(ctx.slots),
            body=tuple(body),
        )

    # -- shared table helpers -------------------------------------------

    def field_ref(self, scope: str, field: Field,
                  node: ast.AST) -> int:
        key = (scope, field.name)
        if key not in self._field_index:
            self._field_index[key] = len(self._field_table)
            self._field_table.append(FieldRef(
                scope=scope, name=field.name,
                writable=field.access is AccessLevel.READ_WRITE))
        return self._field_index[key]

    def array_ref(self, scope: str, field: Field,
                  node: ast.AST) -> int:
        key = (scope, field.name)
        if key not in self._array_index:
            self._array_index[key] = len(self._array_table)
            self._array_table.append(ArrayRef(
                scope=scope, name=field.name, stride=field.stride,
                writable=field.access is AccessLevel.READ_WRITE))
        return self._array_index[key]

    def schema_for(self, scope: str) -> Schema:
        sch = self._schemas[scope]
        assert sch is not None
        return sch


class _FunctionCtx:
    """Lowering context for one function: local slots + statement and
    expression translation."""

    def __init__(self, lowerer: Lowerer, info: _FnInfo) -> None:
        self.lowerer = lowerer
        self.info = info
        self.params = list(info.params) + list(info.captures)
        self.slots: Dict[str, int] = {
            name: i for i, name in enumerate(self.params)}
        self._loop_depth = 0
        self._tmp_counter = 0

    # -- slots ---------------------------------------------------------

    def slot_for(self, name: str) -> int:
        if name not in self.slots:
            self.slots[name] = len(self.slots)
        return self.slots[name]

    def fresh_tmp(self) -> str:
        self._tmp_counter += 1
        return f"__tmp{self._tmp_counter}"

    # -- statements -----------------------------------------------------

    def lower_block(self, stmts: Sequence[ast.stmt],
                    definitely: Set[str]) -> List[T.Stmt]:
        out: List[T.Stmt] = []
        for stmt in stmts:
            out.extend(self.lower_stmt(stmt, definitely))
        return out

    def lower_stmt(self, stmt: ast.stmt,
                   definitely: Set[str]) -> List[T.Stmt]:
        if isinstance(stmt, ast.Assign):
            return [self._lower_assign(stmt, definitely)]
        if isinstance(stmt, ast.AugAssign):
            return [self._lower_aug_assign(stmt, definitely)]
        if isinstance(stmt, ast.AnnAssign):
            raise DslError("annotated assignments are not supported",
                           stmt)
        if isinstance(stmt, ast.If):
            return [self._lower_if(stmt, definitely)]
        if isinstance(stmt, ast.While):
            return [self._lower_while(stmt, definitely)]
        if isinstance(stmt, ast.For):
            return self._lower_for(stmt, definitely)
        if isinstance(stmt, ast.Break):
            if self._loop_depth == 0:
                raise DslError("break outside loop", stmt)
            return [T.Break()]
        if isinstance(stmt, ast.Continue):
            if self._loop_depth == 0:
                raise DslError("continue outside loop", stmt)
            return [T.Continue()]
        if isinstance(stmt, ast.Return):
            value = (self.lower_expr(stmt.value, definitely)
                     if stmt.value is not None else None)
            return [T.Return(value)]
        if isinstance(stmt, ast.Pass):
            return [T.Pass()]
        if isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Constant) and \
                    isinstance(stmt.value.value, str):
                return []  # docstring
            return [T.ExprStmt(self.lower_expr(stmt.value, definitely))]
        raise DslError(
            f"statement {type(stmt).__name__} is outside the DSL subset",
            stmt)

    def _lower_assign(self, stmt: ast.Assign,
                      definitely: Set[str]) -> T.Stmt:
        if len(stmt.targets) != 1:
            raise DslError("chained assignment is not supported", stmt)
        value = self.lower_expr(stmt.value, definitely)
        return self._store(stmt.targets[0], value, definitely)

    def _lower_aug_assign(self, stmt: ast.AugAssign,
                          definitely: Set[str]) -> T.Stmt:
        op = _BINOPS.get(type(stmt.op))
        if op is None:
            raise DslError(
                f"augmented operator {type(stmt.op).__name__} is not "
                f"supported", stmt)
        load_target = _as_load(stmt.target)
        current = self.lower_expr(load_target, definitely)
        value = T.BinOp(op, current,
                        self.lower_expr(stmt.value, definitely))
        return self._store(stmt.target, value, definitely)

    def _store(self, target: ast.expr, value: T.Expr,
               definitely: Set[str]) -> T.Stmt:
        if isinstance(target, ast.Name):
            name = target.id
            if name in self.lowerer._state_params:
                raise DslError(
                    f"cannot rebind state parameter {name!r}", target)
            if name in self.lowerer._fns:
                raise DslError(
                    f"cannot rebind function {name!r}", target)
            if name in self.info.captures:
                raise DslError(
                    f"nested function may not assign captured variable "
                    f"{name!r}", target)
            slot = self.slot_for(name)
            definitely.add(name)
            return T.AssignLocal(name=name, slot=slot, value=value)
        if isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Subscript):
                return self._store_array(target, value, definitely)
            scope, field = self._resolve_state_attr(target)
            if field.is_array:
                raise DslError(
                    f"cannot assign whole array {field.name!r}", target)
            if field.access is not AccessLevel.READ_WRITE:
                raise DslError(
                    f"{scope}.{field.name} is read-only", target)
            index = self.lowerer.field_ref(scope, field, target)
            return T.AssignState(scope=scope, name=field.name,
                                 index=index, value=value)
        if isinstance(target, ast.Subscript):
            return self._store_array(target, value, definitely)
        if isinstance(target, ast.Tuple):
            raise DslError("tuple unpacking is not supported", target)
        raise DslError("unsupported assignment target", target)

    def _store_array(self, target: ast.expr, value: T.Expr,
                     definitely: Set[str]) -> T.Stmt:
        scope, field, index_node, offset = \
            self._resolve_array_access(target)
        if field.access is not AccessLevel.READ_WRITE:
            raise DslError(f"{scope}.{field.name} is read-only", target)
        array_index = self.lowerer.array_ref(scope, field, target)
        return T.AssignArray(
            scope=scope, name=field.name, array_index=array_index,
            stride=field.stride, offset=offset,
            index=self.lower_expr(index_node, definitely), value=value)

    def _lower_if(self, stmt: ast.If,
                  definitely: Set[str]) -> T.Stmt:
        cond = self.lower_expr(stmt.test, definitely)
        then_defs = set(definitely)
        then = self.lower_block(stmt.body, then_defs)
        else_defs = set(definitely)
        orelse = self.lower_block(stmt.orelse, else_defs)
        definitely |= (then_defs & else_defs)
        return T.If(cond=cond, then=tuple(then), orelse=tuple(orelse))

    def _lower_while(self, stmt: ast.While,
                     definitely: Set[str]) -> T.Stmt:
        if stmt.orelse:
            raise DslError("while/else is not supported", stmt)
        cond = self.lower_expr(stmt.test, definitely)
        self._loop_depth += 1
        body_defs = set(definitely)
        body = self.lower_block(stmt.body, body_defs)
        self._loop_depth -= 1
        return T.While(cond=cond, body=tuple(body))

    def _lower_for(self, stmt: ast.For,
                   definitely: Set[str]) -> List[T.Stmt]:
        """Desugar ``for i in range(...)`` into a while loop."""
        if stmt.orelse:
            raise DslError("for/else is not supported", stmt)
        call = stmt.iter
        if not (isinstance(call, ast.Call) and
                isinstance(call.func, ast.Name) and
                call.func.id == "range" and not call.keywords):
            raise DslError(
                "only `for <name> in range(...)` loops are supported",
                stmt)
        if not isinstance(stmt.target, ast.Name):
            raise DslError("loop variable must be a simple name", stmt)
        args = call.args
        if not 1 <= len(args) <= 3:
            raise DslError("range takes 1 to 3 arguments", stmt)
        step = 1
        if len(args) == 3:
            step_node = args[2]
            neg = False
            if isinstance(step_node, ast.UnaryOp) and \
                    isinstance(step_node.op, ast.USub):
                neg = True
                step_node = step_node.operand
            if not (isinstance(step_node, ast.Constant) and
                    isinstance(step_node.value, int)):
                raise DslError(
                    "range step must be an integer constant", stmt)
            step = -step_node.value if neg else step_node.value
            if step == 0:
                raise DslError("range step must be non-zero", stmt)
        if len(args) == 1:
            start: T.Expr = T.Const(0)
            stop = self.lower_expr(args[0], definitely)
        else:
            start = self.lower_expr(args[0], definitely)
            stop = self.lower_expr(args[1], definitely)

        var = stmt.target.id
        var_slot = self.slot_for(var)
        definitely.add(var)
        stop_name = self.fresh_tmp()
        stop_slot = self.slot_for(stop_name)
        definitely.add(stop_name)
        # The increment runs at the top of the loop body (the variable
        # is pre-initialized one step low) so that `continue` inside
        # the body still advances the induction variable.
        out: List[T.Stmt] = [
            T.AssignLocal(var, var_slot,
                          T.BinOp("-", start, T.Const(step))),
            T.AssignLocal(stop_name, stop_slot, stop),
        ]
        cmp_op = "<" if step > 0 else ">"
        exit_cond = T.Compare(cmp_op, T.LocalRef(var, var_slot),
                              T.LocalRef(stop_name, stop_slot))
        self._loop_depth += 1
        body_defs = set(definitely)
        body = self.lower_block(stmt.body, body_defs)
        self._loop_depth -= 1
        loop_body: List[T.Stmt] = [
            T.AssignLocal(
                var, var_slot,
                T.BinOp("+", T.LocalRef(var, var_slot),
                        T.Const(step))),
            T.If(cond=T.UnaryOp("not", exit_cond),
                 then=(T.Break(),), orelse=()),
        ]
        loop_body.extend(body)
        out.append(T.While(cond=T.Const(1), body=tuple(loop_body)))
        return out

    # -- expressions ------------------------------------------------------

    def lower_expr(self, node: ast.expr,
                   definitely: Set[str]) -> T.Expr:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return T.Const(1 if node.value else 0)
            if isinstance(node.value, int):
                return T.Const(node.value)
            raise DslError(
                f"constant {node.value!r} is not an integer (the DSL "
                f"has no floats, strings or objects)", node)
        if isinstance(node, ast.Name):
            return self._lower_name(node, definitely)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Subscript):
                return self._lower_array_read(node, definitely)
            scope, field = self._resolve_state_attr(node)
            if field.is_array:
                raise DslError(
                    f"array {scope}.{field.name} must be indexed or "
                    f"passed to len()", node)
            index = self.lowerer.field_ref(scope, field, node)
            return T.StateRef(scope=scope, name=field.name, index=index)
        if isinstance(node, ast.Subscript):
            return self._lower_array_read(node, definitely)
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise DslError(
                    f"operator {type(node.op).__name__} is not in the "
                    f"DSL subset (no floats: use //)", node)
            return T.BinOp(op, self.lower_expr(node.left, definitely),
                           self.lower_expr(node.right, definitely))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return T.UnaryOp("-",
                                 self.lower_expr(node.operand,
                                                 definitely))
            if isinstance(node.op, ast.Invert):
                return T.UnaryOp("~",
                                 self.lower_expr(node.operand,
                                                 definitely))
            if isinstance(node.op, ast.Not):
                return T.UnaryOp("not",
                                 self.lower_expr(node.operand,
                                                 definitely))
            if isinstance(node.op, ast.UAdd):
                return self.lower_expr(node.operand, definitely)
            raise DslError("unsupported unary operator", node)
        if isinstance(node, ast.Compare):
            return self._lower_compare(node, definitely)
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            operands = tuple(self.lower_expr(v, definitely)
                             for v in node.values)
            return T.BoolOp(op, operands)
        if isinstance(node, ast.IfExp):
            return T.IfExp(
                cond=self.lower_expr(node.test, definitely),
                then=self.lower_expr(node.body, definitely),
                orelse=self.lower_expr(node.orelse, definitely))
        if isinstance(node, ast.Call):
            return self._lower_call(node, definitely)
        raise DslError(
            f"expression {type(node).__name__} is outside the DSL "
            f"subset", node)

    def _lower_name(self, node: ast.Name,
                    definitely: Set[str]) -> T.Expr:
        name = node.id
        if name in self.lowerer._state_params:
            raise DslError(
                f"state parameter {name!r} cannot be used as a value; "
                f"access its fields instead", node)
        if name in self.lowerer._fns:
            raise DslError(
                f"function {name!r} can only be called", node)
        if name in self.slots or name in self.info.captures:
            if name not in definitely and \
                    name not in self.params:
                raise DslError(
                    f"local {name!r} may be used before assignment",
                    node)
            return T.LocalRef(name, self.slot_for(name))
        if name in self.info.assigned:
            raise DslError(
                f"local {name!r} may be used before assignment", node)
        raise DslError(f"unknown name {name!r}", node)

    def _lower_compare(self, node: ast.Compare,
                       definitely: Set[str]) -> T.Expr:
        ops = []
        for op in node.ops:
            sym = _CMPOPS.get(type(op))
            if sym is None:
                raise DslError(
                    f"comparison {type(op).__name__} is not supported "
                    f"(no `in`, no `is`)", node)
            ops.append(sym)
        operands = [self.lower_expr(node.left, definitely)]
        operands += [self.lower_expr(c, definitely)
                     for c in node.comparators]
        # a < b < c  ->  (a < b) and (b < c); rare in practice, but the
        # paper's language has chained comparisons via nesting anyway.
        comparisons = [
            T.Compare(sym, operands[i], operands[i + 1])
            for i, sym in enumerate(ops)
        ]
        if len(comparisons) == 1:
            return comparisons[0]
        return T.BoolOp("and", tuple(comparisons))

    def _lower_call(self, node: ast.Call,
                    definitely: Set[str]) -> T.Expr:
        if node.keywords:
            raise DslError("keyword arguments are not supported", node)
        if not isinstance(node.func, ast.Name):
            raise DslError("only direct calls by name are supported",
                           node)
        name = node.func.id
        if name == "len":
            if len(node.args) != 1:
                raise DslError("len takes exactly one argument", node)
            target = node.args[0]
            if not isinstance(target, ast.Attribute):
                raise DslError(
                    "len() applies only to array state fields", node)
            scope, field = self._resolve_state_attr(target)
            if not field.is_array:
                raise DslError(
                    f"{scope}.{field.name} is not an array", node)
            array_index = self.lowerer.array_ref(scope, field, node)
            return T.ArrayLen(scope=scope, name=field.name,
                              array_index=array_index)
        args = [self.lower_expr(a, definitely) for a in node.args]
        if name in BUILTINS:
            expected = {"rand": 1, "clock": 0}[name]
            if len(args) != expected:
                raise DslError(
                    f"{name} takes exactly {expected} argument(s)", node)
            return T.Builtin(name=name, args=tuple(args))
        if name in PURE_SUGAR:
            return self._lower_sugar(name, args, node)
        if name in self.lowerer._fns:
            info = self.lowerer._fns[name]
            if info.index == 0:
                raise DslError(
                    "the entry function cannot call itself", node)
            if len(args) != len(info.params):
                raise DslError(
                    f"{name} takes {len(info.params)} argument(s), got "
                    f"{len(args)}", node)
            hidden = []
            for captured in info.captures:
                hidden.append(self._lower_name(
                    ast.copy_location(ast.Name(id=captured,
                                               ctx=ast.Load()), node),
                    definitely))
            return T.Call(name=name, func_index=info.index,
                          args=tuple(args) + tuple(hidden))
        raise DslError(f"unknown function {name!r}", node)

    def _lower_sugar(self, name: str, args: List[T.Expr],
                     node: ast.Call) -> T.Expr:
        if name == "abs":
            if len(args) != 1:
                raise DslError("abs takes one argument", node)
            a = args[0]
            return T.IfExp(cond=T.Compare("<", a, T.Const(0)),
                           then=T.UnaryOp("-", a), orelse=a)
        if len(args) != 2:
            raise DslError(f"{name} takes exactly two arguments", node)
        a, b = args
        op = "<" if name == "min" else ">"
        return T.IfExp(cond=T.Compare(op, a, b), then=a, orelse=b)

    def _lower_array_read(self, node: ast.expr,
                          definitely: Set[str]) -> T.Expr:
        scope, field, index_node, offset = \
            self._resolve_array_access(node)
        array_index = self.lowerer.array_ref(scope, field, node)
        return T.ArrayIndex(
            scope=scope, name=field.name, array_index=array_index,
            stride=field.stride, offset=offset,
            index=self.lower_expr(index_node, definitely))

    # -- state resolution ------------------------------------------------

    def _resolve_state_attr(self, node: ast.Attribute
                            ) -> Tuple[str, Field]:
        """Resolve ``param.field`` against the schemas."""
        if not isinstance(node.value, ast.Name):
            raise DslError(
                "only single-level attribute access on state "
                "parameters is supported", node)
        pname = node.value.id
        scope = self.lowerer._state_params.get(pname)
        if scope is None:
            raise DslError(
                f"{pname!r} is not a state parameter", node)
        schema = self.lowerer.schema_for(scope)
        try:
            field = schema.field_named(node.attr)
        except Exception:
            raise DslError(
                f"schema {schema.name!r} ({scope}) has no field "
                f"{node.attr!r}; declared fields: "
                f"{', '.join(schema.field_names)}", node) from None
        return scope, field

    def _resolve_array_access(self, node: ast.expr
                              ) -> Tuple[str, Field, ast.expr, int]:
        """Resolve ``arr[i]`` or ``arr[i].member`` to (scope, field,
        index expression, record offset)."""
        member: Optional[str] = None
        if isinstance(node, ast.Attribute):
            member = node.attr
            node = node.value
        if not isinstance(node, ast.Subscript):
            raise DslError("expected an array subscript", node)
        index_node = node.slice
        if isinstance(index_node, ast.Slice):
            raise DslError("array slices are not supported", node)
        if not isinstance(node.value, ast.Attribute):
            raise DslError(
                "subscripts apply only to array state fields "
                "(e.g. _global.weights[i])", node)
        scope, field = self._resolve_state_attr(node.value)
        if not field.is_array:
            raise DslError(f"{scope}.{field.name} is not an array", node)
        if field.kind is FieldKind.RECORD_ARRAY:
            if member is None:
                raise DslError(
                    f"{scope}.{field.name} is a record array; access a "
                    f"member, e.g. {field.name}[i]."
                    f"{field.record_fields[0]}", node)
            offset = field.record_offset(member)
        else:
            if member is not None:
                raise DslError(
                    f"{scope}.{field.name} is a flat array and has no "
                    f"member {member!r}", node)
            offset = 0
        return scope, field, index_node, offset


_BINOPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Mod: "%", ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
    ast.LShift: "<<", ast.RShift: ">>",
}

_CMPOPS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=",
}


def _as_load(node: ast.expr) -> ast.expr:
    """Deep-copy an assignment target as a Load-context expression."""
    import copy
    clone = copy.deepcopy(node)
    for sub in ast.walk(clone):
        if hasattr(sub, "ctx"):
            sub.ctx = ast.Load()
    return clone


def lower(fn: Union[Callable, str],
          packet_schema: Optional[Schema] = None,
          message_schema: Optional[Schema] = None,
          global_schema: Optional[Schema] = None,
          name: Optional[str] = None) -> T.ProgramAST:
    """Lower an action function to the typed AST.

    This is the main frontend entry point; the schemas bind the
    function's positional state parameters in order (packet, message,
    global).
    """
    lowerer = Lowerer(packet_schema=packet_schema,
                      message_schema=message_schema,
                      global_schema=global_schema)
    return lowerer.lower(fn, name=name)
