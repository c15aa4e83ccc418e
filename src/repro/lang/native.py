"""Native backend: compile the typed AST to a Python closure.

The paper evaluates Eden against a "native" implementation — the same
function hard-coded inside the enclave instead of interpreted
(Section 5.1).  This module is that baseline: it generates Python source
from the exact same typed AST the bytecode compiler consumes, so both
backends implement identical semantics (a property the test suite
checks exhaustively), but execution skips the bytecode interpreter.

The generated function takes the same invocation inputs as
:meth:`repro.lang.interpreter.Interpreter.execute` — a scalar field file
and flattened arrays — so the enclave can swap backends per match-action
rule without changing anything else.
"""

from __future__ import annotations

import keyword
import random
from typing import Callable, List, Optional, Sequence

from . import ast_nodes as T
from .bytecode import Program, wrap64
from .interpreter import ExecResult, ExecStats, InterpreterFault


class NativeFault(InterpreterFault):
    """The native function faulted (same contract as interpreter faults)."""


def _aget(arr: List[int], idx: int, name: str) -> int:
    if not 0 <= idx < len(arr):
        raise NativeFault(
            f"array read at {idx} out of bounds for {name} "
            f"(length {len(arr)})")
    return arr[idx]


def _aset(arr: List[int], idx: int, value: int, name: str) -> None:
    if not 0 <= idx < len(arr):
        raise NativeFault(
            f"array write at {idx} out of bounds for {name} "
            f"(length {len(arr)})")
    arr[idx] = value


def _div(a: int, b: int) -> int:
    if b == 0:
        raise NativeFault("division by zero")
    return wrap64(a // b)


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise NativeFault("modulo by zero")
    return wrap64(a % b)


def _shl(a: int, b: int) -> int:
    if not 0 <= b < 64:
        raise NativeFault(f"shift amount {b} out of range")
    return wrap64(a << b)


def _shr(a: int, b: int) -> int:
    if not 0 <= b < 64:
        raise NativeFault(f"shift amount {b} out of range")
    return wrap64(a >> b)


def _rand(rng: random.Random, bound: int) -> int:
    if bound <= 0:
        raise NativeFault(f"rand bound {bound} must be positive")
    return rng.randrange(bound)


# The typed AST travels with the artifact but is not covered by its
# digest, and the verifier reads only the bytecode, so every AST field
# the generator splices into source is checked against what the
# frontend (``dsl.lower``) can produce before it is spliced.

_CMP_OPS = frozenset(("==", "!=", "<", "<=", ">", ">="))


def _int(value) -> int:
    """A slot, index, stride or constant: a plain ``int``."""
    if type(value) is not int:
        raise NativeFault(f"typed AST carries {value!r} where an "
                          f"integer belongs")
    return value


def _ident(name) -> str:
    """A function or array name: a plain identifier, not a keyword."""
    if type(name) is not str or not name.isidentifier() or \
            keyword.iskeyword(name):
        raise NativeFault(f"typed AST carries {name!r} where a name "
                          f"belongs")
    return name


class _CodeGen:
    """Generates the Python source of one compiled program."""

    _BINOP_FMT = {
        "+": "_w({lhs} + {rhs})",
        "-": "_w({lhs} - {rhs})",
        "*": "_w({lhs} * {rhs})",
        "//": "_div({lhs}, {rhs})",
        "%": "_mod({lhs}, {rhs})",
        "&": "_w({lhs} & {rhs})",
        "|": "_w({lhs} | {rhs})",
        "^": "_w({lhs} ^ {rhs})",
        "<<": "_shl({lhs}, {rhs})",
        ">>": "_shr({lhs}, {rhs})",
    }

    def __init__(self, prog: T.ProgramAST) -> None:
        self.prog = prog
        self.lines: List[str] = []
        self._indent = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self._indent + line)

    def generate(self) -> str:
        self.emit("def __entry__(F, A, _rng, _clock):")
        self._indent += 1
        self.emit("_clk = [None]")
        for fn in reversed(self.prog.functions[1:]):
            self._gen_function(fn)
        for stmt in self.prog.functions[0].body:
            self._gen_stmt(stmt)
        self.emit("return 0")
        self._indent -= 1
        return "\n".join(self.lines)

    def _gen_function(self, fn: T.FunctionDef) -> None:
        params = ", ".join(f"_l{i}" for i in range(len(fn.params)))
        self.emit(f"def _fn_{_ident(fn.name)}({params}):")
        self._indent += 1
        body = list(fn.body)
        if not body:
            body = [T.Return(T.Const(0))]
        for stmt in body:
            self._gen_stmt(stmt)
        self.emit("return 0")
        self._indent -= 1

    # -- statements -----------------------------------------------------

    def _gen_stmt(self, stmt: T.Stmt) -> None:
        if isinstance(stmt, T.AssignLocal):
            self.emit(f"_l{_int(stmt.slot)} = "
                      f"{self._gen_expr(stmt.value)}")
        elif isinstance(stmt, T.AssignState):
            self.emit(f"F[{_int(stmt.index)}] = "
                      f"_w({self._gen_expr(stmt.value)})")
        elif isinstance(stmt, T.AssignArray):
            addr = self._element_addr(stmt)
            self.emit(f"_aset(A[{_int(stmt.array_index)}], {addr}, "
                      f"_w({self._gen_expr(stmt.value)}), "
                      f"{_ident(stmt.name)!r})")
        elif isinstance(stmt, T.If):
            self.emit(f"if {self._gen_expr(stmt.cond)} != 0:")
            self._indent += 1
            self._gen_block(stmt.then)
            self._indent -= 1
            if stmt.orelse:
                self.emit("else:")
                self._indent += 1
                self._gen_block(stmt.orelse)
                self._indent -= 1
        elif isinstance(stmt, T.While):
            self.emit(f"while {self._gen_expr(stmt.cond)} != 0:")
            self._indent += 1
            self._gen_block(stmt.body)
            self._indent -= 1
        elif isinstance(stmt, T.Break):
            self.emit("break")
        elif isinstance(stmt, T.Continue):
            self.emit("continue")
        elif isinstance(stmt, T.Return):
            if stmt.value is None:
                self.emit("return 0")
            else:
                self.emit(f"return {self._gen_expr(stmt.value)}")
        elif isinstance(stmt, T.ExprStmt):
            self.emit(f"_ = {self._gen_expr(stmt.value)}")
        elif isinstance(stmt, T.Pass):
            self.emit("pass")
        else:
            raise NativeFault(f"unknown statement {stmt!r}")

    def _gen_block(self, stmts) -> None:
        if not stmts:
            self.emit("pass")
            return
        for stmt in stmts:
            self._gen_stmt(stmt)

    # -- expressions ------------------------------------------------------

    def _gen_expr(self, expr: T.Expr) -> str:
        if isinstance(expr, T.Const):
            return repr(wrap64(_int(expr.value)))
        if isinstance(expr, T.LocalRef):
            return f"_l{_int(expr.slot)}"
        if isinstance(expr, T.StateRef):
            return f"F[{_int(expr.index)}]"
        if isinstance(expr, T.ArrayLen):
            index = _int(expr.array_index)
            stride = _int(self.prog.array_table[index].stride)
            if stride == 1:
                return f"len(A[{index}])"
            return f"(len(A[{index}]) // {stride})"
        if isinstance(expr, T.ArrayIndex):
            addr = self._element_addr(expr)
            return (f"_aget(A[{_int(expr.array_index)}], {addr}, "
                    f"{_ident(expr.name)!r})")
        if isinstance(expr, T.BinOp):
            fmt = self._BINOP_FMT.get(expr.op) \
                if type(expr.op) is str else None
            if fmt is None:
                raise NativeFault(f"unknown binary op {expr.op!r}")
            return fmt.format(
                lhs=self._gen_expr(expr.lhs),
                rhs=self._gen_expr(expr.rhs))
        if isinstance(expr, T.UnaryOp):
            operand = self._gen_expr(expr.operand)
            if expr.op == "-":
                return f"_w(-({operand}))"
            if expr.op == "~":
                return f"_w(~({operand}))"
            if expr.op == "not":
                return f"(1 if ({operand}) == 0 else 0)"
            raise NativeFault(f"unknown unary op {expr.op!r}")
        if isinstance(expr, T.Compare):
            if type(expr.op) is not str or expr.op not in _CMP_OPS:
                raise NativeFault(f"unknown comparison {expr.op!r}")
            return (f"(1 if ({self._gen_expr(expr.lhs)}) {expr.op} "
                    f"({self._gen_expr(expr.rhs)}) else 0)")
        if isinstance(expr, T.BoolOp):
            joiner = " and " if expr.op == "and" else " or "
            parts = [f"({self._gen_expr(op)}) != 0"
                     for op in expr.operands]
            return f"(1 if ({joiner.join(parts)}) else 0)"
        if isinstance(expr, T.IfExp):
            return (f"(({self._gen_expr(expr.then)}) if "
                    f"({self._gen_expr(expr.cond)}) != 0 else "
                    f"({self._gen_expr(expr.orelse)}))")
        if isinstance(expr, T.Call):
            callee = self.prog.functions[_int(expr.func_index)]
            args = ", ".join(self._gen_expr(a) for a in expr.args)
            return f"_fn_{_ident(callee.name)}({args})"
        if isinstance(expr, T.Builtin):
            if expr.name == "rand":
                return f"_rand(_rng, {self._gen_expr(expr.args[0])})"
            if expr.name == "clock":
                # Like the interpreter, the clock is sampled once per
                # invocation.
                return ("(_clk[0] if _clk[0] is not None else "
                        "_clk.__setitem__(0, _w(_clock())) or _clk[0])")
            raise NativeFault(f"unknown builtin {expr.name!r}")
        raise NativeFault(f"unknown expression {expr!r}")

    def _element_addr(self, node) -> str:
        index = self._gen_expr(node.index)
        stride, offset = _int(node.stride), _int(node.offset)
        if stride == 1 and offset == 0:
            return f"({index})"
        if offset == 0:
            return f"(({index}) * {stride})"
        return f"(({index}) * {stride} + {offset})"


class NativeFunction:
    """A natively compiled action function.

    Drop-in execution-compatible with the bytecode interpreter:
    :meth:`execute` takes the same snapshot inputs and returns the same
    :class:`ExecResult`.
    """

    def __init__(self, prog_ast: T.ProgramAST, program: Program,
                 rng: Optional[random.Random] = None,
                 clock: Optional[Callable[[], int]] = None) -> None:
        self.prog_ast = prog_ast
        self.program = program
        self.rng = rng if rng is not None else random.Random(0)
        self.clock = clock if clock is not None else (lambda: 0)
        self.python_source = _CodeGen(prog_ast).generate()
        namespace = {
            "_w": wrap64, "_div": _div, "_mod": _mod, "_shl": _shl,
            "_shr": _shr, "_aget": _aget, "_aset": _aset,
            "_rand": _rand,
        }
        exec(compile(self.python_source, f"<native:{prog_ast.name}>",
                     "exec"), namespace)
        self._fn = namespace["__entry__"]

    def execute(self, fields: Sequence[int],
                arrays: Sequence[Sequence[int]],
                args: Sequence[int] = ()) -> ExecResult:
        """Run the native function over a state snapshot."""
        if args:
            raise NativeFault(
                "native entry points take no positional arguments")
        field_file = [wrap64(v) for v in fields]
        heap_arrays = [list(map(wrap64, a)) for a in arrays]
        try:
            value = self._fn(field_file, heap_arrays, self.rng,
                             self.clock)
        except NativeFault:
            raise
        except RecursionError:
            raise NativeFault("call depth exceeded") from None
        return ExecResult(value=wrap64(value), fields=field_file,
                          arrays=heap_arrays, stats=ExecStats())
