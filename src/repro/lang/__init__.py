"""The Eden action-function language: DSL, compiler, interpreter.

Typical use::

    from repro.lang import (Field, Schema, Lifetime, AccessLevel,
                            compile_action, Interpreter, verify)

    def bump_priority(packet):
        packet.priority = min(packet.priority + 1, 7)

    ast, program = compile_action(
        bump_priority, packet_schema=DEFAULT_PACKET_SCHEMA)
    verify(program)
    result = Interpreter().execute(program, fields=[3], arrays=[])
"""

from .annotations import (AccessLevel, DEFAULT_PACKET_SCHEMA, Field,
                          FieldKind, Lifetime, Schema, SchemaError,
                          schema)
from .ast_nodes import ProgramAST
from .backends import (Backend, get as get_backend,
                       invalidate as invalidate_backends,
                       names as backend_names, register
                       as register_backend)
from .bytecode import (ArrayRef, FieldRef, FunctionCode, Instr, Op,
                       Program, wrap64)
from .compiler import CompileError, compile_action, compile_ast
from .dsl import DslError, lower, quote
from .interpreter import (ExecResult, ExecStats, Interpreter,
                          InterpreterFault)
from .native import NativeFault, NativeFunction
from .optimizer import optimize_function, optimize_program
from .pycodegen import (CodegenRunner, execute_codegen,
                        execute_codegen_batch)
from .verifier import VerificationError, verify

__all__ = [
    "AccessLevel", "ArrayRef", "Backend", "CodegenRunner",
    "CompileError", "DEFAULT_PACKET_SCHEMA",
    "DslError", "ExecResult", "ExecStats", "Field", "FieldKind",
    "FieldRef", "FunctionCode", "Instr", "Interpreter",
    "InterpreterFault", "Lifetime", "NativeFault", "NativeFunction",
    "Op", "Program", "ProgramAST", "Schema", "SchemaError",
    "VerificationError", "backend_names", "compile_action",
    "compile_ast", "execute_codegen", "execute_codegen_batch",
    "get_backend", "invalidate_backends", "lower",
    "optimize_function", "optimize_program", "quote",
    "register_backend", "schema", "verify", "wrap64",
]
