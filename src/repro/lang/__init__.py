"""The Eden action-function language: DSL, compiler, interpreter.

Typical use::

    from repro.lang import (DEFAULT_PACKET_SCHEMA, Interpreter,
                            compile_action, verify)

    def bump_priority(packet):
        packet.priority = min(packet.priority + 1, 7)

    program = compile_action(
        bump_priority, packet_schema=DEFAULT_PACKET_SCHEMA).program
    verify(program)
    result = Interpreter().execute(program, fields=[3], arrays=[])
"""

from .annotations import (AccessLevel, DEFAULT_PACKET_SCHEMA, Field,
                          FieldKind, Lifetime, Schema, SchemaError,
                          schema)
from .ast_nodes import ProgramAST
from .backends import (Backend, get as get_backend,
                       names as backend_names, register
                       as register_backend)
from .bytecode import (ArrayRef, FieldRef, FunctionCode, Instr, Op,
                       Program, wrap64)
from .compiler import CompileError, compile_action, compile_ast
from .dsl import DslError, lower, quote
from .interpreter import (ExecResult, ExecStats, Interpreter,
                          InterpreterFault)
from .optimizer import optimize_function, optimize_program
from .pycodegen import CodegenRunner, execute_codegen
from .verifier import VerificationError, verify

__all__ = [
    "AccessLevel", "ArrayRef", "Backend", "CodegenRunner",
    "CompileError", "DEFAULT_PACKET_SCHEMA",
    "DslError", "ExecResult", "ExecStats", "Field", "FieldKind",
    "FieldRef", "FunctionCode", "Instr", "Interpreter",
    "InterpreterFault", "Lifetime", "Op", "Program", "ProgramAST",
    "Schema", "SchemaError",
    "VerificationError", "backend_names", "compile_action",
    "compile_ast", "execute_codegen", "get_backend", "lower",
    "optimize_function", "optimize_program", "quote",
    "register_backend", "schema", "verify", "wrap64",
]
