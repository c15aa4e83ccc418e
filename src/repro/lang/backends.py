"""Execution-backend registry for :mod:`repro.lang`.

Three ways of running a compiled :class:`~repro.lang.bytecode.Program`
live behind one :class:`Backend` protocol:

* ``tree`` — the decode-per-op walk, the executable semantics every
  other path is checked against;
* ``pycodegen`` — what runs: generated straight-line Python, compiled
  once per program
  (:mod:`repro.lang.pycodegen`);
* ``native`` — the AST-level compiler, the paper's Eden-vs-native
  baseline (Fig 12).

Consumers (the :class:`Interpreter`, the enclave's installed functions,
the CLI ``--backend`` flags) resolve backends by name through
:func:`get`.  An installed function resolves exactly one — its pinned
backend, or its interpreter's dispatch — and runs only through that
backend's :meth:`Backend.bind` and :meth:`Backend.plan`.

The contract, enforced by the differential harness in
``tests/lang/test_differential.py``:

* ``tree`` and ``pycodegen`` are bit-for-bit equivalent — results,
  :class:`ExecStats`, fault class and fault *reason*.
* ``native`` agrees on the ok/fault outcome and, when ok, on
  ``(value, fields, arrays)``; its stats are empty and its fault
  wording is its own (it runs Python semantics, not the bytecode VM).

A compiled artifact a backend keeps for a program lives in a slot on
that ``Program`` (pycodegen's generated code, native's one-off
function) and dies with it.  A ``Program`` is frozen, so the artifact
can never go stale, and nothing takes it away earlier: one host's
restart leaves the rest of a fleet's shared program compiled.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence

from . import pycodegen
from .bytecode import Program
from .interpreter import ExecResult, InterpreterFault
from .native import NativeFunction


class Backend:
    """One way to execute compiled programs.

    Subclasses override :meth:`execute` (required) and, when they can
    do better than the defaults, :meth:`bind` and :meth:`plan`.
    ``interp`` carries the limits (``max_operand_stack``,
    ``max_call_depth``, ``max_heap_words``, ``op_budget``) plus the
    ``rng``/``clock`` sources; backends must honor all of them to keep
    fault parity.
    """

    #: Registry key, e.g. ``"tree"``.
    name: str = ""

    def execute(self, interp, program: Program,
                fields: Sequence[int],
                arrays: Sequence[Sequence[int]],
                args: Sequence[int] = ()) -> ExecResult:
        raise NotImplementedError

    def bind(self, interp, program: Program):
        """A callable ``run(fields, arrays, args=())`` equal to
        ``execute(interp, program, fields, arrays, args)``.

        An installed function binds one when it is installed and calls
        it per invocation of its generic tier, and
        ``Interpreter.execute_batch`` binds one per batch; a backend
        overrides this to hoist per-call setup and compile.  The
        callable must read limits from ``interp`` on every call and
        draw from ``interp``'s RNG and clock.
        """
        return functools.partial(self.execute, interp, program)

    def plan(self, interp, fn):
        """A callable ``plan(packet, msg_entry, acct)`` that is one
        whole invocation of the enclave's installed function ``fn`` —
        state read, body, write-back, function stats — or None.

        ``InstalledFunction.run_packet`` asks once and without a plan
        runs its generic tier (:meth:`bind`'s callable), which the plan
        must equal bit for bit.  The rules of
        :meth:`bind` apply: limits, RNG and clock are read from
        ``interp`` on every call.  The default is no plan.
        """
        return None


class TreeBackend(Backend):
    """The decode-per-op reference loop (``Interpreter.execute_tree``)."""

    name = "tree"

    def execute(self, interp, program, fields, arrays, args=()):
        return interp.execute_tree(program, fields, arrays, args)


class PycodegenBackend(Backend):
    """Generated straight-line Python, compiled by :meth:`bind` (at
    install) or by the first :meth:`execute`, once per ``Program``."""

    name = "pycodegen"
    execute = staticmethod(pycodegen.execute_codegen)

    @staticmethod
    def bind(interp, program):
        return pycodegen.CodegenRunner(interp, program).run

    plan = staticmethod(pycodegen.plan_for)


class NativeBackend(Backend):
    """AST-level compilation to plain Python (outcome parity only).

    Needs the typed AST, which :func:`repro.lang.compiler.compile_action`
    attaches to the program as ``_prog_ast``; hand-assembled programs
    without it cannot run natively.  Stats are empty and entry
    arguments are rejected — both documented native limitations.

    :meth:`bind` compiles a :class:`NativeFunction` of the binding's
    own, at install, drawing from the binding interpreter's RNG and
    clock; :meth:`execute` keeps one in a slot on the program for
    one-off calls and points it at the calling interpreter's sources
    each time.
    """

    name = "native"

    @staticmethod
    def _ast(program):
        prog_ast = getattr(program, "_prog_ast", None)
        if prog_ast is None:
            raise InterpreterFault(
                "native backend needs a compiler-produced program "
                "(no typed AST attached)", program.name)
        return prog_ast

    def bind(self, interp, program):
        return NativeFunction(self._ast(program), program,
                              rng=interp.rng, clock=interp.clock).execute

    def _function(self, interp, program):
        nf = getattr(program, "_native_fn", None)
        if nf is None:
            nf = NativeFunction(self._ast(program), program,
                                rng=interp.rng, clock=interp.clock)
            object.__setattr__(program, "_native_fn", nf)
        else:
            # The compiled entry is rng/clock-agnostic; rebind the
            # sources so a cached function follows its interpreter.
            nf.rng = interp.rng
            nf.clock = interp.clock
        return nf

    def execute(self, interp, program, fields, arrays, args=()):
        return self._function(interp, program).execute(fields, arrays,
                                                       args)


_REGISTRY: Dict[str, Backend] = {}


def register(backend: Backend) -> Backend:
    """Add (or replace) a backend under ``backend.name``."""
    if not backend.name:
        raise ValueError("backend must define a non-empty name")
    _REGISTRY[backend.name] = backend
    return backend


def get(name: str) -> Backend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def names() -> List[str]:
    return sorted(_REGISTRY)


register(TreeBackend())
register(PycodegenBackend())
register(NativeBackend())
