"""Execution-backend registry for :mod:`repro.lang`.

Three ways of running a compiled :class:`~repro.lang.bytecode.Program`
live behind one :class:`Backend` protocol:

* ``tree`` — the decode-per-op walk, the executable semantics every
  other path is checked against;
* ``pycodegen`` — what runs: the tree walk while a program is cold,
  generated straight-line Python once it is hot
  (:mod:`repro.lang.pycodegen`);
* ``native`` — the AST-level compiler, the paper's Eden-vs-native
  baseline (Fig 12).

Consumers (the :class:`Interpreter`, the enclave's installed functions,
the CLI ``--backend`` flags) resolve backends by name through
:func:`get`.

The contract, enforced by the differential harness in
``tests/lang/test_differential.py``:

* ``tree`` and ``pycodegen`` are bit-for-bit equivalent — results,
  :class:`ExecStats`, fault class and fault *reason* — cold or hot.
* ``native`` agrees on the ok/fault outcome and, when ok, on
  ``(value, fields, arrays)``; its stats are empty and its fault
  wording is its own (it runs Python semantics, not the bytecode VM).
* ``execute_batch`` entries are bit-identical to back-to-back
  ``execute`` calls on a shared interpreter (RNG state threads
  through); faults are isolated per snapshot.

Backends may cache compiled artifacts on ``Program`` instances;
:func:`invalidate` (or ``Backend.invalidate``) must drop every such
artifact — the enclave calls it whenever a function is replaced or
removed, or the enclave restarts, so stale handlers can never run.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence, Tuple

from . import pycodegen
from .bytecode import Program
from .interpreter import ExecResult, InterpreterFault
from .native import NativeFunction


class Backend:
    """One way to execute compiled programs.

    Subclasses override :meth:`execute` (required) and, when they can
    do better than the generic scalar loop, :meth:`execute_batch`,
    :meth:`bind` and :meth:`plan`.  ``interp`` carries the limits
    (``max_operand_stack``, ``max_call_depth``, ``max_heap_words``,
    ``op_budget``) plus the ``rng``/``clock`` sources; backends must
    honor all of them to keep fault parity.
    """

    #: Registry key, e.g. ``"tree"``.
    name: str = ""

    def execute(self, interp, program: Program,
                fields: Sequence[int],
                arrays: Sequence[Sequence[int]],
                args: Sequence[int] = ()) -> ExecResult:
        raise NotImplementedError

    def execute_batch(self, interp, program: Program,
                      snapshots: Sequence[Tuple[Sequence[int],
                                                Sequence[
                                                    Sequence[int]]]],
                      args: Sequence[int] = ()) -> List[object]:
        """Scalar fallback: per-snapshot execute, faults isolated."""
        out: List[object] = []
        for fields, arrays in snapshots:
            try:
                out.append(self.execute(interp, program, fields,
                                        arrays, args))
            except InterpreterFault as fault:
                out.append(fault)
        return out

    def bind(self, interp, program: Program):
        """A callable ``run(fields, arrays)`` equal to
        ``execute(interp, program, fields, arrays)``.

        The enclave binds one per installed function and calls it per
        packet; a backend overrides this to hoist per-call setup.  The
        callable must read limits, RNG and clock from ``interp`` on
        every call, and must hold no compiled artifact that
        :meth:`invalidate` could not take away from it.
        """
        return functools.partial(self.execute, interp, program)

    def plan(self, interp, fn):
        """A callable ``plan(packet, msg_entry, acct)`` that is one
        whole invocation of the enclave's installed function ``fn`` —
        state read, body, write-back, function stats — or None.

        ``InstalledFunction.run_packet`` asks while it holds no plan
        and otherwise runs its generic tier, which the plan must equal
        bit for bit.  The rules of :meth:`bind` apply: limits, RNG and
        clock are read from ``interp`` on every call, and a plan whose
        compiled artifact :meth:`invalidate` took away runs nothing
        and answers None.  The default is no plan.
        """
        return None

    def invalidate(self, program: Program) -> bool:
        """Drop any compiled artifact cached on ``program``.

        Returns True when something was dropped.  Must be safe to call
        on programs this backend has never seen.
        """
        return False

    def stats(self) -> Dict[str, int]:
        """Backend-level counters (compiles, cache churn, ...)."""
        return {}


class TreeBackend(Backend):
    """The decode-per-op reference loop (``Interpreter.execute_tree``)."""

    name = "tree"

    def execute(self, interp, program, fields, arrays, args=()):
        return interp.execute_tree(program, fields, arrays, args)


class PycodegenBackend(Backend):
    """Tree walk while cold, generated straight-line Python once hot."""

    name = "pycodegen"
    execute = staticmethod(pycodegen.execute_codegen)
    execute_batch = staticmethod(pycodegen.execute_codegen_batch)

    @staticmethod
    def bind(interp, program):
        return pycodegen.CodegenRunner(interp, program).run

    plan = staticmethod(pycodegen.plan_for)
    invalidate = staticmethod(pycodegen.invalidate)
    stats = staticmethod(pycodegen.stats)


class NativeBackend(Backend):
    """AST-level compilation to plain Python (outcome parity only).

    Needs the typed AST, which :func:`repro.lang.compiler.compile_action`
    attaches to the program as ``_prog_ast``; hand-assembled programs
    without it cannot run natively.  Stats are empty and entry
    arguments are rejected — both documented native limitations.
    """

    name = "native"

    def _function(self, interp, program):
        prog_ast = getattr(program, "_prog_ast", None)
        if prog_ast is None:
            raise InterpreterFault(
                "native backend needs a compiler-produced program "
                "(no typed AST attached)", program.name)
        nf = getattr(program, "_native_fn", None)
        if nf is None:
            nf = NativeFunction(prog_ast, program, rng=interp.rng,
                                clock=interp.clock)
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

    def invalidate(self, program):
        if getattr(program, "_native_fn", None) is not None:
            object.__setattr__(program, "_native_fn", None)
            return True
        return False


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


def invalidate(program: Program) -> Dict[str, bool]:
    """Drop every backend's cached artifact for ``program``.

    The enclave calls this on ``replace_function``/``remove_function``
    /``clear`` (``InstalledFunction.retire``) so no backend can ever
    reuse a stale compiled handler.  Returns
    ``{backend name: dropped?}`` for observability.
    """
    return {name: backend.invalidate(program)
            for name, backend in _REGISTRY.items()}


register(TreeBackend())
register(PycodegenBackend())
register(NativeBackend())
