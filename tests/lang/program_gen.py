"""Seeded random DSL program generation + differential helpers.

This module is plain-`random` (no hypothesis) so the same seed always
yields the same program, which makes failures reproducible from a
single integer and lets the corpus under ``tests/lang/corpus/`` replay
byte-identical inputs in CI.  It is shared by:

* ``test_differential.py`` — the tree / pycodegen / native / batch
  differential harness;
* ``test_fuzz_programs.py`` — pipeline fuzzing (compile/verify/optimize);
* ``test_optimizer_properties.py`` — optimizer equivalence properties.

The grammar covers scalar reads at every scope, writable packet /
message / global scalars, local variables, ``if``/``else``, bounded
``for`` and ``while`` loops with ``break``, boolean connectives, and
global array reads/writes.  Array indices are always ``expr % 8`` and
the input generator always materialises 8-element arrays, so programs
exercise the heap without depending on out-of-bounds semantics (which
the differential harness pins separately via the corpus).
"""

import ast
import random

from repro.lang import (DEFAULT_PACKET_SCHEMA, Interpreter,
                        InterpreterFault, NativeFunction, pycodegen)
from repro.lang.dsl import lower

from conftest import GLB_SCHEMA, MSG_SCHEMA

#: Op budget used by every differential run: far above anything the
#: bounded loops below can execute, so every backend agrees on
#: termination, but a hard stop for a buggy compiled loop.
OP_BUDGET = 200_000

ATOMS = ("packet.size", "msg.counter", "msg.limit", "_global.knob",
         "v0", "v1")
BINOPS = ("+", "-", "*", "//", "%", "&", "|", "^")
CMPS = ("<", "<=", "==", "!=", ">", ">=")
WRITABLE = ("packet.priority", "packet.queue_id", "msg.counter",
            "_global.knob", "v0", "v1")
#: Arrays the generator touches; inputs always provide 8 elements.
ARRAY_LEN = 8

#: Generator profiles.  "default" is the historical statement mix;
#: "loops" skews toward nested for/while bodies (back-edges, break
#: jumps, budget pressure); "arrays" skews toward weights/scratch
#: reads and writes (ABASE/HLOAD/HSTORE address arithmetic).  The
#: differential harness sweeps all three so codegen sees every
#: statement shape.
PROFILES = ("default", "loops", "arrays")


def lower_source(source):
    """Lower one generated source with the shared test schemas."""
    return lower(source, packet_schema=DEFAULT_PACKET_SCHEMA,
                 message_schema=MSG_SCHEMA, global_schema=GLB_SCHEMA)


class ProgramGen:
    """Deterministic program generator for one (seed, profile)."""

    def __init__(self, seed, profile="default"):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}; "
                             f"use one of {PROFILES}")
        # "default" keeps the historical seed -> program mapping;
        # other profiles derive an independent stream per profile.
        self.rng = random.Random(
            seed if profile == "default" else f"{profile}:{seed}")
        self.profile = profile
        self._loop_vars = []
        self._uid = 0

    # -- expressions ----------------------------------------------------

    def expression(self, depth=2):
        rng = self.rng
        if depth == 0 or rng.random() < 0.4:
            return self._atom()
        roll = rng.random()
        if roll < 0.12:
            return "len(_global.weights)"
        array_p = 0.24 if self.profile != "arrays" else 0.55
        if roll < array_p and self._loop_vars:
            idx = rng.choice(self._loop_vars + ["v0", "v1"])
            arr = ("weights" if self.profile != "arrays"
                   or rng.random() < 0.5 else "scratch")
            return f"_global.{arr}[{idx} % {ARRAY_LEN}]"
        left = self.expression(depth - 1)
        right = self.expression(depth - 1)
        return f"({left} {rng.choice(BINOPS)} {right})"

    def _atom(self):
        rng = self.rng
        pool = list(ATOMS) + self._loop_vars
        if rng.random() < 0.25:
            if rng.random() < 0.1:
                # Values near the 64-bit boundary exercise wraparound.
                return str(rng.choice(
                    (2**63 - 1, -2**63, 2**62, -2**62 + 1)))
            return str(rng.randint(-50, 50))
        return rng.choice(pool)

    def condition(self, depth=1):
        rng = self.rng
        left = self.expression(depth)
        right = self.expression(depth)
        cond = f"{left} {rng.choice(CMPS)} {right}"
        if depth > 0 and rng.random() < 0.2:
            other = self.condition(depth - 1)
            cond = f"({cond}) {rng.choice(('and', 'or'))} ({other})"
        return cond

    # -- statements -----------------------------------------------------

    def statement(self, indent, depth):
        rng = self.rng
        pad = "    " * indent
        kinds = ["assign", "assign", "augment", "scratch"]
        if self.profile == "arrays":
            kinds += ["scratch", "scratch", "shuffle"]
        if depth > 0:
            kinds += ["if", "for", "while"]
            if self.profile == "loops":
                kinds += ["for", "for", "while"]
        kind = rng.choice(kinds)
        if kind == "shuffle":
            # Array-to-array traffic: read one slot, write another.
            src = rng.choice(("weights", "scratch"))
            i1 = rng.choice(["v0", "v1"] + self._loop_vars)
            i2 = rng.choice(["v0", "v1"] + self._loop_vars)
            return [f"{pad}_global.scratch[{i1} % {ARRAY_LEN}] = "
                    f"_global.{src}[{i2} % {ARRAY_LEN}] + "
                    f"{self.expression(0)}"]
        if kind == "assign":
            return [f"{pad}{rng.choice(WRITABLE)} = "
                    f"{self.expression()}"]
        if kind == "augment":
            return [f"{pad}{rng.choice(WRITABLE)} "
                    f"{rng.choice(('+=', '-=', '*='))} "
                    f"{self.expression(1)}"]
        if kind == "scratch":
            idx = rng.choice(["v0", "v1"] + self._loop_vars)
            return [f"{pad}_global.scratch[{idx} % {ARRAY_LEN}] = "
                    f"{self.expression(1)}"]
        if kind == "if":
            lines = [f"{pad}if {self.condition()}:"]
            lines += self.block(indent + 1, depth - 1)
            if rng.random() < 0.5:
                lines += [f"{pad}else:"]
                lines += self.block(indent + 1, depth - 1)
            return lines
        if kind == "for":
            var = f"i{self._next_uid()}"
            bound = rng.randint(1, ARRAY_LEN)
            lines = [f"{pad}for {var} in range({bound}):"]
            self._loop_vars.append(var)
            lines += self.block(indent + 1, depth - 1)
            self._loop_vars.pop()
            return lines
        # while: a counter guarantees termination; an optional break
        # exercises the loop-exit jumps.
        var = f"w{self._next_uid()}"
        bound = rng.randint(1, 6)
        lines = [f"{pad}{var} = 0",
                 f"{pad}while {var} < {bound}:",
                 f"{pad}    {var} += 1"]
        self._loop_vars.append(var)
        body = self.block(indent + 1, depth - 1)
        self._loop_vars.pop()
        lines += body
        if rng.random() < 0.4:
            lines += [f"{pad}    if {self.condition(0)}:",
                      f"{pad}        break"]
        return lines

    def block(self, indent, depth):
        lines = []
        for _ in range(self.rng.randint(1, 3)):
            lines.extend(self.statement(indent, depth))
        return lines

    def program(self):
        body = ["    v0 = packet.size % 97",
                "    v1 = msg.counter + 1"]
        depth = 3 if self.profile == "loops" else 2
        body.extend(self.block(indent=1, depth=depth))
        return ("def f(packet, msg, _global):\n"
                + "\n".join(body) + "\n")

    def _next_uid(self):
        self._uid += 1
        return self._uid


def generate_program(seed, profile="default"):
    """The canonical (seed, profile) -> source mapping."""
    return ProgramGen(seed, profile).program()


def generate_inputs(program, seed):
    """Seeded (fields, arrays) dicts aligned with ``program``'s tables.

    Arrays referenced by generated programs are always 8 elements long
    (times the stride), matching the ``% 8`` indexing in the grammar.
    """
    rng = random.Random(seed)

    def value():
        if rng.random() < 0.1:
            return rng.choice((2**63 - 1, -2**63, 2**62, -2**61))
        return rng.randint(-1000, 1000)

    fields = {(ref.scope, ref.name): value()
              for ref in program.field_table}
    arrays = {(ref.scope, ref.name):
              [value() for _ in range(ARRAY_LEN * ref.stride)]
              for ref in program.array_table}
    return fields, arrays


def vectors(program, fields, arrays):
    """Positional field/array vectors for ``Interpreter.execute``."""
    fvec = [fields.get((r.scope, r.name), 0)
            for r in program.field_table]
    avec = [list(arrays.get((r.scope, r.name), ()))
            for r in program.array_table]
    return fvec, avec


# -- backend runners ----------------------------------------------------

def run_interp(program, fvec, avec, dispatch, seed=3,
               op_budget=OP_BUDGET, **limits):
    """One interpreter run, summarised as a comparable tuple.

    Faults summarise as ``("fault", class name, reason)`` so the
    differential harness compares fault *identity*, not just ok-ness.
    """
    interp = Interpreter(dispatch=dispatch, rng=random.Random(seed),
                         op_budget=op_budget, **limits)
    try:
        r = interp.execute(program, list(fvec),
                           [list(a) for a in avec])
    except InterpreterFault as fault:
        return ("fault", type(fault).__name__, fault.reason)
    return ("ok", r.value, r.fields, r.arrays,
            (r.stats.ops_executed, r.stats.max_operand_stack,
             r.stats.max_call_depth, r.stats.heap_words))


def _summary(res):
    """The comparable tuple for one ExecResult-or-fault batch entry."""
    if isinstance(res, InterpreterFault):
        return ("fault", type(res).__name__, res.reason)
    return ("ok", res.value, res.fields, res.arrays,
            (res.stats.ops_executed, res.stats.max_operand_stack,
             res.stats.max_call_depth, res.stats.heap_words))


def run_interp_batch(program, snapshots, dispatch, seed=3,
                     op_budget=OP_BUDGET, **limits):
    """One ``Interpreter.execute_batch`` run, one summary per snapshot.

    ``snapshots`` is a list of ``(fvec, avec)`` pairs; the summaries
    use the same shape as :func:`run_interp` so batch entries compare
    directly against scalar runs.
    """
    interp = Interpreter(dispatch=dispatch, rng=random.Random(seed),
                         op_budget=op_budget, **limits)
    results = interp.execute_batch(
        program, [(list(f), [list(a) for a in avec])
                  for f, avec in snapshots])
    return [_summary(r) for r in results]


def run_interp_seq(program, snapshots, dispatch, seed=3,
                   op_budget=OP_BUDGET, rng=None, **limits):
    """The scalar reference for :func:`run_interp_batch`: the same
    snapshots through ``execute`` on one shared interpreter (so RNG
    state threads across invocations exactly as in a batch), faults
    isolated per invocation.  Pass ``rng`` to inspect the generator's
    state afterwards."""
    interp = Interpreter(dispatch=dispatch,
                         rng=rng or random.Random(seed),
                         op_budget=op_budget, **limits)
    out = []
    for fvec, avec in snapshots:
        try:
            out.append(_summary(interp.execute(
                program, list(fvec), [list(a) for a in avec])))
        except InterpreterFault as fault:
            out.append(_summary(fault))
    return out


def run_native(prog_ast, program, fvec, avec, seed=3):
    """One native-backend run; summarised without stats.

    Native fault *reasons* differ legitimately (e.g. Python's
    ZeroDivisionError text, RecursionError for call depth), so only
    the fault/ok outcome participates in cross-backend comparison.
    """
    native = NativeFunction(prog_ast, program, rng=random.Random(seed))
    try:
        r = native.execute(list(fvec), [list(a) for a in avec])
    except InterpreterFault:
        return ("fault",)
    return ("ok", r.value, r.fields, r.arrays)


def warm(program):
    """Spend ``program``'s cold calls so its next ``pycodegen`` run is
    generated code, not the tree walk.  Returns False for programs
    that never compile (they stay on the tree walk)."""
    for _ in range(pycodegen.TIER_UP_CALLS + 1):
        if pycodegen.code_for(program) is not None:
            return True
    return False


#: Copies of each snapshot run through ``execute_batch`` by
#: check_parity — >1 so the batch threads RNG/dispatch state across
#: invocations exactly as back-to-back scalar calls do.
BATCH_COPIES = 3


def check_parity(prog_ast, program, fields, arrays, seed=3,
                 native=True):
    """Run every backend on one input; return an error or None.

    The tree walk and the generated code (the program is warmed first,
    so the pycodegen legs are hot) must agree on everything — value,
    fields, arrays, stats, fault class and fault reason.  native must
    agree on the fault/ok outcome and, when ok, on (value, fields,
    arrays).  Batch execution must agree entry-for-entry with
    back-to-back scalar calls on a shared interpreter — including
    ``ExecStats`` and fault identity.
    """
    fvec, avec = vectors(program, fields, arrays)
    tree = run_interp(program, fvec, avec, "tree", seed=seed)
    warm(program)
    codegen = run_interp(program, fvec, avec, "pycodegen", seed=seed)
    if tree != codegen:
        return (f"tree/pycodegen divergence on fields={fields!r} "
                f"arrays={arrays!r}:\n  tree={tree!r}\n"
                f"  pycodegen={codegen!r}")
    snapshots = [(fvec, avec)] * BATCH_COPIES
    batch = run_interp_batch(program, snapshots, "pycodegen",
                             seed=seed)
    scalar = run_interp_seq(program, snapshots, "pycodegen", seed=seed)
    if batch != scalar:
        return (f"batch/scalar divergence on fields={fields!r} "
                f"arrays={arrays!r}:\n  batch={batch!r}\n"
                f"  scalar={scalar!r}")
    if batch[0] != codegen:
        return (f"batch first entry differs from single scalar run "
                f"on fields={fields!r} arrays={arrays!r}:\n"
                f"  batch[0]={batch[0]!r}\n  pycodegen={codegen!r}")
    if native:
        nat = run_native(prog_ast, program, fvec, avec, seed=seed)
        if nat[0] != tree[0]:
            return (f"native outcome differs on fields={fields!r} "
                    f"arrays={arrays!r}: interp={tree!r} "
                    f"native={nat!r}")
        if nat[0] == "ok" and nat[1:] != (tree[1], tree[2], tree[3]):
            return (f"native result differs on fields={fields!r} "
                    f"arrays={arrays!r}: interp={tree!r} "
                    f"native={nat!r}")
    return None


# -- minimization -------------------------------------------------------

def _indent(line):
    return len(line) - len(line.lstrip(" "))


def _block_span(lines, idx):
    """End index of the statement at ``idx`` including its suite."""
    indent = _indent(lines[idx])
    j = idx + 1
    while j < len(lines) and (not lines[j].strip()
                              or _indent(lines[j]) > indent):
        j += 1
    return j


def _parses(lines):
    if len(lines) < 2:
        return False
    try:
        ast.parse("\n".join(lines) + "\n")
        return True
    except SyntaxError:
        return False


def minimize(source, still_fails):
    """Greedy block-aware line removal while ``still_fails`` holds.

    ``still_fails(candidate_source)`` must return True only when the
    candidate reproduces the *original* failure (compile errors from
    over-aggressive removal should return False).
    """
    lines = source.rstrip("\n").splitlines()
    changed = True
    while changed:
        changed = False
        i = 1  # keep the def line
        while i < len(lines):
            end = _block_span(lines, i)
            candidate = lines[:i] + lines[end:]
            if _parses(candidate) and \
                    still_fails("\n".join(candidate) + "\n"):
                lines = candidate
                changed = True
            else:
                i = end
    return "\n".join(lines) + "\n"
