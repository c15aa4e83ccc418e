"""Seeded random DSL program generation + differential helpers.

This module is plain-`random` (no hypothesis) so the same seed always
yields the same program, which makes failures reproducible from a
single integer and lets the corpus under ``tests/lang/corpus/`` replay
byte-identical inputs in CI.  It is shared by:

* ``test_differential.py`` — the tree / pycodegen / native
  differential harness;
* ``test_fuzz_programs.py`` — pipeline fuzzing (compile/verify/optimize);
* ``test_optimizer_properties.py`` — optimizer equivalence properties.

The grammar covers scalar reads at every scope, writable packet /
message / global scalars, local variables, ``if``/``else``, bounded
``for`` and ``while`` loops with ``break``, boolean connectives, and
global array reads/writes.  Array indices are always ``expr % 8`` and
the input generator always materialises 8-element arrays, so programs
exercise the heap without depending on out-of-bounds semantics (which
the differential harness pins separately via the corpus) — except in
the "arith" and "helpers" profiles, whose indices may wrap, or be a
raw state value, on purpose.

:func:`mutate` goes below the DSL: one seeded point mutation of a
compiled program's bytecode, for fuzzing the verifier as the trust
boundary for hand-assembled programs.
"""

import ast
import contextlib
import random

from repro.lang import (DEFAULT_PACKET_SCHEMA, FunctionCode, Instr,
                        Interpreter, InterpreterFault, NativeFunction,
                        Op, Program, pycodegen)
from repro.lang.analysis import facts
from repro.lang.bytecode import OPS_WITH_ARG
from repro.lang.dsl import lower

from conftest import GLB_SCHEMA, MSG_SCHEMA

#: Op budget of every differential run's tree walk: far above anything
#: the bounded loops below can execute, but a hard stop for a mutant
#: that loops forever.  Generated code runs no budget (a run under one
#: goes to the tree walk), so it runs an input only after the budgeted
#: tree walk of that input finished (:func:`run_generated`).
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
#: reads and writes (ABASE/HLOAD/HSTORE address arithmetic); "arith"
#: chains ``+ - * << >>`` and unary minus over values at the 64-bit
#: edges into every point where generated code observes a value
#: (compares, ``//``, ``%``, branch tests, array indices, stores);
#: "helpers" calls nested helpers as PIAS does, among them a recursive
#: record search started at a constant at one call site and at a state
#: value at another.  The differential harness sweeps them all so
#: codegen sees every statement shape.
PROFILES = ("default", "loops", "arrays", "arith", "helpers")

#: Values at and around the edges of the 64-bit range.
EDGES = (2**63 - 1, -2**63, 2**62, -2**62 + 1, 2**32 + 1, -1, 3)
#: ``BIG + BIG`` is ``2**64 - 2``: an operand that is ``k - 2`` only
#: once wrapped.
BIG = 2**63 - 1


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
        if self.profile == "arith":
            return self._arith_statement(indent, depth)
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
        if self.profile == "helpers":
            body += self._helpers() + self._helper_calls()
        depth = 3 if self.profile == "loops" else 2
        body.extend(self.block(indent=1, depth=depth))
        return ("def f(packet, msg, _global):\n"
                + "\n".join(body) + "\n")

    # -- the "arith" profile --------------------------------------------

    def arith(self, depth=3):
        """A chain of ``+ - * << >>`` and unary minus whose atoms sit at
        the 64-bit edges as often as not."""
        rng = self.rng
        if depth == 0 or rng.random() < 0.2:
            if rng.random() < 0.5:
                value = rng.choice(EDGES)
                return str(value) if value >= 0 else f"({value})"
            return rng.choice(ATOMS + tuple(self._loop_vars))
        roll = rng.random()
        if roll < 0.12:
            return f"(-{self.arith(depth - 1)})"
        if roll < 0.3:
            return (f"({self.arith(depth - 1)} "
                    f"{rng.choice(('<<', '>>'))} {self.shift()})")
        return (f"({self.arith(depth - 1)} {rng.choice(('+', '-', '*'))} "
                f"{self.arith(depth - 1)})")

    def wrapped(self, k):
        """An expression that is ``k - 2`` only after the wrap; the
        field in it keeps the optimizer from folding it."""
        atom = self.rng.choice(ATOMS)
        return f"({atom} - {atom} + {BIG} + {BIG} + {k})"

    def shift(self):
        """A shift amount: a constant, one in range only after the wrap,
        or a chain reduced ``% 64``."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.5:
            return str(rng.randrange(64))
        if roll < 0.75:
            return self.wrapped(rng.randrange(2, 66))
        return f"({self.arith(1)} % 64)"

    def _arith_statement(self, indent, depth):
        rng = self.rng
        pad = "    " * indent
        kinds = ["assign", "assign", "divide", "compare", "index",
                 "store"]
        if depth > 0:
            kinds += ["if", "if", "truth", "while"]
        kind = rng.choice(kinds)
        target = rng.choice(WRITABLE)
        if kind == "assign":
            return [f"{pad}{target} = {self.arith()}"]
        if kind == "divide":
            divisor = self.arith(2)
            if rng.random() < 0.7:
                divisor = f"({divisor} | 1)"
            # A product: the dividend leaves the range as often as not.
            return [f"{pad}{target} = ({self.arith(1)} * {self.arith(1)})"
                    f" {rng.choice(('//', '%'))} {divisor}"]
        if kind == "compare":
            return [f"{pad}{target} = {self.arith(2)} {rng.choice(CMPS)} "
                    f"{self.arith(2)}"]
        if kind == "index":
            roll = rng.random()
            if roll < 0.5:
                index = f"{self.arith(2)} % {ARRAY_LEN}"
            elif roll < 0.8:
                index = self.wrapped(rng.randrange(2, 2 + ARRAY_LEN))
            else:
                index = self.arith(1)
            return [f"{pad}{target} = _global.weights[{index}]"]
        if kind == "store":
            return [f"{pad}_global.scratch[{self.arith(2)} % {ARRAY_LEN}]"
                    f" = {self.arith(2)}"]
        if kind == "truth":
            lines = [f"{pad}if {self.arith(2)}:"]
        elif kind == "if":
            lines = [f"{pad}if {self.arith(2)} {rng.choice(CMPS)} "
                     f"{self.arith(2)}:"]
        else:
            var = f"w{self._next_uid()}"
            lines = [f"{pad}{var} = 0",
                     f"{pad}while {var} < {rng.randint(1, 4)} and "
                     f"{self.arith(2)} {rng.choice(CMPS)} {self.arith(1)}:",
                     f"{pad}    {var} += 1"]
            self._loop_vars.append(var)
            lines += self.block(indent + 1, depth - 1)
            self._loop_vars.pop()
            return lines
        lines += self.block(indent + 1, depth - 1)
        if rng.random() < 0.5:
            lines += [f"{pad}else:"]
            lines += self.block(indent + 1, depth - 1)
        return lines

    # -- the "helpers" profile ------------------------------------------

    def _helpers(self):
        """Nested helpers: PIAS' recursive record search (its key an
        argument or a captured local), an arithmetic helper and a
        non-tail recursive one."""
        rng = self.rng
        captured = rng.random() < 0.5
        key = "v1" if captured else "key"
        miss = rng.choice(("0", "v0", "-1"))
        self._captured = captured
        return [
            f"    def search(index{'' if captured else ', key'}):",
            "        if index >= len(_global.records):",
            f"            return {miss}",
            f"        elif {key} <= _global.records[index].hi:",
            "            return _global.records[index].lo",
            "        else:",
            f"            return search(index + 1{'' if captured else ', key'})",
            "    def mix(a, b):",
            f"        if a {rng.choice(CMPS)} b:",
            f"            return {self._helper_arith('a', 'b')}",
            f"        return {self._helper_arith('b', 'v0')}",
            "    def depth(n):",
            "        if n <= 0:",
            f"            return {rng.choice(('msg.limit', 'v0', '0'))}",
            "        return 1 + depth(n - 1)",
        ]

    def _helper_arith(self, a, b):
        rng = self.rng
        return (f"({a} {rng.choice(('+', '-', '*'))} {b}) "
                f"{rng.choice(('+', '-', '^', '&'))} "
                f"{rng.choice((a, b, str(rng.choice(EDGES))))}")

    def _helper_calls(self):
        """The search from a constant at one site and from a state value
        (negative, or near the 64-bit edge, on some inputs) at another,
        in either order, each the first write of a packet field, then
        the other helpers."""
        rng = self.rng
        key = "" if self._captured else f", {rng.choice(ATOMS)}"
        sites = [f"search({rng.randrange(3)}{key})",
                 f"search({rng.choice(ATOMS[:4])}{key})"]
        rng.shuffle(sites)
        calls = [f"    packet.priority = {sites[0]}",
                 f"    packet.queue_id = {sites[1]}"]
        return calls + [
            f"    {rng.choice(WRITABLE)} = "
            f"mix({self.expression(1)}, {self.expression(1)})",
            f"    {rng.choice(WRITABLE)} = depth({rng.choice(ATOMS)} % 8)"]

    def _next_uid(self):
        self._uid += 1
        return self._uid


def generate_program(seed, profile="default"):
    """The canonical (seed, profile) -> source mapping."""
    return ProgramGen(seed, profile).program()


def halt_in_helper(program, seed):
    """``program`` with one RET of a helper — a function past the
    entry — turned into HALT, which ends the whole invocation there;
    ``seed`` picks the RET.  None when no helper has one.  The DSL never
    emits a HALT, and a point mutation rarely puts one in a helper."""
    rets = [(fi, pc) for fi, fn in enumerate(program.functions) if fi
            for pc, instr in enumerate(fn.code) if instr.op is Op.RET]
    if not rets:
        return None
    fi, pc = random.Random(seed).choice(rets)
    fn = program.functions[fi]
    code = fn.code[:pc] + (Instr(Op.HALT),) + fn.code[pc + 1:]
    functions = list(program.functions)
    functions[fi] = FunctionCode(fn.name, fn.n_args, fn.n_locals, code)
    return Program(program.name, tuple(functions), program.field_table,
                   program.array_table)


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


@contextlib.contextmanager
def tree_walks():
    """Count ``Interpreter.execute_tree`` calls made inside the block.

    Under the ``pycodegen`` dispatch a run walks the tree only when
    its program's bounds do not fit the limits (or the verifier
    rejects it), so a zero count shows that generated code ran."""
    walks = [0]
    inner = Interpreter.execute_tree

    def counted(self, *args, **kwargs):
        walks[0] += 1
        return inner(self, *args, **kwargs)

    Interpreter.execute_tree = counted
    try:
        yield walks
    finally:
        Interpreter.execute_tree = inner


def stopped(summary):
    """Whether the op budget stopped the run ``summary`` describes."""
    return summary[0] == "fault" and summary[2].startswith("op budget")


def run_generated(program, fvec, avec, seed=3, **limits):
    """The tree walk of one input under :data:`OP_BUDGET`, then, once
    it finished, the default dispatch with no op budget, where
    generated code runs it: ``(tree, generated, tree walks)``.
    ``generated`` is None when the budget stopped the tree walk."""
    tree = run_interp(program, fvec, avec, "tree", seed=seed, **limits)
    if stopped(tree):
        return tree, None, 0
    with tree_walks() as walks:
        generated = run_interp(program, fvec, avec, "pycodegen",
                               seed=seed, op_budget=None, **limits)
    return tree, generated, walks[0]


def stack_fits(program, interp=None):
    """Whether ``program``'s bounds keep its operand stack and call
    chain within ``interp``'s limits (the defaults when None): the
    runs that need no op budget to stay on generated code."""
    interp = interp or Interpreter()
    bounds = facts(program).bounds
    if bounds.calls is None:
        return (bounds.frame * interp.max_call_depth
                <= interp.max_operand_stack)
    return (bounds.stack <= interp.max_operand_stack
            and bounds.calls <= interp.max_call_depth)


def summary(res):
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
    return [summary(r) for r in results]


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
            out.append(summary(interp.execute(
                program, list(fvec), [list(a) for a in avec])))
        except InterpreterFault as fault:
            out.append(summary(fault))
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


_JUMP_OPS = (Op.JMP, Op.JZ, Op.JNZ)


def mutate(program, seed):
    """One seeded point mutation of ``program``'s bytecode: the op, the
    argument or the jump target of one instruction changes.  The
    mutant is often one the verifier rejects; that is the point."""
    rng = random.Random(seed)
    fi = rng.randrange(len(program.functions))
    fn = program.functions[fi]
    code = list(fn.code)
    kind = rng.choice(("op", "arg", "target"))
    jumps = [pc for pc, instr in enumerate(code)
             if instr.op in _JUMP_OPS]
    if kind == "target" and jumps:
        pc = rng.choice(jumps)
        code[pc] = Instr(code[pc].op, rng.randint(-1, len(code)))
    else:
        pc = rng.randrange(len(code))
        old = code[pc]
        if kind == "arg" and old.arg is not None:
            code[pc] = Instr(old.op,
                             old.arg + rng.choice((-2, -1, 1, 2)))
        else:
            op = rng.choice(list(Op))
            arg = None
            if op in OPS_WITH_ARG:
                arg = old.arg if old.arg is not None else \
                    rng.randint(0, 3)
            code[pc] = Instr(op, arg)
    functions = list(program.functions)
    functions[fi] = FunctionCode(fn.name, fn.n_args, fn.n_locals,
                                 tuple(code))
    return Program(program.name, tuple(functions), program.field_table,
                   program.array_table)


def check_parity(prog_ast, program, fields, arrays, seed=3,
                 native=True):
    """Run every backend on one input; return an error or None.

    The tree walk, under :data:`OP_BUDGET`, and the generated code,
    with no budget once the tree walk finished (:func:`run_generated`;
    the first pycodegen run compiles the program), must agree on
    everything — value, fields, arrays, stats, fault class and fault
    reason — and generated code must have run whenever
    :func:`stack_fits`.  native must agree on the fault/ok outcome
    and, when ok, on (value, fields, arrays).
    """
    fvec, avec = vectors(program, fields, arrays)
    tree, codegen, walks = run_generated(program, fvec, avec, seed=seed)
    if codegen is not None:
        if codegen != tree:
            return (f"tree/pycodegen divergence on fields={fields!r} "
                    f"arrays={arrays!r}:\n  tree={tree!r}\n"
                    f"  pycodegen={codegen!r}")
        if walks and pycodegen.code_for(program) is not None and \
                stack_fits(program):
            return (f"generated code did not run on fields={fields!r} "
                    f"arrays={arrays!r}")
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
