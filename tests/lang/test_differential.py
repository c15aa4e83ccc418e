"""Differential harness: tree, pycodegen and native.

This is the correctness guard for every execution backend in the
:mod:`repro.lang.backends` registry and the enclave hot path: every
DSL program in the repo (the §5 functions library via ``table1()``)
plus hundreds of seeded fuzz programs — across the default, loop-heavy,
array-heavy, edge-arithmetic and helper-calling generator profiles —
run through

* the decode-per-op tree walk      (``Interpreter(dispatch="tree")``),
* generated straight-line Python   (``Interpreter(dispatch="pycodegen")``,
  which compiles a program on its first call),
* the native compiled backend      (``repro.lang.native``),

on randomized-but-seeded inputs.  tree and pycodegen must agree
bit-for-bit on ``(value, fields, arrays)``, on ``ExecStats``, and on
the fault class *and reason*; native must agree on the fault/ok
outcome and the result triple (its fault wording legitimately differs
— see ``program_gen.run_native``).  The tree walk runs under the
harness's op budget, which stops a mutant's endless loop; generated
code runs no budget (a run under one goes to the tree walk), so it
runs an input with none, once the budgeted tree walk of that input
finished, and the harness checks that generated code did run it.

``TestTierBoundary`` pins the one behaviour the default backend adds:
a program's first call compiles it, exactly once, and nothing
observable differs from the tree walk on that call or any later one,
one at a time or through ``Interpreter.execute_batch`` — and a
program the verifier rejects never compiles.  ``TestMutatedBytecode``
goes below the DSL: point mutations of compiled bytecode are rejected
by the verifier or run alike on the tree walk and generated code.

``TestEnclaveBatchDifferential`` lifts the same property to the whole
enclave data path: ``Enclave.process_batch`` over the fuzz corpus must
leave identical per-packet results, packet writes, function stats, and
message/global state as sequential ``process_packet`` calls.  Its
plan legs run the fuzz seeds, the library demos and the corpus through
a default enclave — whose function runs the generated per-packet plan
from its first packet — and a ``backend="tree"`` enclave,
which stays on the generic tier of ``InstalledFunction.run_packet``,
and require the same of those two, RNG state included.

The edge-arithmetic ("arith") and helper-calling ("helpers") profiles
aim at what generated code leaves out: the 64-bit wrap where a value is
not yet observed, and the heap test of a record search its intervals
prove in range (one of its call sites starts it from a state value).
Their addresses may leave their array on purpose, where the native
backend's per-array lists legitimately differ from the flat heap, so
they hold native to nothing.  ``program_gen.halt_in_helper`` turns a
helper's RET into HALT; the effects property and the plan legs draw it.

``TestBounds`` holds every run of the same programs, ok or faulting,
to the stack bounds ``analysis.facts`` proves, which generated code
relies on instead of testing limits; ``TestFaultContainment`` drives
fuzz programs and verified mutants through ``Enclave.process_packet``
at default limits, under an op budget below each run's need and with
the stack limit one below the bound, where a faulting packet must
commit nothing, and ``TestChainedFaults`` does so for the middle hop
of a three-hop ``next_table`` chain.  They draw programs, mutations
and packets with hypothesis, so a failing example shrinks, and run
ten times the examples under ``-m differential``.

Any fuzz failure is minimized (``program_gen.minimize``) and persisted
into ``tests/lang/corpus/``; the corpus is replayed here in CI so past
failures stay fixed.

Run just this harness with ``pytest -m differential``; the
enclave-level batch slice alone with ``pytest -m batch``.
"""

import dataclasses
import glob
import os
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enclave import Enclave
from repro.core.state import MessageStore
from repro.core.stage import Classification
from repro.lang import (DEFAULT_PACKET_SCHEMA, Interpreter,
                        InterpreterFault, VerificationError, pycodegen,
                        verify, wrap64)
from repro.lang.analysis import facts
from repro.lang.bytecode import Assembler, FieldRef, Op, Program
from repro.lang.compiler import CompiledAction, compile_action, compile_ast
from repro.functions.library import DemoPacket, table1

import program_gen as pg
from conftest import GLB_SCHEMA, MSG_SCHEMA, REJECTED_PROGRAMS

pytestmark = pytest.mark.differential

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
#: ≥200 seeded fuzz programs (acceptance criterion).
FUZZ_SEEDS = range(240)
#: Seeds per non-default generator profile (loops / arrays).
PROFILE_SEEDS = range(60)
#: Distinct seeded input snapshots per program.
INPUTS_PER_PROGRAM = 2


def _stable_seed(text):
    return zlib.crc32(text.encode())


def _library_entries():
    return [e for e in table1() if e.demo is not None]


def _compile_demo(demo):
    return compile_action(demo.action,
                          packet_schema=DEFAULT_PACKET_SCHEMA,
                          message_schema=demo.message_schema,
                          global_schema=demo.global_schema,
                          name=demo.function_name)


class TestLibraryPrograms:
    """Every program of the §5 functions library, on seeded inputs."""

    def test_covers_whole_library(self):
        entries = _library_entries()
        # Table 1 ships 13+ runnable demos; if this shrinks, the
        # differential net has a hole.
        assert len(entries) >= 13

    @pytest.mark.parametrize(
        "entry", _library_entries(), ids=lambda e: e.name)
    def test_backends_agree(self, entry):
        prog_ast, program = _compile_demo(entry.demo)
        base = _stable_seed(entry.name)
        for i in range(4):
            fields, arrays = pg.generate_inputs(program, base + i)
            err = pg.check_parity(prog_ast, program, fields, arrays,
                                  seed=base % 1000 + i)
            assert err is None, f"{entry.name}: {err}"


#: Profiles whose addresses leave their array (an index that wraps,
#: or is a raw state value): the flat heap reads a neighbour or wraps
#: back in where the native backend's per-array lists fault, so native
#: is held to nothing there.
FLAT_HEAP_PROFILES = ("arith", "helpers")


def _assert_profile_agrees(profile, seed):
    source = pg.generate_program(seed, profile=profile)
    prog_ast = pg.lower_source(source)
    program = compile_ast(prog_ast)
    for i in range(INPUTS_PER_PROGRAM):
        fields, arrays = pg.generate_inputs(program, seed * 31 + i)
        err = pg.check_parity(prog_ast, program, fields, arrays,
                              native=profile not in FLAT_HEAP_PROFILES)
        if err is not None:
            path = _persist_failure(source, fields, arrays,
                                    f"{profile}{seed}")
            pytest.fail(f"profile {profile} seed {seed}: {err}\n"
                        f"minimized reproducer saved to {path}")


class TestFuzzedPrograms:
    """Seeded random programs through every backend."""

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_backends_agree(self, seed):
        source = pg.generate_program(seed)
        prog_ast = pg.lower_source(source)
        program = compile_ast(prog_ast)
        for i in range(INPUTS_PER_PROGRAM):
            fields, arrays = pg.generate_inputs(program,
                                                seed * 31 + i)
            err = pg.check_parity(prog_ast, program, fields, arrays)
            if err is not None:
                path = _persist_failure(source, fields, arrays, seed)
                pytest.fail(
                    f"seed {seed}: {err}\n"
                    f"minimized reproducer saved to {path}")

    @pytest.mark.parametrize("profile", pg.PROFILES[1:])
    @pytest.mark.parametrize("seed", PROFILE_SEEDS)
    def test_profiled_backends_agree(self, profile, seed):
        """Loop-heavy, array-heavy, edge-arithmetic and helper-calling
        sweeps of the same property."""
        _assert_profile_agrees(profile, seed)

    @pytest.mark.parametrize("profile", ("arith", "helpers"))
    def test_profiled_backends_agree_at_depth(self, request, profile):
        """The two profiles aimed at the generated code's wraps and
        heap tests, on ten times the seeds."""
        _at_depth(request)
        for seed in range(len(PROFILE_SEEDS), 10 * len(PROFILE_SEEDS)):
            _assert_profile_agrees(profile, seed)

    def test_edge_profiles_exercise_both_outcomes(self):
        """The arith and helpers sweeps see runs that finish and runs
        that fault (a heap read out of bounds, a shift amount, a
        division by zero)."""
        for profile in ("arith", "helpers"):
            outcomes = set()
            for seed in range(20):
                program = compile_ast(pg.lower_source(
                    pg.generate_program(seed, profile=profile)))
                for i in range(INPUTS_PER_PROGRAM):
                    fields, arrays = pg.generate_inputs(program,
                                                        seed * 31 + i)
                    fvec, avec = pg.vectors(program, fields, arrays)
                    outcomes.add(
                        pg.run_interp(program, fvec, avec, "tree")[0])
            assert outcomes == {"ok", "fault"}, profile

    def test_fuzz_exercises_both_outcomes(self):
        """The net catches faults, not just happy paths."""
        outcomes = set()
        for seed in range(40):
            source = pg.generate_program(seed)
            prog_ast = pg.lower_source(source)
            program = compile_ast(prog_ast)
            fields, arrays = pg.generate_inputs(program, seed * 31)
            fvec, avec = pg.vectors(program, fields, arrays)
            outcomes.add(
                pg.run_interp(program, fvec, avec, "tree")[0])
            if outcomes == {"ok", "fault"}:
                return
        assert outcomes == {"ok", "fault"}


#: Calls past the compiling one that the boundary tests keep running.
HOT_CALLS = 4

RAND_SOURCE = (
    "def f(packet, msg, _global):\n"
    "    msg.counter = msg.counter + rand(1000)\n"
    "    packet.priority = rand(8)\n"
)


def _is_hot(program):
    return isinstance(getattr(program, "_pycodegen", None),
                      pycodegen.CompiledProgram)


def _run_calls(program, fvec, avec, calls, dispatch="pycodegen"):
    """``calls`` back-to-back executions on ONE interpreter: the
    per-call summaries plus the RNG state left behind.  The tree walk
    runs under the harness's op budget; the default dispatch runs
    none, so it runs generated code (callers run the tree walk of the
    same input first)."""
    rng = random.Random(3)
    budget = pg.OP_BUDGET if dispatch == "tree" else None
    with pg.tree_walks() as walks:
        out = pg.run_interp_seq(program, [(fvec, avec)] * calls,
                                dispatch, rng=rng, op_budget=budget)
    if dispatch != "tree" and pg.stack_fits(program):
        assert walks == [0], "generated code should run every call"
    return out, rng.getstate()


def _cold_copy(program):
    """An equal program that has never run, so never compiled: the
    compiled code lives in a slot on the ``Program`` instance."""
    return dataclasses.replace(program)


def _assert_boundary_invisible(program, fvec, avec, label):
    """Default interpreter == tree on the call that compiles the
    program and on every call after — and it compiles exactly then,
    once."""
    calls = 1 + HOT_CALLS
    program = _cold_copy(program)
    want, want_rng = _run_calls(program, fvec, avec, calls,
                                dispatch="tree")
    assert not any(map(pg.stopped, want)), label
    assert not _is_hot(program), "tree runs must not compile"
    compiled_before = pycodegen.stats()["programs_compiled"]
    first, _ = _run_calls(program, fvec, avec, 1)
    assert _is_hot(program), f"{label}: not compiled by its first call"
    assert pycodegen.stats()["programs_compiled"] == compiled_before + 1
    assert first == want[:1], label
    program = _cold_copy(program)
    got, got_rng = _run_calls(program, fvec, avec, calls)
    assert pycodegen.stats()["programs_compiled"] == compiled_before + 2
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{label}: call {i + 1} of {calls} diverges"
    assert got_rng == want_rng, f"{label}: RNG streams diverge"


class TestTierBoundary:
    """The first call compiles the program, and changes nothing."""

    def test_default_interpreter_is_the_tiered_backend(self):
        assert Interpreter().dispatch == "pycodegen"

    @pytest.mark.parametrize(
        "entry", _library_entries(), ids=lambda e: e.name)
    def test_library_demo_across_boundary(self, entry):
        _, program = _compile_demo(entry.demo)
        base = _stable_seed(entry.name)
        for i in range(2):
            fields, arrays = pg.generate_inputs(program, base + i)
            fvec, avec = pg.vectors(program, fields, arrays)
            _assert_boundary_invisible(program, fvec, avec, entry.name)

    @pytest.mark.parametrize("profile", pg.PROFILES)
    @pytest.mark.parametrize("seed", range(20))
    def test_fuzz_program_across_boundary(self, profile, seed):
        program = compile_ast(pg.lower_source(
            pg.generate_program(seed, profile=profile)))
        fields, arrays = pg.generate_inputs(program, seed * 31)
        fvec, avec = pg.vectors(program, fields, arrays)
        _assert_boundary_invisible(program, fvec, avec,
                                   f"{profile}{seed}")

    def test_rng_stream_threads_through_the_switch(self):
        program = compile_ast(pg.lower_source(RAND_SOURCE))
        fvec, avec = pg.vectors(program, {}, {})
        _assert_boundary_invisible(program, fvec, avec, "rand")
        got, _ = _run_calls(program, fvec, avec, 3)
        assert len({g[2][1] for g in got}) > 1, \
            "rand() should actually vary the result"

    def test_fault_on_the_compiling_call_is_an_interpreter_fault(self):
        """The call that triggers compilation of a faulting program
        raises the same InterpreterFault as every call around it."""
        path = os.path.join(CORPUS_DIR, "fault_div_and_shift.py")
        with open(path) as fh:
            program = compile_ast(pg.lower_source(fh.read()))
        fields = {("packet", "size"): 3, ("message", "counter"): 1,
                  ("message", "limit"): 5, ("global", "knob"): 0}
        fvec, avec = pg.vectors(program, fields, {})
        want, _ = _run_calls(program, fvec, avec, 1 + HOT_CALLS,
                             dispatch="tree")
        got, _ = _run_calls(program, fvec, avec, 1 + HOT_CALLS)
        assert _is_hot(program)
        assert got == want
        assert set(got) == {("fault", "InterpreterFault",
                             "division by zero")}

    @pytest.mark.batch
    @pytest.mark.parametrize("seed", range(12))
    def test_execute_batch_crossing_mid_batch_equals_scalar(self, seed):
        program = compile_ast(pg.lower_source(
            pg.generate_program(seed, profile="arrays")))
        snapshots = []
        for i in range(1 + HOT_CALLS):
            fields, arrays = pg.generate_inputs(program,
                                                seed * 31 + i)
            snapshots.append(pg.vectors(program, fields, arrays))
        want = pg.run_interp_seq(program, snapshots, "tree")
        assert not any(map(pg.stopped, want))
        batched = _cold_copy(program)
        with pg.tree_walks() as walks:
            batch = pg.run_interp_batch(batched, snapshots, "pycodegen",
                                        op_budget=None)
            scalar = pg.run_interp_seq(_cold_copy(program), snapshots,
                                       "pycodegen", op_budget=None)
        assert _is_hot(batched)
        assert walks == [0]
        assert batch == scalar == want

    def test_many_programs_round_robin_each_compile_once(self):
        """Compiled code is never taken away from a live program: 260
        programs run round robin on one interpreter, each compiles
        exactly once and every one ends hot."""
        programs, inputs = [], []
        seed = 0
        while len(programs) < 260:
            program = compile_ast(pg.lower_source(
                pg.generate_program(seed)))
            if facts(program).violation is None:
                fields, arrays = pg.generate_inputs(program, seed)
                programs.append(program)
                inputs.append(pg.vectors(program, fields, arrays))
            seed += 1
        interp = Interpreter()
        compiled = pycodegen.stats()["programs_compiled"]
        for _ in range(2):
            for program, (fvec, avec) in zip(programs, inputs):
                try:
                    interp.execute(program, fvec, avec)
                except InterpreterFault:
                    pass
        assert pycodegen.stats()["programs_compiled"] == compiled + 260
        assert all(_is_hot(program) for program in programs)

    @pytest.mark.parametrize("build,reason", REJECTED_PROGRAMS)
    def test_unverifiable_program_stays_on_the_tree_walk(self, build,
                                                         reason):
        """Rejected => never compiled: pycodegen compiles exactly what
        the verifier accepts.  A program of every violation class
        ``verify`` reports (the stack-depth *limit* is a property of
        the enclave, not of the bytecode, so it is not one) runs on
        the tree walk however often it runs, and the default
        interpreter matches the tree walk on every call — ExecStats,
        fault reason, and even the Python error some of these
        programs raise out of the tree walk."""
        program = build()
        with pytest.raises(VerificationError, match=reason):
            verify(program)
        compiled = pycodegen.stats()["programs_compiled"]
        calls = 8
        for size in (0, 1):
            vectors = ([0, size], [[3]])
            assert _run_any(program, *vectors, calls, "pycodegen") == \
                _run_any(program, *vectors, calls, "tree")
        assert pycodegen.code_for(program) is None
        assert pycodegen.stats()["programs_compiled"] == compiled


def _run_any(program, fvec, avec, calls, dispatch):
    """``calls`` executions on one interpreter, summarised like
    ``program_gen.run_interp_seq`` — but rejected bytecode may also
    raise a plain Python error out of the tree walk, so that is
    summarised too rather than allowed to end the run."""
    interp = Interpreter(dispatch=dispatch, rng=random.Random(3),
                         op_budget=pg.OP_BUDGET)
    out = []
    for _ in range(calls):
        try:
            out.append(pg.summary(interp.execute(program, list(fvec),
                                                 list(avec))))
        except InterpreterFault as fault:
            out.append(pg.summary(fault))
        except TypeError as error:
            out.append(("error", type(error).__name__, str(error)))
    return out


#: Seeds per generator profile of the mutated-bytecode fuzz, and point
#: mutations tried per program.
MUTANT_SEEDS = range(40)
MUTATIONS_PER_PROGRAM = 5


class TestMutatedBytecode:
    """The verifier is the trust boundary for hand-assembled bytecode.

    One seeded point mutation (op, argument or jump target) of a
    ``program_gen`` program: ``verify`` accepts it or raises
    ``VerificationError`` and nothing else; an accepted mutant
    compiles, and the tree walk and hot generated code agree on it
    exactly as ``check_parity`` compares them, raising nothing but
    ``InterpreterFault``."""

    @pytest.mark.parametrize("profile", pg.PROFILES)
    @pytest.mark.parametrize("seed", MUTANT_SEEDS)
    def test_mutant_is_rejected_or_runs_alike(self, profile, seed):
        program = compile_ast(pg.lower_source(
            pg.generate_program(seed, profile=profile)))
        fields, arrays = pg.generate_inputs(program, seed * 31)
        for k in range(MUTATIONS_PER_PROGRAM):
            mutant = pg.mutate(program, seed * 1009 + k)
            try:
                verify(mutant)
            except VerificationError:
                continue
            label = f"{profile}{seed} mutation {k}"
            assert pycodegen.code_for(mutant) is not None, label
            err = pg.check_parity(None, mutant, fields, arrays,
                                  native=False)
            assert err is None, f"{label}: {err}"

    def test_mutants_exercise_both_verdicts_and_outcomes(self):
        """The sweep above is not vacuous: mutants are accepted and
        rejected, and accepted ones both run and fault."""
        verdicts, outcomes = set(), set()
        for seed in range(10):
            program = compile_ast(pg.lower_source(
                pg.generate_program(seed)))
            fields, arrays = pg.generate_inputs(program, seed * 31)
            for k in range(MUTATIONS_PER_PROGRAM):
                mutant = pg.mutate(program, seed * 1009 + k)
                try:
                    verify(mutant)
                except VerificationError:
                    verdicts.add("rejected")
                    continue
                verdicts.add("accepted")
                fvec, avec = pg.vectors(mutant, fields, arrays)
                outcomes.add(pg.run_interp(mutant, fvec, avec,
                                           "tree")[0])
        assert verdicts == {"accepted", "rejected"}
        assert outcomes == {"ok", "fault"}

    def test_empty_short_circuit_arm_compiles(self):
        """Found by the sweep above: a verified program whose generated
        source did not compile.  A conditional jump inside an if-part
        that escapes to the join of an if without an else — ``JZ 5``
        at pc 3, the if-part ending in ``JMP 5`` — has an empty block
        to copy onto its taken arm, and the tier-up raised
        ``IndentationError`` out of ``execute``.  (The DSL compiler
        never emits a jump to the next instruction, so this reproducer
        is bytecode, not a corpus program.)"""
        asm = Assembler("f", n_args=0)
        asm.emit(Op.GETF, 0)
        asm.emit(Op.JZ, 5)
        asm.emit(Op.GETF, 0)
        asm.emit(Op.JZ, 5)
        asm.emit(Op.JMP, 5)
        asm.emit(Op.CONST, 0)
        asm.emit(Op.RET)
        program = Program(
            name="empty_escape", functions=(asm.finish(n_locals=0),),
            field_table=(FieldRef("packet", "size", False),),
            array_table=())
        verify(program)
        for size in (0, 1):
            _assert_boundary_invisible(program, [size], [],
                                       f"empty_escape size={size}")


#: A non-tail recursive action: one frame per level, so ``packet.size``
#: of 63 or more runs into the default call-depth limit of 64.
RECURSIVE_SOURCE = (
    "def f(packet, msg, _global):\n"
    "    def depth(n):\n"
    "        if n <= 0:\n"
    "            return msg.limit\n"
    "        return 1 + depth(n - 1)\n"
    "    msg.counter = depth(packet.size % 80)\n"
)


class TestRecursion:
    """A cyclic call graph proves no stack or call-chain bound, but no
    frame of it holds more than ``bounds.frame`` words: where that
    times the call-depth limit fits the stack limit and no op budget
    is set, the generated code runs it, its CALLs testing the call
    depth, and agrees with the tree walk to the fault's pc."""

    def _program(self):
        program = compile_ast(pg.lower_source(RECURSIVE_SOURCE))
        bounds = facts(program).bounds
        assert (bounds.stack, bounds.calls) == (None, None)
        assert bounds.frame == 3
        return program

    def _runs(self, program, size, **limits):
        fvec, avec = pg.vectors(program, {("packet", "size"): size,
                                          ("message", "limit"): 3}, {})
        runs = []
        for dispatch in ("tree", "pycodegen"):
            interp = Interpreter(dispatch=dispatch, **limits)
            with pg.tree_walks() as walks:
                try:
                    runs.append(pg.summary(interp.execute(
                        program, fvec, avec)))
                except InterpreterFault as fault:
                    runs.append(pg.summary(fault) + (fault.pc,))
        return runs, walks[0]

    @pytest.mark.parametrize("size", (0, 1, 5, 40, 62, 63, 79))
    def test_generated_code_runs_within_the_call_depth(self, size):
        program = self._program()
        (tree, generated), walks = self._runs(program, size)
        assert generated == tree
        assert walks == 0
        if size < 63:
            assert tree[0] == "ok" and tree[2][1] == 3 + size
            assert tree[4][2] == size + 2  # frames: the entry, then depth
        else:
            assert tree[2] == "call depth exceeds 64"

    def test_a_lowered_call_depth_faults_in_generated_code(self):
        """A smaller limit only shrinks the frame bound: the CALL that
        passes the limit faults in generated code, at the tree walk's
        pc."""
        program = self._program()
        (tree, generated), walks = self._runs(program, 10,
                                              max_call_depth=5)
        assert generated == tree
        assert walks == 0
        assert tree[2] == "call depth exceeds 5"

    def test_limits_the_frame_bound_does_not_fit_hand_off(self):
        """A stack limit below ``frame`` times the call-depth limit, or
        any op budget, sends the run to the tree walk."""
        program = self._program()
        for limits in ({"max_operand_stack": 3 * 64 - 1},
                       {"op_budget": pg.OP_BUDGET}):
            (tree, generated), walks = self._runs(program, 10, **limits)
            assert generated == tree
            assert walks == 1, limits

    def test_parity_across_inputs(self):
        prog_ast = pg.lower_source(RECURSIVE_SOURCE)
        program = compile_ast(prog_ast)
        for size in range(0, 80, 3):
            err = pg.check_parity(prog_ast, program,
                                  {("packet", "size"): size,
                                   ("message", "limit"): size}, {},
                                  native=size < 62)
            assert err is None, err


class _DiffPacket:
    """A packet exposing the default schema's fields: ``size``,
    ``priority`` and ``queue_id`` given, the flow of packet ``i`` one
    of four."""

    def __init__(self, i, size, priority, queue_id):
        self.size = size
        self.priority = priority
        self.queue_id = queue_id
        self.src_ip = 1
        self.src_port = 1000 + (i % 4)
        self.dst_ip = 2
        self.dst_port = 80
        self.proto = 6


def _seeded_inputs(rng, n):
    """``n`` packets' ``(size, priority, queue_id)`` drawn from
    ``rng``."""
    return [(rng.randint(0, 4000), rng.randint(0, 7), rng.randint(0, 3))
            for _ in range(n)]


def _packets(inputs):
    return [_DiffPacket(i, *fields) for i, fields in enumerate(inputs)]


#: ``(lo, hi)`` rows of the ``records`` array the helpers profile
#: searches: ``hi`` grows, as PIAS' size limits do.
RECORDS = [(7 - i, 300 * i - 600) for i in range(8)]


def _batch_enclave_for(source, seed, backend="interpreter"):
    """An enclave running ``source`` — action source, or a compiled
    action, which carries the schemas — as ``f`` on every packet."""
    enclave = Enclave("diff", rng=random.Random(seed))
    schemas = {} if isinstance(source, CompiledAction) else dict(
        message_schema=MSG_SCHEMA, global_schema=GLB_SCHEMA)
    enclave.install_function(source, name="f", backend=backend, **schemas)
    enclave.set_global_array("f", "weights", list(range(1, 9)))
    enclave.set_global_array("f", "scratch", [0] * 8)
    enclave.set_global_records("f", "records", RECORDS)
    enclave.install_rule("*", "f")
    return enclave


def _left_behind(enclave, packets):
    """Everything a run leaves behind that an equivalent run must
    leave too: packet attributes, counters, RNG state and, per
    function, stats, global snapshot and message entries."""
    state = {"packets": [dict(p.__dict__) for p in packets],
             "processed": enclave.packets_processed,
             "dropped": enclave.packets_dropped,
             "rng": enclave.rng.getstate()}
    for name in enclave.functions():
        fn = enclave.function(name)
        entries = (fn.message_store._entries
                   if fn.message_store is not None else {})
        state[name] = (
            fn.stats,
            fn.global_store is not None and fn.global_store.snapshot(),
            {key: (dict(e.values), e.packets, e.created_at,
                   e.last_used_at) for key, e in entries.items()})
    return state


def _count_executes(fn):
    """Wrap ``fn.execute`` the way ``bench/tracing.py`` does; the
    returned list holds the number of calls.  Only the generic tier of
    ``run_packet`` goes through it, so it tells the tiers apart."""
    calls = [0]
    inner = fn.execute

    def counted(fields, arrays):
        calls[0] += 1
        return inner(fields, arrays)

    fn.execute = counted
    return calls


@pytest.mark.batch
class TestEnclaveBatchDifferential:
    """``process_batch`` == sequential ``process_packet`` over the
    fuzz corpus — per-packet results, packet writes, function stats,
    and the message/global state left behind — and, through either
    entry point, the default enclave (the generated per-packet plan
    from the first packet) == a ``backend="tree"`` enclave (the
    generic tier of ``run_packet`` throughout)."""

    #: Packets per run.
    N_PACKETS = 24

    def _packets(self, seed):
        return _packets(_seeded_inputs(random.Random(seed * 7 + 1),
                                       self.N_PACKETS))

    def _classifications(self, i):
        if i % 3 == 2:
            return ()   # flow-granularity fallback path
        return [Classification(class_name=f"app.r1.c{i % 2}",
                               metadata={"msg_id": ("app", i % 2)})]

    def _run(self, enclave, packets, use_batch):
        cls_list = [self._classifications(i)
                    for i in range(len(packets))]
        if use_batch:
            return enclave.process_batch(
                list(zip(packets, cls_list)), now_ns=5)
        return [enclave.process_packet(p, cls_list[i], now_ns=5 + i)
                for i, p in enumerate(packets)]

    @pytest.mark.parametrize("seed", range(24))
    def test_batch_equals_scalar(self, seed):
        source = pg.generate_program(seed)
        cls_list = [self._classifications(i)
                    for i in range(self.N_PACKETS)]

        scalar = _batch_enclave_for(source, seed)
        pkts_s = self._packets(seed)
        res_s = [scalar.process_packet(p, cls_list[i], now_ns=5)
                 for i, p in enumerate(pkts_s)]

        batch = _batch_enclave_for(source, seed)
        pkts_b = self._packets(seed)
        res_b = self._run(batch, pkts_b, use_batch=True)

        assert res_b == res_s
        assert _left_behind(batch, pkts_b) == \
            _left_behind(scalar, pkts_s)

    def test_batch_matches_scalar_on_corpus_reproducers(self):
        """Past backend divergences are exactly the programs most
        likely to trip the batch entry point too — replay them through
        the enclave pairing as well."""
        paths = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.py")))
        assert paths, "corpus should not be empty"
        for path in paths:
            with open(path) as fh:
                source = fh.read()
            seed = _stable_seed(os.path.basename(path)) % 1000
            cls_list = [self._classifications(i)
                        for i in range(self.N_PACKETS)]
            scalar = _batch_enclave_for(source, seed)
            pkts_s = self._packets(seed)
            res_s = [scalar.process_packet(p, cls_list[i], now_ns=5)
                     for i, p in enumerate(pkts_s)]
            batch = _batch_enclave_for(source, seed)
            pkts_b = self._packets(seed)
            res_b = self._run(batch, pkts_b, use_batch=True)
            assert res_b == res_s, path
            assert _left_behind(batch, pkts_b) == \
                _left_behind(scalar, pkts_s), path

    def _assert_plan_equals_tree(self, source, seed, label):
        """Default enclave vs ``backend="tree"`` enclave on the same
        packets; odd seeds go through ``process_batch``.  Returns the
        faults seen."""
        tree = _batch_enclave_for(source, seed, backend="tree")
        pkts_t = self._packets(seed)
        res_t = self._run(tree, pkts_t, use_batch=seed % 2)

        hot = _batch_enclave_for(source, seed)
        executes = _count_executes(hot.function("f"))
        pkts_h = self._packets(seed)
        res_h = self._run(hot, pkts_h, use_batch=seed % 2)

        # The plan ran every packet.
        assert executes[0] == 0, label
        assert res_h == res_t, label
        assert _left_behind(hot, pkts_h) == _left_behind(tree, pkts_t), \
            label
        return sum(r.faults for r in res_h)

    @pytest.mark.parametrize("profile,seed", [
        (profile, seed) for profile in pg.PROFILES
        for seed in (FUZZ_SEEDS if profile == "default"
                     else PROFILE_SEEDS)])
    def test_plan_equals_generic_tier(self, profile, seed):
        self._assert_plan_equals_tree(
            pg.generate_program(seed, profile=profile), seed,
            f"{profile}{seed}")

    @pytest.mark.parametrize("profile", ("arith", "helpers"))
    def test_plan_equals_generic_tier_at_depth(self, request, profile):
        _at_depth(request)
        for seed in range(len(PROFILE_SEEDS), 10 * len(PROFILE_SEEDS)):
            self._assert_plan_equals_tree(
                pg.generate_program(seed, profile=profile), seed,
                f"{profile}{seed}")

    @pytest.mark.parametrize("seed", range(24))
    def test_plan_equals_generic_tier_with_a_callee_halt(self, seed):
        """A helper that HALTs ends the packet inside the callee: the
        plan writes back what the generic tier does."""
        action = _action("helpers", seed, None)
        program = pg.halt_in_helper(action.program, seed)
        self._assert_plan_equals_tree(
            dataclasses.replace(action, program=program, prog_ast=None),
            seed, f"helpers{seed} halting")

    @pytest.mark.parametrize("seed", (0, 1))
    def test_plan_runs_a_recursive_action(self, seed):
        """A recursive program gets a plan too, which runs every packet
        at default limits; deep packets fault on the call depth."""
        faults = self._assert_plan_equals_tree(RECURSIVE_SOURCE, seed,
                                               f"recursive{seed}")
        assert faults

    def test_plan_fuzz_sees_faults_in_both_tiers(self):
        """The sweep above compares faulting invocations too: some of
        its programs fault on the first packet, which builds the plan,
        and some on later ones."""
        first = later = 0
        for seed in range(40):
            enclave = _batch_enclave_for(pg.generate_program(seed), seed)
            results = self._run(enclave, self._packets(seed), False)
            first += results[0].faults
            later += sum(r.faults for r in results[1:])
        assert first and later

    def test_plan_equals_generic_tier_on_corpus_reproducers(self):
        paths = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.py")))
        assert paths, "corpus should not be empty"
        for path in paths:
            with open(path) as fh:
                source = fh.read()
            self._assert_plan_equals_tree(
                source, _stable_seed(os.path.basename(path)) % 1000,
                path)

    @pytest.mark.parametrize(
        "entry", _library_entries(), ids=lambda e: e.name)
    def test_plan_equals_generic_tier_on_library_demo(self, entry):
        """Every Table 1 demo — binders, keyed arrays, record arrays,
        ``rand()`` — with its own schemas and seeded state."""
        spec = entry.demo
        name = spec.function_name
        metadata = dict(spec.metadata)
        metadata.setdefault("msg_id", ("demo", 1))
        cls = [Classification("demo.r1.msg", metadata)]
        demo_packets = list(spec.packets) or [{}]

        def run(backend, use_batch):
            enclave = Enclave("diff", rng=random.Random(7))
            fn = enclave.install_function(
                spec.action, name=name,
                message_schema=spec.message_schema,
                global_schema=spec.global_schema, backend=backend)
            for field_name, value in spec.global_scalars.items():
                enclave.set_global(name, field_name, value)
            for field_name, values in spec.global_arrays.items():
                enclave.set_global_array(name, field_name,
                                         list(values))
            for field_name, keyed in spec.global_keyed.items():
                for key, values in keyed.items():
                    enclave.set_global_keyed(name, field_name, key,
                                             list(values))
            enclave.install_rule("*", name)
            executes = _count_executes(fn)
            packets = []
            for i in range(self.N_PACKETS):
                overrides = demo_packets[i % len(demo_packets)]
                packets.append(DemoPacket(**{
                    "src_port": 1111 + i % 3, "size": 64 + 97 * i,
                    **overrides}))
            if use_batch:
                results = enclave.process_batch(
                    [(p, cls) for p in packets], now_ns=3)
            else:
                results = [enclave.process_packet(p, cls, now_ns=3 + i)
                           for i, p in enumerate(packets)]
            return results, _left_behind(enclave, packets), executes[0]

        for use_batch in (False, True):
            *want, generic_calls = run("tree", use_batch)
            *got, hot_calls = run("interpreter", use_batch)
            assert got == want, entry.name
            assert generic_calls == self.N_PACKETS
            assert hot_calls == 0


def _persist_failure(source, fields, arrays, seed):
    """Minimize a failing program against its inputs and save it."""

    def still_fails(candidate):
        try:
            past = pg.lower_source(candidate)
            prog = compile_ast(past)
        except Exception:
            return False
        return pg.check_parity(past, prog, fields, arrays) is not None

    minimized = pg.minimize(source, still_fails)
    os.makedirs(CORPUS_DIR, exist_ok=True)
    path = os.path.join(CORPUS_DIR, f"failing_seed{seed}.py")
    with open(path, "w") as fh:
        fh.write(minimized)
    return path


class TestCorpus:
    """Replay persisted (minimized) reproducers on every CI run."""

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(CORPUS_DIR, "*.py"))),
        ids=os.path.basename)
    def test_corpus_program_parity(self, path):
        with open(path) as fh:
            source = fh.read()
        prog_ast = pg.lower_source(source)
        program = compile_ast(prog_ast)
        base = _stable_seed(os.path.basename(path))
        for i in range(6):
            fields, arrays = pg.generate_inputs(program, base + i)
            err = pg.check_parity(prog_ast, program, fields, arrays)
            assert err is None, f"{path}: {err}"

    def test_corpus_fault_program_faults_identically(self):
        """A deterministic fault: division by zero when knob is even."""
        path = os.path.join(CORPUS_DIR, "fault_div_and_shift.py")
        with open(path) as fh:
            source = fh.read()
        prog_ast = pg.lower_source(source)
        program = compile_ast(prog_ast)
        fields = {("packet", "size"): 3, ("message", "counter"): 1,
                  ("message", "limit"): 5, ("global", "knob"): 0}
        fvec, avec = pg.vectors(program, fields, {})
        tree, hot, walks = pg.run_generated(program, fvec, avec)
        assert pycodegen.code_for(program) is not None
        assert walks == 0
        assert tree[0] == "fault"
        assert tree == hot
        assert tree[1] == "InterpreterFault"
        assert "division by zero" in tree[2]
        nat = pg.run_native(prog_ast, program, fvec, avec)
        assert nat[0] == "fault"


# -- resource bounds ----------------------------------------------------

#: Hypothesis examples per property in tier-1; ``-m differential``
#: runs ten times as many.
PROPERTY_EXAMPLES = 30


def _at_depth(request):
    if "differential" not in request.config.getoption("markexpr"):
        pytest.skip("ten times the examples: run with -m differential")


def _within_bounds(program, fvec, avec, label):
    """Every run of ``program`` on one input, on the tree walk and in
    generated code, stays within its :class:`Bounds`: an ok run's
    ``ExecStats``, and — with the stack limit at the bound — no run
    faults on the stack limit."""
    bounds = facts(program).bounds
    stack_bound = bounds.stack
    if bounds.calls is None:
        stack_bound = bounds.frame * Interpreter().max_call_depth
    for dispatch in ("tree", "pycodegen"):
        res = pg.run_interp(program, fvec, avec, dispatch,
                            op_budget=None)
        if res[0] == "ok":
            assert res[4][1] <= stack_bound, (label, dispatch, res)
        res = pg.run_interp(program, fvec, avec, dispatch,
                            max_operand_stack=stack_bound, op_budget=None)
        assert res[0] == "ok" or not res[2].startswith("operand stack"), \
            (label, dispatch, res)


def check_bounds(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(profile=st.sampled_from(pg.PROFILES),
           seed=st.integers(0, 1 << 20), inputs=st.integers(0, 1 << 20))
    def prop(profile, seed, inputs):
        program = compile_ast(pg.lower_source(
            pg.generate_program(seed, profile=profile)))
        fields, arrays = pg.generate_inputs(program, inputs)
        _within_bounds(program, *pg.vectors(program, fields, arrays),
                       f"{profile}{seed}")

    prop()


class TestBounds:
    """Soundness of ``facts(program).bounds``: no run, ok or faulting,
    of any ``program_gen`` program, Table-1 demo or corpus reproducer
    uses more stack words than its bound, in generated code or on the
    tree walk."""

    def test_fuzz_programs_stay_within_their_bounds(self):
        check_bounds(PROPERTY_EXAMPLES)

    def test_fuzz_programs_stay_within_their_bounds_at_depth(
            self, request):
        _at_depth(request)
        check_bounds(10 * PROPERTY_EXAMPLES)

    def test_recursive_action_stays_within_its_frame_bound(self):
        """Over a cyclic call graph the stack bound is ``frame`` times
        the call-depth limit."""
        program = compile_ast(pg.lower_source(RECURSIVE_SOURCE))
        for size in (0, 7, 62, 63):
            _within_bounds(program, *pg.vectors(
                program, {("packet", "size"): size}, {}),
                f"recursive size={size}")

    @pytest.mark.parametrize(
        "entry", _library_entries(), ids=lambda e: e.name)
    def test_library_demo_stays_within_its_bounds(self, entry):
        _, program = _compile_demo(entry.demo)
        base = _stable_seed(entry.name)
        for i in range(4):
            fields, arrays = pg.generate_inputs(program, base + i)
            _within_bounds(program, *pg.vectors(program, fields, arrays),
                           entry.name)

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(CORPUS_DIR, "*.py"))),
        ids=os.path.basename)
    def test_corpus_program_stays_within_its_bounds(self, path):
        with open(path) as fh:
            program = compile_ast(pg.lower_source(fh.read()))
        base = _stable_seed(os.path.basename(path))
        for i in range(6):
            fields, arrays = pg.generate_inputs(program, base + i)
            _within_bounds(program, *pg.vectors(program, fields, arrays),
                           path)


# -- per-slot effects ---------------------------------------------------

#: Inputs per drawn program of the effects property: paths differ in
#: what they write.
EFFECT_INPUTS = 6
#: What a slot outside ``Effects.loads`` may hold instead of its value.
GARBAGE = st.lists(st.integers(-(1 << 63), (1 << 63) - 1),
                   min_size=8, max_size=8)


def _effect_outcome(program, fvec, avec, seed):
    """What a tree walk of one input leaves that the effects speak
    for: the value, the may-write slots, arrays and ``ExecStats`` — or
    the fault's reason and pc."""
    interp = Interpreter(dispatch="tree", rng=random.Random(seed),
                         op_budget=pg.OP_BUDGET)
    try:
        res = interp.execute(program, list(fvec), [list(a) for a in avec])
    except InterpreterFault as fault:
        return ("fault", fault.reason, fault.pc)
    return ("ok", res.value,
            [res.fields[i] for i in facts(program).effects.written],
            res.arrays, res.stats)


def _unloaded(program):
    loads = facts(program).effects.loads
    return [i for i in range(len(program.field_table)) if i not in loads]


def _assert_effects_hold(program, inputs, garbage, seed):
    unloaded = _unloaded(program)
    for k in range(EFFECT_INPUTS):
        fields, arrays = pg.generate_inputs(program, inputs * 31 + k)
        fvec, avec = pg.vectors(program, fields, arrays)
        junk = list(fvec)
        for i in unloaded:
            junk[i] = garbage[(i + k) % len(garbage)]
        assert _effect_outcome(program, junk, avec, seed) == \
            _effect_outcome(program, fvec, avec, seed), k


def check_effects(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(profile=st.sampled_from(pg.PROFILES),
           seed=st.integers(0, 1 << 20),
           mutation=st.one_of(st.none(), st.integers(0, 1 << 20)),
           halt=st.one_of(st.none(), st.integers(0, 1 << 20)),
           inputs=st.integers(0, 1 << 20), garbage=GARBAGE)
    def prop(profile, seed, mutation, halt, inputs, garbage):
        program = _action(profile, seed, mutation).program
        if halt is not None:
            program = pg.halt_in_helper(program, halt) or program
        _assert_effects_hold(program, inputs, garbage, seed)

    prop()


class TestEffects:
    """Soundness of ``facts(program).effects``: a slot outside
    ``loads`` — never read before every exit has written it, or never
    read nor written — cannot change a run.  With such slots holding
    drawn garbage instead of their values, ``program_gen`` programs
    and point mutations of them the verifier accepts return the same
    value, leave the same may-write slots, arrays and ``ExecStats``,
    or fault with the same reason at the same pc.  Both enclave tiers
    read only ``loads``."""

    def test_unloaded_slots_cannot_change_a_run(self):
        check_effects(PROPERTY_EXAMPLES)

    def test_unloaded_slots_cannot_change_a_run_at_depth(self, request):
        _at_depth(request)
        check_effects(10 * PROPERTY_EXAMPLES)

    @pytest.mark.parametrize("seed", range(16))
    def test_a_helper_that_halts(self, seed):
        """A helper's RET turned into HALT (``halt_in_helper``): a slot
        the entry writes only after that call is not written on the
        halting path, so it must stay loaded."""
        program = pg.halt_in_helper(_action("helpers", seed, None).program,
                                    seed)
        _assert_effects_hold(program, seed, list(range(-4, 4)), seed)

    def test_halting_helpers_leave_slots_unloaded(self):
        """The sweep above is not vacuous: many of its programs leave a
        slot unloaded, which a halting path must not depend on."""
        unloaded = sum(bool(_unloaded(pg.halt_in_helper(
            _action("helpers", seed, None).program, seed)))
            for seed in range(16))
        assert unloaded >= 4, unloaded

    def test_the_property_is_not_vacuous(self):
        """Over a few seeds, many programs leave some slot unloaded,
        and some mutants do too."""
        plain = sum(bool(_unloaded(_action("default", seed, None).program))
                    for seed in range(40))
        mutants = sum(bool(_unloaded(_action("default", seed, seed)
                                     .program))
                      for seed in range(40))
        assert plain >= 8 and mutants >= 8, (plain, mutants)


# -- fault containment (Section 3.4.3) ----------------------------------

#: Packets per containment example.
CONTAINMENT_PACKETS = 12
#: Their ``(size, priority, queue_id)``, drawn so a failing example
#: shrinks to the packets that matter.
CONTAINMENT_INPUTS = st.lists(
    st.tuples(st.integers(0, 4000), st.integers(0, 7), st.integers(0, 3)),
    min_size=CONTAINMENT_PACKETS, max_size=CONTAINMENT_PACKETS)


def _accepted_mutant(program, seed):
    """The first of a few point mutations of ``program`` the verifier
    accepts, or None."""
    for k in range(MUTATIONS_PER_PROGRAM):
        mutant = pg.mutate(program, seed * 1009 + k)
        try:
            verify(mutant)
        except VerificationError:
            continue
        return mutant
    return None


def _summarize_execute(interp, program, fvec, avec):
    """``Interpreter.execute`` with a fault's pc in its summary; any
    exception but :class:`InterpreterFault` escapes."""
    try:
        return pg.summary(interp.execute(program, list(fvec),
                                         [list(a) for a in avec]))
    except InterpreterFault as fault:
        return pg.summary(fault) + (fault.pc,)


def _action(profile, seed, mutation):
    """The ``program_gen`` program of ``(profile, seed)`` as an action
    named ``f`` — with ``mutation``, the first point mutation drawn
    from it that the verifier accepts, if any."""
    action = compile_action(pg.generate_program(seed, profile=profile),
                            packet_schema=DEFAULT_PACKET_SCHEMA,
                            message_schema=MSG_SCHEMA,
                            global_schema=GLB_SCHEMA, name="f")
    if mutation is not None:
        mutant = _accepted_mutant(action.program, mutation)
        if mutant is not None:
            action = dataclasses.replace(action, program=mutant,
                                         prog_ast=None)
    return action


def _install_f(enclave, action, backend, **rule):
    """Install ``action`` as ``f`` with its arrays set, and a rule."""
    fn = enclave.install_function(action, name="f", backend=backend)
    enclave.set_global_array("f", "weights", list(range(1, 9)))
    enclave.set_global_array("f", "scratch", [0] * 8)
    enclave.set_global_records("f", "records", RECORDS)
    enclave.install_rule("*", "f", **rule)
    return fn


def _record_faults(fn):
    """Wrap ``fn.run_packet``: the enclave swallows a fault, this keeps
    its reason."""
    seen = []
    inner = fn.run_packet

    def run_packet(packet, msg_entry, acct=None):
        try:
            return inner(packet, msg_entry, acct)
        except InterpreterFault as fault:
            seen.append(fault.reason)
            raise

    fn.run_packet = run_packet
    return seen


def _state_of(fn):
    """What an invocation of ``fn`` may commit, beside packet fields."""
    store = fn.message_store
    return ({k: dict(e.values) for k, e in store._entries.items()}
            if store is not None else {},
            fn.global_store and fn.global_store.snapshot(),
            dataclasses.replace(fn.stats))


def _assert_untouched(fn, before):
    """A faulting invocation of ``fn`` committed nothing: message
    entries (a new one holds its defaults), globals, and stats but one
    more fault, as they were."""
    entries, globals_before, stats = before
    store = fn.message_store
    if store is not None:
        defaults = dict(MessageStore(fn.message_schema).lookup(
            "m", 0)[0].values)
        for key, entry in store._entries.items():
            assert entry.values == entries.get(key, defaults), key
    assert (fn.global_store and fn.global_store.snapshot()) == \
        globals_before
    stats = dataclasses.replace(stats, faults=stats.faults + 1)
    assert fn.stats == stats


def _stopped(reasons):
    """Whether the op budget stopped a run whose fault reasons
    :func:`_record_faults` keeps in ``reasons``."""
    return any(reason.startswith("op budget") for reason in reasons)


def _contained_run(enclave, fn, inputs, reasons=()):
    """The packets of ``inputs`` through ``process_packet``, which
    propagates nothing; a packet ``f`` faults leaves its fields and
    ``f``'s state as they were.  Returns the results and what the run
    left behind.  The run ends early at a packet the op budget stopped
    (``reasons``, :func:`_record_faults`'s list): the rest may loop as
    long."""
    packets = _packets(inputs)
    results = []
    for i, packet in enumerate(packets):
        before = dict(vars(packet)), _state_of(fn)
        result = enclave.process_packet(packet, (), now_ns=i)
        results.append(result)
        if result.faults:
            assert vars(packet) == before[0]
            _assert_untouched(fn, before[1])
        if _stopped(reasons):
            break
    return results, _left_behind(enclave, packets)


def check_containment(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(profile=st.sampled_from(pg.PROFILES),
           seed=st.integers(0, 1 << 20),
           mutation=st.one_of(st.none(), st.integers(0, 1 << 20)),
           limit=st.sampled_from(("default", "op_budget",
                                  "max_operand_stack")),
           inputs=CONTAINMENT_INPUTS)
    def prop(profile, seed, mutation, limit, inputs):
        action = _action(profile, seed, mutation)
        program = action.program
        fits = pg.stack_fits(program)
        # Nothing but InterpreterFault leaves ``execute``, and generated
        # code, with no op budget, equals the tree walk under the
        # harness's, pc included, on every input the tree walk finished.
        tree = Interpreter(dispatch="tree", rng=random.Random(seed),
                           op_budget=pg.OP_BUDGET)
        hot = Interpreter(rng=random.Random(seed))
        for i in range(INPUTS_PER_PROGRAM):
            fields, arrays = pg.generate_inputs(program, seed * 31 + i)
            fvec, avec = pg.vectors(program, fields, arrays)
            want = _summarize_execute(tree, program, fvec, avec)
            if pg.stopped(want):
                break
            with pg.tree_walks() as walks:
                got = _summarize_execute(hot, program, fvec, avec)
            assert got == want, (profile, seed, mutation, i)
            assert walks == [0] or not fits, (profile, seed, mutation, i)
        # ``process_packet`` propagates nothing, and a faulting
        # invocation commits nothing.  The tree walk runs the packets
        # first, under the harness's budget.  When the budget stopped
        # one, which may loop forever, that run is the only one.
        # Otherwise the default enclave runs them: at default limits on
        # the plan, leaving what the tree walk left, and under a lowered
        # limit on the tree walk the plan hands them.
        twin = Enclave("contain", rng=random.Random(seed))
        twin.interpreter.op_budget = pg.OP_BUDGET
        twin_fn = _install_f(twin, action, "tree")
        reasons = _record_faults(twin_fn)
        results, left = _contained_run(twin, twin_fn, inputs, reasons)
        if _stopped(reasons):
            return
        enclave = Enclave("contain", rng=random.Random(seed))
        fn = _install_f(enclave, action, "interpreter")
        stack = facts(program).bounds.stack
        if limit == "op_budget":
            longest = max(r.interpreter_ops for r in results)
            enclave.interpreter.op_budget = max(longest - 1, 1)
        elif limit == "max_operand_stack" and stack is not None:
            enclave.interpreter.max_operand_stack = stack - 1
        else:
            executes = _count_executes(fn)
            assert _contained_run(enclave, fn, inputs) == (results, left)
            assert executes == [0] or not fits
            return
        _contained_run(enclave, fn, inputs)

    prop()


class TestFaultContainment:
    """A faulty function hurts only itself (Section 3.4.3), for
    ``program_gen`` programs and point mutations of them that the
    verifier accepts, at default limits (generated code, once the tree
    walk under the harness's op budget has run the same input), under
    an op budget one below the longest packet's need and with the
    stack limit one below the program's bound (the tree walk): nothing
    but :class:`InterpreterFault` leaves ``execute``, ``process_packet``
    propagates nothing, and a faulting invocation leaves packet
    fields, message entries, globals and function stats other than
    ``faults`` as they were."""

    def test_faults_are_contained(self):
        check_containment(PROPERTY_EXAMPLES)

    def test_faults_are_contained_at_depth(self, request):
        _at_depth(request)
        check_containment(10 * PROPERTY_EXAMPLES)

    def test_a_value_int_refuses_faults_only_its_hop(self):
        """A packet whose ``queue_id`` is a string: the middle hop of a
        three-hop chain reads it and faults — counted, nothing of it
        committed — while the hops around it, which do not read it,
        run; the plans and ``tree`` pins leave the same.  Only the
        value's slow path converts it."""
        action = compile_action(READS_QUEUE_ID,
                                packet_schema=DEFAULT_PACKET_SCHEMA,
                                message_schema=MSG_SCHEMA,
                                global_schema=GLB_SCHEMA, name="f")

        def run(backend):
            enclave = _chain_enclave(action, 1, backend)
            fn = enclave.function("f")
            reasons = _record_faults(fn)
            packets = _packets(_seeded_inputs(random.Random(1), 6))
            results = []
            for i, packet in enumerate(packets):
                if i % 2:
                    packet.queue_id = "high"
                before = _state_of(fn), packet.priority
                results.append(enclave.process_packet(packet, (),
                                                      now_ns=i))
                if i % 2:
                    _assert_untouched(fn, before[0])
                    assert packet.priority == before[1]
            return results, _left_behind(enclave, packets), reasons

        results, left, reasons = run("interpreter")
        assert (results, left, reasons) == run("tree")
        assert [r.executed.count("f") for r in results] == [1, 0] * 3
        assert [r.executed for r in results[1::2]] == [["first", "last"]] * 3
        assert reasons == ["packet.queue_id holds a str, not an "
                           "integer"] * 3


#: A middle hop that reads ``queue_id`` and writes ``priority``.
READS_QUEUE_ID = (
    "def f(packet, msg):\n"
    "    msg.counter = msg.counter + packet.queue_id\n"
    "    packet.priority = 2\n"
)


#: The first and last hop of :class:`TestChainedFaults`' chain: each
#: counts its packets in message state and faults on some packets
#: after that write (``size % 5 == 0``; ``src_port % 4 == 0``).  The
#: last hop reads what the middle hop may write.
CHAIN_FIRST = (
    "def first(packet, msg):\n"
    "    msg.counter = msg.counter + 1\n"
    "    packet.path_id = 60 // (packet.size % 5)\n"
)
CHAIN_LAST = (
    "def last(packet, msg):\n"
    "    msg.counter = msg.counter + packet.priority\n"
    "    packet.ecn = (packet.priority + 3) // (packet.src_port % 4)\n"
)
#: The chain's hops in order, and the packet fields each one writes
#: (the middle hop's are what ``program_gen`` programs write).
CHAIN = (("first", ("path_id",)), ("f", ("priority", "queue_id")),
         ("last", ("ecn",)))


def _chain_enclave(action, seed, backend):
    """``first`` in table 0, ``action`` as ``f`` in table 1 and
    ``last`` in table 2, chained by ``next_table``."""
    enclave = Enclave("chain", rng=random.Random(seed))
    enclave.create_table(1)
    enclave.create_table(2)
    for name, source in (("first", CHAIN_FIRST), ("last", CHAIN_LAST)):
        enclave.install_function(source, name=name,
                                 message_schema=MSG_SCHEMA,
                                 backend=backend)
    _install_f(enclave, action, backend, table_id=1, next_table=2)
    enclave.install_rule("*", "first", next_table=1)
    enclave.install_rule("*", "last", table_id=2)
    return enclave


def _chain_run(enclave, inputs, reasons=()):
    """The packets of ``inputs`` through the chain.  Every hop runs on
    every packet; a hop that faults commits nothing, the hops before
    it stay committed and the hops after it run on the packet as it
    left them.  Returns the results and what the run left behind;
    ends early as :func:`_contained_run` does."""
    packets = _packets(inputs)
    fns = [enclave.function(name) for name, _ in CHAIN]
    results = []
    for i, packet in enumerate(packets):
        before = [_state_of(fn) for fn in fns]
        fields = dict(vars(packet))
        result = enclave.process_packet(packet, (), now_ns=i)
        results.append(result)
        ran = [name for name, _ in CHAIN if name in result.executed]
        assert result.executed == ran
        assert result.faults == len(CHAIN) - len(ran)
        for fn, (name, writes), state in zip(fns, CHAIN, before):
            if name not in ran:
                _assert_untouched(fn, state)
                for field in writes:
                    assert getattr(packet, field, None) == \
                        fields.get(field), (name, field)
        if "first" in ran:
            assert packet.path_id == 60 // (packet.size % 5)
        if "last" in ran:
            assert packet.ecn == wrap64(
                wrap64(packet.priority + 3) // (packet.src_port % 4))
        if _stopped(reasons):
            break
    return results, _left_behind(enclave, packets)


def check_chained_faults(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(profile=st.sampled_from(pg.PROFILES),
           seed=st.integers(0, 1 << 20),
           mutation=st.one_of(st.none(), st.integers(0, 1 << 20)),
           inputs=CONTAINMENT_INPUTS)
    def prop(profile, seed, mutation, inputs):
        action = _action(profile, seed, mutation)
        # The tree walk runs the packets first, under the harness's op
        # budget; the plans run them with none once none hit it.
        tree = _chain_enclave(action, seed, "tree")
        tree.interpreter.op_budget = pg.OP_BUDGET
        reasons = _record_faults(tree.function("f"))
        want = _chain_run(tree, inputs, reasons)
        if _stopped(reasons):
            return
        hot = _chain_enclave(action, seed, "interpreter")
        executes = [_count_executes(hot.function(name))
                    for name, _ in CHAIN]
        assert _chain_run(hot, inputs) == want
        assert executes[1] == [0] or not pg.stack_fits(action.program)
        assert executes[0] == executes[2] == [0]

    prop()


class TestChainedFaults:
    """A fault in one hop of a ``next_table`` chain stays in that hop
    (Section 3.4.3): the hops before it stay committed and the hops
    after it still run.  The middle hop is a ``program_gen`` program or
    a point mutation of it the verifier accepts, between two hops that
    fault on packets of their own; the plans and a ``backend="tree"``
    enclave leave equal results, packet fields, message entries,
    globals and stats."""

    def test_a_fault_stays_in_its_hop(self):
        check_chained_faults(PROPERTY_EXAMPLES)

    def test_a_fault_stays_in_its_hop_at_depth(self, request):
        _at_depth(request)
        check_chained_faults(10 * PROPERTY_EXAMPLES)

    def test_every_hop_faults_on_some_packet(self):
        """The property above is not vacuous: over a few programs each
        hop of the chain faults on some packet and runs on another."""
        faulted, ran = set(), set()
        for seed in range(10):
            enclave = _chain_enclave(_action("default", seed, None), seed,
                                     "interpreter")
            results, _ = _chain_run(enclave, _seeded_inputs(
                random.Random(seed), CONTAINMENT_PACKETS))
            for result in results:
                executed = set(result.executed)
                ran |= executed
                faulted |= {name for name, _ in CHAIN} - executed
        assert faulted == ran == {name for name, _ in CHAIN}
