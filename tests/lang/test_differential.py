"""Differential harness: tree, pycodegen, native, and batch.

This is the correctness guard for every execution backend in the
:mod:`repro.lang.backends` registry and the enclave hot path: every
DSL program in the repo (the §5 functions library via ``table1()``)
plus hundreds of seeded fuzz programs — across the default, loop-heavy
and array-heavy generator profiles — run through

* the decode-per-op tree walk      (``Interpreter(dispatch="tree")``),
* generated straight-line Python   (``Interpreter(dispatch="pycodegen")``
  on a program ``program_gen.warm`` has made hot),
* the native compiled backend      (``repro.lang.native``),
* batched execution                (``Interpreter.execute_batch``),

on randomized-but-seeded inputs.  tree and pycodegen must agree
bit-for-bit on ``(value, fields, arrays)``, on ``ExecStats``, and on
the fault class *and reason*; native must agree on the fault/ok
outcome and the result triple (its fault wording legitimately differs
— see ``program_gen.run_native``).  Batch execution must agree
entry-for-entry with back-to-back scalar calls on a shared
interpreter, including stats and fault identity — batching is an
optimization, never a semantic.

``TestTierBoundary`` pins the one behaviour the default backend adds:
a program runs on the tree walk for its first
``pycodegen.TIER_UP_CALLS`` invocations and on generated code after,
and nothing observable changes at the switch.

``TestEnclaveBatchDifferential`` lifts the same property to the whole
enclave data path: ``Enclave.process_batch`` over the fuzz corpus must
leave identical per-packet results, packet writes, function stats, and
message/global state as sequential ``process_packet`` calls.  Its
plan legs run the fuzz seeds, the library demos and the corpus through
a default enclave — whose function switches mid-run from the tree walk
to the generated per-packet plan — and a ``backend="tree"`` enclave,
which stays on the generic tier of ``InstalledFunction.run_packet``,
and require the same of those two, RNG state included.

Any fuzz failure is minimized (``program_gen.minimize``) and persisted
into ``tests/lang/corpus/``; the corpus is replayed here in CI so past
failures stay fixed.

Run just this harness with ``pytest -m differential``; the
enclave-level batch slice alone with ``pytest -m batch``.
"""

import glob
import os
import random
import zlib

import pytest

from repro.core.enclave import Enclave
from repro.core.stage import Classification
from repro.lang import (DEFAULT_PACKET_SCHEMA, Interpreter,
                        VerificationError, pycodegen, verify)
from repro.lang.bytecode import Assembler, FieldRef, Op, Program
from repro.lang.compiler import compile_action, compile_ast
from repro.functions.library import DemoPacket, table1

import program_gen as pg
from conftest import GLB_SCHEMA, MSG_SCHEMA

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

    @pytest.mark.parametrize("profile", ("loops", "arrays"))
    @pytest.mark.parametrize("seed", PROFILE_SEEDS)
    def test_profiled_backends_agree(self, profile, seed):
        """Loop-heavy and array-heavy sweeps of the same property."""
        source = pg.generate_program(seed, profile=profile)
        prog_ast = pg.lower_source(source)
        program = compile_ast(prog_ast)
        for i in range(INPUTS_PER_PROGRAM):
            fields, arrays = pg.generate_inputs(program,
                                                seed * 31 + i)
            err = pg.check_parity(prog_ast, program, fields, arrays)
            if err is not None:
                path = _persist_failure(source, fields, arrays,
                                        f"{profile}{seed}")
                pytest.fail(
                    f"profile {profile} seed {seed}: {err}\n"
                    f"minimized reproducer saved to {path}")

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


#: Calls past the tier-up call that the boundary tests keep running.
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
    per-call summaries plus the RNG state left behind."""
    rng = random.Random(3)
    out = pg.run_interp_seq(program, [(fvec, avec)] * calls, dispatch,
                            rng=rng)
    return out, rng.getstate()


def _assert_boundary_invisible(program, fvec, avec, label):
    """Default interpreter == tree on every call before, at and after
    the tier-up — and the tier-up really happens where it should."""
    calls = pycodegen.TIER_UP_CALLS + HOT_CALLS
    pycodegen.invalidate(program)
    want, want_rng = _run_calls(program, fvec, avec, calls,
                                dispatch="tree")
    assert not _is_hot(program), "tree runs must not count"
    compiled_before = pycodegen.stats()["programs_compiled"]
    cold, _ = _run_calls(program, fvec, avec, pycodegen.TIER_UP_CALLS)
    assert not _is_hot(program), f"{label}: compiled while cold"
    assert pycodegen.stats()["programs_compiled"] == compiled_before
    assert cold == want[:pycodegen.TIER_UP_CALLS], label
    pycodegen.invalidate(program)
    got, got_rng = _run_calls(program, fvec, avec, calls)
    assert _is_hot(program), f"{label}: still cold after {calls} calls"
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{label}: call {i + 1} of {calls} diverges"
    assert got_rng == want_rng, f"{label}: RNG streams diverge"


class TestTierBoundary:
    """Cold (tree walk) -> hot (generated code) changes nothing."""

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
        got, _ = _run_calls(program, fvec, avec,
                            pycodegen.TIER_UP_CALLS + HOT_CALLS)
        assert _is_hot(program)
        assert set(got) == {("fault", "InterpreterFault",
                             "division by zero")}

    @pytest.mark.batch
    @pytest.mark.parametrize("seed", range(12))
    def test_execute_batch_crossing_mid_batch_equals_scalar(self, seed):
        program = compile_ast(pg.lower_source(
            pg.generate_program(seed, profile="arrays")))
        snapshots = []
        for i in range(pycodegen.TIER_UP_CALLS + HOT_CALLS):
            fields, arrays = pg.generate_inputs(program,
                                                seed * 31 + i)
            snapshots.append(pg.vectors(program, fields, arrays))
        want = pg.run_interp_seq(program, snapshots, "tree")
        pycodegen.invalidate(program)
        batch = pg.run_interp_batch(program, snapshots, "pycodegen")
        assert _is_hot(program)
        pycodegen.invalidate(program)
        scalar = pg.run_interp_seq(program, snapshots, "pycodegen")
        assert batch == scalar == want

    def test_lru_eviction_returns_a_program_to_cold(self, monkeypatch):
        monkeypatch.setattr(pycodegen, "CACHE_LIMIT", 2)
        programs = [compile_ast(pg.lower_source(pg.generate_program(s)))
                    for s in range(3)]
        evictions = pycodegen.stats()["cache_evictions"]
        for program in programs:
            assert pg.warm(program)
        oldest = programs[0]
        assert not _is_hot(oldest)
        assert _is_hot(programs[1]) and _is_hot(programs[2])
        assert pycodegen.stats()["cache_evictions"] > evictions
        assert pycodegen.stats()["cache_size"] == 2
        # Cold means the full count again, not an immediate recompile.
        for _ in range(pycodegen.TIER_UP_CALLS):
            assert pycodegen.code_for(oldest) is None
        assert pycodegen.code_for(oldest) is not None

    def test_invalidate_resets_the_call_count(self):
        program = compile_ast(pg.lower_source(pg.generate_program(1)))
        for _ in range(pycodegen.TIER_UP_CALLS):
            assert pycodegen.code_for(program) is None
        assert pycodegen.invalidate(program)
        for _ in range(pycodegen.TIER_UP_CALLS):
            assert pycodegen.code_for(program) is None
        assert pycodegen.code_for(program) is not None
        assert pycodegen.invalidate(program)
        assert not pycodegen.invalidate(program)

    def test_unverifiable_program_stays_on_the_tree_walk(self):
        """Hand-assembled bytecode with inconsistent stack depth at a
        join (the verifier rejects it) never compiles, and keeps
        matching the tree walk however often it runs."""
        asm = Assembler("f", n_args=0)
        asm.emit(Op.GETF, 0)
        asm.emit(Op.JZ, 4)
        asm.emit(Op.CONST, 1)
        asm.emit(Op.CONST, 2)
        asm.emit(Op.CONST, 3)      # join: depth 0 or 2
        asm.emit(Op.RET)
        program = Program(
            name="uneven_join", functions=(asm.finish(n_locals=0),),
            field_table=(FieldRef("message", "counter", True),),
            array_table=())
        with pytest.raises(VerificationError):
            verify(program)
        delegated = pycodegen.stats()["programs_delegated"]
        calls = pycodegen.TIER_UP_CALLS + HOT_CALLS
        for flag in (0, 1):
            want, _ = _run_calls(program, [flag], [], calls,
                                 dispatch="tree")
            got, _ = _run_calls(program, [flag], [], calls)
            assert got == want
            assert got[0][0] == "ok"
        assert not _is_hot(program)
        assert pycodegen.stats()["programs_delegated"] == delegated + 1


class _DiffPacket:
    """A deterministic packet exposing the default schema's fields."""

    def __init__(self, rng, i):
        self.size = rng.randint(0, 4000)
        self.priority = rng.randint(0, 7)
        self.queue_id = rng.randint(0, 3)
        self.src_ip = 1
        self.src_port = 1000 + (i % 4)
        self.dst_ip = 2
        self.dst_port = 80
        self.proto = 6


def _batch_enclave_for(source, seed, backend="interpreter"):
    enclave = Enclave("diff", rng=random.Random(seed))
    enclave.install_function(source, name="f",
                             message_schema=MSG_SCHEMA,
                             global_schema=GLB_SCHEMA, backend=backend)
    enclave.set_global_array("f", "weights", list(range(1, 9)))
    enclave.set_global_array("f", "scratch", [0] * 8)
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
    entry point, the default enclave (tree walk, then the generated
    per-packet plan) == a ``backend="tree"`` enclave (the generic tier
    of ``run_packet`` throughout)."""

    #: Enough packets that the function turns hot mid-batch.
    N_PACKETS = pycodegen.TIER_UP_CALLS + 8

    def _packets(self, seed):
        rng = random.Random(seed * 7 + 1)
        return [_DiffPacket(rng, i) for i in range(self.N_PACKETS)]

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

        # Cold calls and the compiling one took the generic tier,
        # every later packet the plan.
        assert executes[0] == pycodegen.TIER_UP_CALLS + 1, label
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

    def test_plan_fuzz_sees_faults_in_both_tiers(self):
        """The sweep above compares faulting invocations too: some of
        its programs fault before the switch and some after."""
        cold = hot = 0
        for seed in range(40):
            enclave = _batch_enclave_for(pg.generate_program(seed), seed)
            results = self._run(enclave, self._packets(seed), False)
            cold += sum(r.faults for r in
                        results[:pycodegen.TIER_UP_CALLS])
            hot += sum(r.faults for r in
                       results[pycodegen.TIER_UP_CALLS + 1:])
        assert cold and hot

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
            assert hot_calls == pycodegen.TIER_UP_CALLS + 1


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
        tree = pg.run_interp(program, fvec, avec, "tree")
        assert pg.warm(program)
        hot = pg.run_interp(program, fvec, avec, "pycodegen")
        assert tree[0] == "fault"
        assert tree == hot
        assert tree[1] == "InterpreterFault"
        assert "division by zero" in tree[2]
        nat = pg.run_native(prog_ast, program, fvec, avec)
        assert nat[0] == "fault"
