"""Tests for the enclave: tables, runtime, state commit, safety."""

import dataclasses
import gc
import random
import weakref

import pytest

from repro.core import (Classification, ConcurrencyGuard,
                        ConcurrencyLevel, ConcurrencyViolation,
                        Enclave, EnclaveError, MatchRule,
                        PLACEMENT_NIC, PLACEMENT_OS, ProcessResult)
from repro.core.accounting import CpuAccounting
from repro.lang import (DEFAULT_PACKET_SCHEMA, AccessLevel, Field,
                        FieldKind, Interpreter, Lifetime, NativeFunction,
                        pycodegen, schema)
from repro.lang.compiler import compile_action


# Action functions must live at module level so their source is
# recoverable by the quotation step.

def set_priority_five(packet):
    packet.priority = 5


def drop_small(packet):
    if packet.size < 100:
        packet.drop = 1


def count_message_bytes(packet, msg):
    msg.total = msg.total + packet.size


def use_threshold(packet, _global):
    if packet.size > _global.threshold:
        packet.priority = 1
    else:
        packet.priority = 6


def faulty_divide(packet):
    packet.priority = 100 // (packet.size - 54)


def bump_counter(packet, _global):
    _global.counter = _global.counter + 1


def rand_path(packet):
    packet.path_id = rand(1000)


def to_controller_fn(packet):
    packet.to_controller = 1


MSG_SCHEMA = schema("Msg", Lifetime.MESSAGE, [
    Field("total", AccessLevel.READ_WRITE),
])
GLB_SCHEMA = schema("Glb", Lifetime.GLOBAL, [
    Field("threshold", AccessLevel.READ_ONLY, default=1000),
])
COUNTER_SCHEMA = schema("Cnt", Lifetime.GLOBAL, [
    Field("counter", AccessLevel.READ_WRITE),
])


class FakePacket:
    def __init__(self, **kw):
        self.src_ip = kw.get("src_ip", 1)
        self.dst_ip = kw.get("dst_ip", 2)
        self.src_port = kw.get("src_port", 1000)
        self.dst_port = kw.get("dst_port", 80)
        self.proto = 6
        self.size = kw.get("size", 1500)
        self.priority = 0
        self.path_id = 0
        self.drop = 0
        self.to_controller = 0
        self.queue_id = 0
        self.charge = 0
        self.ecn = 0
        self.tenant = kw.get("tenant", 0)


@pytest.fixture
def enclave():
    return Enclave("test.enclave")


class TestFunctionInstallation:
    def test_install_and_list(self, enclave):
        enclave.install_function(set_priority_five)
        assert enclave.functions() == ["set_priority_five"]

    def test_duplicate_name_rejected(self, enclave):
        enclave.install_function(set_priority_five)
        with pytest.raises(EnclaveError, match="already installed"):
            enclave.install_function(set_priority_five)

    def test_unknown_backend_rejected(self, enclave):
        with pytest.raises(EnclaveError, match="backend"):
            enclave.install_function(set_priority_five,
                                     name="x", backend="jit")

    def test_message_schema_with_arrays_rejected(self, enclave):
        bad = schema("B", Lifetime.MESSAGE,
                     [Field("xs", kind=FieldKind.ARRAY)])
        with pytest.raises(EnclaveError, match="scalar"):
            enclave.install_function(set_priority_five, name="x",
                                     message_schema=bad)

    def test_remove_function(self, enclave):
        enclave.install_function(set_priority_five)
        enclave.remove_function("set_priority_five")
        assert enclave.functions() == []

    def test_remove_referenced_function_rejected(self, enclave):
        enclave.install_function(set_priority_five)
        enclave.install_rule("*", "set_priority_five")
        with pytest.raises(EnclaveError, match="referenced"):
            enclave.remove_function("set_priority_five")

    def test_concurrency_derived(self, enclave):
        fn = enclave.install_function(count_message_bytes,
                                      message_schema=MSG_SCHEMA)
        assert fn.concurrency is ConcurrencyLevel.PER_MESSAGE


class TestTablesAndRules:
    def test_rule_for_unknown_function_rejected(self, enclave):
        with pytest.raises(EnclaveError, match="unknown function"):
            enclave.install_rule("*", "nope")

    def test_rule_patterns(self):
        rule = MatchRule(1, "memcached.r1.*", "f")
        assert rule.matches("memcached.r1.GET")
        assert not rule.matches("memcached.r2.GET")
        exact = MatchRule(2, "app.r1.msg", "f")
        assert exact.matches("app.r1.msg")
        assert not exact.matches("app.r1.msg2")
        wild = MatchRule(3, "*", "f")
        assert wild.matches("anything.at.all")

    def test_priority_ordering(self, enclave):
        enclave.install_function(set_priority_five)
        enclave.install_function(drop_small, name="drop_small")
        enclave.install_rule("*", "set_priority_five", priority=0)
        enclave.install_rule("*", "drop_small", priority=10)
        packet = FakePacket(size=50)
        result = enclave.process_packet(packet)
        assert result.executed == ["drop_small"]

    def test_remove_rule(self, enclave):
        enclave.install_function(set_priority_five)
        rid = enclave.install_rule("*", "set_priority_five")
        enclave.remove_rule(rid)
        packet = FakePacket()
        result = enclave.process_packet(packet)
        assert result.executed == []

    def test_remove_unknown_rule_rejected(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.remove_rule(77)

    def test_table_chaining(self, enclave):
        enclave.create_table(1)
        enclave.install_function(set_priority_five)
        enclave.install_function(to_controller_fn,
                                 name="to_controller_fn")
        enclave.install_rule("*", "set_priority_five", table_id=0,
                             next_table=1)
        enclave.install_rule("*", "to_controller_fn", table_id=1)
        packet = FakePacket()
        result = enclave.process_packet(packet)
        assert result.executed == ["set_priority_five",
                                   "to_controller_fn"]
        assert packet.priority == 5 and result.to_controller

    def test_next_table_must_exist(self, enclave):
        enclave.install_function(set_priority_five)
        with pytest.raises(EnclaveError, match="next table"):
            enclave.install_rule("*", "set_priority_five",
                                 next_table=9)

    def test_table_zero_cannot_be_deleted(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.delete_table(0)

    def test_create_duplicate_table_rejected(self, enclave):
        enclave.create_table(1)
        with pytest.raises(EnclaveError):
            enclave.create_table(1)


class TestProcessing:
    def test_packet_write_committed(self, enclave):
        enclave.install_function(set_priority_five)
        enclave.install_rule("*", "set_priority_five")
        packet = FakePacket()
        result = enclave.process_packet(packet)
        assert packet.priority == 5
        assert result.executed == ["set_priority_five"]

    def test_generic_tier_readers_built_on_first_use(self):
        # Only a backend without a plan (tree, native) runs the
        # generic tier: a default binding never reads a slot there.
        for backend in ("interpreter", "tree"):
            enclave = Enclave(f"e.{backend}")
            fn = enclave.install_function(set_priority_five,
                                          backend=backend)
            enclave.install_rule("*", "set_priority_five")
            assert fn._field_readers is None
            enclave.process_packet(FakePacket())
            if backend == "tree":
                assert len(fn._field_readers) == \
                    len(fn.program.field_table)
            else:
                assert fn._field_readers is None

    def test_dry_run_skips_packet_writes(self, enclave):
        # The paper's "baseline EDEN" configuration (Section 5.1).
        fn = enclave.install_function(set_priority_five,
                                      commit_packet_writes=False)
        enclave.install_rule("*", "set_priority_five")
        packet = FakePacket()
        result = enclave.process_packet(packet)
        assert packet.priority == 0          # output ignored
        assert result.executed == ["set_priority_five"]
        assert fn.stats.invocations == 1     # but the work happened

    def test_drop_decision(self, enclave):
        enclave.install_function(drop_small, name="drop_small")
        enclave.install_rule("*", "drop_small")
        result = enclave.process_packet(FakePacket(size=50))
        assert result.drop
        assert enclave.packets_dropped == 1

    def test_message_state_accumulates_via_flow_fallback(self, enclave):
        # No stage classifications: the enclave's own five-tuple
        # classification gives message identity (Table 2, last row).
        enclave.install_function(count_message_bytes,
                                 message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "count_message_bytes")
        for _ in range(3):
            enclave.process_packet(FakePacket(size=100))
        store = enclave.function("count_message_bytes").message_store
        assert len(store) == 1
        ((key, entry),) = store._entries.items()
        assert entry.values["total"] == 300

    def test_distinct_flows_distinct_messages(self, enclave):
        enclave.install_function(count_message_bytes,
                                 message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "count_message_bytes")
        enclave.process_packet(FakePacket(src_port=1))
        enclave.process_packet(FakePacket(src_port=2))
        store = enclave.function("count_message_bytes").message_store
        assert len(store) == 2

    def test_stage_classification_selects_rule(self, enclave):
        enclave.install_function(set_priority_five)
        enclave.install_rule("memcached.r1.GET", "set_priority_five")
        packet = FakePacket()
        miss = enclave.process_packet(
            packet, [Classification("memcached.r1.PUT",
                                    {"msg_id": ("m", 1)})])
        assert miss.executed == []
        hit = enclave.process_packet(
            packet, [Classification("memcached.r1.GET",
                                    {"msg_id": ("m", 2)})])
        assert hit.executed == ["set_priority_five"]

    def test_metadata_seeds_message_state(self, enclave):
        enclave.install_function(count_message_bytes,
                                 message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "count_message_bytes")
        cls = [Classification("app.r1.msg",
                              {"msg_id": ("app", 7), "total": 1000})]
        enclave.process_packet(FakePacket(size=10), cls)
        store = enclave.function("count_message_bytes").message_store
        entry, _ = store.lookup(("app", 7), 0)
        assert entry.values["total"] == 1010

    def test_global_state_updates(self, enclave):
        enclave.install_function(bump_counter,
                                 global_schema=COUNTER_SCHEMA)
        enclave.install_rule("*", "bump_counter")
        for _ in range(5):
            enclave.process_packet(FakePacket())
        assert enclave.query_global("bump_counter")["counter"] == 5

    def test_global_threshold_readonly(self, enclave):
        enclave.install_function(use_threshold,
                                 global_schema=GLB_SCHEMA)
        enclave.install_rule("*", "use_threshold")
        enclave.set_global("use_threshold", "threshold", 100)
        small, big = FakePacket(size=50), FakePacket(size=5000)
        enclave.process_packet(small)
        enclave.process_packet(big)
        assert small.priority == 6 and big.priority == 1

    def test_fault_forwards_unmodified(self, enclave):
        # Section 3.4.3: a faulty function terminates its own
        # execution without affecting the rest of the system.
        enclave.install_function(faulty_divide, name="faulty")
        enclave.install_rule("*", "faulty")
        packet = FakePacket(size=54)  # divides by zero
        result = enclave.process_packet(packet)
        assert result.faults == 1
        assert result.executed == []
        assert packet.priority == 0
        assert enclave.function("faulty").stats.faults == 1

    def test_fault_then_success(self, enclave):
        enclave.install_function(faulty_divide, name="faulty")
        enclave.install_rule("*", "faulty")
        enclave.process_packet(FakePacket(size=54))
        ok = FakePacket(size=154)
        enclave.process_packet(ok)
        assert ok.priority == 1  # 100 // 100

    def test_end_message_clears_state(self, enclave):
        enclave.install_function(count_message_bytes,
                                 message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "count_message_bytes")
        packet = FakePacket()
        enclave.process_packet(packet)
        store = enclave.function("count_message_bytes").message_store
        key = ("enclave", packet.five_tuple) if hasattr(
            packet, "five_tuple") else None
        # use the enclave's own flow key format
        flow_key = ("enclave", (packet.src_ip, packet.src_port,
                                packet.dst_ip, packet.dst_port,
                                packet.proto))
        enclave.end_message("count_message_bytes", flow_key)
        assert len(store) == 0

    def test_expire_idle_messages(self, enclave):
        enclave.install_function(count_message_bytes,
                                 message_schema=MSG_SCHEMA)
        enclave.install_rule("*", "count_message_bytes")
        enclave.process_packet(FakePacket(), now_ns=0)
        dropped = enclave.expire_idle_messages(
            now_ns=100_000_000_000)
        assert dropped == 1

    def test_native_backend_equivalent(self):
        results = {}
        for backend in ("interpreter", "native"):
            enclave = Enclave(f"e.{backend}")
            enclave.install_function(use_threshold,
                                     global_schema=GLB_SCHEMA,
                                     backend=backend)
            enclave.install_rule("*", "use_threshold")
            packet = FakePacket(size=5000)
            enclave.process_packet(packet)
            results[backend] = packet.priority
        assert results["interpreter"] == results["native"] == 1

    def test_interpreter_ops_reported(self, enclave):
        enclave.install_function(set_priority_five)
        enclave.install_rule("*", "set_priority_five")
        result = enclave.process_packet(FakePacket())
        assert result.interpreter_ops > 0


class TestConcurrencyGuard:
    def test_parallel_allows_overlap(self):
        guard = ConcurrencyGuard(ConcurrencyLevel.PARALLEL)
        guard.acquire("m1")
        guard.acquire("m1")
        guard.release("m1")
        guard.release("m1")

    def test_per_message_blocks_same_message(self):
        guard = ConcurrencyGuard(ConcurrencyLevel.PER_MESSAGE)
        guard.acquire("m1")
        with pytest.raises(ConcurrencyViolation):
            guard.acquire("m1")
        guard.release("m1")
        guard.acquire("m1")  # fine after release

    def test_per_message_allows_different_messages(self):
        guard = ConcurrencyGuard(ConcurrencyLevel.PER_MESSAGE)
        guard.acquire("m1")
        guard.acquire("m2")

    def test_serial_blocks_everything(self):
        guard = ConcurrencyGuard(ConcurrencyLevel.SERIAL)
        guard.acquire("m1")
        with pytest.raises(ConcurrencyViolation):
            guard.acquire("m2")


class TestPlacement:
    def test_nic_cheaper_than_os(self):
        nic = Enclave("nic", placement=PLACEMENT_NIC)
        os_ = Enclave("os", placement=PLACEMENT_OS)
        assert nic.per_packet_base_cost_ns < \
            os_.per_packet_base_cost_ns

    def test_unknown_placement_rejected(self):
        with pytest.raises(EnclaveError):
            Enclave("x", placement="fpga")


class TestEnclaveFlowStage:
    """The enclave's own header classification (Table 2, last row)."""

    def test_flow_rule_classifies_and_matches(self, enclave):
        from repro.core import Classifier
        enclave.install_function(set_priority_five)
        enclave.install_flow_rule("r1", Classifier.of(dst_port=80),
                                  "web")
        enclave.install_rule("enclave.r1.web", "set_priority_five")
        web = FakePacket()           # dst_port 80
        other = FakePacket()
        other.dst_port = 443
        assert enclave.process_packet(web).executed == \
            ["set_priority_five"]
        assert enclave.process_packet(other).executed == []

    def test_flow_rule_message_identity_is_five_tuple(self, enclave):
        from repro.core import Classifier
        enclave.install_function(count_message_bytes,
                                 message_schema=MSG_SCHEMA)
        enclave.install_flow_rule("r1", Classifier.of(), "any")
        enclave.install_rule("enclave.r1.any", "count_message_bytes")
        for _ in range(3):
            enclave.process_packet(FakePacket(size=50))
        store = enclave.function("count_message_bytes").message_store
        assert len(store) == 1  # same flow -> same message
        ((key, entry),) = store._entries.items()
        assert entry.values["total"] == 150
        assert key[0] == "enclave"

    def test_without_flow_rules_nothing_changes(self, enclave):
        enclave.install_function(set_priority_five)
        enclave.install_rule("enclave.flows.default",
                             "set_priority_five")
        packet = FakePacket()
        assert enclave.process_packet(packet).executed == \
            ["set_priority_five"]


    def test_clear_drops_flow_rules(self, enclave):
        """A restart loses the enclave stage's flow rules with the rest
        of the soft state: a rule on their class matches nothing until
        the controller installs them again, and rule ids keep counting
        up."""
        from repro.core import Classifier
        ssh = FakePacket()
        ssh.dst_port = 22
        rule_id = enclave.install_flow_rule(
            "r1", Classifier.of(dst_port=22), "ssh")
        enclave.clear()
        assert not enclave.flow_stage.has_rules()
        enclave.install_function(set_priority_five)
        enclave.install_rule("enclave.r1.ssh", "set_priority_five")
        assert enclave.process_packet(ssh).executed == []
        assert enclave.process_batch([(ssh, ())])[0].executed == []
        assert enclave.install_flow_rule(
            "r1", Classifier.of(dst_port=22), "ssh") > rule_id
        assert enclave.process_packet(ssh).executed == \
            ["set_priority_five"]

    def test_removed_flow_rule_stops_costing_per_packet(self, enclave):
        """Once its last rule is gone the enclave's own stage is not
        consulted again, by either entry point."""
        from repro.core import Classifier
        enclave.install_function(set_priority_five)
        enclave.install_rule("*", "set_priority_five")
        rule_id = enclave.install_flow_rule(
            "r1", Classifier.of(dst_port=80), "web")
        classify_calls = []
        real = enclave.flow_stage.classify
        enclave.flow_stage.classify = \
            lambda *a, **kw: classify_calls.append(1) or real(*a, **kw)
        enclave.process_packet(FakePacket())
        enclave.process_batch([(FakePacket(), ())])
        assert len(classify_calls) == 2
        enclave.flow_stage.remove_stage_rule("r1", rule_id)
        enclave.process_packet(FakePacket())
        results = enclave.process_batch([(FakePacket(), ())] * 3)
        assert len(classify_calls) == 2
        assert all(r.executed == ["set_priority_five"] for r in results)


def chain_second(packet):
    packet.path_id = 2


class _CountingAccounting(CpuAccounting):
    """Counts the clock reads behind every sample."""

    def __init__(self, enabled):
        super().__init__(enabled=enabled)
        self.clock_reads = 0

    def now(self):
        self.clock_reads += 1
        return super().now()


class TestCpuAccounting:
    """Fig 12's enclave/interpreter split: a packet with k invocations
    records k + 1 ``enclave`` samples (state prep per invocation, then
    the tail) and k ``interpreter`` samples, in both tiers."""

    def _enclave(self, acct, backend="interpreter"):
        enclave = Enclave("acct.test", accounting=acct)
        enclave.create_table(1)
        enclave.install_function(set_priority_five, backend=backend)
        enclave.install_function(chain_second, backend=backend)
        enclave.install_function(faulty_divide, backend=backend)
        enclave.install_rule("app.r1.two", "set_priority_five",
                             next_table=1)
        enclave.install_rule("app.r1.one", "chain_second")
        enclave.install_rule("app.r1.fault", "faulty_divide")
        enclave.install_rule("*", "chain_second", table_id=1)
        return enclave

    @pytest.mark.parametrize("use_batch", (False, True))
    @pytest.mark.parametrize("backend", ("interpreter", "native"))
    def test_samples_per_invocation(self, backend, use_batch):
        acct = CpuAccounting(enabled=True)
        enclave = self._enclave(acct, backend)
        bucket = "native" if backend == "native" else "interpreter"
        # (class, invocations per packet); a faulted one counts.
        mix = [("two", 2), ("one", 1), ("miss", 0), ("fault", 1)]

        def send(rounds):
            pairs = [(FakePacket(size=54),
                      [Classification(f"app.r1.{name}", {})])
                     for _ in range(rounds) for name, _ in mix]
            if use_batch:
                enclave.process_batch(pairs)
            else:
                for packet, cls in pairs:
                    enclave.process_packet(packet, cls)

        packets = invocations = 0
        # The rounds that build every plan, then rounds under them.
        for rounds in (1, 3, 5):
            send(rounds)
            packets += rounds * len(mix)
            invocations += rounds * sum(k for _, k in mix)
            counts = acct.counts()
            assert counts["enclave"] == invocations + packets
            assert counts[bucket] == invocations
            assert sum(counts.values()) == 2 * invocations + packets
        assert enclave.function("faulty_divide").stats.faults == \
            packets // len(mix)
        if backend == "interpreter":
            assert _is_hot(enclave.function("chain_second").program)
        assert all(ns > 0 for ns in acct.samples[bucket])

    @pytest.mark.parametrize("use_batch", (False, True))
    def test_disabled_reads_no_clock_and_records_nothing(self,
                                                         use_batch):
        acct = _CountingAccounting(enabled=False)
        enclave = self._enclave(acct)
        pairs = [(FakePacket(), [Classification("app.r1.two", {})])
                 for _ in range(8)]
        if use_batch:
            enclave.process_batch(pairs)
        else:
            for packet, cls in pairs:
                enclave.process_packet(packet, cls)
        assert acct.clock_reads == 0
        assert not any(acct.counts().values())
        enabled = _CountingAccounting(enabled=True)
        self._enclave(enabled).process_packet(
            FakePacket(), [Classification("app.r1.two", {})])
        assert enabled.clock_reads > 0


def old_behavior(packet):
    packet.priority = 1


def new_behavior(packet):
    packet.priority = 7


ALL_BACKENDS = ("interpreter", "tree", "pycodegen", "native")
#: Backends whose programs compile to generated code.
COMPILED_BACKENDS = ("interpreter", "pycodegen")


def _is_hot(program):
    return isinstance(getattr(program, "_pycodegen", None),
                      pycodegen.CompiledProgram)


def _own_artifact(action):
    """A compiled artifact nothing but its binding will hold."""
    return compile_action(action, packet_schema=DEFAULT_PACKET_SCHEMA)


def _heat(enclave):
    """Traffic through both entry points, scalar then batched."""
    for _ in range(3):
        enclave.process_packet(FakePacket())
    enclave.process_batch([(FakePacket(), []) for _ in range(2)])


class TestBackendRegistry:
    """Enclave plumbing of the repro.lang.backends registry."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_pinned_backend_scalar_and_batch(self, backend):
        enclave = Enclave(f"e.{backend}")
        enclave.install_function(set_priority_five, backend=backend)
        enclave.install_rule("*", "set_priority_five")
        packet = FakePacket()
        result = enclave.process_packet(packet)
        assert result.executed == ["set_priority_five"]
        assert packet.priority == 5
        batch = [FakePacket() for _ in range(3)]
        results = enclave.process_batch([(p, []) for p in batch])
        assert all(r.executed == ["set_priority_five"]
                   for r in results)
        assert [p.priority for p in batch] == [5, 5, 5]

    def test_registered_names_accepted_others_rejected(self, enclave):
        from repro.lang import backend_names
        assert backend_names() == ["native", "pycodegen", "tree"]
        for retired in ("fast", "jit"):
            with pytest.raises(EnclaveError, match="unknown backend"):
                enclave.install_function(set_priority_five, name="x",
                                         backend=retired)

    def test_native_function_built_only_for_native_backend(self):
        enclave = Enclave("e.native")
        for backend in ALL_BACKENDS:
            fn = enclave.install_function(
                set_priority_five, name=f"f.{backend}", backend=backend)
            # One resolved backend per function; only native's bind
            # compiles an AST-level function, of this binding's own.
            assert fn.dispatch == ("pycodegen" if backend == "interpreter"
                                   else backend)
            bound = getattr(fn._run, "__self__", None)
            assert isinstance(bound, NativeFunction) == \
                (backend == "native")

    def test_native_bindings_of_one_artifact_draw_from_their_own_rng(self):
        """Two enclaves with different seeds bind one artifact on
        ``native``: each draws exactly what a lone enclave with its
        seed draws, interleaved or not, and a native interpreter with
        that seed agrees."""
        def artifact():
            return compile_action(rand_path,
                                  packet_schema=DEFAULT_PACKET_SCHEMA)

        def native_enclave(seed, action):
            enclave = Enclave(f"e.{seed}", rng=random.Random(seed))
            enclave.install_function(action, backend="native")
            enclave.install_rule("*", "rand_path")
            return enclave

        def draw(enclave):
            packet = FakePacket()
            assert enclave.process_packet(packet).executed == \
                ["rand_path"]
            return packet.path_id

        lone = {}
        for seed in (1, 2):
            enclave = native_enclave(seed, artifact())
            lone[seed] = [draw(enclave) for _ in range(20)]
        shared = artifact()
        pair = {seed: native_enclave(seed, shared) for seed in (1, 2)}
        drawn = {1: [], 2: []}
        for _ in range(20):
            for seed, enclave in pair.items():
                drawn[seed].append(draw(enclave))
        assert drawn == lone
        assert lone[1] != lone[2]
        interp = Interpreter(dispatch="native", rng=random.Random(1))
        assert [interp.execute(shared.program, [0], []).fields[0]
                for _ in range(20)] == lone[1]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_replace_runs_new_program_not_stale_handler(self, backend):
        """Warm every per-program cache (scalar + batch paths),
        hot-swap the function, and require the new behavior on both
        paths: the old program's compiled code is its own and never
        runs for the replacement."""
        enclave = Enclave(f"e.swap.{backend}")
        fn = enclave.install_function(old_behavior, name="policy",
                                      backend=backend)
        enclave.install_rule("*", "policy")
        packet = FakePacket()
        enclave.process_packet(packet)
        assert packet.priority == 1
        _heat(enclave)

        replacement = enclave.replace_function("policy", new_behavior)
        assert replacement.program is not fn.program
        if backend in COMPILED_BACKENDS:
            assert _is_hot(fn.program) and _is_hot(replacement.program)
        packet = FakePacket()
        enclave.process_packet(packet)
        assert packet.priority == 7
        batch = [FakePacket() for _ in range(2)]
        enclave.process_batch([(p, []) for p in batch])
        assert [p.priority for p in batch] == [7, 7]
        # Whoever still holds the old function runs the old program.
        fields = [0] * len(fn.program.field_table)
        assert fn.execute(fields, []).fields == [1]

    def test_remove_function_invalidates_backend_caches(self, enclave):
        """No compiled code outlives the function that owned it: it
        lives in a slot on the program, which dies with the removed
        function's last reference (an artifact of its own: one
        installed from source also lives in the compile memo)."""
        fn = enclave.install_function(_own_artifact(old_behavior),
                                      name="policy",
                                      backend="pycodegen")
        enclave.install_rule("*", "policy")
        _heat(enclave)
        assert _is_hot(fn.program)
        enclave.remove_rule(1)
        enclave.remove_function("policy")
        program = weakref.ref(fn.program)
        del fn
        gc.collect()
        assert program() is None

    def test_clear_invalidates_backend_caches(self, enclave):
        """A restarted enclave keeps no compiled code alive: each
        program dies with its function."""
        fn = enclave.install_function(_own_artifact(old_behavior),
                                      name="policy")
        enclave.install_rule("*", "policy")
        _heat(enclave)
        assert _is_hot(fn.program)
        enclave.clear()
        assert enclave.functions() == []
        program = weakref.ref(fn.program)
        del fn
        gc.collect()
        assert program() is None

    def test_default_interpreter_reaches_enclave(self):
        """The default enclave runs pycodegen: its program is compiled
        at install and runs through either entry point."""
        for use_batch in (False, True):
            enclave = Enclave("e.default")
            assert enclave.interpreter.dispatch == "pycodegen"
            fn = enclave.install_function(set_priority_five)
            enclave.install_rule("*", "set_priority_five")

            def send(n):
                packets = [FakePacket() for _ in range(n)]
                if use_batch:
                    enclave.process_batch([(p, []) for p in packets])
                else:
                    for packet in packets:
                        enclave.process_packet(packet)
                assert [p.priority for p in packets] == [5] * n

            assert _is_hot(fn.program)
            send(3)


def test_process_result_keeps_its_dataclass_api():
    """Built once per packet, so slotted — and still a dataclass."""
    result = ProcessResult(["f"], ["app.r1.x"])
    assert (result.drop, result.to_controller, result.faults,
            result.interpreter_ops, result.error) == \
        (False, False, 0, 0, None)
    same = ProcessResult(executed=["f"], matched_classes=["app.r1.x"],
                         drop=False, interpreter_ops=0)
    assert result == same and not result != same
    assert result != ProcessResult(["f"], ["app.r1.x"], True)
    assert result != ("f", "app.r1.x")
    assert repr(result) == (
        "ProcessResult(executed=['f'], matched_classes=['app.r1.x'], "
        "drop=False, to_controller=False, faults=0, "
        "interpreter_ops=0, error=None)")
    assert dataclasses.is_dataclass(ProcessResult)
    assert [f.name for f in dataclasses.fields(result)] == [
        "executed", "matched_classes", "drop", "to_controller",
        "faults", "interpreter_ops", "error"]
    assert dataclasses.replace(result, faults=2).faults == 2
    assert dataclasses.asdict(result)["matched_classes"] == ["app.r1.x"]
    result.drop = True
    assert result.drop
    assert not hasattr(result, "__dict__")
    with pytest.raises(TypeError):
        hash(result)
    with pytest.raises(TypeError):
        ProcessResult(["f"])


def test_the_data_path_builds_the_result_the_constructor_would():
    """``_process_one`` fills a ``ProcessResult`` without calling the
    class; every field must come out as the constructor sets it."""
    enclave = Enclave("result.test")
    enclave.install_function(set_priority_five)
    enclave.install_rule("*", "set_priority_five")
    for _ in range(3):
        packet = FakePacket()
        packet.drop = 1
        got = enclave.process_packet(packet)
        want = ProcessResult(
            executed=["set_priority_five"],
            matched_classes=["enclave.flows.default"], drop=True,
            interpreter_ops=got.interpreter_ops)
        assert got == want and repr(got) == repr(want)
        assert got.interpreter_ops > 0
