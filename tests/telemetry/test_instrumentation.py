"""End-to-end telemetry: instrumented components publish the right
metrics and spans, and the control plane ships registry snapshots."""

import random

import pytest

from repro.core import Classification, Enclave
from repro.core.accounting import CpuAccounting, Reservoir
from repro.core.stage import Classifier, Stage
from repro.telemetry import Telemetry, traces_containing


def set_priority_five(packet):
    packet.priority = 5


class FakePacket:
    def __init__(self, size=1500):
        self.size = size
        self.priority = 0
        self.drop = 0
        self.to_controller = 0


def run_one_packet(tel):
    """One message through stage -> enclave -> interpreter."""
    stage = Stage("app", classifier_fields=("kind",),
                  metadata_fields=("msg_id",), telemetry=tel)
    stage.create_stage_rule("rs", Classifier.of(kind="q"), "query",
                            ["msg_id"])
    enclave = Enclave("e1", telemetry=tel)
    enclave.install_function(set_priority_five)
    enclave.install_rule("*", "set_priority_five")
    with tel.tracer.span("message.packet"):
        cls = stage.classify({"kind": "q"})
        result = enclave.process_packet(FakePacket(), cls)
    return result


class TestDataPathInstrumentation:
    def test_counters(self):
        tel = Telemetry()
        result = run_one_packet(tel)
        assert result.executed == ["set_priority_five"]
        reg = tel.registry
        assert reg.total("stage_messages_classified_total") == 1
        assert reg.total("enclave_packets_total") == 1
        assert reg.total("enclave_lookups_total") >= 1
        assert reg.total("enclave_lookup_hits_total") == 1
        assert reg.total("enclave_invocations_total") == 1
        assert reg.total("interp_invocations_total") == 1
        assert reg.total("interp_ops_per_invocation") == 1
        assert reg.total("enclave_faults_total") == 0

    def test_span_chain(self):
        tel = Telemetry()
        run_one_packet(tel)
        spans = tel.recorder.spans()
        chains = traces_containing(
            spans, ("stage.classify", "enclave.lookup",
                    "interpreter.execute"))
        assert len(chains) == 1
        by_name = {s.name: s for s in spans
                   if s.trace_id == chains[0]}
        root = by_name["message.packet"]
        assert root.parent_id is None
        assert by_name["stage.classify"].parent_id == root.span_id
        process = by_name["enclave.process"]
        assert process.parent_id == root.span_id
        assert by_name["enclave.lookup"].parent_id == process.span_id
        assert by_name["interpreter.execute"].parent_id == \
            process.span_id
        assert by_name["interpreter.execute"].attrs["ops"] >= 1

    def test_disabled_records_nothing(self):
        tel = Telemetry(enabled=False, recorder_capacity=1)
        result = run_one_packet(tel)
        assert result.executed == ["set_priority_five"]
        assert tel.registry.instruments() == []
        assert tel.recorder.recorded == 0

    def test_default_enclave_has_no_live_telemetry(self):
        enclave = Enclave("plain")
        assert not enclave.telemetry.enabled
        # No per-hop instruments are bound, so every hop takes the
        # untraced branch of the data path.
        fn = enclave.install_function(set_priority_five)
        assert fn.meters is None


class TestStatsReportRegistry:
    def test_report_carries_snapshot(self):
        from repro.core.controller import Controller
        from repro.netsim.simulator import MS, Simulator

        tel = Telemetry()
        sim = Simulator(seed=3)
        controller = Controller(transport="sim", sim=sim,
                                telemetry=tel)
        enclave = Enclave("h1.enclave", clock=sim.clock,
                          telemetry=tel)
        controller.register_enclave("h1", enclave)
        enclave.install_function(set_priority_five)
        enclave.install_rule("*", "set_priority_five")
        cls = [Classification(class_name="a.b.c", metadata={})]
        enclave.process_packet(FakePacket(), cls)
        controller.agent("h1").start_reporting(1 * MS)
        sim.run(until_ns=5 * MS)

        report = controller.plane.latest_report.get("h1")
        assert report is not None
        snap = report.registry
        assert snap["counters"]["enclave_packets_total"
                                "{enclave=h1.enclave}"] == 1
        assert "interp_ops_per_invocation{dispatch=pycodegen}" in \
            snap["histograms"]
        assert tel.registry.total("agent_reports_total") >= 1
        assert tel.registry.total("plane_reports_total") >= 1


class TestReservoirAccounting:
    def test_reservoir_bounded_totals_exact(self):
        acct = CpuAccounting(enabled=True, reservoir_size=100)
        for i in range(5000):
            acct.record("enclave", i + 1)
        assert len(acct.samples["enclave"]) == 100
        assert acct.counts()["enclave"] == 5000
        assert acct.totals()["enclave"] == 5000 * 5001 // 2
        assert acct.mean_ns("enclave") == pytest.approx(2500.5)
        p50 = acct.percentile_ns("enclave", 50)
        assert 0 < p50 <= 5000

    def test_reservoir_uniformity(self):
        # Algorithm R: every element is retained with probability
        # k/n; the retained sample's mean tracks the population mean.
        res = Reservoir(capacity=200, rng=random.Random(7))
        for i in range(10_000):
            res.add(i)
        assert res.seen == 10_000
        assert len(res.values) == 200
        mean = sum(res.values) / len(res.values)
        assert abs(mean - 5000) < 800

    def test_registry_mirror(self):
        from repro.telemetry import MetricRegistry
        reg = MetricRegistry()
        acct = CpuAccounting(enabled=True, registry=reg)
        acct.record("interpreter", 123)
        hist = reg.histogram("cpu_ns", component="interpreter")
        assert hist.count == 1 and hist.total == 123
        assert reg.total("cpu_ns") == 1

    def test_disabled_records_nothing(self):
        acct = CpuAccounting(enabled=False)
        acct.record("enclave", 10)
        assert all(n == 0 for n in acct.counts().values())
        assert all(not vals for vals in acct.samples.values())
