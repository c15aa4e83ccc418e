"""Reporting on change: config Acks carry the agent's state, quiet
ticks send nothing, and the plane keeps the newest report and hears
liveness from any message."""

import dataclasses

import pytest

from repro.control import ControlLoop, StatsReport
from repro.control.agent import HEARTBEAT_TICKS
from repro.control.messages import Ack, Envelope
from repro.core import Controller, Enclave
from repro.fleet import HEALTHY, WAIT, EpochHealthGate, HostHealth
from repro.netsim.simulator import MS, Simulator
from repro.telemetry import Telemetry

#: SimTransport's default one-way delay.
HOP_NS = 50_000


def mark(packet):
    packet.priority = 3


class FakePacket:
    def __init__(self):
        self.size = 1500
        self.priority = 0
        self.drop = 0
        self.to_controller = 0


class Recorder(ControlLoop):
    def __init__(self):
        self.seen = []

    def on_report(self, host, report):
        self.seen.append(report)


def lossless(telemetry=None, interval_ns=1 * MS):
    """One host on a lossless SimTransport, reporting every
    ``interval_ns``; returns ``(sim, controller, agent)``."""
    sim = Simulator(seed=1)
    controller = Controller(transport="sim", sim=sim,
                            telemetry=telemetry)
    controller.register_enclave(
        "h1", Enclave("h1.enclave", clock=sim.clock,
                      telemetry=telemetry))
    agent = controller.agent("h1")
    agent.start_reporting(interval_ns)
    return sim, controller, agent


def report_at(at_ns, epoch):
    return StatsReport(host="h1", at_ns=at_ns, applied_epoch=epoch)


class TestAckCarriesTheReport:
    def test_in_sync_at_the_ack_instant(self):
        sim, controller, agent = lossless(interval_ns=20 * MS)
        plane = controller.plane
        loop = Recorder()
        plane.add_loop(loop)
        pending = plane.install_function("h1", "mark", mark)
        # Install delivered at one hop, its Ack back at two: long
        # before the first 20 ms tick.
        sim.run(until_ns=2 * HOP_NS - 1)
        assert not pending.done and not plane.in_sync("h1")
        sim.run(until_ns=2 * HOP_NS)
        assert pending.acked
        assert plane.in_sync("h1")
        report = plane.latest_report["h1"]
        assert (report.at_ns, report.applied_epoch) == (HOP_NS, 1)
        assert "mark" in report.stats
        assert report.telemetry == {}
        # No report was pushed; the Ack's report feeds no loop.
        assert agent.reports_sent == 0
        assert plane.reports_received == 0
        assert loop.seen == []

    def test_reack_carries_a_report_built_at_reack_time(self):
        sim, controller, agent = lossless(interval_ns=20 * MS)
        plane = controller.plane
        acks = []
        heard = plane.endpoint.on_receive

        def spy(env):
            if isinstance(env.payload, Ack):
                acks.append(env.payload)
            heard(env)

        plane.endpoint.on_receive = spy
        pending = plane.install_function("h1", "mark", mark)
        plane.install_rule("h1", "*", "mark")
        sim.run(until_ns=1 * MS)
        controller.enclave("h1").process_packet(FakePacket())
        # The install again, as a duplicate delayed in the network.
        sim.schedule(4 * MS, controller.transport.send, pending.env)
        sim.run(until_ns=6 * MS)
        assert agent.endpoint.stats.reacked == 1
        first, reack = acks[0], acks[-1]
        assert reack.seq == first.seq == pending.env.seq
        assert first.report.at_ns == HOP_NS
        assert reack.report.at_ns == 5 * MS + HOP_NS
        assert first.report.stats["mark"]["invocations"] == 0
        assert reack.report.stats["mark"]["invocations"] == 1

    def test_no_report_is_cached_with_the_outcomes(self):
        sim, controller, agent = lossless()
        plane = controller.plane
        plane.install_function("h1", "mark", mark)
        plane.install_rule("h1", "*", "mark")
        sim.run(until_ns=5 * MS)
        stream = agent.endpoint._peers[plane.address]
        assert len(stream.rx_results) == 2
        for outcome in stream.rx_results.values():
            assert not any(isinstance(value, StatsReport)
                           for value in _fields_deep(outcome))


def _fields_deep(value):
    """Every value held by ``value``'s fields, through containers and
    dataclasses, not through other objects."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        items = [getattr(value, f.name)
                 for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        items = list(value.values())
    elif isinstance(value, (list, tuple)):
        items = list(value)
    else:
        return
    for item in items:
        yield item
        yield from _fields_deep(item)


class TestTicks:
    def test_idle_agent_sends_one_report_per_heartbeat(self):
        sim, controller, agent = lossless()
        stats_calls = []
        enclave = controller.enclave("h1")
        summary = enclave.stats_summary
        enclave.stats_summary = lambda: stats_calls.append(1) or summary()
        sim.run(until_ns=1 * MS)
        assert agent.reports_sent == 1  # the first tick: news
        sim.run(until_ns=(1 + 5 * HEARTBEAT_TICKS) * MS + HOP_NS)
        assert agent.reports_sent == 1 + 5
        assert controller.plane.reports_received == 1 + 5
        # A quiet tick builds no report to learn that nothing changed.
        assert len(stats_calls) == 1 + 5

    def test_a_change_is_pushed_on_the_next_tick(self):
        sim, controller, agent = lossless()
        plane = controller.plane
        plane.install_function("h1", "mark", mark)
        plane.install_rule("h1", "*", "mark")
        sim.run(until_ns=1 * MS)
        # The first tick pushes the epoch its Acks already carried.
        assert agent.reports_sent == 1
        sim.run(until_ns=3 * MS)
        assert agent.reports_sent == 1
        controller.enclave("h1").process_packet(FakePacket())
        sim.run(until_ns=4 * MS + HOP_NS)
        assert agent.reports_sent == 2
        assert plane.latest_report["h1"].stats["mark"][
            "invocations"] == 1

    @pytest.mark.parametrize("source", ["telemetry", "health",
                                        "registry"])
    def test_agent_with_a_source_reports_on_every_tick(self, source):
        sim, controller, agent = lossless(
            telemetry=Telemetry() if source == "registry" else None)
        if source == "telemetry":
            agent.add_telemetry_source("flow_sizes", lambda: (1, 2))
        elif source == "health":
            agent.set_health_source(lambda: {"ok": True})
        sim.run(until_ns=3 * HEARTBEAT_TICKS * MS)
        assert agent.reports_sent == 3 * HEARTBEAT_TICKS

    def test_restart_is_pushed_on_the_next_tick(self):
        sim, controller, agent = lossless()
        sim.run(until_ns=2 * MS)
        assert agent.reports_sent == 1
        sim.schedule(0, agent.restart)
        sim.run(until_ns=3 * MS)
        assert agent.reports_sent == 2


class TestNewestReport:
    def deliver(self, sim, controller, payload):
        agent = controller.agent("h1")
        controller.transport.send(Envelope(
            agent.address, controller.plane.address, 1, -1, payload))
        sim.run(until_ns=sim.now + HOP_NS)

    def test_latest_report_never_goes_backwards(self):
        sim = Simulator(seed=1)
        controller = Controller(transport="sim", sim=sim)
        controller.register_enclave("h1", Enclave("h1.enclave"))
        plane = controller.plane
        plane.desired("h1").epoch = 4
        self.deliver(sim, controller, report_at(10 * MS, 4))
        assert plane.in_sync("h1")
        # A delayed or duplicated older report, pushed or on an Ack,
        # does not replace it.
        self.deliver(sim, controller, report_at(9 * MS, 5))
        self.deliver(sim, controller,
                     Ack(session=99, report=report_at(5 * MS, 3)))
        assert plane.latest_report["h1"] == report_at(10 * MS, 4)
        assert plane.in_sync("h1")
        # One burst's Acks are built at one instant: the epoch breaks
        # the tie.
        self.deliver(sim, controller,
                     Ack(session=99, report=report_at(10 * MS, 3)))
        assert plane.latest_report["h1"] == report_at(10 * MS, 4)
        self.deliver(sim, controller,
                     Ack(session=99, report=report_at(10 * MS, 5)))
        assert plane.latest_report["h1"] == report_at(10 * MS, 5)
        # Every report still reached the plane; the pushed ones fed
        # the loops.
        assert plane.reports_received == 2


class TestLiveness:
    def test_every_message_from_a_host_is_heard(self):
        sim, controller, agent = lossless(interval_ns=20 * MS)
        plane = controller.plane
        assert "h1" not in plane.last_heard_ns
        plane.install_function("h1", "mark", mark)
        sim.run(until_ns=1 * MS)
        assert plane.last_heard_ns["h1"] == 2 * HOP_NS  # the Ack
        sim.schedule(0, agent.send_hello)
        sim.run(until_ns=1 * MS + HOP_NS)
        assert plane.last_heard_ns["h1"] == 1 * MS + HOP_NS  # Hello
        sim.run(until_ns=20 * MS + HOP_NS)
        assert plane.last_heard_ns["h1"] == 20 * MS + HOP_NS

    def test_gate_freshness_follows_last_heard(self):
        gate = EpochHealthGate(max_report_age_ns=30 * MS)
        report = report_at(0, 2)

        def health(heard_ns):
            return HostHealth(host="h1", now_ns=70 * MS, in_sync=True,
                              target_epoch=2, report=report,
                              heard_ns=heard_ns)

        assert health(None).report_age_ns == 70 * MS
        assert gate.verdict(health(None)) == WAIT
        assert health(50 * MS).report_age_ns == 20 * MS
        assert gate.verdict(health(50 * MS)) == HEALTHY
        assert gate.verdict(health(30 * MS)) == WAIT
