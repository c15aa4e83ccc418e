"""Control plane: desired state, epochs, replay, telemetry loops.

Everything here runs over the synchronous inproc transport, so each
test sees the final state immediately — the asynchronous/lossy paths
are covered by test_faults.py and the integration scenario.
"""

import pytest

from repro.control import (ChannelConfig, ControlError, ControlLoop,
                           EnclaveAgent, FaultInjector, InprocTransport,
                           InstallFunction, RuleSpec, STALE_EPOCH,
                           StatsReport, agent_address)
from repro.core import (Controller, ControllerError, Enclave,
                        EnclaveError)
from repro.functions.pias import (PIAS_FUNCTION_NAME,
                                  PIAS_GLOBAL_SCHEMA,
                                  PIAS_MESSAGE_SCHEMA,
                                  PiasThresholdLoop, pias_action)
from repro.functions.wcmp import (FUNCTION_NAME as WCMP_FUNCTION_NAME,
                                  WCMP_GLOBAL_SCHEMA, WcmpWeightLoop,
                                  wcmp_action)
from repro.lang import AccessLevel, Field, Lifetime, schema
from repro.netsim.simulator import MS, Simulator


def tag_priority(packet, _global):
    packet.priority = _global.level


def tag_priority_v2(packet, _global):
    packet.priority = _global.level + 1


TAG_SCHEMA = schema("Tag", Lifetime.GLOBAL, [
    Field("level", AccessLevel.READ_ONLY, default=1),
])


@pytest.fixture
def controller():
    ctl = Controller()
    ctl.register_enclave("h1", Enclave("h1.enclave"))
    return ctl


class TestDesiredState:
    def test_every_mutation_bumps_the_epoch(self, controller):
        plane = controller.plane
        assert plane.desired("h1").epoch == 0
        controller.install_function("h1", tag_priority,
                                    global_schema=TAG_SCHEMA)
        assert plane.desired("h1").epoch == 1
        controller.set_global("h1", "tag_priority", "level", 3)
        assert plane.desired("h1").epoch == 2
        controller.install_rule("h1", "*", "tag_priority")
        assert plane.desired("h1").epoch == 3
        ds = plane.desired("h1")
        assert "tag_priority" in ds.functions
        assert len(ds.rules) == 1
        assert ds.globals[("tag_priority", "level", "scalar",
                           None)] == 3

    def test_unattached_host_rejected(self, controller):
        with pytest.raises(ControlError):
            controller.plane.desired("ghost")
        with pytest.raises(ControlError):
            controller.plane.install_function("ghost", "f",
                                              tag_priority)

    def test_duplicate_attach_rejected(self, controller):
        with pytest.raises(ControlError):
            controller.plane.attach("h1")


class TestInprocFacade:
    def test_results_come_back_synchronously(self, controller):
        assert controller.synchronous
        (installed,) = controller.install_function(
            "h1", tag_priority, global_schema=TAG_SCHEMA)
        assert installed.name == "tag_priority"
        (rule_id,) = controller.install_rule("h1", "*",
                                             "tag_priority")
        assert rule_id in {r.rule_id for r in
                           controller.enclave("h1").query_rules(0)}
        assert controller.set_global("h1", "tag_priority", "level",
                                     9) is None
        assert controller.enclave("h1").query_global(
            "tag_priority")["level"] == 9

    def test_apply_errors_reraise_in_the_caller(self, controller):
        with pytest.raises(EnclaveError):
            controller.install_rule("h1", "*", "no_such_function")

    def test_replace_function_swaps_the_program(self, controller):
        controller.install_function("h1", tag_priority,
                                    global_schema=TAG_SCHEMA)
        controller.replace_function("h1", "tag_priority",
                                    tag_priority_v2,
                                    global_schema=TAG_SCHEMA)
        assert controller.enclave("h1").functions() == \
            ["tag_priority"]
        # The replacement is recorded in desired state, so a replay
        # after restart reinstalls v2, not v1.
        spec = controller.plane.desired("h1").functions[
            "tag_priority"]
        assert spec.source_fn is tag_priority_v2


class TestStaleEpochs:
    def test_stale_install_is_nacked_without_side_effects(
            self, controller):
        controller.install_function("h1", tag_priority,
                                    global_schema=TAG_SCHEMA)
        agent = controller.agent("h1")
        pending = controller.plane.endpoint.send(
            agent.address,
            InstallFunction(host="h1", epoch=0, name="rogue",
                            source_fn=tag_priority))
        assert pending.nacked
        assert pending.reason == STALE_EPOCH
        assert agent.stale_rejections == 1
        assert controller.plane.stale_nacks_seen == 1
        assert controller.plane.nack_log == \
            [(agent.address, STALE_EPOCH)]
        assert "rogue" not in controller.enclave("h1").functions()

    def test_current_epoch_messages_still_apply(self, controller):
        controller.install_function("h1", tag_priority,
                                    global_schema=TAG_SCHEMA)
        controller.set_global("h1", "tag_priority", "level", 2)
        agent = controller.agent("h1")
        assert agent.applied_epoch == \
            controller.plane.desired("h1").epoch
        assert agent.stale_rejections == 0


class TestHelloReplay:
    def test_restart_replays_desired_state_inline(self, controller):
        controller.install_function("h1", tag_priority,
                                    global_schema=TAG_SCHEMA)
        controller.install_rule("h1", "*", "tag_priority")
        controller.set_global("h1", "tag_priority", "level", 5)
        agent = controller.agent("h1")
        enclave = controller.enclave("h1")
        agent.restart()
        # Inproc: the Hello, the replay, and its acks all completed
        # inside restart().
        assert enclave.functions() == ["tag_priority"]
        assert len(enclave.query_rules(0)) == 1
        assert enclave.query_global("tag_priority")["level"] == 5
        assert agent.applied_epoch == \
            controller.plane.desired("h1").epoch
        assert controller.plane.replays == 1
        assert controller.plane.hellos_handled == 1

    def test_hello_from_unknown_host_is_nacked(self, controller):
        rogue = EnclaveAgent("h9", Enclave("h9.enclave"),
                             controller.transport)
        pending = rogue.send_hello()
        assert pending.nacked
        assert "unknown host" in pending.reason


class TestHostChangeHook:
    def test_every_send_and_every_envelope_heard(self, controller):
        plane = controller.plane
        seen = []
        plane.on_host_change = seen.append

        def heard(call, *args, **kwargs):
            del seen[:]
            call("h1", *args, **kwargs)
            return len(seen)

        # Inproc: each send's Ack is heard inside the send, so one
        # send calls the hook twice.
        assert heard(plane.install_function, "tag_priority",
                     tag_priority, global_schema=TAG_SCHEMA) == 2
        assert heard(plane.replace_function, "tag_priority",
                     tag_priority_v2) == 2
        assert heard(plane.install_rule, "*", "tag_priority") == 2
        assert heard(plane.update_rules, [
            RuleSpec(pattern="app.*", function="tag_priority")]) == 2
        assert [r.pattern for r in
                controller.enclave("h1").query_rules(0)] == ["app.*"]
        # The function's rules go first, in a send of their own.
        assert heard(plane.remove_function, "tag_priority") == 4
        assert controller.enclave("h1").functions() == []
        # A restart: the Hello is heard, then the replay's one send
        # (the empty rule set) with its Ack.
        del seen[:]
        controller.agent("h1").restart()
        assert seen == ["h1"] * 3
        plane.on_host_change = None
        assert heard(plane.update_rules, []) == 0

    def test_an_expiry_is_heard_though_nothing_arrives(self):
        sim = Simulator(seed=1)
        faults = FaultInjector(rng=sim.rng, scheduler=sim)
        controller = Controller(
            transport="sim", sim=sim, faults=faults,
            channel_config=ChannelConfig(rto_ns=1 * MS, jitter_ns=0,
                                         max_retries=1))
        controller.register_enclave("h1", Enclave("h1.enclave"))
        faults.partition(agent_address("h1"))
        seen = []
        controller.plane.on_host_change = \
            lambda host: seen.append((sim.now, host))
        pending = controller.plane.install_function(
            "h1", "tag_priority", tag_priority, global_schema=TAG_SCHEMA)
        sim.run(until_ns=50 * MS)
        # Sent at 0, retransmitted at 1 ms, given up at 3 ms.
        assert pending.failed
        assert seen == [(0, "h1"), (3 * MS, "h1")]


class TestTelemetry:
    def test_reports_land_and_feed_loops(self, controller):
        seen = []

        class Recorder(ControlLoop):
            def on_report(self, host, report):
                seen.append((host, report.applied_epoch))

        controller.plane.add_loop(Recorder())
        agent = controller.agent("h1")
        assert not controller.plane.in_sync("h1")  # no report yet
        agent.send_report()
        assert controller.plane.reports_received == 1
        assert controller.plane.latest_report["h1"].host == "h1"
        assert seen == [("h1", 0)]
        assert controller.plane.in_sync("h1")
        controller.plane.clear_loops()
        agent.send_report()
        assert len(seen) == 1  # detached loops stay silent

    def test_pias_loop_pushes_thresholds_once_converged(
            self, controller):
        plane = controller.plane
        plane.install_function("h1", PIAS_FUNCTION_NAME, pias_action,
                               message_schema=PIAS_MESSAGE_SCHEMA,
                               global_schema=PIAS_GLOBAL_SCHEMA)
        loop = PiasThresholdLoop(plane, hosts=["h1"], min_samples=4)
        plane.add_loop(loop)
        agent = controller.agent("h1")
        agent.add_telemetry_source(
            "flow_sizes", lambda: (1_000, 2_000, 300_000, 4_000_000))
        agent.send_report()
        assert loop.updates_pushed == 1
        flat = [v for row in loop.current for v in row]
        store = controller.enclave("h1").function(
            PIAS_FUNCTION_NAME).global_store
        assert list(store.array("priorities")) == flat
        # An identical sample window does not push a new epoch.
        epoch = plane.desired("h1").epoch
        agent.send_report()
        assert loop.updates_pushed == 1
        assert plane.desired("h1").epoch == epoch

    def test_wcmp_loop_reweights_on_capacity_change(
            self, controller):
        plane = controller.plane
        plane.install_function("h1", WCMP_FUNCTION_NAME, wcmp_action,
                               global_schema=WCMP_GLOBAL_SCHEMA)
        key = (1, 2)
        loop = WcmpWeightLoop(plane, key, ["h1"])
        plane.add_loop(loop)
        agent = controller.agent("h1")
        capacity = {"rows": [(1, 5e9), (2, 5e9)]}
        agent.add_telemetry_source("path_capacity",
                                   lambda: capacity["rows"])
        agent.send_report()
        assert loop.current == [(1, 500), (2, 500)]
        capacity["rows"] = [(1, 9e9), (2, 1e9)]
        agent.send_report()
        assert loop.current == [(1, 900), (2, 100)]
        store = controller.enclave("h1").function(
            WCMP_FUNCTION_NAME).global_store
        assert list(store.keyed_array("paths", key)) == \
            [1, 900, 2, 100]
        assert loop.updates_pushed == 2


class TestCompileOnce:
    """The plane compiles each distinct (name, source, schemas,
    options) once, on its first send, and ships that artifact to every
    host and on every re-send."""

    HOSTS = [f"h{i:02d}" for i in range(64)]

    @pytest.fixture
    def compiles(self, monkeypatch):
        from repro.control import plane as plane_module
        calls = []
        real = plane_module.compile_action

        def counted(source, **kwargs):
            calls.append(kwargs["name"])
            return real(source, **kwargs)

        monkeypatch.setattr(plane_module, "compile_action", counted)
        return calls

    def test_once_per_spec_across_a_fleet(self, compiles):
        controller = Controller()
        for host in self.HOSTS:
            controller.register_enclave(host, Enclave(f"{host}.e"))
        plane = controller.plane
        controller.install_function("*", tag_priority,
                                    global_schema=TAG_SCHEMA)
        controller.install_rule("*", "*", "tag_priority")
        assert compiles == ["tag_priority"]
        snapshots = {h: plane.snapshot_desired(h) for h in self.HOSTS}
        # Restart replay and an idempotent re-install reuse it.
        for host in self.HOSTS[:8]:
            controller.agent(host).restart()
        plane.install_function(self.HOSTS[0], "tag_priority",
                               tag_priority, global_schema=TAG_SCHEMA)
        assert compiles == ["tag_priority"]
        # A new version compiles once for the whole fleet; rolling
        # every host back to the snapshot compiles nothing.
        controller.replace_function("*", "tag_priority",
                                    tag_priority_v2)
        for host in self.HOSTS:
            plane.restore_desired(host, snapshots[host])
        assert compiles == ["tag_priority", "tag_priority"]
        programs = {controller.enclave(h).function("tag_priority").program
                    for h in self.HOSTS}
        assert len(programs) == 1
        assert plane.desired(self.HOSTS[0]).functions[
            "tag_priority"].source_fn is tag_priority

    def test_nothing_compiles_before_the_first_send(self, compiles):
        from repro.fleet import ProgramBuilder
        program = (ProgramBuilder("p")
                   .install_function("tag_priority", tag_priority,
                                     global_schema=TAG_SCHEMA).done())
        controller = Controller()
        controller.register_enclave("h1", Enclave("h1.e"))
        assert compiles == []
        program.apply(controller.plane, "h1")
        assert compiles == ["tag_priority"]


class TestFacadeErrors:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ControllerError):
            Controller(transport="carrier-pigeon")

    def test_sim_transport_needs_a_simulator(self):
        with pytest.raises(ControllerError):
            Controller(transport="sim")

    def test_unknown_host_fails_before_sending(self, controller):
        sent_before = controller.plane.endpoint.stats.sent
        with pytest.raises(ControllerError):
            controller.install_function("ghost", tag_priority)
        assert controller.plane.endpoint.stats.sent == sent_before
