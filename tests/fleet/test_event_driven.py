"""Event-driven wave evaluation: a poll judges only the hosts whose
view changed, and decides exactly what judging every host decided.

The pinned instants and reasons were recorded with the orchestrator
that re-judged every unconfirmed host at every poll; those of the
replace-and-remove rollout, and the restore's expiry count, were
re-recorded when a host came to get a wave, and a restore, as one
batch.  Each scenario
leans on one way a host's view changes: time alone (a gate that is
not event-driven), a send running out of retries (no envelope), the
sends of a replace-and-remove program, and outcomes counted across a
rollback.
"""

import pytest

from repro.control import (ChannelConfig, ControlError, FaultInjector,
                           agent_address)
from repro.core import Controller, Enclave
from repro.core.stage import Classification
from repro.fleet import (ABORTED, CallbackGate, DONE, EpochHealthGate,
                         FAIL, FAILED, FleetOrchestrator, HEALTHY,
                         HealthGate, PAUSE, PAUSED, ProgramBuilder,
                         ROLLED_BACK, ROLLED_BACK_FLEET, RolloutConfig,
                         RolloutPlan, WAIT)
from repro.lang import AccessLevel, Field, Lifetime, schema
from repro.netsim.simulator import MS, Simulator

pytestmark = pytest.mark.fleet


def level_fn(packet, _global):
    packet.priority = _global.level


def level_fn_v2(packet, _global):
    packet.priority = _global.level + 1


def extra_fn(packet):
    packet.queue_id = 4


LEVEL_SCHEMA = schema("Level", Lifetime.GLOBAL, [
    Field("level", AccessLevel.READ_ONLY, default=1),
])

HOSTS = ["h1", "h2", "h3", "h4"]


class Packet:
    def __init__(self):
        self.src_ip, self.dst_ip = 1, 2
        self.src_port, self.dst_port, self.proto = 1000, 80, 6
        self.size = 100
        self.priority = self.path_id = self.drop = 0
        self.to_controller = self.queue_id = self.charge = 0
        self.ecn = self.tenant = 0


def make_fleet(seed=1, loss=0.0, max_retries=None, report_ns=5 * MS,
               baseline=True):
    """Four hosts; with ``baseline`` each already runs ``level_fn``
    (level 3) and ``extra_fn``, each with a rule."""
    sim = Simulator(seed=seed)
    faults = FaultInjector(rng=sim.rng, drop_prob=loss, scheduler=sim)
    config = ChannelConfig(rto_ns=1 * MS, backoff_cap_ns=8 * MS,
                           jitter_ns=100_000, max_retries=max_retries)
    controller = Controller(transport="sim", sim=sim, faults=faults,
                            channel_config=config)
    for host in HOSTS:
        controller.register_enclave(host, Enclave(f"{host}.enclave",
                                                  clock=sim.clock,
                                                  rng=sim.rng))
        if report_ns:
            controller.agent(host).start_reporting(report_ns)
    if baseline:
        controller.install_function(HOSTS, level_fn,
                                    global_schema=LEVEL_SCHEMA)
        controller.install_function(HOSTS, extra_fn)
        controller.install_rule(HOSTS, "app.*", "level_fn",
                                priority=5)
        controller.install_rule(HOSTS, "*", "extra_fn")
        controller.set_global(HOSTS, "level_fn", "level", 3)
        sim.run(until_ns=100 * MS)
        assert all(controller.plane.in_sync(h) for h in HOSTS)
    return sim, faults, controller


def mark_program():
    return (ProgramBuilder("mark")
            .install_function("level_fn", level_fn,
                              global_schema=LEVEL_SCHEMA)
            .install_rule("*", "level_fn")
            .set_global("level_fn", "level", 5)
            .done())


def replace_and_remove():
    return (ProgramBuilder("swap")
            .replace_function("level_fn", level_fn_v2)
            .remove_function("extra_fn")
            .done())


def run_until(sim, orch, states, horizon_ms=3_000):
    deadline = sim.now + horizon_ms * MS
    while orch.state not in states and sim.now < deadline:
        sim.run(until_ns=sim.now + 1 * MS)


class TestGateContract:
    def test_declared_per_class(self):
        assert HealthGate.event_driven
        assert EpochHealthGate(max_report_age_ns=MS).event_driven
        assert not CallbackGate(lambda health: HEALTHY).event_driven

        class Custom(HealthGate):
            def verdict(self, health):
                return HEALTHY

        class Declared(HealthGate):
            event_driven = True

        assert not Custom.event_driven
        assert Declared.event_driven

    def test_callback_gate_that_opens_with_time_is_polled(self):
        """No host sends anything after its Acks, yet the gate turns
        HEALTHY at 37 ms: the wave confirms at the first poll after,
        as it did when every poll judged every host."""
        sim, _, controller = make_fleet(report_ns=0, baseline=False)
        asked = []

        def opens_at_37ms(health):
            asked.append(health.now_ns)
            return HEALTHY if health.now_ns >= 37 * MS else WAIT

        orch = FleetOrchestrator(
            controller.plane, RolloutPlan.explicit([HOSTS]),
            mark_program(), scheduler=sim,
            gate=CallbackGate(opens_at_37ms))
        orch.start()
        sim.run(until_ns=200 * MS)
        assert orch.state == DONE
        record = orch.waves[0]
        assert (record.acked_ns, record.confirmed_ns) == \
            CALLBACK_GATE_PIN
        # Every poll asked about every host until they confirmed.
        assert len(asked) == len(HOSTS) * record.confirmed_ns // (2 * MS)

    def test_confirmed_before_its_acks_is_not_acked(self):
        """A gate may confirm a host whose sends are unresolved; at
        the poll that confirms it, the wave is not all acked."""
        sim, faults, controller = make_fleet(baseline=False)
        faults.partition(agent_address("h2"))
        orch = FleetOrchestrator(
            controller.plane, RolloutPlan.explicit([HOSTS]),
            mark_program(), scheduler=sim,
            gate=CallbackGate(lambda health: HEALTHY))
        orch.start()
        sim.run(until_ns=10 * MS)
        assert orch.state == DONE
        assert (orch.waves[0].acked_ns, orch.waves[0].confirmed_ns) == \
            (-1, 2 * MS)
        assert orch.host_status["h1"].acked_at_ns == 2 * MS
        assert orch.host_status["h2"].acked_at_ns == -1

    def test_resume_rejudges_every_host(self):
        """A host failed by the gate sends nothing more (Acks carry
        reports; no tick comes before 10 s), yet a resumed wave judges
        it again."""
        sim, _, controller = make_fleet(report_ns=10_000 * MS,
                                        baseline=False)
        failing = {"h2"}

        class Operated(HealthGate):
            event_driven = True

            def verdict(self, health):
                if health.host in failing:
                    return FAIL
                return super().verdict(health)

        orch = FleetOrchestrator(
            controller.plane, RolloutPlan.explicit([HOSTS]),
            mark_program(), scheduler=sim, gate=Operated(),
            config=RolloutConfig(on_failure=PAUSE))
        orch.start()
        run_until(sim, orch, (PAUSED,))
        assert orch.host_status["h2"].state == FAILED
        failing.clear()
        orch.resume()
        run_until(sim, orch, (DONE,))
        assert orch.state == DONE
        assert orch.waves[0].confirmed_ns == sim.now


class TestExpiry:
    def test_retries_exhausted_fails_the_wave_at_its_poll(self):
        """The plane calls its host-change hook when a send to a
        partitioned host runs out of retries; that resolution arrives
        with no envelope.  The first failing host in wave order names the
        reason."""
        sim, faults, controller = make_fleet(max_retries=2,
                                             baseline=False)
        faults.partition(agent_address("h3"))
        faults.partition(agent_address("h2"))
        failed_at = []
        orch = FleetOrchestrator(
            controller.plane, RolloutPlan.explicit([HOSTS]),
            mark_program(), scheduler=sim,
            gate=EpochHealthGate(max_report_age_ns=20 * MS),
            config=RolloutConfig(rollback_timeout_ns=100 * MS))
        orch.on_rollback_start = lambda o: failed_at.append(sim.now)
        orch.start()
        run_until(sim, orch, (ROLLED_BACK_FLEET, ABORTED))
        assert (failed_at[0], orch.waves[0].failure_reason) == \
            EXPIRY_PIN
        assert orch.host_status["h2"].failure_reason == \
            "retries-exhausted"
        assert orch.host_status["h1"].confirmed_at_ns > 0


class TestReplaceAndRemove:
    def test_lossy_rollout_swaps_and_retires(self):
        sim, _, controller = make_fleet(seed=2, loss=0.4)
        plane = controller.plane
        orch = FleetOrchestrator(
            plane, RolloutPlan.by_percent(HOSTS), replace_and_remove(),
            scheduler=sim,
            gate=EpochHealthGate(max_report_age_ns=20 * MS))
        orch.start()
        run_until(sim, orch, (DONE,), horizon_ms=5_000)
        assert orch.state == DONE
        for host in HOSTS:
            enclave = controller.enclave(host)
            assert enclave.functions() == ["level_fn"]
            assert [r.function for r in enclave.query_rules(0)] == \
                ["level_fn"]
            # The replace kept the global; the new program runs.
            assert enclave.query_global("level_fn")["level"] == 3
            packet = Packet()
            enclave.process_packet(packet, [_app_class()])
            assert (packet.priority, packet.queue_id) == (4, 0)
            assert plane.in_sync(host)
            assert "extra_fn" not in plane.desired(host).functions
        assert orch.ticks == 20
        assert [(w["acked_ns"] // MS, w["confirmed_ns"] // MS)
                for w in orch.summary()["wave_records"]] == \
            [(132, 132), (134, 134), (136, 136), (140, 140)]

    def test_rollback_restores_the_removed_function(self):
        sim, _, controller = make_fleet(seed=2, loss=0.1)

        def fails_last(health):
            if health.host == "h4":
                return FAIL
            return HEALTHY if health.in_sync else WAIT

        orch = FleetOrchestrator(
            controller.plane, RolloutPlan.by_percent(HOSTS),
            replace_and_remove(), scheduler=sim,
            gate=CallbackGate(fails_last))
        orch.start()
        run_until(sim, orch, (ROLLED_BACK_FLEET, ABORTED),
                  horizon_ms=5_000)
        assert orch.state == ROLLED_BACK_FLEET
        for host in HOSTS:
            enclave = controller.enclave(host)
            assert enclave.functions() == ["extra_fn", "level_fn"]
            packet = Packet()
            enclave.process_packet(packet, [_app_class()])
            assert packet.priority == 3
            assert orch.host_status[host].state == ROLLED_BACK

    def test_plane_refuses_to_remove_an_unknown_function(self):
        _, _, controller = make_fleet(baseline=False, report_ns=0)
        with pytest.raises(ControlError):
            controller.plane.remove_function("h1", "extra_fn")


class TestOutcomesAcrossRollback:
    def test_every_outcome_is_counted_once(self):
        """The wave's Nacks fail it; the restore sends to a partitioned
        host then expire, each counted, whatever objects the abandoned
        wave's sends were."""
        sim, faults, controller = make_fleet(max_retries=2)
        faults.partition(agent_address("h2"))
        program = (ProgramBuilder("bad")
                   .install_rule("*", "level_fn", priority=9)
                   .set_global("ghost_fn", "level", 1)
                   .done())
        orch = FleetOrchestrator(
            controller.plane, RolloutPlan.explicit([["h1", "h2"]]),
            program, scheduler=sim,
            config=RolloutConfig(rollback_timeout_ns=200 * MS))
        orch.start()
        run_until(sim, orch, (ROLLED_BACK_FLEET, ABORTED))
        assert orch.state == ABORTED
        h1, h2 = orch.host_status["h1"], orch.host_status["h2"]
        assert orch.waves[0].failure_reason == "nack:EnclaveError"
        assert (h1.state, h1.send_failures) == (ROLLED_BACK, 1)
        # The restore is one batch.
        assert h2.send_failures == 1
        assert controller.plane.endpoint.stats.expired == 1


def _app_class():
    return Classification("app.web", {})


CALLBACK_GATE_PIN = (2 * MS, 38 * MS)
EXPIRY_PIN = (8 * MS, "retries-exhausted")
