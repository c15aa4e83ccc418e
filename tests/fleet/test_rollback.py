"""Rollback: health-gate failures restore the prior desired state.

The scenario the orchestrator exists for: a bad program reaches wave
N, the gate trips, and every already-updated host must return to its
pre-rollout state — through the same lossy, restart-prone control
plane that applied the bad version, with epochs only ever moving
forward.
"""

import pytest

from repro.control import (ChannelConfig, FaultInjector,
                           schedule_restart)
from repro.core import Controller, Enclave
from repro.fleet import (CallbackGate, FAIL, FleetOrchestrator, HEALTHY,
                         PAUSE, PAUSED, ProgramBuilder, ROLLED_BACK,
                         ROLLED_BACK_FLEET, RolloutConfig, RolloutPlan,
                         WAIT, WAVE_ABANDONED, WAVE_FAILED)
from repro.lang import AccessLevel, Field, Lifetime, schema
from repro.netsim.simulator import MS, Simulator

pytestmark = pytest.mark.fleet


def stable_fn(packet, _global):
    packet.priority = _global.level


def risky_fn(packet, _global):
    packet.priority = _global.boost


STABLE_SCHEMA = schema("Stable", Lifetime.GLOBAL, [
    Field("level", AccessLevel.READ_ONLY, default=1),
])

RISKY_SCHEMA = schema("Risky", Lifetime.GLOBAL, [
    Field("boost", AccessLevel.READ_ONLY, default=9),
])

FAST = ChannelConfig(rto_ns=1 * MS, backoff_cap_ns=8 * MS,
                     jitter_ns=100_000)

HOSTS = ["h1", "h2", "h3", "h4"]


def make_fleet_with_baseline(seed=1, loss=0.0):
    """Four hosts already running ``stable_fn`` at level 3."""
    sim = Simulator(seed=seed)
    faults = FaultInjector(rng=sim.rng, drop_prob=loss,
                           scheduler=sim)
    controller = Controller(transport="sim", sim=sim, faults=faults,
                            channel_config=FAST)
    for host in HOSTS:
        controller.register_enclave(host,
                                    Enclave(f"{host}.enclave",
                                            clock=sim.clock,
                                            rng=sim.rng))
        controller.agent(host).start_reporting(5 * MS)
    controller.install_function(HOSTS, stable_fn,
                                global_schema=STABLE_SCHEMA)
    controller.install_rule(HOSTS, "*", "stable_fn")
    controller.set_global(HOSTS, "stable_fn", "level", 3)
    sim.run(until_ns=100 * MS)
    for host in HOSTS:
        assert controller.plane.in_sync(host)
    return sim, faults, controller


def risky_program():
    return (ProgramBuilder("risky")
            .install_function("risky_fn", risky_fn,
                              global_schema=RISKY_SCHEMA)
            .install_rule("*", "risky_fn", priority=10)
            .done())


def gate_failing_on(bad_host):
    """HEALTHY once in sync — except ``bad_host``, which fails."""
    def fn(health):
        if health.host == bad_host:
            return FAIL
        return HEALTHY if health.in_sync else WAIT
    return CallbackGate(fn)


def run_until_terminal(sim, orch, horizon_ms=3_000):
    """Run until the rollout terminates or pauses (relative window)."""
    deadline = sim.now + horizon_ms * MS
    stop = ("done", "rolled-back", "aborted", "paused")
    while orch.state not in stop and sim.now < deadline:
        sim.run(until_ns=sim.now + 10 * MS)


def assert_baseline_restored(controller, host):
    enclave = controller.enclave(host)
    assert enclave.functions() == ["stable_fn"]
    assert enclave.query_global("stable_fn")["level"] == 3
    rules = [r for t in enclave.query_tables()
             for r in enclave.query_rules(t)]
    assert [r.function for r in rules] == ["stable_fn"]


class TestHealthGateRollback:
    def test_mid_rollout_failure_restores_updated_hosts(self):
        sim, _, controller = make_fleet_with_baseline()
        plan = RolloutPlan.explicit([["h1"], ["h2", "h3"], ["h4"]])
        orch = FleetOrchestrator(
            controller.plane, plan, risky_program(), scheduler=sim,
            gate=gate_failing_on("h2"))
        orch.start()
        run_until_terminal(sim, orch)
        assert orch.state == ROLLED_BACK_FLEET
        # Wave 0 confirmed then was rolled back; wave 1 failed;
        # wave 2 never started.
        assert orch.waves[1].outcome == WAVE_FAILED
        assert "health gate" in orch.waves[1].failure_reason
        assert orch.waves[2].started_ns < 0
        # Every touched host is back on the baseline; h4 was never
        # touched and keeps it trivially.
        for host in ("h1", "h2", "h3"):
            assert orch.host_status[host].state == ROLLED_BACK
            assert_baseline_restored(controller, host)
        assert_baseline_restored(controller, "h4")
        assert controller.enclave("h4").functions() == ["stable_fn"]
        # Epochs moved forward through the rollback, never backward.
        for host in ("h1", "h2", "h3"):
            assert controller.agent(host).applied_epoch == \
                controller.plane.desired(host).epoch

    def test_host_restarting_during_rollback_still_restores(self):
        sim, _, controller = make_fleet_with_baseline(seed=4,
                                                      loss=0.15)
        plan = RolloutPlan.explicit([["h1"], ["h2", "h3"], ["h4"]])
        orch = FleetOrchestrator(
            controller.plane, plan, risky_program(), scheduler=sim,
            gate=gate_failing_on("h3"),
            config=RolloutConfig(rollback_timeout_ns=3_000 * MS))
        restores = {}
        restore = controller.plane.restore_desired

        def recording_restore(host, snapshot):
            restores[host] = restore(host, snapshot)
            return restores[host]

        controller.plane.restore_desired = recording_restore
        # The moment rollback starts, knock over an already-updated
        # host: it loses the restore in flight, reconnects with
        # Hello, and the controller replays the *restored* desired
        # state — not the abandoned wave's.  The restore is one
        # message and the config Ack carries the agent's state, so a
        # restore can finish one round trip (100 us) in: the restart
        # comes 20 us in, before the restore arrives.
        orch.on_rollback_start = lambda o: schedule_restart(
            sim, sim.now + 20_000, controller.agent("h1"))
        orch.start()
        run_until_terminal(sim, orch, horizon_ms=6_000)
        assert orch.state == ROLLED_BACK_FLEET
        assert controller.agent("h1").restarts == 1
        # The restart did land on the restore in flight: the replay
        # its Hello triggered superseded the restore's one send.
        assert restores["h1"].superseded
        for host in ("h1", "h2", "h3"):
            assert_baseline_restored(controller, host)
            assert controller.plane.in_sync(host)

    def test_abandoned_wave_recorded(self):
        sim, _, controller = make_fleet_with_baseline()
        plan = RolloutPlan.explicit([["h1"], ["h2", "h3", "h4"]])
        orch = FleetOrchestrator(
            controller.plane, plan, risky_program(), scheduler=sim,
            gate=gate_failing_on("h2"))
        orch.start()
        run_until_terminal(sim, orch)
        assert orch.state == ROLLED_BACK_FLEET
        # The failed wave keeps WAVE_FAILED; nothing is left running.
        outcomes = [w.outcome for w in orch.waves]
        assert WAVE_FAILED in outcomes
        assert all(o != "running" for o in outcomes)


class TestManualAndPause:
    def test_manual_rollback_restores(self):
        sim, _, controller = make_fleet_with_baseline()
        plan = RolloutPlan.explicit([["h1"], ["h2", "h3", "h4"]])
        orch = FleetOrchestrator(
            controller.plane, plan, risky_program(), scheduler=sim,
            config=RolloutConfig(settle_ns=500 * MS))
        orch.start()
        sim.run(until_ns=sim.now + 120 * MS)  # wave 0 confirmed,
        assert orch.state == "settling"       # soaking before wave 1
        orch.rollback()
        run_until_terminal(sim, orch)
        assert orch.state == ROLLED_BACK_FLEET
        assert_baseline_restored(controller, "h1")

    def test_pause_policy_holds_fleet_for_operator(self):
        sim, _, controller = make_fleet_with_baseline()
        plan = RolloutPlan.explicit([["h1"], ["h2", "h3"], ["h4"]])
        failing = [True]

        def fn(health):
            if health.host == "h2" and failing[0]:
                return FAIL
            return HEALTHY if health.in_sync else WAIT

        orch = FleetOrchestrator(
            controller.plane, plan, risky_program(), scheduler=sim,
            gate=CallbackGate(fn),
            config=RolloutConfig(on_failure=PAUSE))
        orch.start()
        run_until_terminal(sim, orch)
        assert orch.state == PAUSED
        assert orch.waves[1].outcome == WAVE_FAILED
        # Nothing was rolled back: wave 0's host keeps the new
        # version while the operator investigates.
        assert "risky_fn" in controller.enclave("h1").functions()
        # Operator fixes the issue and resumes the same rollout.
        failing[0] = False
        orch.resume()
        run_until_terminal(sim, orch)
        assert orch.state == "done"
        for host in HOSTS:
            assert "risky_fn" in controller.enclave(host).functions()
