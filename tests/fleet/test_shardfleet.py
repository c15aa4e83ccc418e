"""Sharded control fabric: placement, handoffs, determinism, and the
DDoS-mitigation rollout converging on real enclaves under faults."""

import pytest

from repro.control.faults import schedule_restart
from repro.control.messages import InstallFunction
from repro.core.enclave import Enclave
from repro.fleet import (DONE, EpochHealthGate, FabricError,
                         FleetOrchestrator, ProgramBuilder,
                         RolloutConfig, RolloutPlan, TERMINAL)
from repro.fleet.shardfleet import ShardedControlFabric, ShardedFleet
from repro.functions.ddos import mitigation_program
from repro.netsim.simulator import MS

pytestmark = pytest.mark.fleet


def simple_fn(packet):
    packet.priority = 1


def real_enclave(host):
    return Enclave(f"{host}.enclave")


class TestFabric:
    def test_validation(self):
        with pytest.raises(FabricError):
            ShardedControlFabric(0)
        with pytest.raises(FabricError):
            ShardedControlFabric(2, delay_ns=0)
        with pytest.raises(FabricError):
            ShardedFleet(0, 2, real_enclave)

    def test_hosts_round_robin_over_shards(self):
        fleet = ShardedFleet(8, 4, real_enclave)
        shards = {fleet.fabric.shard_of(f"agent:{h}")
                  for h in fleet.hosts}
        assert shards == {1, 2, 3, 4}
        # The controller lives alone on shard 0.
        assert fleet.fabric.shard_of("controller") == 0

    def test_cross_shard_messages_arrive_via_handoffs(self):
        fleet = ShardedFleet(8, 4, real_enclave,
                             report_interval_ns=5 * MS)
        pendings = []
        for host in fleet.hosts:
            pendings.append(fleet.plane.install_function(
                host, "simple_fn", simple_fn))
        fleet.run(until_ns=400 * MS)
        assert all(p.done and p.acked for p in pendings)
        assert fleet.fabric.handoffs > 0
        assert fleet.fabric.windows > 0
        for host in fleet.hosts:
            assert fleet.enclaves[host].functions() == ["simple_fn"]
            assert fleet.plane.in_sync(host)
        # One artifact, bound by every enclave.
        programs = {fleet.enclaves[h].function("simple_fn").program
                    for h in fleet.hosts}
        assert len(programs) == 1


class TestDeterminism:
    def _converge(self, seed):
        fleet = ShardedFleet(24, 4, real_enclave,
                             seed=seed, loss=0.15,
                             report_interval_ns=10 * MS)
        orch = FleetOrchestrator(
            fleet.plane, RolloutPlan.by_percent(fleet.hosts),
            ProgramBuilder("p")
            .install_function("simple_fn", simple_fn).done(),
            scheduler=fleet.controller_sim)
        orch.start()
        while orch.state not in ("done", "rolled-back", "aborted") \
                and fleet.fabric.now < 4_000 * MS:
            fleet.run(until_ns=fleet.fabric.now + 50 * MS)
        return (orch.state, orch.time_to_converged_ns,
                fleet.fabric.events_processed, fleet.fabric.handoffs)

    def test_same_seed_same_trajectory(self):
        assert self._converge(7) == self._converge(7)

    def test_lossy_rollout_converges(self):
        state, t_conv, events, handoffs = self._converge(3)
        assert state == "done"
        assert t_conv is not None and t_conv > 0
        assert events > 0 and handoffs > 0


def converge_mitigation(n_hosts, n_shards=4, loss=0.2, dup_prob=0.05,
                        seed=1):
    """Roll the DDoS mitigation out to ``n_hosts`` real enclaves under
    loss and duplication, restarting one enclave of the second wave
    while its sends are in flight, then fence a stale-epoch install;
    returns what the run did."""
    fleet = ShardedFleet(n_hosts, n_shards, real_enclave, seed=seed,
                         loss=loss, dup_prob=dup_prob,
                         report_interval_ns=20 * MS)
    plane = fleet.plane
    plan = RolloutPlan.by_percent(fleet.hosts)
    host_ip = {h: i + 1 for i, h in enumerate(fleet.hosts)}
    orch = FleetOrchestrator(
        plane, plan,
        mitigation_program(10_000, host_ip.__getitem__,
                           queue_ids=(1, 2, 3, 4)),
        scheduler=fleet.controller_sim,
        gate=EpochHealthGate(max_report_age_ns=60 * MS),
        config=RolloutConfig(poll_interval_ns=5 * MS,
                             wave_timeout_ns=4_000 * MS))
    wave = plan.waves[min(1, len(plan.waves) - 1)]
    restarted = wave.hosts[0]

    def arm_restart(_orch, record):
        if record.index == wave.index:
            agent = fleet.agents[restarted]
            agent_sim = fleet.fabric.scheduler_for(agent.address)
            schedule_restart(agent_sim, agent_sim.now + 10 * MS, agent)

    orch.on_wave_start = arm_restart
    orch.start()
    while orch.state not in TERMINAL and fleet.fabric.now < 10_000 * MS:
        fleet.run(until_ns=fleet.fabric.now + 100 * MS)
    stale_before = plane.stale_nacks_seen
    plane.endpoint.send(
        plane.agent_addr(restarted),
        InstallFunction(host=restarted, epoch=1, name="zombie_wave"))
    deadline = fleet.fabric.now + 2_000 * MS
    while plane.stale_nacks_seen == stale_before and \
            fleet.fabric.now < deadline:
        fleet.run(until_ns=fleet.fabric.now + 100 * MS)
    return {
        "converged": orch.state == DONE,
        "last_ack_ns": orch.time_to_last_ack_ns,
        "converged_ns": orch.time_to_converged_ns,
        "restarts": sum(a.restarts for a in fleet.agents.values()),
        "replays": plane.replays,
        "stale_nacks": plane.stale_nacks_seen - stale_before,
        "retransmits": plane.endpoint.stats.retransmits,
        "windows": fleet.fabric.windows,
        "events": fleet.fabric.events_processed,
        "in_sync": all(plane.in_sync(h) for h in fleet.hosts),
    }


class TestConvergence:
    def test_small_fleet_converges_under_faults(self):
        run = converge_mitigation(48)
        assert run["converged"] and run["in_sync"]
        assert run["last_ack_ns"] is not None
        assert run["converged_ns"] is not None
        assert run["last_ack_ns"] <= run["converged_ns"]
        # The fault schedule actually ran: one concurrent restart,
        # replays to recover it, and a stale-epoch Nack probe.
        assert run["restarts"] >= 1
        assert run["replays"] >= 1
        assert run["stale_nacks"] >= 1
        assert run["retransmits"] > 0
        assert run["windows"] > 0
        assert run["events"] > 0

    def test_deterministic_sim_times(self):
        a = converge_mitigation(32)
        b = converge_mitigation(32)
        assert a["converged_ns"] == b["converged_ns"]
        assert a["events"] == b["events"]
