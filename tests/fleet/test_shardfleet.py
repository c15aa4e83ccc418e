"""The fleet on one heap: installs, determinism, chunk invariance,
and the DDoS-mitigation rollout converging on real enclaves under
faults."""

import hashlib

import pytest

from repro.control.faults import schedule_restart
from repro.control.messages import InstallFunction
from repro.core.enclave import Enclave
from repro.fleet import (DONE, EpochHealthGate, FabricError,
                         FleetOrchestrator, ProgramBuilder,
                         RolloutConfig, RolloutPlan, TERMINAL)
from repro.fleet.shardfleet import ShardedFleet
from repro.functions.ddos import mitigation_program
from repro.netsim.simulator import MS, Simulator

pytestmark = pytest.mark.fleet


def simple_fn(packet):
    packet.priority = 1


def real_enclave(host):
    return Enclave(f"{host}.enclave")


class TestFabric:
    def test_validation(self):
        with pytest.raises(FabricError):
            ShardedFleet(0, 2, real_enclave)

    def test_installs_reach_every_host_as_one_artifact(self):
        fleet = ShardedFleet(8, 4, real_enclave,
                             report_interval_ns=5 * MS)
        pendings = []
        for host in fleet.hosts:
            pendings.append(fleet.plane.install_function(
                host, "simple_fn", simple_fn))
        fleet.run(until_ns=400 * MS)
        assert all(p.done and p.acked for p in pendings)
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
                fleet.fabric.events_processed)

    def test_same_seed_same_trajectory(self):
        assert self._converge(7) == self._converge(7)

    def test_lossy_rollout_converges(self):
        state, t_conv, events = self._converge(3)
        assert state == "done"
        assert t_conv is not None and t_conv > 0
        assert events > 0


def mitigation_rollout(n_hosts, loss=0.2, dup_prob=0.05, seed=1):
    """A fleet of ``n_hosts`` real enclaves and an orchestrator armed
    to roll the DDoS mitigation out to it, not yet started."""
    fleet = ShardedFleet(n_hosts, 4, real_enclave, seed=seed,
                         loss=loss, dup_prob=dup_prob,
                         report_interval_ns=20 * MS)
    plan = RolloutPlan.by_percent(fleet.hosts)
    host_ip = {h: i + 1 for i, h in enumerate(fleet.hosts)}
    orch = FleetOrchestrator(
        fleet.plane, plan,
        mitigation_program(10_000, host_ip.__getitem__,
                           queue_ids=(1, 2, 3, 4)),
        scheduler=fleet.controller_sim,
        gate=EpochHealthGate(max_report_age_ns=60 * MS),
        config=RolloutConfig(poll_interval_ns=5 * MS,
                             wave_timeout_ns=4_000 * MS))
    return fleet, plan, orch


def arm_second_wave_restart(fleet, plan, orch):
    """Restart the first host of the second wave 10 ms after the wave
    starts, while its sends are in flight; returns that host."""
    wave = plan.waves[min(1, len(plan.waves) - 1)]
    restarted = wave.hosts[0]

    def arm_restart(_orch, record):
        if record.index == wave.index:
            agent = fleet.agents[restarted]
            agent_sim = fleet.fabric.scheduler_for(agent.address)
            schedule_restart(agent_sim, agent_sim.now + 10 * MS, agent)

    orch.on_wave_start = arm_restart
    return restarted


def converge_mitigation(n_hosts, loss=0.2, dup_prob=0.05, seed=1):
    """Roll the DDoS mitigation out to ``n_hosts`` real enclaves under
    loss and duplication, restarting one enclave of the second wave
    while its sends are in flight, then fence a stale-epoch install;
    returns what the run did."""
    fleet, plan, orch = mitigation_rollout(n_hosts, loss, dup_prob, seed)
    plane = fleet.plane
    restarted = arm_second_wave_restart(fleet, plan, orch)
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
        assert run["events"] > 0

    def test_no_reader_mutates_the_shared_stats_summary(self):
        """An enclave's ``stats_summary`` is one mapping shared by its
        agent's reports, the plane's ``latest_report`` and the gate
        until the enclave changes; after a rollout it still equals
        one built afresh."""
        fleet, _plan, orch = mitigation_rollout(32)
        orch.start()
        while orch.state not in TERMINAL and \
                fleet.fabric.now < 10_000 * MS:
            fleet.run(until_ns=fleet.fabric.now + 100 * MS)
        assert orch.state == DONE
        for host in fleet.hosts:
            enclave = fleet.agents[host].enclave
            shared = enclave.stats_summary()
            assert fleet.plane.latest_report[host].stats is shared
            enclave._summary_key = None     # force a rebuild
            assert enclave.stats_summary() == shared

    def test_deterministic_sim_times(self):
        a = converge_mitigation(32)
        b = converge_mitigation(32)
        assert a["converged_ns"] == b["converged_ns"]
        assert a["events"] == b["events"]


def test_chunked_run_equals_one_call():
    """One ``run(1.2 s)`` and the same horizon in 100 ms, 7 ms and
    12,345 ns chunks are the same rollout, with and without the
    second-wave restart: ``run(until)`` fires every event due at
    ``until``, those scheduled at that instant included, so on one
    heap a chunk boundary is invisible."""
    horizon = 1_200 * MS

    def rollout(chunk_ns, restart):
        fleet, plan, orch = mitigation_rollout(32)
        if restart:
            arm_second_wave_restart(fleet, plan, orch)
        orch.start()
        while fleet.fabric.now < horizon:
            fleet.run(until_ns=min(horizon, fleet.fabric.now + chunk_ns))
        return (orch.time_to_converged_ns,
                fleet.plane.endpoint.stats.retransmits,
                fleet.fabric.events_processed)

    for restart in (False, True):
        one_call = rollout(horizon, restart)
        assert one_call[0] is not None
        for chunk_ns in (100 * MS, 7 * MS, 12_345):
            assert rollout(chunk_ns, restart) == one_call, \
                (chunk_ns, restart)


def test_mitigation_rollout_golden(monkeypatch):
    """``converge_mitigation(32)`` pinned to literals: what the run
    returns and the sha256 of its fire log — ``(now, callback name)``
    of every event that fires, in firing order.  Last re-recorded when
    a host came to get each wave as one batch instead of one message
    per op: seven times fewer config sends and Acks, so fewer losses
    to retry (262 -> 25 retransmits), 1106 -> 213 events, and every
    wave confirms sooner (converged at 300 -> 85 sim-ms).  A change
    that moves either is a behaviour change and must re-record the pin
    on purpose, saying why.

    Every way onto the heap is wrapped (``schedule``, ``post`` and
    ``file``), so every fired event is seen whichever one scheduled
    it."""
    fire_log = hashlib.sha256()

    def logged(enter):
        def logged_enter(sim, when, callback, *args):
            name = getattr(callback, "__qualname__",
                           type(callback).__qualname__)

            def fire(*fire_args):
                fire_log.update(f"{sim.now} {name}\n".encode())
                callback(*fire_args)

            return enter(sim, when, fire, *args)
        return logged_enter

    for entry in ("schedule", "post", "file"):
        monkeypatch.setattr(Simulator, entry,
                            logged(getattr(Simulator, entry)))
    assert converge_mitigation(32) == MITIGATION_32
    assert fire_log.hexdigest() == MITIGATION_32_FIRE_LOG


MITIGATION_32 = {'converged': True,
                 'last_ack_ns': 85000000,
                 'converged_ns': 85000000,
                 'restarts': 1,
                 'replays': 1,
                 'stale_nacks': 1,
                 'retransmits': 25,
                 'events': 213,
                 'in_sync': True}

MITIGATION_32_FIRE_LOG = \
    'bc5af9dd8ab79b2c63fd8efc86cb3a1b93b6a65bcd9c479fe145f07a23a80cd3'
