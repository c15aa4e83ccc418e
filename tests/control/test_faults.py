"""Fault-injection harness: partitions, restarts, desired-state replay."""

import pytest

from repro.control import (ChannelConfig, Envelope, FaultInjector,
                           Hello, schedule_restart)
from repro.core import Controller, Enclave
from repro.lang import AccessLevel, Field, Lifetime, schema
from repro.netsim.simulator import MS, Simulator

pytestmark = pytest.mark.control_faults


# Module-level so the enclave's quotation step can recover the source.
def tag_priority(packet, _global):
    packet.priority = _global.level


TAG_SCHEMA = schema("Tag", Lifetime.GLOBAL, [
    Field("level", AccessLevel.READ_ONLY, default=1),
])

FAST = ChannelConfig(rto_ns=1 * MS, backoff_cap_ns=8 * MS,
                     jitter_ns=100_000)


def make_cluster(seed=1, num_hosts=1, **fault_kwargs):
    sim = Simulator(seed=seed)
    faults = FaultInjector(rng=sim.rng, scheduler=sim, **fault_kwargs)
    controller = Controller(transport="sim", sim=sim, faults=faults,
                            channel_config=FAST)
    for i in range(num_hosts):
        controller.register_enclave(f"h{i + 1}",
                                    Enclave(f"h{i + 1}.enclave"))
    return sim, faults, controller


class TestInjector:
    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultInjector(dup_prob=-0.1)

    def test_drop_everything(self):
        faults = FaultInjector(drop_prob=1.0)
        env = Envelope("a", "b", 1, 0, Hello(host="x"))
        assert faults.deliveries(env) == 0
        assert faults.dropped == 1

    def test_duplicate_everything(self):
        faults = FaultInjector(dup_prob=1.0)
        env = Envelope("a", "b", 1, 0, Hello(host="x"))
        assert faults.deliveries(env) == 2
        assert faults.duplicated == 1

    def test_partition_beats_probabilities(self):
        faults = FaultInjector(drop_prob=0.0, dup_prob=1.0)
        faults.partition("b")
        assert faults.is_partitioned("b")
        env = Envelope("a", "b", 1, 0, Hello(host="x"))
        assert faults.deliveries(env) == 0          # dst cut off
        env = Envelope("b", "a", 1, 0, Hello(host="x"))
        assert faults.deliveries(env) == 0          # src cut off
        assert faults.partition_drops == 2
        assert faults.duplicated == 0
        faults.heal("b")
        assert faults.deliveries(
            Envelope("a", "b", 1, 0, Hello(host="x"))) == 2

    def test_summary_counts(self):
        faults = FaultInjector(drop_prob=1.0)
        faults.partition("x")
        faults.deliveries(Envelope("a", "b", 1, 0, Hello(host="h")))
        summary = faults.summary()
        assert summary["dropped"] == 1
        assert summary["partitioned"] == ["x"]


class TestPartitionRecovery:
    def test_install_rides_out_a_partition(self):
        sim, faults, controller = make_cluster(seed=2)
        agent = controller.agent("h1")
        faults.partition(agent.address)
        (pending,) = controller.install_function(
            "h1", tag_priority, global_schema=TAG_SCHEMA)
        sim.run(until_ns=10 * MS)
        assert not pending.done
        assert faults.partition_drops > 0
        assert "tag_priority" not in controller.enclave(
            "h1").functions()
        faults.heal(agent.address)
        sim.run(until_ns=100 * MS)
        assert pending.acked
        assert "tag_priority" in controller.enclave("h1").functions()
        assert controller.plane.endpoint.stats.retransmits > 0

    def test_updates_queued_during_partition_all_land(self):
        sim, faults, controller = make_cluster(seed=3)
        controller.install_function("h1", tag_priority,
                                    global_schema=TAG_SCHEMA)
        sim.run(until_ns=20 * MS)
        agent = controller.agent("h1")
        faults.partition(agent.address)
        for level in (2, 3, 4):
            controller.set_global("h1", "tag_priority", "level",
                                  level)
        sim.run(until_ns=40 * MS)
        faults.heal(agent.address)
        sim.run(until_ns=400 * MS)
        enclave = controller.enclave("h1")
        assert enclave.query_global("tag_priority")["level"] == 4
        assert agent.applied_epoch == \
            controller.plane.desired("h1").epoch
        assert controller.plane.pending_count() == 0


class TestRestartReplay:
    def test_restart_loses_state_then_replay_restores_it(self):
        sim, faults, controller = make_cluster(seed=4)
        controller.install_function("h1", tag_priority,
                                    global_schema=TAG_SCHEMA)
        controller.install_rule("h1", "*", "tag_priority")
        controller.set_global("h1", "tag_priority", "level", 5)
        sim.run(until_ns=50 * MS)
        enclave = controller.enclave("h1")
        assert enclave.query_global("tag_priority")["level"] == 5

        agent = controller.agent("h1")
        agent.restart()
        # Soft state is gone until the replay lands.
        assert enclave.functions() == []
        assert agent.applied_epoch == 0

        sim.run(until_ns=300 * MS)
        assert agent.restarts == 1
        assert controller.plane.replays >= 1
        assert controller.plane.hellos_handled >= 1
        assert enclave.functions() == ["tag_priority"]
        assert len(enclave.query_rules(0)) == 1
        assert enclave.query_global("tag_priority")["level"] == 5
        assert agent.applied_epoch == \
            controller.plane.desired("h1").epoch

    def test_restart_under_loss_still_converges(self):
        sim, faults, controller = make_cluster(seed=5, drop_prob=0.2)
        controller.install_function("h1", tag_priority,
                                    global_schema=TAG_SCHEMA)
        controller.set_global("h1", "tag_priority", "level", 7)
        schedule_restart(sim, 30 * MS, controller.agent("h1"))
        sim.run(until_ns=60 * MS)
        faults.drop_prob = 0.0      # bounded drain window
        sim.run(until_ns=1_000 * MS)
        enclave = controller.enclave("h1")
        assert controller.agent("h1").restarts == 1
        assert enclave.query_global("tag_priority")["level"] == 7
        assert controller.agent("h1").applied_epoch == \
            controller.plane.desired("h1").epoch

    def test_schedule_restart_fires_at_absolute_time(self):
        sim, faults, controller = make_cluster(seed=6)
        agent = controller.agent("h1")
        schedule_restart(sim, 10 * MS, agent)
        sim.run(until_ns=9 * MS)
        assert agent.restarts == 0
        sim.run(until_ns=200 * MS)
        assert agent.restarts == 1


class TestScheduledHeals:
    """Partition windows: scheduled heals with generation fencing."""

    def test_partition_heals_itself_at_heal_at_ns(self):
        sim, faults, controller = make_cluster(seed=7)
        agent = controller.agent("h1")
        faults.partition(agent.address, heal_at_ns=30 * MS)
        (pending,) = controller.install_function(
            "h1", tag_priority, global_schema=TAG_SCHEMA)
        sim.run(until_ns=25 * MS)
        assert not pending.done
        assert faults.is_partitioned(agent.address)
        sim.run(until_ns=300 * MS)
        assert not faults.is_partitioned(agent.address)
        assert faults.scheduled_heals_fired == 1
        assert pending.acked
        assert "tag_priority" in controller.enclave("h1").functions()

    def test_partition_window_bounds_the_outage(self):
        sim, faults, controller = make_cluster(seed=8)
        agent = controller.agent("h1")
        faults.partition_window(agent.address, 10 * MS, 40 * MS)
        (pending,) = controller.install_function(
            "h1", tag_priority, global_schema=TAG_SCHEMA)
        # Before the window opens the channel is clean...
        sim.run(until_ns=8 * MS)
        assert pending.acked
        # ...inside it, nothing flows...
        sim.run(until_ns=20 * MS)
        assert faults.is_partitioned(agent.address)
        (stuck,) = controller.set_global("h1", "tag_priority",
                                         "level", 9)
        sim.run(until_ns=35 * MS)
        assert not stuck.done
        # ...and after heal_at_ns the queued update lands.
        sim.run(until_ns=400 * MS)
        assert stuck.acked
        assert controller.enclave(
            "h1").query_global("tag_priority")["level"] == 9

    def test_stale_scheduled_heal_cannot_heal_newer_partition(self):
        sim, faults, controller = make_cluster(seed=9)
        agent = controller.agent("h1")
        faults.partition(agent.address, heal_at_ns=50 * MS)
        # An operator heals early and installs a NEW partition; the
        # old timer must not heal it (generation fencing).
        sim.run(until_ns=10 * MS)
        faults.heal(agent.address)
        faults.partition(agent.address)
        sim.run(until_ns=200 * MS)
        assert faults.is_partitioned(agent.address)
        assert faults.scheduled_heals_fired == 0

    def test_manual_heal_wins_and_timer_is_orphaned(self):
        sim, faults, controller = make_cluster(seed=10)
        agent = controller.agent("h1")
        faults.partition(agent.address, heal_at_ns=100 * MS)
        sim.run(until_ns=20 * MS)
        faults.heal(agent.address)
        assert not faults.is_partitioned(agent.address)
        sim.run(until_ns=300 * MS)
        # The orphaned timer fired as a no-op.
        assert faults.scheduled_heals_fired == 0
        assert not faults.is_partitioned(agent.address)

    def test_window_validation(self):
        sim, faults, _ = make_cluster(seed=11)
        with pytest.raises(ValueError):
            faults.partition_window("agent:h1", 20 * MS, 20 * MS)
        unscheduled = FaultInjector()
        with pytest.raises(ValueError):
            unscheduled.partition("agent:h1", heal_at_ns=5 * MS)
        with pytest.raises(ValueError):
            unscheduled.partition_window("agent:h1", 0, 5 * MS)

    def test_summary_counts_scheduled_heals(self):
        sim, faults, controller = make_cluster(seed=12)
        faults.partition("agent:h1", heal_at_ns=5 * MS)
        faults.partition_window("agent:h1", 10 * MS, 15 * MS)
        sim.run(until_ns=50 * MS)
        assert faults.summary()["scheduled_heals_fired"] == 2
