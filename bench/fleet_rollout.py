"""``fleet_rollout``: program a fleet of real enclaves, then probe it.

``ShardedFleet(hosts, shards, make_enclave=real Enclave)`` with 20%
loss, 5% duplication and one restart during wave 2.  The DDoS
``mitigation_program`` is rolled out by ``FleetOrchestrator`` over
``RolloutPlan.by_percent`` with ``EpochHealthGate``, in chunks of
simulated time until ``DONE``; a stale-epoch probe follows.  Every
host's enclave then processes an eight-packet probe — spoofed packets
must be dropped, genuine victim-bound ones steered — still inside
the timed region, so compilation deferred to the first packet is
paid in the measurement instead of disappearing.

This is the only workload where ``control`` and ``fleet`` do the work
and where cold ``install_function`` is timed.  Real enclaves, not
``fleet.bench.LiteEnclave``: the rollout must pay for compilation.

The job is deterministic in its seed and repeated; a metric sums the
per-chunk first quartiles over all repeats and adds the probe's.
Repeats alternate the probe between ``process_packet`` (scalar) and
``process_batch`` (batch); the rollout itself has one data path.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Tuple

import oracles
import probes
from timing import SliceClock, build_seconds, quartiles, typical, \
    typical_per_index
from tracing import Tracer, direct
from workloads import (FLEET_QUEUE_IDS, FLEET_VICTIM_IP, build_packets,
                       fleet_probe, sizes)

from repro.control.faults import schedule_restart
from repro.control.messages import InstallFunction
from repro.core.enclave import Enclave
from repro.fleet import (DONE, EpochHealthGate, FleetOrchestrator,
                         RolloutConfig, RolloutPlan, ShardedFleet,
                         TERMINAL)
from repro.functions.ddos import mitigation_program
from repro.netsim.simulator import MS

LOSS = 0.20
DUPLICATION = 0.05
REPORT_INTERVAL_NS = 20 * MS
CHUNK_NS = 50 * MS
HORIZON_NS = 10_000 * MS
STALE_PROBE_CAP_NS = 2_000 * MS


class Rig:
    """A built fleet with its orchestrator armed but not started."""

    def __init__(self, seed: int, n_hosts: int, n_shards: int) -> None:
        self.fleet = ShardedFleet(
            n_hosts, n_shards,
            make_enclave=lambda host: Enclave(f"{host}.enclave"),
            seed=seed, loss=LOSS, dup_prob=DUPLICATION,
            report_interval_ns=REPORT_INTERVAL_NS)
        fleet = self.fleet
        self.host_ip = {host: index + 1
                        for index, host in enumerate(fleet.hosts)}
        plan = RolloutPlan.by_percent(fleet.hosts)
        program = mitigation_program(
            FLEET_VICTIM_IP, self.host_ip.__getitem__,
            queue_ids=FLEET_QUEUE_IDS)
        self.orch = FleetOrchestrator(
            fleet.plane, plan, program,
            scheduler=fleet.controller_sim,
            gate=EpochHealthGate(
                max_report_age_ns=3 * REPORT_INTERVAL_NS),
            config=RolloutConfig(poll_interval_ns=5 * MS,
                                 wave_timeout_ns=4_000 * MS))
        # One enclave restarts while its wave is in flight, so the
        # wave's sends race the session reset.
        wave = plan.waves[min(1, len(plan.waves) - 1)]
        self.restarted = wave.hosts[seed % len(wave.hosts)]

        def arm_restart(_orch, record) -> None:
            if record.index != wave.index:
                return
            agent = fleet.agents[self.restarted]
            agent_sim = fleet.fabric.scheduler_for(agent.address)
            schedule_restart(agent_sim, agent_sim.now + 10 * MS, agent)

        self.orch.on_wave_start = arm_restart


def run_job(clock: SliceClock, rig: Rig, seed: int, batch_probe: bool,
            unit=direct
            ) -> Tuple[List[float], float, Dict[str, object]]:
    """Rollout to ``DONE``, stale-epoch probe, data probe.

    Returns the chunks' scaled seconds, the data probe's, and
    everything simulated the job produced (which must repeat
    exactly).
    """
    fleet, orch, plane = rig.fleet, rig.orch, rig.fleet.plane
    fabric = fleet.fabric
    chunks: List[float] = []

    def advance() -> None:
        index = len(chunks)
        chunks.append(clock.timed(lambda: unit(
            index, lambda: fleet.run(
                until_ns=fabric.now + CHUNK_NS)))[0])

    gc.collect()
    orch.start()
    while orch.state not in TERMINAL and fabric.now < HORIZON_NS:
        advance()
    # Epoch fencing under the same loss: a wave-style install at a
    # long-stale epoch to the restarted, reconverged host must be
    # Nacked stale.
    stale_before = plane.stale_nacks_seen
    plane.endpoint.send(
        plane.agent_addr(rig.restarted),
        InstallFunction(host=rig.restarted, epoch=1,
                        name="zombie_wave", source_fn=None))
    deadline = fabric.now + STALE_PROBE_CAP_NS
    while plane.stale_nacks_seen == stale_before and \
            fabric.now < deadline:
        advance()

    ips = [rig.host_ip[host] for host in fleet.hosts]
    specs = list(fleet_probe(seed, ips))
    packets = [build_packets(s) for s in specs]
    enclaves = [fleet.enclaves[host] for host in fleet.hosts]

    def probe() -> None:
        for enclave, pkts in zip(enclaves, packets):
            if batch_probe:
                enclave.process_batch([(p, ()) for p in pkts])
            else:
                for packet in pkts:
                    enclave.process_packet(packet)

    probe_s = clock.timed(lambda: unit(len(chunks), probe))[0]

    mishandled = 0
    for host_ip, host_specs, pkts in zip(ips, specs, packets):
        wanted = []
        for spec in host_specs:
            model = oracles.fresh(spec)
            oracles.spoof_guard(model, host_ip)
            oracles.source_limit(model, FLEET_VICTIM_IP,
                                 FLEET_QUEUE_IDS)
            wanted.append(oracles.expected(model))
        mishandled += oracles.mismatches(
            [oracles.observe(p) for p in pkts], wanted)
    out_of_sync = sum(not plane.in_sync(host) for host in fleet.hosts)
    stats = plane.endpoint.stats
    return chunks, probe_s, {
        "state": orch.state,
        "converge_sim_ns": orch.time_to_converged_ns,
        "last_ack_sim_ns": orch.time_to_last_ack_ns,
        "events": fabric.events_processed,
        "windows": fabric.windows,
        "msgs_sent": stats.sent,
        "retransmits": stats.retransmits,
        "replays": plane.replays,
        "stale_nacks":
            sum(s.stale_nacks for s in orch.host_status.values())
            + plane.stale_nacks_seen - stale_before,
        "restarts": sum(a.restarts for a in fleet.agents.values()),
        "out_of_sync": out_of_sync,
        "mishandled": mishandled,
        "probe_packets": sum(map(len, packets)),
    }


def _checks(outcomes: List[Dict[str, object]]) -> Dict[str, bool]:
    first = outcomes[0]
    return {
        "repeats_give_identical_results":
            all(o == first for o in outcomes),
        "rollout_converged": first["state"] == DONE,
        "every_host_in_sync": first["out_of_sync"] == 0,
        "probe_dropped_spoofed_steered_genuine":
            first["mishandled"] == 0,
        "stale_epoch_fenced": first["stale_nacks"] >= 1,
        "one_enclave_restarted": first["restarts"] >= 1,
    }


def run(seed: int, seconds: int, smoke: bool) -> Dict[str, object]:
    """Untraced run: the end-to-end metrics."""
    size = sizes("fleet_rollout", seconds, smoke)
    n_hosts = size["hosts"]

    def build() -> Rig:
        return Rig(seed, n_hosts, size["shards"])

    clock = SliceClock()
    setup = build_seconds(clock, build, size["setup_builds"])
    rollouts: List[List[float]] = []
    probes_s: Dict[bool, List[float]] = {False: [], True: []}
    outcomes = []
    for repeat in range(size["repeats"]):
        # One fleet alive at a time, or peak RSS hinges on when the
        # collector happens to free the previous one.
        gc.collect()
        batch_probe = bool(repeat % 2)
        chunks, probe_s, outcome = run_job(clock, build(), seed,
                                           batch_probe)
        rollouts.append(chunks)
        probes_s[batch_probe].append(probe_s)
        outcomes.append(outcome)

    rollout_s = sum(typical_per_index(rollouts))
    totals = [sum(r) for r in rollouts]
    per_host = 1e6 / n_hosts

    def us_per_host(probe_seconds: List[float]) -> Dict[str, float]:
        probe = typical(probe_seconds)["value"]
        stats = quartiles([(t + probe) * per_host for t in totals])
        stats["value"] = (rollout_s + probe) * per_host
        return stats

    units = sum(n_hosts + o["probe_packets"] for o in outcomes)
    failed = sum(o["out_of_sync"] + o["mishandled"] for o in outcomes)
    return {
        "attempted": units,
        "failed": failed,
        "checks": _checks(outcomes),
        "metrics": {
            "setup_s": setup,
            "scalar_us_per_unit": us_per_host(probes_s[False]),
            "batch_us_per_unit": us_per_host(probes_s[True]),
        },
        "slowdown_median": clock.slowdown_median,
    }


def run_traced(seed: int, seconds: int, smoke: bool,
               trace_path: str) -> Dict[str, object]:
    """One untraced and one traced job: the per-layer metrics."""
    size = sizes("fleet_rollout", seconds, smoke)
    n_hosts = size["hosts"]
    clock = SliceClock()
    chunks, probe_s, plain = run_job(
        clock, Rig(seed, n_hosts, size["shards"]), seed, False)

    rig = Rig(seed, n_hosts, size["shards"])
    tracer = Tracer(stride=1)
    tracer.wrap(rig.fleet.fabric, "run", "fleet.run")
    for enclave in rig.fleet.enclaves.values():
        tracer.wrap(enclave, "install_function",
                    "core.enclave.install")
        tracer.wrap(enclave, "replace_function",
                    "core.enclave.install")
        tracer.wrap(enclave, "process_packet",
                    "core.enclave.process_packet")
    traced_chunks, traced_probe_s, traced = run_job(
        clock, rig, seed, False, tracer.unit)
    tracer.unwrap_all()
    trace = tracer.summary(clock.slowdown_median)
    tracer.write_jsonl(trace_path)

    enclaves = list(rig.fleet.enclaves.values())
    rollout_s = sum(chunks)
    pkt = "core.enclave.process_packet"
    outcomes = [plain, traced]
    failed = sum(o["out_of_sync"] + o["mishandled"] for o in outcomes)
    metrics = {
        "lang.ops_per_pkt":
            probes.function_stats(enclaves, "ops_executed")
            / plain["probe_packets"],
        "lang.faults": probes.function_stats(enclaves, "faults"),
        "core.enclave.install_us":
            trace.median_ns("core.enclave.install") / 1e3,
        "core.enclave.pkt_ns_p50": trace.median_ns(pkt),
        "core.enclave.pkt_ns_p99": trace.percentile_ns(pkt, 99),
        # Guard and limiter both run on a chained packet.
        "core.enclave.chain_share":
            probes.function_stats(enclaves, "invocations") / 2
            / plain["probe_packets"],
        "core.enclave.drop_share":
            sum(e.packets_dropped for e in enclaves)
            / plain["probe_packets"],
        "core.enclave.self_share":
            trace.layer_self_share("core.enclave"),
        "control.msgs_sent": plain["msgs_sent"],
        "control.retransmit_share":
            plain["retransmits"] / plain["msgs_sent"],
        "control.stale_nacks": plain["stale_nacks"],
        "control.replays": plain["replays"],
        "fleet.events_per_s": plain["events"] / rollout_s,
        "fleet.windows": plain["windows"],
        "fleet.install_share": trace.share("core.enclave.install"),
        "fleet.probe_ns_per_pkt":
            probe_s * 1e9 / plain["probe_packets"],
        "fleet.converge_sim_ms": plain["converge_sim_ns"] / MS,
        "bench.self_share": trace.layer_self_share("bench"),
        "trace_overhead_pct": 100.0 * (
            (sum(traced_chunks) + traced_probe_s)
            / (rollout_s + probe_s) - 1.0),
    }
    return {
        "attempted":
            sum(n_hosts + o["probe_packets"] for o in outcomes),
        "failed": failed,
        "checks": _checks(outcomes),
        "metrics": metrics,
        "slowdown_median": clock.slowdown_median,
    }
