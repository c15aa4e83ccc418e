"""Lossy control-channel scenario: convergence under faults.

The paper's control loop is coarse-timescale: enclaves observe,
the controller recomputes, new parameters roll out (Sections 2.1,
3.5).  This scenario exercises the whole :mod:`repro.control` stack
end to end on a deterministic simulator:

* a controller managing several enclaves over a ``SimTransport`` with
  injected message loss, duplication and jitter;
* PIAS installed everywhere; synthetic flows are pushed through each
  enclave so the real per-message ``size`` state accumulates, is
  sampled by the ``flow_sizes`` telemetry feed, and drives the
  :class:`~repro.functions.pias.PiasThresholdLoop`;
* WCMP installed at the first host; a ``path_capacity`` feed switches
  from symmetric to asymmetric mid-run, so the
  :class:`~repro.functions.wcmp.WcmpWeightLoop` must re-weight;
* one enclave restart mid-run (all data-plane soft state lost,
  desired state replayed on reconnect);
* a deliberately stale-epoch install at the end, which must be
  rejected without touching the data plane.

The run *converges* when every enclave's applied epoch and installed
state (PIAS thresholds, WCMP weights) equal the controller's desired
state despite the faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..control import (FaultInjector, InstallFunction, STALE_EPOCH,
                       schedule_restart)
from ..core.controller import Controller
from ..core.stage import Classifier, Stage
from ..functions.pias import (PIAS_FUNCTION_NAME, PIAS_GLOBAL_SCHEMA,
                              PIAS_MESSAGE_SCHEMA, PiasThresholdLoop,
                              pias_action, pias_flow_size_source)
from ..functions.wcmp import (FUNCTION_NAME as WCMP_FUNCTION_NAME,
                              WCMP_GLOBAL_SCHEMA, WcmpWeightLoop,
                              wcmp_action)
from ..netsim.simulator import MS, Simulator

#: Fixed flow-size population (bytes): a search-like mix of short
#: queries, medium responses, and long background transfers.
FLOW_SIZE_POPULATION = (2_000, 2_000, 2_000, 6_000, 20_000, 60_000,
                        200_000, 1_000_000)

_PACKET_BYTES = 1500


class _DemoPacket:
    """Minimal packet: just the schema fields PIAS touches."""

    __slots__ = ("size", "priority", "drop", "to_controller")

    def __init__(self, size: int) -> None:
        self.size = size
        self.priority = 7
        self.drop = 0
        self.to_controller = 0


class _FlowDriver:
    """Feeds synthetic flows through one enclave's PIAS pipeline.

    The driver is a real Eden *stage* (Section 3.3): it classifies
    each synthetic message with an installed classification rule, so
    packets take the full stage -> enclave -> interpreter data path —
    and with telemetry enabled, each packet tick opens a root span so
    the three steps nest into one trace.
    """

    def __init__(self, sim: Simulator, host: str, enclave,
                 interval_ns: int, telemetry=None) -> None:
        self.sim = sim
        self.host = host
        self.enclave = enclave
        self.interval_ns = interval_ns
        self.stage = Stage(f"demo.{host}",
                           classifier_fields=("kind",),
                           metadata_fields=("msg_id",),
                           telemetry=telemetry)
        self.stage.create_stage_rule("flow", Classifier.of(kind="flow"),
                                     "flow", ["msg_id"])
        self._tracer = (telemetry.tracer
                        if telemetry is not None and telemetry.enabled
                        else None)
        self._flow_seq = 0
        self._remaining = 0
        self._flow_key: Optional[tuple] = None
        self.packets = 0
        sim.post(interval_ns, self._tick)

    def _next_flow(self) -> None:
        size = FLOW_SIZE_POPULATION[
            self.sim.rng.randrange(len(FLOW_SIZE_POPULATION))]
        self._flow_seq += 1
        self._flow_key = (self.stage.name, self._flow_seq)
        self._remaining = size

    def _send_one(self, take: int) -> None:
        cls = self.stage.classify({"kind": "flow"},
                                  msg_id=self._flow_seq)
        self.enclave.process_packet(_DemoPacket(take), cls,
                                    now_ns=self.sim.now)

    def _tick(self) -> None:
        if self._remaining <= 0:
            if self._flow_key is not None and \
                    PIAS_FUNCTION_NAME in self.enclave.functions():
                self.enclave.end_message(PIAS_FUNCTION_NAME,
                                         self._flow_key)
            self._next_flow()
        take = min(_PACKET_BYTES, self._remaining)
        self._remaining -= take
        if self._tracer is not None:
            with self._tracer.span("message.packet", host=self.host,
                                   flow=self._flow_seq):
                self._send_one(take)
        else:
            self._send_one(take)
        self.packets += 1
        self.sim.post(self.interval_ns, self._tick)


@dataclass
class HostOutcome:
    applied_epoch: int
    desired_epoch: int
    pias_in_sync: bool
    wcmp_in_sync: bool
    restarts: int
    stale_rejections: int

    @property
    def converged(self) -> bool:
        return (self.applied_epoch == self.desired_epoch and
                self.pias_in_sync and self.wcmp_in_sync)


@dataclass
class ScenarioResult:
    hosts: Dict[str, HostOutcome] = field(default_factory=dict)
    channel: Dict[str, int] = field(default_factory=dict)
    faults: Dict[str, object] = field(default_factory=dict)
    pias_updates: int = 0
    wcmp_updates: int = 0
    reports_received: int = 0
    replays: int = 0
    stale_rejected: bool = False
    final_thresholds: List[Tuple[int, int]] = field(
        default_factory=list)
    final_weights: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return (bool(self.hosts) and self.stale_rejected and
                all(h.converged for h in self.hosts.values()))


def _pias_in_sync(controller: Controller, host: str) -> bool:
    ds = controller.plane.desired(host)
    want = ds.globals.get(
        (PIAS_FUNCTION_NAME, "priorities", "records", None))
    if want is None:
        return False
    flat: List[int] = []
    for row in want:
        flat.extend(row)
    enclave = controller.enclave(host)
    if PIAS_FUNCTION_NAME not in enclave.functions():
        return False
    store = enclave.function(PIAS_FUNCTION_NAME).global_store
    return list(store.array("priorities")) == flat


def _wcmp_in_sync(controller: Controller, host: str,
                  key: tuple) -> bool:
    ds = controller.plane.desired(host)
    want = ds.globals.get(
        (WCMP_FUNCTION_NAME, "paths", "keyed", key))
    if want is None:
        return True  # wcmp not managed at this host
    enclave = controller.enclave(host)
    if WCMP_FUNCTION_NAME not in enclave.functions():
        return False
    store = enclave.function(WCMP_FUNCTION_NAME).global_store
    return list(store.keyed_array("paths", key)) == list(want)


def run_scenario(seed: int = 1, loss: float = 0.10,
                 duration_ms: int = 400, num_hosts: int = 3,
                 report_interval_ms: int = 5,
                 restart_host_index: int = 1,
                 telemetry=None) -> ScenarioResult:
    """Run the lossy-channel convergence scenario; see module doc.

    Pass a :class:`repro.telemetry.Telemetry` bundle to record the
    run: every layer (stage, enclave, interpreter, control channel,
    simulator) publishes into its registry, and each packet tick is
    traced as a ``message.packet`` span tree.
    """
    sim = Simulator(seed=seed)
    sim.bind_telemetry(telemetry)
    faults = FaultInjector(rng=sim.rng, drop_prob=loss,
                           dup_prob=0.02, extra_delay_ns=200_000)
    controller = Controller(transport="sim", sim=sim, faults=faults,
                            telemetry=telemetry)

    from ..core.accounting import CpuAccounting
    from ..core.enclave import Enclave
    hosts = [f"h{i + 1}" for i in range(num_hosts)]
    drivers = []
    for i, host in enumerate(hosts):
        accounting = None
        if telemetry is not None and telemetry.enabled:
            accounting = CpuAccounting(enabled=True,
                                       registry=telemetry.registry)
        enclave = Enclave(f"{host}.enclave", clock=sim.clock,
                          accounting=accounting, telemetry=telemetry)
        controller.register_enclave(host, enclave)
        agent = controller.agent(host)
        agent.add_telemetry_source(
            "flow_sizes", pias_flow_size_source(enclave))
        drivers.append(_FlowDriver(sim, host, enclave,
                                   interval_ns=1 * MS,
                                   telemetry=telemetry))

    # Initial PIAS rollout: guessed thresholds, corrected by telemetry.
    initial = Controller.pias_thresholds([10_000, 100_000, 1_000_000])
    for host in hosts:
        controller.plane.install_function(
            host, PIAS_FUNCTION_NAME, pias_action,
            message_schema=PIAS_MESSAGE_SCHEMA,
            global_schema=PIAS_GLOBAL_SCHEMA)
        controller.plane.set_global_records(
            host, PIAS_FUNCTION_NAME, "priorities", initial)
        controller.plane.install_rule(host, "*", PIAS_FUNCTION_NAME)

    # WCMP at the first host: equal weights until telemetry reveals
    # the asymmetric path capacities.
    wcmp_host = hosts[0]
    wcmp_key = (1, 2)
    controller.plane.install_function(
        wcmp_host, WCMP_FUNCTION_NAME, wcmp_action,
        global_schema=WCMP_GLOBAL_SCHEMA)
    controller.plane.set_global_keyed(
        wcmp_host, WCMP_FUNCTION_NAME, "paths", wcmp_key,
        (1, 500, 2, 500))

    asym_after_ns = duration_ms * MS // 4

    def path_capacity() -> List[Tuple[int, int]]:
        if sim.now < asym_after_ns:
            return [(1, 5_000_000_000), (2, 5_000_000_000)]
        return [(1, 9_000_000_000), (2, 1_000_000_000)]

    controller.agent(wcmp_host).add_telemetry_source(
        "path_capacity", path_capacity)

    pias_loop = PiasThresholdLoop(controller.plane, hosts=hosts,
                                  min_samples=16)
    wcmp_loop = WcmpWeightLoop(controller.plane, wcmp_key,
                               [wcmp_host])
    controller.plane.add_loop(pias_loop)
    controller.plane.add_loop(wcmp_loop)

    for host in hosts:
        controller.agent(host).start_reporting(
            report_interval_ms * MS)

    restart_host = hosts[restart_host_index % num_hosts]
    schedule_restart(sim, duration_ms * MS // 2,
                     controller.agent(restart_host))

    sim.run(until_ns=duration_ms * MS)

    # Quiesce: freeze the control loops and stop injecting new
    # faults, then let retransmits drain within the deadline (the
    # convergence claim is about the lossy window; the drain window
    # is loss-free, reconfiguration-free and bounded).
    controller.plane.clear_loops()
    faults.drop_prob = 0.0
    faults.dup_prob = 0.0
    sim.run(until_ns=(duration_ms + 100) * MS)

    # A stale-epoch install must be rejected without side effects.
    victim = hosts[0]
    agent = controller.agent(victim)
    before = controller.enclave(victim).function(
        PIAS_FUNCTION_NAME).global_store.snapshot()
    controller.plane.endpoint.send(
        agent.address,
        InstallFunction(host=victim, epoch=0, name="rogue",
                        source_fn=pias_action,
                        kwargs={"message_schema": PIAS_MESSAGE_SCHEMA,
                                "global_schema": PIAS_GLOBAL_SCHEMA}))
    sim.run(until_ns=(duration_ms + 200) * MS)
    after = controller.enclave(victim).function(
        PIAS_FUNCTION_NAME).global_store.snapshot()
    stale_rejected = (
        agent.stale_rejections > 0 and before == after and
        "rogue" not in controller.enclave(victim).functions() and
        controller.plane.stale_nacks_seen > 0)

    result = ScenarioResult(
        channel=controller.plane.endpoint.stats.as_dict(),
        faults=faults.summary(),
        pias_updates=pias_loop.updates_pushed,
        wcmp_updates=wcmp_loop.updates_pushed,
        reports_received=controller.plane.reports_received,
        replays=controller.plane.replays,
        stale_rejected=stale_rejected,
        final_thresholds=list(pias_loop.current or ()),
        final_weights=list(wcmp_loop.current or ()))
    for host in hosts:
        agent = controller.agent(host)
        result.hosts[host] = HostOutcome(
            applied_epoch=agent.applied_epoch,
            desired_epoch=controller.plane.desired(host).epoch,
            pias_in_sync=_pias_in_sync(controller, host),
            wcmp_in_sync=_wcmp_in_sync(controller, host, wcmp_key),
            restarts=agent.restarts,
            stale_rejections=agent.stale_rejections)
    return result


def format_result(result: ScenarioResult) -> str:
    lines = ["control-demo: PIAS/WCMP convergence over a lossy "
             "control channel", ""]
    lines.append(f"{'host':<6} {'epoch':>11} {'pias':>6} "
                 f"{'wcmp':>6} {'restarts':>9} {'stale':>6}")
    for host, h in sorted(result.hosts.items()):
        lines.append(
            f"{host:<6} {h.applied_epoch:>4}/{h.desired_epoch:<4}"
            f"   {'ok' if h.pias_in_sync else 'DIVERGED':>6} "
            f"{'ok' if h.wcmp_in_sync else 'DIVERGED':>6} "
            f"{h.restarts:>9} {h.stale_rejections:>6}")
    ch = result.channel
    lines.append("")
    lines.append(
        f"channel: {ch['sent']} sent, {ch['retransmits']} "
        f"retransmits, {ch['acked']} acked, {ch['nacked']} nacked, "
        f"{ch['duplicates_dropped']} dups dropped")
    lines.append(
        f"faults:  {result.faults['dropped']} dropped, "
        f"{result.faults['duplicated']} duplicated, "
        f"{result.faults['partition_drops']} partition drops")
    lines.append(
        f"loops:   {result.reports_received} reports in, "
        f"{result.pias_updates} PIAS updates, "
        f"{result.wcmp_updates} WCMP updates, "
        f"{result.replays} desired-state replays")
    lines.append(f"final thresholds: {result.final_thresholds}")
    lines.append(f"final weights:    {result.final_weights}")
    lines.append(f"stale-epoch install rejected: "
                 f"{'yes' if result.stale_rejected else 'NO'}")
    lines.append(f"converged: {'yes' if result.converged else 'NO'}")
    return "\n".join(lines)
