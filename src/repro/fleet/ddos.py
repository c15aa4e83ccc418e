"""DDoS-mitigation scenario: goodput recovers wave by wave.

The headline fleet workload.  A victim host behind a modest access
link serves one legitimate bulk TCP flow while a fleet of compromised
sender hosts blasts it with UDP — most of it source-spoofed.  The
attack saturates the victim's downlink and the legitimate flow's
goodput collapses.  Mitigation is the paper's end-host answer: the
controller stages a rollout of the composed spoof-guard +
per-source-rate-limit function (:mod:`repro.functions.ddos`) across
the *attacker* enclaves — canary first, health-gated, over a lossy
control channel — and the victim's goodput recovers wave by wave as
each tranche of attackers starts policing its own egress.

Everything runs on one seeded simulator: the attack traffic, the TCP
flow, the control channel (with injected loss) and the rollout — so
the recovery figure is bit-for-bit reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..apps.workloads import BulkSender, SinkServer
from ..control import ChannelConfig, FaultInjector
from ..core.controller import Controller
from ..core.enclave import Enclave
from ..functions.ddos import mitigation_program
from ..netsim.packet import PROTO_UDP, Packet
from ..netsim.simulator import GBPS, MBPS, MS, Simulator
from ..netsim.topology import star
from ..stack.netstack import HostStack
from ..telemetry import NULL_TELEMETRY, Telemetry
from .health import EpochHealthGate
from .orchestrator import (DONE, FleetOrchestrator, RolloutConfig,
                           TERMINAL)
from .plan import RolloutPlan

VICTIM_PORT = 5001


@dataclass
class DdosConfig:
    """Scenario knobs (defaults shape the recovery figure)."""

    seed: int = 1
    attackers: int = 8
    #: Victim's access link; the contended resource.
    victim_link_bps: int = 1 * GBPS
    #: Per-attacker UDP offered load; ``None`` auto-scales so the
    #: fleet sum is ~1.2x the victim link whatever the fleet size.
    #: That ratio is chosen so *each* wave visibly frees capacity —
    #: an attack that swamps the link many times over only recovers
    #: on the final wave, which makes a boring figure.
    attack_rate_bps: Optional[int] = None
    #: Fraction of attack packets with forged sources.
    spoof_fraction: float = 0.5
    #: Per-source token-bucket rate installed by the mitigation.
    mitigated_rate_bps: int = 2 * MBPS
    #: Number of per-source-bucket queues sources are hashed over.
    mitigation_queues: int = 4
    #: Control-channel loss while the rollout runs.
    control_loss: float = 0.10
    #: Attack ramp time before the rollout starts (baseline window).
    baseline_ms: int = 60
    #: Soak window after each confirmed wave (the measurement bin).
    settle_ms: int = 60
    report_interval_ms: int = 5
    #: Cumulative rollout percentages over the attacker fleet.
    percents: tuple = (13, 50, 100)
    horizon_ms: int = 2_000


@dataclass
class WaveGoodput:
    """Victim goodput measured in one wave's soak window."""

    label: str
    #: Attacker hosts mitigated when the window opened.
    mitigated_hosts: int
    start_ns: int
    end_ns: int
    goodput_mbps: float
    attack_mbps: float


@dataclass
class DdosResult:
    config: DdosConfig
    windows: List[WaveGoodput] = field(default_factory=list)
    converged: bool = False
    rollout_summary: dict = field(default_factory=dict)
    spoofed_dropped: int = 0
    attack_packets_sent: int = 0

    @property
    def recovery_monotonic(self) -> bool:
        """Goodput never regresses across waves.

        10% relative plus a 5 Mbps absolute slack: the relative term
        absorbs TCP sawtooth, the absolute term absorbs the noise
        floor when consecutive windows are both saturation-starved
        (a few Mbps either way of zero on a Gbps link).
        """
        series = [w.goodput_mbps for w in self.windows]
        return all(b >= a * 0.9 - 5.0
                   for a, b in zip(series, series[1:]))

    @property
    def recovered(self) -> bool:
        """Final goodput dominates the under-attack baseline."""
        if len(self.windows) < 2:
            return False
        return self.windows[-1].goodput_mbps > \
            max(5.0, 3.0 * self.windows[0].goodput_mbps)


class AttackDriver:
    """One compromised host blasting UDP at the victim.

    Packets alternate between forged sources (drawn from a seeded
    range) and the host's own address, at a steady configured rate.
    Each packet runs the local enclave via the normal TX path — which
    is exactly where the rolled-out mitigation bites.
    """

    def __init__(self, sim: Simulator, stack: HostStack,
                 victim_ip: int, rate_bps: int,
                 spoof_fraction: float, rng: random.Random,
                 payload_len: int = 1400) -> None:
        self.sim = sim
        self.stack = stack
        self.victim_ip = victim_ip
        self.spoof_fraction = spoof_fraction
        self.rng = rng
        self.payload_len = payload_len
        self.packets_sent = 0
        packet_bits = (payload_len + 54) * 8
        self.interval_ns = max(1, int(1e9 * packet_bits / rate_bps))
        self._stopped = False
        sim.post(rng.randrange(self.interval_ns + 1), self._send_one)

    def stop(self) -> None:
        self._stopped = True

    def _send_one(self) -> None:
        if self._stopped:
            return
        spoofed = self.rng.random() < self.spoof_fraction
        src_ip = (0x0A00_0000 + self.rng.randrange(1 << 16)
                  if spoofed else self.stack.ip)
        packet = Packet(
            src_ip=src_ip, dst_ip=self.victim_ip,
            src_port=self.rng.randrange(1024, 65535),
            dst_port=VICTIM_PORT, proto=PROTO_UDP,
            payload_len=self.payload_len,
            created_at=self.sim.now)
        self.packets_sent += 1
        self.stack.send_packet(packet)
        self.sim.post(self.interval_ns, self._send_one)


def run_ddos(config: Optional[DdosConfig] = None,
             telemetry: Optional[Telemetry] = None) -> DdosResult:
    """Run the scenario end to end; returns the per-wave windows."""
    cfg = config if config is not None else DdosConfig()
    if cfg.attack_rate_bps is None:
        import dataclasses
        cfg = dataclasses.replace(
            cfg, attack_rate_bps=int(1.2 * cfg.victim_link_bps
                                     / cfg.attackers))
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    sim = Simulator(seed=cfg.seed)
    n_hosts = cfg.attackers + 2
    net = star(sim, n_hosts, host_rate_bps=10 * GBPS,
               host_rates={"h1": cfg.victim_link_bps})
    victim_host, legit_host = net.hosts["h1"], net.hosts["h2"]
    attacker_names = [f"h{i}" for i in range(3, n_hosts + 1)]
    victim_ip = net.host_ip("h1")

    faults = FaultInjector(rng=random.Random(cfg.seed * 31 + 7),
                           drop_prob=cfg.control_loss,
                           scheduler=sim)
    controller = Controller(transport="sim", sim=sim, faults=faults,
                            channel_config=ChannelConfig(),
                            telemetry=telemetry)

    # Victim: no enclave, just the sink service — plus a tap counting
    # hostile bytes that make it through its access link.
    victim_stack = HostStack(sim, victim_host,
                             process_pure_acks=False)
    sink = SinkServer(victim_stack, VICTIM_PORT)
    attack_bytes_seen = [0]
    _orig_rx = victim_stack.handle_rx

    def _tapped_rx(packet, from_port):
        if packet.proto == PROTO_UDP and \
                packet.dst_port == VICTIM_PORT:
            attack_bytes_seen[0] += packet.size
        _orig_rx(packet, from_port)

    victim_stack.handle_rx = _tapped_rx

    legit_stack = HostStack(sim, legit_host,
                            process_pure_acks=False)

    # Attackers: real enclaves on the TX path, mitigation queues
    # pre-provisioned host-locally (the PulsarDeployment idiom — the
    # rollout only flips the steering globals).
    attacker_stacks: Dict[str, HostStack] = {}
    drivers: List[AttackDriver] = []
    queue_ids = tuple(range(1, cfg.mitigation_queues + 1))
    for i, name in enumerate(attacker_names):
        enclave = Enclave(f"{name}.enclave", clock=sim.clock,
                          rng=sim.rng)
        controller.register_enclave(name, enclave)
        stack = HostStack(sim, net.hosts[name], enclave=enclave,
                          process_pure_acks=False)
        for qid in queue_ids:
            stack.rate_limiters.configure(
                qid, cfg.mitigated_rate_bps, burst_bytes=30_000)
        attacker_stacks[name] = stack
        drivers.append(AttackDriver(
            sim, stack, victim_ip, cfg.attack_rate_bps,
            cfg.spoof_fraction,
            random.Random(cfg.seed * 1009 + i)))
        controller.agent(name).start_reporting(
            cfg.report_interval_ms * MS)

    # Legitimate traffic: one long bulk TCP flow into the victim.
    sender = BulkSender(sim, legit_stack, victim_ip, VICTIM_PORT)

    plane = controller.plane
    host_ip = {name: net.host_ip(name) for name in attacker_names}
    program = mitigation_program(victim_ip,
                                 lambda h: host_ip[h], queue_ids)
    plan = RolloutPlan.by_percent(attacker_names,
                                  percents=cfg.percents)
    orch = FleetOrchestrator(
        plane, plan, program, scheduler=sim,
        gate=EpochHealthGate(
            max_report_age_ns=3 * cfg.report_interval_ms * MS,
            require_functions=("ddos_spoof_guard",
                               "ddos_source_limit")),
        config=RolloutConfig(poll_interval_ns=2 * MS,
                             settle_ns=cfg.settle_ms * MS,
                             wave_timeout_ns=1_000 * MS),
        telemetry=telemetry)

    # Measurement: snapshot (goodput, attack) counters at every wave
    # boundary; each soak window becomes one figure bin.  The bin for
    # a confirmed wave opens mid-soak, not at confirmation — TCP
    # needs half a window to climb out of the timeouts the preceding
    # (more congested) regime put it in, and measuring the ramp would
    # charge that recovery transient to the wrong wave.
    marks: List[tuple] = []

    def mark(label: str, mitigated: int) -> None:
        marks.append((label, mitigated, sim.now,
                      sink.bytes_received, attack_bytes_seen[0]))

    def mark_mid_soak(orch_, rec) -> None:
        mitigated = sum(len(w.hosts)
                        for w in orch_.plan.waves[:rec.index + 1])
        sim.post(cfg.settle_ms * MS // 2, mark, f"wave {rec.index}", mitigated)

    orch.on_wave_confirmed = mark_mid_soak
    orch.on_wave_start = lambda o, rec: mark(
        f"start {rec.index}",
        sum(len(w.hosts) for w in o.plan.waves[:rec.index]))
    orch.on_rollout_done = lambda o: mark("done", len(attacker_names))

    # Baseline: let the attack saturate the link first; the measured
    # baseline bin starts mid-window (past TCP's slow-start burst).
    sim.post(cfg.baseline_ms * MS // 2, mark, "attack", 0)
    sim.run(until_ns=cfg.baseline_ms * MS)
    orch.start()
    horizon = cfg.horizon_ms * MS
    while orch.state not in TERMINAL and sim.now < horizon:
        sim.run(until_ns=min(horizon, sim.now + 20 * MS))
    # Tail: one more settle-sized window after the rollout ends.
    sim.run(until_ns=sim.now + cfg.settle_ms * MS)
    mark("end", len(attacker_names))

    windows: List[WaveGoodput] = []
    # Bins between consecutive marks, keeping the informative ones:
    # the under-attack baseline and each wave's soak window.
    for (label, mitigated, t0, good0, atk0), \
            (_l1, _m1, t1, good1, atk1) in zip(marks, marks[1:]):
        if t1 <= t0:
            continue
        keep = label == "attack" or label.startswith("wave") or \
            label == "done"
        if not keep:
            continue
        dt_s = (t1 - t0) / 1e9
        windows.append(WaveGoodput(
            label=("under attack" if label == "attack" else label),
            mitigated_hosts=mitigated, start_ns=t0, end_ns=t1,
            goodput_mbps=8 * (good1 - good0) / dt_s / 1e6,
            attack_mbps=8 * (atk1 - atk0) / dt_s / 1e6))

    spoof_drops = sum(s.packets_dropped_by_enclave
                      for s in attacker_stacks.values())
    return DdosResult(
        config=cfg, windows=windows,
        converged=orch.state == DONE,
        rollout_summary=orch.summary(),
        spoofed_dropped=spoof_drops,
        attack_packets_sent=sum(d.packets_sent for d in drivers))


def format_ddos(result: DdosResult, width: int = 44) -> str:
    """ASCII recovery figure: victim goodput per rollout wave."""
    lines = [
        "ddos-mitigation: victim goodput vs rollout progress",
        f"  {result.config.attackers} attackers x "
        f"{result.config.attack_rate_bps // MBPS} Mbps "
        f"({result.config.spoof_fraction:.0%} spoofed), victim link "
        f"{result.config.victim_link_bps // MBPS} Mbps, control loss "
        f"{result.config.control_loss:.0%}",
        "",
    ]
    peak = max((w.goodput_mbps for w in result.windows),
               default=1.0) or 1.0
    for w in result.windows:
        bar = "#" * max(1, int(round(width * w.goodput_mbps / peak)))
        lines.append(
            f"  {w.label:<13} [{w.mitigated_hosts:>2} mitigated] "
            f"{w.goodput_mbps:7.1f} Mbps |{bar}")
        lines.append(
            f"  {'':<13} {'':>15}  attack seen {w.attack_mbps:7.1f} "
            f"Mbps")
    lines.append("")
    verdict = "converged" if result.converged else "DID NOT converge"
    monotonic = "yes" if result.recovery_monotonic else "no"
    lines.append(
        f"  rollout {verdict}; spoofed packets dropped at source: "
        f"{result.spoofed_dropped}")
    lines.append(f"  recovery monotonic: {monotonic}")
    return "\n".join(lines)
