"""Figure 9: flow completion times under flow scheduling policies.

Paper setup (Section 5.1): a request-response workload whose response
sizes follow a search-application flow-size distribution; one worker
serves requests at roughly 70% load while other sources send
background traffic.  Priority thresholds split flows into small
(<10 KB), intermediate (10 KB-1 MB) and background classes.  Reported:
average and 95th-percentile FCT of small and intermediate flows for
{baseline, PIAS, SFF} x {native, EDEN}.

Configurations here:

* ``("baseline", "native")``  — vanilla stack, no enclave;
* ``("baseline", "eden")``    — enclave + classification + interpreted
  PIAS run on every packet, but packet outputs ignored (the paper's
  baseline-EDEN overhead configuration);
* ``("pias"|"sff", "native")`` — the policy hard-coded in the
  enclave: the stack charges a fixed cost per executed action
  (``HostStack(native_action_cost_ns=...)``);
* ``("pias"|"sff", "eden")``   — the policy interpreted from bytecode,
  charged per executed op.

Both variants run the same generated code; they differ only in the
simulated cost the stack charges for it.

The scenario is split into :func:`build_flow_scheduling` (construct
the network, stacks, enclaves and workloads — returns a
:class:`Fig9Scenario`) and :func:`run_flow_scheduling` (build, run to
completion, summarize).  Long-running consumers — the
``latency-serve`` scenario server — build once and drive the
simulation incrementally with :meth:`Fig9Scenario.advance`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps.workloads import (BulkSender, FlowSizeDistribution,
                              INTERMEDIATE_FLOW_MAX,
                              RequestResponseClient,
                              RequestResponseServer, SMALL_FLOW_MAX,
                              SinkServer, generic_app_stage,
                              make_registry)
from ..core.controller import Controller
from ..core.enclave import Enclave
from ..functions.pias import FlowSchedulingDeployment
from ..functions.pulsar import PulsarDeployment
from ..netsim.simulator import GBPS, MS, Simulator
from ..netsim.topology import Network, star
from ..netsim.tracing import FlowTracker
from ..stack.netstack import HostStack, NATIVE_ACTION_COST_NS

SERVICE_PORT = 9000
SINK_PORT = 9100
PRIORITY_THRESHOLDS = ((SMALL_FLOW_MAX, 7),
                       (INTERMEDIATE_FLOW_MAX, 6),
                       (1 << 50, 5))

#: Tenant id the background bulk senders use when Pulsar rate
#: limiting is enabled (``background_rate_bps``).
BACKGROUND_TENANT = 1


@dataclass
class Fig9Result:
    policy: str
    variant: str
    small_avg_us: float
    small_p95_us: float
    mid_avg_us: float
    mid_p95_us: float
    n_small: int
    n_mid: int
    requests: int
    background_mbps: float
    events: int = 0

    def row(self) -> str:
        return (f"{self.policy:<9} {self.variant:<7} "
                f"small: {self.small_avg_us:8.1f} / "
                f"{self.small_p95_us:8.1f} us (n={self.n_small:4d})  "
                f"intermediate: {self.mid_avg_us:9.1f} / "
                f"{self.mid_p95_us:9.1f} us (n={self.n_mid:3d})")


@dataclass
class Fig9Scenario:
    """A built (but not yet run) Figure 9 configuration.

    Drive it either with :meth:`run` (start workloads, simulate
    ``duration_ms``, stop) or incrementally: :meth:`start`, then
    repeated :meth:`advance` calls with a growing deadline — the
    basis of the live ``latency-serve`` scenario — then
    :meth:`finish` for the FCT summary.
    """

    policy: str
    variant: str
    net: Network
    hosts: Dict[str, object]
    stacks: Dict[str, HostStack]
    controller: Controller
    tracker: FlowTracker
    client: RequestResponseClient
    bulk_senders: List[BulkSender]
    duration_ms: int
    warmup_ms: int
    link_bps: int
    events: int = 0
    _started: bool = field(default=False, repr=False)

    @property
    def now_ns(self) -> int:
        return self.net.sim.now

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.client.start()

    def advance(self, until_ns: int) -> int:
        """Simulate up to ``until_ns``; returns events processed."""
        self.start()
        done = self.net.sim.run(until_ns=until_ns)
        self.events += done
        return done

    def run(self) -> None:
        self.start()
        self.advance(self.duration_ms * MS)
        self.client.stop()

    def finish(self) -> Fig9Result:
        from ..netsim.tracing import mean, percentile
        cutoff = self.warmup_ms * MS
        small = [r.fct_us for r in self.tracker.records
                 if r.size_bytes < SMALL_FLOW_MAX and
                 r.started_at >= cutoff]
        mid = [r.fct_us for r in self.tracker.records
               if SMALL_FLOW_MAX <= r.size_bytes <
               INTERMEDIATE_FLOW_MAX and r.started_at >= cutoff]
        background_bytes = sum(b.bytes_completed
                               for b in self.bulk_senders)
        elapsed_ms = max(1, self.now_ns // MS)
        background_mbps = background_bytes * 8.0 / (elapsed_ms * 1e3)
        return Fig9Result(
            policy=self.policy, variant=self.variant,
            small_avg_us=mean(small),
            small_p95_us=percentile(small, 95),
            mid_avg_us=mean(mid), mid_p95_us=percentile(mid, 95),
            n_small=len(small), n_mid=len(mid),
            requests=self.client.responses_done,
            background_mbps=background_mbps,
            events=self.events)


def build_flow_scheduling(policy: str = "baseline",
                          variant: str = "native",
                          seed: int = 1,
                          duration_ms: int = 150,
                          load: float = 0.7,
                          link_bps: int = 10 * GBPS,
                          n_background: int = 2,
                          warmup_ms: int = 10,
                          telemetry=None,
                          background_rate_bps: Optional[int] = None
                          ) -> Fig9Scenario:
    """Construct one Figure 9 configuration without running it.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) is bound to
    the network *and* the host stacks/enclaves, so metrics, spans and
    — when the telemetry carries a
    :class:`repro.latency.LatencyCollector` — per-packet latency
    decompositions all flow.

    ``background_rate_bps`` enables Pulsar rate control for the
    background bulk senders: they connect as tenant
    :data:`BACKGROUND_TENANT`, their hosts get the Pulsar action
    function and a token-bucket queue at that aggregate rate — which
    exercises the ``ratelimiter_queue`` latency segment.
    """
    if policy not in ("baseline", "pias", "sff"):
        raise ValueError(f"unknown policy {policy!r}")
    if variant not in ("native", "eden"):
        raise ValueError(f"unknown variant {variant!r}")

    # h1 = requesting client (and bulk sink), h2 = worker,
    # h3.. = background bulk senders.
    net = star(Simulator(seed=seed), 2 + n_background,
               host_rate_bps=link_bps)
    hosts = net.hosts
    if telemetry is not None:
        net.sim.bind_telemetry(telemetry)
        for host in hosts.values():
            host.bind_telemetry(telemetry)
    controller = Controller()

    needs_enclave = not (policy == "baseline" and variant == "native")
    action_cost_ns = NATIVE_ACTION_COST_NS if variant == "native" else None
    bg_hosts = [f"h{i + 3}" for i in range(n_background)]
    sender_hosts = ["h2"] + bg_hosts
    stacks: Dict[str, HostStack] = {}
    for name, host in hosts.items():
        enclave = None
        wants_enclave = (
            (needs_enclave and name in sender_hosts) or
            (background_rate_bps is not None and name in bg_hosts))
        if wants_enclave:
            enclave = Enclave(f"{name}.enclave",
                              clock=host.sim.clock, rng=host.sim.rng,
                              telemetry=telemetry)
            controller.register_enclave(name, enclave)
        stacks[name] = HostStack(host.sim, host, enclave=enclave,
                                 process_pure_acks=False,
                                 native_action_cost_ns=action_cost_ns,
                                 telemetry=telemetry)

    if needs_enclave:
        # With Pulsar on the background hosts, PIAS/SFF runs only at
        # the worker — both deployments install a "*" rule in table 0
        # and a host gets one policy, matching the paper's one-app-
        # per-sender setup.
        pias_hosts = (["h2"] if background_rate_bps is not None
                      else sender_hosts)
        # baseline-eden runs interpreted PIAS with outputs ignored.
        effective_policy = policy if policy != "baseline" else "pias"
        deployment = FlowSchedulingDeployment(
            controller, policy=effective_policy)
        deployment.install(pias_hosts, PRIORITY_THRESHOLDS)
        if policy == "baseline":
            for host_name in pias_hosts:
                fn = controller.enclave(host_name).function(
                    deployment.function_name)
                fn.commit_packet_writes = False

    if background_rate_bps is not None:
        pulsar = PulsarDeployment(controller)
        for name in bg_hosts:
            pulsar.install(name, stacks[name],
                           {BACKGROUND_TENANT: background_rate_bps})

    stage = generic_app_stage()
    # The controller programs the stage (paper Figure 6): classify
    # every message, exposing its id, declared size and desired
    # priority to the enclave.
    from ..core.stage import Classifier
    stage.create_stage_rule("r1", Classifier.of(), "msg",
                            ["msg_id", "msg_size", "priority"])
    registry = make_registry()
    tracker = FlowTracker()
    distribution = FlowSizeDistribution()

    def response_attrs(params: Dict[str, int]) -> Dict[str, object]:
        # PIAS: let demotion decide (priority metadata 7 = "manage
        # me"); SFF additionally declares the flow size.
        return {"priority": 7, "msg_size": params["size"]}

    RequestResponseServer(hosts["h2"].sim, stacks["h2"],
                          SERVICE_PORT, registry, stage=stage,
                          attrs_fn=response_attrs)
    arrivals = load * link_bps / (8.0 * distribution.mean())
    client = RequestResponseClient(
        hosts["h1"].sim, stacks["h1"], net.host_ip("h2"),
        SERVICE_PORT, registry, tracker, distribution=distribution,
        arrivals_per_sec=arrivals)

    SinkServer(stacks["h1"], SINK_PORT)
    bulk_senders: List[BulkSender] = []
    bg_tenant = (BACKGROUND_TENANT if background_rate_bps is not None
                 else 0)
    for name in bg_hosts:
        host = hosts[name]
        bulk_senders.append(BulkSender(
            host.sim, stacks[host.name], net.host_ip("h1"),
            SINK_PORT, stage=stage, low_priority=0,
            tenant=bg_tenant))

    return Fig9Scenario(
        policy=policy, variant=variant, net=net, hosts=hosts,
        stacks=stacks, controller=controller, tracker=tracker,
        client=client, bulk_senders=bulk_senders,
        duration_ms=duration_ms, warmup_ms=warmup_ms,
        link_bps=link_bps)


def run_flow_scheduling(policy: str = "baseline",
                        variant: str = "native",
                        seed: int = 1,
                        duration_ms: int = 150,
                        load: float = 0.7,
                        link_bps: int = 10 * GBPS,
                        n_background: int = 2,
                        warmup_ms: int = 10,
                        telemetry=None,
                        background_rate_bps: Optional[int] = None
                        ) -> Fig9Result:
    """One Figure 9 configuration; returns FCT summaries."""
    scenario = build_flow_scheduling(
        policy=policy, variant=variant, seed=seed,
        duration_ms=duration_ms, load=load, link_bps=link_bps,
        n_background=n_background, warmup_ms=warmup_ms,
        telemetry=telemetry,
        background_rate_bps=background_rate_bps)
    scenario.run()
    return scenario.finish()


def run_all(seed: int = 1, *, duration_ms: int,
            policies: Tuple[str, ...] = ("baseline", "pias", "sff"),
            variants: Tuple[str, ...] = ("native", "eden")
            ) -> List[Fig9Result]:
    results = []
    for policy in policies:
        for variant in variants:
            results.append(run_flow_scheduling(
                policy=policy, variant=variant, seed=seed,
                duration_ms=duration_ms))
    return results


def format_results(results: List[Fig9Result]) -> str:
    lines = ["Figure 9 — flow completion times "
             "(avg / 95th percentile, microseconds)"]
    lines += [r.row() for r in results]
    return "\n".join(lines)
