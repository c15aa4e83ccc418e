"""``host_mix``: the host TX pipeline under the paper's case studies.

``Stage.classify -> HostStack.send_packet -> Enclave ->
RateLimiterBank -> port -> link -> sink`` on ``star(2)``, raw packets
with no TCP.  Three classes share the enclave:

* ``app.r1.search`` — PIAS with 16 thresholds: message state read
  and written per packet, a global record array searched;
* ``app.r1.io`` — Pulsar with three token-bucket queues;
* ``app.r1.bulk`` — spoof guard chained by ``next_table`` to a
  per-source limiter; a tenth of bulk messages are spoofed and the
  enclave drops them.

Closed loop, one caller: two bursts are handed to the stack, the
simulator runs until the fabric is empty, finished messages are
ended.  Phase A is the scalar stack; phase B gets the same packets
with ``batch_data_path=True``, so its enclave batches mix rules.
Rates are sized so that nothing but the spoofed drops is lost.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import oracles
import probes
from timing import SliceClock, build_seconds, typical
from tracing import Tracer, direct
from workloads import Burst, MixTraffic, build_packets, sizes

from repro.apps.workloads import generic_app_stage
from repro.core.enclave import Enclave
from repro.core.stage import Classifier
from repro.functions.ddos import (SOURCE_LIMIT_GLOBAL_SCHEMA,
                                  SOURCE_LIMIT_NAME,
                                  SPOOF_GUARD_GLOBAL_SCHEMA,
                                  SPOOF_GUARD_NAME,
                                  source_limit_action,
                                  spoof_guard_action)
from repro.functions.pias import (PIAS_FUNCTION_NAME,
                                  PIAS_GLOBAL_SCHEMA,
                                  PIAS_MESSAGE_SCHEMA, pias_action)
from repro.functions.pulsar import (FUNCTION_NAME as PULSAR_NAME,
                                    PULSAR_GLOBAL_SCHEMA,
                                    PULSAR_MESSAGE_SCHEMA,
                                    pulsar_action)
from repro.netsim.packet import MSS
from repro.netsim.simulator import GBPS, Simulator
from repro.netsim.topology import star
from repro.stack.netstack import HostStack

#: Bursts handed to the stack between two flushes of the fabric.
ROUND_BURSTS = 2
#: Every 16th round of a traced run records spans.
TRACE_STRIDE = 16

#: 16 (cumulative size limit, priority) rows, two per priority level,
#: growing geometrically past the 200 KB message cap.
PIAS_THRESHOLDS = tuple((int(MSS * 1.42 ** level), 7 - level // 2)
                        for level in range(16))
#: Tenant -> token-bucket queue; tenant 0 is not rate limited.
PULSAR_QUEUE_MAP = (0, 1, 2, 3)
SOURCE_QUEUES = (4, 5)
QUEUE_RATE_BPS = 5 * GBPS
#: A READ is charged its whole operation (up to the 200 KB cap), so
#: the bucket must hold one.
QUEUE_BURST_BYTES = 400_000

STATEFUL = {"search": PIAS_FUNCTION_NAME, "io": PULSAR_NAME}


class Rig:
    def __init__(self, batch: bool) -> None:
        self.sim = Simulator(seed=1)
        self.net = star(self.sim, 2)
        self.h1, self.h2 = self.net.hosts["h1"], self.net.hosts["h2"]
        self.enclave = Enclave("h1.enclave", clock=self.sim.clock,
                               rng=self.sim.rng)
        self.stack = HostStack(self.sim, self.h1, enclave=self.enclave,
                               batch_data_path=batch)
        self.stage = generic_app_stage()
        self.sent = 0
        self._program()

    def _program(self) -> None:
        stage, enclave = self.stage, self.enclave
        for kind, metadata in (
                ("search", ["msg_id", "priority"]),
                ("io", ["msg_id", "op_read", "msg_size", "tenant"]),
                ("bulk", ["msg_id"])):
            stage.create_stage_rule("r1", Classifier.of(msg_type=kind),
                                    kind, metadata)
        enclave.install_function(
            pias_action, name=PIAS_FUNCTION_NAME,
            message_schema=PIAS_MESSAGE_SCHEMA,
            global_schema=PIAS_GLOBAL_SCHEMA)
        enclave.set_global_records(PIAS_FUNCTION_NAME, "priorities",
                                   PIAS_THRESHOLDS)
        enclave.install_rule("app.r1.search", PIAS_FUNCTION_NAME)

        enclave.install_function(
            pulsar_action, name=PULSAR_NAME,
            message_schema=PULSAR_MESSAGE_SCHEMA,
            global_schema=PULSAR_GLOBAL_SCHEMA)
        enclave.set_global_array(PULSAR_NAME, "queue_map",
                                 PULSAR_QUEUE_MAP)
        enclave.install_rule("app.r1.io", PULSAR_NAME)

        enclave.install_function(
            spoof_guard_action, name=SPOOF_GUARD_NAME,
            global_schema=SPOOF_GUARD_GLOBAL_SCHEMA)
        enclave.set_global(SPOOF_GUARD_NAME, "my_ip", self.h1.ip)
        enclave.install_function(
            source_limit_action, name=SOURCE_LIMIT_NAME,
            global_schema=SOURCE_LIMIT_GLOBAL_SCHEMA)
        enclave.set_global(SOURCE_LIMIT_NAME, "victim_ip", self.h2.ip)
        enclave.set_global_array(SOURCE_LIMIT_NAME, "queue_of_source",
                                 SOURCE_QUEUES)
        enclave.create_table(1)
        enclave.install_rule("app.r1.bulk", SPOOF_GUARD_NAME,
                             next_table=1)
        enclave.install_rule("app.r1.bulk", SOURCE_LIMIT_NAME,
                             table_id=1)
        for queue_id in PULSAR_QUEUE_MAP[1:] + SOURCE_QUEUES:
            self.stack.rate_limiters.configure(
                queue_id, QUEUE_RATE_BPS,
                burst_bytes=QUEUE_BURST_BYTES)

    # -- accounting ----------------------------------------------------------

    def limiter_drops(self) -> int:
        return sum(self.stack.rate_limiters.queue(queue_id).dropped
                   for queue_id in PULSAR_QUEUE_MAP[1:] + SOURCE_QUEUES)

    def port_drops(self) -> int:
        ports = (self.h1.port_to("tor"),
                 self.net.switches["tor"].port_to("h2"))
        return sum(p.stats.drops + p.stats.failed_drops for p in ports)

    def unaccounted(self) -> int:
        """sent - (delivered + enclave, limiter and port drops)."""
        return self.sent - (self.h2.rx_packets
                            + self.stack.packets_dropped_by_enclave
                            + self.limiter_drops() + self.port_drops())


def build(batch: bool = False) -> Rig:
    """Construct + install + rules + first packet through every
    function: what ``setup_s`` times."""
    rig = Rig(batch)
    traffic = MixTraffic(0, 1, rig.h1.ip, rig.h2.ip)
    seen = set()
    while seen != set(STATEFUL) | {"bulk"}:
        burst = traffic.next_burst(1)
        seen.add(burst.kind)
        send_round(rig, [burst], [build_packets(burst.specs)])
    return rig


def send_round(rig: Rig, bursts: Sequence[Burst], packets) -> None:
    """Hand bursts to the stack, flush the fabric, end messages."""
    classify = rig.stage.classify
    send = rig.stack.send_packet
    ended = []
    for burst, pkts in zip(bursts, packets):
        cls = classify(burst.attrs, burst.msg_id)
        for packet in pkts:
            packet.classifications = cls
            send(packet)
        rig.sent += len(pkts)
        if burst.last and burst.kind in STATEFUL:
            ended.append((STATEFUL[burst.kind], cls[0].message_id))
    rig.sim.run()
    for function, msg_key in ended:
        rig.enclave.end_message(function, msg_key)


def run_slice(rig: Rig, bursts: Sequence[Burst], packets,
              unit=direct) -> None:
    for index, start in enumerate(range(0, len(bursts), ROUND_BURSTS)):
        unit(index, lambda: send_round(
            rig, bursts[start:start + ROUND_BURSTS],
            packets[start:start + ROUND_BURSTS]))


class Oracle:
    """Plain-Python model of the three classes' functions."""

    def __init__(self, my_ip: int, victim_ip: int) -> None:
        self.my_ip = my_ip
        self.victim_ip = victim_ip
        self.pias = oracles.Pias(PIAS_THRESHOLDS)
        self.spoofed = 0

    def wanted(self, bursts: Sequence[Burst]) -> List[tuple]:
        out = []
        for burst in bursts:
            attrs = burst.attrs
            for spec in burst.specs:
                model = oracles.fresh(spec)
                if burst.kind == "search":
                    self.pias.apply(model, burst.msg_id,
                                    attrs["priority"])
                elif burst.kind == "io":
                    oracles.pulsar(model, PULSAR_QUEUE_MAP,
                                   attrs["op_read"], attrs["msg_size"])
                else:
                    oracles.spoof_guard(model, self.my_ip)
                    oracles.source_limit(model, self.victim_ip,
                                         SOURCE_QUEUES)
                    self.spoofed += model["drop"]
                out.append(oracles.expected(model))
            if burst.last and burst.kind == "search":
                self.pias.end_message(burst.msg_id)
        return out


def _observed(packets) -> List[tuple]:
    return [oracles.observe(p) for pkts in packets for p in pkts]


class _Tally:
    """Per-run correctness bookkeeping shared by both run modes."""

    def __init__(self, my_ip: int, victim_ip: int) -> None:
        self.oracle = Oracle(my_ip, victim_ip)
        self.attempted = 0
        self.wrong = 0
        self.batch_differs = 0

    def check(self, bursts, scalar_packets, batch_packets) -> None:
        wanted = self.oracle.wanted(bursts)
        seen = _observed(scalar_packets)
        self.attempted += 2 * len(wanted)
        self.wrong += oracles.mismatches(seen, wanted)
        if _observed(batch_packets) != seen:
            self.batch_differs += 1
            self.wrong += len(wanted)


def run(seed: int, seconds: int, smoke: bool) -> Dict[str, object]:
    """Untraced run: the end-to-end metrics."""
    size = sizes("host_mix", seconds, smoke)
    clock = SliceClock()
    setup = build_seconds(clock, build, size["setup_builds"])
    rig_a, rig_b = build(batch=False), build(batch=True)
    traffic = MixTraffic(seed, size["live_messages"], rig_a.h1.ip,
                         rig_a.h2.ip)
    tally = _Tally(rig_a.h1.ip, rig_a.h2.ip)
    warm_drops = [rig.stack.packets_dropped_by_enclave
                  for rig in (rig_a, rig_b)]
    per_packet = 1e6 / size["slice_packets"]
    scalar_us, batch_us = [], []
    for _ in range(size["slices"]):
        bursts = traffic.slice(size["slice_packets"])
        pkts_a = [build_packets(b.specs) for b in bursts]
        pkts_b = [build_packets(b.specs) for b in bursts]
        a, _ = clock.timed(lambda: run_slice(rig_a, bursts, pkts_a))
        b, _ = clock.timed(lambda: run_slice(rig_b, bursts, pkts_b))
        scalar_us.append(a * per_packet)
        batch_us.append(b * per_packet)
        tally.check(bursts, pkts_a, pkts_b)
    lost = [rig.unaccounted() for rig in (rig_a, rig_b)]
    other_drops = sum(rig.limiter_drops() + rig.port_drops()
                      for rig in (rig_a, rig_b))
    enclave_drops = [rig.stack.packets_dropped_by_enclave - warm
                     for rig, warm in zip((rig_a, rig_b), warm_drops)]
    faults = probes.function_stats([rig_a.enclave, rig_b.enclave],
                                   "faults")
    return {
        "attempted": tally.attempted,
        "failed": (tally.wrong + sum(map(abs, lost)) + other_drops
                   + faults),
        "checks": {
            "oracle_matches_every_packet": tally.wrong == 0,
            "batch_digest_equals_scalar": tally.batch_differs == 0,
            "conservation_identity_holds": lost == [0, 0],
            "only_spoofed_packets_dropped":
                other_drops == 0
                and enclave_drops == [tally.oracle.spoofed] * 2,
            "no_faults": faults == 0,
        },
        "metrics": {
            "setup_s": setup,
            "scalar_us_per_unit": typical(scalar_us),
            "batch_us_per_unit": typical(batch_us),
        },
        "slowdown_median": clock.slowdown_median,
    }


def _wrap(tracer: Tracer, rig: Rig) -> None:
    enclave, stack = rig.enclave, rig.stack
    tracer.wrap(rig.stage, "classify", "core.stage.classify")
    tracer.wrap(stack, "send_packet", "stack.send_packet")
    tracer.wrap(enclave, "process_packet",
                "core.enclave.process_packet")
    tracer.wrap(enclave, "process_batch", "core.enclave.process_batch",
                weight=len)
    for table_id in enclave.query_tables():
        tracer.wrap(enclave.table(table_id), "lookup",
                    "core.enclave.lookup")
    for name in enclave.functions():
        function = enclave.function(name)
        tracer.wrap(function, "execute", "lang.execute")
        if function.message_store is not None:
            tracer.wrap(function.message_store, "lookup",
                        "core.enclave.state_read")
            tracer.wrap(function.message_store, "commit",
                        "core.enclave.commit")
    tracer.wrap(stack.rate_limiters, "submit",
                "stack.ratelimiter.submit")
    tracer.wrap(stack.rate_limiters, "submit_batch",
                "stack.ratelimiter.submit", weight=len)
    tracer.wrap(rig.h1.port_to("tor"), "enqueue", "netsim.port.enqueue")
    tracer.wrap(rig.sim, "run", "netsim.run")


def run_traced(seed: int, seconds: int, smoke: bool,
               trace_path: str) -> Dict[str, object]:
    """Traced run at a quarter of the length: the per-layer metrics.

    Each slice runs three times on fresh copies of the same packets:
    scalar untraced, scalar traced, batch traced.
    """
    size = sizes("host_mix", seconds, smoke)
    n_slices = max(2, size["slices"] // 4)
    plain, traced_a, traced_b = build(), build(), build(batch=True)
    tracer_a, tracer_b = Tracer(TRACE_STRIDE), Tracer(TRACE_STRIDE)
    _wrap(tracer_a, traced_a)
    _wrap(tracer_b, traced_b)
    traffic = MixTraffic(seed, size["live_messages"], plain.h1.ip,
                         plain.h2.ip)
    tally = _Tally(plain.h1.ip, plain.h2.ip)
    clock = SliceClock()
    slices_plain, slices_traced = [], []
    live_peak = events = 0
    for _ in range(n_slices):
        bursts = traffic.slice(size["slice_packets"])
        pkts = [[build_packets(b.specs) for b in bursts]
                for _ in range(3)]
        slices_plain.append(clock.timed(
            lambda: run_slice(plain, bursts, pkts[0]))[0])
        before = traced_a.sim.events_processed
        slices_traced.append(clock.timed(
            lambda: run_slice(traced_a, bursts, pkts[1],
                              tracer_a.unit))[0])
        events += traced_a.sim.events_processed - before
        clock.timed(lambda: run_slice(traced_b, bursts, pkts[2],
                                      tracer_b.unit))
        tally.check(bursts, pkts[1], pkts[2])
        live_peak = max(live_peak,
                        probes.message_state([traced_a.enclave])[1])
    tracer_a.unwrap_all()
    tracer_b.unwrap_all()
    trace = tracer_a.summary(clock.slowdown_median)
    batch = tracer_b.summary(clock.slowdown_median)
    tracer_a.write_jsonl(trace_path)

    stats = traced_a.enclave.stats_summary()
    packets = n_slices * size["slice_packets"]
    pkt = "core.enclave.process_packet"
    queued = sum(traced_a.stack.rate_limiters.queue(q).enqueued
                 for q in PULSAR_QUEUE_MAP[1:] + SOURCE_QUEUES)
    chained = stats[SOURCE_LIMIT_NAME]["invocations"]

    def per_packet(name: str) -> float:
        return trace.per_item_ns(name, per="stack.send_packet")

    plain_s = typical(slices_plain)["value"]
    traced_s = typical(slices_traced)["value"]
    # Events per flush over all rounds, seconds per flush over the
    # sampled ones.
    runs = trace.counts["netsim.run"]
    run_s = trace.per_item_ns("netsim.run") / 1e9
    metrics = {
        "lang.ops_per_pkt":
            probes.function_stats([traced_a.enclave], "ops_executed")
            / traced_a.sent,
        "lang.faults":
            probes.function_stats([traced_a.enclave], "faults"),
        "lang.self_share": trace.layer_self_share("lang"),
        "core.stage.classify_ns":
            trace.median_ns("core.stage.classify"),
        "core.stage.self_share": trace.layer_self_share("core.stage"),
        "core.enclave.pkt_ns_p50": trace.median_ns(pkt),
        "core.enclave.pkt_ns_p99": trace.percentile_ns(pkt, 99),
        "core.enclave.batch_ns_per_pkt":
            batch.per_item_ns("core.enclave.process_batch"),
        "core.enclave.lookup_ns": per_packet("core.enclave.lookup"),
        "core.enclave.state_read_ns":
            per_packet("core.enclave.state_read"),
        "core.enclave.execute_ns": per_packet("lang.execute"),
        "core.enclave.commit_ns": per_packet("core.enclave.commit"),
        "core.enclave.self_ns": trace.per_item_ns(pkt, self_time=True),
        "core.enclave.self_share":
            trace.layer_self_share("core.enclave"),
        "core.enclave.chain_share": chained / traced_a.sent,
        "core.enclave.drop_share":
            traced_a.stack.packets_dropped_by_enclave / traced_a.sent,
        "core.state.msgs_created":
            probes.message_state([traced_a.enclave])[0],
        "core.state.msgs_live_peak": live_peak,
        "stack.send_ns_p50": trace.median_ns("stack.send_packet"),
        "stack.send_ns_p99":
            trace.percentile_ns("stack.send_packet", 99),
        "stack.self_ns_per_pkt":
            trace.per_item_ns("stack.send_packet", self_time=True),
        "stack.self_share": trace.layer_self_share("stack"),
        "stack.ratelimiter.submit_ns":
            trace.per_item_ns("stack.ratelimiter.submit"),
        "stack.ratelimiter.self_share":
            trace.layer_self_share("stack.ratelimiter"),
        "stack.ratelimiter.queued_share": queued / traced_a.sent,
        "stack.ratelimiter.drops": traced_a.limiter_drops(),
        "netsim.events_per_s": events / runs / run_s,
        "netsim.events_per_pkt": events / packets,
        "netsim.self_share": trace.layer_self_share("netsim"),
        "netsim.port_drops": traced_a.port_drops(),
        "bench.self_share": trace.layer_self_share("bench"),
        "trace_overhead_pct": 100.0 * (traced_s / plain_s - 1.0),
    }
    metrics.update(probes.exec_costs(smoke))
    lost = [rig.unaccounted() for rig in (plain, traced_a, traced_b)]
    return {
        "attempted": tally.attempted,
        "failed": tally.wrong + sum(map(abs, lost)),
        "checks": {
            "oracle_matches_every_packet": tally.wrong == 0,
            "batch_digest_equals_scalar": tally.batch_differs == 0,
            "conservation_identity_holds": lost == [0, 0, 0],
        },
        "metrics": metrics,
        "slowdown_median": clock.slowdown_median,
    }
