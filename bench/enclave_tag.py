"""``enclave_tag``: bare forwarding at the smallest packet size.

The enclave as a library, no fabric: ``Stage.classify`` once per
32-packet message, then ``Enclave.process_packet`` per 64 B packet
(phase A) or ``Enclave.process_batch`` per 64 packets (phase B, the
same packets).  One class tuple; the function is the stateless
PARALLEL ``tag``, so the per-packet envelope — not the bytecode body
— is nearly all of the time.  Closed loop, one caller.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import actions
import oracles
import probes
from timing import SliceClock, build_seconds, typical
from tracing import Tracer, direct
from workloads import Burst, TagTraffic, build_packets, sizes

from repro.apps.workloads import generic_app_stage
from repro.core.enclave import Enclave
from repro.core.stage import Classification, Classifier
from repro.functions.library import DemoPacket, table1
from repro.netsim.packet import ip_of

TAG_CLASS = "app.r1.tag"
#: Phase B batch: two 32-packet messages per ``process_batch``.
BATCH_BURSTS = 2
#: Every 16th burst of a traced run records spans.
TRACE_STRIDE = 16


class Rig:
    def __init__(self, stage, enclave, setup_failures: int) -> None:
        self.stage = stage
        self.enclave = enclave
        self.setup_failures = setup_failures


def install_library(enclave: Enclave) -> int:
    """Install every Table-1 function that has a demo under a
    ``lib.<name>.*`` pattern, seed its globals and push its demo
    packets through; returns the number of failed demo checks."""
    failures = 0
    for index, entry in enumerate(table1()):
        spec = entry.demo
        if spec is None:
            continue
        name = spec.function_name
        if name in enclave.functions():
            name = f"{name}_{index}"
        enclave.install_function(
            spec.action, name=name,
            message_schema=spec.message_schema,
            global_schema=spec.global_schema)
        for field_name, value in spec.global_scalars.items():
            enclave.set_global(name, field_name, value)
        for field_name, values in spec.global_arrays.items():
            enclave.set_global_array(name, field_name, list(values))
        for field_name, keyed in spec.global_keyed.items():
            for key, values in keyed.items():
                enclave.set_global_keyed(name, field_name, key,
                                         list(values))
        enclave.install_rule(f"lib.{name}.*", name)
        metadata = dict(spec.metadata)
        metadata["msg_id"] = ("lib", index)
        cls = [Classification(f"lib.{name}.msg", metadata)]
        packet = None
        for i, overrides in enumerate(spec.packets or [{}]):
            packet = DemoPacket(**overrides)
            enclave.process_packet(packet, cls, now_ns=i)
        if spec.check is not None and not spec.check(packet):
            failures += 1
    return failures


def build(telemetry=None) -> Rig:
    """Construct + install + rules + first packet through every
    function: what ``setup_s`` times."""
    stage = generic_app_stage()
    stage.create_stage_rule("r1", Classifier.of(msg_type="tag"), "tag",
                            ["msg_id"])
    enclave = Enclave("bench.enclave", telemetry=telemetry)
    failures = install_library(enclave)
    enclave.install_function(actions.tag, name="tag")
    enclave.install_rule(TAG_CLASS, "tag")
    spec = (ip_of(1), ip_of(2), 1111, 2222, 10, 0)
    packet = build_packets([spec])[0]
    enclave.process_packet(packet, stage.classify({"msg_type": "tag"}))
    model = oracles.fresh(spec)
    oracles.tag(model)
    failures += oracles.observe(packet) != oracles.expected(model)
    return Rig(stage, enclave, failures)


def run_scalar(rig: Rig, bursts: Sequence[Burst], packets,
               unit=direct) -> list:
    classify = rig.stage.classify
    process = rig.enclave.process_packet
    results: list = []
    append = results.append

    def send(burst, pkts):
        cls = classify(burst.attrs, burst.msg_id)
        for packet in pkts:
            append(process(packet, cls))

    for index, (burst, pkts) in enumerate(zip(bursts, packets)):
        unit(index, lambda: send(burst, pkts))
    return results


def run_batch(rig: Rig, bursts: Sequence[Burst], packets,
              unit=direct) -> list:
    classify = rig.stage.classify
    process_batch = rig.enclave.process_batch
    results: list = []

    def send(start):
        entries = []
        for burst, pkts in zip(bursts[start:start + BATCH_BURSTS],
                               packets[start:start + BATCH_BURSTS]):
            cls = classify(burst.attrs, burst.msg_id)
            entries += [(packet, cls) for packet in pkts]
        results.extend(process_batch(entries))

    for index, start in enumerate(range(0, len(bursts), BATCH_BURSTS)):
        unit(index, lambda: send(start))
    return results


def _outputs(packets, results) -> Tuple[list, list]:
    fields = [oracles.observe(p) for pkts in packets for p in pkts]
    outcomes = [(tuple(r.executed), tuple(r.matched_classes), r.drop,
                 r.to_controller, r.faults, r.interpreter_ops,
                 r.error is None) for r in results]
    return fields, outcomes


def _wanted(bursts: Sequence[Burst]) -> list:
    wanted = []
    for burst in bursts:
        for spec in burst.specs:
            model = oracles.fresh(spec)
            oracles.tag(model)
            wanted.append(oracles.expected(model))
    return wanted


def _bad_outcomes(outcomes: list) -> int:
    """Packets not handled as exactly one clean ``tag`` run."""
    return sum(1 for executed, matched, drop, to_ctl, faults, _ops, ok
               in outcomes
               if executed != ("tag",) or matched != (TAG_CLASS,)
               or drop or to_ctl or faults or not ok)


class _Tally:
    """Per-run correctness bookkeeping shared by both run modes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.wrong = 0
        self.batch_differs = 0

    def check(self, bursts, scalar, batch=None) -> None:
        wanted = _wanted(bursts)
        fields, outcomes = _outputs(*scalar)
        self.attempted += len(fields)
        self.wrong += max(oracles.mismatches(fields, wanted),
                          _bad_outcomes(outcomes))
        if batch is not None:
            self.attempted += len(wanted)
            if _outputs(*batch) != (fields, outcomes):
                self.batch_differs += 1
                self.wrong += len(wanted)


def run(seed: int, seconds: int, smoke: bool) -> Dict[str, object]:
    """Untraced run: the end-to-end metrics."""
    size = sizes("enclave_tag", seconds, smoke)
    clock = SliceClock()
    setup = build_seconds(clock, build, size["setup_builds"])
    rig_a, rig_b = build(), build()
    traffic = TagTraffic(seed)
    tally = _Tally()
    per_packet = 1e6 / size["slice_packets"]
    scalar_us, batch_us = [], []
    for _ in range(size["slices"]):
        bursts = traffic.slice(size["slice_packets"])
        pkts_a = [build_packets(b.specs) for b in bursts]
        pkts_b = [build_packets(b.specs) for b in bursts]
        a, out_a = clock.timed(
            lambda: run_scalar(rig_a, bursts, pkts_a))
        b, out_b = clock.timed(
            lambda: run_batch(rig_b, bursts, pkts_b))
        scalar_us.append(a * per_packet)
        batch_us.append(b * per_packet)
        tally.check(bursts, (pkts_a, out_a), (pkts_b, out_b))
    faults = probes.function_stats([rig_a.enclave, rig_b.enclave],
                                   "faults")
    return {
        "attempted": tally.attempted,
        "failed": tally.wrong + faults,
        "checks": {
            "setup_demos_pass": rig_a.setup_failures == 0
            and rig_b.setup_failures == 0,
            "oracle_matches_every_packet": tally.wrong == 0,
            "batch_digest_equals_scalar": tally.batch_differs == 0,
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
    enclave = rig.enclave
    tracer.wrap(rig.stage, "classify", "core.stage.classify")
    tracer.wrap(enclave, "process_packet",
                "core.enclave.process_packet")
    tracer.wrap(enclave, "process_batch", "core.enclave.process_batch",
                weight=len)
    tracer.wrap(enclave.table(0), "lookup", "core.enclave.lookup")
    tracer.wrap(enclave.function("tag"), "execute", "lang.execute")


def run_traced(seed: int, seconds: int, smoke: bool,
               trace_path: str) -> Dict[str, object]:
    """Traced run at a quarter of the length: the per-layer metrics.

    Each slice runs three times on fresh copies of the same packets:
    scalar untraced, scalar traced, batch traced.  The first two give
    ``trace_overhead_pct``.
    """
    size = sizes("enclave_tag", seconds, smoke)
    n_slices = max(2, size["slices"] // 4)
    plain, traced_a, traced_b = build(), build(), build()
    tracer_a, tracer_b = Tracer(TRACE_STRIDE), Tracer(TRACE_STRIDE)
    _wrap(tracer_a, traced_a)
    _wrap(tracer_b, traced_b)
    traffic = TagTraffic(seed)
    clock = SliceClock()
    tally = _Tally()
    slices_plain, slices_traced = [], []
    packets = ops = chained = dropped = 0
    for _ in range(n_slices):
        bursts = traffic.slice(size["slice_packets"])
        pkts = [[build_packets(b.specs) for b in bursts]
                for _ in range(3)]
        slices_plain.append(clock.timed(
            lambda: run_scalar(plain, bursts, pkts[0]))[0])
        a, out_a = clock.timed(
            lambda: run_scalar(traced_a, bursts, pkts[1],
                               tracer_a.unit))
        _, out_b = clock.timed(
            lambda: run_batch(traced_b, bursts, pkts[2],
                              tracer_b.unit))
        slices_traced.append(a)
        packets += len(out_a)
        ops += sum(r.interpreter_ops for r in out_a)
        chained += sum(len(r.executed) > 1 for r in out_a)
        dropped += sum(r.drop for r in out_a)
        tally.check(bursts, (pkts[1], out_a), (pkts[2], out_b))
    tracer_a.unwrap_all()
    tracer_b.unwrap_all()
    trace = tracer_a.summary(clock.slowdown_median)
    batch = tracer_b.summary(clock.slowdown_median)
    tracer_a.write_jsonl(trace_path)

    stats = traced_a.enclave.stats_summary()
    created, live = probes.message_state([traced_a.enclave])
    plain_s = typical(slices_plain)["value"]
    traced_s = typical(slices_traced)["value"]
    pkt = "core.enclave.process_packet"
    metrics = {
        "lang.ops_per_pkt": ops / packets,
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
        "core.enclave.lookup_ns":
            trace.per_item_ns("core.enclave.lookup", per=pkt),
        "core.enclave.execute_ns":
            trace.per_item_ns("lang.execute", per=pkt),
        "core.enclave.self_ns": trace.per_item_ns(pkt, self_time=True),
        "core.enclave.self_share":
            trace.layer_self_share("core.enclave"),
        "core.enclave.chain_share": chained / packets,
        "core.enclave.drop_share": dropped / packets,
        "core.state.msgs_created": created,
        "core.state.msgs_live_peak": live,
        "bench.self_share": trace.layer_self_share("bench"),
        "trace_overhead_pct": 100.0 * (traced_s / plain_s - 1.0),
    }
    metrics.update(probes.compile_and_first_exec())
    metrics.update(probes.telemetry_overhead(
        build, run_scalar, TagTraffic(seed), size["slice_packets"],
        n_slices))
    return {
        "attempted": tally.attempted,
        "failed": tally.wrong,
        "checks": {
            "oracle_matches_every_packet": tally.wrong == 0,
            "batch_digest_equals_scalar": tally.batch_differs == 0,
            "every_packet_invoked_once":
                stats["tag"]["invocations"] == packets + 1,
        },
        "metrics": metrics,
        "slowdown_median": clock.slowdown_median,
    }
