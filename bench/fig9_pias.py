"""``fig9_pias``: the paper's Fig 9 experiment, the one users run.

``build_flow_scheduling("pias", "eden", seed)`` driven by ``start()``
and ``advance()`` in slices of one simulated millisecond: Poisson
requests at 70% load plus two bulk senders, an open loop in
simulated time.  After the loaded period the client and the bulk
senders stop and the run drains until every response is in (or a
cap), then ``finish()``.  ``transport.tcp`` and ``netsim`` dominate;
enclave + lang are a small share — the honest dilution check for any
data-path claim.

How much a simulated millisecond costs depends on which flows the
seed happens to draw (+-12% between seeds at this length), so one
``--seed`` feeds several shorter jobs with seeds of their own and the
metric is their mean.  Each job runs twice, scalar and with every
stack's ``batch_data_path`` on (phase B); the two must give the same
simulated results.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Tuple

import probes
from timing import SliceClock, build_seconds, quartiles
from tracing import Tracer, direct
from workloads import fig9_config, sizes

from repro.apps.workloads import SMALL_FLOW_MAX
from repro.experiments.fig9 import Fig9Scenario, build_flow_scheduling
from repro.netsim.simulator import MS
from repro.netsim.tracing import mean, percentile
from repro.transport.tcp import TcpConnection

#: Every 4th simulated millisecond of a traced run records spans.
TRACE_STRIDE = 4
#: Simulated ms of the latency-collector overhead probe.
LATENCY_PROBE_MS = 10


def build(config: Dict[str, object], batch: bool = False
          ) -> Fig9Scenario:
    scenario = build_flow_scheduling(**config)
    for stack in scenario.stacks.values():
        stack.batch_data_path = batch
    return scenario


def run_job(clock: SliceClock, scenario: Fig9Scenario, loaded_ms: int,
            drain_cap_ms: int, unit=direct
            ) -> Tuple[List[float], Dict[str, object], int]:
    """One whole job; returns the loaded slices' scaled seconds,
    everything simulated the job produced — a function of the
    configuration alone — and the events of the loaded period, which
    the batch path's flushes add to."""
    gc.collect()
    scenario.start()
    slices = []
    for ms in range(1, loaded_ms + 1):
        slices.append(clock.timed(
            lambda: unit(ms - 1, lambda: scenario.advance(ms * MS)))[0])
    client = scenario.client
    loaded_events = scenario.events
    packets = sum(s.packets_sent for s in scenario.stacks.values())
    client.stop()
    for sender in scenario.bulk_senders:
        sender.stop()
    ms = loaded_ms
    while client.responses_done < client.requests_sent and \
            ms < loaded_ms + drain_cap_ms:
        ms += 1
        scenario.advance(ms * MS)
    result = scenario.finish()
    cutoff = scenario.warmup_ms * MS
    small = [r.fct_us for r in scenario.tracker.records
             if r.size_bytes < SMALL_FLOW_MAX
             and r.started_at >= cutoff]
    results = {
        "fct_small_mean_us": mean(small),
        "fct_small_p95_us": percentile(small, 95),
        "fct_small_n": len(small),
        "fct_mid_mean_us": result.mid_avg_us,
        "requests_sent": client.requests_sent,
        "responses_done": client.responses_done,
        "loaded_packets": packets,
        "drained_at_ms": ms,
        "background_bytes": sum(b.bytes_completed
                                for b in scenario.bulk_senders),
    }
    return slices, results, loaded_events


def run(seed: int, seconds: int, smoke: bool) -> Dict[str, object]:
    """Untraced run: the end-to-end metrics."""
    size = sizes("fig9_pias", seconds, smoke)
    loaded_ms = size["loaded_ms"]
    clock = SliceClock()
    setup = build_seconds(
        clock, lambda: build(fig9_config(seed, 0, loaded_ms)),
        size["setup_builds"])
    seconds_of: Dict[bool, List[float]] = {False: [], True: []}
    attempted = unfinished = measured = 0
    batch_differs = []
    for job in range(size["jobs"]):
        config = fig9_config(seed, job, loaded_ms)
        outcomes = []
        for batch in (False, True):
            slices, outcome, _ = run_job(
                clock, build(config, batch), loaded_ms,
                size["drain_cap_ms"])
            seconds_of[batch].append(sum(slices))
            outcomes.append(outcome)
            attempted += outcome["requests_sent"]
            unfinished += (outcome["requests_sent"]
                           - outcome["responses_done"])
        batch_differs.append(outcomes[0] != outcomes[1])
        measured += outcomes[0]["fct_small_n"]

    def us_per_sim_us(jobs: List[float]) -> Dict[str, float]:
        # s per job -> us per simulated us of the loaded period.
        scale = 1e6 / (loaded_ms * 1000.0)
        stats = quartiles([s * scale for s in jobs])
        stats["value"] = sum(jobs) / len(jobs) * scale
        return stats

    return {
        "attempted": attempted,
        "failed": unfinished,
        "checks": {
            "batch_results_equal_scalar": not any(batch_differs),
            "every_request_answered": unfinished == 0,
            "small_flows_measured": measured > 0,
        },
        "metrics": {
            "setup_s": setup,
            "scalar_us_per_unit": us_per_sim_us(seconds_of[False]),
            "batch_us_per_unit": us_per_sim_us(seconds_of[True]),
        },
        "slowdown_median": clock.slowdown_median,
    }


def _wrap(tracer: Tracer, scenario: Fig9Scenario) -> List[int]:
    """Wrap every layer boundary of a built scenario; returns the
    one-cell retransmit counter fed as connections finish."""
    tracer.wrap(scenario.net.sim, "run", "netsim.run")
    for method in ("handle_packet", "message_send", "connect",
                   "close"):
        tracer.wrap(TcpConnection, method, f"transport.tcp.{method}")
    retransmits = [0]
    for name, stack in scenario.stacks.items():
        tracer.wrap(stack, "send_packet", "stack.send_packet")
        tracer.wrap(stack, "handle_rx", "stack.handle_rx")
        tracer.wrap(stack.rate_limiters, "submit",
                    "stack.ratelimiter.submit")
        for port in scenario.hosts[name].ports:
            tracer.wrap(port, "enqueue", "netsim.port.enqueue")
        done = stack.connection_done

        def counted(conn, _done=done):
            retransmits[0] += conn.stats.retransmits
            _done(conn)

        stack.connection_done = counted
        enclave = stack.enclave
        if enclave is None:
            continue
        tracer.wrap(enclave, "process_packet",
                    "core.enclave.process_packet")
        for table_id in enclave.query_tables():
            tracer.wrap(enclave.table(table_id), "lookup",
                        "core.enclave.lookup")
        for fn_name in enclave.functions():
            function = enclave.function(fn_name)
            tracer.wrap(function, "execute", "lang.execute")
            if function.message_store is not None:
                tracer.wrap(function.message_store, "lookup",
                            "core.enclave.state_read")
                tracer.wrap(function.message_store, "commit",
                            "core.enclave.commit")
    return retransmits


def run_traced(seed: int, seconds: int, smoke: bool,
               trace_path: str) -> Dict[str, object]:
    """One untraced and one traced job: the per-layer metrics.

    Tracing must not perturb the simulation: both jobs have to give
    the same simulated results.
    """
    size = sizes("fig9_pias", seconds, smoke)
    loaded_ms = size["traced_loaded_ms"]
    config = fig9_config(seed, 0, loaded_ms)
    clock = SliceClock()
    plain_slices, plain, events = run_job(
        clock, build(config), loaded_ms, size["drain_cap_ms"])
    scenario = build(config)
    tracer = Tracer(TRACE_STRIDE)
    retransmits = _wrap(tracer, scenario)
    try:
        traced_slices, traced, _ = run_job(
            clock, scenario, loaded_ms, size["drain_cap_ms"],
            tracer.unit)
    finally:
        tracer.unwrap_all()
    trace = tracer.summary(clock.slowdown_median)
    tracer.write_jsonl(trace_path)

    enclaves = [s.enclave for s in scenario.stacks.values()
                if s.enclave is not None]
    retransmits[0] += sum(conn.stats.retransmits
                          for s in scenario.stacks.values()
                          for conn in s.connections())
    pkt = "core.enclave.process_packet"
    plain_s = sum(plain_slices)
    unfinished = sum(o["requests_sent"] - o["responses_done"]
                     for o in (plain, traced))
    metrics = {
        "lang.ops_per_pkt":
            probes.function_stats(enclaves, "ops_executed")
            / max(1, probes.function_stats(enclaves, "invocations")),
        "lang.faults": probes.function_stats(enclaves, "faults"),
        "lang.self_share": trace.layer_self_share("lang"),
        "core.enclave.pkt_ns_p50": trace.median_ns(pkt),
        "core.enclave.pkt_ns_p99": trace.percentile_ns(pkt, 99),
        "core.enclave.lookup_ns":
            trace.per_item_ns("core.enclave.lookup", per=pkt),
        "core.enclave.state_read_ns":
            trace.per_item_ns("core.enclave.state_read", per=pkt),
        "core.enclave.execute_ns":
            trace.per_item_ns("lang.execute", per=pkt),
        "core.enclave.commit_ns":
            trace.per_item_ns("core.enclave.commit", per=pkt),
        "core.enclave.self_ns": trace.per_item_ns(pkt, self_time=True),
        "core.enclave.self_share":
            trace.layer_self_share("core.enclave"),
        "core.state.msgs_created": probes.message_state(enclaves)[0],
        "core.state.msgs_live_peak": probes.message_state(enclaves)[1],
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
        "transport.tcp.self_share":
            trace.layer_self_share("transport.tcp"),
        "transport.tcp.retransmits": retransmits[0],
        "netsim.events_per_s": events / plain_s,
        "netsim.events_per_pkt": events / plain["loaded_packets"],
        "netsim.self_share": trace.layer_self_share("netsim"),
        "netsim.port_drops": sum(
            port.stats.drops
            for device in (list(scenario.hosts.values())
                           + list(scenario.net.switches.values()))
            for port in device.ports),
        "fig9.fct_small_mean_us": plain["fct_small_mean_us"],
        "fig9.fct_small_p95_us": plain["fct_small_p95_us"],
        "fig9.fct_small_n": plain["fct_small_n"],
        "fig9.wall_ms_per_sim_ms": plain_s * 1e3 / loaded_ms,
        "bench.self_share": trace.layer_self_share("bench"),
        "trace_overhead_pct":
            100.0 * (sum(traced_slices) / plain_s - 1.0),
    }
    metrics.update(probes.latency_overhead(
        config, 1 if smoke else LATENCY_PROBE_MS))
    metrics.update(probes.netsim_scale(smoke))
    return {
        "attempted": plain["requests_sent"] + traced["requests_sent"],
        "failed": unfinished,
        "checks": {
            "tracing_does_not_perturb_results": traced == plain,
            "every_request_answered": unfinished == 0,
        },
        "metrics": metrics,
        "slowdown_median": clock.slowdown_median,
    }
