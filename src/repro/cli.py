"""Command-line front end: ``python -m repro <experiment> [options]``.

Runs any of the paper-reproduction experiments without writing code:

    python -m repro table1
    python -m repro fig9  --duration-ms 120 --seed 1
    python -m repro fig10 --duration-ms 100
    python -m repro fig11 --duration-ms 200
    python -m repro fig12 --duration-ms 20
    python -m repro micro --packets 300
    python -m repro control-demo --enclaves 8 --loss 0.1
    python -m repro telemetry-report --duration-ms 100
    python -m repro fleet-demo --attackers 8
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_table1(args) -> int:
    from .functions.library import format_table, run_demos, table1
    print(format_table())
    results = run_demos(backend=args.backend)
    failed = [name for name, ok in results.items() if not ok]
    print(f"\n{len(results) - len(failed)}/{len(results)} demos "
          f"passed ({args.backend}).")
    if failed:
        print("FAILED:", ", ".join(failed))
        return 1
    return 0


def _cmd_fig9(args) -> int:
    from .experiments import fig9
    results = fig9.run_all(seed=args.seed,
                           duration_ms=args.duration_ms)
    print(fig9.format_results(results))
    return 0


def _cmd_fig10(args) -> int:
    from .experiments import fig10
    results = fig10.run_all(seed=args.seed,
                            duration_ms=args.duration_ms)
    print(fig10.format_results(results))
    return 0


def _cmd_fig11(args) -> int:
    from .experiments import fig11
    results = fig11.run_all(seed=args.seed,
                            duration_ms=args.duration_ms)
    print(fig11.format_results(results))
    return 0


def _cmd_fig12(args) -> int:
    from .experiments import fig12
    result = fig12.run_overheads(seed=args.seed,
                                 duration_ms=args.duration_ms)
    print(fig12.format_result(result))
    return 0


def _cmd_micro(args) -> int:
    from .experiments import micro
    results = micro.run_micro(packets=args.packets)
    print(micro.format_results(results))
    return 0


def _cmd_control_demo(args) -> int:
    """Lossy control-channel convergence scenario (repro.control).

    Runs PIAS + WCMP under injected control-message loss plus one
    enclave restart, and fails unless every enclave converged to the
    controller's desired state and the stale-epoch install was
    rejected.
    """
    from .experiments import control_demo
    num_hosts = args.enclaves if args.enclaves is not None \
        else args.hosts
    result = control_demo.run_scenario(
        seed=args.seed, loss=args.loss,
        duration_ms=args.duration_ms, num_hosts=num_hosts)
    print(control_demo.format_result(result))
    return 0 if result.converged else 1


def _cmd_telemetry_report(args) -> int:
    """Run the control-demo scenario with telemetry enabled and print
    a metrics/span report in JSONL and Prometheus text formats.

    Fails (exit 1) unless the run produced the acceptance signals: a
    non-empty registry snapshot with enclave lookups, interpreter ops
    and channel retransmits, and at least one complete
    stage -> enclave -> interpreter span chain.
    """
    from .experiments import control_demo
    from .telemetry import Telemetry
    from .telemetry.exporters import (metric_jsonl_lines,
                                      prometheus_text,
                                      span_jsonl_lines)
    from .telemetry.spans import format_trace, traces_containing

    tel = Telemetry(enabled=True, recorder_capacity=args.max_spans)
    result = control_demo.run_scenario(
        seed=args.seed, loss=args.loss,
        duration_ms=args.duration_ms, num_hosts=args.hosts,
        telemetry=tel)

    registry = tel.registry
    spans = tel.recorder.spans()
    chain = ("stage.classify", "enclave.lookup", "interpreter.execute")
    chains = traces_containing(spans, chain)

    print("# ==== prometheus ====")
    print(prometheus_text(registry))
    print("# ==== jsonl ====")
    if args.jsonl_spans:
        shown = spans
    else:
        # Keep the dump small: metrics plus the spans of one complete
        # chain (enough to show the full trace tree in JSONL form).
        keep = chains[0] if chains else None
        shown = [s for s in spans if s.trace_id == keep] if keep else []
    for line in metric_jsonl_lines(registry):
        print(line)
    for line in span_jsonl_lines(shown):
        print(line)
    print("# ==== summary ====")
    lookups = registry.total("enclave_lookups_total")
    retrans = registry.total("channel_retransmits_total")
    interp_ops = registry.total("interp_ops_per_invocation")
    print(f"enclave lookups:      {lookups}")
    print(f"interpreter runs:     {interp_ops}")
    print(f"channel retransmits:  {retrans}")
    print(f"spans recorded:       {tel.recorder.recorded} "
          f"({tel.recorder.dropped} dropped)")
    print(f"complete chains:      {len(chains)} "
          f"(stage.classify -> enclave.lookup -> interpreter.execute)")
    if chains:
        print("\nexample trace:")
        print(format_trace(
            [s for s in spans if s.trace_id == chains[0]]))
    print(f"\nconverged: {'yes' if result.converged else 'NO'}")

    ok = (result.converged and chains and lookups > 0 and
          interp_ops > 0 and retrans > 0)
    return 0 if ok else 1


def _cmd_latency_breakdown(args) -> int:
    """Per-packet latency decomposition vs offered load (the
    repro.latency figure; see docs/LATENCY.md)."""
    from .experiments import latency_breakdown
    loads = tuple(float(v) for v in args.loads.split(","))
    points = latency_breakdown.run_breakdown(
        loads=loads, policy=args.policy, variant=args.variant,
        seed=args.seed, duration_ms=args.duration_ms)
    print(latency_breakdown.format_breakdown(
        points, policy=args.policy, variant=args.variant))
    return 0


def _cmd_latency_serve(args) -> int:
    """Long-running latency decomposition service.

    Runs the Figure 9 flow-scheduling workload (with Pulsar-limited
    background senders) while streaming per-packet latency
    decompositions over HTTP: ``/snapshot``, ``/prometheus``,
    ``/packets/<flow>`` and a chunked ``/stream`` of window
    summaries.  ``--once`` exits after one scenario pass instead of
    serving until interrupted; ``--smoke`` additionally verifies the
    serve contract (every segment class present and exercised,
    residual within budget, endpoints live) and fails on violation.
    """
    from .latency.scenario import LatencyScenario, ServeConfig
    from .netsim.simulator import MS

    config = ServeConfig(
        policy=args.policy, variant=args.variant, seed=args.seed,
        duration_ms=args.duration_ms, step_ms=args.step_ms,
        load=args.load,
        background_rate_bps=(args.background_rate_mbps * 1_000_000
                             if args.background_rate_mbps else None),
        window_ms=args.window_ms, host=args.host, port=args.port,
        pace_s=0.0 if args.once else args.pace_ms / 1e3)
    scenario = LatencyScenario(config)
    server = scenario.make_server().start()
    print(f"latency-serve: {config.policy}/{config.variant} "
          f"{config.duration_ms} ms simulated, "
          f"window {config.window_ms} ms")
    print(f"serving on {server.url}  "
          f"(endpoints: /snapshot /prometheus /packets/<flow> "
          f"/stream)")
    status = 0
    try:
        scenario.run(progress=lambda s: print(
            f"\r  t={s.workload.now_ns // MS:5d} ms  "
            f"packets={s.collector.completed}", end="", flush=True))
        print()
        result = scenario.finish()
        server.finish()
        print(result.row())
        for cls, stats in scenario.store.segment_summary().items():
            print(f"  {cls:22s} mean {stats['mean_ns'] / 1e3:10.2f} us"
                  f"  p99 {stats['p99_ns'] / 1e3:10.2f} us")
        if args.smoke:
            status = _latency_smoke(scenario, server)
        if not args.once:
            print("scenario complete; still serving "
                  "(Ctrl-C to stop)...")
            import time as _time
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:
        print("\ninterrupted")
    finally:
        server.stop()
    return status


def _latency_smoke(scenario, server) -> int:
    """The --smoke contract: in-process segment checks plus one live
    probe of every HTTP endpoint."""
    import json
    from urllib.request import urlopen

    failures = scenario.smoke_failures()
    try:
        with urlopen(f"{server.url}/snapshot", timeout=10) as resp:
            snap = json.loads(resp.read())
        for cls in scenario.store.segment_summary():
            if cls not in snap["segments"]:
                failures.append(
                    f"/snapshot missing segment class {cls!r}")
        with urlopen(f"{server.url}/prometheus", timeout=10) as resp:
            prom = resp.read().decode()
        if "latency_segment_ns" not in prom:
            failures.append("/prometheus missing latency_segment_ns")
        with urlopen(f"{server.url}/stream", timeout=10) as resp:
            streamed = [json.loads(line)
                        for line in resp.read().splitlines() if line]
        if not streamed:
            failures.append("/stream produced no window summaries")
    except OSError as exc:
        failures.append(f"HTTP probe failed: {exc}")
    if failures:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}")
        return 1
    print(f"latency-serve smoke OK ({scenario.collector.completed} "
          f"packets, {len(streamed)} streamed windows, residual "
          f"within budget)")
    return 0


def _cmd_fleet_demo(args) -> int:
    """Staged DDoS-mitigation rollout (repro.fleet).

    A fleet of compromised hosts floods a victim; the controller
    stages a canary-first rollout of the composed spoof-guard +
    per-source-rate-limit function across the attacker enclaves over
    a lossy control channel.  Prints the wave-by-wave goodput
    recovery figure; fails unless the rollout converged, the recovery
    was monotonic, and final goodput dominates the under-attack
    baseline.
    """
    from .experiments import fleet_demo
    result = fleet_demo.run_demo(
        seed=args.seed, attackers=args.attackers, loss=args.loss,
        attack_rate_mbps=args.attack_rate_mbps)
    print(fleet_demo.format_result(result))
    ok = (result.converged and result.recovery_monotonic and
          result.recovered)
    if not ok:
        print("fleet-demo FAILED: "
              f"converged={result.converged} "
              f"monotonic={result.recovery_monotonic} "
              f"recovered={result.recovered}")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    """Regenerate the full evaluation into one markdown report."""
    from .experiments import fig9, fig10, fig11, fig12, micro
    from .functions.library import format_table, run_demos

    sections = []

    def add(title, body):
        sections.append(f"## {title}\n\n```\n{body}\n```\n")
        print(f"[done] {title}")

    print("regenerating the full evaluation "
          f"(seed {args.seed}; this takes several minutes)...")
    demos = run_demos()
    add("Table 1 — coverage",
        format_table() + f"\n\n{sum(demos.values())}/{len(demos)} "
        f"demos passed")
    add("Section 5.4 — interpreter micro",
        micro.format_results(micro.run_micro()))
    add("Figure 12 — CPU overheads",
        fig12.format_result(fig12.run_overheads(seed=args.seed)))
    add("Figure 11 — Pulsar storage QoS",
        fig11.format_results(fig11.run_all(seed=args.seed)))
    add("Figure 10 — ECMP vs WCMP",
        fig10.format_results(fig10.run_all(seed=args.seed)))
    add("Figure 9 — flow scheduling",
        fig9.format_results(fig9.run_all(seed=args.seed)))

    body = ("# Eden reproduction report\n\n"
            f"Seed {args.seed}. Regenerate with "
            f"`python -m repro report --seed {args.seed}`.\n\n" +
            "\n".join(sections))
    with open(args.out, "w") as handle:
        handle.write(body)
    print(f"\nwrote {args.out}")
    return 0


_COMMANDS = {
    "table1": (_cmd_table1, "Table 1 coverage matrix + demos"),
    "fig9": (_cmd_fig9, "flow scheduling FCTs"),
    "fig10": (_cmd_fig10, "ECMP vs WCMP throughput"),
    "fig11": (_cmd_fig11, "Pulsar storage QoS"),
    "fig12": (_cmd_fig12, "Eden CPU overheads"),
    "micro": (_cmd_micro, "interpreter microbenchmarks"),
    "control-demo": (_cmd_control_demo,
                     "lossy control-channel PIAS/WCMP convergence"),
    "telemetry-report": (_cmd_telemetry_report,
                         "control-demo with metrics + span tracing"),
    "latency-breakdown": (_cmd_latency_breakdown,
                          "per-packet latency decomposition vs load"),
    "latency-serve": (_cmd_latency_serve,
                      "live latency decomposition service over HTTP"),
    "fleet-demo": (_cmd_fleet_demo,
                   "staged DDoS-mitigation rollout across a fleet"),
    "report": (_cmd_report, "run everything, write a markdown report"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the evaluation of 'Enabling End-host "
                    "Network Functions' (SIGCOMM 2015).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=1)
        if name in ("fig9", "fig10", "fig11", "fig12"):
            default = {"fig9": 120, "fig10": 100, "fig11": 200,
                       "fig12": 20}[name]
            p.add_argument("--duration-ms", type=int,
                           default=default,
                           help="simulated milliseconds per run")
        if name == "micro":
            p.add_argument("--packets", type=int, default=300)
        if name == "table1":
            from .lang import backends as lang_backends
            p.add_argument("--backend", default="interpreter",
                           choices=("interpreter",)
                           + tuple(lang_backends.names()))
        if name in ("control-demo", "telemetry-report"):
            default_ms = 400 if name == "control-demo" else 100
            p.add_argument("--loss", type=float, default=0.10,
                           help="control-message drop probability")
            p.add_argument("--duration-ms", type=int,
                           default=default_ms,
                           help="simulated milliseconds (lossy window)")
            p.add_argument("--hosts", type=int, default=3,
                           help="number of managed enclaves")
        if name == "control-demo":
            p.add_argument("--enclaves", type=int, default=None,
                           help="number of managed enclaves "
                                "(fleet-style alias for --hosts; "
                                "wins when both are given)")
        if name == "telemetry-report":
            p.add_argument("--max-spans", type=int, default=65536,
                           help="flight-recorder capacity")
            p.add_argument("--jsonl-spans", action="store_true",
                           help="dump every recorded span as JSONL "
                                "(default: one complete chain)")
        if name in ("latency-breakdown", "latency-serve"):
            p.add_argument("--policy", default="pias",
                           choices=("baseline", "pias", "sff"))
            p.add_argument("--variant", default="eden",
                           choices=("native", "eden"))
            p.add_argument("--duration-ms", type=int, default=120,
                           help="simulated milliseconds per run")
        if name == "latency-breakdown":
            p.add_argument("--loads", default="0.3,0.5,0.7,0.9",
                           help="comma-separated offered loads")
        if name == "latency-serve":
            p.add_argument("--load", type=float, default=0.7,
                           help="offered load on the worker link")
            p.add_argument("--step-ms", type=int, default=10,
                           help="simulated milliseconds per slice "
                                "between HTTP serving opportunities")
            p.add_argument("--window-ms", type=int, default=10,
                           help="tumbling-window width for /stream "
                                "summaries")
            p.add_argument("--background-rate-mbps", type=int,
                           default=2000,
                           help="aggregate Pulsar rate for the "
                                "background tenant (0: no rate "
                                "limiting)")
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument("--port", type=int, default=0,
                           help="listen port (0: OS-assigned)")
            p.add_argument("--pace-ms", type=float, default=50.0,
                           help="wall-clock milliseconds to sleep "
                                "between slices when serving live")
            p.add_argument("--once", action="store_true",
                           help="run one scenario pass and exit "
                                "instead of serving until Ctrl-C")
            p.add_argument("--smoke", action="store_true",
                           help="verify the serve contract (segment "
                                "classes, residual budget, live "
                                "endpoints); nonzero exit on failure")
        if name == "fleet-demo":
            p.add_argument("--attackers", type=int, default=8,
                           help="compromised hosts in the fleet")
            p.add_argument("--loss", type=float, default=0.10,
                           help="control-message drop probability")
            p.add_argument("--attack-rate-mbps", type=int,
                           default=None,
                           help="per-attacker UDP offered load "
                                "(default: 150)")
        if name == "report":
            p.add_argument("--out", default="report.md",
                           help="output markdown path")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
