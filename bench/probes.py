"""Single-layer probes run beside a traced workload.

Each probe returns ``{metric name: value}`` for the per-layer table.
A probe whose helper or backend a later change retires reports
nothing — the harness prints the metric as 0 — and never breaks the
run: :func:`guarded` is the one boundary that keeps going, and it
says so on stderr.
"""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Sequence, Tuple

from timing import SliceClock, typical

#: PIAS thresholds of the execution probe: message size above every
#: one of 16 levels forces the demotion search to walk the table —
#: the interpreter's hottest realistic path (344 ops).
PIAS_LEVELS = 16


class CheckFailed(Exception):
    """A probe ran and what it computed was wrong."""


def guarded(probe: Callable[..., Dict[str, float]]
            ) -> Callable[..., Dict[str, float]]:
    def run(*args, **kwargs) -> Dict[str, float]:
        try:
            return probe(*args, **kwargs)
        except CheckFailed:
            raise
        except Exception:
            print(f"probe {probe.__name__} unavailable:",
                  file=sys.stderr)
            traceback.print_exc()
            return {}
    run.__name__ = probe.__name__
    return run


def function_stats(enclaves: Sequence, key: str) -> int:
    """``stats_summary()[*][key]`` summed over enclaves' functions
    (``faults``, ``ops_executed``, ``invocations``)."""
    return sum(row[key] for enclave in enclaves
               for row in enclave.stats_summary().values())


def message_state(enclaves: Sequence) -> Tuple[int, int]:
    """(messages created, messages live) over all message stores."""
    created = live = 0
    for enclave in enclaves:
        for name in enclave.functions():
            store = enclave.function(name).message_store
            if store is not None:
                created += store.created_total
                live += len(store)
    return created, live


def _best_ns(fn: Callable[[], object], slices: int) -> float:
    clock = SliceClock()
    return min(clock.timed(fn)[0] for _ in range(slices)) * 1e9


def _pias_snapshot():
    from repro.functions.pias import (PIAS_GLOBAL_SCHEMA,
                                      PIAS_MESSAGE_SCHEMA, pias_action)
    from repro.lang import DEFAULT_PACKET_SCHEMA, compile_action

    _, program = compile_action(
        pias_action, packet_schema=DEFAULT_PACKET_SCHEMA,
        message_schema=PIAS_MESSAGE_SCHEMA,
        global_schema=PIAS_GLOBAL_SCHEMA, name="pias")
    records: List[int] = []
    for level in range(PIAS_LEVELS):
        records += (10_000 * (level + 1), 7 - min(level, 7))
    values = {("message", "size"): 10_000 * PIAS_LEVELS + 1,
              ("message", "priority"): 1}
    fields = [values.get((ref.scope, ref.name), 0)
              for ref in program.field_table]
    arrays = [list(records) for _ in program.array_table]
    return program, fields, arrays


@guarded
def compile_and_first_exec() -> Dict[str, float]:
    """Cold costs: compile, and the first execution per backend."""
    from repro.functions.library import table1
    from repro.lang import (DEFAULT_PACKET_SCHEMA, Interpreter,
                            backend_names, compile_action)

    compile_us = []
    for entry in table1():
        spec = entry.demo
        if spec is None:
            continue
        t0 = time.perf_counter()
        compile_action(spec.action,
                       packet_schema=DEFAULT_PACKET_SCHEMA,
                       message_schema=spec.message_schema,
                       global_schema=spec.global_schema,
                       name=spec.function_name)
        compile_us.append((time.perf_counter() - t0) * 1e6)
    out = {"lang.compile_us": statistics.median(compile_us)}
    for backend in backend_names():
        firsts = []
        for _ in range(5):
            program, fields, arrays = _pias_snapshot()
            interp = Interpreter(dispatch=backend)
            t0 = time.perf_counter()
            interp.execute(program, fields, arrays)
            firsts.append((time.perf_counter() - t0) * 1e6)
        out[f"lang.first_exec_us.{backend}"] = \
            statistics.median(firsts)
    return out


@guarded
def exec_costs(smoke: bool) -> Dict[str, float]:
    """Steady-state bytecode cost per backend, scalar and batched:
    the best of a few calibrated slices."""
    from repro.lang import Interpreter, backend_names

    calls, batch = 192, 64
    slices = 2 if smoke else 5
    out: Dict[str, float] = {}
    for backend in backend_names():
        program, fields, arrays = _pias_snapshot()
        interp = Interpreter(dispatch=backend)
        ops = interp.execute(program, fields, arrays).stats.ops_executed

        def scalar():
            for _ in range(calls):
                interp.execute(program, fields, arrays)

        per_call = _best_ns(scalar, slices) / calls
        if not ops:
            # Native runs the typed AST, not bytecode: no op count.
            out[f"lang.exec_ns_per_call.{backend}"] = per_call
            continue
        out[f"lang.exec_ns_per_op.{backend}"] = per_call / ops
        snapshots = [(fields, arrays)] * batch

        def batched():
            for _ in range(calls // batch):
                interp.execute_batch(program, snapshots)

        out[f"lang.batch_ns_per_op.{backend}"] = (
            _best_ns(batched, slices) / (calls * ops))
    return out


@guarded
def telemetry_overhead(build, run_slice, traffic, slice_packets: int,
                       n_slices: int) -> Dict[str, float]:
    """``enclave_tag`` scalar slices with ``Telemetry(enabled=True)``
    against the default, interleaved."""
    from repro.telemetry import Telemetry
    from workloads import build_packets

    rig_off, rig_on = build(), build(telemetry=Telemetry(enabled=True))
    clock = SliceClock()
    off, on = [], []
    for _ in range(n_slices):
        bursts = traffic.slice(slice_packets)
        for rig, sink in ((rig_off, off), (rig_on, on)):
            packets = [build_packets(b.specs) for b in bursts]
            sink.append(clock.timed(
                lambda: run_slice(rig, bursts, packets))[0])
    ratio = typical(on)["value"] / typical(off)["value"]
    return {"telemetry.on_overhead_pct": 100.0 * (ratio - 1.0)}


@guarded
def latency_overhead(config: Dict[str, object],
                     sim_ms: int) -> Dict[str, float]:
    """Fig 9 for ``sim_ms`` with a ``LatencyCollector`` bound against
    the default, one simulated ms per slice, interleaved."""
    from repro.experiments.fig9 import build_flow_scheduling
    from repro.latency import LatencyCollector
    from repro.netsim.simulator import MS
    from repro.telemetry import Telemetry

    off = build_flow_scheduling(**config)
    on = build_flow_scheduling(
        telemetry=Telemetry(latency=LatencyCollector()), **config)
    clock = SliceClock()
    walls_off, walls_on = [], []
    for ms in range(1, sim_ms + 1):
        for scenario, walls in ((off, walls_off), (on, walls_on)):
            walls.append(clock.timed(
                lambda: scenario.advance(ms * MS))[0])
    ratio = sum(walls_on) / sum(walls_off)
    return {"latency.on_overhead_pct": 100.0 * (ratio - 1.0)}


@guarded
def netsim_scale(smoke: bool) -> Dict[str, float]:
    """Single-heap against sharded simulator on a fat-tree; the two
    must deliver the same per-host digests."""
    from repro.experiments.scale import run_scale

    result = run_scale(k=4 if smoke else 8, n_shards=2 if smoke else 4)
    if not result.digests_match:
        raise CheckFailed("sharded and single-heap digests differ")
    return {"netsim.single.events_per_s": result.eps_single,
            "netsim.sharded.events_per_s": result.eps_sharded,
            "netsim.sharded.windows": result.windows}
