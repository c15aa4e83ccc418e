"""Figure 12: CPU overhead of the Eden components.

Paper setup (Section 5.4): 12 long-running TCP flows saturating a
10 Gbps link under the SFF policy; reported is the CPU overhead of
each Eden component — *API* (passing metadata to the enclave),
*enclave* (classification match + state management), *interpreter*
(bytecode execution) — relative to the vanilla TCP stack, at the mean
and the 95th percentile.

Here the buckets are wall-clock samples per packet collected by
:class:`repro.core.accounting.CpuAccounting`; the vanilla baseline is
the measured cost of the stack's send path with no enclave.  Being a
Python interpreter interpreting bytecode, the absolute percentages are
far larger than the paper's — the claim under test is the
decomposition and ordering, not the absolute numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..apps.workloads import SinkServer, generic_app_stage
from ..core.accounting import CpuAccounting
from ..core.controller import Controller
from ..core.enclave import Enclave
from ..functions.pias import FlowSchedulingDeployment
from ..netsim.simulator import GBPS, MS, Simulator
from ..netsim.topology import star
from ..stack.netstack import HostStack
from ..transport.sockets import MessageSocket
from .fig9 import PRIORITY_THRESHOLDS

SINK_PORT = 9300
CHUNK = 2_000_000
N_FLOWS = 12


@dataclass
class Fig12Result:
    #: bucket -> (mean %, 95th percentile %) relative to vanilla
    overhead_pct: Dict[str, Tuple[float, float]]
    vanilla_ns_per_packet: float
    packets: int

    def rows(self) -> List[str]:
        out = []
        for bucket in ("api", "enclave", "interpreter"):
            avg, p95 = self.overhead_pct.get(bucket, (0.0, 0.0))
            out.append(f"{bucket:<12} avg {avg:7.1f}%   "
                       f"95th {p95:7.1f}%")
        return out


def _run_flows(sim: Simulator, s1: HostStack, s2: HostStack,
               server_ip: int, duration_ms: int, stage) -> int:
    SinkServer(s2, SINK_PORT)

    def make_refill(sock: MessageSocket):
        def refill(record, now):
            sock.send(CHUNK,
                      attrs={"msg_type": "bulk", "priority": 7,
                             "msg_size": CHUNK},
                      on_complete=refill)
        return refill

    for _ in range(N_FLOWS):
        conn = s1.connect(server_ip, SINK_PORT)
        socket = MessageSocket(conn, stage)
        refill = make_refill(socket)
        conn.on_established = (
            lambda c, r=refill, s=socket: s.send(
                CHUNK, attrs={"msg_type": "bulk", "priority": 7,
                              "msg_size": CHUNK}, on_complete=r))
    sim.run(until_ns=duration_ms * MS)
    return s1.packets_sent


def measure_vanilla_ns(seed: int = 1,
                       duration_ms: int = 30) -> Tuple[float, int]:
    """Wall-clock cost per packet of the vanilla (no-enclave) send
    path."""
    sim = Simulator(seed=seed)
    net = star(sim, 2, host_rate_bps=10 * GBPS)
    s1 = HostStack(sim, net.hosts["h1"])
    s2 = HostStack(sim, net.hosts["h2"])
    stage = generic_app_stage()

    original = s1.send_packet
    samples: List[int] = []

    def timed(packet, pure_ack=False):
        t0 = time.perf_counter_ns()
        original(packet, pure_ack=pure_ack)
        samples.append(time.perf_counter_ns() - t0)

    s1.send_packet = timed
    _run_flows(sim, s1, s2, net.host_ip("h2"), duration_ms, stage)
    if not samples:
        return 0.0, 0
    return sum(samples) / len(samples), len(samples)


def run_overheads(seed: int = 1, *, duration_ms: int,
                  policy: str = "sff") -> Fig12Result:
    """Measure per-bucket CPU cost relative to the vanilla stack."""
    vanilla_ns, _ = measure_vanilla_ns(seed=seed,
                                       duration_ms=duration_ms)

    sim = Simulator(seed=seed)
    net = star(sim, 2, host_rate_bps=10 * GBPS)
    accounting = CpuAccounting(enabled=True)
    controller = Controller()
    enclave = Enclave("h1.enclave", clock=sim.clock, rng=sim.rng,
                      accounting=accounting)
    controller.register_enclave("h1", enclave)
    s1 = HostStack(sim, net.hosts["h1"], enclave=enclave,
                   accounting=accounting, process_pure_acks=False)
    s2 = HostStack(sim, net.hosts["h2"])
    deployment = FlowSchedulingDeployment(controller, policy=policy)
    deployment.install(["h1"], PRIORITY_THRESHOLDS)

    stage = generic_app_stage()
    packets = _run_flows(sim, s1, s2, net.host_ip("h2"), duration_ms,
                         stage)

    overhead: Dict[str, Tuple[float, float]] = {}
    for bucket in ("api", "enclave", "interpreter"):
        if vanilla_ns <= 0:
            overhead[bucket] = (0.0, 0.0)
            continue
        # Per-packet cost: the enclave bucket records several samples
        # per packet (match, prep, commit), so aggregate per packet by
        # total/packets for the mean; the p95 uses per-sample values
        # scaled by samples-per-packet.
        totals = accounting.totals()[bucket]
        count = accounting.counts()[bucket]
        per_packet_mean = totals / max(1, packets)
        per_sample_p95 = accounting.percentile_ns(bucket, 95.0)
        samples_per_packet = count / max(1, packets)
        per_packet_p95 = per_sample_p95 * samples_per_packet
        overhead[bucket] = (100.0 * per_packet_mean / vanilla_ns,
                            100.0 * per_packet_p95 / vanilla_ns)
    return Fig12Result(overhead_pct=overhead,
                       vanilla_ns_per_packet=vanilla_ns,
                       packets=packets)


def format_result(result: Fig12Result) -> str:
    lines = ["Figure 12 — CPU overhead of Eden components vs the "
             "vanilla stack",
             f"(vanilla send path: "
             f"{result.vanilla_ns_per_packet:.0f} ns/packet, "
             f"{result.packets} packets)"]
    lines += result.rows()
    return "\n".join(lines)
