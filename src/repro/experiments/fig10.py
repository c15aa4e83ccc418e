"""Figure 10: ECMP vs WCMP throughput on the asymmetric topology.

Paper setup (Section 5.2): two hosts joined by a 10 Gbps and a 1 Gbps
path (Figure 1); the programmable-NIC enclave runs per-packet path
selection.  With equal weights (ECMP) TCP throughput is dominated by
the slow path and peaks just over 2 Gbps; with 10:1 WCMP it reaches
about 7.8 Gbps — below the 11 Gbps min-cut because per-packet spraying
reorders segments — and native vs Eden is statistically
indistinguishable.  The native variant runs the same WCMP function,
charged per executed action instead of per op (see :mod:`.fig9`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.controller import Controller
from ..core.enclave import Enclave, PLACEMENT_NIC
from ..functions.wcmp import WcmpDeployment
from ..netsim.simulator import GBPS, MS, Simulator
from ..netsim.topology import asymmetric_two_path
from ..stack.netstack import HostStack, NATIVE_ACTION_COST_NS

SINK_PORT = 9200
CHUNK = 4_000_000


@dataclass
class Fig10Result:
    mode: str                  # "ecmp" | "wcmp"
    variant: str               # "native" | "eden"
    granularity: str           # "packet" | "message"
    throughput_mbps: float
    fast_path_share: float     # fraction of data packets on fast path
    retransmits: int
    timeouts: int

    def row(self) -> str:
        return (f"{self.mode:<5} {self.variant:<7} "
                f"({self.granularity:<7}): "
                f"{self.throughput_mbps:7.0f} Mbps   "
                f"fast-path share {self.fast_path_share:5.1%}   "
                f"rtx {self.retransmits}")


def run_wcmp(mode: str = "wcmp", variant: str = "eden",
             granularity: str = "packet", seed: int = 1,
             duration_ms: int = 120, warmup_ms: int = 20,
             n_flows: int = 4,
             fast_bps: int = 10 * GBPS,
             slow_bps: int = 1 * GBPS) -> Fig10Result:
    """One Figure 10 configuration; returns aggregate throughput."""
    if mode not in ("ecmp", "wcmp"):
        raise ValueError(f"unknown mode {mode!r}")
    if variant not in ("native", "eden"):
        raise ValueError(f"unknown variant {variant!r}")
    if duration_ms <= warmup_ms:
        raise ValueError(f"duration_ms={duration_ms} leaves nothing "
                         f"to measure after warmup_ms={warmup_ms}")

    sim = Simulator(seed=seed)
    net = asymmetric_two_path(sim, fast_bps=fast_bps,
                              slow_bps=slow_bps)
    controller = Controller()
    enclave = Enclave("h1.nic", placement=PLACEMENT_NIC,
                      clock=sim.clock, rng=sim.rng)
    controller.register_enclave("h1", enclave)
    s1 = HostStack(sim, net.hosts["h1"], enclave=enclave,
                   process_pure_acks=False,
                   native_action_cost_ns=(NATIVE_ACTION_COST_NS
                                          if variant == "native"
                                          else None))
    s2 = HostStack(sim, net.hosts["h2"])

    deployment = WcmpDeployment(controller, net,
                                granularity=granularity)
    rows = deployment.provision_pair("h1", "h2",
                                     equal_weights=(mode == "ecmp"))
    assert len(rows) == 2, rows

    # n long-running TCP flows h1 -> h2.
    delivered: Dict[int, int] = {}
    conns = []

    def on_conn(conn):
        conn.on_data = lambda c, total: delivered.__setitem__(
            c.five_tuple[3], total)

    s2.listen(SINK_PORT, on_conn)
    for _ in range(n_flows):
        conn = s1.connect(net.host_ip("h2"), SINK_PORT)

        def send_forever(c):
            def refill(record, now):
                c.message_send(CHUNK, on_complete=refill)
            c.message_send(CHUNK, on_complete=refill)

        conn.on_established = send_forever
        conns.append(conn)

    sim.run(until_ns=warmup_ms * MS)
    start_bytes = sum(delivered.values())
    fast0 = net.hosts["h2"].port_to("sfast").stats  # h2->sfast (acks)
    tx_fast0 = net.switches["sfast"].port_to("h2").stats.tx_packets
    tx_slow0 = net.switches["sslow"].port_to("h2").stats.tx_packets

    sim.run(until_ns=duration_ms * MS)
    end_bytes = sum(delivered.values())
    tx_fast1 = net.switches["sfast"].port_to("h2").stats.tx_packets
    tx_slow1 = net.switches["sslow"].port_to("h2").stats.tx_packets

    elapsed_ns = (duration_ms - warmup_ms) * MS
    mbps = (end_bytes - start_bytes) * 8e3 / elapsed_ns
    fast = tx_fast1 - tx_fast0
    slow = tx_slow1 - tx_slow0
    share = fast / (fast + slow) if fast + slow else 0.0
    return Fig10Result(
        mode=mode, variant=variant, granularity=granularity,
        throughput_mbps=mbps, fast_path_share=share,
        retransmits=sum(c.stats.retransmits for c in conns),
        timeouts=sum(c.stats.timeouts for c in conns))


def run_all(seed: int = 1, *, duration_ms: int,
            granularity: str = "packet") -> List[Fig10Result]:
    results = []
    for mode in ("ecmp", "wcmp"):
        for variant in ("native", "eden"):
            results.append(run_wcmp(mode=mode, variant=variant,
                                    granularity=granularity,
                                    seed=seed,
                                    duration_ms=duration_ms))
    return results


def format_results(results: List[Fig10Result]) -> str:
    lines = ["Figure 10 — aggregate TCP throughput, "
             "asymmetric 10G+1G topology"]
    lines += [r.row() for r in results]
    return "\n".join(lines)
