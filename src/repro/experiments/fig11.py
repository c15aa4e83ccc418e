"""Figure 11: READ vs WRITE storage throughput under Pulsar.

Paper setup (Section 5.3): two tenants issue 64 KB IOs against a
RAM-disk storage server behind a 1 Gbps link — one tenant READs, the
other WRITEs.  Run in isolation each gets the link; run simultaneously
the WRITEs collapse (READ requests are cheap to issue and fill the
shared server queue); with Pulsar's rate control — charging READ
*requests* by their operation size at the client — throughput
equalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..apps.storage import (OP_READ, OP_WRITE, READ_PORT,
                            StorageClient, StorageServer, WRITE_PORT)
from ..apps.workloads import generic_app_stage
from ..core.controller import Controller
from ..core.enclave import Enclave
from ..functions.pulsar import PulsarDeployment
from ..netsim.simulator import GBPS, MBPS, MS, Simulator
from ..netsim.topology import star


@dataclass
class Fig11Result:
    scenario: str
    read_mbytes_per_s: float
    write_mbytes_per_s: float

    def row(self) -> str:
        return (f"{self.scenario:<16} reads: "
                f"{self.read_mbytes_per_s:6.1f} MB/s   writes: "
                f"{self.write_mbytes_per_s:6.1f} MB/s")


def _build(seed: int, rate_controlled: bool,
           server_link_bps: int, backend_bps: int,
           tenant_rate_bps: int):
    sim = Simulator(seed=seed)
    net = star(sim, 3, host_rate_bps=10 * GBPS,
               host_rates={"h3": server_link_bps})
    controller = Controller()
    stacks = {}
    stage = generic_app_stage()
    # The controller programs the stage: classify every IO message and
    # expose the metadata Pulsar needs (op type, op size, tenant).
    from ..core.stage import Classifier
    stage.create_stage_rule("r1", Classifier.of(), "io",
                            ["msg_id", "msg_size", "op_read",
                             "tenant"])
    for name, host in net.hosts.items():
        enclave = None
        if rate_controlled and name in ("h1", "h2"):
            enclave = Enclave(f"{name}.enclave", clock=sim.clock,
                              rng=sim.rng)
            controller.register_enclave(name, enclave)
        stacks[name] = HostStackFactory(sim, host, enclave)
    server = StorageServer(sim, stacks["h3"],
                           backend_bps=backend_bps)
    if rate_controlled:
        deployment = PulsarDeployment(controller)
        deployment.install("h1", stacks["h1"],
                           {1: tenant_rate_bps})
        deployment.install("h2", stacks["h2"],
                           {2: tenant_rate_bps})
    return sim, net, stacks, server, stage


def HostStackFactory(sim, host, enclave):
    from ..stack.netstack import HostStack
    return HostStack(sim, host, enclave=enclave,
                     process_pure_acks=False)


def run_storage(scenario: str = "simultaneous", seed: int = 1,
                duration_ms: int = 250, warmup_ms: int = 30,
                gen_ops_per_sec: float = 5000.0,
                server_link_bps: int = 1 * GBPS,
                backend_bps: int = 1 * GBPS,
                tenant_rate_bps: int = 500 * MBPS) -> Fig11Result:
    """One Figure 11 scenario: ``isolated``, ``simultaneous``, or
    ``rate_controlled``."""
    if scenario not in ("isolated", "simultaneous",
                        "rate_controlled"):
        raise ValueError(f"unknown scenario {scenario!r}")

    window = (warmup_ms * MS, duration_ms * MS)

    def measure(run_read: bool, run_write: bool,
                rate_controlled: bool) -> Tuple[float, float]:
        sim, net, stacks, server, stage = _build(
            seed, rate_controlled, server_link_bps, backend_bps,
            tenant_rate_bps)
        server_ip = net.host_ip("h3")
        read_client = write_client = None
        if run_read:
            read_client = StorageClient(
                sim, stacks["h1"], server_ip, READ_PORT, OP_READ,
                tenant=1, gen_ops_per_sec=gen_ops_per_sec,
                stage=stage)
        if run_write:
            write_client = StorageClient(
                sim, stacks["h2"], server_ip, WRITE_PORT, OP_WRITE,
                tenant=2, gen_ops_per_sec=gen_ops_per_sec,
                stage=stage)
        sim.run(until_ns=duration_ms * MS)
        read_tput = (read_client.throughput_mbytes_per_s(*window)
                     if read_client else 0.0)
        write_tput = (write_client.throughput_mbytes_per_s(*window)
                      if write_client else 0.0)
        return read_tput, write_tput

    if scenario == "isolated":
        read_tput, _ = measure(True, False, False)
        _, write_tput = measure(False, True, False)
    elif scenario == "simultaneous":
        read_tput, write_tput = measure(True, True, False)
    else:
        read_tput, write_tput = measure(True, True, True)
    return Fig11Result(scenario=scenario,
                       read_mbytes_per_s=read_tput,
                       write_mbytes_per_s=write_tput)


def run_all(seed: int = 1, *, duration_ms: int
            ) -> List[Fig11Result]:
    return [run_storage(s, seed=seed, duration_ms=duration_ms)
            for s in ("isolated", "simultaneous", "rate_controlled")]


def format_results(results: List[Fig11Result]) -> str:
    lines = ["Figure 11 — storage READ vs WRITE throughput (64 KB "
             "IOs, 1 Gbps server link)"]
    lines += [r.row() for r in results]
    return "\n".join(lines)
