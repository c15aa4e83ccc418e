"""Seed determinism: same seed => bit-identical runs.

Two layers of evidence:

* a small fig9 configuration run twice with the same seed must return
  identical results (including the processed-event count) and
  identical telemetry snapshots — and a different seed must actually
  change them;
* a star workload captured through a :class:`PortTap` must produce
  byte-identical pcap captures for the same seed (packet ids are
  reset per run — the one process-global, non-seeded piece of packet
  state) and different bytes for a different seed.
"""

import io
import random

from repro.experiments.fig9 import run_flow_scheduling
from repro.netsim.packet import Packet, reset_packet_ids
from repro.netsim.pcap import PortTap
from repro.netsim.simulator import Simulator
from repro.netsim.topology import star
from repro.telemetry import Telemetry


def _fig9(seed):
    telemetry = Telemetry(enabled=True)
    result = run_flow_scheduling("pias", "eden", seed=seed,
                                 duration_ms=15, telemetry=telemetry)
    return result, telemetry.registry.snapshot()


class TestFig9Determinism:
    def test_same_seed_identical_result_and_telemetry(self):
        result_a, snap_a = _fig9(seed=3)
        result_b, snap_b = _fig9(seed=3)
        assert result_a == result_b
        assert result_a.events > 0
        assert snap_a == snap_b
        assert any("sim_events_total" in key
                   for key in snap_a["counters"])

    def test_different_seed_differs(self):
        _, snap_a = _fig9(seed=3)
        _, snap_b = _fig9(seed=4)
        assert snap_a != snap_b


def _captured_star_run(seed):
    """A seeded random star workload with the ToR->h1 port tapped."""
    reset_packet_ids()
    sim = Simulator(seed=seed)
    net = star(sim, 4)
    capture = io.BytesIO()
    PortTap(sim, net.switches["tor"].port_to("h1"), capture)

    rng = random.Random(seed)
    times = sorted(rng.sample(range(200_000), 60))

    def send(src, t, port_seq):
        packet = Packet(src_ip=net.hosts[src].ip,
                        dst_ip=net.host_ip("h1"),
                        src_port=20_000 + port_seq, dst_port=9000,
                        payload_len=rng.choice((0, 200, 1460)),
                        created_at=t)
        packet.priority = rng.randrange(8)
        net.hosts[src].ports[0].enqueue(packet)

    for i, t in enumerate(times):
        src = f"h{rng.randrange(2, 5)}"
        sim.at(t, send, src, t, i)
    events = sim.run()
    return capture.getvalue(), events


class TestCaptureDigests:
    def test_same_seed_identical_pcap_bytes(self):
        bytes_a, events_a = _captured_star_run(seed=11)
        bytes_b, events_b = _captured_star_run(seed=11)
        assert events_a == events_b
        assert len(bytes_a) > 24  # more than just the pcap header
        assert bytes_a == bytes_b

    def test_different_seed_different_pcap_bytes(self):
        bytes_a, _ = _captured_star_run(seed=11)
        bytes_b, _ = _captured_star_run(seed=12)
        assert bytes_a != bytes_b
