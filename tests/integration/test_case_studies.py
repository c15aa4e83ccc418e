"""Integration tests: miniature versions of the paper's case studies.

Short-duration runs of the experiment harnesses asserting the
*direction* of each paper result and of the design ablations;
``python -m repro <artifact>`` regenerates the full numbers.
"""

import functools

import pytest

from repro.apps.workloads import DATA_MINING_CDF, FlowSizeDistribution
from repro.experiments import fig9, fig10, fig11, fig12, micro


@pytest.fixture(scope="module")
def fig9_run():
    """One 60 ms, seed-1 Figure 9 run per ``(policy, variant)``,
    shared by the tests of this module."""
    @functools.cache
    def run(policy, variant):
        return fig9.run_flow_scheduling(policy, variant, duration_ms=60,
                                        warmup_ms=10)
    return run


@pytest.fixture(scope="module")
def fig10_run():
    """One 50 ms, seed-1, two-flow Figure 10 run per ``(mode,
    variant, granularity)``, shared by the tests of this module."""
    @functools.cache
    def run(mode, variant, granularity="packet"):
        return fig10.run_wcmp(mode, variant, granularity=granularity,
                              duration_ms=50, warmup_ms=15, n_flows=2)
    return run


@pytest.mark.slow
class TestFlowScheduling:
    def _beats_baseline(self, fig9_run, policy):
        base = fig9_run("baseline", "native")
        assert base.n_small > 100
        for variant in ("native", "eden"):
            res = fig9_run(policy, variant)
            assert res.n_small > 100, variant
            assert res.small_avg_us < base.small_avg_us, variant

    def test_pias_beats_baseline_for_small_flows(self, fig9_run):
        self._beats_baseline(fig9_run, "pias")

    def test_sff_beats_baseline_for_small_flows(self, fig9_run):
        self._beats_baseline(fig9_run, "sff")

    def test_native_and_eden_comparable(self, fig9_run):
        native = fig9_run("pias", "native")
        eden = fig9_run("pias", "eden")
        # "the performance of the native implementation of the policy
        # and the interpreted one are similar" — same order of
        # magnitude here (single seed, short run).
        assert eden.small_avg_us < 3 * native.small_avg_us

    def test_pias_beats_baseline_under_data_mining_mix(self,
                                                       monkeypatch):
        """Section 2.1.3: thresholds help small flows under the
        data-mining mix too (tiny flows, heavier elephants)."""
        monkeypatch.setattr(fig9, "FlowSizeDistribution",
                            functools.partial(FlowSizeDistribution,
                                              DATA_MINING_CDF))
        runs = {policy: fig9.run_flow_scheduling(
                    policy, "native", seed=2, duration_ms=60,
                    warmup_ms=10)
                for policy in ("baseline", "pias")}
        assert runs["pias"].small_avg_us < runs["baseline"].small_avg_us


@pytest.mark.slow
class TestWcmpCaseStudy:
    def test_wcmp_beats_ecmp_but_below_min_cut(self, fig10_run):
        for variant in ("native", "eden"):
            ecmp = fig10_run("ecmp", variant)
            wcmp = fig10_run("wcmp", variant)
            assert wcmp.throughput_mbps > 2.5 * ecmp.throughput_mbps
            assert wcmp.throughput_mbps < 11_000
            # ECMP splits evenly; WCMP sends ~10/11 on the fast path.
            assert 0.4 < ecmp.fast_path_share < 0.65
            assert wcmp.fast_path_share > 0.85

    def test_message_granularity_also_works(self, fig10_run):
        res = fig10_run("wcmp", "eden", "message")
        assert res.throughput_mbps > 2000
        # Section 2.1.1: per-packet spraying reorders within a
        # message, so it retransmits more than per-message stickiness.
        assert fig10_run("wcmp", "eden").retransmits > res.retransmits


@pytest.mark.slow
class TestPulsarCaseStudy:
    def test_write_collapse_and_rate_control(self):
        iso = fig11.run_storage("isolated", duration_ms=120,
                                warmup_ms=20)
        sim = fig11.run_storage("simultaneous", duration_ms=120,
                                warmup_ms=20)
        ctl = fig11.run_storage("rate_controlled", duration_ms=120,
                                warmup_ms=20)
        # Isolation: both near the 1 Gbps link (~110+ MB/s).
        assert iso.read_mbytes_per_s > 80
        assert iso.write_mbytes_per_s > 80
        # Competition collapses writes (paper: 72% drop).
        assert sim.write_mbytes_per_s < 0.5 * iso.write_mbytes_per_s
        # Pulsar equalizes.
        ratio = ctl.read_mbytes_per_s / max(1e-9,
                                            ctl.write_mbytes_per_s)
        assert 0.6 < ratio < 1.7
        assert ctl.write_mbytes_per_s > sim.write_mbytes_per_s


@pytest.mark.slow
class TestOverheads:
    def test_components_measured_and_ordered(self):
        result = fig12.run_overheads(duration_ms=8)
        api = result.overhead_pct["api"][0]
        enclave = result.overhead_pct["enclave"][0]
        interp = result.overhead_pct["interpreter"][0]
        assert result.packets > 500
        assert api < enclave  # metadata pass is the cheap part
        assert interp > 0

    def test_micro_footprint_in_paper_ballpark(self):
        # The interp-vs-native ordering has a wide true margin
        # (~2-3x) but single-core CI boxes can land a load spike on
        # one side's measurement; retry the timing-ordering part and
        # gate on any clean attempt — a true inversion fails all.
        for attempt in range(4):
            results = micro.run_micro(packets=100, repeat=1)
            for res in results:
                # Section 5.4: stack ~64 B, heap ~256 B — same order.
                assert res.stack_bytes <= 128, res.name
                assert res.heap_bytes <= 1024, res.name
            if all(res.interp_ns_per_packet >
                   res.native_ns_per_packet for res in results):
                return
        for res in results:
            assert res.interp_ns_per_packet > \
                res.native_ns_per_packet, res.name


@pytest.mark.slow
class TestEndToEndEden:
    def test_stage_to_enclave_to_wire_priorities(self):
        """Full path: stage classifies, enclave assigns priority,
        switch serves high priority first under congestion."""
        from repro.core import Controller, Enclave
        from repro.core.stage import Classifier
        from repro.functions.pias import FlowSchedulingDeployment
        from repro.netsim import GBPS, MS, Simulator, star
        from repro.stack import HostStack
        from repro.apps.workloads import generic_app_stage
        from repro.transport.sockets import MessageSocket

        sim = Simulator(seed=8)
        net = star(sim, 2, host_rate_bps=1 * GBPS)
        controller = Controller()
        enclave = Enclave("h1.enclave", rng=sim.rng, clock=sim.clock)
        controller.register_enclave("h1", enclave)
        s1 = HostStack(sim, net.hosts["h1"], enclave=enclave,
                       process_pure_acks=False)
        s2 = HostStack(sim, net.hosts["h2"])
        stage = generic_app_stage()
        controller.register_stage("h1", stage)
        controller.create_stage_rule(
            "h1", "app", "r1", Classifier.of(), "msg",
            ["msg_id", "msg_size", "priority"])
        FlowSchedulingDeployment(controller, "sff").install(
            ["h1"], [(10_000, 7), (1 << 50, 0)])

        finished = {}

        def listener(conn):
            conn.on_data = lambda c, n: finished.__setitem__(
                c.five_tuple, (n, sim.now))

        s2.listen(5000, listener)

        # A big low-priority flow first, then a small high-priority
        # one; with SFF the small one must finish long before the big.
        big = s1.connect(net.host_ip("h2"), 5000)
        MessageSocket(big, stage).send(
            2_000_000, attrs={"msg_type": "bulk",
                              "msg_size": 2_000_000})
        small = s1.connect(net.host_ip("h2"), 5000)
        MessageSocket(small, stage).send(
            5_000, attrs={"msg_type": "rpc", "msg_size": 5_000})
        sim.run(until_ns=100 * MS)
        small_done = finished[(small.remote_ip, small.remote_port,
                               small.local_ip, small.local_port,
                               6)][1]
        big_done = finished[(big.remote_ip, big.remote_port,
                             big.local_ip, big.local_port, 6)][1]
        assert small_done < big_done
