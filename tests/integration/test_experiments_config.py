"""Unit tests for the experiment runners: validation and formatting
(the heavy end-to-end shapes are pinned by test_case_studies)."""

import pytest

from repro.experiments import fig9, fig10, fig11, micro
from repro.experiments.fig9 import Fig9Result
from repro.experiments.fig10 import Fig10Result
from repro.experiments.fig11 import Fig11Result
from repro.experiments.micro import MicroResult


class TestValidation:
    def test_fig9_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            fig9.run_flow_scheduling(policy="wfq")

    def test_fig9_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            fig9.run_flow_scheduling(variant="fpga")

    def test_fig10_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            fig10.run_wcmp(mode="lcmp")

    def test_fig10_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            fig10.run_wcmp(variant="hw")

    def test_fig10_rejects_duration_within_warmup(self):
        # Throughput is measured after the warmup; none would be left.
        with pytest.raises(ValueError, match="warmup"):
            fig10.run_wcmp(duration_ms=20, warmup_ms=20)

    def test_fig11_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            fig11.run_storage("chaos")

    def test_micro_rejects_unknown_function(self):
        with pytest.raises(KeyError):
            micro._spec_for("Quantum routing")


class TestFormatting:
    def test_fig9_rows(self):
        res = Fig9Result(policy="pias", variant="eden",
                         small_avg_us=100.0, small_p95_us=500.0,
                         mid_avg_us=900.0, mid_p95_us=2000.0,
                         n_small=10, n_mid=5, requests=15,
                         background_mbps=1000.0)
        text = fig9.format_results([res])
        assert "pias" in text and "100.0" in text
        assert "Figure 9" in text

    def test_fig10_rows(self):
        res = Fig10Result(mode="wcmp", variant="native",
                          granularity="packet",
                          throughput_mbps=7800.0,
                          fast_path_share=0.91, retransmits=5,
                          timeouts=0)
        text = fig10.format_results([res])
        assert "7800" in text and "91.0%" in text

    def test_fig11_rows(self):
        res = Fig11Result(scenario="isolated",
                          read_mbytes_per_s=117.0,
                          write_mbytes_per_s=116.0)
        text = fig11.format_results([res])
        assert "isolated" in text and "117.0" in text

    def test_micro_rows(self):
        res = MicroResult(name="PIAS", bytecode_len=56,
                          ops_per_packet=59.0, stack_bytes=32,
                          heap_bytes=48,
                          tree_ns_per_packet=1000.0,
                          codegen_ns_per_packet=100.0)
        assert res.slowdown == pytest.approx(10.0)
        text = micro.format_results([res])
        assert "PIAS" in text and "10.0x" in text


class TestTinyRuns:
    """Very short runs exercising the full wiring of each runner."""

    def test_fig9_tiny(self):
        res = fig9.run_flow_scheduling("pias", "eden", seed=3,
                                       duration_ms=15, warmup_ms=2)
        assert res.requests > 0

    def test_fig10_tiny(self):
        res = fig10.run_wcmp("wcmp", "native", seed=3,
                             duration_ms=12, warmup_ms=4, n_flows=1)
        assert res.throughput_mbps > 0

    def test_fig11_tiny(self):
        res = fig11.run_storage("simultaneous", seed=3,
                                duration_ms=40, warmup_ms=5)
        assert res.read_mbytes_per_s > 0

    def test_fig9_baseline_eden_runs_function_without_effect(self):
        res = fig9.run_flow_scheduling("baseline", "eden", seed=3,
                                       duration_ms=15, warmup_ms=2)
        assert res.requests > 0
