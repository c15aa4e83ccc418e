"""Tests for the multi-seed sweep utility."""

import pytest

from repro.experiments import fig10
from repro.experiments.sweep import format_sweep, numeric_fields, sweep


class TestNumericFields:
    def test_extracts_dataclass_numbers(self):
        res = fig10.Fig10Result(mode="wcmp", variant="eden",
                                granularity="packet",
                                throughput_mbps=100.0,
                                fast_path_share=0.9,
                                retransmits=3, timeouts=0)
        fields = numeric_fields(res)
        assert fields["throughput_mbps"] == 100.0
        assert fields["retransmits"] == 3.0
        assert "mode" not in fields

    def test_plain_object(self):
        class R:
            def __init__(self):
                self.x = 5
                self.label = "abc"
                self._private = 1.0

        fields = numeric_fields(R())
        assert fields == {"x": 5.0}


class TestSweep:
    def test_needs_seeds(self):
        with pytest.raises(ValueError):
            sweep(lambda seed: None, [])

    def test_aggregates_synthetic_results(self):
        class R:
            def __init__(self, v):
                self.value = v

        stats = sweep(lambda seed: R(seed * 10.0), seeds=[1, 2, 3])
        assert stats["value"].mean == 20.0
        assert stats["value"].ci95 > 0

    @pytest.mark.slow
    def test_fig10_sweep_with_ci(self):
        sweeps = {mode: sweep(fig10.run_wcmp, seeds=[1, 2, 3],
                              mode=mode, variant="eden",
                              duration_ms=25, warmup_ms=8, n_flows=2)
                  for mode in ("wcmp", "ecmp")}
        stats = sweeps["wcmp"]
        tput = stats["throughput_mbps"]
        assert len(tput.values) == 3
        assert tput.mean > 2000
        # Figure 10's shape on the mean over seeds, not on one draw.
        assert tput.mean > 2.5 * sweeps["ecmp"]["throughput_mbps"].mean
        text = format_sweep("fig10 wcmp", stats,
                            ["throughput_mbps", "retransmits"])
        assert "±" in text and "throughput_mbps" in text
