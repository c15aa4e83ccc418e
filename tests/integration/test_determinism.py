"""Whole-stack determinism: a seed fully determines a run.

The simulator promises bit-for-bit reproducibility (integer time,
seeded RNG, stable tie-breaking); these tests pin that property at the
level users rely on — whole experiments.
"""

import pytest

from repro.experiments import fig10, fig11


@pytest.mark.slow
class TestDeterminism:
    def test_fig10_identical_across_runs(self):
        a = fig10.run_wcmp("wcmp", "eden", seed=5, duration_ms=20,
                           warmup_ms=5, n_flows=2)
        b = fig10.run_wcmp("wcmp", "eden", seed=5, duration_ms=20,
                           warmup_ms=5, n_flows=2)
        assert a.throughput_mbps == b.throughput_mbps
        assert a.retransmits == b.retransmits
        assert a.fast_path_share == b.fast_path_share

    def test_fig10_differs_across_seeds(self):
        a = fig10.run_wcmp("wcmp", "eden", seed=5, duration_ms=20,
                           warmup_ms=5, n_flows=2)
        b = fig10.run_wcmp("wcmp", "eden", seed=6, duration_ms=20,
                           warmup_ms=5, n_flows=2)
        # Different random path choices => different retransmit
        # patterns (throughput may coincide by rounding).
        assert (a.retransmits, a.throughput_mbps) != \
            (b.retransmits, b.throughput_mbps)

    def test_fig11_identical_across_runs(self):
        a = fig11.run_storage("simultaneous", seed=7,
                              duration_ms=60, warmup_ms=10)
        b = fig11.run_storage("simultaneous", seed=7,
                              duration_ms=60, warmup_ms=10)
        assert a.read_mbytes_per_s == b.read_mbytes_per_s
        assert a.write_mbytes_per_s == b.write_mbytes_per_s

    def test_interpreter_and_tree_backends_deterministic(self):
        from repro.functions.library import run_demos
        assert run_demos("interpreter") == run_demos("interpreter")
        assert run_demos("tree") == run_demos("tree")
