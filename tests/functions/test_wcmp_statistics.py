"""Statistical properties of the WCMP weighted choice."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Enclave
from repro.functions.wcmp import WCMP_GLOBAL_SCHEMA, wcmp_action


class Pkt:
    def __init__(self, src_port):
        self.src_ip, self.dst_ip = 1, 2
        self.src_port, self.dst_port, self.proto = src_port, 80, 6
        self.size = 1500
        self.priority = self.path_id = self.drop = 0
        self.to_controller = self.queue_id = self.charge = 0
        self.ecn = self.tenant = 0


def sample_distribution(weights, n=600, seed=0,
                        backend="interpreter"):
    enclave = Enclave("e", rng=random.Random(seed))
    enclave.install_function(wcmp_action, name="wcmp",
                             global_schema=WCMP_GLOBAL_SCHEMA,
                             backend=backend)
    flat = []
    for path_id, weight in weights:
        flat.extend((path_id, weight))
    enclave.set_global_keyed("wcmp", "paths", (1, 2), flat)
    enclave.install_rule("*", "wcmp")
    counts = {path_id: 0 for path_id, _ in weights}
    for i in range(n):
        p = Pkt(src_port=i)
        enclave.process_packet(p)
        counts[p.path_id] += 1
    return counts


class TestWeightedChoice:
    @settings(max_examples=12, deadline=None)
    @given(w1=st.integers(1, 20), w2=st.integers(1, 20),
           seed=st.integers(0, 100))
    def test_two_path_proportions(self, w1, w2, seed):
        n = 800
        counts = sample_distribution([(1, w1 * 50), (2, w2 * 50)],
                                     n=n, seed=seed)
        expected1 = n * w1 / (w1 + w2)
        # Loose 5-sigma-ish bound for a binomial sample.
        sigma = (n * (w1 / (w1 + w2)) *
                 (w2 / (w1 + w2))) ** 0.5
        assert abs(counts[1] - expected1) < 5 * sigma + 5

    def test_zero_weight_path_never_chosen(self):
        counts = sample_distribution([(1, 1000), (2, 0)], n=300)
        assert counts[2] == 0 and counts[1] == 300

    def test_three_way_split(self):
        counts = sample_distribution(
            [(1, 500), (2, 300), (3, 200)], n=1000, seed=4)
        assert counts[1] > counts[2] > counts[3]
        assert counts[1] + counts[2] + counts[3] == 1000

    def test_backends_statistically_identical(self):
        # Same seed => the two backends consume the RNG identically,
        # so the sampled sequence matches exactly.
        a = sample_distribution([(1, 700), (2, 300)], n=300, seed=9,
                                backend="interpreter")
        b = sample_distribution([(1, 700), (2, 300)], n=300, seed=9,
                                backend="tree")
        assert a == b
