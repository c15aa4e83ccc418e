"""Property-based tests: equivalence of generated code and the tree
walk, and arithmetic invariants, via hypothesis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import wrap64
from repro.lang.bytecode import INT_MAX, INT_MIN

from conftest import Harness

ints64 = st.integers(min_value=INT_MIN, max_value=INT_MAX)
small_ints = st.integers(min_value=-1000, max_value=1000)


class TestWrap64:
    @given(ints64)
    def test_identity_in_range(self, x):
        assert wrap64(x) == x

    @given(st.integers())
    def test_always_in_range(self, x):
        assert INT_MIN <= wrap64(x) <= INT_MAX

    @given(st.integers())
    def test_idempotent(self, x):
        assert wrap64(wrap64(x)) == wrap64(x)

    @given(st.integers(), st.integers())
    def test_addition_homomorphism(self, a, b):
        assert wrap64(wrap64(a) + wrap64(b)) == wrap64(a + b)

    @given(st.integers(), st.integers())
    def test_multiplication_homomorphism(self, a, b):
        assert wrap64(wrap64(a) * wrap64(b)) == wrap64(a * b)


# Compile-once program table for equivalence properties.
_ARITH = Harness(
    "def f(packet, msg, _global):\n"
    "    a = packet.size\n"
    "    b = msg.counter\n"
    "    c = _global.knob\n"
    "    x = a * 31 + (b ^ c)\n"
    "    y = (x << 3) >> 2\n"
    "    if b != 0:\n"
    "        y = y + a // b + a % b\n"
    "    packet.queue_id = y\n"
    "    msg.counter = (b + 1) & 1023\n")

_LOOPY = Harness(
    "def f(packet, _global):\n"
    "    total = 0\n"
    "    n = len(_global.weights)\n"
    "    for i in range(n):\n"
    "        if _global.weights[i] < 0:\n"
    "            continue\n"
    "        total += _global.weights[i]\n"
    "        if total > 10000:\n"
    "            break\n"
    "    packet.queue_id = total\n")

_RECURSIVE = Harness(
    "def f(packet, _global):\n"
    "    def search(i):\n"
    "        if i >= len(_global.records):\n"
    "            return 0 - 1\n"
    "        elif packet.size <= _global.records[i].lo:\n"
    "            return _global.records[i].hi\n"
    "        else:\n"
    "            return search(i + 1)\n"
    "    packet.queue_id = search(0)\n")


class TestBackendEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(size=ints64, counter=small_ints, knob=ints64)
    def test_arithmetic_program(self, size, counter, knob):
        fields = {("packet", "size"): size,
                  ("message", "counter"): counter,
                  ("global", "knob"): knob}
        generated = _ARITH.run("interpreter", fields=fields)
        assert generated == _ARITH.run("tree", fields=fields)

    @settings(max_examples=60, deadline=None)
    @given(weights=st.lists(small_ints, max_size=20))
    def test_loop_program(self, weights):
        arrays = {("global", "weights"): weights}
        generated = _LOOPY.run("interpreter", arrays=arrays)
        assert generated == _LOOPY.run("tree", arrays=arrays)

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(min_value=0, max_value=100_000),
           records=st.lists(
               st.tuples(st.integers(min_value=0, max_value=100_000),
                         st.integers(min_value=0, max_value=7)),
               max_size=10))
    def test_recursive_search_program(self, size, records):
        flat = [v for rec in records for v in rec]
        fields = {("packet", "size"): size}
        arrays = {("global", "records"): flat}
        generated = _RECURSIVE.run("interpreter", fields=fields,
                                   arrays=arrays)
        assert generated == _RECURSIVE.run("tree", fields=fields,
                                           arrays=arrays)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31),
           bound=st.integers(min_value=1, max_value=1_000_000))
    def test_rand_equivalence(self, seed, bound):
        h = Harness(f"def f(packet):\n"
                    f"    packet.queue_id = rand({bound})\n")
        assert h.run("interpreter", seed=seed) == h.run("tree", seed=seed)


class TestInterpreterInvariants:
    @settings(max_examples=40, deadline=None)
    @given(size=ints64, counter=small_ints, knob=ints64)
    def test_outputs_always_wrapped(self, size, counter, knob):
        fields = {("packet", "size"): size,
                  ("message", "counter"): counter,
                  ("global", "knob"): knob}
        result, _, _ = _ARITH.run("interpreter", fields=fields)
        for value in result.fields:
            assert INT_MIN <= value <= INT_MAX

    @settings(max_examples=40, deadline=None)
    @given(weights=st.lists(small_ints, min_size=1, max_size=20))
    def test_readonly_arrays_never_mutated(self, weights):
        arrays = {("global", "weights"): weights}
        _, _, out_arrays = _LOOPY.run("interpreter", arrays=arrays)
        assert out_arrays[("global", "weights")] == \
            [wrap64(w) for w in weights]

    @settings(max_examples=40, deadline=None)
    @given(size=ints64)
    def test_deterministic_given_seed(self, size):
        fields = {("packet", "size"): size,
                  ("message", "counter"): 3,
                  ("global", "knob"): 9}
        r1, f1, _ = _ARITH.run("interpreter", fields=fields, seed=5)
        r2, f2, _ = _ARITH.run("interpreter", fields=fields, seed=5)
        assert f1 == f2 and r1.value == r2.value
        assert r1.stats.ops_executed == r2.stats.ops_executed
