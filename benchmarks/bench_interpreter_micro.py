"""Section 5.4 micro — interpreter footprint and per-packet cost.

Regenerates the paper's statement that the case-study programs use
operand stack and heap "in the order of 64 and 256 bytes", and
measures interpreted vs natively compiled per-packet cost (the
trade-off of Section 3.4.3).
"""

from repro.experiments import micro

from conftest import record_result


def test_interpreter_micro(benchmark):
    results = benchmark.pedantic(micro.run_micro,
                                 kwargs=dict(packets=300, repeat=3),
                                 rounds=1, iterations=1)
    record_result("Section 5.4 — interpreter microbenchmarks",
                  micro.format_results(results))
    for res in results:
        benchmark.extra_info[f"{res.name}_stack_B"] = res.stack_bytes
        benchmark.extra_info[f"{res.name}_heap_B"] = res.heap_bytes
        # Paper ballpark: tens of bytes of stack, <= few hundred of
        # heap.
        assert res.stack_bytes <= 128
        assert res.heap_bytes <= 1024
        assert res.interp_ns_per_packet > res.native_ns_per_packet

