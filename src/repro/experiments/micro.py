"""Section 5.4 microbenchmarks: interpreter footprint and speed.

"In the examples discussed in the paper, the (operand) stack and heap
space of the interpreter are in the order of 64 and 256 bytes
respectively."  This module compiles the three case-study programs,
measures their operand-stack/heap high-water marks and bytecode ops
per invocation, and times interpreted vs native execution — the
ablation behind the paper's "small penalty for the convenience of
injecting code at runtime" claim.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..core.stage import Classification
from ..functions.library import DemoPacket, DemoSpec, table1


@dataclass
class MicroResult:
    name: str
    bytecode_len: int
    ops_per_packet: float
    stack_bytes: int
    heap_bytes: int
    interp_ns_per_packet: float
    native_ns_per_packet: float

    @property
    def slowdown(self) -> float:
        if self.native_ns_per_packet <= 0:
            return 0.0
        return self.interp_ns_per_packet / self.native_ns_per_packet

    def row(self) -> str:
        return (f"{self.name:<16} code={self.bytecode_len:3d} ops "
                f"{self.ops_per_packet:5.1f}  stack {self.stack_bytes:3d} B  "
                f"heap {self.heap_bytes:4d} B  interp "
                f"{self.interp_ns_per_packet:8.0f} ns  native "
                f"{self.native_ns_per_packet:8.0f} ns  "
                f"({self.slowdown:4.1f}x)")


#: The case-study functions of Sections 5.1-5.3 plus port knocking.
CASE_STUDY_FUNCTIONS = ("PIAS", "SFF", "WCMP", "Pulsar",
                        "Port knocking")


def _spec_for(name: str) -> DemoSpec:
    for entry in table1():
        if entry.name == name and entry.demo is not None:
            return entry.demo
    raise KeyError(name)


def _timed_run(spec: DemoSpec, backend: str, packets: int,
               repeat: int) -> Tuple[float, object]:
    """Returns (ns per processed packet, the enclave function)."""
    from ..core.enclave import Enclave

    best = float("inf")
    fn = None
    for _ in range(repeat):
        enclave = Enclave(f"micro.{spec.function_name}")
        enclave.install_function(
            spec.action, name=spec.function_name,
            message_schema=spec.message_schema,
            global_schema=spec.global_schema, backend=backend)
        for name, value in spec.global_scalars.items():
            enclave.set_global(spec.function_name, name, value)
        for name, values in spec.global_arrays.items():
            enclave.set_global_array(spec.function_name, name,
                                     list(values))
        for name, keyed in spec.global_keyed.items():
            for key, values in keyed.items():
                enclave.set_global_keyed(spec.function_name, name,
                                         key, list(values))
        enclave.install_rule("*", spec.function_name)
        cls = []
        if spec.metadata:
            metadata = dict(spec.metadata)
            metadata.setdefault("msg_id", ("micro", 1))
            cls = [Classification(class_name="micro.r1.msg",
                                  metadata=metadata)]
        overrides = (spec.packets or [{}])[0]
        with _gc_paused():
            t0 = time.perf_counter_ns()
            for i in range(packets):
                packet = DemoPacket()
                for attr, value in overrides.items():
                    setattr(packet, attr, value)
                enclave.process_packet(packet, cls, now_ns=i)
            elapsed = time.perf_counter_ns() - t0
        best = min(best, elapsed / packets)
        fn = enclave.function(spec.function_name)
    return best, fn


def run_micro(packets: int = 300, repeat: int = 3,
              names: Tuple[str, ...] = CASE_STUDY_FUNCTIONS
              ) -> List[MicroResult]:
    results = []
    for name in names:
        spec = _spec_for(name)
        interp_ns, fn = _timed_run(spec, "interpreter", packets,
                                   repeat)
        native_ns, _ = _timed_run(spec, "native", packets, repeat)
        results.append(MicroResult(
            name=name,
            bytecode_len=sum(len(f.code)
                             for f in fn.program.functions),
            ops_per_packet=fn.stats.ops_executed /
            max(1, fn.stats.invocations),
            stack_bytes=fn.stats.max_stack_bytes,
            heap_bytes=fn.stats.max_heap_bytes,
            interp_ns_per_packet=interp_ns,
            native_ns_per_packet=native_ns))
    return results


def format_results(results: List[MicroResult]) -> str:
    lines = ["Section 5.4 micro — interpreter footprint per "
             "case-study program"]
    lines += [r.row() for r in results]
    return "\n".join(lines)


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic GC around a timed region (timeit does the
    same): with a large live heap — e.g. mid-test-suite — gen2
    collections otherwise land inside the loop and dominate ns/op."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
