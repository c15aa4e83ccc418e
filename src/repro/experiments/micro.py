"""Section 5.4 microbenchmarks: interpreter footprint and speed.

"In the examples discussed in the paper, the (operand) stack and heap
space of the interpreter are in the order of 64 and 256 bytes
respectively."  This module compiles the case-study programs,
measures their operand-stack/heap high-water marks and bytecode ops
per invocation, the stack beside the worst case its bound proves
(``InstalledFunction.bounds``), and times interpreted vs native
execution of the function body — the ablation behind the paper's
"small penalty for the convenience of injecting code at runtime"
claim.
"""

from __future__ import annotations

import timeit
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..core.stage import Classification
from ..functions.library import DemoPacket, DemoSpec, table1
from ..lang import backends


@dataclass
class MicroResult:
    name: str
    bytecode_len: int
    ops_per_packet: float
    stack_bytes: int
    heap_bytes: int
    interp_ns_per_packet: float
    native_ns_per_packet: float
    #: The proven worst-case stack per invocation (None: no bound).
    bound_stack_words: Optional[int] = None

    @property
    def slowdown(self) -> float:
        if self.native_ns_per_packet <= 0:
            return 0.0
        return self.interp_ns_per_packet / self.native_ns_per_packet

    def row(self) -> str:
        return (f"{self.name:<16} code={self.bytecode_len:3d} ops "
                f"{self.ops_per_packet:5.1f}  "
                f"stack {self.stack_bytes:3d} B (worst "
                f"{self.bound_stack_words} words)  "
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


def _drive(spec: DemoSpec, packets: int):
    """Runs ``packets`` demo packets through an enclave on the tree
    walk, the reference whose stats every interpreting backend equals.

    Returns the installed function, whose stats give the footprint,
    and the ``(fields, arrays)`` snapshot each invocation's body
    read."""
    from ..core.enclave import Enclave

    enclave = Enclave(f"micro.{spec.function_name}")
    fn = enclave.install_function(
        spec.action, name=spec.function_name,
        message_schema=spec.message_schema,
        global_schema=spec.global_schema, backend="tree")
    for name, value in spec.global_scalars.items():
        enclave.set_global(spec.function_name, name, value)
    for name, values in spec.global_arrays.items():
        enclave.set_global_array(spec.function_name, name, list(values))
    for name, keyed in spec.global_keyed.items():
        for key, values in keyed.items():
            enclave.set_global_keyed(spec.function_name, name, key,
                                     list(values))
    enclave.install_rule("*", spec.function_name)
    snapshots = []
    execute = fn.execute
    fn.execute = lambda fields, arrays: (
        snapshots.append((fields, arrays)) or execute(fields, arrays))
    cls = []
    if spec.metadata:
        metadata = dict(spec.metadata)
        metadata.setdefault("msg_id", ("micro", 1))
        cls = [Classification(class_name="micro.r1.msg",
                              metadata=metadata)]
    overrides = (spec.packets or [{}])[0]
    for i in range(packets):
        packet = DemoPacket()
        for attr, value in overrides.items():
            setattr(packet, attr, value)
        enclave.process_packet(packet, cls, now_ns=i)
    return fn, snapshots


def _body_ns(body: Callable, snapshots: List) -> float:
    """ns per call of ``body`` over the snapshots (``timeit`` keeps
    the cyclic GC off while it times)."""
    def calls():
        for fields, arrays in snapshots:
            body(fields, arrays)
    return timeit.timeit(calls, number=1) * 1e9 / len(snapshots)


def run_micro(packets: int = 300, repeat: int = 3,
              names: Tuple[str, ...] = CASE_STUDY_FUNCTIONS
              ) -> List[MicroResult]:
    """Footprint and interpreted-vs-native cost of each program.

    Both are timed on the body alone, through what a binding of each
    backend binds (``Backend.bind``), over the snapshots the packets
    read: per packet, the generated plan and native's generic tier
    wrap the body in unlike envelopes.  Best of ``repeat``
    alternating rounds."""
    results = []
    for name in names:
        fn, snapshots = _drive(_spec_for(name), packets)
        interp = fn.interpreter
        bodies = [backends.get(dispatch).bind(interp, fn.program)
                  for dispatch in (interp.dispatch, "native")]
        interp_ns, native_ns = map(min, zip(*(
            [_body_ns(body, snapshots) for body in bodies]
            for _ in range(repeat))))
        results.append(MicroResult(
            name=name,
            bytecode_len=sum(len(f.code)
                             for f in fn.program.functions),
            ops_per_packet=fn.stats.ops_executed /
            max(1, fn.stats.invocations),
            stack_bytes=fn.stats.max_stack_bytes,
            heap_bytes=fn.stats.max_heap_bytes,
            interp_ns_per_packet=interp_ns,
            native_ns_per_packet=native_ns,
            bound_stack_words=fn.bounds.stack))
    return results


def format_results(results: List[MicroResult]) -> str:
    lines = ["Section 5.4 micro — footprint per case-study program "
             "(measured; the stack also as the worst case its bound "
             "proves); interp/native: ns per call of the body"]
    lines += [r.row() for r in results]
    return "\n".join(lines)

