"""Telemetry on runs the same tier as telemetry off.

An enclave with ``Telemetry(enabled=True)`` records its per-hop
metrics and the ``interpreter.execute`` span around the function's
run, whichever tier runs it: a pycodegen function runs its plan from
the first packet exactly as without telemetry, a ``tree`` one its
generic tier.  Each Table-1 demo is driven through a telemetry-on
enclave and a telemetry-off twin, on the default backend and pinned
to ``tree`` and to ``pycodegen``, and the two must agree packet by
packet.
"""

import random

import pytest

from repro.core import Classification, Enclave
from repro.functions.library import DemoPacket, table1
from repro.lang import pycodegen
from repro.telemetry import Telemetry

DEMOS = [e for e in table1() if e.demo is not None]
PACKETS = 8


def _enclave(spec, backend, telemetry):
    name = spec.function_name
    enclave = Enclave(f"tier.{name}", rng=random.Random(7),
                      telemetry=telemetry)
    fn = enclave.install_function(
        spec.action, name=name, message_schema=spec.message_schema,
        global_schema=spec.global_schema, backend=backend)
    for field, value in spec.global_scalars.items():
        enclave.set_global(name, field, value)
    for field, values in spec.global_arrays.items():
        enclave.set_global_array(name, field, list(values))
    for field, keyed in spec.global_keyed.items():
        for key, values in keyed.items():
            enclave.set_global_keyed(name, field, key, list(values))
    enclave.install_rule("*", name)
    executes = []
    inner = fn.execute
    fn.execute = lambda *args: executes.append(1) or inner(*args)
    return enclave, fn, executes


def _observe(enclave, fn, packet, result):
    store = fn.message_store
    return (
        (result.executed, result.matched_classes, result.drop,
         result.to_controller, result.faults, result.interpreter_ops,
         result.error),
        vars(packet), enclave.stats_summary(),
        store and {k: (dict(e.values), e.packets)
                   for k, e in store._entries.items()},
        fn.global_store and fn.global_store.snapshot(),
        enclave.rng.getstate())


@pytest.mark.parametrize("backend", ("interpreter", "tree", "pycodegen"))
@pytest.mark.parametrize("entry", DEMOS, ids=lambda e: e.name)
def test_telemetry_on_runs_the_same_tier_as_off(entry, backend):
    spec = entry.demo
    tel = Telemetry(enabled=True, recorder_capacity=1 << 14)
    on, fn_on, executes_on = _enclave(spec, backend, tel)
    off, fn_off, executes_off = _enclave(spec, backend, None)
    metadata = dict(spec.metadata)
    metadata.setdefault("msg_id", ("demo", 1))
    cls = [Classification("demo.r1.msg", metadata)]
    overrides = list(spec.packets) or [{}]
    for i in range(PACKETS):
        seen = []
        for enclave, fn in ((on, fn_on), (off, fn_off)):
            packet = DemoPacket(**overrides[i % len(overrides)])
            result = enclave.process_packet(packet, cls, now_ns=i)
            seen.append(_observe(enclave, fn, packet, result))
        assert seen[0] == seen[1], (i, seen)
    assert executes_on == executes_off
    if backend != "tree":
        # Compiled, and the plan ran every packet.
        assert fn_on.plan is not None
        assert isinstance(fn_on.program._pycodegen,
                          pycodegen.CompiledProgram)
        assert not executes_on
    else:
        assert len(executes_on) == PACKETS
    registry = tel.registry
    dispatch = fn_on.dispatch
    assert dispatch == ("pycodegen" if backend == "interpreter"
                        else backend)
    invocations = registry.counter("interp_invocations_total",
                                   dispatch=dispatch).value
    faults = registry.counter("interp_faults_total",
                              dispatch=dispatch).value
    assert invocations == PACKETS
    assert faults == fn_on.stats.faults
    ops = registry.histogram("interp_ops_per_invocation",
                             dispatch=dispatch)
    assert ops.count == PACKETS - faults
    assert ops.total == fn_on.stats.ops_executed
    spans = [s for s in tel.recorder.spans()
             if s.name == "interpreter.execute"]
    assert len(spans) == PACKETS
    parents = {s.span_id: s.name for s in tel.recorder.spans()}
    assert {parents[s.parent_id] for s in spans} == {"enclave.process"}
    assert {s.attrs["program"] for s in spans} == {fn_on.program.name}
    assert {s.attrs["dispatch"] for s in spans} == {dispatch}
