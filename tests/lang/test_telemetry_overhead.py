"""Telemetry-disabled hot path: structural guarantees.

The interpreter hot path must not slow down when telemetry is off:
``Interpreter.telemetry`` stays ``None`` by default, so ``execute()``
pays exactly one ``is None`` check per invocation.  The wall-clock
side is the benchmark's job (``bench/run.py`` runs end to end with
telemetry off and reports ``telemetry.on_overhead_pct``).
"""

from repro.lang.interpreter import Interpreter
from repro.telemetry import Telemetry


def test_interpreter_defaults_to_no_telemetry():
    interp = Interpreter()
    assert interp.telemetry is None


def test_bind_disabled_telemetry_keeps_fast_path():
    interp = Interpreter()
    interp.bind_telemetry(Telemetry(enabled=False,
                                    recorder_capacity=1))
    assert interp.telemetry is None
