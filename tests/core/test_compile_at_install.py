"""Pycodegen compiles a program when a function is installed.

``PycodegenBackend.bind`` compiles the program at install, so a
function runs its generated per-packet plan from its first packet, and
a program that does not compile fails the install — with the enclave
left as it was — instead of a packet.
"""

import pytest

from repro.core import Enclave, EnclaveError
from repro.lang import DEFAULT_PACKET_SCHEMA, pycodegen
from repro.lang.compiler import compile_action


def tag_three(packet):
    packet.priority = 3


def tag_five(packet):
    packet.priority = 5


class Packet:
    def __init__(self):
        self.src_ip, self.dst_ip = 1, 2
        self.src_port, self.dst_port, self.proto = 1000, 80, 6
        self.size = 100
        self.priority = self.path_id = self.drop = 0
        self.to_controller = self.queue_id = self.charge = 0
        self.ecn = self.tenant = 0


def _fresh(action, name):
    """An artifact nothing has compiled yet."""
    return compile_action(action, packet_schema=DEFAULT_PACKET_SCHEMA,
                          name=name)


@pytest.fixture
def failing_compile(monkeypatch):
    """Generated code for a program named ``doomed`` fails to
    compile, as a verified program whose source ``compile()`` refused
    once did."""
    real = pycodegen.compile_pycode

    def compile_pycode(program):
        if program.name == "doomed":
            raise SyntaxError("too many statically nested blocks")
        return real(program)

    monkeypatch.setattr(pycodegen, "compile_pycode", compile_pycode)


@pytest.mark.parametrize("backend", ("interpreter", "pycodegen"))
def test_the_plan_runs_from_the_first_packet(backend):
    action = _fresh(tag_three, "f")
    enclave = Enclave("e")
    compiled = pycodegen.stats()["programs_compiled"]
    fn = enclave.install_function(action, backend=backend)
    assert isinstance(action.program._pycodegen, pycodegen.CompiledProgram)
    assert pycodegen.stats()["programs_compiled"] == compiled + 1
    enclave.install_rule("*", "f")
    executes = []
    inner = fn.execute
    fn.execute = lambda *args: executes.append(1) or inner(*args)
    packets = [Packet() for _ in range(5)]
    for packet in packets[:3]:
        enclave.process_packet(packet)
    enclave.process_batch([(p, []) for p in packets[3:]])
    assert [p.priority for p in packets] == [3] * 5
    assert executes == []
    assert fn.stats.invocations == 5
    assert pycodegen.stats()["programs_compiled"] == compiled + 1


def _state(enclave):
    return (enclave.functions(),
            {name: enclave.function(name) for name in enclave.functions()},
            {t: enclave.query_rules(t) for t in enclave.query_tables()},
            enclave.generation)


def test_a_compile_failure_fails_the_install(failing_compile):
    enclave = Enclave("e")
    enclave.install_function(tag_five, name="kept")
    enclave.install_rule("*", "kept")
    before = _state(enclave)
    with pytest.raises(EnclaveError, match="does not compile") as info:
        enclave.install_function(_fresh(tag_three, "doomed"))
    assert isinstance(info.value.__cause__, SyntaxError)
    assert _state(enclave) == before
    packet = Packet()
    assert enclave.process_packet(packet).executed == ["kept"]
    assert packet.priority == 5


def test_a_compile_failure_fails_the_replace(failing_compile):
    enclave = Enclave("e")
    old = enclave.install_function(_fresh(tag_five, "kept"),
                                   name="doomed")
    enclave.install_rule("*", "doomed")
    before = _state(enclave)
    with pytest.raises(EnclaveError, match="does not compile"):
        enclave.replace_function("doomed", _fresh(tag_three, "doomed"))
    assert _state(enclave) == before
    assert enclave.function("doomed") is old
    packet = Packet()
    enclave.process_packet(packet)
    assert packet.priority == 5


def test_a_tree_pin_compiles_nothing(failing_compile):
    """Only pycodegen compiles at bind: a ``tree`` pin of the same
    program installs and runs."""
    enclave = Enclave("e")
    action = _fresh(tag_three, "doomed")
    enclave.install_function(action, backend="tree")
    enclave.install_rule("*", "doomed")
    assert getattr(action.program, "_pycodegen", None) is None
    packet = Packet()
    enclave.process_packet(packet)
    assert packet.priority == 3


@pytest.mark.parametrize("backend", ("tree",))
def test_a_binding_without_a_plan_is_freed_by_refcount(backend):
    """A binding whose backend has no plan remembers so without a
    reference to itself, so dropping its enclave frees it at once,
    with the cyclic GC off."""
    import gc
    import weakref

    enclave = Enclave("e")
    fn = enclave.install_function(_fresh(tag_three, "f"), backend=backend)
    enclave.install_rule("*", "f")
    packet = Packet()
    enclave.process_packet(packet)
    assert packet.priority == 3 and fn.plan is False
    gone = weakref.ref(fn)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del enclave, fn
        assert gone() is None
    finally:
        if was_enabled:
            gc.enable()
