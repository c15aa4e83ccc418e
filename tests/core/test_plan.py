"""The generated per-packet plan against the generic tier.

A pycodegen function runs one generated frame per packet, from its
first packet on: the plan reads the state, runs the entry function's
body inlined with fields and counters as Python locals, writes back
and updates the function stats (``pycodegen.plan_for``).  These tests
pin it against what only the enclave can do to it — limits, RNG and
clock changed under a built plan, ``replace_function``, the dry-run
flag — and against a ``backend="tree"`` twin, which
runs the generic tier, under every op budget and stack limit below
what the Table-1 demos need, where the plan's entry test hands each
packet to the generic tier; and they pin what its source may contain:
no budget or stack-limit test, and reads of exactly the slots
``analysis.Effects.loads`` names (odd packet values leave the plan,
``tree`` and ``native`` pins alike).
"""

import gc
import importlib.util
import os
import random
import re
import weakref

import pytest

from repro.core import Classification, Enclave
from repro.functions import ddos, pias, qos
from repro.functions.library import DemoPacket, table1
from repro.lang import (DEFAULT_PACKET_SCHEMA, AccessLevel, Field,
                        FieldKind, InterpreterFault, Lifetime, Op,
                        analysis, pycodegen, schema)
from repro.lang.compiler import compile_action

pytestmark = pytest.mark.differential


# Module-level actions so their source survives quotation.

def set_priority_five(packet):
    packet.priority = 5


def tag_low(packet):
    packet.priority = 1


def count_message_bytes(packet, msg):
    msg.total = msg.total + packet.size


def bump_counter(packet, _global):
    _global.counter = _global.counter + 1


MSG_SCHEMA = schema("Msg", Lifetime.MESSAGE, [
    Field("total", AccessLevel.READ_WRITE),
])
COUNTER_SCHEMA = schema("Cnt", Lifetime.GLOBAL, [
    Field("counter", AccessLevel.READ_WRITE),
])


class FakePacket:
    def __init__(self, **kw):
        self.src_ip = kw.get("src_ip", 1)
        self.dst_ip = kw.get("dst_ip", 2)
        self.src_port = kw.get("src_port", 1000)
        self.dst_port = kw.get("dst_port", 80)
        self.proto = 6
        self.size = kw.get("size", 1500)
        self.priority = 0
        self.path_id = 0
        self.drop = 0
        self.to_controller = 0
        self.queue_id = 0
        self.charge = 0
        self.ecn = 0
        self.tenant = 0


def _msg_cls(key):
    return [Classification("app.r1.x", {"msg_id": ("m", key)})]


def _send(enclave, pairs, use_batch, now_ns=None):
    """The same packets through either entry point."""
    if use_batch:
        return enclave.process_batch(pairs, now_ns=now_ns)
    return [enclave.process_packet(p, cls, now_ns=now_ns)
            for p, cls in pairs]


def _count_executes(fn):
    """Wrap ``fn.execute`` as ``bench/tracing.py`` does.  Only the
    generic tier of ``run_packet`` calls it, so the count tells
    whether the generated plan or the generic tier ran a packet."""
    calls = [0]
    inner = fn.execute

    def counted(fields, arrays):
        calls[0] += 1
        return inner(fields, arrays)

    fn.execute = counted
    return calls


#: Packets :func:`_heat` sends.
HEAT_PACKETS = 2


def _heat(enclave, fn, cls=()):
    """:data:`HEAT_PACKETS` packets through ``fn``, the first of which
    builds its plan; returns the execute counter, which stays put for
    as long as the plan runs the packets."""
    executes = _count_executes(fn)
    for _ in range(HEAT_PACKETS):
        enclave.process_packet(FakePacket(), cls, now_ns=1)
    assert executes[0] == 0, "the plan should run from the first packet"
    return executes


def test_lowered_op_budget_faults_on_both_entry_points():
    """Interpreter limits are read on every invocation: setting an op
    budget after install hands the next packets to the generic tier,
    which faults them on the tree walk,
    identically through either entry point — on the packet that builds
    the plan, and under a plan built earlier."""

    def run(use_batch, warm_up):
        enclave = Enclave("batch.test")
        fn = enclave.install_function(set_priority_five)
        enclave.install_rule("*", "set_priority_five")

        def send(n):
            pairs = [(FakePacket(), ()) for _ in range(n)]
            results = _send(enclave, pairs, use_batch)
            return results, [p.priority for p, _ in pairs]

        send(warm_up)
        executes = _count_executes(fn)
        enclave.interpreter.op_budget = 1
        sent = send(2)
        assert isinstance(fn.program._pycodegen,
                          pycodegen.CompiledProgram)
        return sent, fn.stats, executes[0]

    for warm_up in (0, 2):
        (results, priorities), stats, executes = run(True, warm_up)
        assert ((results, priorities), stats, executes) == \
            run(False, warm_up)
        assert executes == 2              # one generic call per packet
        assert [r.faults for r in results] == [1, 1]
        assert [r.executed for r in results] == [[], []]
        assert priorities == [0, 0]       # forwarded unmodified
        assert stats.faults == 2
        assert stats.invocations == warm_up


# -- the generated per-packet plan ------------------------------------

def rand_total(packet, msg):
    msg.total = msg.total + rand(1000)
    packet.priority = clock() % 8


def nested_call(packet):
    def twice(x):
        return x + x
    packet.priority = 1 + twice(packet.size)


def sum_scratch(packet, _global):
    _global.scratch[0] = _global.scratch[0] + packet.size
    packet.priority = len(_global.records)


ARRAY_SCHEMA = schema("Arr", Lifetime.GLOBAL, [
    Field("scratch", AccessLevel.READ_WRITE, FieldKind.ARRAY),
    Field("records", AccessLevel.READ_ONLY, FieldKind.RECORD_ARRAY,
          record_fields=("lo", "hi")),
])


def _limits_enclave(action, backend, **schemas):
    enclave = Enclave("batch.test", rng=random.Random(5),
                      clock=lambda: 1000)
    fn = enclave.install_function(action, name="f", backend=backend,
                                  **schemas)
    enclave.install_rule("*", "f")
    return enclave, fn


@pytest.mark.parametrize("action,schemas,change", [
    (set_priority_five, {},
     lambda e, fn: setattr(e.interpreter, "max_operand_stack", 0)),
    (nested_call, {},
     lambda e, fn: setattr(e.interpreter, "max_call_depth", 1)),
    (sum_scratch, {"global_schema": ARRAY_SCHEMA},
     lambda e, fn: setattr(e.interpreter, "max_heap_words", 3)),
    # Copy-in fault: a record array that is not whole records.
    (sum_scratch, {"global_schema": ARRAY_SCHEMA},
     lambda e, fn: fn.global_store._arrays.update(records=[1, 2, 3])),
], ids=["stack", "call_depth", "heap", "stride"])
def test_plan_reads_limits_live_and_faults_like_the_generic_tier(
        action, schemas, change):
    """Each limit lowered under a built plan faults the next packets,
    commits nothing of them and leaves exactly what a ``tree``-pinned
    function (generic tier throughout) leaves; restoring the limit
    lets packets through again."""

    def run(backend):
        enclave, fn = _limits_enclave(action, backend, **schemas)
        if schemas:
            enclave.set_global_array("f", "scratch", [0] * 4)
        if backend == "interpreter":
            _heat(enclave, fn)
        else:
            for _ in range(HEAT_PACKETS):
                enclave.process_packet(FakePacket(), (), now_ns=1)
        saved = (vars(enclave.interpreter).copy(),
                 fn.global_store and dict(fn.global_store._arrays))
        change(enclave, fn)
        faulted = [FakePacket(size=100 + i) for i in range(3)]
        results = enclave.process_batch([(p, ()) for p in faulted])
        vars(enclave.interpreter).update(saved[0])
        if fn.global_store:
            fn.global_store._arrays.update(saved[1])
        after = [FakePacket(size=7), FakePacket(size=8)]
        results.append(enclave.process_packet(after[0]))
        if schemas:     # a larger heap moves the high-water mark
            enclave.set_global_array("f", "scratch", [0] * 9)
        results.append(enclave.process_packet(after[1]))
        return (results, [vars(p) for p in faulted + after], fn.stats,
                fn.global_store and fn.global_store.snapshot())

    hot = run("interpreter")
    assert hot == run("tree")
    results, packets, stats, _ = hot
    assert [r.faults for r in results] == [1, 1, 1, 0, 0]
    assert [p["priority"] for p in packets[:3]] == [0, 0, 0]
    assert stats.faults == 3
    assert stats.max_heap_bytes == (9 * 8 if schemas else 0)


def test_plan_follows_a_swapped_rng_and_clock():
    """RNG and clock are the interpreter's, per call, under a plan."""

    def run(backend):
        enclave, fn = _limits_enclave(rand_total, backend,
                                      message_schema=MSG_SCHEMA)
        cls = _msg_cls(0)
        if backend == "interpreter":
            _heat(enclave, fn, cls)
        else:
            for _ in range(HEAT_PACKETS):
                enclave.process_packet(FakePacket(), cls, now_ns=1)
        enclave.interpreter.rng = random.Random(99)
        enclave.interpreter.clock = lambda: 123456
        packet = FakePacket()
        enclave.process_packet(packet, cls, now_ns=2)
        return (packet.priority,
                fn.message_store._entries[("m", 0)].values,
                enclave.interpreter.rng.getstate())

    hot = run("interpreter")
    assert hot == run("tree")
    assert hot[0] == 123456 % 8
    assert hot[2] != random.Random(99).getstate()


# -- read-only arrays: the heap image the store keeps ------------------

def _plan_source(enclave, fn):
    return pycodegen.plan_for(enclave.interpreter, fn).source


def _takes_bound_image(source):
    """Whether a plan binds the store's heap image (the arrays are read
    only) or copies every array onto a fresh heap per packet."""
    bound = "_g.heap_image(_K)" in source
    assert bound != ("H = []" in source), source
    return bound


def _pias_packet(i):
    cls = [Classification("app.r1.search", {
        "msg_id": ("pias", i % 3), "priority": 7 if i % 5 else 0})]
    return FakePacket(size=400 + 300 * (i % 4)), cls


def _qjump_packet(i):
    cls = [Classification("app.r1.qjump", {
        "msg_id": ("qjump", i % 6), "level": i % 6 - 1})]
    return FakePacket(), cls


def _limit_packet(i):
    return FakePacket(src_ip=i, dst_ip=2 + i % 2), ()


def _thresholds(n):
    return [(3000 * (k + 1) ** 2, 7 - k % 8) for k in range(n)]


def _heap_words(words):
    return lambda e: setattr(e.interpreter, "max_heap_words", words)


_DEFAULT_HEAP_WORDS = Enclave("plan.defaults").interpreter.max_heap_words

#: (action, schemas, packets, steps): an int step sends that many
#: packets, a callable one writes between packets.  Every case writes
#: before the first packet, which builds the plan, then under it.
IMAGE_CASES = {
    "pias": (pias.pias_action,
             dict(message_schema=pias.PIAS_MESSAGE_SCHEMA,
                  global_schema=pias.PIAS_GLOBAL_SCHEMA),
             _pias_packet, [
                 lambda e: e.set_global_records("f", "priorities",
                                                _thresholds(4)),
                 6,
                 lambda e: e.set_global_array("f", "priorities",
                                              [5000, 2, 10_000, 1]),
                 18,
                 lambda e: e.set_global_records("f", "priorities",
                                                _thresholds(8)),
                 5,
                 # Below the bound image: every packet faults, and so
                 # does the image a write rebuilds under the limit.
                 _heap_words(15),
                 3,
                 lambda e: e.set_global_records("f", "priorities",
                                                _thresholds(7)),
                 2,
                 lambda e: e.set_global_array("f", "priorities",
                                              [1 << 63, 3] * 9),
                 2,
                 _heap_words(_DEFAULT_HEAP_WORDS),
                 3,
                 lambda e: e.set_global_array("f", "priorities", []),
                 3]),
    "qjump": (qos.qjump_action,
              dict(message_schema=qos.QJUMP_MESSAGE_SCHEMA,
                   global_schema=qos.QJUMP_GLOBAL_SCHEMA),
              _qjump_packet, [
                  lambda e: e.set_global_array("f", "level_priority",
                                               [0, 4, 7]),
                  lambda e: e.set_global_array("f", "level_queue",
                                               [0, 9, 0]),
                  5,
                  lambda e: e.set_global_array("f", "level_queue",
                                               [3, 2, 1, -1]),
                  18,
                  # The first array grows: the second one's base moves.
                  lambda e: e.set_global_array("f", "level_priority",
                                               [1, 2, 3, 4, 5]),
                  6,
                  lambda e: e.set_global_array("f", "level_queue", [8]),
                  6,
                  _heap_words(5),
                  2,
                  _heap_words(_DEFAULT_HEAP_WORDS),
                  3]),
    "source_limit": (ddos.source_limit_action,
                     dict(global_schema=ddos.SOURCE_LIMIT_GLOBAL_SCHEMA),
                     _limit_packet, [
                         lambda e: e.set_global("f", "victim_ip", 2),
                         lambda e: e.set_global_array(
                             "f", "queue_of_source", [4, 5]),
                         4,
                         lambda e: e.set_global("f", "victim_ip", 3),
                         18,
                         lambda e: e.set_global_array(
                             "f", "queue_of_source", [7, 8, 9]),
                         4,
                         lambda e: e.set_global("f", "victim_ip", 2),
                         4,
                         lambda e: e.set_global_array(
                             "f", "queue_of_source", []),
                         3]),
}


def _run_image_case(case, backend):
    """Every packet's result, fields and the function's stats, store
    and message entries after it, and every fault's class and
    message, for one backend."""
    action, schemas, make_packet, steps = case
    enclave = Enclave("plan.image", rng=_StatelessRng())
    fn = enclave.install_function(action, name="f", backend=backend,
                                  **schemas)
    enclave.install_rule("*", "f")
    faults = []
    inner = fn.run_packet

    def run_packet(packet, msg_entry, acct=None):
        try:
            return inner(packet, msg_entry, acct)
        except Exception as fault:
            faults.append((type(fault), str(fault)))
            raise

    fn.run_packet = run_packet
    executes = _count_executes(fn)
    trace = []
    sent = 0
    for step in steps:
        if callable(step):
            step(enclave)
            continue
        for _ in range(step):
            packet, cls = make_packet(sent)
            sent += 1
            result = enclave.process_packet(packet, cls, now_ns=sent)
            store = fn.message_store
            trace.append((
                result, vars(packet), vars(fn.stats).copy(),
                fn.global_store.snapshot(),
                store and {k: dict(e.values)
                           for k, e in store._entries.items()}))
    return trace, faults, executes[0], enclave, fn


@pytest.mark.parametrize("name", sorted(IMAGE_CASES))
def test_bound_image_follows_every_store_write(name):
    """A function that only reads its global arrays binds the heap
    image its store keeps.  Writes between packets — before the plan
    is built and under it, scalar writes beside array writes, a heap
    limit lowered below the image and restored — leave exactly what a
    ``tree``-pinned twin leaves, packet by packet, with the same fault
    classes and messages."""
    hot, faults, executes, enclave, fn = _run_image_case(
        IMAGE_CASES[name], "interpreter")
    tree, tree_faults, _, _, _ = _run_image_case(IMAGE_CASES[name],
                                                 "tree")
    assert hot == tree
    assert faults == tree_faults
    assert executes == 0                # the plan ran every packet
    assert _takes_bound_image(_plan_source(enclave, fn))
    if name != "source_limit":      # the heap limit was lowered
        assert (InterpreterFault, "f@-1: heap of 6 words exceeds "
                "limit 5" if name == "qjump" else "f@-1: heap of 16 "
                "words exceeds limit 15") in faults


def test_a_handed_out_array_cannot_change_the_bound_image():
    """The store hands out arrays that refuse in-place change, so
    nothing a reader holds can reach the image a plan binds."""
    enclave, fn = _limits_enclave(
        pias.pias_action, "interpreter",
        message_schema=pias.PIAS_MESSAGE_SCHEMA,
        global_schema=pias.PIAS_GLOBAL_SCHEMA)
    enclave.set_global_records("f", "priorities", _thresholds(4))
    cls = _pias_packet(1)[1]
    _heat(enclave, fn, cls)
    before = FakePacket(size=1)
    enclave.process_packet(before, _msg_cls(100), now_ns=2)
    held = fn.global_store.array("priorities")
    for mutate in (lambda a: a.__setitem__(1, 0),
                   lambda a: a.append(0), lambda a: a.extend([0, 0]),
                   lambda a: a.__delitem__(0), lambda a: a.clear(),
                   lambda a: a.sort(), lambda a: a.reverse(),
                   lambda a: a.pop(), lambda a: a.insert(0, 1),
                   lambda a: a.remove(7)):
        with pytest.raises(TypeError):
            mutate(held)
    with pytest.raises(TypeError):
        held += [0, 0]
    assert fn.global_store.array("priorities") == \
        [v for rec in _thresholds(4) for v in rec]
    after = FakePacket(size=1)
    enclave.process_packet(after, _msg_cls(101), now_ns=3)
    assert before.priority == after.priority == 7


def test_only_read_only_unbound_arrays_take_the_bound_image():
    """Census of the plans of every Table-1 demo with global
    arrays: a function that writes an array (Ananta's ``nat_state``,
    port knocking, the stateful firewall, ``sum_scratch`` here) or
    binds one per packet (WCMP's ``pathMatrix``) keeps the
    per-packet copy; the others bind the store's image."""
    taken = {}
    for entry in _demo_entries():
        spec = entry.demo
        if not spec.global_arrays and not spec.global_keyed:
            continue
        enclave, fn = _demo_enclave(spec, _compile_demo(spec),
                                    "interpreter")
        metadata = dict(spec.metadata, msg_id=("demo", 1))
        cls = [Classification("demo.r1.msg", metadata)]
        enclave.process_packet(DemoPacket(), cls, now_ns=1)
        taken[spec.function_name] = _takes_bound_image(
            _plan_source(enclave, fn))
    enclave, fn = _limits_enclave(sum_scratch, "interpreter",
                                  global_schema=ARRAY_SCHEMA)
    _heat(enclave, fn)
    taken["sum_scratch"] = _takes_bound_image(_plan_source(enclave, fn))
    assert taken == {
        "wcmp": False, "message_wcmp": False, "ananta_nat": False,
        "port_knock": False, "stateful_firewall": False,
        "sum_scratch": False,
        "mcrouter_select": True, "sinbad_select": True, "pulsar": True,
        "network_qos": True, "pias": True, "sff": True, "qjump": True}


def bump_counter_by_two(packet, _global):
    _global.counter = _global.counter + 2


def test_replace_function_on_a_hot_function():
    """The replacement is compiled when it is installed, and its plan
    reads and writes the carried-over global store; the old object
    still runs the old program, on its own plan."""
    enclave = Enclave("batch.test")
    old = enclave.install_function(bump_counter, name="bump",
                                   global_schema=COUNTER_SCHEMA)
    enclave.install_rule("*", "bump")
    _heat(enclave, old)
    counter = HEAT_PACKETS
    assert enclave.query_global("bump")["counter"] == counter

    new = enclave.replace_function("bump", bump_counter_by_two)
    assert new.global_store is old.global_store
    executes = _heat(enclave, new)
    counter += 2 * HEAT_PACKETS
    enclave.process_batch([(FakePacket(), ()) for _ in range(3)])
    assert executes[0] == 0
    assert enclave.query_global("bump")["counter"] == counter + 6
    assert new.stats.invocations == HEAT_PACKETS + 3

    # Whoever still holds the old object runs the old program: its
    # compiled code is the program's own and cannot go stale.
    old_executes = _count_executes(old)
    compiled = pycodegen.stats()["programs_compiled"]
    assert old.run_packet(FakePacket(), None) > 0
    assert old_executes[0] == 0
    assert pycodegen.stats()["programs_compiled"] == compiled
    assert enclave.query_global("bump")["counter"] == counter + 7


def test_a_hot_program_dies_with_its_function():
    """Compiled code lives in a slot on its ``Program`` and dies with
    it: once the enclave and the function are gone, nothing keeps the
    program, its generated body or its plan alive.  (An artifact of
    its own: one installed from source also lives in the compile
    memo.)"""
    enclave = Enclave("batch.test")
    fn = enclave.install_function(compile_action(
        set_priority_five, packet_schema=DEFAULT_PACKET_SCHEMA))
    enclave.install_rule("*", "set_priority_five")
    _heat(enclave, fn)
    program = weakref.ref(fn.program)
    del enclave, fn
    gc.collect()
    assert program() is None


def count_and_tag(packet, msg):
    msg.total = msg.total + packet.size
    packet.priority = 3


def test_dry_run_under_a_plan_commits_message_state_only():
    """``commit_packet_writes=False`` (the paper's baseline-Eden
    configuration) is honoured by the plan, and is read per packet:
    fig9 flips it after install."""
    enclave = Enclave("batch.test")
    fn = enclave.install_function(count_and_tag, name="f",
                                  message_schema=MSG_SCHEMA,
                                  commit_packet_writes=False)
    enclave.install_rule("*", "f")
    _heat(enclave, fn, _msg_cls(0))
    total = 1500 * HEAT_PACKETS
    packet = FakePacket(size=10)
    enclave.process_packet(packet, _msg_cls(0), now_ns=1)
    assert packet.priority == 0
    entry = fn.message_store._entries[("m", 0)]
    assert entry.values["total"] == total + 10
    fn.commit_packet_writes = True
    enclave.process_packet(packet, _msg_cls(0), now_ns=1)
    assert packet.priority == 3
    assert entry.values["total"] == total + 20


def test_generated_plan_allocates_no_snapshot_objects():
    """The hot tier is one pass: no ``ExecStats``/``ExecResult``, no
    field buffer, no commit dict — and no call back into the
    ``execute`` boundary or the message store."""
    enclave = Enclave("batch.test")
    fn = enclave.install_function(count_and_tag, name="f",
                                  message_schema=MSG_SCHEMA)
    enclave.install_rule("*", "f")
    _heat(enclave, fn, _msg_cls(0))
    source = pycodegen.plan_for(enclave.interpreter, fn).source
    for banned in ("ExecStats", "ExecResult", "_field_buf", "execute(",
                   "commit(", "dict(", "{"):
        assert banned not in source, banned
    # Only the written slots go back: ``size`` is read, never stored.
    assert "packet.priority = " in source
    assert "packet.size = " not in source
    assert "setattr" not in source
    # One frame: the entry body is inlined with its field slots, op
    # count and high-water mark as locals — no ``_f0`` call, no field
    # list, no context traffic — and counted once per segment, with
    # no limit tested.
    for banned in ("_f0(", "ctx.fields", "ctx.ops", "ctx.max_seen",
                   "_bud =", "_sl =", "exceed"):
        assert banned not in source, banned
    assert "        _ops += 8\n        if 2 > _ms:\n" \
        "            _ms = 2\n" in source


def test_field_names_reach_generated_source_only_as_constants():
    """A field name that is not a plain identifier (the DSL cannot
    produce one, a hand-built program can) is written back through
    ``setattr`` with the name as a string constant, never spliced in
    as code."""
    from repro.lang.bytecode import Assembler, FieldRef, Op, Program

    hostile = "x = 1\nimport os\n#"
    enclave = Enclave("batch.test", packet_schema=schema(
        "Pkt", Lifetime.PACKET,
        [Field(hostile, AccessLevel.READ_WRITE),
         Field("class", AccessLevel.READ_WRITE)]))
    fn = enclave.install_function("def f(packet):\n    pass\n",
                                  name="f")
    asm = Assembler("f", n_args=0)
    for slot in (0, 1):
        asm.emit(Op.GETF, slot)
        asm.emit(Op.CONST, 1)
        asm.emit(Op.ADD)
        asm.emit(Op.PUTF, slot)
    asm.emit(Op.CONST, 0)
    asm.emit(Op.RET)
    fn.program = Program(
        name="f", functions=(asm.finish(n_locals=0),),
        field_table=(FieldRef("packet", hostile, True),
                     FieldRef("packet", "class", True)),
        array_table=())
    fn._build_hot_path()
    enclave.install_rule("*", "f")

    class Packet:
        pass

    packet = Packet()
    setattr(packet, hostile, 0)
    setattr(packet, "class", 10)
    executes = _count_executes(fn)
    for _ in range(4):
        assert enclave.process_packet(packet).executed == ["f"]
    assert executes[0] == 0
    assert getattr(packet, hostile) == 4
    assert getattr(packet, "class") == 14
    source = pycodegen.plan_for(enclave.interpreter, fn).source
    assert repr(hostile) in source
    assert "import os" not in source.replace(repr(hostile), "")
    assert "packet.class" not in source


def test_a_call_program_spills_its_counters_only_around_calls():
    """Callees stay ``_fN(ctx, ...)``: the inlined entry hands them the
    op count and high-water mark on the context right before each call
    and takes them back right after — ``ctx.ops`` appears nowhere
    else.  A callee keeps both in locals too: it loads them once,
    and stores them back right before each call and each return."""
    enclave, fn = _limits_enclave(nested_call, "interpreter")
    _heat(enclave, fn)
    lines = pycodegen.plan_for(enclave.interpreter, fn).source.split("\n")
    calls = [i for i, line in enumerate(lines)
             if re.search(r"= _f\d+\(ctx", line)]
    spills = [i for i, line in enumerate(lines) if "ctx.ops" in line]
    assert calls and "_f0(" not in "\n".join(lines)
    assert len(spills) == 2 * len(calls)
    for i in spills:
        assert min(abs(i - c) for c in calls) <= 2, lines[i]
    assert "ctx.fields" not in "\n".join(lines)   # the callee has none
    source = pycodegen.code_for(fn.program).source
    # The first ``def`` is ``_fits``, the entry test.
    for function in re.split(r"^def ", source, flags=re.M)[2:]:
        lines = function.split("\n")
        assert [line.strip() for line in lines[2:4]] == \
            ["_ops = ctx.ops", "_ms = ctx.max_seen"]
        stores = [i for i, line in enumerate(lines)
                  if "ctx.ops = _ops" in line]
        leaves = [i for i, line in enumerate(lines)
                  if re.search(r"(= _f\d+\(ctx|return )", line)]
        assert stores and len(stores) == len(leaves)
        assert all(lines[i + 1].strip() == "ctx.max_seen = _ms" and
                   i + 2 in leaves for i in stores)
        assert sum("ctx.ops" in line for line in lines) == \
            1 + len(stores) + sum("= _f" in line for line in lines)


def _callee_touches_fields():
    """``f(packet)``: ``packet.priority = g(packet.size)`` where the
    callee ``g(x)`` sets ``packet.path_id = packet.priority + x`` and
    returns ``3 * packet.path_id`` — field slots crossing a CALL in
    both directions, which the DSL never emits."""
    from repro.lang.bytecode import Assembler, FieldRef, Program

    entry = Assembler("f", n_args=0)
    entry.emit(Op.GETF, 0)
    entry.emit(Op.CALL, 1)
    entry.emit(Op.PUTF, 1)
    entry.emit(Op.CONST, 0)
    entry.emit(Op.RET)
    callee = Assembler("g", n_args=1)
    callee.emit(Op.GETF, 1)
    callee.emit(Op.LOAD, 0)
    callee.emit(Op.ADD)
    callee.emit(Op.PUTF, 2)
    callee.emit(Op.GETF, 2)
    callee.emit(Op.CONST, 3)
    callee.emit(Op.MUL)
    callee.emit(Op.RET)
    return Program(
        name="f",
        functions=(entry.finish(n_locals=0), callee.finish(n_locals=1)),
        field_table=(FieldRef("packet", "size", False),
                     FieldRef("packet", "priority", True),
                     FieldRef("packet", "path_id", True)),
        array_table=())


def test_field_slots_cross_a_call_into_the_inlined_entry():
    """A callee that reads and writes field slots sees the entry's
    locals and hands its writes back, like the generic tier."""

    def run(backend):
        enclave = Enclave("plan.test")
        fn = enclave.install_function(set_priority_five, name="f",
                                      backend=backend)
        fn.program = _callee_touches_fields()
        fn._build_hot_path()
        enclave.install_rule("*", "f")
        executes = _count_executes(fn)
        packets = [FakePacket(size=10 + i)
                   for i in range(8)]
        for i, packet in enumerate(packets):
            packet.priority = i
        results = _send(enclave, [(p, ()) for p in packets], False)
        return (results, [vars(p) for p in packets], fn.stats), \
            executes[0], fn

    hot, generic_calls, fn = run("interpreter")
    assert hot == run("tree")[0]
    assert generic_calls == 0
    packet = hot[1][-1]
    assert packet["path_id"] == packet["size"] + 7
    assert packet["priority"] == 3 * packet["path_id"]
    source = pycodegen.plan_for(fn.interpreter, fn).source
    assert "ctx.fields = [f0, f1, f2]" in source
    assert "f0, f1, f2, = ctx.fields" in source


# -- every limit below what the Table-1 demos need ---------------------

class _StatelessRng:
    """``rand(n)`` as a function of ``n`` alone, so a packet's draws
    do not depend on the packets before it."""

    def randrange(self, n):
        return n // 2


def _demo_entries():
    return [e for e in table1() if e.demo is not None]


def _demo_enclave(spec, action, backend):
    """A fresh enclave binding ``action`` with the demo's state."""
    name = spec.function_name
    enclave = Enclave("plan.sweep", rng=random.Random(5))
    fn = enclave.install_function(action, name=name, backend=backend)
    for field_name, value in spec.global_scalars.items():
        enclave.set_global(name, field_name, value)
    for field_name, values in spec.global_arrays.items():
        enclave.set_global_array(name, field_name, list(values))
    for field_name, keyed in spec.global_keyed.items():
        for key, values in keyed.items():
            enclave.set_global_keyed(name, field_name, key, list(values))
    enclave.install_rule("*", name)
    return enclave, fn


def _compile_demo(spec):
    return compile_action(spec.action, packet_schema=DEFAULT_PACKET_SCHEMA,
                          message_schema=spec.message_schema,
                          global_schema=spec.global_schema,
                          name=spec.function_name)


def _record_faults(fn):
    """Wrap ``fn.run_packet``: the enclave swallows a fault, this keeps
    its reason and pc."""
    seen = []
    inner = fn.run_packet

    def run_packet(packet, msg_entry, acct=None):
        try:
            return inner(packet, msg_entry, acct)
        except InterpreterFault as fault:
            seen.append((fault.reason, fault.pc))
            raise

    fn.run_packet = run_packet
    return seen


def _shapes(program):
    """The control shapes the entry function's structure contains:
    ``"loop tail"`` for a loop that runs past its last back edge into
    a tail ending in RET, ``"join jump"`` for a branch straight to the
    join of the if/else around it."""
    code = program.entry.code
    facts = analysis.facts(program)
    depths = facts.depths[0]
    found = set()

    def walk(block):
        for item in block.items:
            if isinstance(item, analysis.Loop):
                back = max(pc for pc in range(item.header, item.end)
                           if code[pc].op in (Op.JMP, Op.JZ, Op.JNZ)
                           and code[pc].arg == item.header)
                if any(code[pc].op is Op.RET and depths[pc] is not None
                       for pc in range(back + 1, item.end)):
                    found.add("loop tail")
                walk(item.body)
            elif isinstance(item, analysis.If):
                walk(item.then)
                if item.orelse is not None:
                    walk(item.orelse)
            elif isinstance(item, analysis.Split):
                if not item.taken.items:    # the branch skips to the join
                    found.add("join jump")
                walk(item.taken)
                walk(item.fallen)

    walk(facts.structure[0])
    return found


def test_the_sweep_covers_calls_and_both_new_shapes():
    """What the sweep below runs through the inlined body, all on the
    one structured emitter: entries with a CALL (PIAS, SFF), a loop
    whose tail returns after its last back edge (WCMP) and branches
    straight to an enclosing if/else's join (port knocking, the
    stateful firewall)."""
    callers, shapes = set(), {}
    for entry in _demo_entries():
        program = _compile_demo(entry.demo).program
        assert pycodegen.compile_pycode(program) is not None, program.name
        shapes[program.name] = _shapes(program)
        if any(i.op is Op.CALL for i in program.entry.code):
            callers.add(program.name)
    assert {"pias", "sff"} <= callers
    assert "loop tail" in shapes["wcmp"]
    assert "join jump" in shapes["port_knock"]
    assert "join jump" in shapes["stateful_firewall"]


def test_no_table1_plan_tests_a_budget_or_a_stack_limit():
    """The census: every Table-1 program has a stack and a call-chain
    bound, and neither its plan nor its generated functions test the op
    budget, the stack limit or the call depth — the plan reads each
    limit once, in its entry test, the functions not at all, and
    ``_fits``, the generic tier's entry test, is the same rule."""
    for entry in _demo_entries():
        spec = entry.demo
        action = _compile_demo(spec)
        bounds = analysis.facts(action.program).bounds
        assert None not in (bounds.stack, bounds.calls), \
            spec.function_name
        enclave, fn = _demo_enclave(spec, action, "interpreter")
        assert fn.bounds == bounds
        plan = pycodegen.plan_for(enclave.interpreter, fn).source
        fits, *functions = re.split(
            r"^def ", pycodegen.code_for(action.program).source,
            flags=re.M)[1:]
        for source in [plan] + functions:
            for banned in ("op budget", "operand stack of", "_bud =",
                           "_sl =", "ctx.budget", "stack_limit",
                           "call depth", "call_limit"):
                assert banned not in source, (spec.function_name, banned)
        for source in functions:
            for banned in ("op_budget", "max_operand_stack",
                           "max_call_depth"):
                assert banned not in source, (spec.function_name, banned)
        assert fits.split("\n")[1].strip() == \
            f"return {pycodegen.entry_test(bounds)}"
        test = [line for line in plan.split("\n")
                if "_interp.op_budget" in line or
                "_interp.max_operand_stack" in line or
                "_interp.max_call_depth" in line]
        assert [line.strip() for line in test] == \
            [f"if not ({pycodegen.entry_test(bounds)}):"], test


@pytest.mark.parametrize("use_batch", (False, True),
                         ids=("scalar", "batch"))
@pytest.mark.parametrize("entry", _demo_entries(), ids=lambda e: e.name)
def test_every_lower_limit_faults_the_plan_like_the_generic_tier(
        entry, use_batch):
    """Each Table-1 demo's program under every op budget from 1 to one
    below its longest packet and every stack limit below its deepest,
    each from the demo's initial state: the plan's entry test hands
    every packet to the generic tier, and the plan and a
    ``backend="tree"`` twin (the generic tier) fault the same packets
    with the same reason and pc, draw the same random numbers, and
    leave the same results, packet fields, message entries, globals
    and FunctionStats."""
    spec = entry.demo
    metadata = dict(spec.metadata)
    metadata.setdefault("msg_id", ("demo", 1))
    cls = [Classification("demo.r1.msg", metadata)]
    overrides = list(spec.packets) or [{}]
    action = _compile_demo(spec)
    _demo_enclave(spec, action, "interpreter")
    assert isinstance(action.program._pycodegen,
                      pycodegen.CompiledProgram)

    def send(limit, value):
        out = {}
        for kind, backend in (("plan", "interpreter"),
                              ("tree", "tree")):
            enclave, fn = _demo_enclave(spec, action, backend)
            faults = _record_faults(fn)
            executes = _count_executes(fn)
            setattr(enclave.interpreter, limit, value)
            packets = [DemoPacket(**o) for o in overrides]
            results = _send(enclave, [(p, cls) for p in packets],
                            use_batch, now_ns=2)
            store = fn.message_store
            out[kind] = faults, (
                results, [vars(p) for p in packets], fn.stats,
                fn.global_store and fn.global_store.snapshot(),
                store and {k: (dict(e.values), e.packets)
                           for k, e in store._entries.items()})
            # Only the generic tier goes through ``execute``; under a
            # lowered limit the plan hands it every packet.
            assert executes[0] == (0 if kind == "plan" and value is None
                                   else len(packets)), kind
        return out

    first = send("op_budget", None)
    assert first["plan"] == first["tree"]
    faults, (results, _, stats, _, _) = first["plan"]
    assert not faults
    longest = max(r.interpreter_ops for r in results)
    deepest = stats.max_stack_bytes // 8
    for limit, values in (("op_budget", range(1, longest)),
                          ("max_operand_stack", range(deepest))):
        for value in values:
            out = send(limit, value)
            (plan, left), (tree, tree_left) = out["plan"], out["tree"]
            assert left == tree_left, (limit, value)
            assert [r for r, _ in plan] == [r for r, _ in tree]
            # The first packet over the limit meets the state it met
            # without one, so every value faults at least one.
            assert plan, (limit, value)
            assert plan == tree, (limit, value)


# -- effect-precise reads ------------------------------------------------

def _bench_tag():
    """The function ``enclave_tag`` installs, loaded from
    ``bench/actions.py`` itself (``bench/`` is no package): it reads
    ``size`` and ``dst_port``, writes ``priority`` and ``path_id`` on
    every path."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, os.pardir, "bench", "actions.py")
    spec = importlib.util.spec_from_file_location("bench_actions", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tag


def odd_slots(packet):
    """``size`` is read, ``priority`` only written, ``queue_id``
    written on some paths."""
    if packet.size > 100:
        packet.queue_id = packet.size % 4
    packet.priority = 3


class _Flag(int):
    """An ``int`` subclass, as an ``IntEnum`` member is."""


_MISSING = object()

#: Packet attribute values ``int()`` refuses: ``TypeError``,
#: ``ValueError``, ``OverflowError``.
REFUSED = (None, "high", float("inf"))
#: Packet attribute values other than an exact in-range ``int``.
ODD_VALUES = (_MISSING, True, _Flag(7), (1 << 64) + 300, -(1 << 70),
              2.5) + REFUSED


@pytest.mark.parametrize("slot", ("size", "priority", "queue_id"),
                         ids=("read", "only written", "sometimes written"))
def test_odd_packet_values_leave_every_tier_alike(slot):
    """An attribute that is missing, a bool, an ``int`` subclass, out
    of the 64-bit range, a float or one ``int()`` refuses, in a slot
    the body reads, one it only writes and one it writes on some
    paths: the plan, a ``tree`` pin and a ``native`` pin leave the same
    results, packet attributes, function stats and faults.  A slot the
    plan does not read is never converted; one it reads faults its hop
    when ``int()`` refuses the value."""

    def run(backend):
        enclave = Enclave("plan.odd")
        fn = enclave.install_function(odd_slots, name="f",
                                      backend=backend)
        enclave.install_rule("*", "f")
        faults = _record_faults(fn)
        packets = []
        for value in ODD_VALUES:
            for size in (50, 500):
                packet = FakePacket(size=size)
                if value is _MISSING:
                    delattr(packet, slot)
                else:
                    setattr(packet, slot, value)
                packets.append(packet)
        results = [enclave.process_packet(p) for p in packets]
        return results, [vars(p) for p in packets], fn.stats, faults

    plan = run("interpreter")
    assert plan == run("tree")
    results, packets, stats, faults = plan
    native_results, native_packets, native_stats, native_faults = \
        run("native")
    assert [(r.executed, r.faults) for r in native_results] == \
        [(r.executed, r.faults) for r in results]
    assert (native_packets, native_faults) == (packets, faults)
    assert (native_stats.invocations, native_stats.faults) == \
        (stats.invocations, stats.faults)
    if slot == "priority":
        assert faults == []
        assert [p["priority"] for p in packets] == [3] * len(packets)
    else:
        assert faults == [
            (f"packet.{slot} holds a {type(value).__name__}, not an "
             f"integer", -1) for value in REFUSED for _ in (50, 500)]
        assert stats.faults == 2 * len(REFUSED)
    assert stats.invocations == len(packets) - stats.faults


def _plan_reads(source):
    """The field slots a plan reads before its body, in order."""
    head = source.split("\n    if acct is not None:\n")[0]
    return [int(i) for i in re.findall(r"^    f(\d+) = ", head, re.M)]


def test_every_table1_plan_reads_exactly_its_loads():
    """The census: each Table-1 plan reads exactly the read set plus
    the slots written on some paths but not all, and nothing else."""
    for entry in _demo_entries():
        spec = entry.demo
        action = _compile_demo(spec)
        effects = analysis.facts(action.program).effects
        read, may, must = (
            {i for scope in ("packet", "message", "global")
             for i in getattr(effects.scopes[scope], kind)}
            for kind in ("read", "may_write", "must_write"))
        assert not effects.callee_fields, spec.function_name
        assert effects.loads == tuple(sorted(read | (may - must)))
        enclave, fn = _demo_enclave(spec, action, "interpreter")
        source = pycodegen.plan_for(enclave.interpreter, fn).source
        assert _plan_reads(source) == list(effects.loads), \
            spec.function_name


def test_tag_reads_only_size_and_dst_port():
    """``enclave_tag``'s function reads two of its four slots, on the
    fast path."""
    enclave = Enclave("plan.tag")
    fn = enclave.install_function(_bench_tag(), name="tag")
    enclave.install_rule("*", "tag")
    _heat(enclave, fn)
    source = pycodegen.plan_for(enclave.interpreter, fn).source
    table = fn.program.field_table
    assert [table[i].name for i in _plan_reads(source)] == \
        ["size", "dst_port"]
    assert "int(" not in source
    for size, ops, priority in ((2000, 15, 1), (64, 14, 5)):
        packet = FakePacket(size=size, dst_port=7)
        assert enclave.process_packet(packet).interpreter_ops == ops
        assert (packet.priority, packet.path_id) == (priority, 4)


# -- what the expression emitter and the interval pass leave out --------

def pias_search_from_field(packet, msg, _global):
    """PIAS' record search started at ``packet.queue_id`` instead of 0:
    the start may be negative, so nothing proves the index in range."""
    msg_size = msg.size + packet.size
    msg.size = msg_size

    def search(index):
        if index >= len(_global.priorities):
            return 0
        elif msg_size <= _global.priorities[index].message_size_limit:
            return _global.priorities[index].priority
        else:
            return search(index + 1)

    packet.priority = search(packet.queue_id)


def _generated_function(program, fi):
    """The source of the generated ``_f{fi}``."""
    source = pycodegen.code_for(program).source
    return re.search(rf"^def _f{fi}\(.*?(?=^def |\Z)", source,
                     re.M | re.S).group(0)


def _pias(action):
    return compile_action(action, packet_schema=DEFAULT_PACKET_SCHEMA,
                          message_schema=pias.PIAS_MESSAGE_SCHEMA,
                          global_schema=pias.PIAS_GLOBAL_SCHEMA,
                          name="pias").program


def test_the_pias_search_neither_wraps_nor_tests_the_heap():
    """The census: PIAS' search loop (``_f1``) holds no 64-bit wrap and
    no heap test — its one call site starts it at 0, and the guard
    ``index < len`` bounds every record it reads — while the same
    search started from a packet field keeps its heap test."""
    search = _generated_function(_pias(pias.pias_action), 1)
    assert "while True:" in search
    for banned in ("& 18446744073709551615", "_wrap(", "len(H)"):
        assert banned not in search, banned
    assert "if l0 >= _L0:" in search
    from_field = _generated_function(_pias(pias_search_from_field), 1)
    assert "len(H)" in from_field


def test_no_table1_code_tests_a_materialised_compare():
    """The census: no Table-1 plan or generated function stores a
    compare's 0/1 in a slot that the next ``if`` or ``while`` tests —
    a compare that feeds a branch is the branch's test."""
    for entry in _demo_entries():
        spec = entry.demo
        action = _compile_demo(spec)
        enclave, fn = _demo_enclave(spec, action, "interpreter")
        sources = [pycodegen.plan_for(enclave.interpreter, fn).source,
                   pycodegen.code_for(action.program).source]
        for source in sources:
            lines = [line.strip() for line in source.split("\n")]
            for line, after in zip(lines, lines[1:]):
                stored = re.match(r"(s\d+) = 1 if .* else 0$", line)
                if stored:
                    assert not re.match(
                        rf"(if|while) (not )?\(?{stored.group(1)}\b",
                        after), (spec.function_name, line, after)
