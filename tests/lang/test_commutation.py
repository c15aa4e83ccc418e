"""The concurrency model as a checked property (Section 3.4.4).

The paper derives from a program's writes how many of its invocations
may run at once (``analysis.ConcurrencyLevel``): any number for
``PARALLEL``, one per message for ``PER_MESSAGE``, one in all for
``SERIAL``.  The enclave runs one invocation at a time, so what the
level claims is that invocations it admits together commute, and this
module checks that claim: two packets the level admits together — any
two for ``PARALLEL``, two of different messages for ``PER_MESSAGE`` —
run in either order on two identically programmed enclaves at one
``now_ns`` leave equal results, packet fields, message entries,
globals and ``FunctionStats``.  ``SERIAL`` functions are never paired.
The subjects are ``program_gen`` programs, drawn by the level their
facts report, and the Table-1 functions.

What the property fixes, and why:

* ``RAND`` draws from the one enclave RNG, so two draws swap with the
  order: ``wcmp`` (``PARALLEL``) and ``message_wcmp``
  (``PER_MESSAGE``) draw.  The level does not cover this, and
  :func:`test_rand_order_matters_under_one_shared_rng` pins the
  caveat; the property runs with a per-call RNG, whose draw depends on
  its bound alone.
* ``CLOCK`` reads the enclave's clock; one ``now_ns`` fixes it (no
  Table-1 program reads it).
* Packets of one message carry the same classifications: a stage
  classifies per message, and the message's first packet, whichever
  it is, seeds its entry from their metadata.

Nothing else on the data path depends on the order.  A message store
has no capacity: entries go only by ``end_message`` and
``expire_idle_messages``, enclave API calls between packets.  A
function's heap image is rebuilt only by the store's array writers:
``set_global*`` calls between packets, or a program's ``HSTORE``,
which makes it ``SERIAL``.

Tier-1 runs :data:`~test_differential.PROPERTY_EXAMPLES` examples per
property; ``-m differential`` runs ten times as many.
"""

import dataclasses
import functools
import random
from typing import Mapping, Optional, Sequence, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.enclave import Enclave
from repro.core.stage import Classification
from repro.functions.library import DemoPacket, table1
from repro.lang import DEFAULT_PACKET_SCHEMA
from repro.lang.analysis import ConcurrencyLevel, facts
from repro.lang.compiler import CompiledAction, compile_action

import program_gen as pg
from conftest import GLB_SCHEMA, MSG_SCHEMA
from test_differential import PROPERTY_EXAMPLES, _at_depth, _left_behind

pytestmark = pytest.mark.differential

PARALLEL = ConcurrencyLevel.PARALLEL
PER_MESSAGE = ConcurrencyLevel.PER_MESSAGE
#: Seeds a generated subject searches, from the drawn one, for a
#: program at the drawn level (about one in twenty is PER_MESSAGE).
SEARCH = 200
#: The one instant every packet of a check runs at.
NOW_NS = 7


class _PerCallRng:
    """``rand(n)`` as a function of ``n`` and a seed alone, so a
    packet's draws do not depend on the packets before it."""

    def __init__(self, seed):
        self.seed = seed

    def randrange(self, n):
        return self.seed % n

    def getstate(self):
        return self.seed


@dataclasses.dataclass(frozen=True)
class Subject:
    """One function and the state its enclave is programmed with."""

    name: str
    action: CompiledAction
    scalars: Mapping[str, int] = dataclasses.field(default_factory=dict)
    arrays: Mapping[str, Sequence[int]] = dataclasses.field(
        default_factory=dict)
    keyed: Mapping[str, Mapping[tuple, Sequence[int]]] = \
        dataclasses.field(default_factory=dict)

    @property
    def level(self) -> ConcurrencyLevel:
        return facts(self.action.program).concurrency

    def enclave(self, rng):
        enclave = Enclave("commute", rng=rng)
        fn = enclave.install_function(self.action, name=self.name)
        for name, value in self.scalars.items():
            enclave.set_global(self.name, name, value)
        for name, values in self.arrays.items():
            enclave.set_global_array(self.name, name, list(values))
        for name, keyed in self.keyed.items():
            for key, values in keyed.items():
                enclave.set_global_keyed(self.name, name, key,
                                         list(values))
        enclave.install_rule("*", self.name)
        return enclave, fn


#: A packet: its field values, and the message it belongs to (0 or 1).
Packet = Tuple[Mapping[str, int], int]


@dataclasses.dataclass(frozen=True)
class Case:
    """What one check runs: packets both enclaves see first, then the
    pair, in one order on one enclave and the other on the other."""

    subject: Subject
    metadata: Tuple[Mapping[str, int], Mapping[str, int]]
    prefix: Tuple[Packet, ...]
    pair: Tuple[Packet, Packet]
    #: What every ``rand`` of the case draws (:class:`_PerCallRng`).
    rng_seed: int = 0

    def classifications(self, message):
        """The same classifications for every packet of a message."""
        metadata = {**self.metadata[message], "msg_id": ("m", message)}
        return [Classification("app.r1.m", metadata)]


def _record_writes(fn):
    """Wrap every hop of ``fn`` (``program_gen.wrap_hops``): per
    invocation that ran, whether it changed its packet's fields and
    whether it changed its message entry."""
    seen = []

    def around(inner):
        def run(packet, msg_entry, acct=None):
            fields = dict(vars(packet))
            values = msg_entry and dict(msg_entry.values)
            ops = inner(packet, msg_entry, acct)
            seen.append((vars(packet) != fields,
                         msg_entry is not None and
                         msg_entry.values != values))
            return ops
        return run

    pg.wrap_hops(fn, around)
    return seen


def _run(case, order, rng=None, writes=None):
    """The prefix, then the pair in ``order``, on a fresh enclave
    drawing from ``rng``, by default the case's per-call RNG.  Returns
    the pair's results in pair order and what the run left behind;
    ``writes`` gets the pair's :func:`_record_writes`."""
    enclave, fn = case.subject.enclave(
        rng if rng is not None else _PerCallRng(case.rng_seed))
    for fields, message in case.prefix:
        enclave.process_packet(DemoPacket(**fields),
                               case.classifications(message),
                               now_ns=NOW_NS)
    seen = _record_writes(fn)
    packets = [DemoPacket(**fields) for fields, _ in case.pair]
    results = [None, None]
    for i in order:
        results[i] = enclave.process_packet(
            packets[i], case.classifications(case.pair[i][1]),
            now_ns=NOW_NS)
    if writes is not None:
        writes.extend(seen)
    return results, _left_behind(enclave, packets)


def check_pair(case, interleaved=None):
    """Both orders of the case's pair leave the same behind.  With
    ``interleaved``, adds the level of a pair both of whose
    invocations ran and wrote state the level is about: each its
    packet for PARALLEL, each its message entry for PER_MESSAGE."""
    level = case.subject.level
    assert level in (PARALLEL, PER_MESSAGE), case.subject.name
    if level is PER_MESSAGE:
        assert case.pair[0][1] != case.pair[1][1]
    writes = []
    assert _run(case, (0, 1), writes=writes) == _run(case, (1, 0)), case
    if interleaved is not None and len(writes) == 2:
        scope = 0 if level is PARALLEL else 1
        if all(w[scope] for w in writes):
            interleaved.add(level)


# -- subjects -----------------------------------------------------------

@functools.lru_cache(maxsize=512)
def _generated(profile, seed):
    return compile_action(pg.generate_program(seed, profile=profile),
                          packet_schema=DEFAULT_PACKET_SCHEMA,
                          message_schema=MSG_SCHEMA,
                          global_schema=GLB_SCHEMA, name="f")


def _at_level(profile, seed, level) -> Optional[CompiledAction]:
    """The first ``program_gen`` program from ``seed`` on whose facts
    report ``level``."""
    for s in range(seed, seed + SEARCH):
        action = _generated(profile, s)
        if facts(action.program).concurrency is level:
            return action
    return None


def _demo_subjects():
    """The Table-1 functions, each once, with their demo state."""
    found = {}
    for entry in table1():
        spec = entry.demo
        if spec is None or spec.function_name in found:
            continue
        action = compile_action(spec.action,
                                packet_schema=DEFAULT_PACKET_SCHEMA,
                                message_schema=spec.message_schema,
                                global_schema=spec.global_schema,
                                name=spec.function_name)
        found[spec.function_name] = (Subject(
            spec.function_name, action, spec.global_scalars,
            spec.global_arrays, spec.global_keyed), spec)
    return found


DEMOS = _demo_subjects()
#: The Table-1 functions the property pairs: all but the SERIAL ones.
PAIRED = sorted(name for name, (subject, _) in DEMOS.items()
                if subject.level is not ConcurrencyLevel.SERIAL)


# -- strategies ---------------------------------------------------------

#: Field values: small, and some at the 64-bit boundary.
_VALUES = st.one_of(st.integers(-1000, 1000),
                    st.sampled_from((2**63 - 1, -2**63, 2**62, -2**61)))


def _pair_messages(level):
    if level is PER_MESSAGE:
        return st.just((0, 1))
    return st.sampled_from(((0, 0), (0, 1)))


@st.composite
def _case(draw, subject, packet, metadata):
    """Two messages' metadata, a prefix of up to three packets, a pair
    of packets at ``subject``'s level and what ``rand`` draws."""
    messages = draw(_pair_messages(subject.level))
    prefix = draw(st.lists(st.tuples(packet, st.integers(0, 1)),
                           max_size=3))
    return Case(subject, (draw(metadata), draw(metadata)), tuple(prefix),
                tuple((draw(packet), m) for m in messages),
                draw(st.integers(0, 1 << 16)))


@st.composite
def generated_cases(draw):
    """A ``program_gen`` program at a drawn level, its globals, and a
    case over the fields it reads and writes."""
    level = draw(st.sampled_from((PARALLEL, PER_MESSAGE)))
    action = _at_level(draw(st.sampled_from(pg.PROFILES)),
                       draw(st.integers(0, 1 << 20)), level)
    assume(action is not None)
    array = st.lists(_VALUES, min_size=pg.ARRAY_LEN,
                     max_size=pg.ARRAY_LEN)
    subject = Subject("f", action, {"knob": draw(_VALUES)},
                      {"weights": draw(array), "scratch": draw(array)})
    packet = st.fixed_dictionaries({"size": _VALUES, "priority": _VALUES,
                                    "queue_id": _VALUES})
    metadata = st.fixed_dictionaries(
        {}, optional={"counter": _VALUES, "limit": _VALUES})
    return draw(_case(subject, packet, metadata))


def demo_cases(name):
    """A case for the Table-1 function ``name``: its demo packets with
    size, priority, queue, tenant and source port drawn, and its demo
    metadata with each value kept or drawn."""
    subject, spec = DEMOS[name]
    packet = st.builds(
        lambda base, drawn: {**base, **drawn},
        st.sampled_from([dict(p) for p in spec.packets] or [{}]),
        st.fixed_dictionaries({
            "size": st.integers(0, 1 << 17),
            "priority": st.integers(0, 7),
            "queue_id": st.integers(0, 3),
            "tenant": st.integers(0, 2),
            "src_port": st.integers(1110, 1113)}))
    metadata = st.fixed_dictionaries({
        key: st.one_of(st.just(value), st.integers(0, 1 << 20))
        for key, value in spec.metadata.items()})
    return _case(subject, packet, metadata)


def check_generated(max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(case=generated_cases())
    def prop(case):
        check_pair(case)

    prop()


def check_demo(name, max_examples):
    @settings(max_examples=max_examples, deadline=None)
    @given(case=demo_cases(name))
    def prop(case):
        check_pair(case)

    prop()


class TestCommutation:
    """Invocations the level admits together commute: for
    ``program_gen`` programs and the Table-1 functions, at their
    reported level, both orders of a pair leave the same behind."""

    def test_generated_programs_commute(self):
        check_generated(PROPERTY_EXAMPLES)

    @pytest.mark.parametrize("name", PAIRED)
    def test_table1_function_commutes(self, name):
        check_demo(name, PROPERTY_EXAMPLES)

    def test_commutes_at_depth(self, request):
        _at_depth(request)
        check_generated(10 * PROPERTY_EXAMPLES)
        for name in PAIRED:
            check_demo(name, 10 * PROPERTY_EXAMPLES)

    def test_paired_functions_are_the_non_serial_ones(self):
        """The Table-1 functions the property pairs, by level; the
        SERIAL ones (global writes) are never paired."""
        by_level = {}
        for name, (subject, _) in DEMOS.items():
            by_level.setdefault(subject.level, set()).add(name)
        assert by_level[PARALLEL] == {
            "wcmp", "mcrouter_select", "sinbad_select", "pulsar",
            "network_qos", "qjump", "centralized_cc"}
        assert by_level[PER_MESSAGE] == {"message_wcmp", "pias", "sff"}
        assert by_level[ConcurrencyLevel.SERIAL] == {
            "ananta_nat", "port_knock", "stateful_firewall"}
        assert set(PAIRED) == by_level[PARALLEL] | by_level[PER_MESSAGE]

    def test_the_property_is_not_vacuous(self):
        """It checks pairs whose writes interleave: a PARALLEL pair in
        which both invocations write their packets, and a PER_MESSAGE
        pair in which both write their message entries."""
        interleaved = set()
        for name in PAIRED:
            subject, spec = DEMOS[name]
            base = dict(spec.packets[0]) if spec.packets else {}
            for messages in ((0, 0), (0, 1)):
                if subject.level is PER_MESSAGE and \
                        messages[0] == messages[1]:
                    continue
                check_pair(Case(
                    subject, (dict(spec.metadata), dict(spec.metadata)),
                    (), tuple(({**base, "size": 100 + 900 * m}, m)
                              for m in messages)), interleaved)
        assert interleaved == {PARALLEL, PER_MESSAGE}
        # The generated subjects too.
        interleaved = set()
        for level in (PARALLEL, PER_MESSAGE):
            for seed in range(0, 2000, 100):
                action = _at_level("default", seed, level)
                if action is None:
                    continue
                subject = Subject("f", action, {},
                                  {"weights": list(range(1, 9)),
                                   "scratch": [0] * 8})
                check_pair(Case(subject, ({}, {}), (),
                                (({"size": 3}, 0), ({"size": 40}, 1))),
                           interleaved)
        assert interleaved == {PARALLEL, PER_MESSAGE}


@pytest.mark.parametrize("name", ("wcmp", "message_wcmp"))
def test_rand_order_matters_under_one_shared_rng(name):
    """The caveat: a function that draws ``RAND`` from the enclave's
    one ``random.Random`` gets its draws in arrival order, so two
    packets the level admits together do not commute — here two
    packets of different messages, for either level."""
    subject, spec = DEMOS[name]
    case = Case(subject, (dict(spec.metadata), dict(spec.metadata)), (),
                (({}, 0), ({}, 1)))
    diverged = [seed for seed in range(16)
                if _run(case, (0, 1), rng=random.Random(seed)) !=
                _run(case, (1, 0), rng=random.Random(seed))]
    assert diverged
    # Under the property's per-call RNG the same pair commutes.
    check_pair(case)
