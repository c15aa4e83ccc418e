"""The Eden enclave: a programmable data plane at the end host.

Section 3.4: the enclave resides along the end-host network stack
(in the OS or on a programmable NIC) and comprises (1) match-action
tables that, based on a packet's *class*, determine an *action
function* to apply, and (2) a runtime that executes those functions.

Unlike OpenFlow, matching is on class names assigned by stages (or by
the enclave's own five-tuple classifier), and the action is a real
program — compiled to bytecode and interpreted — that can read and
modify packet, message and global state under the declared access
annotations.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, fields
from typing import (Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple, Union)

from ..lang import backends as lang_backends
from ..lang.analysis import facts
from ..lang.annotations import DEFAULT_PACKET_SCHEMA, Schema
from ..lang.bytecode import INT_MAX, INT_MIN
from ..lang.compiler import CompiledAction, compile_shared
from ..lang.interpreter import (WORD_BYTES, ExecResult, Interpreter,
                                InterpreterFault, state_word)
from ..lang.verifier import verify_action
from ..telemetry import NULL_TELEMETRY, Telemetry
from .accounting import CpuAccounting
from .stage import Classification, Stage
from .state import GlobalStore, MessageStore, StateError


class EnclaveError(Exception):
    """A controller request to the enclave was invalid."""


class UnknownIdError(EnclaveError, KeyError):
    """A rule or table id named in an enclave API call does not exist.

    Subclasses both :class:`EnclaveError` (so existing controller
    error handling keeps working) and :class:`KeyError` (it is a
    failed id lookup); the message always names the missing id.
    """

    def __str__(self) -> str:
        # KeyError.__str__ reprs its argument; keep the message plain.
        return self.args[0] if self.args else ""


@dataclass
class FunctionStats:
    invocations: int = 0
    faults: int = 0
    ops_executed: int = 0
    max_stack_bytes: int = 0
    max_heap_bytes: int = 0


class InstalledFunction:
    """An action function installed in an enclave: one binding of a
    :class:`~repro.lang.compiler.CompiledAction`.

    The artifact's ``Program`` may be bound by many enclaves at once —
    equal actions compile once per process — so the program, and with
    it pycodegen's generated body and plan code, is shared.
    Everything else is this binding's own: the bound executor, the
    plan instance, the authoritative message/global state and the
    stats.

    ``backend`` selects how invocations execute: ``"interpreter"``
    is the enclave's shared :class:`Interpreter`'s dispatch, and any
    name from the :mod:`repro.lang.backends` registry (``tree``,
    ``pycodegen``, ``native``) pins this function to that execution
    backend.  Either way the binding resolves exactly one
    :class:`~repro.lang.backends.Backend`, named by :attr:`dispatch`,
    and runs through its ``bind`` (the generic tier, bound here, at
    install) and its ``plan`` (asked for on the first packet).
    """

    def __init__(self, name: str, action: CompiledAction,
                 backend: str,
                 interpreter: Interpreter,
                 commit_packet_writes: bool = True) -> None:
        try:
            executor = lang_backends.get(
                interpreter.dispatch if backend == "interpreter"
                else backend)
        except KeyError:
            raise EnclaveError(
                f"unknown backend {backend!r}; use 'interpreter' "
                f"or one of the registered execution backends: "
                f"{', '.join(lang_backends.names())}") from None
        message_schema = action.message_schema
        if message_schema is not None and \
                any(f.is_array for f in message_schema.fields):
            raise EnclaveError(
                "message schemas must contain only scalar fields")
        # The trust boundary: the bytecode, and its tables against the
        # artifact's schemas, checked against this interpreter's limits.
        verify_action(action,
                      max_operand_stack=interpreter.max_operand_stack)
        self.name = name
        self.backend = backend
        #: The resolved backend's registry name.
        self.dispatch = executor.name
        self._executor = executor
        # False implements the paper's "baseline EDEN" configuration
        # (Section 5.1): classification and the data-plane function
        # run, but the interpreter's packet outputs are ignored before
        # transmission.
        self.commit_packet_writes = commit_packet_writes
        self.action = action
        self.program = action.program
        self.packet_schema = action.packet_schema
        self.message_schema = message_schema
        self.global_schema = action.global_schema
        #: The level Section 3.4.4 derives from the program's writes
        #: (``analysis.ConcurrencyLevel``), a fact of install: the
        #: enclave runs one invocation at a time, and two invocations
        #: the level admits at once commute.
        self.concurrency = facts(self.program).concurrency
        #: What one invocation can use at most: stack words, call
        #: chain and deepest frame (``analysis.Bounds``).
        self.bounds = facts(self.program).bounds
        self.interpreter = interpreter
        #: The enclave's per-hop instruments while it traces, else None.
        self.meters: Optional[Tuple] = None
        self.global_store = (GlobalStore(self.global_schema)
                             if self.global_schema is not None else None)
        self.message_store = (MessageStore(message_schema)
                              if message_schema is not None else None)
        self.stats = FunctionStats()
        self._build_hot_path()

    def _build_hot_path(self) -> None:
        """Precompute the per-packet commit plan and bind the backend's
        executor.

        Which slots an invocation writes back, split by scope, is known
        at install time; both tiers write back exactly these.  The
        generic tier's per-slot readers are built on its first use
        instead (:meth:`_build_readers`): only a backend without a plan
        (the ``tree`` and ``native`` pins) runs it.
        """
        # The static write set as (slot, name) lists per scope: each
        # scope's may-write set (``analysis.Effects``: slots some PUTF
        # targets, which the verifier has made sure are writable, and
        # writable arrays only when the program has an HSTORE at all).
        # Both tiers write back exactly these (the plan is generated
        # from them).
        scopes = facts(self.program).effects.scopes
        table = self.program.field_table
        self.packet_writes = [(i, table[i].name)
                              for i in scopes["packet"].may_write]
        self.message_writes = [(i, table[i].name)
                               for i in scopes["message"].may_write]
        self.global_writes = [(i, table[i].name)
                              for i in scopes["global"].may_write]
        arrays = self.program.array_table
        self.array_writes = [(i, arrays[i].name)
                             for i in scopes["array"].may_write
                             if arrays[i].scope == "global"]
        # Bound at install, so whatever the backend compiles here
        # (pycodegen: the program; native: this binding's function)
        # fails the install, not a packet.
        try:
            self._run = self._executor.bind(self.interpreter,
                                            self.program)
        except (SyntaxError, RecursionError) as exc:   # from compile()
            raise EnclaveError(f"function {self.name!r} does not compile "
                               f"on {self.dispatch}: {exc!r}") from exc
        self._plan: Union[Callable, bool, None] = None  # not asked yet
        self._field_readers: Optional[List[Callable]] = None
        self._array_readers: Optional[List[Callable]] = None

    def _build_readers(self) -> None:
        """One reader closure per field-table and array-table slot, its
        scope decided once.  Readers dereference ``self.global_store``
        at call time so :meth:`Enclave.replace_function` can carry
        stores over after construction.

        Only the slots of ``analysis.Effects.loads`` are read; any
        other slot is never read before every exit has written it, or
        never read nor written back, so its reader yields 0 without
        touching the packet or the store.  A read value that is an
        exact ``int`` in the 64-bit range is kept as is; any other goes
        through ``interpreter.state_word``, which faults the invocation
        on one ``int()`` refuses."""
        loads = facts(self.program).effects.loads
        program = self.program.name
        readers: List[Callable] = []
        for i, ref in enumerate(self.program.field_table):
            if i not in loads:
                readers.append(_unread)
                continue
            if ref.scope == "packet":
                f = self.packet_schema.field_named(ref.name)
                if f.binder is not None:
                    read = lambda pkt, msg, _b=f.binder: _b(pkt, None)
                else:
                    read = (lambda pkt, msg, _n=ref.name, _d=f.default:
                            getattr(pkt, _n, _d))
            elif ref.scope == "message":
                read = lambda pkt, msg, _n=ref.name: msg.values[_n]
            else:
                f = self.global_schema.field_named(ref.name)
                if f.binder is not None:
                    read = (lambda pkt, msg, _b=f.binder, _fn=self:
                            _b(pkt, _fn.global_store))
                else:
                    read = (lambda pkt, msg, _n=ref.name, _fn=self:
                            _fn.global_store.scalar(_n))
            readers.append(_word_reader(read, ref.scope, ref.name,
                                        program))
        self._field_readers = readers

        array_readers: List[Callable] = []
        for aref in self.program.array_table:
            if aref.scope != "global":
                def _bad_scope(pkt, _s=aref.scope):
                    raise EnclaveError(
                        f"array state is only supported at global "
                        f"scope, not {_s!r}")
                array_readers.append(_bad_scope)
                continue
            f = self.global_schema.field_named(aref.name)
            if f.binder is not None:
                array_readers.append(
                    lambda pkt, _b=f.binder, _fn=self:
                    list(_b(pkt, _fn.global_store)))
            else:
                array_readers.append(
                    lambda pkt, _n=aref.name, _fn=self:
                    _fn.global_store.array(_n))
        self._array_readers = array_readers

    def execute(self, fields: Sequence[int],
                arrays: Sequence[Sequence[int]]) -> ExecResult:
        """Run the program over one state snapshot, through the
        callable the backend bound at install (``Backend.bind``)."""
        return self._run(fields, arrays)

    def run_packet(self, packet, msg_entry, acct=None) -> int:
        """One invocation against live state; returns the op count.

        The backend's plan (``Backend.plan``), asked for once, on the
        first packet (an install stays a bind), runs it; without one,
        :meth:`run_generic` does.
        An :class:`InterpreterFault` propagates with nothing of the
        invocation committed.  ``acct`` is the enclave's
        :class:`CpuAccounting` when it is enabled, else None.
        """
        plan = self._plan
        if plan is None:
            # False when there is none: a bound method of this
            # binding here would make it a reference cycle.
            plan = self._plan = (
                self._executor.plan(self.interpreter, self) or False)
        if plan:
            return plan(packet, msg_entry, acct)
        return self.run_generic(packet, msg_entry, acct)

    def run_generic(self, packet, msg_entry, acct=None) -> int:
        """The generic tier of :meth:`run_packet`: state read (the
        slots of ``analysis.Effects.loads``) -> :meth:`execute` ->
        write-back of the may-write sets ->
        function stats.  The ``tree``/``native`` pins run it; it is the
        oracle for the plan, which is the same sequence as one
        generated callable, and the plan hands it a packet whose limits
        the program's bounds do not fit, or any packet under an op
        budget."""
        if self._field_readers is None:
            self._build_readers()
        fields = [read(packet, msg_entry)
                  for read in self._field_readers]
        arrays = [read(packet) for read in self._array_readers]
        if acct is not None:
            acct.lap("enclave")
        try:
            result = self.execute(fields, arrays)
        finally:
            if acct is not None:
                acct.lap("native" if self.dispatch == "native"
                         else "interpreter")
        out = result.fields
        if self.commit_packet_writes:
            for i, name in self.packet_writes:
                setattr(packet, name, out[i])
        if self.message_writes:
            values = msg_entry.values
            for i, name in self.message_writes:
                values[name] = out[i]
        for i, name in self.global_writes:
            self.global_store.commit_scalar(name, out[i])
        for i, name in self.array_writes:
            self.global_store.commit_array(name, result.arrays[i])
        stats = result.stats
        fn_stats = self.stats
        fn_stats.invocations += 1
        fn_stats.ops_executed += stats.ops_executed
        stack_bytes = stats.max_operand_stack * WORD_BYTES
        if stack_bytes > fn_stats.max_stack_bytes:
            fn_stats.max_stack_bytes = stack_bytes
        heap_bytes = stats.heap_words * WORD_BYTES
        if heap_bytes > fn_stats.max_heap_bytes:
            fn_stats.max_heap_bytes = heap_bytes
        return stats.ops_executed


@dataclass(frozen=True)
class MatchRule:
    """One match-action entry: a class-name pattern and an action.

    Patterns are exact class names or prefix wildcards such as
    ``memcached.r1.*`` (``*`` alone matches everything).
    ``next_table`` optionally chains processing to another table after
    the action runs (Section 3.4.2: an action can send the packet "to a
    specific match-action table").
    """

    rule_id: int
    pattern: str
    function: str
    priority: int = 0
    next_table: Optional[int] = None

    def matches(self, class_name: str) -> bool:
        if self.pattern == "*":
            return True
        if self.pattern.endswith(".*"):
            return class_name.startswith(self.pattern[:-1])
        return class_name == self.pattern


#: Lookup results memoized per class-name tuple; bounded so a hostile
#: stage churning class names cannot grow the cache without limit.
_LOOKUP_CACHE_LIMIT = 1024
_MISS = object()


class MatchActionTable:
    """An ordered set of :class:`MatchRule`, highest priority first.

    Lookups are memoized per class-name tuple — packets of one flow
    carry the same classes, so the per-packet cost collapses to one
    dict probe.  ``add``/``remove`` invalidate the cache.
    """

    def __init__(self, table_id: int) -> None:
        self.table_id = table_id
        self._rules: List[MatchRule] = []
        self._lookup_cache: Dict[Tuple[str, ...],
                                 Optional[Tuple[MatchRule, str]]] = {}

    def add(self, rule: MatchRule) -> None:
        self._rules.append(rule)
        self._rules.sort(key=lambda r: (-r.priority, r.rule_id))
        self._lookup_cache.clear()

    def remove(self, rule_id: int) -> None:
        before = len(self._rules)
        self._rules = [r for r in self._rules if r.rule_id != rule_id]
        if len(self._rules) == before:
            raise UnknownIdError(
                f"table {self.table_id}: no rule with id {rule_id} "
                f"(known: {sorted(r.rule_id for r in self._rules)})")
        self._lookup_cache.clear()

    def _scan(self, class_names: Sequence[str]
              ) -> Optional[Tuple[MatchRule, str]]:
        """The un-memoized rule scan behind :meth:`lookup`."""
        for rule in self._rules:
            for cname in class_names:
                if rule.matches(cname):
                    return (rule, cname)
        return None

    def lookup(self, class_names: Sequence[str]
               ) -> Optional[Tuple[MatchRule, str]]:
        """First rule (by priority) matching any of the packet's
        classes; returns (rule, matched class name)."""
        key = tuple(class_names)
        hit = self._lookup_cache.get(key, _MISS)
        if hit is not _MISS:
            return hit
        found = self._scan(key)
        if len(self._lookup_cache) >= _LOOKUP_CACHE_LIMIT:
            self._lookup_cache.clear()
        self._lookup_cache[key] = found
        return found

    def rules(self) -> List[MatchRule]:
        return list(self._rules)


def _slotted(cls):
    """``cls`` rebuilt with ``__slots__`` for its dataclass fields —
    what ``dataclass(slots=True)`` does on Python 3.10+.  The generated
    ``__init__`` keeps the defaults, ``__eq__`` and ``__repr__`` read
    the fields, ``dataclasses.fields`` still answers; an instance just
    has no ``__dict__`` to allocate."""
    names = tuple(f.name for f in fields(cls))
    ns = {k: v for k, v in vars(cls).items()
          if k not in names and k not in ("__dict__", "__weakref__")}
    ns["__slots__"] = names
    return type(cls)(cls.__name__, cls.__bases__, ns)


@_slotted
@dataclass
class ProcessResult:
    """Outcome of enclave processing for one packet.

    ``error`` is always None; it stays because callers outside the
    package read it.  One is built per packet, so the class carries
    ``__slots__`` (:func:`_slotted`).
    """

    executed: List[str]                 # action functions run, in order
    matched_classes: List[str]
    drop: bool = False
    to_controller: bool = False
    faults: int = 0
    interpreter_ops: int = 0            # bytecode ops across actions
    error: Optional[BaseException] = None


_new_result = ProcessResult.__new__


#: Placements supported by the prototype (Section 4.3): a Windows
#: network-filter-driver enclave and a Netronome programmable-NIC
#: enclave.  The per-packet base cost models where the enclave sits.
PLACEMENT_OS = "os"
PLACEMENT_NIC = "nic"
_PLACEMENT_BASE_COST_NS = {PLACEMENT_OS: 500, PLACEMENT_NIC: 120}

#: Class name of the enclave's own flow-granularity classification
#: (appended to every packet; paper Table 2, last row).
_FLOW_CLASS = "enclave.flows.default"
_FLOW_KEY = (_FLOW_CLASS,)


class Enclave:
    """The per-host Eden enclave.

    The controller programs it through the *enclave API*: installing
    action functions (:meth:`install_function`), match-action rules
    (:meth:`install_rule`), and global state
    (:meth:`set_global`/:meth:`set_global_array`/...).  The host network
    stack drives the data path through :meth:`process_packet`.
    """

    MAX_TABLE_HOPS = 8

    def __init__(self, name: str = "enclave",
                 placement: str = PLACEMENT_OS,
                 packet_schema: Schema = DEFAULT_PACKET_SCHEMA,
                 rng: Optional[random.Random] = None,
                 clock: Optional[Callable[[], int]] = None,
                 accounting: Optional[CpuAccounting] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        if placement not in _PLACEMENT_BASE_COST_NS:
            raise EnclaveError(f"unknown placement {placement!r}")
        self.name = name
        self.placement = placement
        self.per_packet_base_cost_ns = _PLACEMENT_BASE_COST_NS[placement]
        self.packet_schema = packet_schema
        self.rng = rng if rng is not None else random.Random(1)
        self.clock = clock if clock is not None else (lambda: 0)
        self.accounting = accounting or CpuAccounting(enabled=False)
        self.telemetry = (telemetry if telemetry is not None
                          else NULL_TELEMETRY)
        self.interpreter = Interpreter(rng=self.rng, clock=self.clock)
        self._functions: Dict[str, InstalledFunction] = {}
        self._tables: Dict[int, MatchActionTable] = {
            0: MatchActionTable(0)}
        self._next_rule_id = itertools.count(1)
        self.packets_processed = 0
        self.packets_dropped = 0
        #: Bumped by every cold-path change :meth:`stats_summary` can
        #: show: a function installed, replaced or removed, a message
        #: ended or expired, a factory reset.  With
        #: ``packets_processed`` it tells in O(1) whether the summary
        #: may have changed.
        self.generation = 0
        #: One-shot: called with no arguments, then cleared, at the
        #: next generation bump or the next packet processed.  A
        #: control agent arms it to sleep until its enclave changes;
        #: the data path pays one ``is not None`` test for it.
        self.on_change: Optional[Callable[[], None]] = None
        # stats_summary's memo and the key it was built at.
        self._summary_key: Optional[Tuple[int, int]] = None
        self._summary: Dict[str, Dict[str, int]] = {}
        # Instruments are bound once here; the data path touches them
        # (and opens spans) only behind the one _tracing test.
        registry = self.telemetry.registry
        self._m_packets = registry.counter("enclave_packets_total",
                                           enclave=name)
        self._m_drops = registry.counter("enclave_drops_total",
                                         enclave=name)
        self._m_faults = registry.counter("enclave_faults_total",
                                          enclave=name)
        self._m_lookups = registry.counter("enclave_lookups_total",
                                           enclave=name)
        self._m_lookup_hits = registry.counter(
            "enclave_lookup_hits_total", enclave=name)
        self._m_invocations = registry.counter(
            "enclave_invocations_total", enclave=name)
        self._h_packet_ops = registry.histogram(
            "enclave_packet_ops", enclave=name)
        self._h_batch_size = registry.histogram(
            "enclave_batch_size", enclave=name)
        self._tracing = self.telemetry.enabled
        # The enclave is itself a stage that classifies at the
        # granularity of flows (last row of paper Table 2).
        self.flow_stage = Stage(
            "enclave",
            classifier_fields=("src_ip", "src_port", "dst_ip",
                               "dst_port", "proto"),
            metadata_fields=("msg_id",),
            telemetry=telemetry)

    # -- enclave API: functions ---------------------------------------------

    def install_function(self,
                         action: Union[CompiledAction, Callable, str],
                         name: Optional[str] = None,
                         message_schema: Optional[Schema] = None,
                         global_schema: Optional[Schema] = None,
                         backend: str = "interpreter",
                         optimize_tail_calls: bool = True,
                         commit_packet_writes: bool = True
                         ) -> InstalledFunction:
        """Verify and install an action function.

        ``action`` is the :class:`~repro.lang.compiler.CompiledAction`
        the control plane ships, which carries its own schemas and
        compile options; or action source, compiled here
        (:func:`~repro.lang.compiler.compile_shared`) against this
        enclave's packet schema with the schemas and option given.
        Either way the same verify-and-bind follows (:meth:`_bind`).
        """
        if isinstance(action, CompiledAction):
            if message_schema is not None or global_schema is not None:
                raise EnclaveError(
                    "a compiled action carries its own schemas")
        else:
            action = compile_shared(
                action, packet_schema=self.packet_schema,
                message_schema=message_schema,
                global_schema=global_schema,
                name=name or getattr(action, "__name__", "action"),
                optimize_tail_calls=optimize_tail_calls)
        name = name or action.name
        if name in self._functions:
            raise EnclaveError(f"function {name!r} already installed")
        installed = self._bind(name, action, backend,
                               commit_packet_writes)
        self._functions[name] = installed
        self._changed()
        return installed

    def _bind(self, name: str, action: CompiledAction, backend: str,
              commit_packet_writes: bool) -> InstalledFunction:
        """Verify ``action`` for this enclave and bind it: the one path
        every install and replace takes.  Nothing of the enclave
        changes until it returns."""
        if not _same(action.packet_schema, self.packet_schema):
            raise EnclaveError(
                f"function {name!r} was compiled against another "
                f"packet schema than this enclave's")
        fn = InstalledFunction(
            name=name, action=action, backend=backend,
            interpreter=self.interpreter,
            commit_packet_writes=commit_packet_writes)
        if self._tracing:
            registry = self.telemetry.registry
            fn.meters = (
                registry.counter("interp_invocations_total",
                                 dispatch=fn.dispatch),
                registry.counter("interp_faults_total",
                                 dispatch=fn.dispatch),
                registry.histogram("interp_ops_per_invocation",
                                   dispatch=fn.dispatch))
        return fn

    def _changed(self) -> None:
        """Bump :attr:`generation` and fire :attr:`on_change`."""
        self.generation += 1
        if self.on_change is not None:
            self._fire_on_change()

    def _fire_on_change(self) -> None:
        callback, self.on_change = self.on_change, None
        callback()

    def clear(self) -> None:
        """Factory-reset the data plane (models an enclave restart).

        Installed functions, tables, rules (the enclave stage's flow
        rules too) and counters — all soft state — are lost; the
        control plane is expected to replay the desired state
        afterwards (:mod:`repro.control`).  Rule ids keep counting up
        so ids are never reused across restarts.
        """
        self._functions = {}
        self._tables = {0: MatchActionTable(0)}
        for rule in self.flow_stage.rules():
            self.flow_stage.remove_stage_rule(rule.rule_set, rule.rule_id)
        self.packets_processed = 0
        self.packets_dropped = 0
        self._changed()

    def remove_function(self, name: str) -> None:
        if name not in self._functions:
            raise EnclaveError(f"no function {name!r}")
        for table in self._tables.values():
            for rule in table.rules():
                if rule.function == name:
                    raise EnclaveError(
                        f"function {name!r} still referenced by rule "
                        f"{rule.rule_id} in table {table.table_id}")
        del self._functions[name]
        self._changed()

    def restore_function(self, name: str,
                         installed: Optional[InstalledFunction]) -> None:
        """Put ``installed``, a binding :meth:`function` returned
        earlier, back as ``name`` with the program, state and stats it
        has; with ``None``, drop ``name``.  Nothing is checked: this is
        how a control agent undoes the installs, replaces and removes
        of a batch it refused, after undoing the batch's rules."""
        if installed is None:
            self._functions.pop(name, None)
        else:
            self._functions[name] = installed
        self._changed()

    def function(self, name: str) -> InstalledFunction:
        try:
            return self._functions[name]
        except KeyError:
            raise EnclaveError(f"no function {name!r}") from None

    def functions(self) -> List[str]:
        return sorted(self._functions)

    # -- enclave API: tables and rules -----------------------------------

    def create_table(self, table_id: int) -> MatchActionTable:
        if table_id in self._tables:
            raise EnclaveError(f"table {table_id} already exists")
        table = MatchActionTable(table_id)
        self._tables[table_id] = table
        return table

    def delete_table(self, table_id: int) -> None:
        if table_id == 0:
            raise EnclaveError("table 0 cannot be deleted")
        if table_id not in self._tables:
            raise UnknownIdError(
                f"no table with id {table_id} "
                f"(known: {sorted(self._tables)})")
        for table in self._tables.values():
            if table.table_id == table_id:
                continue
            for rule in table.rules():
                if rule.next_table == table_id:
                    raise EnclaveError(
                        f"table {table_id} still referenced as next "
                        f"table by rule {rule.rule_id} in table "
                        f"{table.table_id}")
        del self._tables[table_id]

    def table(self, table_id: int) -> MatchActionTable:
        try:
            return self._tables[table_id]
        except KeyError:
            raise UnknownIdError(
                f"no table with id {table_id} "
                f"(known: {sorted(self._tables)})") from None

    def install_rule(self, pattern: str, function: str,
                     table_id: int = 0, priority: int = 0,
                     next_table: Optional[int] = None) -> int:
        """Install ``<match on class name> -> f(pkt, ...)`` (Table 4)."""
        if function not in self._functions:
            raise EnclaveError(
                f"cannot install rule for unknown function "
                f"{function!r}")
        if next_table is not None and next_table not in self._tables:
            raise EnclaveError(f"next table {next_table} does not exist")
        rule_id = next(self._next_rule_id)
        self.table(table_id).add(MatchRule(
            rule_id=rule_id, pattern=pattern, function=function,
            priority=priority, next_table=next_table))
        return rule_id

    def remove_rule(self, rule_id: int, table_id: int = 0) -> None:
        self.table(table_id).remove(rule_id)

    # -- enclave API: global state ------------------------------------------

    def _global_store(self, function: str) -> GlobalStore:
        store = self.function(function).global_store
        if store is None:
            raise EnclaveError(
                f"function {function!r} has no global schema")
        return store

    def set_global(self, function: str, name: str, value: int) -> None:
        self._global_store(function).set_scalar(name, value)

    def set_global_array(self, function: str, name: str,
                         values: Sequence[int]) -> None:
        self._global_store(function).set_array(name, values)

    def set_global_records(self, function: str, name: str,
                           records: Iterable[Sequence[int]]) -> None:
        self._global_store(function).set_records(name, records)

    def set_global_keyed(self, function: str, name: str, key: tuple,
                         values: Sequence[int]) -> None:
        self._global_store(function).set_keyed_array(name, key, values)

    def query_global(self, function: str) -> Dict[str, object]:
        return self._global_store(function).snapshot()

    # -- data path -------------------------------------------------------

    def process_packet(self, packet,
                       classifications: Sequence[Classification] = (),
                       now_ns: Optional[int] = None) -> ProcessResult:
        """Run the packet through the match-action pipeline.

        ``packet`` is any object exposing the packet-schema fields as
        attributes.  ``classifications`` carries the class/metadata
        annotations the packet's message received from stages; the
        enclave always appends its own flow-granularity class so
        functions that need no application support still apply
        (e.g. PIAS over unmodified applications).
        """
        if self.on_change is not None:
            self._fire_on_change()
        now = now_ns if now_ns is not None else self.clock()
        key = self._class_key(packet, classifications)
        if not self._tracing:
            result = self._process_one(packet, classifications, key,
                                       now)
        else:
            with self.telemetry.tracer.span(
                    "enclave.process", enclave=self.name,
                    packet_id=getattr(packet, "packet_id", None),
                    flow_id=getattr(packet, "five_tuple", None)
                    ) as span:
                result = self._process_one(packet, classifications,
                                           key, now)
                span.set(executed=len(result.executed),
                         drop=result.drop)
            self._m_packets.inc()
            self._h_packet_ops.observe(result.interpreter_ops)
            if result.drop:
                self._m_drops.inc()
        self.packets_processed += 1
        if result.drop:
            self.packets_dropped += 1
        return result

    def process_batch(self, packets_with_cls: Sequence[Tuple],
                      now_ns: Optional[int] = None
                      ) -> List[ProcessResult]:
        """Process a batch of ``(packet, classifications)`` pairs.

        Section 6: "action functions ... can be extended to allow for
        computation over a batch of packets.  If the batch contains
        packets from multiple messages, the enclave will have to
        pre-process it and split it into messages."

        Batching is an *optimization, never a semantic*: every packet
        takes the same per-packet step as :meth:`process_packet`, in
        arrival order, so results, packet writes, message/global
        state, function stats and RNG consumption are those of the
        scalar calls (``tests/lang/test_differential.py`` enforces
        it).  What a batch saves is around the step: one class key per
        classification list, one clock read and one counter update
        per batch.
        """
        entries = list(packets_with_cls)
        if not entries:
            return []
        if self.on_change is not None:
            self._fire_on_change()
        now = now_ns if now_ns is not None else self.clock()
        # Without enclave-stage rules the key depends only on the
        # classification list, so a batch reusing one list object (the
        # common TX case) builds it once — ``entries`` keeps the lists
        # alive, making id() stable.
        key_per_list = not self.flow_stage.has_rules()
        key_of_list: Dict[int, Tuple[str, ...]] = {}
        step = self._process_one
        results: List[ProcessResult] = []
        drops = 0
        with self.telemetry.tracer.span("enclave.process_batch",
                                        enclave=self.name) as span:
            for packet, cls in entries:
                key = key_of_list.get(id(cls)) if key_per_list else None
                if key is None:
                    key = key_of_list[id(cls)] = self._class_key(
                        packet, cls)
                result = step(packet, cls, key, now)
                if result.drop:
                    drops += 1
                results.append(result)
            span.set(size=len(entries), drops=drops)
        self.packets_processed += len(entries)
        self.packets_dropped += drops
        if self._tracing:
            self._h_batch_size.observe(len(entries))
            self._m_packets.inc(len(entries))
            if drops:
                self._m_drops.inc(drops)
            for result in results:
                self._h_packet_ops.observe(result.interpreter_ops)
        return results

    def _class_key(self, packet, classifications
                   ) -> Tuple[str, ...]:
        """The class names the tables match on: the stages' classes,
        those of the enclave's own stage rules, then the flow class
        every packet carries (paper Table 2, last row).

        Built once per packet, so the common shapes — no enclave stage
        rules and one stage class, or none — take no list and no call;
        ``flow_stage._rules`` is :meth:`Stage.has_rules` inlined.
        """
        stage_rules = self.flow_stage._rules
        if not stage_rules:
            if len(classifications) == 1:
                return (classifications[0].class_name, _FLOW_CLASS)
            if not classifications:
                return _FLOW_KEY
        names = [c.class_name for c in classifications]
        if stage_rules:
            names += self._enclave_stage_classes(packet)
        names.append(_FLOW_CLASS)
        return tuple(names)

    def _process_one(self, packet,
                     classifications: Sequence[Classification],
                     key: Tuple[str, ...], now: int) -> ProcessResult:
        """The per-packet envelope, the only place a function runs.

        Per table hop: lookup -> message-state lookup ->
        ``fn.run_packet`` (state read, body, write-back, function
        stats) -> fault accounting -> ``next_table``.  A fault ends
        only its own hop; the chain goes on.
        """
        tracing = self._tracing
        acct = self.accounting
        if acct.enabled:
            acct.mark()
        else:
            acct = None
        executed: List[str] = []
        matched_classes: List[str] = []
        faults = ops = 0
        # Derived on the first hop with message state, once per packet.
        msg_id: Optional[object] = None

        table_id = 0
        hops = self.MAX_TABLE_HOPS
        while hops > 0:
            hops -= 1
            if tracing:
                with self.telemetry.tracer.span(
                        "enclave.lookup", enclave=self.name,
                        table=table_id,
                        packet_id=getattr(packet, "packet_id", None)
                        ) as lspan:
                    hit = self._tables[table_id].lookup(key)
                    lspan.set(hit=hit is not None)
                self._m_lookups.inc()
                if hit is not None:
                    self._m_lookup_hits.inc()
            else:
                hit = self._tables[table_id].lookup(key)
            if hit is None:
                break
            rule, matched = hit
            matched_classes.append(matched)
            fn = self._functions[rule.function]
            store = fn.message_store
            msg_entry = None
            if store is not None:
                if msg_id is None:
                    msg_id = _message_id(packet, classifications)
                msg_entry, created = store.lookup(msg_id, now)
                if created and classifications:
                    store.seed(msg_entry, _int_metadata(classifications))
            try:
                if tracing:
                    ops += self._traced_run(fn, packet, msg_entry, acct)
                else:
                    ops += fn.run_packet(packet, msg_entry, acct)
            except InterpreterFault:
                # Section 3.4.3: a faulty function terminates its own
                # execution without affecting the rest of the system —
                # the packet is forwarded unmodified and the chain
                # continues.
                fn.stats.faults += 1
                faults += 1
                if tracing:
                    self._m_faults.inc()
            else:
                executed.append(fn.name)
                if tracing:
                    self._m_invocations.inc()
            table_id = rule.next_table
            if table_id is None:
                break
        if acct is not None:
            acct.lap("enclave")
        # ``ProcessResult(...)`` without the class call, which Python
        # 3.11 routes through a C trampoline into ``__init__``; every
        # field is set here.
        result = _new_result(ProcessResult)
        result.executed = executed
        result.matched_classes = matched_classes
        result.drop = True if getattr(packet, "drop", 0) else False
        result.to_controller = \
            True if getattr(packet, "to_controller", 0) else False
        result.faults = faults
        result.interpreter_ops = ops
        result.error = None
        return result

    def _traced_run(self, fn: InstalledFunction, packet, msg_entry,
                    acct) -> int:
        """``fn.run_packet`` inside an ``interpreter.execute`` span, with
        the function's per-hop instruments (:meth:`_bind`): the same
        run, plan or generic tier, as with telemetry off."""
        invocations, faults, ops_per_invocation = fn.meters
        with self.telemetry.tracer.span(
                "interpreter.execute", program=fn.program.name,
                dispatch=fn.dispatch) as span:
            invocations.inc()
            try:
                ops = fn.run_packet(packet, msg_entry, acct)
            except InterpreterFault as fault:
                faults.inc()
                span.set(fault=fault.reason)
                raise
            ops_per_invocation.observe(ops)
            span.set(ops=ops)
        return ops

    def replace_function(self, name: str,
                         action: Union[CompiledAction, Callable, str],
                         backend: Optional[str] = None,
                         optimize_tail_calls: bool = True) -> \
            InstalledFunction:
        """Hot-swap an action function's program, keeping its state.

        This is the dynamic update the interpreter design buys
        (Section 3.4.3: functions "can be updated dynamically by the
        controller without affecting forwarding performance"): the new
        program is verified and bound off the data path, then swapped
        in atomically; the authoritative message and global stores —
        and the match-action rules referencing the function — survive
        the swap.  The new program must use the same schemas: source
        is compiled against the installed function's, a compiled
        action must carry equal ones.
        """
        old = self.function(name)
        if isinstance(action, CompiledAction):
            if not (_same(action.message_schema, old.message_schema) and
                    _same(action.global_schema, old.global_schema)):
                raise EnclaveError(
                    f"a replacement for {name!r} must keep its message "
                    f"and global schemas")
        else:
            action = compile_shared(
                action, packet_schema=self.packet_schema,
                message_schema=old.message_schema,
                global_schema=old.global_schema, name=name,
                optimize_tail_calls=optimize_tail_calls)
        replacement = self._bind(
            name, action,
            backend if backend is not None else old.backend,
            old.commit_packet_writes)
        # Carry the authoritative state over.
        replacement.global_store = old.global_store
        replacement.message_store = old.message_store
        self._functions[name] = replacement
        self._changed()
        return replacement

    def query_rules(self, table_id: int = 0) -> List[MatchRule]:
        """Enclave API: the rules of one match-action table."""
        return self.table(table_id).rules()

    def query_tables(self) -> List[int]:
        """Enclave API: the ids of all match-action tables."""
        return sorted(self._tables)

    def stats_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-function counters for controller monitoring.

        Built once per ``(generation, packets_processed)``, the key
        that moves whenever the summary may have, and shared until it
        moves: every caller gets the same mapping, and none may mutate
        it.  The agent puts it in its reports, the controller's
        ``collect_stats`` hands it out, gates and tests read it.
        """
        key = (self.generation, self.packets_processed)
        if key == self._summary_key:
            return self._summary
        out: Dict[str, Dict[str, int]] = {}
        for name, fn in self._functions.items():
            out[name] = {
                "invocations": fn.stats.invocations,
                "faults": fn.stats.faults,
                "ops_executed": fn.stats.ops_executed,
                "max_stack_bytes": fn.stats.max_stack_bytes,
                "max_heap_bytes": fn.stats.max_heap_bytes,
                "messages_tracked": (len(fn.message_store)
                                     if fn.message_store is not None
                                     else 0),
            }
        self._summary_key = key
        self._summary = out
        return out

    def end_message(self, function: str, msg_key: object) -> None:
        """Notify the enclave that a message ended (e.g. flow FIN)."""
        store = self.function(function).message_store
        if store is not None:
            store.end_message(msg_key)
            self._changed()

    def expire_idle_messages(self, now_ns: int) -> int:
        total = 0
        for fn in self._functions.values():
            if fn.message_store is not None:
                total += fn.message_store.expire_idle(now_ns)
        if total:
            self._changed()
        return total

    # -- the enclave's own stage -------------------------------------------

    def _enclave_stage_classes(self, packet) -> List[str]:
        """Class names from the enclave's own stage rules.

        Paper Table 2, last row: the enclave classifies on
        ``<src_ip, src_port, dst_ip, dst_port, proto>`` — "when
        classification is done at the granularity of TCP flows, each
        transport connection is a message", so the message id is the
        five-tuple (:func:`_message_id`).  The controller installs
        rules with :meth:`install_flow_rule`.
        """
        attrs = {name: getattr(packet, name, 0)
                 for name in self.flow_stage.classifier_fields}
        return [c.class_name for c in self.flow_stage.classify(
            attrs, msg_id=tuple(attrs.values()))]

    def install_flow_rule(self, rule_set: str, classifier,
                          class_name: str) -> int:
        """Controller API: a header classification rule at the
        enclave's own stage (Table 2, last row)."""
        return self.flow_stage.create_stage_rule(
            rule_set, classifier, class_name, ["msg_id"])


def _same(a: Optional[Schema], b: Optional[Schema]) -> bool:
    return a is b or a == b


def _unread(pkt, msg) -> int:
    """The generic tier's reader of a slot the body never reads before
    writing it: the value is never seen."""
    return 0


def _word_reader(read: Callable, scope: str, name: str,
                 program: str) -> Callable:
    """``read`` with the generic tier's conversion: an exact in-range
    ``int`` as is, anything else through :func:`state_word`."""
    def reader(pkt, msg):
        value = read(pkt, msg)
        if value.__class__ is int and INT_MIN <= value <= INT_MAX:
            return value
        return state_word(value, scope, name, program)
    return reader


def _message_id(packet,
                classifications: Sequence[Classification]) -> object:
    """The packet's message: the first id a stage attached, else its
    flow (five-tuple) — the enclave's own classification."""
    for cls in classifications:
        msg_id = cls.message_id
        if msg_id is not None:
            return msg_id
    return ("enclave", (getattr(packet, "src_ip", 0),
                        getattr(packet, "src_port", 0),
                        getattr(packet, "dst_ip", 0),
                        getattr(packet, "dst_port", 0),
                        getattr(packet, "proto", 0)))


def _int_metadata(classifications: Sequence[Classification]
                  ) -> Dict[str, int]:
    """Stage metadata that can seed message state: the integer values,
    later classifications overriding earlier ones."""
    merged: Dict[str, object] = {}
    for cls in classifications:
        merged.update(cls.metadata)
    return {k: v for k, v in merged.items()
            if isinstance(v, int) and not isinstance(v, bool)}
