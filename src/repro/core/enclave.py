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
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..lang import ast_nodes as T
from ..lang import backends as lang_backends
from ..lang.annotations import (DEFAULT_PACKET_SCHEMA,
                                Field, Schema)
from ..lang.bytecode import Program
from ..lang.compiler import compile_action
from ..lang.interpreter import (ExecResult, Interpreter,
                                InterpreterFault)
from ..lang.native import NativeFunction
from ..lang.verifier import verify
from ..telemetry import NULL_TELEMETRY, Telemetry
from .accounting import CpuAccounting
from .stage import Classification, Stage
from .state import (ConcurrencyLevel, GlobalStore, MessageStore,
                    StateError, concurrency_of)


class EnclaveError(Exception):
    """A controller request to the enclave was invalid."""


class ConcurrencyViolation(EnclaveError):
    """The enclave's concurrency model would be violated."""


class UnknownIdError(EnclaveError, KeyError):
    """A rule or table id named in an enclave API call does not exist.

    Subclasses both :class:`EnclaveError` (so existing controller
    error handling keeps working) and :class:`KeyError` (it is a
    failed id lookup); the message always names the missing id.
    """

    def __str__(self) -> str:
        # KeyError.__str__ reprs its argument; keep the message plain.
        return self.args[0] if self.args else ""


class ConcurrencyGuard:
    """Enforces the admissible parallelism of Section 3.4.4.

    ``PARALLEL`` functions admit any number of in-flight invocations;
    ``PER_MESSAGE`` at most one per message key; ``SERIAL`` one total.
    The simulator is single-threaded, so in normal operation acquire and
    release bracket each invocation without contention — but the guard
    is real, and the test suite exercises it with overlapping holds.
    """

    def __init__(self, level: ConcurrencyLevel) -> None:
        self.level = level
        self._in_flight_total = 0
        self._in_flight_msgs: Dict[object, int] = {}

    def acquire(self, msg_key: object) -> None:
        if self.level is ConcurrencyLevel.SERIAL and \
                self._in_flight_total > 0:
            raise ConcurrencyViolation(
                f"function writes global state: only one invocation "
                f"may run at a time (message {msg_key!r} must wait)")
        if self.level is ConcurrencyLevel.PER_MESSAGE and \
                self._in_flight_msgs.get(msg_key, 0) > 0:
            raise ConcurrencyViolation(
                f"function writes message state: message {msg_key!r} "
                f"already has an invocation in flight")
        self._in_flight_total += 1
        self._in_flight_msgs[msg_key] = \
            self._in_flight_msgs.get(msg_key, 0) + 1

    def release(self, msg_key: object) -> None:
        held = self._in_flight_msgs.get(msg_key, 0)
        if held <= 0:
            raise ConcurrencyViolation(
                f"release without matching acquire for message "
                f"{msg_key!r}")
        self._in_flight_total -= 1
        if held == 1:
            del self._in_flight_msgs[msg_key]
        else:
            self._in_flight_msgs[msg_key] = held - 1


@dataclass
class FunctionStats:
    invocations: int = 0
    faults: int = 0
    ops_executed: int = 0
    max_stack_bytes: int = 0
    max_heap_bytes: int = 0


class InstalledFunction:
    """An action function installed in an enclave.

    ``backend`` selects how invocations execute: ``"interpreter"``
    runs on the enclave's shared :class:`Interpreter` with whatever
    dispatch it was configured with, while any name from the
    :mod:`repro.lang.backends` registry (``tree``, ``pycodegen``,
    ``native``) pins this function to that execution backend
    regardless of the interpreter default.  The authoritative
    message/global state lives here.
    """

    def __init__(self, name: str, source_fn: Union[Callable, str],
                 packet_schema: Schema,
                 message_schema: Optional[Schema],
                 global_schema: Optional[Schema],
                 backend: str,
                 interpreter: Interpreter,
                 rng: random.Random,
                 clock: Callable[[], int],
                 optimize_tail_calls: bool = True,
                 commit_packet_writes: bool = True) -> None:
        if backend == "interpreter" or backend == "native":
            self._exec_backend = None
        else:
            try:
                self._exec_backend = lang_backends.get(backend)
            except KeyError:
                raise EnclaveError(
                    f"unknown backend {backend!r}; use 'interpreter' "
                    f"or one of the registered execution backends: "
                    f"{', '.join(lang_backends.names())}") from None
        if message_schema is not None and \
                any(f.is_array for f in message_schema.fields):
            raise EnclaveError(
                "message schemas must contain only scalar fields")
        self.name = name
        self.backend = backend
        # False implements the paper's "baseline EDEN" configuration
        # (Section 5.1): classification and the data-plane function
        # run, but the interpreter's packet outputs are ignored before
        # transmission.
        self.commit_packet_writes = commit_packet_writes
        self.packet_schema = packet_schema
        self.message_schema = message_schema
        self.global_schema = global_schema
        self.prog_ast, self.program = compile_action(
            source_fn, packet_schema=packet_schema,
            message_schema=message_schema, global_schema=global_schema,
            name=name, optimize_tail_calls=optimize_tail_calls)
        verify(self.program,
               max_operand_stack=interpreter.max_operand_stack)
        self.concurrency = concurrency_of(self.prog_ast)
        self.guard = ConcurrencyGuard(self.concurrency)
        self.interpreter = interpreter
        # Only the native backend ever runs the AST-level compilation.
        self.native = (NativeFunction(self.prog_ast, self.program,
                                      rng=rng, clock=clock)
                       if backend == "native" else None)
        self.global_store = (GlobalStore(global_schema)
                             if global_schema is not None else None)
        self.message_store = (MessageStore(message_schema)
                              if message_schema is not None else None)
        self.stats = FunctionStats()
        self._build_hot_path()

    def _build_hot_path(self) -> None:
        """Precompute the per-packet state prep and commit plans.

        The enclave data path used to re-decide, per packet and per
        field-table slot, which scope a value comes from and whether it
        is writable.  All of that is known at install time, so we bind
        one reader closure per slot and split the writable slots by
        scope for the commit loop.  Readers dereference
        ``self.global_store`` at call time (not at build time) so
        :meth:`Enclave.replace_function` can carry stores over after
        construction.
        """
        readers: List[Callable] = []
        for ref in self.program.field_table:
            if ref.scope == "packet":
                f = self.packet_schema.field_named(ref.name)
                if f.binder is not None:
                    readers.append(
                        lambda pkt, msg, _b=f.binder: int(_b(pkt, None)))
                else:
                    readers.append(
                        lambda pkt, msg, _n=ref.name, _d=f.default:
                        int(getattr(pkt, _n, _d)))
            elif ref.scope == "message":
                readers.append(
                    lambda pkt, msg, _n=ref.name: msg.values[_n])
            else:
                f = self.global_schema.field_named(ref.name)
                if f.binder is not None:
                    readers.append(
                        lambda pkt, msg, _b=f.binder, _fn=self:
                        int(_b(pkt, _fn.global_store)))
                else:
                    readers.append(
                        lambda pkt, msg, _n=ref.name, _fn=self:
                        _fn.global_store.scalar(_n))
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

        # Preallocated per-packet buffers; both backends copy their
        # inputs before mutating, so reuse across invocations is safe.
        self._field_buf: List[int] = [0] * len(readers)
        self._array_buf: List[Sequence[int]] = [()] * len(array_readers)

        packet_writes: List[Tuple[int, str]] = []
        message_writes: List[Tuple[int, str]] = []
        global_writes: List[Tuple[int, str]] = []
        for i, ref in enumerate(self.program.field_table):
            if not ref.writable:
                continue
            if ref.scope == "packet":
                packet_writes.append((i, ref.name))
            elif ref.scope == "message":
                message_writes.append((i, ref.name))
            else:
                global_writes.append((i, ref.name))
        self._packet_writes = packet_writes
        self._message_writes = message_writes
        self._global_writes = global_writes
        self._array_writes = [
            (i, aref.name)
            for i, aref in enumerate(self.program.array_table)
            if aref.writable and aref.scope == "global"]
        # Lazily built backend batch executor (see Enclave._run_group);
        # replace_function swaps in a fresh InstalledFunction and
        # invalidates the old program's backend caches, so a stale
        # runner never outlives its program.
        self._batch_runner = None

    def execute(self, fields: Sequence[int],
                arrays: Sequence[Sequence[int]]) -> ExecResult:
        if self.backend == "native":
            return self.native.execute(fields, arrays)
        if self._exec_backend is not None:
            return self._exec_backend.execute(
                self.interpreter, self.program, fields, arrays)
        return self.interpreter.execute(self.program, fields, arrays)


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

    def lookup_batch(self, keys: Sequence[Tuple[str, ...]]
                     ) -> List[Optional[Tuple[MatchRule, str]]]:
        """Memoized lookup of many class-name key tuples in one pass.

        Semantically identical to ``[self.lookup(k) for k in keys]``
        (same memo cache, same eviction), but written as the batch
        data path's single vectorized pass: a rule-homogeneous batch
        costs one dict probe per packet and at most one rule scan.
        """
        cache = self._lookup_cache
        out: List[Optional[Tuple[MatchRule, str]]] = []
        for key in keys:
            hit = cache.get(key, _MISS)
            if hit is _MISS:
                hit = self._scan(key)
                if len(cache) >= _LOOKUP_CACHE_LIMIT:
                    cache.clear()
                cache[key] = hit
            out.append(hit)
        return out

    def rules(self) -> List[MatchRule]:
        return list(self._rules)


@dataclass
class ProcessResult:
    """Outcome of enclave processing for one packet.

    ``error`` is only ever set by :meth:`Enclave.process_batch`: where
    the scalar path raises :class:`ConcurrencyViolation` out of
    :meth:`Enclave.process_packet`, the batch path isolates the
    violation to the offending packet (the rest of the batch still
    processes) and parks the exception here.
    """

    executed: List[str]                 # action functions run, in order
    matched_classes: List[str]
    drop: bool = False
    to_controller: bool = False
    faults: int = 0
    interpreter_ops: int = 0            # bytecode ops across actions
    error: Optional[BaseException] = None


#: Placements supported by the prototype (Section 4.3): a Windows
#: network-filter-driver enclave and a Netronome programmable-NIC
#: enclave.  The per-packet base cost models where the enclave sits.
PLACEMENT_OS = "os"
PLACEMENT_NIC = "nic"
_PLACEMENT_BASE_COST_NS = {PLACEMENT_OS: 500, PLACEMENT_NIC: 120}

#: Class name of the enclave's own flow-granularity classification
#: (appended to every packet; paper Table 2, last row).
_FLOW_CLASS = "enclave.flows.default"

#: Guard key used for the once-per-group acquisition of PARALLEL and
#: SERIAL concurrency guards in the batch path; a unique object so it
#: can never collide with a real message key.
_BATCH_GUARD_KEY = object()

#: Cached in InstalledFunction._batch_runner when the function's
#: execution backend answered make_batch_runner() with None (the
#: scalar path is already optimal), so the batch path asks only once.
_NO_BATCH_RUNNER = object()


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
                 interpreter: Optional[Interpreter] = None,
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
        self.interpreter = interpreter or Interpreter(
            rng=self.rng, clock=self.clock, telemetry=telemetry)
        if telemetry is not None and \
                getattr(self.interpreter, "telemetry", None) is None:
            self.interpreter.bind_telemetry(telemetry)
        self._functions: Dict[str, InstalledFunction] = {}
        self._tables: Dict[int, MatchActionTable] = {
            0: MatchActionTable(0)}
        self._next_rule_id = itertools.count(1)
        self.packets_processed = 0
        self.packets_dropped = 0
        # Instruments are bound once here; in the NULL_TELEMETRY case
        # they are shared no-ops, so the data path below needs no
        # enabled checks for counters (spans gate on _tracing because
        # they allocate).
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

    def install_function(self, source_fn: Union[Callable, str],
                         name: Optional[str] = None,
                         message_schema: Optional[Schema] = None,
                         global_schema: Optional[Schema] = None,
                         backend: str = "interpreter",
                         optimize_tail_calls: bool = True,
                         commit_packet_writes: bool = True
                         ) -> InstalledFunction:
        """Compile, verify, and install an action function."""
        installed = InstalledFunction(
            name=name or getattr(source_fn, "__name__", "action"),
            source_fn=source_fn,
            packet_schema=self.packet_schema,
            message_schema=message_schema,
            global_schema=global_schema,
            backend=backend,
            interpreter=self.interpreter,
            rng=self.rng,
            clock=self.clock,
            optimize_tail_calls=optimize_tail_calls,
            commit_packet_writes=commit_packet_writes)
        if installed.name in self._functions:
            raise EnclaveError(
                f"function {installed.name!r} already installed")
        self._functions[installed.name] = installed
        return installed

    def clear(self) -> None:
        """Factory-reset the data plane (models an enclave restart).

        Installed functions, tables, rules and counters — all soft
        state — are lost; the control plane is expected to replay the
        desired state afterwards (:mod:`repro.control`).  Rule ids
        keep counting up so ids are never reused across restarts.
        """
        self._functions = {}
        self._tables = {0: MatchActionTable(0)}
        self.packets_processed = 0
        self.packets_dropped = 0

    def remove_function(self, name: str) -> None:
        if name not in self._functions:
            raise EnclaveError(f"no function {name!r}")
        for table in self._tables.values():
            for rule in table.rules():
                if rule.function == name:
                    raise EnclaveError(
                        f"function {name!r} still referenced by rule "
                        f"{rule.rule_id} in table {table.table_id}")
        removed = self._functions.pop(name)
        # Drop every backend's compiled artifact for the removed
        # program so no cache (generated code, native closures) can
        # outlive the function that owned it.
        removed._batch_runner = None
        lang_backends.invalidate(removed.program)

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
        enclave always appends its own flow-granularity classification
        so functions that need no application support still apply
        (e.g. PIAS over unmodified applications).
        """
        if not self._tracing:
            return self._process_packet_impl(packet, classifications,
                                             now_ns)
        with self.telemetry.tracer.span(
                "enclave.process", enclave=self.name,
                packet_id=getattr(packet, "packet_id", None),
                flow_id=getattr(packet, "five_tuple", None)) as span:
            result = self._process_packet_impl(packet, classifications,
                                               now_ns)
            span.set(executed=len(result.executed), drop=result.drop)
        return result

    def _process_packet_impl(self, packet,
                             classifications: Sequence[Classification],
                             now_ns: Optional[int]) -> ProcessResult:
        now = now_ns if now_ns is not None else self.clock()
        t0 = self.accounting.now()
        flow_cls = self._flow_classification(packet)
        all_cls = (list(classifications) +
                   self._enclave_stage_classifications(packet) +
                   [flow_cls])
        class_names = [c.class_name for c in all_cls]
        metadata: Dict[str, object] = {}
        msg_id: Optional[object] = None
        for cls in classifications:
            metadata.update(cls.metadata)
            if msg_id is None and cls.message_id is not None:
                msg_id = cls.message_id
        if msg_id is None:
            msg_id = flow_cls.message_id

        result = ProcessResult(executed=[], matched_classes=[])
        table_id = 0
        hops = 0
        while table_id is not None and hops < self.MAX_TABLE_HOPS:
            hops += 1
            if self._tracing:
                with self.telemetry.tracer.span(
                        "enclave.lookup", enclave=self.name,
                        table=table_id,
                        packet_id=getattr(packet, "packet_id", None)
                        ) as lspan:
                    hit = self._tables[table_id].lookup(class_names)
                    lspan.set(hit=hit is not None)
            else:
                hit = self._tables[table_id].lookup(class_names)
            self._m_lookups.inc()
            if hit is None:
                break
            self._m_lookup_hits.inc()
            rule, matched = hit
            result.matched_classes.append(matched)
            fn = self._functions[rule.function]
            self.accounting.record("enclave",
                                   self.accounting.now() - t0)
            self._invoke(fn, packet, msg_id, metadata, now, result)
            t0 = self.accounting.now()
            table_id = rule.next_table
        self.accounting.record("enclave", self.accounting.now() - t0)

        self.packets_processed += 1
        self._m_packets.inc()
        self._h_packet_ops.observe(result.interpreter_ops)
        result.drop = bool(getattr(packet, "drop", 0))
        result.to_controller = bool(getattr(packet, "to_controller", 0))
        if result.drop:
            self.packets_dropped += 1
            self._m_drops.inc()
        return result

    def process_batch(self, packets_with_cls: Sequence[Tuple],
                      now_ns: Optional[int] = None
                      ) -> List[ProcessResult]:
        """Process a batch of ``(packet, classifications)`` pairs.

        Section 6: "action functions ... can be extended to allow for
        computation over a batch of packets.  If the batch contains
        packets from multiple messages, the enclave will have to
        pre-process it and split it into messages."

        Batching is an *optimization, never a semantic*: per-packet
        results, packet writes, message/global state and function
        stats are identical to calling :meth:`process_packet` on the
        same packets in the same order (the batch differential harness
        in ``tests/lang/test_differential.py`` enforces this).  The
        batch is grouped by the rule matched in table 0 via one
        memoized :meth:`MatchActionTable.lookup_batch` pass; each
        group then executes back-to-back so the reader closures,
        concurrency-guard acquisition and interpreter dispatch context
        are set up once per group instead of once per packet.  Groups
        run in first-arrival order with packet order preserved inside
        each group; a batch that mixes rules can therefore consume the
        shared enclave RNG in a different interleaving than strict
        arrival order — invisible unless two different functions both
        call ``rand``.

        The one divergence from the scalar path is deliberate: a
        packet whose invocation would raise
        :class:`ConcurrencyViolation` gets a :class:`ProcessResult`
        with ``error`` set while the rest of the batch still
        processes.  Results are returned in the original order.
        """
        entries = list(packets_with_cls)
        if not entries:
            return []
        now = now_ns if now_ns is not None else self.clock()
        if not self._tracing:
            return self._process_batch_impl(entries, now)
        with self.telemetry.tracer.span("enclave.process_batch",
                                        enclave=self.name) as span:
            results = self._process_batch_impl(entries, now)
            span.set(size=len(entries),
                     drops=sum(1 for r in results if r.drop))
        return results

    def _process_batch_impl(self, entries: List[Tuple],
                            now: int) -> List[ProcessResult]:
        self._h_batch_size.observe(len(entries))
        table0 = self._tables[0]
        stage_rules = bool(self.flow_stage._rule_sets)

        # One lookup key per packet, exactly the class-name tuple the
        # scalar path builds.  When the enclave's own stage has no
        # rules the key depends only on the classification list, so a
        # batch reusing one list object (the common TX case) computes
        # it once — entries keep the lists alive, making id() stable.
        keys: List[Tuple[str, ...]] = []
        if stage_rules:
            for packet, cls in entries:
                names = [c.class_name for c in cls]
                names += [c.class_name for c in
                          self._enclave_stage_classifications(packet)]
                names.append(_FLOW_CLASS)
                keys.append(tuple(names))
        else:
            key_of_list: Dict[int, Tuple[str, ...]] = {}
            for packet, cls in entries:
                key = key_of_list.get(id(cls))
                if key is None:
                    key = tuple([c.class_name for c in cls]
                                + [_FLOW_CLASS])
                    key_of_list[id(cls)] = key
                keys.append(key)

        hits = table0.lookup_batch(keys)

        # Group packet indexes by matched rule, first-arrival order.
        results: List[Optional[ProcessResult]] = [None] * len(entries)
        scalar_done = [False] * len(entries)
        groups: Dict[int, List[int]] = {}
        group_rule: Dict[int, MatchRule] = {}
        order: List[int] = []
        misses = 0
        for i, hit in enumerate(hits):
            if hit is None:
                misses += 1
                results[i] = ProcessResult(executed=[],
                                           matched_classes=[])
                continue
            rule = hit[0]
            bucket = groups.get(rule.rule_id)
            if bucket is None:
                groups[rule.rule_id] = bucket = []
                group_rule[rule.rule_id] = rule
                order.append(rule.rule_id)
            bucket.append(i)
        if misses:
            self._m_lookups.inc(misses)

        for rule_id in order:
            self._run_group(group_rule[rule_id], groups[rule_id],
                            entries, hits, results, scalar_done, now)

        # Finalize in arrival order, mirroring the scalar epilogue.
        # Counters are summed locally and added once — same final
        # values, one bump per batch instead of per packet.
        processed = 0
        drops = 0
        observe_ops = self._h_packet_ops.observe
        for i, (packet, _cls) in enumerate(entries):
            result = results[i]
            if scalar_done[i] or result.error is not None:
                continue
            processed += 1
            observe_ops(result.interpreter_ops)
            if getattr(packet, "drop", 0):
                result.drop = True
                drops += 1
            if getattr(packet, "to_controller", 0):
                result.to_controller = True
        self.packets_processed += processed
        self._m_packets.inc(processed)
        if drops:
            self.packets_dropped += drops
            self._m_drops.inc(drops)
        return results  # type: ignore[return-value]

    def _batch_msg_id(self, packet, classifications) -> object:
        """The message id the scalar path would derive for a packet."""
        for cls in classifications:
            msg_id = cls.message_id
            if msg_id is not None:
                return msg_id
        return ("enclave", (getattr(packet, "src_ip", 0),
                            getattr(packet, "src_port", 0),
                            getattr(packet, "dst_ip", 0),
                            getattr(packet, "dst_port", 0),
                            getattr(packet, "proto", 0)))

    def _run_group(self, rule: MatchRule, indexes: List[int],
                   entries: List[Tuple], hits: List,
                   results: List[Optional[ProcessResult]],
                   scalar_done: List[bool], now: int) -> None:
        """Execute one rule-homogeneous group of a batch."""
        fn = self._functions[rule.function]

        if rule.next_table is not None:
            # Chained pipelines stay on the scalar per-packet loop:
            # hops after the first are data-dependent and don't group.
            for i in indexes:
                packet, cls = entries[i]
                try:
                    results[i] = self._process_packet_impl(packet, cls,
                                                           now)
                    scalar_done[i] = True
                except ConcurrencyViolation as violation:
                    results[i] = ProcessResult(
                        executed=[], matched_classes=[hits[i][1]],
                        error=violation)
            return

        self._m_lookups.inc(len(indexes))
        self._m_lookup_hits.inc(len(indexes))

        store = fn.message_store
        level = fn.concurrency
        need_msg = (store is not None
                    or level is not ConcurrencyLevel.PARALLEL)
        msg_id_of: Dict[int, object] = {}
        if need_msg:
            for i in indexes:
                packet, cls = entries[i]
                msg_id_of[i] = self._batch_msg_id(packet, cls)

        # Concurrency-guard acquisition once per group (PARALLEL and
        # SERIAL guards ignore the key) or once per distinct message
        # (PER_MESSAGE).  Equivalent to the scalar per-packet bracket
        # on the single-threaded data path: the guard state after the
        # group equals the state before it, and an externally held
        # guard rejects exactly the packets the scalar path would.
        guard = fn.guard
        held: List[object] = []
        group_error: Optional[ConcurrencyViolation] = None
        error_of_msg: Dict[object, ConcurrencyViolation] = {}
        if level is ConcurrencyLevel.PER_MESSAGE:
            acquired = set()
            for i in indexes:
                msg_id = msg_id_of[i]
                if msg_id in acquired or msg_id in error_of_msg:
                    continue
                try:
                    guard.acquire(msg_id)
                    held.append(msg_id)
                    acquired.add(msg_id)
                except ConcurrencyViolation as violation:
                    error_of_msg[msg_id] = violation
        else:
            try:
                guard.acquire(_BATCH_GUARD_KEY)
                held.append(_BATCH_GUARD_KEY)
            except ConcurrencyViolation as violation:
                group_error = violation

        # Execution context built once per group: the function's
        # backend supplies a batch runner when it can hoist per-call
        # setup (pycodegen's CodegenRunner), else the scalar execute
        # (tree, native, or instrumented interpreters, which must
        # keep their per-invocation spans).
        runner = None
        if fn.backend != "native" and \
                self.interpreter.telemetry is None:
            runner = fn._batch_runner
            if runner is None:
                backend_obj = (fn._exec_backend
                               if fn._exec_backend is not None
                               else self.interpreter._backend)
                runner = backend_obj.make_batch_runner(
                    self.interpreter, fn.program)
                fn._batch_runner = (runner if runner is not None
                                    else _NO_BATCH_RUNNER)
            elif runner is _NO_BATCH_RUNNER:
                runner = None

        acct = self.accounting
        acct_on = acct.enabled
        fn_stats = fn.stats
        fn_name = fn.name
        readers = fn._field_readers
        array_readers = fn._array_readers
        fields = fn._field_buf
        arrays = fn._array_buf
        execute = runner.run if runner is not None else fn.execute
        exec_bucket = ("native" if fn.backend == "native"
                       else "interpreter")
        # The commit plan, unpacked once per group; per-packet this
        # mirrors Enclave._commit exactly.
        packet_writes = (fn._packet_writes
                         if fn.commit_packet_writes else ())
        message_writes = (fn._message_writes
                          if store is not None else ())
        global_writes = fn._global_writes
        array_writes = fn._array_writes
        global_store = fn.global_store
        # FunctionStats accumulated locally, folded in once per group —
        # same final values as the scalar per-packet updates.
        invocations = 0
        faults = 0
        ops_total = 0
        max_stack = fn_stats.max_stack_bytes
        max_heap = fn_stats.max_heap_bytes
        try:
            for i in indexes:
                packet, cls = entries[i]
                matched = hits[i][1]
                if group_error is not None:
                    results[i] = ProcessResult(
                        executed=[], matched_classes=[matched],
                        error=group_error)
                    continue
                if error_of_msg:
                    violation = error_of_msg.get(msg_id_of[i])
                    if violation is not None:
                        results[i] = ProcessResult(
                            executed=[], matched_classes=[matched],
                            error=violation)
                        continue

                t0 = acct.now() if acct_on else 0
                msg_entry = None
                msg_id = None
                if need_msg:
                    msg_id = msg_id_of[i]
                if store is not None:
                    metadata: Dict[str, object] = {}
                    for c in cls:
                        metadata.update(c.metadata)
                    int_metadata = {
                        k: v for k, v in metadata.items()
                        if isinstance(v, int)
                        and not isinstance(v, bool)}
                    msg_entry, _ = store.lookup(msg_id, now,
                                                int_metadata)
                for j, read in enumerate(readers):
                    fields[j] = read(packet, msg_entry)
                for j, read_array in enumerate(array_readers):
                    arrays[j] = read_array(packet)
                if acct_on:
                    acct.record("enclave", acct.now() - t0)
                    t1 = acct.now()
                try:
                    exec_result = execute(fields, arrays)
                except InterpreterFault:
                    # Section 3.4.3: the faulty invocation terminates
                    # alone; the packet is forwarded unmodified.
                    faults += 1
                    results[i] = ProcessResult(
                        executed=[], matched_classes=[matched],
                        faults=1)
                    if acct_on:
                        acct.record(exec_bucket, acct.now() - t1)
                    continue
                if acct_on:
                    acct.record(exec_bucket, acct.now() - t1)
                    t2 = acct.now()
                out = exec_result.fields
                for j, name in packet_writes:
                    setattr(packet, name, out[j])
                if message_writes:
                    store.commit(msg_id,
                                 {name: out[j]
                                  for j, name in message_writes})
                for j, name in global_writes:
                    global_store.commit_scalar(name, out[j])
                for j, name in array_writes:
                    global_store.commit_array(name,
                                              exec_result.arrays[j])
                invocations += 1
                stats = exec_result.stats
                ops = stats.ops_executed
                ops_total += ops
                if stats.stack_bytes > max_stack:
                    max_stack = stats.stack_bytes
                if stats.heap_bytes > max_heap:
                    max_heap = stats.heap_bytes
                results[i] = ProcessResult(
                    executed=[fn_name], matched_classes=[matched],
                    interpreter_ops=ops)
                if acct_on:
                    acct.record("enclave", acct.now() - t2)
        finally:
            fn_stats.invocations += invocations
            fn_stats.faults += faults
            fn_stats.ops_executed += ops_total
            fn_stats.max_stack_bytes = max_stack
            fn_stats.max_heap_bytes = max_heap
            if invocations:
                self._m_invocations.inc(invocations)
            if faults:
                self._m_faults.inc(faults)
            for key in held:
                guard.release(key)

    def replace_function(self, name: str, source_fn,
                         backend: Optional[str] = None,
                         optimize_tail_calls: bool = True) -> \
            InstalledFunction:
        """Hot-swap an action function's program, keeping its state.

        This is the dynamic update the interpreter design buys
        (Section 3.4.3: functions "can be updated dynamically by the
        controller without affecting forwarding performance"): the new
        source is compiled and verified off the data path, then
        swapped in atomically; the authoritative message and global
        stores — and the match-action rules referencing the function —
        survive the swap.  The new program must use the same schemas.
        """
        old = self.function(name)
        replacement = InstalledFunction(
            name=name, source_fn=source_fn,
            packet_schema=old.packet_schema,
            message_schema=old.message_schema,
            global_schema=old.global_schema,
            backend=backend if backend is not None else old.backend,
            interpreter=self.interpreter,
            rng=self.rng, clock=self.clock,
            optimize_tail_calls=optimize_tail_calls,
            commit_packet_writes=old.commit_packet_writes)
        # Carry the authoritative state over.
        replacement.global_store = old.global_store
        replacement.message_store = old.message_store
        self._functions[name] = replacement
        # Explicitly invalidate every backend cache keyed on the old
        # program: the swap already unlinks it from the data path, but
        # a controller (or test) holding the old Program must never be
        # able to run a stale compiled handler again.
        old._batch_runner = None
        lang_backends.invalidate(old.program)
        return replacement

    def query_rules(self, table_id: int = 0) -> List[MatchRule]:
        """Enclave API: the rules of one match-action table."""
        return self.table(table_id).rules()

    def query_tables(self) -> List[int]:
        """Enclave API: the ids of all match-action tables."""
        return sorted(self._tables)

    def stats_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-function counters for controller monitoring."""
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
        return out

    def end_message(self, function: str, msg_key: object) -> None:
        """Notify the enclave that a message ended (e.g. flow FIN)."""
        store = self.function(function).message_store
        if store is not None:
            store.end_message(msg_key)

    def expire_idle_messages(self, now_ns: int) -> int:
        total = 0
        for fn in self._functions.values():
            if fn.message_store is not None:
                total += fn.message_store.expire_idle(now_ns)
        return total

    # -- internals ------------------------------------------------------

    def _flow_classification(self, packet) -> Classification:
        flow_key = (getattr(packet, "src_ip", 0),
                    getattr(packet, "src_port", 0),
                    getattr(packet, "dst_ip", 0),
                    getattr(packet, "dst_port", 0),
                    getattr(packet, "proto", 0))
        return Classification(class_name="enclave.flows.default",
                              metadata={"msg_id": ("enclave", flow_key)})

    def _enclave_stage_classifications(
            self, packet) -> List[Classification]:
        """Run the enclave's own stage rules over the packet headers.

        Paper Table 2, last row: the enclave classifies on
        ``<src_ip, src_port, dst_ip, dst_port, proto>`` — "when
        classification is done at the granularity of TCP flows, each
        transport connection is a message", so the message id is the
        five-tuple.  The controller installs rules with
        :meth:`install_flow_rule`.
        """
        if not self.flow_stage._rule_sets:
            return []
        attrs = {
            "src_ip": getattr(packet, "src_ip", 0),
            "src_port": getattr(packet, "src_port", 0),
            "dst_ip": getattr(packet, "dst_ip", 0),
            "dst_port": getattr(packet, "dst_port", 0),
            "proto": getattr(packet, "proto", 0),
        }
        flow_key = (attrs["src_ip"], attrs["src_port"],
                    attrs["dst_ip"], attrs["dst_port"],
                    attrs["proto"])
        results = self.flow_stage.classify(attrs, msg_id=flow_key)
        # Flow identity must be the five-tuple, not a per-call id.
        return [Classification(class_name=c.class_name,
                               metadata={**c.metadata,
                                         "msg_id": ("enclave",
                                                    flow_key)})
                for c in results]

    def install_flow_rule(self, rule_set: str, classifier,
                          class_name: str) -> int:
        """Controller API: a header classification rule at the
        enclave's own stage (Table 2, last row)."""
        return self.flow_stage.create_stage_rule(
            rule_set, classifier, class_name, ["msg_id"])

    def _invoke(self, fn: InstalledFunction, packet, msg_id: object,
                metadata: Mapping[str, object], now_ns: int,
                result: ProcessResult) -> None:
        t0 = self.accounting.now()
        fn.guard.acquire(msg_id)
        try:
            msg_entry = None
            if fn.message_store is not None:
                int_metadata = {
                    k: v for k, v in metadata.items()
                    if isinstance(v, int) and not isinstance(v, bool)}
                msg_entry, _ = fn.message_store.lookup(
                    msg_id, now_ns, int_metadata)

            # Preallocated buffers + one precomputed reader per slot
            # (see InstalledFunction._build_hot_path); both backends
            # copy these inputs before mutating them.
            fields = fn._field_buf
            for i, read in enumerate(fn._field_readers):
                fields[i] = read(packet, msg_entry)
            arrays = fn._array_buf
            for i, read_array in enumerate(fn._array_readers):
                arrays[i] = read_array(packet)
            self.accounting.record("enclave",
                                   self.accounting.now() - t0)

            t1 = self.accounting.now()
            try:
                exec_result = fn.execute(fields, arrays)
            except InterpreterFault:
                # Section 3.4.3: a faulty function terminates its own
                # execution without affecting the rest of the system —
                # the packet is forwarded unmodified.
                fn.stats.faults += 1
                result.faults += 1
                self._m_faults.inc()
                self.accounting.record(
                    "native" if fn.backend == "native"
                    else "interpreter",
                    self.accounting.now() - t1)
                return
            self.accounting.record(
                "native" if fn.backend == "native"
                else "interpreter",
                self.accounting.now() - t1)

            t2 = self.accounting.now()
            self._commit(fn, packet, msg_id, exec_result)
            fn.stats.invocations += 1
            self._m_invocations.inc()
            stats = exec_result.stats
            fn.stats.ops_executed += stats.ops_executed
            fn.stats.max_stack_bytes = max(fn.stats.max_stack_bytes,
                                           stats.stack_bytes)
            fn.stats.max_heap_bytes = max(fn.stats.max_heap_bytes,
                                          stats.heap_bytes)
            result.interpreter_ops += stats.ops_executed
            result.executed.append(fn.name)
            self.accounting.record("enclave",
                                   self.accounting.now() - t2)
        finally:
            fn.guard.release(msg_id)

    def _commit(self, fn: InstalledFunction, packet, msg_id: object,
                exec_result: ExecResult) -> None:
        out = exec_result.fields
        if fn.commit_packet_writes:
            for i, name in fn._packet_writes:
                setattr(packet, name, out[i])
        if fn._message_writes and fn.message_store is not None:
            fn.message_store.commit(
                msg_id, {name: out[i]
                         for i, name in fn._message_writes})
        for i, name in fn._global_writes:
            fn.global_store.commit_scalar(name, out[i])
        for i, name in fn._array_writes:
            fn.global_store.commit_array(name, exec_result.arrays[i])
