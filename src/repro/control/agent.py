"""The enclave-side control agent.

Each end host runs one :class:`EnclaveAgent` next to its enclave.  The
agent terminates the control channel: it applies configuration
messages to the local enclave in delivery order, enforces per-enclave
epoch monotonicity (stale installs are Nacked with ``stale-epoch``
and leave the data plane untouched), reports its state as a
:class:`~repro.control.messages.StatsReport`, and — after a restart
that lost all soft state — announces itself with ``Hello`` so the
controller replays its desired state.

Reports go out when something changed, not on every tick.  Once
reporting is on, every config ``Ack`` carries a report built as it is
sent, so the controller hears a new epoch together with its Ack.  The
periodic tick sends a report when the agent has a feed to sample
(telemetry sources, a health source, registry telemetry) or when its
epoch, packet count or enclave generation moved since its last pushed
report; an idle agent otherwise sends one every
:data:`HEARTBEAT_TICKS` ticks.

Ticks lie on a grid — the instant reporting started plus whole
intervals — and an agent does work only at the ticks that can push:
the next one while it has a feed or news, else its heartbeat tick, the
ticks in between being quiet by construction.  A change makes a
sleeping agent due at the next tick: the agent's own applies, restarts
and new sources, and the enclave's one-shot
:attr:`~repro.core.enclave.Enclave.on_change`, which the agent arms as
it goes to sleep and which fires at the enclave's next generation bump
or packet.  The agents that start at one instant with one interval
share one :class:`ReportGrid`, whose one timer, re-armed in place every
interval, fires where each agent's own tick timer fired and runs the
due agents in the order those timers fired: every report goes out at
the instant, and in the order among that instant's events, it did
when every agent fired every tick.

The enclave API it calls is the trust boundary: an install carries a
compiled artifact, which the enclave verifies against its own limits
and packet schema before binding it.  A config message — a bare one,
or a :class:`~repro.control.messages.ConfigBatch` of one wave's ops —
is applied in one event, whole or not at all.  As it applies the ops
the agent keeps an undo log: remove a function it installed, re-bind
the program it replaced, put back a function it removed with its
state, drop a rule it installed and a table it created, restore the
rule set an ``UpdateRules`` replaced and the old value of a global it
wrote.  If the enclave refuses an op (``VerificationError``,
``EnclaveError``, an unknown global), the agent undoes the ops applied
so far, newest first, and Nacks with the error's class name as the
reason and the op's index; the enclave, and the agent's applied
epoch, are as they were.
"""

from __future__ import annotations

import random
import weakref
from functools import partial
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional

from ..telemetry import NULL_TELEMETRY, Telemetry
from .channel import (ChannelConfig, ControlEndpoint, Outcome,
                      PendingSend)
from .messages import (ConfigBatch, ConfigMessage, ControlError,
                       ControlMessage, GLOBAL_ARRAY, GLOBAL_KEYED,
                       GLOBAL_RECORDS, GLOBAL_SCALAR, Hello,
                       InstallFunction, InstallRule, RemoveFunction,
                       ReplaceFunction, STALE_EPOCH, StatsReport,
                       UpdateGlobals, UpdateRules)
from .transport import Transport


#: An agent with nothing to sample and nothing changed still sends
#: a report on every this-many-th tick, as a heartbeat.
HEARTBEAT_TICKS = 10

#: A report's empty feeds, registry and health: one read-only mapping
#: shared by every report, not three new dicts each.
_NONE: Mapping[str, object] = MappingProxyType({})


def agent_address(host: str) -> str:
    """Transport address of the agent at ``host``."""
    return f"agent:{host}"


class EnclaveAgent:
    """Applies controller configuration to one enclave."""

    def __init__(self, host: str, enclave, transport: Transport,
                 scheduler=None, rng: Optional[random.Random] = None,
                 config: Optional[ChannelConfig] = None,
                 controller_address: str = "controller",
                 telemetry: Optional[Telemetry] = None) -> None:
        self.host = host
        self.enclave = enclave
        self.controller_address = controller_address
        self.scheduler = scheduler
        self.address = agent_address(host)
        self.telemetry = (telemetry if telemetry is not None
                          else NULL_TELEMETRY)
        self.endpoint = ControlEndpoint(
            self.address, transport, scheduler=scheduler, rng=rng,
            config=config, handler=self._handle, telemetry=telemetry)
        self.applied_epoch = 0
        self.applied_ops = 0
        self.stale_rejections = 0
        self.restarts = 0
        self.reports_sent = 0
        registry = self.telemetry.registry
        self._m_applied = registry.counter("agent_applied_ops_total",
                                           host=host)
        self._m_stale = registry.counter(
            "agent_stale_rejections_total", host=host)
        self._m_restarts = registry.counter("agent_restarts_total",
                                            host=host)
        self._m_reports = registry.counter("agent_reports_total",
                                           host=host)
        self._telemetry_sources: Dict[str, Callable[[], object]] = {}
        self._health_source: Optional[Callable[[], Dict[str, object]]] \
            = None
        # The grid the agent reports on (None until reporting
        # starts), its rank there, and the tick it is due at.
        self._grid: Optional[ReportGrid] = None
        self._grid_rank = 0
        self._due_ns: Optional[int] = None
        # The last grid tick counted, and the quiet ticks through it
        # since the last pushed report.
        self._counted_tick_ns = 0
        self._quiet_ticks = 0
        # The agent's state at its last pushed report, as
        # _state_key().
        self._reported_key: Optional[tuple] = None

    # -- message handling --------------------------------------------------

    def _handle(self, src: str,
                payload: ControlMessage) -> Optional[Outcome]:
        if isinstance(payload, ConfigMessage):
            if payload.epoch < self.applied_epoch:
                self.stale_rejections += 1
                self._m_stale.inc()
                return Outcome(False, reason=STALE_EPOCH)
            batch = type(payload) is ConfigBatch
            ops = payload.ops if batch else (payload,)
            undo: list = []
            results = []
            for index, op in enumerate(ops):
                try:
                    results.append(self._apply(op, undo))
                except Exception as exc:
                    for step in reversed(undo):
                        step()
                    return Outcome(False, reason=type(exc).__name__,
                                   error=exc, op_index=index)
            self.applied_epoch = payload.epoch
            self.applied_ops += len(ops)
            self._m_applied.inc(len(ops))
            self._wake()
            return Outcome(True, result=tuple(results) if batch
                           else results[0])
        raise ControlError(
            f"agent {self.host}: unexpected {type(payload).__name__}")

    def _apply(self, msg: ConfigMessage, undo: list) -> object:
        """Apply one op and append to ``undo`` what undoes it: calls
        that take no argument."""
        enclave = self.enclave
        if isinstance(msg, InstallFunction):
            # Replayed or re-sent installs must converge: an install
            # of an already-present function is a state-preserving
            # replace (same idempotence the channel's dedup gives
            # in-session, extended across session resets).
            if msg.name in enclave.functions():
                old = enclave.function(msg.name)
                result = enclave.replace_function(
                    msg.name, msg.program,
                    backend=msg.kwargs.get("backend"))
            else:
                old = None
                result = enclave.install_function(
                    msg.program, name=msg.name, **dict(msg.kwargs))
            undo.append(partial(enclave.restore_function, msg.name,
                                old))
            return result
        if isinstance(msg, ReplaceFunction):
            # The enclave keeps the old schemas and state across a
            # replace; only the execution knobs pass through.
            kwargs = {k: v for k, v in msg.kwargs.items()
                      if k in ("backend", "optimize_tail_calls")}
            old = enclave.function(msg.name)
            result = enclave.replace_function(msg.name, msg.program,
                                              **kwargs)
            undo.append(partial(enclave.restore_function, msg.name,
                                old))
            return result
        if isinstance(msg, RemoveFunction):
            # Idempotent: a retransmitted remove (or a remove replayed
            # after the function is already gone) is a no-op.
            if msg.name in enclave.functions():
                old = enclave.function(msg.name)
                enclave.remove_function(msg.name)
                undo.append(partial(enclave.restore_function,
                                    msg.name, old))
                return True
            return False
        if isinstance(msg, InstallRule):
            rule = msg.rule
            # Desired state is authoritative: materialize the tables
            # the rule references, as the reconcile path already does.
            for table_id in (rule.table_id, rule.next_table):
                if table_id is not None and \
                        table_id not in enclave.query_tables():
                    enclave.create_table(table_id)
                    undo.append(partial(enclave.delete_table, table_id))
            rule_id = enclave.install_rule(rule.pattern, rule.function,
                                           table_id=rule.table_id,
                                           priority=rule.priority,
                                           next_table=rule.next_table)
            undo.append(partial(enclave.remove_rule, rule_id,
                                rule.table_id))
            return rule_id
        if isinstance(msg, UpdateRules):
            undo.append(partial(self._restore_rules,
                                {table_id: enclave.query_rules(table_id)
                                 for table_id in enclave.query_tables()}))
            return self._reconcile_rules(msg)
        if isinstance(msg, UpdateGlobals):
            store = enclave.function(msg.function).global_store
            saved = store.saved(msg.name) if store is not None else None
            if msg.kind == GLOBAL_SCALAR:
                enclave.set_global(msg.function, msg.name, msg.values)
            elif msg.kind == GLOBAL_ARRAY:
                enclave.set_global_array(msg.function, msg.name,
                                         msg.values)
            elif msg.kind == GLOBAL_RECORDS:
                enclave.set_global_records(msg.function, msg.name,
                                           msg.values)
            elif msg.kind == GLOBAL_KEYED:
                enclave.set_global_keyed(msg.function, msg.name,
                                         msg.key, msg.values)
            else:
                raise ControlError(
                    f"unknown global kind {msg.kind!r}")
            undo.append(partial(store.restore, msg.name, saved))
            return None
        raise ControlError(
            f"agent {self.host}: unknown config message "
            f"{type(msg).__name__}")

    def _reconcile_rules(self, msg: UpdateRules) -> Dict[int, list]:
        """Make the enclave's tables equal to ``msg.rules``."""
        enclave = self.enclave
        for table_id in enclave.query_tables():
            for rule in enclave.query_rules(table_id):
                enclave.remove_rule(rule.rule_id, table_id)
        installed: Dict[int, list] = {}
        for spec in msg.rules:
            if spec.table_id not in enclave.query_tables():
                enclave.create_table(spec.table_id)
            if spec.next_table is not None and \
                    spec.next_table not in enclave.query_tables():
                enclave.create_table(spec.next_table)
            rule_id = enclave.install_rule(
                spec.pattern, spec.function, table_id=spec.table_id,
                priority=spec.priority, next_table=spec.next_table)
            installed.setdefault(spec.table_id, []).append(rule_id)
        return installed

    def _restore_rules(self, saved: Dict[int, list]) -> None:
        """Put the tables back as ``saved`` (table id -> its rules)
        held them: the undo of an ``UpdateRules``."""
        enclave = self.enclave
        for table_id in enclave.query_tables():
            for rule in enclave.query_rules(table_id):
                enclave.remove_rule(rule.rule_id, table_id)
        for table_id in enclave.query_tables():
            if table_id not in saved:
                enclave.delete_table(table_id)
        for table_id, rules in saved.items():
            table = enclave.table(table_id)
            for rule in rules:
                table.add(rule)

    # -- restart / reconnect ----------------------------------------------

    def restart(self) -> None:
        """Simulate an enclave restart: all soft state is lost.

        The data plane comes back empty, the agent forgets epochs and
        channel sessions, and a ``Hello`` asks the controller to
        replay the desired state (Section 3.2's controller owns the
        authoritative copy).
        """
        self.enclave.clear()
        self.applied_epoch = 0
        self.restarts += 1
        self._m_restarts.inc()
        self.endpoint.reset_all_peers()
        self.send_hello()
        if self._grid is not None:
            # Reporting timers are soft state too: a new grid starts
            # now.
            self.start_reporting(self._grid.interval_ns)

    def send_hello(self) -> Optional[PendingSend]:
        return self.endpoint.send(
            self.controller_address,
            Hello(host=self.host, applied_epoch=self.applied_epoch))

    # -- telemetry ---------------------------------------------------------

    def add_telemetry_source(self, name: str,
                             source: Callable[[], object]) -> None:
        """Register a feed sampled into every ``StatsReport``."""
        self._telemetry_sources[name] = source
        self._wake()

    def set_health_source(
            self, source: Optional[Callable[[], Dict[str, object]]],
    ) -> None:
        """Sample ``source()`` into every report's ``health`` mapping.

        Rollout health gates (:mod:`repro.fleet.health`) read these
        signals to decide whether a wave may advance; ``None``
        detaches the source (reports go back to empty health).
        """
        self._health_source = source
        self._wake()

    def build_report(self) -> StatsReport:
        sources = self._telemetry_sources
        return self._report({name: source() for name, source
                             in sources.items()} if sources else _NONE)

    def _ack_report(self) -> StatsReport:
        """The report an Ack carries: the feeds stay unsampled, and
        the next tick still pushes the change."""
        return self._report(_NONE)

    def _report(self, telemetry: Mapping[str, object]) -> StatsReport:
        now = self.scheduler.now if self.scheduler is not None else 0
        return StatsReport(
            host=self.host, at_ns=now,
            applied_epoch=self.applied_epoch,
            stats=self.enclave.stats_summary(),
            telemetry=telemetry,
            registry=(self.telemetry.registry.snapshot()
                      if self.telemetry.enabled else _NONE),
            health=(dict(self._health_source())
                    if self._health_source is not None else _NONE))

    def _state_key(self) -> tuple:
        """Moves whenever a report's content may have: epoch, packet
        count, enclave generation.  O(1); no report is built to
        learn it."""
        enclave = self.enclave
        return (self.applied_epoch, enclave.packets_processed,
                enclave.generation)

    def _has_feed(self) -> bool:
        """Whether every tick has something to sample."""
        return bool(self._telemetry_sources) or \
            self._health_source is not None or self.telemetry.enabled

    def send_report(self) -> None:
        """Push one telemetry report (best-effort, unacked)."""
        if self._grid is not None:
            self._count_quiet_ticks()
        self._push_report()
        if self._grid is not None:
            self._sleep()

    def _push_report(self) -> None:
        self._reported_key = self._state_key()
        self._quiet_ticks = 0
        if not self.telemetry.enabled:
            self.endpoint.send(self.controller_address,
                               self.build_report(), reliable=False)
            self.reports_sent += 1
            return
        # The report push is the tail of the data-path story: span it
        # so a trace can show classification -> enclave -> interpreter
        # -> StatsReport delivery.
        with self.telemetry.tracer.span("control.stats_report",
                                        host=self.host) as span:
            report = self.build_report()
            self.endpoint.send(self.controller_address, report,
                               reliable=False)
            span.set(epoch=report.applied_epoch,
                     functions=len(report.stats))
        self.reports_sent += 1
        self._m_reports.inc()

    def start_reporting(self, interval_ns: int) -> None:
        """Tick every ``interval_ns`` from now, and carry a report on
        every config Ack from now on.

        A tick pushes a ``StatsReport`` if the agent has a feed to
        sample, if its state changed since its last pushed report, or
        on every :data:`HEARTBEAT_TICKS`-th quiet tick; the agent does
        no work on the other ticks.  Calling it again starts a new
        grid now; the quiet ticks already counted carry over.
        """
        if self.scheduler is None:
            raise ControlError(
                "periodic reporting needs a scheduler (Simulator)")
        if interval_ns <= 0:
            raise ControlError("report interval must be positive")
        if self._grid is not None:
            self._count_quiet_ticks()
            self._grid.leave()
        self._grid = grid = ReportGrid.join(self.scheduler, interval_ns)
        self._grid_rank = grid.joined
        self._counted_tick_ns = grid.origin_ns
        self._due_ns = None
        self.endpoint.ack_report = self._ack_report
        self._sleep()

    def _report_tick(self) -> None:
        """The grid's tick the agent is due at."""
        self._count_quiet_ticks()
        if self._quiet_ticks >= HEARTBEAT_TICKS or self._has_feed() \
                or self._state_key() != self._reported_key:
            self._push_report()
        self._sleep()

    def _count_quiet_ticks(self) -> None:
        """Count the grid's ticks fired since the last one counted.
        The agent was due at none of them but the last, so none but
        the last can have pushed."""
        grid = self._grid
        ticks = (grid.last_tick_ns - self._counted_tick_ns) \
            // grid.interval_ns
        self._counted_tick_ns += ticks * grid.interval_ns
        self._quiet_ticks += ticks

    def _sleep(self) -> None:
        """Be due at the next tick that can push: the next one with a
        feed or news, else the heartbeat, with the enclave's change
        callback armed to wake the agent sooner."""
        grid = self._grid
        due = grid.next_tick_ns
        if not self._has_feed() and \
                self._state_key() == self._reported_key:
            due = max(due, self._counted_tick_ns + (
                HEARTBEAT_TICKS - self._quiet_ticks) * grid.interval_ns)
            self.enclave.on_change = self._wake
        if due != self._due_ns:
            grid.due(self, due)

    def _wake(self) -> None:
        """Something a report shows may have changed: be due at the
        next tick at the latest."""
        grid = self._grid
        if grid is not None and self._due_ns > grid.next_tick_ns:
            grid.due(self, grid.next_tick_ns)


class ReportGrid:
    """The report ticks of the agents that started reporting on one
    scheduler at one instant with one interval: that instant plus
    whole intervals.

    One timer, re-armed in place every interval, stands for every
    member's tick, and at each tick runs the members due at it in the
    order they joined.  That is where and in what order the ticking
    agents' own timers fired — each armed one interval before, in
    that order — so a member that sleeps through quiet ticks sends
    what it sent before, in the same order relative to every other
    event at that instant.  The timer stops when the last member
    leaves.
    """

    #: The grid most recently started, weakly: agents starting on the
    #: same scheduler at the same instant with the same interval join
    #: it.
    _latest: Optional["weakref.ref[ReportGrid]"] = None

    def __init__(self, scheduler, interval_ns: int) -> None:
        self.scheduler = scheduler
        self.interval_ns = interval_ns
        self.origin_ns = scheduler.now
        #: Agents on the grid now, and ever: the latter ranks them.
        self.members = 0
        self.joined = 0
        self._due: Dict[int, List[EnclaveAgent]] = {}
        self._timer = scheduler.schedule(interval_ns, self._tick)

    @classmethod
    def join(cls, scheduler, interval_ns: int) -> "ReportGrid":
        """The grid an agent starting now with ``interval_ns`` ticks
        on: the latest one if it matches, else a new one."""
        grid = cls._latest() if cls._latest is not None else None
        if grid is None or grid.scheduler is not scheduler or \
                grid.interval_ns != interval_ns or \
                grid.origin_ns != scheduler.now or not grid.members:
            grid = cls(scheduler, interval_ns)
            cls._latest = weakref.ref(grid)
        grid.members += 1
        grid.joined += 1
        return grid

    def leave(self) -> None:
        self.members -= 1
        if not self.members:
            self._timer.cancel()
            self._due.clear()

    @property
    def next_tick_ns(self) -> int:
        return self._timer.time

    @property
    def last_tick_ns(self) -> int:
        """The latest tick fired, or the origin."""
        return self._timer.time - self.interval_ns

    def due(self, agent: "EnclaveAgent", at_ns: int) -> None:
        """Make ``agent`` due at ``at_ns``, a tick of this grid: its
        tick runs then unless it is made due at another first."""
        agent._due_ns = at_ns
        self._due.setdefault(at_ns, []).append(agent)

    def _tick(self) -> None:
        now = self.scheduler.now
        self.scheduler.reschedule(self._timer, self.interval_ns)
        agents = self._due.pop(now, None)
        if agents is None:
            return
        agents.sort(key=attrgetter("_grid_rank"))
        for agent in agents:
            # Skip entries a later _sleep or _wake superseded, and
            # duplicates: a tick moves the agent's due time on.
            if agent._due_ns == now and agent._grid is self:
                agent._report_tick()
