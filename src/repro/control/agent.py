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

The enclave API it calls is the trust boundary: an install carries a
compiled artifact, which the enclave verifies against its own limits
and packet schema before binding it.  One the enclave refuses
(``VerificationError``, ``EnclaveError``) is Nacked with that error
and leaves the enclave, and the agent's applied epoch, as they were.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from ..telemetry import NULL_TELEMETRY, Telemetry
from .channel import (ChannelConfig, ControlEndpoint, Outcome,
                      PendingSend)
from .messages import (ConfigMessage, ControlError, ControlMessage,
                       GLOBAL_ARRAY, GLOBAL_KEYED, GLOBAL_RECORDS,
                       GLOBAL_SCALAR, Hello, InstallFunction,
                       InstallRule, RemoveFunction, ReplaceFunction,
                       STALE_EPOCH, StatsReport, UpdateGlobals,
                       UpdateRules)
from .transport import Transport


#: An agent with nothing to sample and nothing changed still sends
#: a report on every this-many-th tick, as a heartbeat.
HEARTBEAT_TICKS = 10


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
        self._report_interval_ns: Optional[int] = None
        self._report_gen = 0
        # The agent's state at its last pushed report, as
        # _state_key(), and the ticks since then.
        self._reported_key: Optional[tuple] = None
        self._quiet_ticks = 0

    # -- message handling --------------------------------------------------

    def _handle(self, src: str,
                payload: ControlMessage) -> Optional[Outcome]:
        if isinstance(payload, ConfigMessage):
            if payload.epoch < self.applied_epoch:
                self.stale_rejections += 1
                self._m_stale.inc()
                return Outcome(False, reason=STALE_EPOCH)
            result = self._apply(payload)
            self.applied_epoch = payload.epoch
            self.applied_ops += 1
            self._m_applied.inc()
            return Outcome(True, result=result)
        raise ControlError(
            f"agent {self.host}: unexpected {type(payload).__name__}")

    def _apply(self, msg: ConfigMessage) -> object:
        enclave = self.enclave
        if isinstance(msg, InstallFunction):
            # Replayed or re-sent installs must converge: an install
            # of an already-present function is a state-preserving
            # replace (same idempotence the channel's dedup gives
            # in-session, extended across session resets).
            if msg.name in enclave.functions():
                return enclave.replace_function(
                    msg.name, msg.program,
                    backend=msg.kwargs.get("backend"))
            return enclave.install_function(msg.program,
                                            name=msg.name,
                                            **dict(msg.kwargs))
        if isinstance(msg, ReplaceFunction):
            # The enclave keeps the old schemas and state across a
            # replace; only the execution knobs pass through.
            kwargs = {k: v for k, v in msg.kwargs.items()
                      if k in ("backend", "optimize_tail_calls")}
            return enclave.replace_function(msg.name, msg.program,
                                            **kwargs)
        if isinstance(msg, RemoveFunction):
            # Idempotent: a retransmitted remove (or a remove replayed
            # after the function is already gone) is a no-op.
            if msg.name in enclave.functions():
                enclave.remove_function(msg.name)
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
            return enclave.install_rule(rule.pattern, rule.function,
                                        table_id=rule.table_id,
                                        priority=rule.priority,
                                        next_table=rule.next_table)
        if isinstance(msg, UpdateRules):
            return self._reconcile_rules(msg)
        if isinstance(msg, UpdateGlobals):
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
        if self._report_interval_ns is not None and \
                self.scheduler is not None:
            # Reporting timers are soft state too; restart them (the
            # generation bump orphans the pre-restart timer chain).
            self.start_reporting(self._report_interval_ns)

    def send_hello(self) -> Optional[PendingSend]:
        return self.endpoint.send(
            self.controller_address,
            Hello(host=self.host, applied_epoch=self.applied_epoch))

    # -- telemetry ---------------------------------------------------------

    def add_telemetry_source(self, name: str,
                             source: Callable[[], object]) -> None:
        """Register a feed sampled into every ``StatsReport``."""
        self._telemetry_sources[name] = source

    def set_health_source(
            self, source: Optional[Callable[[], Dict[str, object]]],
    ) -> None:
        """Sample ``source()`` into every report's ``health`` mapping.

        Rollout health gates (:mod:`repro.fleet.health`) read these
        signals to decide whether a wave may advance; ``None``
        detaches the source (reports go back to empty health).
        """
        self._health_source = source

    def build_report(self) -> StatsReport:
        return self._report({name: source() for name, source
                             in self._telemetry_sources.items()})

    def _ack_report(self) -> StatsReport:
        """The report an Ack carries: the feeds stay unsampled, and
        the next tick still pushes the change."""
        return self._report({})

    def _report(self, telemetry: Dict[str, object]) -> StatsReport:
        now = self.scheduler.now if self.scheduler is not None else 0
        return StatsReport(
            host=self.host, at_ns=now,
            applied_epoch=self.applied_epoch,
            stats=self.enclave.stats_summary(),
            telemetry=telemetry,
            registry=(self.telemetry.registry.snapshot()
                      if self.telemetry.enabled else {}),
            health=(dict(self._health_source())
                    if self._health_source is not None else {}))

    def _state_key(self) -> tuple:
        """Moves whenever a report's content may have: epoch, packet
        count, enclave generation.  O(1); no report is built to
        learn it."""
        enclave = self.enclave
        return (self.applied_epoch, enclave.packets_processed,
                enclave.generation)

    def send_report(self) -> None:
        """Push one telemetry report (best-effort, unacked)."""
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
        """Tick every ``interval_ns`` forever, and carry a report on
        every config Ack from now on.

        A tick pushes a ``StatsReport`` if the agent has a feed to
        sample, if its state changed since its last pushed report, or
        on every :data:`HEARTBEAT_TICKS`-th quiet tick.
        """
        if self.scheduler is None:
            raise ControlError(
                "periodic reporting needs a scheduler (Simulator)")
        if interval_ns <= 0:
            raise ControlError("report interval must be positive")
        self._report_interval_ns = interval_ns
        self._report_gen += 1
        self.endpoint.ack_report = self._ack_report
        self.scheduler.schedule(interval_ns, self._periodic_report,
                                interval_ns, self._report_gen)

    def _periodic_report(self, interval_ns: int, gen: int) -> None:
        if gen != self._report_gen:
            return  # orphaned timer from before a restart/reconfigure
        self._quiet_ticks += 1
        if self._telemetry_sources or self._health_source is not None \
                or self.telemetry.enabled \
                or self._quiet_ticks >= HEARTBEAT_TICKS \
                or self._state_key() != self._reported_key:
            self.send_report()
        self.scheduler.schedule(interval_ns, self._periodic_report,
                                interval_ns, gen)
