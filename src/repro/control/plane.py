"""The controller side of the control channel.

:class:`ControlPlane` owns the *desired-state table*: for every host,
the authoritative record of which functions, rules and globals its
enclave should be running, stamped with a per-host monotonic epoch
that is bumped on every change.  Every mutating operation updates the
desired state first, then rolls the change out through the reliable
channel.  Because the desired state is authoritative, recovery is
uniform: whenever an agent reconnects (``Hello`` after an enclave
restart or partition), the plane fences the old session and replays
the full desired state at the current epoch.

A host's epoch counts ops: every op bumps it, whether the op is sent
alone or in a :class:`~repro.control.messages.ConfigBatch`.  A
rollout applies a program as one batch per host (:meth:`ControlPlane.
batch`), and a rollback sends the restored state as one; the agent
applies a batch whole or not at all, so a packet sees the host's
configuration before it or after it, never between two of its ops.
Counting ops, not batches, keeps every epoch a host has seen stale the
moment anything is sent after it — an op re-sent from before a restart
is refused as stale however it is packed.

Telemetry flows the other way: agents push ``StatsReport`` messages
(best-effort) and carry one on every config ``Ack``.  The plane keeps
the newest per host, notes when it last heard from each host at all,
and feeds every pushed report to the registered *control loops* —
closing the paper's coarse-timescale loop (Section 2.1: PIAS
thresholds from the observed flow-size distribution, WCMP weights
from observed path capacities).

The :attr:`ControlPlane.on_host_change` hook hears which host's view
changed, so a rollout re-judges only the hosts something happened to.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..lang.annotations import DEFAULT_PACKET_SCHEMA
from ..lang.compiler import CompiledAction, compile_shared
from ..telemetry import NULL_TELEMETRY, Telemetry
from .agent import agent_address
from .channel import (ChannelConfig, ControlEndpoint, Outcome,
                      PendingSend)
from .messages import (Ack, ConfigBatch, ConfigMessage, ControlError,
                       ControlMessage, Envelope, GLOBAL_ARRAY,
                       GLOBAL_KEYED, GLOBAL_RECORDS, GLOBAL_SCALAR,
                       Hello, InstallFunction, InstallRule,
                       RemoveFunction, ReplaceFunction, RuleSpec,
                       STALE_EPOCH, StatsReport, UpdateGlobals,
                       UpdateRules)
from .transport import Transport


#: Install arguments that shape the compiled artifact; the rest
#: (``backend``, ``commit_packet_writes``) are binding options and
#: travel beside the artifact in the message.
COMPILE_OPTIONS = ("message_schema", "global_schema",
                   "optimize_tail_calls")


def _binding_options(kwargs) -> Dict[str, object]:
    return {k: v for k, v in kwargs.items() if k not in COMPILE_OPTIONS}


@dataclass
class FunctionSpec:
    """Desired configuration of one installed function."""

    source_fn: object
    kwargs: Dict[str, object] = field(default_factory=dict)


@dataclass
class DesiredState:
    """What one host's enclave should be running."""

    epoch: int = 0
    #: name -> spec, in install order (replay preserves it).
    functions: Dict[str, FunctionSpec] = field(default_factory=dict)
    #: appended by install_rule / replaced wholesale by update_rules.
    rules: List[RuleSpec] = field(default_factory=list)
    #: (function, name, kind, key) -> values; last writer wins.
    globals: Dict[Tuple[str, str, str, Optional[tuple]], object] = \
        field(default_factory=dict)

    def snapshot(self) -> "DesiredState":
        """Deep-enough copy for rollback: specs are copied, the
        (immutable) source functions and global values are shared."""
        return DesiredState(
            epoch=self.epoch,
            functions={name: FunctionSpec(spec.source_fn,
                                          dict(spec.kwargs))
                       for name, spec in self.functions.items()},
            rules=list(self.rules),
            globals=dict(self.globals))


class Batch:
    """The messages :meth:`ControlPlane.batch` collects for one host,
    and after the block the one send that carried them."""

    __slots__ = ("host", "messages", "pending")

    def __init__(self, host: str) -> None:
        self.host = host
        self.messages: List[ConfigMessage] = []
        self.pending: Optional[PendingSend] = None


class ControlLoop:
    """Interface for telemetry-driven reconfiguration loops."""

    def on_report(self, host: str, report: StatsReport) -> None:
        raise NotImplementedError


class ControlPlane:
    """Versioned rollouts plus telemetry ingestion for all hosts."""

    def __init__(self, transport: Transport, scheduler=None,
                 rng: Optional[random.Random] = None,
                 config: Optional[ChannelConfig] = None,
                 address: str = "controller",
                 telemetry: Optional[Telemetry] = None) -> None:
        self.address = address
        self.transport = transport
        self.telemetry = (telemetry if telemetry is not None
                          else NULL_TELEMETRY)
        self.endpoint = ControlEndpoint(
            address, transport, scheduler=scheduler, rng=rng,
            config=config, handler=self._handle, telemetry=telemetry)
        self.endpoint.on_nack = self._record_nack
        self.endpoint.on_receive = self._heard
        self.endpoint.on_expire = self._expired
        self._desired: Dict[str, DesiredState] = {}
        self._agent_addrs: Dict[str, str] = {}
        self._hosts_by_addr: Dict[str, str] = {}
        #: Newest report per host by ``(at_ns, applied_epoch)``,
        #: pushed or carried on an Ack.
        self.latest_report: Dict[str, StatsReport] = {}
        #: When the plane last received anything from each host.
        self.last_heard_ns: Dict[str, int] = {}
        self.reports_received = 0
        self.hellos_handled = 0
        self.replays = 0
        self.restores = 0
        self.stale_nacks_seen = 0
        self.nack_log: List[Tuple[str, str]] = []
        self._loops: List[ControlLoop] = []
        #: Called with ``host`` whenever what the plane knows about
        #: it may have changed: its sends' outcomes, :meth:`in_sync`,
        #: :attr:`latest_report`, :attr:`last_heard_ns`, its desired
        #: epoch.  That is on every envelope heard from the host
        #: (before it is processed), every send to it through the
        #: plane — mutations, replays, restores — and every send to it
        #: that runs out of retries, which no envelope announces.  A
        #: message sent on :attr:`endpoint` directly is not seen.  The
        #: hook must only take note: it runs inside the channel's
        #: receive and send paths.
        self.on_host_change: Optional[Callable[[str], None]] = None
        self._batch: Optional[Batch] = None
        registry = self.telemetry.registry
        self._m_reports = registry.counter("plane_reports_total")
        self._m_hellos = registry.counter("plane_hellos_total")
        self._m_replays = registry.counter("plane_replays_total")
        self._m_restores = registry.counter("plane_restores_total")
        self._m_stale_nacks = registry.counter(
            "plane_stale_nacks_total")
        self._m_nacks = registry.counter("plane_nacks_total")

    # -- registry ----------------------------------------------------------

    def attach(self, host: str,
               address: Optional[str] = None) -> None:
        """Start managing the enclave agent at ``host``."""
        if host in self._agent_addrs:
            raise ControlError(f"host {host!r} already attached")
        address = address if address is not None \
            else agent_address(host)
        self._agent_addrs[host] = address
        self._hosts_by_addr[address] = host
        self._desired[host] = DesiredState()

    def hosts(self) -> List[str]:
        return sorted(self._agent_addrs)

    def desired(self, host: str) -> DesiredState:
        try:
            return self._desired[host]
        except KeyError:
            raise ControlError(
                f"host {host!r} not attached to the control plane"
            ) from None

    def agent_addr(self, host: str) -> str:
        self.desired(host)
        return self._agent_addrs[host]

    # -- versioned mutations ----------------------------------------------

    def _send(self, host: str,
              msg: ConfigMessage) -> Optional[PendingSend]:
        """Send ``msg`` to ``host``, or inside :meth:`batch` add it to
        the batch and return None."""
        batch = self._batch
        if batch is not None:
            if batch.host != host:
                raise ControlError(
                    f"a batch for {batch.host!r} is open; cannot send "
                    f"to {host!r}")
            batch.messages.append(msg)
            return None
        pending = self.endpoint.send(self.agent_addr(host), msg)
        if self.on_host_change is not None:
            self.on_host_change(host)
        return pending

    @contextmanager
    def batch(self, host: str) -> Iterator[Batch]:
        """Send every message the block sends ``host`` as one.

        The mutations called inside update the desired state and bump
        the epoch per op as always, but return None; when the block
        ends, their messages go out as one :class:`ConfigBatch` (or
        bare, if there is only one), whose send the yielded
        :class:`Batch` holds as ``pending``.  The agent applies it
        whole or not at all.  A block that raises still sends what it
        collected, which the desired state already holds.  Batches do
        not nest.
        """
        if self._batch is not None:
            raise ControlError(
                f"a batch for {self._batch.host!r} is already open")
        self._batch = batch = Batch(host)
        try:
            yield batch
        finally:
            self._batch = None
            messages = batch.messages
            if len(messages) == 1:
                batch.pending = self._send(host, messages[0])
            elif messages:
                batch.pending = self._send(host, ConfigBatch(
                    host=host, epoch=messages[-1].epoch,
                    ops=tuple(messages)))

    def _artifact(self, name: str, source_fn,
                  kwargs) -> CompiledAction:
        """The artifact an install of ``source_fn`` as ``name`` ships.

        Compiled against the canonical packet schema once per process
        (:func:`~repro.lang.compiler.compile_shared`) and shared by
        every send; an artifact handed in is shipped as it is.
        """
        if isinstance(source_fn, CompiledAction):
            return source_fn
        return compile_shared(
            source_fn, packet_schema=DEFAULT_PACKET_SCHEMA, name=name,
            **{k: kwargs[k] for k in COMPILE_OPTIONS if k in kwargs})

    def install_function(self, host: str, name: str, source_fn,
                         **kwargs) -> Optional[PendingSend]:
        ds = self.desired(host)
        action = self._artifact(name, source_fn, kwargs)
        ds.epoch += 1
        ds.functions[name] = FunctionSpec(source_fn, dict(kwargs))
        return self._send(host, InstallFunction(
            host=host, epoch=ds.epoch, name=name, program=action,
            kwargs=_binding_options(kwargs)))

    def replace_function(self, host: str, name: str, source_fn,
                         **kwargs) -> Optional[PendingSend]:
        ds = self.desired(host)
        spec = ds.functions.get(name)
        merged = dict(spec.kwargs) if spec is not None else {}
        merged.update(kwargs)
        action = self._artifact(name, source_fn, merged)
        ds.epoch += 1
        if spec is None:
            # Adopt a function that was installed out-of-band so the
            # replacement survives a restart replay.
            ds.functions[name] = FunctionSpec(source_fn, merged)
        else:
            spec.source_fn = source_fn
            spec.kwargs = merged
        return self._send(host, ReplaceFunction(
            host=host, epoch=ds.epoch, name=name, program=action,
            kwargs=_binding_options(kwargs)))

    def remove_function(self, host: str, name: str) -> Optional[PendingSend]:
        """Retire ``name`` from ``host``'s desired state.

        Any rules that still reference the function are retired first
        in the same epoch bump (the enclave refuses to drop a function
        with live rules), via a wholesale ``UpdateRules`` — so the
        remove itself can never fault on a consistent agent.
        """
        ds = self.desired(host)
        if name not in ds.functions:
            raise ControlError(
                f"function {name!r} not in desired state of {host!r}")
        ds.epoch += 1
        del ds.functions[name]
        kept = [r for r in ds.rules if r.function != name]
        if len(kept) != len(ds.rules):
            ds.rules = kept
            self._send(host, UpdateRules(host=host, epoch=ds.epoch,
                                         rules=tuple(kept)))
        ds.globals = {k: v for k, v in ds.globals.items()
                      if k[0] != name}
        return self._send(host, RemoveFunction(host=host,
                                               epoch=ds.epoch,
                                               name=name))

    def install_rule(self, host: str, pattern: str, function: str,
                     table_id: int = 0, priority: int = 0,
                     next_table: Optional[int] = None
                     ) -> Optional[PendingSend]:
        ds = self.desired(host)
        ds.epoch += 1
        spec = RuleSpec(pattern=pattern, function=function,
                        table_id=table_id, priority=priority,
                        next_table=next_table)
        ds.rules.append(spec)
        return self._send(host, InstallRule(host=host, epoch=ds.epoch,
                                            rule=spec))

    def update_rules(self, host: str,
                     rules: List[RuleSpec]) -> Optional[PendingSend]:
        ds = self.desired(host)
        ds.epoch += 1
        ds.rules = list(rules)
        return self._send(host, UpdateRules(host=host, epoch=ds.epoch,
                                            rules=tuple(rules)))

    def set_global(self, host: str, function: str, name: str,
                   value: int) -> Optional[PendingSend]:
        return self._set_global(host, function, name, GLOBAL_SCALAR,
                                None, value)

    def set_global_array(self, host: str, function: str, name: str,
                         values) -> Optional[PendingSend]:
        return self._set_global(host, function, name, GLOBAL_ARRAY,
                                None, tuple(values))

    def set_global_records(self, host: str, function: str, name: str,
                           records) -> Optional[PendingSend]:
        frozen = tuple(tuple(r) for r in records)
        return self._set_global(host, function, name, GLOBAL_RECORDS,
                                None, frozen)

    def set_global_keyed(self, host: str, function: str, name: str,
                         key: tuple, values) -> Optional[PendingSend]:
        return self._set_global(host, function, name, GLOBAL_KEYED,
                                tuple(key), tuple(values))

    def _set_global(self, host: str, function: str, name: str,
                    kind: str, key: Optional[tuple],
                    values) -> Optional[PendingSend]:
        ds = self.desired(host)
        ds.epoch += 1
        ds.globals[(function, name, kind, key)] = values
        return self._send(host, UpdateGlobals(
            host=host, epoch=ds.epoch, function=function, name=name,
            kind=kind, key=key, values=values))

    # -- rollback ----------------------------------------------------------

    def snapshot_desired(self, host: str) -> DesiredState:
        """Copy of ``host``'s desired state, for later rollback."""
        return self.desired(host).snapshot()

    def restore_desired(self, host: str,
                        snapshot: DesiredState) -> PendingSend:
        """Roll ``host`` back to a previously snapshotted state.

        The epoch keeps moving *forward* (one past whatever the host
        has seen), so in-flight messages from the abandoned rollout
        are fenced: anything still in the old session dies with it,
        and anything re-sent at the old epoch is Nacked stale.  The
        restored contents are pushed as a full replay, and functions
        the abandoned rollout installed that the snapshot does not
        want are retired after the replayed ``UpdateRules`` has
        dropped their rules — all as one batch, since it rewrites a
        live enclave.
        """
        ds = self.desired(host)
        extras = [name for name in ds.functions
                  if name not in snapshot.functions]
        ds.functions = {name: FunctionSpec(spec.source_fn,
                                           dict(spec.kwargs))
                        for name, spec in snapshot.functions.items()}
        ds.rules = list(snapshot.rules)
        ds.globals = dict(snapshot.globals)
        ds.epoch = max(ds.epoch, snapshot.epoch) + 1
        self.restores += 1
        self._m_restores.inc()
        with self.batch(host) as batch:
            self.replay(host)
            for name in extras:
                self._send(host, RemoveFunction(
                    host=host, epoch=ds.epoch, name=name))
        return batch.pending

    # -- recovery ----------------------------------------------------------

    def replay(self, host: str) -> None:
        """Fence the old session and re-send the desired state.

        Install order is preserved; globals follow their functions;
        the rule set goes last as one idempotent ``UpdateRules`` —
        so a freshly restarted (empty) enclave converges to exactly
        the desired state, and a live enclave is unchanged.  Sent as
        bare messages, one per item: the empty enclave a restart
        leaves runs no function until the rule set lands, so no
        packet sees a mix.  Inside :meth:`batch` they join the batch.
        """
        ds = self.desired(host)
        self.endpoint.reset_peer(self.agent_addr(host))
        self.replays += 1
        self._m_replays.inc()
        for name, spec in ds.functions.items():
            self._send(host, InstallFunction(
                host=host, epoch=ds.epoch, name=name,
                program=self._artifact(name, spec.source_fn,
                                       spec.kwargs),
                kwargs=_binding_options(spec.kwargs)))
        for (function, gname, kind, key), values in \
                ds.globals.items():
            self._send(host, UpdateGlobals(
                host=host, epoch=ds.epoch, function=function,
                name=gname, kind=kind, key=key, values=values))
        self._send(host, UpdateRules(
            host=host, epoch=ds.epoch, rules=tuple(ds.rules)))

    # -- inbound traffic ---------------------------------------------------

    def _handle(self, src: str,
                payload: ControlMessage) -> Optional[Outcome]:
        if isinstance(payload, Hello):
            self.hellos_handled += 1
            self._m_hellos.inc()
            host = payload.host
            if host in self._agent_addrs:
                # Ack the Hello first (the outcome), then replay on
                # the fresh session.
                self.replay(host)
                return Outcome(True, result=self.desired(host).epoch)
            return Outcome(False,
                           reason=f"unknown host {host!r}")
        if isinstance(payload, StatsReport):
            self.reports_received += 1
            self._m_reports.inc()
            self._keep_newest(payload)
            for loop in self._loops:
                loop.on_report(payload.host, payload)
            return None
        raise ControlError(
            f"controller: unexpected {type(payload).__name__} "
            f"from {src}")

    def _heard(self, env: Envelope) -> None:
        """Any envelope from a host is liveness; an Ack's report is
        its state.  Ack-borne reports carry no samples, so the loops
        do not see them."""
        host = self._hosts_by_addr.get(env.src)
        if host is None:
            return
        scheduler = self.endpoint.scheduler
        self.last_heard_ns[host] = (scheduler.now
                                    if scheduler is not None else 0)
        payload = env.payload
        if type(payload) is Ack and payload.report is not None:
            self._keep_newest(payload.report)
        if self.on_host_change is not None:
            self.on_host_change(host)

    def _expired(self, peer: str, pending: PendingSend) -> None:
        host = self._hosts_by_addr.get(peer)
        if host is not None and self.on_host_change is not None:
            self.on_host_change(host)

    def _keep_newest(self, report: StatsReport) -> None:
        """Store ``report`` unless a newer one is stored: a duplicated
        or delayed report must not roll ``latest_report`` back.  One
        burst's Acks are built at one instant, so the epoch breaks
        ties."""
        held = self.latest_report.get(report.host)
        if held is None or (report.at_ns, report.applied_epoch) >= \
                (held.at_ns, held.applied_epoch):
            self.latest_report[report.host] = report

    def _record_nack(self, peer: str, pending: PendingSend) -> None:
        self.nack_log.append((peer, pending.reason))
        self._m_nacks.inc()
        if pending.reason == STALE_EPOCH:
            self.stale_nacks_seen += 1
            self._m_stale_nacks.inc()

    # -- control loops -----------------------------------------------------

    def add_loop(self, loop: ControlLoop) -> None:
        self._loops.append(loop)

    def clear_loops(self) -> None:
        """Detach all control loops (telemetry keeps arriving but no
        longer triggers reconfiguration)."""
        self._loops.clear()

    # -- convergence -------------------------------------------------------

    def pending_count(self) -> int:
        return self.endpoint.pending_count()

    def in_sync(self, host: str) -> bool:
        """All rollouts to ``host`` delivered and the agent's newest
        report — pushed, or carried on the last Ack — shows the
        current epoch."""
        if self.endpoint.pending_count(self.agent_addr(host)):
            return False
        report = self.latest_report.get(host)
        return (report is not None and
                report.applied_epoch >= self.desired(host).epoch)

    def summary(self) -> Dict[str, object]:
        return {
            "hosts": {h: {"epoch": self.desired(h).epoch,
                          "pending": self.endpoint.pending_count(
                              self.agent_addr(h))}
                      for h in self.hosts()},
            "channel": self.endpoint.stats.as_dict(),
            "reports_received": self.reports_received,
            "hellos_handled": self.hellos_handled,
            "replays": self.replays,
            "restores": self.restores,
            "stale_nacks_seen": self.stale_nacks_seen,
        }
