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

Telemetry flows the other way: agents push ``StatsReport`` messages
(best-effort), the plane records the latest per host and feeds every
registered *control loop* — closing the paper's coarse-timescale loop
(Section 2.1: PIAS thresholds from the observed flow-size
distribution, WCMP weights from observed path capacities).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..lang.annotations import DEFAULT_PACKET_SCHEMA
from ..lang.compiler import CompiledAction, compile_action
from ..telemetry import NULL_TELEMETRY, Telemetry
from .agent import agent_address
from .channel import (ChannelConfig, ControlEndpoint, Outcome,
                      PendingSend)
from .messages import (ControlError, ControlMessage, GLOBAL_ARRAY,
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

#: Artifacts a plane keeps for re-sends and replays, oldest dropped
#: first: far more than the functions a fleet runs, a bound for a
#: control loop that keeps replacing one with fresh source.
_ARTIFACT_LIMIT = 256


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
        self._desired: Dict[str, DesiredState] = {}
        self._agent_addrs: Dict[str, str] = {}
        self.latest_report: Dict[str, StatsReport] = {}
        self.reports_received = 0
        self.hellos_handled = 0
        self.replays = 0
        self.restores = 0
        self.stale_nacks_seen = 0
        self.nack_log: List[Tuple[str, str]] = []
        self._loops: List[ControlLoop] = []
        self._artifacts: Dict[tuple, CompiledAction] = {}
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
        self._agent_addrs[host] = (address if address is not None
                                   else agent_address(host))
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

    def _send(self, host: str, msg: ControlMessage) -> PendingSend:
        return self.endpoint.send(self.agent_addr(host), msg)

    def _artifact(self, name: str, source_fn,
                  kwargs) -> CompiledAction:
        """The artifact an install of ``source_fn`` as ``name`` ships.

        Compiled on the first send of each distinct (name, source,
        schemas, options) against the canonical packet schema, then
        shared by every later send — other hosts, replays, rollbacks —
        so a fleet rollout compiles each function once, not once per
        host.  An artifact handed in is shipped as it is.
        """
        if isinstance(source_fn, CompiledAction):
            return source_fn
        key = (name, source_fn, id(kwargs.get("message_schema")),
               id(kwargs.get("global_schema")),
               kwargs.get("optimize_tail_calls", True))
        action = self._artifacts.get(key)
        if action is None:
            # The cached artifact holds both schemas, so their ids in
            # the key stay theirs for as long as the entry lives.
            action = compile_action(
                source_fn, packet_schema=DEFAULT_PACKET_SCHEMA,
                name=name, **{k: kwargs[k] for k in COMPILE_OPTIONS
                              if k in kwargs})
            if len(self._artifacts) >= _ARTIFACT_LIMIT:
                del self._artifacts[next(iter(self._artifacts))]
            self._artifacts[key] = action
        return action

    def install_function(self, host: str, name: str, source_fn,
                         **kwargs) -> PendingSend:
        ds = self.desired(host)
        action = self._artifact(name, source_fn, kwargs)
        ds.epoch += 1
        ds.functions[name] = FunctionSpec(source_fn, dict(kwargs))
        return self._send(host, InstallFunction(
            host=host, epoch=ds.epoch, name=name, program=action,
            kwargs=_binding_options(kwargs)))

    def replace_function(self, host: str, name: str, source_fn,
                         **kwargs) -> PendingSend:
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

    def remove_function(self, host: str, name: str) -> PendingSend:
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
                     next_table: Optional[int] = None) -> PendingSend:
        ds = self.desired(host)
        ds.epoch += 1
        spec = RuleSpec(pattern=pattern, function=function,
                        table_id=table_id, priority=priority,
                        next_table=next_table)
        ds.rules.append(spec)
        return self._send(host, InstallRule(host=host, epoch=ds.epoch,
                                            rule=spec))

    def update_rules(self, host: str,
                     rules: List[RuleSpec]) -> PendingSend:
        ds = self.desired(host)
        ds.epoch += 1
        ds.rules = list(rules)
        return self._send(host, UpdateRules(host=host, epoch=ds.epoch,
                                            rules=tuple(rules)))

    def set_global(self, host: str, function: str, name: str,
                   value: int) -> PendingSend:
        return self._set_global(host, function, name, GLOBAL_SCALAR,
                                None, value)

    def set_global_array(self, host: str, function: str, name: str,
                         values) -> PendingSend:
        return self._set_global(host, function, name, GLOBAL_ARRAY,
                                None, tuple(values))

    def set_global_records(self, host: str, function: str, name: str,
                           records) -> PendingSend:
        frozen = tuple(tuple(r) for r in records)
        return self._set_global(host, function, name, GLOBAL_RECORDS,
                                None, frozen)

    def set_global_keyed(self, host: str, function: str, name: str,
                         key: tuple, values) -> PendingSend:
        return self._set_global(host, function, name, GLOBAL_KEYED,
                                tuple(key), tuple(values))

    def _set_global(self, host: str, function: str, name: str,
                    kind: str, key: Optional[tuple],
                    values) -> PendingSend:
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
                        snapshot: DesiredState) -> List[PendingSend]:
        """Roll ``host`` back to a previously snapshotted state.

        The epoch keeps moving *forward* (one past whatever the host
        has seen), so in-flight messages from the abandoned rollout
        are fenced: anything still in the old session dies with it,
        and anything re-sent at the old epoch is Nacked stale.  The
        restored contents are pushed as a full replay; functions the
        abandoned rollout installed that the snapshot does not want
        are retired last, after the replayed ``UpdateRules`` has
        dropped their rules.
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
        sends = self.replay(host)
        for name in extras:
            sends.append(self._send(host, RemoveFunction(
                host=host, epoch=ds.epoch, name=name)))
        return sends

    # -- recovery ----------------------------------------------------------

    def replay(self, host: str) -> List[PendingSend]:
        """Fence the old session and re-send the desired state.

        Install order is preserved; globals follow their functions;
        the rule set goes last as one idempotent ``UpdateRules`` —
        so a freshly restarted (empty) enclave converges to exactly
        the desired state, and a live enclave is unchanged.
        """
        ds = self.desired(host)
        self.endpoint.reset_peer(self.agent_addr(host))
        self.replays += 1
        self._m_replays.inc()
        sends: List[PendingSend] = []
        for name, spec in ds.functions.items():
            sends.append(self._send(host, InstallFunction(
                host=host, epoch=ds.epoch, name=name,
                program=self._artifact(name, spec.source_fn,
                                       spec.kwargs),
                kwargs=_binding_options(spec.kwargs))))
        for (function, gname, kind, key), values in \
                ds.globals.items():
            sends.append(self._send(host, UpdateGlobals(
                host=host, epoch=ds.epoch, function=function,
                name=gname, kind=kind, key=key, values=values)))
        sends.append(self._send(host, UpdateRules(
            host=host, epoch=ds.epoch, rules=tuple(ds.rules))))
        return sends

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
            self.latest_report[payload.host] = payload
            for loop in self._loops:
                loop.on_report(payload.host, payload)
            return Outcome(True)
        raise ControlError(
            f"controller: unexpected {type(payload).__name__} "
            f"from {src}")

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
        """All rollouts to ``host`` delivered and the agent reports
        (via its last telemetry) the current epoch."""
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
