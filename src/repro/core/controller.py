"""The logically centralized Eden controller.

Section 3.2: a network function is conceptually a control-plane part —
anything needing global visibility or coarse timescales — plus a
data-plane part executed by stages and enclaves.  The controller hosts
the former and programs the latter through the Stage API (Table 3) and
the enclave API.

Since the control-plane channel landed (:mod:`repro.control`), the
enclave API here is a thin facade over that channel: every mutating
call becomes a typed control message, versioned with the target
enclave's epoch, and travels through the reliable channel to the
host's :class:`~repro.control.agent.EnclaveAgent`.

* ``transport="inproc"`` (the default) uses a synchronous, lossless
  in-process transport: each call is delivered, applied and acked
  before it returns, results come back synchronously, and apply
  errors re-raise in the caller — the original direct-call semantics,
  preserved exactly.
* ``transport="sim"`` (with a :class:`~repro.netsim.simulator.
  Simulator`) schedules delivery as simulator events with configurable
  delay, jitter and injected faults; mutating calls return
  :class:`~repro.control.channel.PendingSend` handles that complete as
  acks arrive.

This module also keeps the control-plane computations used by the
paper's case studies — WCMP path weights from topology
(Section 2.1.1), PIAS priority thresholds from the flow-size
distribution (Section 2.1.3), and Pulsar's tenant queue map
(Section 2.1.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from ..control import (ChannelConfig, ControlPlane, EnclaveAgent,
                       FaultInjector, InprocTransport, SimTransport,
                       Transport)
from ..control.channel import PendingSend
from .enclave import Enclave, InstalledFunction
from .stage import Classifier, Stage, StageInfo


class ControllerError(Exception):
    """A controller operation referenced an unknown host/stage/enclave
    or was otherwise invalid."""


@dataclass(frozen=True)
class PathWeight:
    """One weighted path between a source-destination pair.

    ``weight`` is an integer share out of the row's total (the paper's
    probability, scaled); ``path_id`` is the source-routing label the
    end host puts in the packet (VLAN tag in the prototype,
    Section 3.5).
    """

    path_id: int
    weight: int


class Controller:
    """Coordination point with global visibility."""

    def __init__(self, name: str = "controller",
                 transport: Union[str, Transport] = "inproc",
                 sim=None,
                 channel_config: Optional[ChannelConfig] = None,
                 faults: Optional[FaultInjector] = None,
                 telemetry=None) -> None:
        self.name = name
        self.telemetry = telemetry
        self._enclaves: Dict[str, Enclave] = {}
        self._stages: Dict[Tuple[str, str], Stage] = {}
        self._agents: Dict[str, EnclaveAgent] = {}
        self.sim = sim
        if isinstance(transport, Transport):
            self.transport = transport
        elif transport == "inproc":
            self.transport = InprocTransport()
        elif transport == "sim":
            if sim is None:
                raise ControllerError(
                    "transport='sim' needs a Simulator instance")
            self.transport = SimTransport(sim, faults=faults)
        else:
            raise ControllerError(
                f"unknown transport {transport!r}; use 'inproc', "
                f"'sim', or a Transport instance")
        self._scheduler = sim if not self.transport.synchronous \
            else None
        self._rng = sim.rng if sim is not None else random.Random(0)
        self._channel_config = channel_config
        self.plane = ControlPlane(self.transport,
                                  scheduler=self._scheduler,
                                  rng=self._rng,
                                  config=channel_config,
                                  address=f"{name}",
                                  telemetry=telemetry)

    @property
    def synchronous(self) -> bool:
        """True when enclave-API calls complete before returning."""
        return self.transport.synchronous

    # -- registry ----------------------------------------------------------

    def register_enclave(self, host: str, enclave: Enclave) -> None:
        if host in self._enclaves:
            raise ControllerError(
                f"host {host!r} already has an enclave")
        self._enclaves[host] = enclave
        agent = EnclaveAgent(host, enclave, self.transport,
                             scheduler=self._scheduler,
                             rng=self._rng,
                             config=self._channel_config,
                             controller_address=self.plane.address,
                             telemetry=self.telemetry)
        self._agents[host] = agent
        self.plane.attach(host, agent.address)

    def register_stage(self, host: str, stage: Stage) -> None:
        key = (host, stage.name)
        if key in self._stages:
            raise ControllerError(
                f"stage {stage.name!r} already registered at {host!r}")
        self._stages[key] = stage

    def enclave(self, host: str) -> Enclave:
        try:
            return self._enclaves[host]
        except KeyError:
            raise ControllerError(
                f"no enclave registered for host {host!r}") from None

    def agent(self, host: str) -> EnclaveAgent:
        try:
            return self._agents[host]
        except KeyError:
            raise ControllerError(
                f"no agent for host {host!r}") from None

    def stage(self, host: str, stage_name: str) -> Stage:
        try:
            return self._stages[(host, stage_name)]
        except KeyError:
            raise ControllerError(
                f"no stage {stage_name!r} at host {host!r}") from None

    def hosts(self) -> List[str]:
        return sorted(self._enclaves)

    def stages_at(self, host: str) -> List[str]:
        return sorted(name for (h, name) in self._stages if h == host)

    # -- Stage API passthrough (paper Table 3) ------------------------------

    def get_stage_info(self, host: str, stage_name: str) -> StageInfo:
        return self.stage(host, stage_name).get_stage_info()

    def create_stage_rule(self, host: str, stage_name: str,
                          rule_set: str, classifier: Classifier,
                          class_name: str,
                          metadata_fields: Sequence[str]) -> int:
        return self.stage(host, stage_name).create_stage_rule(
            rule_set, classifier, class_name, metadata_fields)

    def remove_stage_rule(self, host: str, stage_name: str,
                          rule_set: str, rule_id: int) -> None:
        self.stage(host, stage_name).remove_stage_rule(rule_set, rule_id)

    # -- enclave API (routed through the control channel) -------------------

    def _finish(self, pending: PendingSend):
        """Resolve one channel send in synchronous (inproc) mode."""
        if not self.synchronous:
            return pending
        if pending.nacked:
            if pending.error is not None:
                raise pending.error
            raise ControllerError(
                f"control message rejected: {pending.reason}")
        return pending.result

    def install_function(self, hosts: Union[str, Iterable[str]],
                         source_fn, **kwargs) -> List:
        """Install an action function at one or many hosts.

        Synchronous mode returns the installed
        :class:`InstalledFunction` objects; over an asynchronous
        transport it returns the in-flight ``PendingSend`` handles.
        """
        name = kwargs.pop("name", None) or \
            getattr(source_fn, "__name__", "action")
        out = []
        for host in self._host_list(hosts):
            self.enclave(host)  # unknown hosts fail fast
            out.append(self._finish(self.plane.install_function(
                host, name, source_fn, **kwargs)))
        return out

    def install_rule(self, hosts: Union[str, Iterable[str]],
                     pattern: str, function: str,
                     **kwargs) -> List:
        """Install a match-action rule; returns rule ids (sync mode)."""
        out = []
        for host in self._host_list(hosts):
            self.enclave(host)
            out.append(self._finish(self.plane.install_rule(
                host, pattern, function, **kwargs)))
        return out

    def set_global(self, hosts: Union[str, Iterable[str]],
                   function: str, name: str, value: int) -> Optional[
                       List[PendingSend]]:
        return self._fan_out_globals(
            hosts, lambda host: self.plane.set_global(
                host, function, name, value))

    def set_global_records(self, hosts: Union[str, Iterable[str]],
                           function: str, name: str,
                           records: Sequence[Sequence[int]]
                           ) -> Optional[List[PendingSend]]:
        return self._fan_out_globals(
            hosts, lambda host: self.plane.set_global_records(
                host, function, name, records))

    def set_global_keyed(self, hosts: Union[str, Iterable[str]],
                         function: str, name: str, key: tuple,
                         values: Sequence[int]
                         ) -> Optional[List[PendingSend]]:
        return self._fan_out_globals(
            hosts, lambda host: self.plane.set_global_keyed(
                host, function, name, key, values))

    def _fan_out_globals(self, hosts, submit) -> Optional[
            List[PendingSend]]:
        pendings = []
        for host in self._host_list(hosts):
            self.enclave(host)
            pendings.append(self._finish(submit(host)))
        return None if self.synchronous else pendings

    def collect_stats(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Monitoring sweep: per-host, per-function counters.

        The network-side analog of the "statistics gathering
        capabilities" the paper notes switches already expose
        (Section 3.5) — here the controller polls its registry
        directly; the pushed-telemetry path lives on
        :attr:`plane` (``StatsReport``).
        """
        return {host: enclave.stats_summary()
                for host, enclave in self._enclaves.items()}

    def replace_function(self, hosts: Union[str, Iterable[str]],
                         name: str, source_fn,
                         **kwargs) -> Optional[List[PendingSend]]:
        """Hot-swap a function's program at one or many hosts,
        preserving data-plane state (Section 3.4.3's dynamic
        updates).

        Raises :class:`ControllerError` when ``name`` was never
        installed at one of the hosts.
        """
        targets = self._host_list(hosts)
        for host in targets:
            if name not in self.enclave(host).functions():
                raise ControllerError(
                    f"cannot replace function {name!r} at host "
                    f"{host!r}: it was never installed")
        pendings = []
        for host in targets:
            host_kwargs = kwargs
            if name not in self.plane.desired(host).functions:
                # Installed out of band (``FunctionChain.deploy``):
                # the plane compiles the replacement against the
                # schemas the installed function has.
                installed = self.enclave(host).function(name)
                host_kwargs = {
                    "message_schema": installed.message_schema,
                    "global_schema": installed.global_schema,
                    **kwargs}
            pendings.append(self._finish(self.plane.replace_function(
                host, name, source_fn, **host_kwargs)))
        return None if self.synchronous else pendings

    def _host_list(self, hosts: Union[str, Iterable[str]]) -> List[str]:
        if isinstance(hosts, str):
            if hosts == "*":
                return self.hosts()
            return [hosts]
        return list(hosts)

    # -- control-plane computations ------------------------------------------

    @staticmethod
    def wcmp_weights(path_capacities: Sequence[Tuple[int, float]],
                     scale: int = 1000) -> List[PathWeight]:
        """Compute WCMP weights from per-path bottleneck capacities.

        ``path_capacities`` is a list of ``(path_id, capacity)``; the
        returned integer weights are proportional to capacity and sum
        to ``scale`` (give or take rounding, corrected on the largest
        entry).  With equal capacities this degenerates to ECMP.
        """
        if not path_capacities:
            raise ControllerError("no paths given")
        total = float(sum(c for _, c in path_capacities))
        if total <= 0:
            raise ControllerError("path capacities must be positive")
        weights = [PathWeight(pid, int(round(scale * c / total)))
                   for pid, c in path_capacities]
        drift = scale - sum(w.weight for w in weights)
        if drift:
            largest = max(range(len(weights)),
                          key=lambda i: weights[i].weight)
            weights[largest] = PathWeight(
                weights[largest].path_id,
                weights[largest].weight + drift)
        return weights

    @staticmethod
    def pias_thresholds(flow_sizes: Sequence[int],
                        num_priorities: int = 3,
                        max_priority: int = 7) -> List[Tuple[int, int]]:
        """Compute PIAS demotion thresholds from observed flow sizes.

        Returns ``(size_limit, priority)`` rows, highest priority
        first, splitting the flow-size distribution into
        ``num_priorities`` equal-probability bands ("these thresholds
        need to be calculated periodically based on the datacenter's
        overall traffic load", Section 2.1.3).  The last band is
        unbounded (represented by a huge limit) at the lowest of the
        chosen priorities.
        """
        if num_priorities < 2:
            raise ControllerError("need at least two priority levels")
        if not flow_sizes:
            raise ControllerError("no flow-size samples")
        ordered = sorted(flow_sizes)
        rows: List[Tuple[int, int]] = []
        for band in range(num_priorities - 1):
            quantile = (band + 1) / num_priorities
            idx = min(len(ordered) - 1,
                      int(quantile * len(ordered)))
            rows.append((ordered[idx],
                         max_priority - band))
        rows.append((1 << 62, max_priority - (num_priorities - 1)))
        # Make limits strictly non-decreasing.
        for i in range(1, len(rows)):
            if rows[i][0] < rows[i - 1][0]:
                rows[i] = (rows[i - 1][0], rows[i][1])
        return rows

    @staticmethod
    def tenant_queue_map(tenants: Sequence[str],
                         base_queue: int = 1) -> Dict[str, int]:
        """Assign each tenant a rate-limited queue id (Pulsar's
        ``queueMap``)."""
        return {tenant: base_queue + i
                for i, tenant in enumerate(sorted(tenants))}
