"""The staged rollout driver.

:class:`FleetOrchestrator` pushes one :class:`~repro.fleet.program.
FleetProgram` across a fleet, one :class:`~repro.fleet.plan.Wave` at
a time, entirely through the existing control plane:

1. **Install** — at wave start, snapshot each host's desired state
   (the rollback point), then apply the program: every op bumps the
   host's epoch, and the host gets them all as one batch through the
   reliable channel, which its agent applies whole or not at all.
2. **Await Acks** — each host's one ``PendingSend`` must resolve.  A
   send superseded by a session reset (the host restarted mid-wave and
   the plane replayed its desired state) is *not* a failure: the
   replay carries the same target epoch, and convergence is judged by
   :meth:`~repro.control.plane.ControlPlane.in_sync`.
3. **Health-gate** — each host confirms only when the gate
   (:mod:`repro.fleet.health`) returns ``HEALTHY`` from its freshest
   ``StatsReport``.  ``FAIL`` fails the wave immediately.
4. **Advance, pause, or roll back** — a confirmed wave advances
   (after an optional settle window); a failed or timed-out wave
   either pauses the rollout or restores every touched host to its
   snapshot.  Rollback keeps epochs moving *forward* — stragglers
   from the abandoned wave die with their fenced session or are
   Nacked ``stale-epoch``, never applied.

The orchestrator is a pure control-plane client: it owns no sockets
and no threads, just a poll timer on the supplied scheduler, so it
runs identically on the simulator or (with a real scheduler) a
wall-clock deployment.

A poll costs what changed, not the wave's size.  The orchestrator
sets the plane's host-change hook
(:attr:`~repro.control.plane.ControlPlane.on_host_change`) and marks
a host dirty when anything about it may have moved; a poll judges the
dirty hosts only, in wave order, and keeps counters of the hosts
still unacked and unconfirmed.  A host not judged would have
been judged as before: its sends did not resolve and, for an
event-driven gate (:attr:`~repro.fleet.health.HealthGate.
event_driven`), its verdict is still ``WAIT``.  A gate that is not
event-driven has every unconfirmed host judged at every poll.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..control.channel import PendingSend
from ..control.messages import STALE_EPOCH
from ..control.plane import ControlPlane, DesiredState
from ..netsim.simulator import MS
from ..telemetry import NULL_TELEMETRY, Telemetry
from .health import FAIL, HEALTHY, HealthGate, HostHealth
from .plan import RolloutPlan, Wave
from .program import FleetProgram
from .status import (ACKED, CONFIRMED, FAILED, HostStatus, INSTALLING,
                     PENDING, ROLLED_BACK, ROLLING_BACK, RolloutStatus,
                     WAVE_ABANDONED, WAVE_CONFIRMED, WAVE_FAILED,
                     WAVE_RUNNING, WaveRecord)

# Orchestrator states.
IDLE = "idle"
RUNNING = "running"
SETTLING = "settling"
PAUSED = "paused"
ROLLING_BACK_FLEET = "rolling-back"
DONE = "done"
ROLLED_BACK_FLEET = "rolled-back"
ABORTED = "aborted"

TERMINAL = (DONE, ROLLED_BACK_FLEET, ABORTED)

#: ``on_failure`` policies.
ROLLBACK = "rollback"
PAUSE = "pause"


class OrchestratorError(Exception):
    """The orchestrator was driven through an invalid transition."""


@dataclass
class RolloutConfig:
    """Policy knobs for one rollout."""

    #: How often the orchestrator re-evaluates the current wave.
    poll_interval_ns: int = 2 * MS
    #: A wave that has not confirmed within this window fails.
    wave_timeout_ns: int = 2_000 * MS
    #: Soak time after a confirmed wave before the next one starts.
    settle_ns: int = 0
    #: What a failed wave triggers: :data:`ROLLBACK` or :data:`PAUSE`.
    on_failure: str = ROLLBACK
    #: Rollback that has not re-converged within this window aborts.
    rollback_timeout_ns: int = 2_000 * MS


class FleetOrchestrator:
    """Drives one program across one plan, wave by wave."""

    def __init__(self, plane: ControlPlane, plan: RolloutPlan,
                 program: FleetProgram, scheduler,
                 gate: Optional[HealthGate] = None,
                 config: Optional[RolloutConfig] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.plane = plane
        self.plan = plan
        self.program = program
        self.scheduler = scheduler
        self.gate = gate if gate is not None else HealthGate()
        self.config = config if config is not None else RolloutConfig()
        if self.config.on_failure not in (ROLLBACK, PAUSE):
            raise OrchestratorError(
                f"unknown on_failure policy "
                f"{self.config.on_failure!r}")
        self.telemetry = (telemetry if telemetry is not None
                          else NULL_TELEMETRY)
        registry = self.telemetry.registry
        self._m_waves_started = registry.counter(
            "fleet_waves_started_total")
        self._m_waves_confirmed = registry.counter(
            "fleet_waves_confirmed_total")
        self._m_wave_failures = registry.counter(
            "fleet_wave_failures_total")
        self._m_rollbacks = registry.counter("fleet_rollbacks_total")
        self._m_hosts_confirmed = registry.counter(
            "fleet_hosts_confirmed_total")
        self._m_current_wave = registry.gauge("fleet_current_wave")
        self._m_wave_duration = registry.histogram(
            "fleet_wave_duration_ns")

        self.state = IDLE
        self.current_wave = -1
        self.started_ns = -1
        self.finished_ns = -1
        self.waves: List[WaveRecord] = [
            WaveRecord(index=w.index, hosts=w.hosts) for w in plan]
        self.host_status: Dict[str, HostStatus] = {
            h: HostStatus(host=h) for h in plan.hosts()}
        self._snapshots: Dict[str, DesiredState] = {}
        #: Per host, the send of its wave or restore until
        #: :meth:`_scan_pendings` has seen it resolve, then None.
        self._unresolved: Dict[str, Optional[PendingSend]] = {}
        # The hosts the current phase judges (the wave's, or every
        # touched host while rolling back) with their positions, those
        # whose view changed since they were last judged, the phase's
        # hosts still INSTALLING, and those not yet CONFIRMED (or
        # ROLLED_BACK).
        self._order: Dict[str, int] = {}
        self._dirty: Set[str] = set()
        self._unacked = 0
        self._unsettled = 0
        self._settle_until = -1
        self._rollback_started = -1
        self._tick_gen = 0
        self.ticks = 0

        # Optional observers: fn(orchestrator, WaveRecord) for wave
        # events, fn(orchestrator) for rollout-level events.
        self.on_wave_start: Optional[Callable] = None
        self.on_wave_confirmed: Optional[Callable] = None
        self.on_rollout_done: Optional[Callable] = None
        self.on_rollback_start: Optional[Callable] = None
        self.on_rollback_done: Optional[Callable] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def now(self) -> int:
        return self.scheduler.now

    def start(self) -> None:
        """Begin the rollout: canary wave first."""
        if self.state != IDLE:
            raise OrchestratorError(
                f"cannot start from state {self.state!r}")
        self.state = RUNNING
        self.started_ns = self.now
        self.plane.on_host_change = self._host_changed
        self._start_wave(0)
        self._arm_tick()

    def pause(self) -> None:
        if self.state not in (RUNNING, SETTLING):
            raise OrchestratorError(
                f"cannot pause from state {self.state!r}")
        self.state = PAUSED

    def resume(self) -> None:
        """Resume a paused rollout; the current wave's timeout
        restarts from now."""
        if self.state != PAUSED:
            raise OrchestratorError(
                f"cannot resume from state {self.state!r}")
        record = self.waves[self.current_wave]
        record.started_ns = self.now
        record.outcome = WAVE_RUNNING
        record.failure_reason = ""
        # Hosts the failed evaluation marked FAILED get a clean slate:
        # the operator resumed because the condition was fixed, so
        # they must be re-judged, not instantly re-fail the wave.
        for host in self.plan.waves[self.current_wave].hosts:
            status = self.host_status[host]
            if status.state == FAILED:
                status.state = INSTALLING
                status.failure_reason = ""
        self._judge_all(CONFIRMED)
        self.state = RUNNING
        self._arm_tick()

    def rollback(self) -> None:
        """Manually abandon the rollout and restore every touched
        host to its snapshot."""
        if self.state in TERMINAL or self.state == ROLLING_BACK_FLEET:
            raise OrchestratorError(
                f"cannot roll back from state {self.state!r}")
        self._start_rollback("manual")
        self._arm_tick()

    # -- wave machinery ----------------------------------------------------

    def _start_wave(self, index: int) -> None:
        self.current_wave = index
        self._m_current_wave.set(index)
        wave: Wave = self.plan.waves[index]
        record = self.waves[index]
        record.started_ns = self.now
        self._m_waves_started.inc()
        for host in wave.hosts:
            status = self.host_status[host]
            status.wave = index
            status.state = INSTALLING
            status.installed_at_ns = self.now
            self._snapshots[host] = self.plane.snapshot_desired(host)
            self._unresolved[host] = self.program.apply(self.plane,
                                                        host)
            status.target_epoch = self.plane.desired(host).epoch
        self._order = {host: i for i, host in enumerate(wave.hosts)}
        self._judge_all(CONFIRMED)
        if self.on_wave_start is not None:
            self.on_wave_start(self, record)

    def _arm_tick(self) -> None:
        self._tick_gen += 1
        self.scheduler.post(self.config.poll_interval_ns,
                            self._tick, self._tick_gen)

    def _tick(self, gen: int) -> None:
        if gen != self._tick_gen or self.state in TERMINAL or \
                self.state == PAUSED:
            return  # orphaned timer or nothing to drive
        self.ticks += 1
        if self.state == SETTLING:
            if self.now >= self._settle_until:
                self.state = RUNNING
                self._advance()
        elif self.state == RUNNING:
            self._evaluate_wave()
        elif self.state == ROLLING_BACK_FLEET:
            self._evaluate_rollback()
        if self.state not in TERMINAL and self.state != PAUSED:
            self.scheduler.post(self.config.poll_interval_ns, self._tick, gen)

    # -- event-driven judging ----------------------------------------------

    def _host_changed(self, host: str) -> None:
        """The plane's host-change hook: ``host``'s view may have
        changed."""
        if host in self._order:
            self._dirty.add(host)

    def _judge_all(self, settled: str) -> None:
        """Mark every host of the phase dirty and recount the hosts
        not yet acked and not yet ``settled``."""
        self._dirty = set(self._order)
        states = [self.host_status[h].state for h in self._order]
        self._unacked = states.count(INSTALLING)
        self._unsettled = len(states) - states.count(settled)

    def _due(self, settled: str, every: bool) -> List[str]:
        """The hosts this poll judges, in phase order: the dirty ones,
        or with ``every`` all of them; never one already ``settled``.
        Clears the dirty set."""
        if every:
            hosts = list(self._order)
        else:
            hosts = sorted(self._dirty, key=self._order.__getitem__)
        self._dirty.clear()
        status = self.host_status
        return [h for h in hosts if status[h].state != settled]

    def _evaluate_wave(self) -> None:
        record = self.waves[self.current_wave]
        # A host confirmed before its Acks resolved still counts as
        # awaited at the poll that confirms it.
        acks_awaited = False
        every = not getattr(self.gate, "event_driven", False)
        for host in self._due(CONFIRMED, every):
            status = self.host_status[host]
            acked = self._scan_pendings(host, status)
            if status.state == FAILED:
                self._fail_wave(record, status.failure_reason)
                return
            if acked and status.state == INSTALLING:
                status.state = ACKED
                status.acked_at_ns = self.now
                self._unacked -= 1
            health = self._host_health(host, status)
            verdict = self.gate.verdict(health)
            if verdict == FAIL:
                status.state = FAILED
                status.failure_reason = "health-gate"
                self._fail_wave(record, f"health gate failed "
                                        f"on {host}")
                return
            if verdict == HEALTHY:
                if status.state == INSTALLING:
                    self._unacked -= 1
                    acks_awaited = True
                status.state = CONFIRMED
                status.confirmed_at_ns = self.now
                self._unsettled -= 1
                self._m_hosts_confirmed.inc()
        if not (self._unacked or acks_awaited) and record.acked_ns < 0:
            record.acked_ns = self.now
        if not self._unsettled:
            record.confirmed_ns = self.now
            record.outcome = WAVE_CONFIRMED
            self._m_waves_confirmed.inc()
            if record.duration_ns is not None:
                self._m_wave_duration.observe(record.duration_ns)
            if self.on_wave_confirmed is not None:
                self.on_wave_confirmed(self, record)
            if self.config.settle_ns > 0:
                self.state = SETTLING
                self._settle_until = self.now + self.config.settle_ns
            else:
                self._advance()
            return
        if self.now - record.started_ns > self.config.wave_timeout_ns:
            self._fail_wave(record, "wave timeout")

    def _scan_pendings(self, host: str, status: HostStatus) -> bool:
        """Classify the host's send once, when it has resolved: a
        stale Nack is counted (the fence did its job), any other Nack
        or retry exhaustion is a host failure.  A superseded send is
        fine — a session reset (restart -> replay) re-sent the same
        desired state.  True once the send has resolved."""
        p = self._unresolved[host]
        if p is None:
            return True
        if not p.done:
            return False
        self._unresolved[host] = None
        if p.nacked:
            if p.reason == STALE_EPOCH:
                status.stale_nacks += 1
            else:
                status.send_failures += 1
                status.state = FAILED
                status.failure_reason = f"nack:{p.reason or 'error'}"
        elif p.failed:
            status.send_failures += 1
            status.state = FAILED
            status.failure_reason = "retries-exhausted"
        return True

    def _host_health(self, host: str,
                     status: HostStatus) -> HostHealth:
        return HostHealth(
            host=host, now_ns=self.now,
            in_sync=self.plane.in_sync(host),
            target_epoch=status.target_epoch,
            report=self.plane.latest_report.get(host),
            heard_ns=self.plane.last_heard_ns.get(host))

    def _advance(self) -> None:
        if self.current_wave + 1 < len(self.plan.waves):
            self._start_wave(self.current_wave + 1)
            return
        self._finish(DONE)
        self._m_current_wave.set(len(self.plan.waves))
        if self.on_rollout_done is not None:
            self.on_rollout_done(self)

    def _fail_wave(self, record: WaveRecord, reason: str) -> None:
        record.outcome = WAVE_FAILED
        record.failure_reason = reason
        self._m_wave_failures.inc()
        if self.config.on_failure == PAUSE:
            self.state = PAUSED
            return
        self._start_rollback(reason)

    def _finish(self, state: str) -> None:
        self.state = state
        self.finished_ns = self.now
        if self.plane.on_host_change == self._host_changed:
            self.plane.on_host_change = None

    # -- rollback ----------------------------------------------------------

    def _touched_hosts(self) -> List[str]:
        """Hosts the rollout has already written to (wave order)."""
        out: List[str] = []
        for wave in self.plan.waves[:self.current_wave + 1]:
            out.extend(wave.hosts)
        return out

    def _start_rollback(self, reason: str) -> None:
        self.state = ROLLING_BACK_FLEET
        self._rollback_started = self.now
        self._m_rollbacks.inc()
        for record in self.waves:
            if record.outcome == WAVE_RUNNING and \
                    record.started_ns >= 0:
                record.outcome = WAVE_ABANDONED
                record.failure_reason = record.failure_reason or reason
        touched = self._touched_hosts()
        for host in touched:
            status = self.host_status[host]
            status.state = ROLLING_BACK
            self._unresolved[host] = self.plane.restore_desired(
                host, self._snapshots[host])
            status.target_epoch = self.plane.desired(host).epoch
        self._order = {host: i for i, host in enumerate(touched)}
        self._judge_all(ROLLED_BACK)
        if self.on_rollback_start is not None:
            self.on_rollback_start(self)

    def _evaluate_rollback(self) -> None:
        """Judge the dirty touched hosts: no gate, only
        :meth:`~repro.control.plane.ControlPlane.in_sync`, which moves
        only with what the plane reports."""
        for host in self._due(ROLLED_BACK, every=False):
            status = self.host_status[host]
            self._scan_pendings(host, status)
            # A send failure during rollback is not terminal for the
            # host — restore keeps being re-driven by replay on
            # reconnect — but it does keep the fleet un-converged.
            if status.state == FAILED:
                status.state = ROLLING_BACK
            if self.plane.in_sync(host):
                status.state = ROLLED_BACK
                self._unsettled -= 1
        if not self._unsettled:
            self._finish(ROLLED_BACK_FLEET)
            if self.on_rollback_done is not None:
                self.on_rollback_done(self)
            return
        if self.now - self._rollback_started > \
                self.config.rollback_timeout_ns:
            self._finish(ABORTED)

    # -- views -------------------------------------------------------------

    def status(self) -> RolloutStatus:
        return RolloutStatus(
            state=self.state, current_wave=self.current_wave,
            waves=list(self.waves),
            hosts=[self.host_status[h] for h in self.plan.hosts()])

    @property
    def time_to_last_ack_ns(self) -> Optional[int]:
        """Rollout start -> the final wave's last Ack."""
        if self.started_ns < 0:
            return None
        acked = [w.acked_ns for w in self.waves]
        if any(a < 0 for a in acked):
            return None
        return max(acked) - self.started_ns

    @property
    def time_to_converged_ns(self) -> Optional[int]:
        """Rollout start -> every host confirmed (state DONE)."""
        if self.state != DONE or self.started_ns < 0:
            return None
        return self.finished_ns - self.started_ns

    def summary(self) -> dict:
        counts = self.status().counts()
        return {
            "state": self.state,
            "waves": len(self.plan.waves),
            "current_wave": self.current_wave,
            "hosts": len(self.host_status),
            "host_states": counts,
            "ticks": self.ticks,
            "time_to_last_ack_ns": self.time_to_last_ack_ns,
            "time_to_converged_ns": self.time_to_converged_ns,
            "stale_nacks": sum(s.stale_nacks
                               for s in self.host_status.values()),
            "wave_records": [
                {"index": w.index, "hosts": len(w.hosts),
                 "outcome": w.outcome,
                 "started_ns": w.started_ns,
                 "acked_ns": w.acked_ns,
                 "confirmed_ns": w.confirmed_ns,
                 "failure_reason": w.failure_reason}
                for w in self.waves],
        }
