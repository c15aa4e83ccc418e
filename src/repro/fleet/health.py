"""Health gates: is an updated enclave actually healthy?

An Ack only proves the config message was applied; the health gate
decides whether the *enclave survived the change* before the rollout
widens its blast radius.  Gates read a :class:`HostHealth` view —
channel convergence, the freshest ``StatsReport`` (pushed, or carried
on a config Ack; its ``health`` mapping the agent fills from its
:meth:`~repro.control.agent.EnclaveAgent.set_health_source`) and when
the plane last heard from the host — and return one of three
verdicts:

``HEALTHY``
    confirm the host; the wave may advance once all hosts confirm.
``WAIT``
    not enough evidence yet (no fresh report, epoch lagging); keep
    polling until the wave times out.
``FAIL``
    positive evidence of breakage; the wave fails immediately and the
    orchestrator pauses or rolls back per policy.

A gate also says how often it must be asked (:attr:`HealthGate.
event_driven`): only when the host's view changed, or at every poll.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..control.messages import StatsReport

HEALTHY = "healthy"
WAIT = "wait"
FAIL = "fail"


@dataclass
class HostHealth:
    """Everything a gate may consult about one host.

    An agent whose state did not change reports only on its heartbeat,
    so a report's age alone would call a quiet, live host stale:
    :attr:`report_age_ns` counts from the later of the report and the
    last message of any kind heard from the host.
    """

    host: str
    now_ns: int
    #: Channel-level convergence: no pending sends and the agent's
    #: newest report carries at least the target epoch.
    in_sync: bool
    target_epoch: int
    #: Freshest StatsReport, or None if the host never reported.
    report: Optional[StatsReport] = None
    #: When the plane last received any message from the host.
    heard_ns: Optional[int] = None

    @property
    def report_age_ns(self) -> Optional[int]:
        if self.report is None:
            return None
        heard = self.report.at_ns
        if self.heard_ns is not None:
            heard = max(heard, self.heard_ns)
        return self.now_ns - heard


class HealthGate:
    """Default gate: healthy as soon as the channel converged.

    :attr:`event_driven` is the gate's contract with the orchestrator.
    True says the verdict depends on the :class:`HostHealth` alone,
    and that ``now_ns`` can only ever push it toward ``WAIT``: a host
    whose view has not changed since it was judged ``WAIT`` would be
    judged ``WAIT`` again, so the orchestrator asks again only about
    hosts the control plane reports a change for
    (:attr:`~repro.control.plane.ControlPlane.on_host_change`).
    False — a verdict that reads anything else, or that time can turn
    ``HEALTHY`` — has every unconfirmed host asked at every poll.  A
    subclass is False unless its own body says True.
    """

    event_driven = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.event_driven = cls.__dict__.get("event_driven", False)

    def verdict(self, health: HostHealth) -> str:
        return HEALTHY if health.in_sync else WAIT


class EpochHealthGate(HealthGate):
    """Production-shaped gate: fresh post-update telemetry, no
    interpreter faults, required functions present.

    - the agent must have *reported at the target epoch* — a config
      Ack's report counts — and been heard from within
      ``max_report_age_ns`` (an enclave that applied the config and
      then wedged stops confirming);
    - any per-function ``faults`` increment observed at the target
      epoch fails the wave (the program crashes in situ);
    - ``require_functions`` must all appear in the report's stats
      (the data plane is actually running the program);
    - a ``health`` mapping with ``ok: False`` fails the wave
      (agent-local probe said so).

    Event-driven: time enters only through the report's age, which
    can only grow and only turns the verdict to ``WAIT``.
    """

    event_driven = True

    def __init__(self, max_report_age_ns: int,
                 require_functions: Sequence[str] = (),
                 max_faults: int = 0) -> None:
        self.max_report_age_ns = max_report_age_ns
        self.require_functions = tuple(require_functions)
        self.max_faults = max_faults

    def verdict(self, health: HostHealth) -> str:
        if not health.in_sync:
            return WAIT
        report = health.report
        if report is None or \
                report.applied_epoch < health.target_epoch:
            return WAIT
        age = health.report_age_ns
        if age is None or age > self.max_report_age_ns:
            return WAIT
        if report.health.get("ok") is False:
            return FAIL
        faults = sum(int(f.get("faults", 0))
                     for f in report.stats.values())
        if faults > self.max_faults:
            return FAIL
        for name in self.require_functions:
            if name not in report.stats:
                return WAIT
        return HEALTHY


class CallbackGate(HealthGate):
    """Wrap an arbitrary ``fn(HostHealth) -> verdict``.

    ``fn`` may read anything, so the gate is not event-driven: every
    unconfirmed host is asked at every poll.
    """

    def __init__(self, fn: Callable[[HostHealth], str]) -> None:
        self.fn = fn

    def verdict(self, health: HostHealth) -> str:
        return self.fn(health)
