"""Small-scope exhaustive check of the control plane.

Two hosts get a three-op program, one batch each, and are then rolled
back, all on one ``SimTransport`` heap.  Every combination of fates —
deliver, drop, duplicate, deliver late — of the first :data:`K`
transmissions after the program is sent is run, each with no restart
and with a restart of the host involved right after each delivery.  A
late copy lands :data:`LATE_NS` after the others: past a retransmit of
it, and for some schedules past the session reset of the rollback or
of a restart's replay, where only session fencing keeps it out of the
new session.  Every transmission past the first ``K`` is delivered, so
every run must end converged.

In every run:

* **no stale apply** — once the rollback has reached a host, the host
  applies nothing below the rollback's epoch, in that incarnation or
  a later one, so nothing from the abandoned wave lands after it;
  within one incarnation of an agent the epochs it applies never go
  down; and a config message at an epoch the host has passed, sent
  after convergence, is Nacked ``stale-epoch``;
* **exactly once** — no batch is applied twice in one incarnation,
  whatever was duplicated, retransmitted or late; and every answer the
  plane gets is its host's answer to that very message;
* **convergence** — every host ends with its desired state (the
  baseline the rollback restored) at its desired epoch, with nothing
  left in flight.
"""

import itertools

import pytest

from repro.control import (ChannelConfig, ConfigMessage,
                           InstallFunction, STALE_EPOCH)
from repro.control.agent import EnclaveAgent
from repro.control.plane import ControlPlane
from repro.control.transport import SimTransport
from repro.core import Enclave
from repro.fleet import ProgramBuilder
from repro.lang import (AccessLevel, DEFAULT_PACKET_SCHEMA, Field,
                        Lifetime, schema)
from repro.lang.compiler import compile_action
from repro.netsim.simulator import MS, Simulator

pytestmark = pytest.mark.control_faults

#: Transmissions whose fate is enumerated: 4**K schedules.
K = 4

HOSTS = ("h1", "h2")

LEVEL_SCHEMA = schema("Level", Lifetime.GLOBAL, [
    Field("level", AccessLevel.READ_ONLY, default=1),
])


def base_fn(packet, _global):
    packet.priority = _global.level


def new_fn(packet):
    packet.queue_id = 3


def _compiled(fn, **kwargs):
    return compile_action(fn, packet_schema=DEFAULT_PACKET_SCHEMA,
                          name=fn.__name__, **kwargs)


BASE = _compiled(base_fn, global_schema=LEVEL_SCHEMA)
NEW = _compiled(new_fn)

BASELINE = (ProgramBuilder("baseline")
            .install_function("base_fn", BASE)
            .set_global("base_fn", "level", 2)
            .install_rule("*", "base_fn")
            .done())

PROGRAM = (ProgramBuilder("three-ops")
           .install_function("new_fn", NEW)
           .set_global("base_fn", "level", 7)
           .install_rule("*", "new_fn", priority=5)
           .done())

CONFIG = ChannelConfig(rto_ns=1 * MS, backoff_cap_ns=4 * MS,
                       jitter_ns=0)
ROLLBACK_AFTER_NS = 1_500_000
HORIZON_NS = 500 * MS

#: How much later than the others a late copy lands: twice the first
#: retransmit timeout.
LATE_NS = 2 * CONFIG.rto_ns

#: Fates as (copies, extra delay of each).
DELIVER, DROP, DUPLICATE, LATE = (1, 0), (0, 0), (2, 0), (1, LATE_NS)
FATES = (DELIVER, DROP, DUPLICATE, LATE)


class ScriptedFaults:
    """The fate of the n-th transmission once armed: ``fates[n]`` for
    the first ``len(fates)``, delivered on time after."""

    def __init__(self, fates):
        self.fates = fates
        self.armed = False
        self.sent = 0
        self._delay = 0

    def deliveries(self, env):
        fate = DELIVER
        if self.armed:
            n, self.sent = self.sent, self.sent + 1
            if n < len(self.fates):
                fate = self.fates[n]
        copies, self._delay = fate
        return copies

    def extra_delay(self):
        return self._delay


class Run:
    """One schedule: the program, the rollback, and the restart after
    delivery ``restart_at`` (counted once armed), if any."""

    def __init__(self, fates, restart_at=None):
        self.sim = sim = Simulator(seed=1)
        self.faults = ScriptedFaults(fates)
        self.transport = SimTransport(sim, faults=self.faults)
        self.plane = ControlPlane(self.transport, scheduler=sim,
                                  config=CONFIG)
        self.agents = {}
        #: (time, host, incarnation, epoch, message) per apply;
        #: holding the message keeps its id unique.
        self.applies = []
        #: The plane's handle of every config message it sent.
        self.sent = []
        #: Per config message handled (by id; ``sent`` keeps it
        #: alive), each (ok, reason) its host answered.
        self.answers = {}
        #: Per host, the rollback's epoch, once sent.
        self.rollback_epoch = {}
        self.rollback_ns = None
        for host in HOSTS:
            agent = EnclaveAgent(host, Enclave(f"{host}.enclave"),
                                 self.transport, scheduler=sim,
                                 config=CONFIG)
            agent.endpoint.handler = self._observed(agent)
            self.agents[host] = agent
            self.plane.attach(host)
        send = self.plane.endpoint.send

        def recorded(dst, payload, reliable=True):
            pending = send(dst, payload, reliable)
            if isinstance(payload, ConfigMessage):
                self.sent.append(pending)
            return pending

        self.plane.endpoint.send = recorded
        self.deliveries = 0
        self.restart_at = restart_at
        deliver = self.transport._deliver

        def counted(env):
            deliver(env)
            if not self.faults.armed:
                return
            if self.deliveries == self.restart_at:
                agent_addr = env.dst if env.dst.startswith("agent:") \
                    else env.src
                self.agents[agent_addr[len("agent:"):]].restart()
            self.deliveries += 1

        self.transport._deliver = counted

    def _observed(self, agent):
        handle = agent.endpoint.handler

        def observed(src, payload):
            outcome = handle(src, payload)
            if isinstance(payload, ConfigMessage):
                self.answers.setdefault(id(payload), []).append(
                    (outcome.ok, outcome.reason))
                if outcome.ok:
                    self.applies.append((self.sim.now, agent.host,
                                         agent.restarts, payload.epoch,
                                         payload))
            return outcome
        return observed

    def execute(self):
        sim, plane = self.sim, self.plane
        for host in HOSTS:
            BASELINE.apply(plane, host)
        sim.run(until_ns=20 * MS)
        assert plane.pending_count() == 0
        snapshots = {h: plane.snapshot_desired(h) for h in HOSTS}
        self.faults.armed = True
        for host in HOSTS:
            PROGRAM.apply(plane, host)

        def rollback():
            self.rollback_ns = sim.now
            for host in HOSTS:
                plane.restore_desired(host, snapshots[host])
                self.rollback_epoch[host] = plane.desired(host).epoch

        sim.post(ROLLBACK_AFTER_NS, rollback)
        sim.run(until_ns=HORIZON_NS)
        # A wave-style install at an epoch every host has passed.
        self.probes = [plane.endpoint.send(
            plane.agent_addr(host),
            InstallFunction(host=host, epoch=1, name="zombie"))
            for host in HOSTS]
        sim.run(until_ns=sim.now + 10 * MS)
        return self


def check(run):
    """The three properties of the module docstring."""
    plane = run.plane
    last = {}
    seen = set()
    rolled_back = set()
    for at_ns, host, incarnation, epoch, message in run.applies:
        if host in rolled_back:
            assert epoch >= run.rollback_epoch[host], \
                ("applied past the rollback", run.applies)
        elif at_ns >= run.rollback_ns and \
                epoch >= run.rollback_epoch[host]:
            rolled_back.add(host)
        key = (host, incarnation)
        assert epoch >= last.get(key, 0), ("stale apply", run.applies)
        last[key] = epoch
        assert (key, id(message)) not in seen, \
            ("applied twice", run.applies)
        seen.add((key, id(message)))
    for pending in run.sent:
        if pending.acked or pending.nacked:
            assert (pending.acked, pending.reason) in \
                run.answers.get(id(pending.env.payload), ()), \
                ("answered for another message", pending.env)
    assert plane.pending_count() == 0
    assert [p.reason for p in run.probes] == [STALE_EPOCH] * len(HOSTS)
    for host in HOSTS:
        agent = run.agents[host]
        enclave = agent.enclave
        assert agent.applied_epoch == plane.desired(host).epoch
        assert enclave.functions() == ["base_fn"]
        assert [(r.pattern, r.function) for r in
                enclave.query_rules(0)] == [("*", "base_fn")]
        assert enclave.query_tables() == [0]
        assert enclave.query_global("base_fn") == {"level": 2}


def test_every_fate_of_the_first_transmissions_converges():
    runs = restarts = 0
    for fates in itertools.product(FATES, repeat=K):
        plain = Run(fates).execute()
        check(plain)
        runs += 1
        for restart_at in range(plain.deliveries):
            run = Run(fates, restart_at).execute()
            check(run)
            restarts += sum(a.restarts for a in run.agents.values())
            runs += 1
    # Every restart point was reached.
    assert restarts == runs - len(FATES) ** K
