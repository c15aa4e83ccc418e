"""Sleeping report ticks against the ticking rule they replace.

Agents fire only the report ticks that can push; a grid timer stands
for the rest.  The reference below is the rule as it ran before: every
agent fires every tick on its own timer, and a restart or a second
``start_reporting`` orphans the old timer chain.  Driven by the same
schedule of installs, rules, packets, message ends and expiries, restarts,
sources attached mid-sleep, explicit reports and re-started reporting,
both push the same reports at the same instants.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control import ControlLoop
from repro.control.agent import HEARTBEAT_TICKS, EnclaveAgent
from repro.control.faults import FaultInjector
from repro.control.plane import ControlPlane
from repro.control.transport import SimTransport
from repro.core import Enclave
from repro.lang import AccessLevel, Field, Lifetime, schema
from repro.netsim.simulator import MS, US, Simulator

pytestmark = pytest.mark.control_faults


class TickingAgent(EnclaveAgent):
    """The reference: one timer chain per agent, a tick every
    interval, the push rule unchanged."""

    _chain = 0

    def start_reporting(self, interval_ns):
        self._chain += 1
        self._interval = interval_ns
        self.endpoint.ack_report = self._ack_report
        self.scheduler.schedule(interval_ns, self._tick, self._chain)

    def _tick(self, chain):
        if chain != self._chain:
            return  # orphaned by a restart or a second start
        self._quiet_ticks += 1
        if self._has_feed() or self._quiet_ticks >= HEARTBEAT_TICKS \
                or self._state_key() != self._reported_key:
            self._push_report()
        self.scheduler.schedule(self._interval, self._tick, chain)

    def send_report(self):
        self._push_report()

    def restart(self):
        super().restart()
        if self._chain:
            self.start_reporting(self._interval)


MSG_SCHEMA = schema("Msg", Lifetime.MESSAGE, [
    Field("total", AccessLevel.READ_WRITE),
])


def count_bytes(packet, msg):
    msg.total = msg.total + packet.size


class Packet:
    def __init__(self, src_port):
        self.src_ip, self.dst_ip = 1, 2
        self.src_port, self.dst_port = src_port, 80
        self.proto = 6
        self.size = 1500
        self.priority = self.path_id = self.drop = 0
        self.to_controller = self.queue_id = self.charge = 0
        self.ecn = self.tenant = 0


def flow_key(src_port):
    return ("enclave", (1, src_port, 2, 80, 6))


class Pushed(ControlLoop):
    def __init__(self):
        self.reports = {}

    def on_report(self, host, report):
        self.reports.setdefault(host, []).append(
            (report.at_ns, report.applied_epoch, report.stats))


HOSTS = ("h1", "h2", "h3")


def act(sim, plane, agent, kind, arg):
    enclave = agent.enclave
    if kind == "install":
        plane.install_function(agent.host, "count", count_bytes,
                               message_schema=MSG_SCHEMA)
        if not plane.desired(agent.host).rules:
            plane.install_rule(agent.host, "*", "count")
    elif kind == "rule":
        # Moves the agent's epoch and nothing in the enclave that
        # stats_summary shows.
        plane.install_rule(agent.host, "*", "count")
    elif kind == "packet":
        enclave.process_packet(Packet(arg))
    elif kind == "batch":
        enclave.process_batch([(Packet(port), ()) for port in
                               range(arg + 1)])
    elif kind == "end":
        if "count" in enclave.functions():
            enclave.end_message("count", flow_key(arg))
    elif kind == "expire":
        enclave.expire_idle_messages(sim.now + arg * 1_000 * MS)
    elif kind == "restart":
        agent.restart()
    elif kind == "source":
        agent.add_telemetry_source(f"feed{arg}", lambda: (1, 2))
    elif kind == "health":
        agent.set_health_source(
            (lambda: {"ok": True}) if arg % 2 else None)
    elif kind == "report":
        agent.send_report()
    elif kind == "start":
        agent.start_reporting((arg % 2 + 1) * MS)


KINDS = ("install", "rule", "packet", "batch", "end", "expire", "restart",
         "source", "health", "report", "start")


def run(agent_cls, schedule, loss=0.0, until_ns=60 * MS):
    """Pushed reports per host, and the events fired."""
    sim = Simulator(seed=1)
    faults = FaultInjector(drop_prob=loss, scheduler=sim) \
        if loss else None
    transport = SimTransport(sim, faults=faults)
    plane = ControlPlane(transport, scheduler=sim, rng=sim.rng)
    pushed = Pushed()
    plane.add_loop(pushed)
    agents = []
    for host in HOSTS:
        agents.append(agent_cls(
            host, Enclave(f"{host}.enclave", clock=sim.clock),
            transport, scheduler=sim, rng=sim.rng))
        plane.attach(host)
    for at, index, kind, arg in schedule:
        sim.at(at, act, sim, plane, agents[index], kind, arg)
    for agent in agents:
        agent.start_reporting(1 * MS)
    sim.run(until_ns=until_ns)
    return pushed.reports, sim.events_processed


# Instants on a 250 us lattice: ticks, deliveries (50 us hops) and
# driver actions often fall on one instant.
action = st.tuples(st.integers(0, 160).map(lambda k: k * 250 * US),
                   st.integers(0, len(HOSTS) - 1),
                   st.sampled_from(KINDS), st.integers(0, 3))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule=st.lists(action, max_size=30),
       loss=st.sampled_from([0.0, 0.3]))
def test_sleeping_agents_push_what_ticking_agents_pushed(schedule,
                                                         loss):
    sleeping, sleeping_events = run(EnclaveAgent, schedule, loss)
    ticking, ticking_events = run(TickingAgent, schedule, loss)
    assert sleeping == ticking
    assert sleeping_events <= ticking_events


def test_an_agent_with_a_feed_pushes_every_interval():
    schedule = [(2_500 * US, 0, "source", 0),
                (20_250 * US, 0, "health", 1),
                (20_500 * US, 0, "source", 1)]
    reports, _ = run(EnclaveAgent, schedule, until_ns=40 * MS)
    pushed_at = [at for at, _, _ in reports["h1"]]
    # The first tick pushes news; the feed arrives at 2.5 ms and the
    # agent pushes on every tick from 3 ms on (the 40 ms push is still
    # in flight).
    assert pushed_at == [1 * MS] + [k * MS for k in range(3, 40)]


def test_idle_agents_fire_one_grid_tick_per_interval():
    ticks = 100
    reports, events = run(EnclaveAgent, [], until_ns=ticks * MS)
    pushes = sum(map(len, reports.values()))
    # Each agent: the first tick's news, then a heartbeat every
    # HEARTBEAT_TICKS ticks.
    assert pushes == len(HOSTS) * (1 + (ticks - 1) // HEARTBEAT_TICKS)
    # One timer event per tick for all agents, plus one delivery per
    # push; the ticking agents fired one per agent per tick.
    assert events == ticks + pushes
    _, ticking_events = run(TickingAgent, [], until_ns=ticks * MS)
    assert ticking_events == len(HOSTS) * ticks + pushes


def test_enclave_change_callback_is_one_shot():
    enclave = Enclave("e")
    fired = []

    def arm():
        enclave.on_change = lambda: fired.append(enclave.generation)

    arm()
    enclave.install_function(count_bytes, message_schema=MSG_SCHEMA)
    enclave.install_rule("*", "count_bytes")
    assert fired == [1] and enclave.on_change is None
    enclave.process_packet(Packet(1))
    enclave.process_batch([(Packet(2), ())])
    assert fired == [1]
    for packets in ([Packet(3)], []):
        arm()
        enclave.process_batch([(p, ()) for p in packets])
    # An empty batch is no change and leaves the callback armed.
    assert fired == [1, 1] and enclave.on_change is not None
    enclave.process_packet(Packet(4))
    arm()
    enclave.end_message("count_bytes", flow_key(4))
    arm()
    enclave.clear()
    assert fired == [1, 1, 1, 2, 3]
