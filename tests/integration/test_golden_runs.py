"""Golden pins: three whole experiments, recorded as literals.

The determinism tests compare two runs of the same code, so a change
that shifts every run the same way passes them.  These pins compare
against numbers recorded before the event loop and TCP were
optimised: the time and callback of every fired event, every flow
record, every TCP counter, every port counter, the fired-event count
and the final clock must stay exactly what they were.  A change that
alters any of them is a behaviour change and must re-record the pins
on purpose, saying why.

Bulky values are pinned as the sha256 of their ``repr``; the scalars
beside them say roughly what moved when a digest breaks.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments import fig10, fig11
from repro.experiments.fig9 import build_flow_scheduling
from repro.netsim.simulator import Simulator
from repro.transport.tcp import TcpConnection, TcpStats


def digest(value) -> str:
    text = repr(value)
    assert " at 0x" not in text, "repr carries an object address"
    return hashlib.sha256(text.encode()).hexdigest()


class Recording:
    """Watches a run without changing it: the fire log (``(now,
    callback name)`` of every event that fires, hashed), every
    TcpConnection and every network ``module.topology`` builds."""

    def __init__(self, monkeypatch, module=None, topology=None):
        self.fire_log = hashlib.sha256()
        self.connections = []
        self.nets = []
        schedule = Simulator.schedule
        conn_init = TcpConnection.__init__

        def logged_schedule(sim, delay_ns, callback, *args):
            name = getattr(callback, "__qualname__",
                           type(callback).__qualname__)

            def fire(*fire_args):
                self.fire_log.update(f"{sim.now} {name}\n".encode())
                callback(*fire_args)

            return schedule(sim, delay_ns, fire, *args)

        def recording_init(conn, *args, **kwargs):
            conn_init(conn, *args, **kwargs)
            self.connections.append(conn)

        monkeypatch.setattr(Simulator, "schedule", logged_schedule)
        monkeypatch.setattr(TcpConnection, "__init__", recording_init)
        if module is not None:
            build = getattr(module, topology)

            def recording_build(*args, **kwargs):
                self.nets.append(build(*args, **kwargs))
                return self.nets[-1]

            monkeypatch.setattr(module, topology, recording_build)

    def summary(self):
        tcp = {f.name: 0 for f in dataclasses.fields(TcpStats)}
        for conn in self.connections:
            for name in tcp:
                tcp[name] += getattr(conn.stats, name)
        return {
            "fire_log": self.fire_log.hexdigest(),
            "tcp": tcp,
            "ports": digest([port_stats(net) for net in self.nets]),
            "events": [net.sim.events_processed for net in self.nets],
            "now": [net.sim.now for net in self.nets],
            "pending": [net.sim.pending for net in self.nets],
        }


def port_stats(net):
    rows = []
    for a, b, _ in sorted(net.links):
        for src, dst in ((a, b), (b, a)):
            stats = net.device(src).port_to(dst).stats
            rows.append((src, dst) + tuple(
                getattr(stats, slot) for slot in type(stats).__slots__))
    return rows


@pytest.mark.slow
def test_fig9_pias_eden_golden(monkeypatch):
    recording = Recording(monkeypatch)
    scenario = build_flow_scheduling("pias", "eden", seed=5,
                                     duration_ms=30)
    recording.nets.append(scenario.net)
    scenario.run()
    result = scenario.finish()
    records = [(r.flow_id, r.size_bytes, r.started_at, r.completed_at,
                r.kind) for r in scenario.tracker.records]
    assert len(records) == FIG9["n_records"]
    assert digest(records) == FIG9["records"]
    assert digest(result) == FIG9["result"]
    assert recording.summary() == FIG9["summary"]


@pytest.mark.slow
def test_fig10_wcmp_packet_spraying_golden(monkeypatch):
    """Per-packet spraying reorders, so SACK, DSACK, the loss probe
    and fast recovery all run."""
    recording = Recording(monkeypatch, fig10, "asymmetric_two_path")
    result = fig10.run_wcmp("wcmp", "eden", granularity="packet",
                            seed=5, duration_ms=20, warmup_ms=5,
                            n_flows=2)
    assert digest(result) == FIG10["result"]
    assert recording.summary() == FIG10["summary"]


@pytest.mark.slow
@pytest.mark.parametrize("scenario", ["simultaneous", "rate_controlled"])
def test_fig11_storage_golden(monkeypatch, scenario):
    """``rate_controlled`` is the run whose Pulsar token buckets
    queue and re-arm their drain timers."""
    recording = Recording(monkeypatch, fig11, "star")
    result = fig11.run_storage(scenario, seed=7, duration_ms=60,
                               warmup_ms=10)
    assert digest(result) == FIG11[scenario]["result"]
    assert recording.summary() == FIG11[scenario]["summary"]


#: Recorded before the heap-entry, timer and ACK-path changes.
FIG9 = {'n_records': 242,
 'records': '6550281f4f566ebf603ae0993e630bbba8b0c92165f500e4b3d292cc3e80007a',
 'result': 'a0ab4def5078ab78f04bbb9982b3dff295f3cb61cbcb334699a65221de4aa1f6',
 'summary': {'fire_log': '024896fd526f0d243b20bff9966ec8f423a3dea583bde63d610212ad40b82892',
             'tcp': {'segments_sent': 27732,
                     'bytes_sent': 38432402,
                     'retransmits': 4052,
                     'fast_retransmits': 184,
                     'timeouts': 621,
                     'dupacks_received': 6948,
                     'acks_received': 50750,
                     'bytes_delivered': 34333033},
             'ports': 'cffc7caea783d555fe31db4766f5f1cc074efbff4305addb7eb238f7515502d2',
             'events': [272364],
             'now': [30000000],
             'pending': [265]}}

FIG10 = {'result': '3f97ca82544d3caf9b4775b05db68a2928831970af72e9416ad97cae9ffae297',
 'summary': {'fire_log': '4f95d766167cf097656be6f320eff4bb01306a66bf3788dcbc8b800b048a3b0c',
             'tcp': {'segments_sent': 13995,
                     'bytes_sent': 20431100,
                     'retransmits': 375,
                     'fast_retransmits': 249,
                     'timeouts': 0,
                     'dupacks_received': 6400,
                     'acks_received': 28710,
                     'bytes_delivered': 20404820},
             'ports': 'ba822f085d70264fff149e03bb364bd3d7c577b26ee4fa824c2f519b8e3f6a3f',
             'events': [143592],
             'now': [20000000],
             'pending': [17]}}

FIG11 = {'simultaneous': {'result': 'cce44b851b270f6d6ada98bb5cb2a273109420fcaefb46d457aafe5d6aad2907',
                  'summary': {'fire_log': '74e44a2d2860246f9370c638d8d3ca6bf38b994a6324c88cbff050411d65d09c',
                              'tcp': {'segments_sent': 8755,
                                      'bytes_sent': 12337620,
                                      'retransmits': 250,
                                      'fast_retransmits': 17,
                                      'timeouts': 2,
                                      'dupacks_received': 2122,
                                      'acks_received': 17223,
                                      'bytes_delivered': 11810184},
                              'ports': 'fe1b5a6e3a7e1c89795b7192890c50b572ee6aecaef30a90914002cb76ec3213',
                              'events': [87827],
                              'now': [60000000],
                              'pending': [13]}},
 'rate_controlled': {'result': '3cb4786901f36a5f069dbcab03304caa30493ea65df153dea0ed2c4ac195e0a9',
                     'summary': {'fire_log': 'fd75058344378d9b63dc00b1c105d70e4ba32834f4e59765439a62121fbae1c8',
                                 'tcp': {'segments_sent': 7688,
                                         'bytes_sent': 10769288,
                                         'retransmits': 12,
                                         'fast_retransmits': 4,
                                         'timeouts': 0,
                                         'dupacks_received': 1575,
                                         'acks_received': 9716,
                                         'bytes_delivered': 6931520},
                                 'ports': '14c0494f1ff6d476ae3b5da917925bc8bb663aa4873568803852bb612f095ede',
                                 'events': [54661],
                                 'now': [60000000],
                                 'pending': [9]}}}
