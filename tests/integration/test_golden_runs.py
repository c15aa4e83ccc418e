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
    TcpConnection and every network ``module.topology`` builds.

    ``effective_fire_log`` leaves out each ``Port._tx_done`` that
    fires while every queue of its port is empty: such an event only
    marks the port idle, so it is the part of the stream a simulator
    may stop scheduling without changing the outcome.

    Every way onto the heap is wrapped (``schedule``, ``post`` and
    ``file``), so every fired event is seen whichever one scheduled it.
    """

    def __init__(self, monkeypatch, module=None, topology=None):
        self.fire_log = hashlib.sha256()
        self.effective_fire_log = hashlib.sha256()
        self.connections = []
        self.nets = []
        conn_init = TcpConnection.__init__

        def logged(enter):
            def logged_enter(sim, when, callback, *args):
                name = getattr(callback, "__qualname__",
                               type(callback).__qualname__)
                idle_check = name == "Port._tx_done"

                def fire(*fire_args):
                    line = f"{sim.now} {name}\n".encode()
                    self.fire_log.update(line)
                    if not (idle_check and
                            not any(callback.__self__._queues)):
                        self.effective_fire_log.update(line)
                    callback(*fire_args)

                return enter(sim, when, fire, *args)
            return logged_enter

        def recording_init(conn, *args, **kwargs):
            conn_init(conn, *args, **kwargs)
            self.connections.append(conn)

        for entry in ("schedule", "post", "file"):
            monkeypatch.setattr(Simulator, entry,
                                logged(getattr(Simulator, entry)))
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
            "effective_fire_log": self.effective_fire_log.hexdigest(),
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


def run_fig9(monkeypatch, policy, variant):
    """One fig9 run at seed 5, 30 ms: (records, result, summary)."""
    recording = Recording(monkeypatch)
    scenario = build_flow_scheduling(policy, variant, seed=5,
                                     duration_ms=30)
    recording.nets.append(scenario.net)
    scenario.run()
    result = scenario.finish()
    records = [(r.flow_id, r.size_bytes, r.started_at, r.completed_at,
                r.kind) for r in scenario.tracker.records]
    return records, result, recording.summary()


@pytest.mark.slow
def test_fig9_pias_eden_golden(monkeypatch):
    records, result, summary = run_fig9(monkeypatch, "pias", "eden")
    assert len(records) == FIG9["n_records"]
    assert digest(records) == FIG9["records"]
    assert digest(result) == FIG9["result"]
    assert digest(dataclasses.replace(result, events=0)) == \
        FIG9["result_sans_events"]
    assert summary == FIG9["summary"]


@pytest.mark.slow
@pytest.mark.parametrize("policy", ["pias", "sff"])
def test_fig9_native_golden(monkeypatch, policy):
    """The native variant: the policy charged a fixed cost per
    executed action instead of per bytecode op."""
    records, result, summary = run_fig9(monkeypatch, policy, "native")
    pins = FIG9_NATIVE[policy]
    assert len(records) == pins["n_records"]
    assert digest(records) == pins["records"]
    assert digest(result) == pins["result"]
    assert summary == pins["summary"]


def run_fig10(monkeypatch, variant):
    """fig10's per-packet WCMP run at seed 5: (result, summary)."""
    recording = Recording(monkeypatch, fig10, "asymmetric_two_path")
    result = fig10.run_wcmp("wcmp", variant, granularity="packet",
                            seed=5, duration_ms=20, warmup_ms=5,
                            n_flows=2)
    return result, recording.summary()


@pytest.mark.slow
def test_fig10_wcmp_packet_spraying_golden(monkeypatch):
    """Per-packet spraying reorders, so SACK, DSACK, the loss probe
    and fast recovery all run."""
    result, summary = run_fig10(monkeypatch, "eden")
    assert digest(result) == FIG10["result"]
    assert summary == FIG10["summary"]


@pytest.mark.slow
def test_fig10_wcmp_native_golden(monkeypatch):
    result, summary = run_fig10(monkeypatch, "native")
    assert digest(result) == FIG10_NATIVE["result"]
    assert summary == FIG10_NATIVE["summary"]


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


#: Recorded before the heap-entry, timer and ACK-path changes, except
#: ``fire_log``, ``events``, ``pending`` and fig9's ``result`` (which
#: carries the event count): those were re-recorded when ports stopped
#: scheduling transmit-done events that find every queue empty.  The
#: new ``fire_log`` is the old ``effective_fire_log``, and each event
#: count fell by exactly the completions the old ports fired on empty
#: queues.  ``effective_fire_log`` and ``result_sans_events`` were
#: recorded before that change and did not move.
FIG9 = {'n_records': 242,
 'records': '6550281f4f566ebf603ae0993e630bbba8b0c92165f500e4b3d292cc3e80007a',
 'result': '4be98a3ccbe3b97e6fedd80d17d4df9be067f253b33a2b4f1b9506103e05061e',
 'result_sans_events': '8219441f5ade204246c9b51c317af7ad161c06616477d0b9875664177d4483b2',
 'summary': {'fire_log': '1d8bd23c68fdde9a3366178483e798784b83d29c555dfe89a557d69b40e3fdb6',
             'effective_fire_log': '1d8bd23c68fdde9a3366178483e798784b83d29c555dfe89a557d69b40e3fdb6',
             'tcp': {'segments_sent': 27732,
                     'bytes_sent': 38432402,
                     'retransmits': 4052,
                     'fast_retransmits': 184,
                     'timeouts': 621,
                     'dupacks_received': 6948,
                     'acks_received': 50750,
                     'bytes_delivered': 34333033},
             'ports': 'cffc7caea783d555fe31db4766f5f1cc074efbff4305addb7eb238f7515502d2',
             'events': [216116],
             'now': [30000000],
             'pending': [264]}}

FIG10 = {'result': '3f97ca82544d3caf9b4775b05db68a2928831970af72e9416ad97cae9ffae297',
 'summary': {'fire_log': '229d9f1cde14e8663b794fb0170458e0ae0a79125ce53985410cd97e8a7381f1',
             'effective_fire_log': '229d9f1cde14e8663b794fb0170458e0ae0a79125ce53985410cd97e8a7381f1',
             'tcp': {'segments_sent': 13995,
                     'bytes_sent': 20431100,
                     'retransmits': 375,
                     'fast_retransmits': 249,
                     'timeouts': 0,
                     'dupacks_received': 6400,
                     'acks_received': 28710,
                     'bytes_delivered': 20404820},
             'ports': 'ba822f085d70264fff149e03bb364bd3d7c577b26ee4fa824c2f519b8e3f6a3f',
             'events': [112195],
             'now': [20000000],
             'pending': [14]}}

FIG11 = {'simultaneous': {'result': 'cce44b851b270f6d6ada98bb5cb2a273109420fcaefb46d457aafe5d6aad2907',
                  'summary': {'fire_log': '04b7c3df151e9d46189922c8e9ad2885eed1cd0621bcf8abd22e7b44aaeaaf97',
                              'effective_fire_log': '04b7c3df151e9d46189922c8e9ad2885eed1cd0621bcf8abd22e7b44aaeaaf97',
                              'tcp': {'segments_sent': 8755,
                                      'bytes_sent': 12337620,
                                      'retransmits': 250,
                                      'fast_retransmits': 17,
                                      'timeouts': 2,
                                      'dupacks_received': 2122,
                                      'acks_received': 17223,
                                      'bytes_delivered': 11810184},
                              'ports': 'fe1b5a6e3a7e1c89795b7192890c50b572ee6aecaef30a90914002cb76ec3213',
                              'events': [69944],
                              'now': [60000000],
                              'pending': [13]}},
 'rate_controlled': {'result': '3cb4786901f36a5f069dbcab03304caa30493ea65df153dea0ed2c4ac195e0a9',
                     'summary': {'fire_log': 'a8db2ab498beea70cba8ce4628ef4de0a69647d06b2385d1559c087d3413880e',
                                 'effective_fire_log': 'a8db2ab498beea70cba8ce4628ef4de0a69647d06b2385d1559c087d3413880e',
                                 'tcp': {'segments_sent': 7688,
                                         'bytes_sent': 10769288,
                                         'retransmits': 12,
                                         'fast_retransmits': 4,
                                         'timeouts': 0,
                                         'dupacks_received': 1575,
                                         'acks_received': 9716,
                                         'bytes_delivered': 6931520},
                                 'ports': '14c0494f1ff6d476ae3b5da917925bc8bb663aa4873568803852bb612f095ede',
                                 'events': [40081],
                                 'now': [60000000],
                                 'pending': [9]}}}

#: Recorded when the native variant still ran its own backend (an
#: AST-level compile of each action, charged per executed action
#: because it counted no ops); the variant must reproduce them exactly
#: under the per-action charge model.
FIG9_NATIVE = {'pias': {'n_records': 244,
                        'records': '1c9a78648affa18c05b0e901309652c95c082aec02ebca87ce396a99a8288011',
                        'result': '71ea2bf908ac02f0a8dbb74c6ca6007691e2e0590dc51cbd570bede2212de359',
                        'summary': {'fire_log': '06cce20b29e49abe939f6df4fd2779f9bf1fa99917b5b603e2cc2177aeaf186e',
                                    'effective_fire_log': '06cce20b29e49abe939f6df4fd2779f9bf1fa99917b5b603e2cc2177aeaf186e',
                                    'tcp': {'segments_sent': 27867,
                                            'bytes_sent': 38596082,
                                            'retransmits': 4247,
                                            'fast_retransmits': 154,
                                            'timeouts': 621,
                                            'dupacks_received': 9379,
                                            'acks_received': 50732,
                                            'bytes_delivered': 33757702},
                                    'ports': 'b85466fa830a8c578a15adfde90e13a33cf3c1c90fd364f1b54381fb7923ca5a',
                                    'events': [217593],
                                    'now': [30000000],
                                    'pending': [265]}},
               'sff': {'n_records': 236,
                       'records': 'a1e907b12dfbbc89b279f063960bff54ed825dac6bb150da2a0fcad1385fb30d',
                       'result': '26c01353f3235915500c2e25b127efb74e166636192f1ce4347615237cca9d34',
                       'summary': {'fire_log': 'e3439438897a8adcf67993a7b61c73a9f1337da262dd83bba77f47421b3f744c',
                                   'effective_fire_log': 'e3439438897a8adcf67993a7b61c73a9f1337da262dd83bba77f47421b3f744c',
                                   'tcp': {'segments_sent': 27715,
                                           'bytes_sent': 38436895,
                                           'retransmits': 3475,
                                           'fast_retransmits': 86,
                                           'timeouts': 606,
                                           'dupacks_received': 6765,
                                           'acks_received': 50683,
                                           'bytes_delivered': 33120630},
                                   'ports': '88fe50f43bbc268b034b06e76e1e8c62541485bc68a8c76ac278e077a78e3e11',
                                   'events': [213209],
                                   'now': [30000000],
                                   'pending': [273]}}}

FIG10_NATIVE = {'result': '7e4cd9eb8827c226387170b65af156c0203f0c6aa3f0a1dc36c7ecdba38ccb7f',
                'summary': {'fire_log': '2ee7348fefb778db26a9e5cd2b7f58793d206c3f0e198bee41e468365c32629b',
                            'effective_fire_log': '2ee7348fefb778db26a9e5cd2b7f58793d206c3f0e198bee41e468365c32629b',
                            'tcp': {'segments_sent': 14271,
                                    'bytes_sent': 20834060,
                                    'retransmits': 372,
                                    'fast_retransmits': 257,
                                    'timeouts': 0,
                                    'dupacks_received': 6520,
                                    'acks_received': 29254,
                                    'bytes_delivered': 20809240},
                            'ports': 'ddfe979eaf00568acf683708ed1415ba8979e0dadf121cc2f99d7068a8b96f12',
                            'events': [114480],
                            'now': [20000000],
                            'pending': [14]}}
