"""Every control message a fleet rollout sends, pinned as a multiset.

Each ``SimTransport.send`` is logged as ``(now, src, dst, session,
seq, payload type)``; a ``StatsReport``, pushed or riding on an
``Ack``, adds its ``at_ns``, ``applied_epoch`` and ``stats``.  The log
is hashed **sorted**: a change to how timers are kept may reorder
events that fire at one instant, and that order is not what the pin
is about.  Which messages are sent, when, and what the reports in
them say is.
"""

import hashlib

import pytest

from repro.control.messages import Ack, StatsReport
from repro.control.transport import SimTransport

from tests.fleet.test_shardfleet import converge_mitigation

pytestmark = pytest.mark.fleet


def _report_fields(report):
    if report is None:
        return ()
    return (report.at_ns, report.applied_epoch,
            tuple(sorted((name, tuple(sorted(counters.items())))
                         for name, counters in report.stats.items())))


def _entry(now, env):
    payload = env.payload
    if isinstance(payload, StatsReport):
        report = _report_fields(payload)
    elif isinstance(payload, Ack):
        report = _report_fields(payload.report)
    else:
        report = ()
    return (now, env.src, env.dst, env.session, env.seq,
            type(payload).__name__, repr(report))


def logged_sends(monkeypatch, run):
    """``run()``'s result, its send count and the sha256 of its sorted
    send log."""
    log = []
    send = SimTransport.send

    def logged_send(transport, env):
        log.append(_entry(transport.sim.now, env))
        send(transport, env)

    monkeypatch.setattr(SimTransport, "send", logged_send)
    result = run()
    digest = hashlib.sha256()
    for entry in sorted(log):
        digest.update(f"{entry}\n".encode())
    return result, len(log), digest.hexdigest()


@pytest.mark.parametrize("n_hosts", [32, 128])
def test_rollout_send_log_golden(monkeypatch, n_hosts):
    """``converge_mitigation`` at 20% loss and 5% duplication, one
    restart in the second wave and a stale-epoch probe.  Re-recorded
    when a host came to get each wave as one batch instead of one
    message per op: one config send and one Ack per host per wave,
    fewer retransmits, and reports end sooner because the rollout
    does."""
    result, sends, digest = logged_sends(
        monkeypatch, lambda: converge_mitigation(n_hosts))
    assert result["converged"] and result["in_sync"]
    assert (sends, digest) == SEND_LOG[n_hosts]


SEND_LOG = {
    32: (181, "5cbb79140716ff12b729d9edefcdfa95"
              "fa3e5246cfb69a52c78d1c44c6091f65"),
    128: (780, "11f745e94a635bd9e43cce382922bf4a"
               "6a1c25a11d2defb34b6ee26c85a2aea8"),
}
