"""Per-packet consistency of a rollout: no packet an enclave processes
while a wave is being applied to it sees a mix of the old and the new
configuration.

A packet can reach the enclave between any two events of the control
channel, so each agent's handler is wrapped to push one probe packet
through its enclave after every message it handles.  The probe is
genuine, victim-bound traffic from the host's own address: under the
old (empty) configuration no function runs, under the mitigation both
the spoof guard and the source limiter do.  Applied one op per
message, the mitigation program leaves a window between its last two
ops where the guard's rule chains into a limiter table that has no
rule yet, and the probe runs the guard alone.
"""

import pytest

from repro.functions.ddos import SOURCE_LIMIT_NAME, SPOOF_GUARD_NAME
from repro.fleet import TERMINAL, DONE
from repro.netsim.packet import Packet
from repro.netsim.simulator import MS

from tests.fleet.test_shardfleet import (arm_second_wave_restart,
                                         mitigation_rollout)

pytestmark = pytest.mark.fleet

VICTIM_IP = 10_000          # mitigation_rollout's victim

OLD = ()
NEW = (SPOOF_GUARD_NAME, SOURCE_LIMIT_NAME)


def probe_after_every_message(fleet, seen):
    """Wrap every agent's handler: after each message it handles, run
    a genuine victim-bound packet through its enclave and record
    which functions ran."""
    for index, host in enumerate(fleet.hosts):
        agent = fleet.agents[host]
        host_ip = index + 1     # mitigation_rollout's host_ip

        def handle(src, payload, _handle=agent.endpoint.handler,
                   _enclave=agent.enclave, _host=host, _ip=host_ip):
            outcome = _handle(src, payload)
            packet = Packet(src_ip=_ip, dst_ip=VICTIM_IP, src_port=1,
                            dst_port=2, payload_len=100)
            result = _enclave.process_packet(packet)
            seen.append((_host, type(payload).__name__,
                         tuple(result.executed)))
            return outcome

        agent.endpoint.handler = handle


def test_no_packet_sees_a_half_applied_program():
    fleet, plan, orch = mitigation_rollout(8)
    arm_second_wave_restart(fleet, plan, orch)
    seen = []
    probe_after_every_message(fleet, seen)
    orch.start()
    while orch.state not in TERMINAL and \
            fleet.fabric.now < 10_000 * MS:
        fleet.run(until_ns=fleet.fabric.now + 100 * MS)
    assert orch.state == DONE
    assert seen, "no config message was handled"
    mixed = [entry for entry in seen if entry[2] not in (OLD, NEW)]
    assert not mixed, mixed[:3]
    # Every host ends on the new configuration.
    last = {host: executed for host, _kind, executed in seen}
    assert set(last.values()) == {NEW}
