"""Seeded input generators for the four workloads.

Everything a workload feeds the system is made here from ``--seed``:
the same seed gives byte-identical inputs (``input_digest``), another
seed gives other inputs.  The system under test only ever sees the
generated inputs.  :func:`self_check` verifies that property; every
run calls it.

Sizes are fixed work per ``--seconds`` (not a time budget): the run
at the seed commit lasts about that long on the seed box, and every
later commit does exactly the same work, so slice medians compare.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.apps.workloads import FlowSizeDistribution
from repro.netsim.packet import MSS, Packet, ip_of

#: Packets of one message sent back to back.
BURST = 32

#: (src_ip, dst_ip, src_port, dst_port, payload_len, tenant)
PacketSpec = Tuple[int, int, int, int, int, int]

WORKLOADS = ("enclave_tag", "host_mix", "fig9_pias", "fleet_rollout")


def sizes(workload: str, seconds: int, smoke: bool) -> Dict[str, int]:
    """Work done by one run, as a function of ``--seconds``.

    ``--smoke`` divides the job sizes by about twenty; it checks the
    plumbing, not the numbers.
    """
    if workload == "enclave_tag":
        return {"slices": max(3, 3 * seconds),
                "slice_packets": 1600 if smoke else 4800,
                "setup_builds": 2 if smoke else 15}
    if workload == "host_mix":
        return {"slices": max(3, 2 * seconds),
                "slice_packets": 640 if smoke else 2400,
                "live_messages": 256 if smoke else 4096,
                "setup_builds": 2 if smoke else 15}
    if workload == "fig9_pias":
        return {"jobs": max(1, seconds // 5),
                "loaded_ms": 4 if smoke else 12,
                "traced_loaded_ms": 4 if smoke else 25,
                "drain_cap_ms": 40,
                "setup_builds": 2 if smoke else 15}
    if workload == "fleet_rollout":
        return {"hosts": 32 if smoke else 1024,
                "shards": 8,
                "repeats": max(2, seconds // 5),
                "setup_builds": 2 if smoke else 5}
    raise KeyError(workload)


def build_packets(specs: Sequence[PacketSpec]) -> List[Packet]:
    """Materialize packets (always outside the timed region)."""
    return [Packet(src_ip, dst_ip, src_port, dst_port,
                   payload_len=payload_len, tenant=tenant)
            for (src_ip, dst_ip, src_port, dst_port, payload_len,
                 tenant) in specs]


@dataclass
class Burst:
    """Up to :data:`BURST` packets of one message."""

    msg_id: int
    kind: str
    attrs: Dict[str, object]
    specs: List[PacketSpec]
    #: This burst carries the message's last packet.
    last: bool = False


# -- enclave_tag ------------------------------------------------------------

#: 64 B on the wire: the smallest packet, where per-packet cost rules.
TAG_PAYLOAD = 10
TAG_SRC_IP = ip_of(1)


class TagTraffic:
    """32-packet messages of 64 B packets, one class tuple."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"enclave_tag/{seed}")
        self._msg_ids = iter(range(1, 1 << 62))

    def slice(self, n_packets: int) -> List[Burst]:
        rng = self.rng
        bursts = []
        for _ in range(n_packets // BURST):
            spec = (TAG_SRC_IP, ip_of(2 + rng.randrange(64)),
                    rng.randrange(1024, 65536),
                    rng.randrange(1024, 65536), TAG_PAYLOAD, 0)
            bursts.append(Burst(next(self._msg_ids), "tag",
                                {"msg_type": "tag"}, [spec] * BURST,
                                last=True))
        return bursts


# -- host_mix ---------------------------------------------------------------

MIX_SIZE_CAP = 200_000
MIX_KINDS = ("search", "io", "bulk")
MIX_KIND_WEIGHTS = (50, 25, 25)
MIX_TENANTS = (1, 2, 3)
#: Share of bulk messages that claim a source the host does not own.
MIX_SPOOFED_SHARE = 0.10
#: Share of search messages that ask for the background class
#: directly (PIAS respects ``msg.priority < 1``).
MIX_BACKGROUND_SHARE = 0.10
MIX_READ_SHARE = 0.30
READ_REQUEST_BYTES = 100


@dataclass
class _Message:
    msg_id: int
    kind: str
    attrs: Dict[str, object]
    specs: List[PacketSpec]
    sent: int = 0


class MixTraffic:
    """``live`` messages at once, sent in interleaved bursts.

    Message sizes follow the search flow-size distribution capped at
    200 KB and split into MSS packets.  The pool is visited round
    robin; a finished message is replaced in place, so the enclave
    sees state inserts and expiries beside reads for the whole run.
    """

    def __init__(self, seed: int, live: int, src_ip: int,
                 dst_ip: int) -> None:
        self.rng = random.Random(f"host_mix/{seed}")
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.spoof_ip = src_ip + 100
        self.distribution = FlowSizeDistribution()
        self._msg_ids = iter(range(1, 1 << 62))
        self._pool = [self._new_message() for _ in range(live)]
        self._cursor = 0

    def _new_message(self) -> _Message:
        rng = self.rng
        msg_id = next(self._msg_ids)
        kind = rng.choices(MIX_KINDS, MIX_KIND_WEIGHTS)[0]
        size = min(self.distribution.sample(rng), MIX_SIZE_CAP)
        src_ip, tenant = self.src_ip, 0
        attrs: Dict[str, object] = {"msg_type": kind}
        if kind == "search":
            background = rng.random() < MIX_BACKGROUND_SHARE
            attrs["priority"] = 0 if background else 7
        elif kind == "io":
            tenant = rng.choice(MIX_TENANTS)
            read = rng.random() < MIX_READ_SHARE
            attrs.update(op_read=int(read), msg_size=size,
                         tenant=tenant)
            if read:
                # A READ is one small request standing for a large
                # operation (paper Figure 3).
                size = READ_REQUEST_BYTES
        elif rng.random() < MIX_SPOOFED_SHARE:
            src_ip = self.spoof_ip
        src_port = 1024 + msg_id % 60_000
        full, tail = divmod(size, MSS)
        payloads = [MSS] * full + ([tail] if tail else [])
        specs = [(src_ip, self.dst_ip, src_port, 9000, payload, tenant)
                 for payload in payloads]
        return _Message(msg_id, kind, attrs, specs)

    def next_burst(self, limit: int = BURST) -> Burst:
        msg = self._pool[self._cursor]
        take = min(BURST, limit, len(msg.specs) - msg.sent)
        specs = msg.specs[msg.sent:msg.sent + take]
        msg.sent += take
        last = msg.sent == len(msg.specs)
        if last:
            self._pool[self._cursor] = self._new_message()
        self._cursor = (self._cursor + 1) % len(self._pool)
        return Burst(msg.msg_id, msg.kind, msg.attrs, specs, last)

    def slice(self, n_packets: int) -> List[Burst]:
        bursts = []
        left = n_packets
        while left:
            burst = self.next_burst(left)
            left -= len(burst.specs)
            bursts.append(burst)
        return bursts


# -- fig9_pias / fleet_rollout ------------------------------------------------

#: Jobs one ``--seed`` can feed; job ``j`` simulates seed
#: ``seed * FIG9_JOBS_PER_SEED + j``, so no two seeds share a job.
FIG9_JOBS_PER_SEED = 64


def fig9_config(seed: int, job: int, loaded_ms: int
                ) -> Dict[str, object]:
    """Arguments of ``build_flow_scheduling``: the Fig 9 PIAS/Eden
    configuration; arrivals and sizes are drawn by the scenario's own
    simulator RNG."""
    return {"policy": "pias", "variant": "eden",
            "seed": seed * FIG9_JOBS_PER_SEED + job,
            "duration_ms": loaded_ms, "load": 0.7, "n_background": 2,
            "warmup_ms": min(10, loaded_ms // 3)}


FLEET_VICTIM_IP = 10_000
FLEET_QUEUE_IDS = (1, 2, 3, 4)
PROBE_PACKETS = 8


def fleet_probe(seed: int, host_ips: Sequence[int]
                ) -> Iterator[List[PacketSpec]]:
    """Per host, eight egress packets: spoofed or genuine source,
    victim-bound or not, in seeded order."""
    rng = random.Random(f"fleet_rollout/{seed}")
    for host_ip in host_ips:
        specs = []
        for i in range(PROBE_PACKETS):
            spoofed = rng.random() < 0.25
            to_victim = rng.random() < 0.5
            specs.append((
                host_ip + 50_000 if spoofed else host_ip,
                FLEET_VICTIM_IP if to_victim else 20_000 + i,
                2000 + i, 80, rng.choice((0, 200, MSS)), 0))
        yield specs


# -- input digests ------------------------------------------------------------

def _burst_rows(bursts: Sequence[Burst]) -> List[tuple]:
    return [(b.msg_id, b.kind, sorted(b.attrs.items()), b.specs, b.last)
            for b in bursts]


def input_digest(workload: str, seed: int) -> str:
    """SHA-256 over a canonical prefix of the workload's inputs."""
    if workload == "enclave_tag":
        rows: object = _burst_rows(TagTraffic(seed).slice(640))
    elif workload == "host_mix":
        rows = _burst_rows(
            MixTraffic(seed, 64, ip_of(1), ip_of(2)).slice(640))
    elif workload == "fig9_pias":
        rows = [sorted(fig9_config(seed, job, 12).items())
                for job in range(4)]
    elif workload == "fleet_rollout":
        rows = [seed] + list(fleet_probe(seed, range(1, 17)))
    else:
        raise KeyError(workload)
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def self_check(seed: int = 1) -> List[str]:
    """Failures of 'same seed, same bytes; other seed, other bytes'."""
    failures = []
    for workload in WORKLOADS:
        first = input_digest(workload, seed)
        if input_digest(workload, seed) != first:
            failures.append(f"{workload}: seed {seed} is not "
                            f"reproducible")
        if input_digest(workload, seed + 1) == first:
            failures.append(f"{workload}: seeds {seed} and "
                            f"{seed + 1} give the same inputs")
    return failures
