"""Plain-Python oracles for the functions the workloads install.

Each oracle restates an action function's intent from the paper's
figure, not from the DSL source, and predicts every packet field an
action function may write.  They run outside the timed slices.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Dict, List, Sequence, Tuple

from repro.netsim.packet import HEADER_BYTES

#: Every packet field an action function may write, in digest order.
OUTPUT_FIELDS = ("src_ip", "dst_ip", "src_port", "dst_port",
                 "priority", "path_id", "drop", "to_controller",
                 "queue_id", "charge", "ecn")


#: ``observe(packet)``: the output fields of a processed packet.
observe = attrgetter(*OUTPUT_FIELDS)


def fresh(spec) -> Dict[str, int]:
    """The model of an unprocessed packet built from ``spec``."""
    src_ip, dst_ip, src_port, dst_port, payload_len, tenant = spec
    model = dict.fromkeys(OUTPUT_FIELDS, 0)
    model.update(src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
                 dst_port=dst_port, size=payload_len + HEADER_BYTES,
                 tenant=tenant)
    return model


#: ``expected(model)``: the same tuple from an oracle's model.
expected = itemgetter(*OUTPUT_FIELDS)


def tag(model: Dict[str, int]) -> None:
    model["priority"] = 1 if model["size"] > 1000 else 5
    model["path_id"] = 1 + model["dst_port"] % 4


class Pias:
    """Paper Figure 7: demote a message through the thresholds as its
    cumulative size grows; respect a directly requested low class."""

    def __init__(self, thresholds: Sequence[Tuple[int, int]]) -> None:
        self.thresholds = list(thresholds)
        self.sizes: Dict[object, int] = {}

    def apply(self, model: Dict[str, int], msg_key: object,
              desired: int) -> None:
        size = self.sizes.get(msg_key, 0) + model["size"]
        self.sizes[msg_key] = size
        if desired < 1:
            model["priority"] = desired
            return
        model["priority"] = 0
        for limit, priority in self.thresholds:
            if size <= limit:
                model["priority"] = priority
                break

    def end_message(self, msg_key: object) -> None:
        self.sizes.pop(msg_key, None)


def pulsar(model: Dict[str, int], queue_map: Sequence[int],
           op_read: int, msg_size: int) -> None:
    """Paper Figure 3: READs are charged the operation size."""
    model["charge"] = msg_size if op_read == 1 else model["size"]
    if 0 <= model["tenant"] < len(queue_map):
        model["queue_id"] = queue_map[model["tenant"]]


def spoof_guard(model: Dict[str, int], my_ip: int) -> None:
    if model["src_ip"] != my_ip:
        model["drop"] = 1


def source_limit(model: Dict[str, int], victim_ip: int,
                 queues: Sequence[int]) -> None:
    """Runs after the guard on every packet, dropped or not: the
    chain follows ``next_table`` and the drop takes effect after."""
    if queues and model["dst_ip"] == victim_ip:
        model["charge"] = model["size"]
        model["queue_id"] = queues[model["src_ip"] % len(queues)]


def mismatches(observed: List[tuple], wanted: List[tuple]) -> int:
    """Packets whose outputs differ from the oracle's."""
    if observed == wanted:
        return 0
    wrong = abs(len(observed) - len(wanted))
    return wrong + sum(1 for got, want in zip(observed, wanted)
                       if got != want)
