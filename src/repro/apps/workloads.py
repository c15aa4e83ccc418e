"""Workload generation: the search-style request-response traffic of
Section 5.1.

"The workload driving the experiments is based on a realistic
request-response workload, with responses reflecting the flow size
distribution found in search applications [2, 8] ... mostly comprising
small flows of a few packets with high rate of flows starting and
terminating."

* :class:`FlowSizeDistribution` — an inverse-CDF sampler; the default
  points follow the web-search distribution used by DCTCP/PIAS (most
  flows under 10 KB, a heavy tail into the megabytes).
* :class:`RequestResponseServer` / :class:`RequestResponseClient` — a
  worker that answers each small request with a response flow of the
  requested size, one TCP connection per request; the client records
  per-response flow completion times.
* :class:`BulkSender` — long-running background flows; they declare a
  low desired priority so PIAS-style functions respect it
  (Section 3.4.2: "background flows can specify a low priority
  class").
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.stage import Stage
from ..netsim.simulator import SEC, Simulator
from ..netsim.tracing import FlowTracker
from ..stack.netstack import HostStack
from ..transport.sockets import MessageSocket
from ..transport.tcp import TcpConnection

REQUEST_BYTES = 100

#: (size_bytes, cumulative probability) — web-search-like flow sizes.
SEARCH_CDF: Tuple[Tuple[int, float], ...] = (
    (1_000, 0.15), (2_000, 0.35), (4_000, 0.50), (8_000, 0.63),
    (16_000, 0.72), (32_000, 0.78), (64_000, 0.83), (128_000, 0.88),
    (256_000, 0.92), (512_000, 0.95), (1_000_000, 0.975),
    (2_000_000, 0.99), (5_000_000, 1.0),
)

#: (size_bytes, cumulative probability) — data-mining-like flow sizes
#: (the other canonical datacenter distribution, cf. PIAS/DCTCP): even
#: more mass below a few KB, with a far heavier elephant tail.
DATA_MINING_CDF: Tuple[Tuple[int, float], ...] = (
    (300, 0.30), (1_000, 0.50), (2_000, 0.63), (10_000, 0.78),
    (100_000, 0.85), (1_000_000, 0.92), (10_000_000, 0.97),
    (100_000_000, 1.0),
)

#: Flow-size classes reported by Figure 9.
SMALL_FLOW_MAX = 10_000          # < 10 KB
INTERMEDIATE_FLOW_MAX = 1_000_000  # 10 KB - 1 MB


def generic_app_stage(name: str = "app") -> Stage:
    """A stage for the request-response applications: classifies every
    message and can expose the metadata the case-study functions need."""
    stage = Stage(name,
                  classifier_fields=("msg_type",),
                  metadata_fields=("msg_id", "msg_type", "msg_size",
                                   "priority", "op_read", "tenant",
                                   "key_hash", "level", "paced_queue"))
    return stage


class FlowSizeDistribution:
    """Inverse-CDF sampling of flow sizes."""

    def __init__(self, cdf: Sequence[Tuple[int, float]] = SEARCH_CDF
                 ) -> None:
        if not cdf or abs(cdf[-1][1] - 1.0) > 1e-9:
            raise ValueError("CDF must end at probability 1.0")
        last = 0.0
        for size, prob in cdf:
            if prob < last or size <= 0:
                raise ValueError("CDF must be non-decreasing with "
                                 "positive sizes")
            last = prob
        self.cdf = tuple(cdf)

    def sample(self, rng) -> int:
        u = rng.random()
        prev_size, prev_prob = 0, 0.0
        for size, prob in self.cdf:
            if u <= prob:
                # Interpolate within the band for a smoother
                # distribution.
                span = prob - prev_prob
                frac = (u - prev_prob) / span if span > 0 else 1.0
                return max(1, int(prev_size + frac *
                                  (size - prev_size)))
            prev_size, prev_prob = size, prob
        return self.cdf[-1][0]

    def mean(self) -> float:
        """Approximate mean of the distribution (band midpoints)."""
        total, prev_size, prev_prob = 0.0, 0, 0.0
        for size, prob in self.cdf:
            total += (prob - prev_prob) * (prev_size + size) / 2.0
            prev_size, prev_prob = size, prob
        return total


class _ResponseRegistry:
    """Side channel telling the server what each request asks for.

    A real deployment encodes the response size in the request payload;
    the simulator does not model payload bytes, so clients register the
    parameters of each request keyed by their connection's five-tuple.
    """

    def __init__(self) -> None:
        self._pending: Dict[Tuple, Dict[str, int]] = {}

    def put(self, flow_key: Tuple, params: Dict[str, int]) -> None:
        self._pending[flow_key] = params

    def pop(self, flow_key: Tuple) -> Dict[str, int]:
        return self._pending.pop(flow_key, {"size": 1000})


class RequestResponseServer:
    """The worker: answers each request with a response message.

    ``attrs_fn(params)`` produces the stage attributes of the response
    message — this is where a policy plugs in (e.g. SFF passes
    ``msg_size`` so the enclave learns the flow size up front).
    """

    def __init__(self, sim: Simulator, stack: HostStack, port: int,
                 registry: _ResponseRegistry,
                 stage: Optional[Stage] = None,
                 attrs_fn: Optional[Callable[[Dict[str, int]],
                                             Dict[str, object]]] = None
                 ) -> None:
        self.sim = sim
        self.stack = stack
        self.registry = registry
        self.stage = stage
        self.attrs_fn = attrs_fn or (lambda params: {})
        self.requests_served = 0
        stack.listen(port, self._on_connection)

    def _on_connection(self, conn: TcpConnection) -> None:
        conn.on_data = self._on_data

    def _on_data(self, conn: TcpConnection, delivered: int) -> None:
        if delivered < REQUEST_BYTES or conn.stats.bytes_sent > 0:
            return
        # The client's five-tuple keys the registry.
        params = self.registry.pop(
            (conn.remote_ip, conn.remote_port, conn.local_ip,
             conn.local_port, 6))
        size = params["size"]
        attrs = dict(self.attrs_fn(params))
        attrs.setdefault("msg_type", "response")
        attrs.setdefault("msg_size", size)
        socket = MessageSocket(conn, self.stage)
        socket.send(size, attrs)
        conn.close()
        self.requests_served += 1


class RequestResponseClient:
    """Issues requests with Poisson arrivals, measures response FCT."""

    def __init__(self, sim: Simulator, stack: HostStack,
                 server_ip: int, server_port: int,
                 registry: _ResponseRegistry, tracker: FlowTracker,
                 distribution: Optional[FlowSizeDistribution] = None,
                 arrivals_per_sec: float = 1000.0,
                 kind: str = "request") -> None:
        self.sim = sim
        self.stack = stack
        self.server_ip = server_ip
        self.server_port = server_port
        self.registry = registry
        self.tracker = tracker
        self.distribution = distribution or FlowSizeDistribution()
        self.arrivals_per_sec = arrivals_per_sec
        self.kind = kind
        self.running = False
        self.requests_sent = 0
        self.responses_done = 0

    def start(self) -> None:
        self.running = True
        self._schedule_next()

    def stop(self) -> None:
        self.running = False

    def _schedule_next(self) -> None:
        gap_s = self.sim.rng.expovariate(self.arrivals_per_sec)
        self.sim.post(max(1, int(gap_s * SEC)), self._fire)

    def _fire(self) -> None:
        if not self.running:
            return
        self._issue_request()
        self._schedule_next()

    def _issue_request(self) -> None:
        size = self.distribution.sample(self.sim.rng)
        conn = self.stack.connect(self.server_ip, self.server_port)
        self.registry.put(conn.five_tuple, {"size": size})
        started_at = self.sim.now
        self.requests_sent += 1

        def on_response(inner_conn: TcpConnection,
                        delivered: int) -> None:
            if delivered >= size:
                self.tracker.record(inner_conn.five_tuple, size,
                                    started_at, self.sim.now,
                                    kind=self.kind)
                self.responses_done += 1
                inner_conn.close()

        conn.on_data = on_response
        conn.message_send(REQUEST_BYTES)


class BulkSender:
    """A long-running background flow with a declared low priority."""

    def __init__(self, sim: Simulator, stack: HostStack,
                 server_ip: int, server_port: int,
                 stage: Optional[Stage] = None,
                 chunk_bytes: int = 1_000_000,
                 low_priority: int = 0,
                 tenant: int = 0) -> None:
        self.sim = sim
        self.stack = stack
        self.stage = stage
        self.chunk_bytes = chunk_bytes
        self.low_priority = low_priority
        self.tenant = tenant
        self.bytes_completed = 0
        self.conn = stack.connect(server_ip, server_port,
                                  tenant=tenant)
        self.socket = MessageSocket(self.conn, stage)
        self.conn.on_established = lambda c: self._send_chunk()
        self._stopped = False

    def stop(self) -> None:
        self._stopped = True

    def _send_chunk(self) -> None:
        if self._stopped:
            return
        attrs = {"msg_type": "bulk", "priority": self.low_priority}
        if self.tenant:
            attrs["tenant"] = self.tenant
        self.socket.send(self.chunk_bytes, attrs=attrs,
                         on_complete=self._on_chunk_done)

    def _on_chunk_done(self, record, now_ns: int) -> None:
        self.bytes_completed += self.chunk_bytes
        self._send_chunk()


class SinkServer:
    """Accepts connections and discards everything (bulk sink)."""

    def __init__(self, stack: HostStack, port: int) -> None:
        self.bytes_received = 0
        stack.listen(port, self._on_connection)

    def _on_connection(self, conn: TcpConnection) -> None:
        conn.on_data = self._on_data

    def _on_data(self, conn: TcpConnection, delivered: int) -> None:
        self.bytes_received = max(self.bytes_received, delivered)


def make_registry() -> _ResponseRegistry:
    return _ResponseRegistry()
