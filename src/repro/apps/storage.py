"""The storage application of the Pulsar case study (Section 5.3).

"The experiment involves two tenants running our custom application
that generates 64K IOs.  One of the tenants generates READ requests
while the other one WRITEs to a storage server backed by a RAM disk
drive.  The storage server is connected to our testbed through a 1Gbps
link."

The model:

* The server executes IOs serially from a FIFO — the *shared resource*.
  Each IO costs a fixed per-op overhead plus size/backend_rate (the RAM
  disk).  READ requests are tiny on the forward path, so a READ tenant
  can flood this queue far faster than a WRITE tenant, whose requests
  each carry 64 KB across the wire first — exactly the asymmetry the
  paper describes ("READs are small on the forward path and manage to
  fill the queues in shared resources").
* Clients keep a fixed number of IOs outstanding per tenant and record
  completed bytes for throughput.

Pulsar's remedy — charging a READ *request* by its operation size at
the client's rate limiter — is applied by the enclave function in
:mod:`repro.functions.pulsar`; this module only provides the traffic.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..core.stage import Stage
from ..netsim.simulator import SEC, Simulator, US
from ..netsim.tracing import ThroughputMeter
from ..stack.netstack import HostStack
from ..transport.sockets import MessageSocket
from ..transport.tcp import TcpConnection

IO_SIZE = 64 * 1024           # "64K IOs"
REQUEST_BYTES = 256           # READ request / WRITE ack on the wire
OP_READ = 1
OP_WRITE = 2


#: Default service ports: READ requests and WRITE data arrive on
#: different ports so the server can frame each byte stream.
READ_PORT = 7000
WRITE_PORT = 7001


class StorageServer:
    """A storage server with a serial IO backend behind its NIC.

    READ and WRITE traffic arrive on separate service ports (framing:
    a READ op is a :data:`REQUEST_BYTES` request; a WRITE op is
    ``io_size`` bytes of data).
    """

    def __init__(self, sim: Simulator, stack: HostStack,
                 read_port: int = READ_PORT,
                 write_port: int = WRITE_PORT,
                 backend_bps: int = 8_000_000_000,
                 per_op_ns: int = 20 * US,
                 io_size: int = IO_SIZE,
                 stage: Optional[Stage] = None) -> None:
        self.sim = sim
        self.stack = stack
        self.backend_bps = backend_bps
        self.per_op_ns = per_op_ns
        self.io_size = io_size
        self.stage = stage
        self._io_queue: Deque[Tuple[TcpConnection, int, int, int]] = \
            deque()
        self._busy = False
        self.ops_completed = {OP_READ: 0, OP_WRITE: 0}
        self.queue_max = 0
        stack.listen(read_port,
                     lambda conn: self._serve(conn, OP_READ))
        stack.listen(write_port,
                     lambda conn: self._serve(conn, OP_WRITE))

    def _serve(self, conn: TcpConnection, op: int) -> None:
        state = {"consumed": 0}
        unit = REQUEST_BYTES if op == OP_READ else self.io_size

        def on_data(c: TcpConnection, delivered: int) -> None:
            while delivered - state["consumed"] >= unit:
                state["consumed"] += unit
                self._enqueue_io(c, op, self.io_size)

        conn.on_data = on_data

    def _enqueue_io(self, conn: TcpConnection, op: int,
                    size: int) -> None:
        self._io_queue.append((conn, op, size, self.sim.now))
        self.queue_max = max(self.queue_max, len(self._io_queue))
        if not self._busy:
            self._service_next()

    def _service_next(self) -> None:
        if not self._io_queue:
            self._busy = False
            return
        self._busy = True
        conn, op, size, _ = self._io_queue.popleft()
        service_ns = self.per_op_ns + size * 8 * SEC // self.backend_bps
        self.sim.post(service_ns, self._complete_io, conn, op, size)

    def _complete_io(self, conn: TcpConnection, op: int,
                     size: int) -> None:
        self.ops_completed[op] += 1
        if conn.state not in (TcpConnection.DONE,):
            socket = MessageSocket(conn, self.stage)
            if op == OP_READ:
                socket.send(size, attrs={"msg_type": "read_data",
                                         "op_read": 0,
                                         "tenant": conn.tenant})
            else:
                socket.send(REQUEST_BYTES,
                            attrs={"msg_type": "write_ack",
                                   "op_read": 0,
                                   "tenant": conn.tenant})
        self._service_next()


class StorageClient:
    """One tenant's IO generator.

    The tenant *generates* IOs open loop at ``gen_ops_per_sec`` (the
    paper's "custom application that generates 64K IOs") — this is the
    crux of the case study: generating a READ costs only a tiny request
    on the wire, so a READ tenant's ops reach the server's shared IO
    queue at the generation rate, while a WRITE tenant's ops arrive
    only as fast as the wire carries 64 KB each.  An optional
    ``max_outstanding`` turns the client into a closed loop instead.
    """

    def __init__(self, sim: Simulator, stack: HostStack,
                 server_ip: int, server_port: int, op: int,
                 tenant: int,
                 gen_ops_per_sec: float = 5000.0,
                 max_outstanding: Optional[int] = None,
                 stage: Optional[Stage] = None,
                 io_size: int = IO_SIZE) -> None:
        if op not in (OP_READ, OP_WRITE):
            raise ValueError("op must be OP_READ or OP_WRITE")
        self.sim = sim
        self.stack = stack
        self.op = op
        self.tenant = tenant
        self.gen_ops_per_sec = gen_ops_per_sec
        self.max_outstanding = max_outstanding
        self.stage = stage
        self.io_size = io_size
        self.meter = ThroughputMeter(
            f"tenant{tenant}-{'read' if op == OP_READ else 'write'}")
        self.ops_done = 0
        self.ops_issued = 0
        self._in_flight = 0
        self._acked_bytes = 0
        self._running = False
        self.conn = stack.connect(server_ip, server_port,
                                  tenant=tenant)
        self.socket = MessageSocket(self.conn, stage)
        self.conn.on_established = lambda c: self.start()
        self.conn.on_data = self._on_data

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._tick()

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        if self.max_outstanding is None or \
                self._in_flight < self.max_outstanding:
            self._issue()
        gap_ns = max(1, int(SEC / self.gen_ops_per_sec))
        self.sim.post(gap_ns, self._tick)

    def _issue(self) -> None:
        self._in_flight += 1
        self.ops_issued += 1
        if self.op == OP_READ:
            # A small request; Pulsar charges it by the op size (the
            # metadata carries op_read=1 and msg_size=io_size).
            self.socket.send(REQUEST_BYTES,
                             attrs={"msg_type": "read_req",
                                    "op_read": 1,
                                    "msg_size": self.io_size,
                                    "tenant": self.tenant})
        else:
            self.socket.send(self.io_size,
                             attrs={"msg_type": "write_data",
                                    "op_read": 0,
                                    "msg_size": self.io_size,
                                    "tenant": self.tenant})

    def _on_data(self, conn: TcpConnection, delivered: int) -> None:
        """Completions: one READ completes per ``io_size`` bytes of
        response data; one WRITE per ``REQUEST_BYTES`` ack."""
        unit = self.io_size if self.op == OP_READ else REQUEST_BYTES
        while delivered - self._acked_bytes >= unit:
            self._acked_bytes += unit
            self._in_flight -= 1
            self.ops_done += 1
            self.meter.add(self.io_size, self.sim.now)

    def throughput_mbytes_per_s(self, start_ns: int,
                                end_ns: int) -> float:
        return self.meter.mbytes_per_s(start_ns, end_ns)
