"""The ``latency-serve`` scenario: a live fig9-style workload whose
per-packet latency decompositions stream out over HTTP.

:class:`LatencyScenario` wires the whole subsystem together:

* a :class:`~repro.latency.store.LatencyStore` and
  :class:`~repro.latency.decompose.LatencyCollector`, hung on a
  :class:`repro.telemetry.Telemetry`;
* the Figure 9 flow-scheduling workload
  (:func:`repro.experiments.fig9.build_flow_scheduling`) built with
  that telemetry — so the stacks, enclaves, rate limiters, ports and
  hosts all feed the collector — plus Pulsar rate limiting on the
  background senders (``background_rate_bps``) so the
  ``ratelimiter_queue`` segment sees real queueing;
* stepped execution (:meth:`step` / :meth:`run`) so an HTTP server
  can serve live data between simulation slices, optionally paced in
  wall-clock time;
* the smoke contract (:meth:`smoke_failures`): every segment class
  present with observations, every attributable segment actually
  exercised, and the ``unattributed`` residual at most
  ``max_residual_fraction`` of the mean end-to-end delay.  CI runs
  this via ``python -m repro.cli latency-serve --once --smoke``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..experiments.fig9 import Fig9Result, build_flow_scheduling
from ..netsim.simulator import GBPS, MS
from ..telemetry import Telemetry
from .decompose import ALL_CLASSES, LatencyCollector, RESIDUAL, SEGMENTS
from .server import LatencyServer
from .store import LatencyStore


@dataclass
class ServeConfig:
    """Knobs of one latency-serve run (CLI flags map 1:1)."""

    policy: str = "pias"
    variant: str = "eden"
    seed: int = 1
    duration_ms: int = 200
    step_ms: int = 10
    load: float = 0.7
    n_background: int = 2
    #: Aggregate Pulsar rate for the background tenant; None disables
    #: rate limiting (and empties the ratelimiter_queue segment).
    background_rate_bps: Optional[int] = 2 * GBPS
    window_ms: int = 10
    max_residual_fraction: float = 0.05
    host: str = "127.0.0.1"
    port: int = 0
    #: Wall-clock seconds to sleep between simulation steps when
    #: serving live; 0 runs the workload flat out.
    pace_s: float = 0.0


class LatencyScenario:
    """One built latency-serve workload plus its collector/store."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        self.store = LatencyStore(window_ns=cfg.window_ms * MS)
        self.collector = LatencyCollector(store=self.store)
        self.telemetry = Telemetry(latency=self.collector)
        self.workload = build_flow_scheduling(
            policy=cfg.policy, variant=cfg.variant, seed=cfg.seed,
            duration_ms=cfg.duration_ms, load=cfg.load,
            n_background=cfg.n_background,
            telemetry=self.telemetry,
            background_rate_bps=cfg.background_rate_bps)
        self._next_ns = 0
        self._finished: Optional[Fig9Result] = None

    # -- execution ------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._next_ns >= self.config.duration_ms * MS

    def step(self) -> bool:
        """Advance one ``step_ms`` slice; False once the run is
        complete."""
        if self.done:
            return False
        self._next_ns = min(self._next_ns + self.config.step_ms * MS,
                            self.config.duration_ms * MS)
        self.workload.advance(self._next_ns)
        return not self.done

    def run(self, progress: Optional[Callable[["LatencyScenario"],
                                              None]] = None) -> None:
        """Run to completion, pacing by ``config.pace_s`` per step
        and calling ``progress`` after each slice."""
        while True:
            more = self.step()
            if progress is not None:
                progress(self)
            if not more:
                break
            if self.config.pace_s > 0:
                time.sleep(self.config.pace_s)

    def finish(self) -> Fig9Result:
        """Stop the workload, flush open windows, summarize FCTs."""
        if self._finished is None:
            self.workload.client.stop()
            self.store.flush()
            self._finished = self.workload.finish()
        return self._finished

    # -- serving --------------------------------------------------------

    def make_server(self) -> LatencyServer:
        cfg = self.config
        return LatencyServer(
            self.store, collector=self.collector, host=cfg.host,
            port=cfg.port,
            extra_info={"scenario": {
                "policy": cfg.policy, "variant": cfg.variant,
                "seed": cfg.seed, "duration_ms": cfg.duration_ms,
                "load": cfg.load,
                "background_rate_bps": cfg.background_rate_bps,
            }})

    # -- smoke contract -------------------------------------------------

    def smoke_failures(self) -> List[str]:
        """Violations of the serve contract; empty means healthy."""
        failures: List[str] = []
        if self.collector.completed == 0:
            failures.append("no packets completed the data path")
            return failures
        for cls in ALL_CLASSES:
            if self.store.segment_histogram(cls).count == 0:
                failures.append(
                    f"segment class {cls!r} missing from the store")
        for cls in SEGMENTS:
            hist = self.store.segment_histogram(cls)
            if hist.count and hist.total == 0:
                failures.append(
                    f"segment class {cls!r} never saw a nonzero "
                    f"delay — scenario no longer exercises it")
        e2e = self.store.e2e_histogram()
        residual = self.store.segment_histogram(RESIDUAL)
        if e2e.total > 0:
            fraction = residual.total / e2e.total
            if fraction > self.config.max_residual_fraction:
                failures.append(
                    f"unattributed residual is {fraction:.1%} of the "
                    f"mean e2e delay (budget "
                    f"{self.config.max_residual_fraction:.0%})")
        return failures

    def __repr__(self) -> str:
        return (f"LatencyScenario({self.config.policy}/"
                f"{self.config.variant}, "
                f"packets={self.collector.completed})")
