"""Per-packet latency decomposition versus offered load.

The figure the ``repro.latency`` subsystem exists to draw: for a
sweep of offered loads on the Figure 9 flow-scheduling scenario
(worker + Pulsar-limited background senders), where does each
packet's end-to-end delay go?  At low load the wire terms
(serialization + propagation) and the Eden data-path costs
(classification, match, execution) dominate; as load rises the
queueing terms — switch ports and the background tenant's token
bucket — take over, exactly the Section 5 story.

Every row also reports the ``unattributed`` residual, which the
decomposer computes as the closing term of the accounting identity:
it is exactly 0 for every packet, and
``tests/latency/test_breakdown.py`` holds it under 5% of the mean
end-to-end delay.

Reproduce with ``python -m repro.cli latency-breakdown``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..latency.decompose import ALL_CLASSES, RESIDUAL
from ..latency.scenario import LatencyScenario, ServeConfig
from ..netsim.simulator import GBPS

DEFAULT_LOADS: Tuple[float, ...] = (0.3, 0.5, 0.7, 0.9)

#: Short column headers for the text figure, data-path order.
_SHORT = {
    "stage_classify": "stage",
    "enclave_match": "match",
    "interpreter_execute": "exec",
    "host_queue": "hostq",
    "ratelimiter_queue": "rlq",
    "switch_queue": "swq",
    "link_serialization": "ser",
    "link_propagation": "prop",
    RESIDUAL: "unattr",
}


@dataclass
class BreakdownPoint:
    """One offered-load point of the sweep."""

    load: float
    packets: int
    e2e_mean_us: float
    e2e_p99_us: float
    segment_mean_us: Dict[str, float]
    residual_fraction: float

    def row(self) -> str:
        cols = " ".join(
            f"{self.segment_mean_us[cls]:8.2f}"
            for cls in ALL_CLASSES)
        return (f"{self.load:4.2f} {self.packets:8d} "
                f"{self.e2e_mean_us:9.2f} {self.e2e_p99_us:10.2f}  "
                f"{cols}")


def run_breakdown(loads: Sequence[float] = DEFAULT_LOADS,
                  policy: str = "pias", variant: str = "eden",
                  seed: int = 1, duration_ms: int = 120,
                  background_rate_bps: Optional[int] = 2 * GBPS
                  ) -> List[BreakdownPoint]:
    """Sweep offered load, one full scenario per point."""
    points: List[BreakdownPoint] = []
    for load in loads:
        scenario = LatencyScenario(ServeConfig(
            policy=policy, variant=variant, seed=seed,
            duration_ms=duration_ms, load=load,
            background_rate_bps=background_rate_bps))
        scenario.run()
        scenario.finish()
        store = scenario.store
        e2e = store.e2e_histogram()
        residual_total = store.segment_histogram(RESIDUAL).total
        points.append(BreakdownPoint(
            load=load,
            packets=e2e.count,
            e2e_mean_us=e2e.mean / 1e3,
            e2e_p99_us=e2e.quantile(0.99) / 1e3,
            segment_mean_us={
                cls: store.segment_histogram(cls).mean / 1e3
                for cls in ALL_CLASSES},
            residual_fraction=(residual_total / e2e.total
                               if e2e.total else 0.0)))
    return points


def format_breakdown(points: List[BreakdownPoint],
                     policy: str = "pias",
                     variant: str = "eden") -> str:
    """The text figure: one row per load, one column per segment."""
    header_cols = " ".join(f"{_SHORT[cls]:>8}" for cls in ALL_CLASSES)
    lines = [
        f"Latency decomposition vs offered load — {policy}/{variant}; "
        f"mean microseconds per packet",
        f"load  packets  mean e2e    p99 e2e  {header_cols}",
    ]
    lines += [p.row() for p in points]
    worst = max((p.residual_fraction for p in points), default=0.0)
    lines.append(f"worst unattributed residual: {worst:.3%} of the "
                 f"mean e2e delay")
    return "\n".join(lines)
