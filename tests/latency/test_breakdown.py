"""End-to-end scenario tests: the fig9-style workload decomposes
with the unattributed residual within budget (in fact exactly zero),
and the breakdown figure reproduces."""

import pytest

from repro.experiments.latency_breakdown import (format_breakdown,
                                                 run_breakdown)
from repro.latency import ALL_CLASSES, RESIDUAL
from repro.latency.scenario import LatencyScenario, ServeConfig

pytestmark = [pytest.mark.latency, pytest.mark.slow]


def run_scenario(duration_ms=50):
    scenario = LatencyScenario(ServeConfig(
        duration_ms=duration_ms, seed=2))
    scenario.run()
    scenario.finish()
    return scenario


def assert_contract(scenario):
    store = scenario.store
    assert scenario.collector.completed > 1000
    for cls in ALL_CLASSES:
        assert store.segment_histogram(cls).count == \
            scenario.collector.completed, f"class {cls} incomplete"
    # The headline acceptance bound: unattributed stays within 5% of
    # the mean end-to-end delay...
    e2e = store.e2e_histogram()
    residual = store.segment_histogram(RESIDUAL)
    assert residual.total <= 0.05 * e2e.total
    # ...and with complete instrumentation it is in fact exactly 0
    # for every single packet.
    assert residual.total == 0
    assert residual.vmax == 0
    assert scenario.smoke_failures() == []


def test_fig9_scenario_residual_within_budget_single_heap():
    scenario = run_scenario()
    store = scenario.store
    assert_contract(scenario)
    # The scenario exercises every attributable segment for real.
    for cls in ("ratelimiter_queue", "switch_queue",
                "link_serialization", "interpreter_execute"):
        assert store.segment_histogram(cls).total > 0, cls
    # Journeys are conserved: started = delivered + dropped + still
    # in flight (no silent losses, no double counting).
    stats = scenario.collector.stats()
    assert stats["started"] == (stats["completed"] +
                                stats["dropped"] +
                                stats["pending"] +
                                stats["evicted"])
    assert stats["orphan_events"] == 0


def test_breakdown_figure_reproduces():
    points = run_breakdown(loads=(0.5,), duration_ms=40, seed=3)
    [point] = points
    assert point.packets > 1000
    assert point.residual_fraction == 0.0
    assert set(point.segment_mean_us) == set(ALL_CLASSES)
    # Queueing dominates the wire terms in this congested setup.
    assert point.segment_mean_us["switch_queue"] > \
        point.segment_mean_us["link_propagation"]
    text = format_breakdown(points)
    assert "Latency decomposition vs offered load" in text
    assert "unattr" in text and "0.50" in text
    assert "worst unattributed residual: 0.000%" in text
