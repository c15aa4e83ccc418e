"""Acceptance: the control plane converges over a lossy channel.

Runs the full control-demo scenario — 10% control-message loss,
duplication, jitter, one mid-run enclave restart, telemetry-driven
PIAS and WCMP reconfiguration — and checks the paper's claim for the
coarse-timescale loop: every enclave ends at the controller's latest
epoch with data-plane state equal to the desired state, and a
stale-epoch install is provably rejected.
"""

import pytest

from repro.experiments import control_demo


@pytest.mark.slow
@pytest.mark.control_faults
class TestLossyConvergence:
    @pytest.fixture(scope="class")
    def result(self):
        return control_demo.run_scenario(seed=1, loss=0.10)

    def test_scenario_converges(self, result):
        assert result.converged

    def test_every_host_reaches_the_desired_epoch(self, result):
        assert len(result.hosts) == 3
        for outcome in result.hosts.values():
            assert outcome.applied_epoch == outcome.desired_epoch
            assert outcome.pias_in_sync
            assert outcome.wcmp_in_sync

    def test_faults_actually_happened(self, result):
        assert result.faults["dropped"] > 0
        assert result.faults["duplicated"] > 0
        assert result.channel["retransmits"] > 0

    def test_restart_was_replayed(self, result):
        restarts = [h.restarts for h in result.hosts.values()]
        assert sum(restarts) == 1
        assert result.replays >= 1

    def test_telemetry_drove_reconfiguration(self, result):
        assert result.reports_received > 0
        assert result.pias_updates >= 1
        assert result.wcmp_updates >= 1
        # The capacity feed went asymmetric 9:1 mid-run; the rolled
        # out weights must reflect it.
        assert result.final_weights == [(1, 900), (2, 100)]
        assert len(result.final_thresholds) == 3

    def test_stale_epoch_install_rejected(self, result):
        assert result.stale_rejected

    def test_format_mentions_convergence(self, result):
        text = control_demo.format_result(result)
        assert "converged: yes" in text


@pytest.mark.slow
@pytest.mark.control_faults
def test_higher_loss_and_other_seed_still_converge():
    result = control_demo.run_scenario(seed=7, loss=0.20,
                                       duration_ms=300)
    assert result.converged


@pytest.mark.control_faults
def test_seed_one_golden():
    """``run_scenario()`` at seed 1 pinned to literals: what the
    control loops heard (reports in, PIAS and WCMP updates), where
    they converged, and every channel and fault count.  Any change to
    how agents report must leave the loops' sample stream, and so
    these numbers, as they are."""
    result = control_demo.run_scenario()
    assert result.reports_received == 338
    assert result.pias_updates == 125
    assert result.wcmp_updates == 2
    assert result.replays == 1
    assert result.final_thresholds == [
        (90000, 7), (207000, 6), (4611686018427387904, 5)]
    assert result.final_weights == [(1, 900), (2, 100)]
    assert result.channel == {
        'sent': 392, 'sent_unreliable': 1, 'retransmits': 119,
        'acked': 391, 'nacked': 1, 'expired': 0, 'delivered': 339,
        'duplicates_dropped': 0, 'stale_session_drops': 0,
        'reacked': 0}
    assert (result.faults["dropped"], result.faults["duplicated"]) == \
        (115, 20)
    assert {host: (h.applied_epoch, h.desired_epoch, h.restarts,
                   h.stale_rejections)
            for host, h in result.hosts.items()} == {
        'h1': (132, 132, 0, 1), 'h2': (128, 128, 1, 0),
        'h3': (128, 128, 0, 0)}
    assert result.converged
