"""The cutoff-style sweep baseline."""

import pytest

from repro.checker.sweep import sweep_verify
from repro.engine.pool import parallelism_available
from repro.engine.supervisor import FAULT_ENV
from repro.protocols import (
    nongeneralizable_matching,
    stabilizing_agreement,
)


def test_sweep_of_stabilizing_protocol():
    result = sweep_verify(stabilizing_agreement(), up_to=6)
    assert result.sizes == (2, 3, 4, 5, 6)
    assert result.all_self_stabilizing
    assert result.failing_sizes == ()
    assert result.total_states_explored == 4 + 8 + 16 + 32 + 64
    assert "self-stabilizing throughout" in result.summary()


def test_sweep_finds_example43_failures():
    result = sweep_verify(nongeneralizable_matching(), up_to=7)
    assert result.failing_sizes == (4, 6, 7)
    assert not result.all_self_stabilizing
    assert "fails at K = [4, 6, 7]" in result.summary()


def test_stop_on_failure_truncates():
    result = sweep_verify(nongeneralizable_matching(), up_to=8,
                          stop_on_failure=True)
    assert result.sizes == (3, 4)  # window width .. first failure
    assert result.failing_sizes == (4,)


@pytest.mark.skipif(not parallelism_available(),
                    reason="needs the fork start method")
def test_env_injected_fault_reaches_the_dispatcher(monkeypatch):
    # A serial sweep given no plan still honours REPRO_INJECT_FAULT: the
    # delay sends it through the batch scheduler, with the same result.
    clean = sweep_verify(nongeneralizable_matching(), up_to=6,
                         stop_on_failure=True)
    monkeypatch.setenv(FAULT_ENV, "delay:0.001")
    slowed = sweep_verify(nongeneralizable_matching(), up_to=6,
                          stop_on_failure=True)
    assert slowed.stats.scheduler_batches >= 1
    assert slowed.sizes == clean.sizes == (3, 4)
    assert slowed.failing_sizes == clean.failing_sizes


def test_custom_start():
    result = sweep_verify(stabilizing_agreement(), up_to=4, start=3)
    assert result.sizes == (3, 4)


def test_empty_range_rejected():
    with pytest.raises(ValueError):
        sweep_verify(stabilizing_agreement(), up_to=1)


def test_timings_recorded():
    result = sweep_verify(stabilizing_agreement(), up_to=4)
    assert len(result.elapsed_seconds) == len(result.reports)
    assert all(t >= 0 for t in result.elapsed_seconds)
