"""The cutoff-style sweep baseline."""

import pytest

from repro.checker import StateGraph
from repro.checker.convergence import GlobalReport, check_instance
from repro.checker.deadlock import illegitimate_deadlocks
from repro.checker.sweep import _sweep_key, sweep_verify
from repro.engine import ResultCache, analysis_key
from repro.engine.pool import parallelism_available
from repro.engine.supervisor import FAULT_ENV
from repro.protocols import (
    nongeneralizable_matching,
    stabilizing_agreement,
    three_coloring,
)


def test_sweep_of_stabilizing_protocol():
    result = sweep_verify(stabilizing_agreement(), up_to=6)
    assert result.sizes == (2, 3, 4, 5, 6)
    assert result.all_self_stabilizing
    assert result.failing_sizes == ()
    assert result.total_states == 4 + 8 + 16 + 32 + 64
    assert "self-stabilizing throughout" in result.summary()


def test_sweep_finds_example43_failures():
    result = sweep_verify(nongeneralizable_matching(), up_to=7)
    assert result.failing_sizes == (4, 6, 7)
    assert not result.all_self_stabilizing
    assert "fails at K = [4, 6, 7]" in result.summary()


class _RecordingCache(ResultCache):
    """A result cache that records every key it is asked for."""

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.looked_up: list[str] = []

    def get(self, key, default=None):
        self.looked_up.append(key)
        return super().get(key, default)


def test_stop_on_failure_truncates(tmp_path):
    protocol = nongeneralizable_matching()
    result = sweep_verify(protocol, up_to=8, stop_on_failure=True)
    assert result.sizes == (3, 4)  # window width .. first failure
    assert result.failing_sizes == (4,)
    # Cached, the serial sweep still stops at K = 4: it checks and
    # stores two sizes cold, answers both warm, and never looks past 4.
    # A parallel sweep claims its sizes before it runs any, so a
    # failure the cache answers ends its claims just the same.
    past = {_sweep_key(protocol, size) for size in range(5, 9)}
    for run, jobs in (("cold", 1), ("warm", 1), ("warm", 2)):
        cache = _RecordingCache(tmp_path)
        cached = sweep_verify(protocol, up_to=8, stop_on_failure=True,
                              cache=cache, jobs=jobs)
        assert cached.reports == result.reports
        assert past.isdisjoint(cache.looked_up)
        stats = cached.stats
        if run == "cold":
            assert stats.work_items == stats.cache_misses == 2
            assert len(list(tmp_path.rglob("*.pkl"))) == 2
        else:
            assert (stats.cache_hits, stats.cache_misses) == (2, 0)
            assert stats.work_items == 0


def test_reports_stored_before_the_witness_cap_are_recomputed(tmp_path):
    # Before the cap a per-K entry held every deadlock, decoded, and no
    # deadlock_count; its key had no max_witnesses, so it is never read.
    protocol = three_coloring()
    fresh = check_instance(protocol.instantiate(6))
    old = object.__new__(GlobalReport)
    old.__dict__.update({name: getattr(fresh, name)
                         for name in GlobalReport.__dataclass_fields__
                         if name != "deadlock_count"})
    old.__dict__["deadlocks_outside"] = tuple(
        illegitimate_deadlocks(StateGraph(protocol.instantiate(6))))
    cache = ResultCache(tmp_path)
    cache.put(analysis_key("check-instance", protocol, ring_size=6), old)
    result = sweep_verify(protocol, start=6, up_to=6, cache=cache)
    assert (result.stats.cache_hits, result.stats.cache_misses) == (0, 1)
    assert result.reports == (fresh,)
    assert result.reports[0].deadlock_count \
        == len(old.deadlocks_outside) > len(fresh.deadlocks_outside)


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
