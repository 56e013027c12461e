"""Parallel and cached runs are indistinguishable from serial ones.

The engine's contract: ``jobs > 1`` and a warm cache are pure
optimisations — every verdict-bearing field of every report matches the
serial, uncached run, and a cached second run actually records hits and
finishes measurably faster.
"""

from __future__ import annotations

import time

import pytest

from repro.checker.sweep import sweep_verify
from repro.core.livelock import LivelockCertifier
from repro.core.convergence import verify_convergence
from repro.engine import ResultCache, parallelism_available
from repro.protocols import (
    gouda_acharya_matching,
    livelock_agreement,
    nongeneralizable_matching,
    stabilizing_agreement,
    stabilizing_sum_not_two,
)
from repro.protocols.registry import REGISTRY, get_protocol
from repro.randomgen import audit_theorems


# ----------------------------------------------------------------------
# jobs > 1 == jobs = 1
# ----------------------------------------------------------------------
def test_parallel_sweep_identical_reports():
    for protocol in (stabilizing_agreement(),
                     nongeneralizable_matching()):
        serial = sweep_verify(protocol, up_to=6, jobs=1)
        parallel = sweep_verify(protocol, up_to=6, jobs=2)
        assert parallel.reports == serial.reports
        assert len(parallel.elapsed_seconds) == len(serial.reports)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_parallel_sweep_matches_serial_for_every_bundled_protocol(name):
    """The acceptance bar: `repro sweep --jobs N` verdicts are identical
    to serial for every protocol in the registry."""
    protocol = get_protocol(name)
    serial = sweep_verify(protocol, up_to=5, jobs=1)
    parallel = sweep_verify(protocol, up_to=5, jobs=2)
    assert parallel.reports == serial.reports
    assert parallel.all_self_stabilizing == serial.all_self_stabilizing
    assert parallel.failing_sizes == serial.failing_sizes


def test_parallel_sweep_stop_on_failure_matches_serial():
    protocol = nongeneralizable_matching()
    serial = sweep_verify(protocol, up_to=8, stop_on_failure=True,
                          jobs=1)
    parallel = sweep_verify(protocol, up_to=8, stop_on_failure=True,
                            jobs=2)
    assert parallel.reports == serial.reports
    assert parallel.sizes == (3, 4)  # truncated at the first failure


def test_parallel_livelock_search_identical_report():
    for protocol in (stabilizing_sum_not_two(), livelock_agreement()):
        serial = LivelockCertifier(protocol, jobs=1).analyze()
        parallel = LivelockCertifier(protocol, jobs=2).analyze()
        assert parallel.verdict is serial.verdict
        assert parallel.supports_checked == serial.supports_checked
        assert parallel.trail_witnesses == serial.trail_witnesses
        assert parallel == serial  # stats are compare=False by design


def test_parallel_livelock_search_many_supports():
    # Gouda–Acharya matching has 441 candidate supports — enough to
    # genuinely engage the pool (the protocols above have one support
    # each, which short-circuits to the serial path).
    protocol = gouda_acharya_matching()
    serial = LivelockCertifier(protocol, max_ring_size=4,
                               jobs=1).analyze()
    parallel = LivelockCertifier(protocol, max_ring_size=4,
                                 jobs=2).analyze()
    assert parallel.supports_checked == serial.supports_checked > 1
    assert parallel.trail_witnesses == serial.trail_witnesses
    assert parallel == serial
    # Without fork (e.g. REPRO_START_METHOD=spawn) the certifier has no
    # portable context and runs serially by design.
    assert parallel.stats.parallel or not parallelism_available()


def test_parallel_fuzz_identical_report():
    serial = audit_theorems(samples=10, max_ring_size=3, seed=5, jobs=1)
    parallel = audit_theorems(samples=10, max_ring_size=3, seed=5,
                              jobs=2)
    assert parallel.samples == serial.samples
    assert parallel.certificates_issued == serial.certificates_issued
    assert parallel.deadlock_checks == serial.deadlock_checks
    assert parallel.discrepancies == serial.discrepancies


def test_parallel_verify_convergence_identical_verdict():
    for protocol in (stabilizing_agreement(), stabilizing_sum_not_two()):
        serial = verify_convergence(protocol, jobs=1)
        parallel = verify_convergence(protocol, jobs=2)
        assert parallel == serial  # stats excluded from equality


# ----------------------------------------------------------------------
# cached second run == first run, plus hits and lower wall time
# ----------------------------------------------------------------------
def test_cached_sweep_identical_with_hits_and_speedup(tmp_path):
    protocol = stabilizing_agreement()
    cache = ResultCache(tmp_path / "cache")

    began = time.perf_counter()
    first = sweep_verify(protocol, up_to=8, cache=cache)
    first_seconds = time.perf_counter() - began
    assert first.stats.cache_hits == 0
    assert first.stats.cache_misses == len(first.reports)

    began = time.perf_counter()
    second = sweep_verify(protocol, up_to=8, cache=cache)
    second_seconds = time.perf_counter() - began

    assert second.reports == first.reports
    assert second.stats.cache_hits == len(first.reports)
    assert second.stats.cache_misses == 0
    assert cache.stats.hits > 0
    # The acceptance bar: a warm cache is measurably faster than
    # recomputing seven global state spaces.
    assert second_seconds < first_seconds


def test_cached_sweep_served_from_disk_across_instances(tmp_path):
    protocol = stabilizing_agreement()
    directory = tmp_path / "cache"
    first = sweep_verify(protocol, up_to=6, cache=ResultCache(directory))

    fresh_cache = ResultCache(directory)  # cold memory, warm disk
    second = sweep_verify(protocol, up_to=6, cache=fresh_cache)
    assert second.reports == first.reports
    assert fresh_cache.stats.disk_hits == len(first.reports)


def test_cached_livelock_and_fuzz_reports_identical(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    protocol = stabilizing_sum_not_two()
    first = LivelockCertifier(protocol, cache=cache).analyze()
    second = LivelockCertifier(protocol, cache=cache).analyze()
    assert second == first
    assert second.stats.cache_hits == 1

    audit_first = audit_theorems(samples=6, max_ring_size=3, seed=9,
                                 cache=cache)
    audit_second = audit_theorems(samples=6, max_ring_size=3, seed=9,
                                  cache=cache)
    assert audit_second.samples == audit_first.samples
    assert (audit_second.certificates_issued
            == audit_first.certificates_issued)
    assert audit_second.deadlock_checks == audit_first.deadlock_checks
    assert audit_second.discrepancies == audit_first.discrepancies
    assert audit_second.stats.cache_hits > 0
    assert audit_second.stats.work_items == 0


def test_cached_verify_convergence_identical(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    protocol = stabilizing_agreement()
    first = verify_convergence(protocol, cache=cache)
    second = verify_convergence(protocol, cache=cache)
    assert second == first
    assert second.stats.cache_hits == 1
    assert second.stats.work_items == 0


def test_parallel_cached_sweep_mixed_modes(tmp_path):
    """jobs>1 with a half-warm cache: hits from cache, misses from the
    pool, assembled in size order."""
    protocol = stabilizing_agreement()
    cache = ResultCache(tmp_path / "cache")
    narrow = sweep_verify(protocol, up_to=5, cache=cache)
    wide = sweep_verify(protocol, up_to=8, jobs=2, cache=cache)
    assert wide.sizes == (2, 3, 4, 5, 6, 7, 8)
    assert wide.reports[:len(narrow.reports)] == narrow.reports
    assert wide.stats.cache_hits == len(narrow.reports)
    reference = sweep_verify(protocol, up_to=8)
    assert wide.reports == reference.reports
