"""Parallel and cached runs are indistinguishable from serial ones.

The engine's contract: ``jobs > 1`` and a warm cache are pure
optimisations — every verdict-bearing field of every report matches the
naive serial reference and the serial, uncached production run (the
``jobs`` and ``cache`` cells of :mod:`tests.differential`), and a
cached second run actually records hits and finishes measurably
faster.
"""

from __future__ import annotations

import pytest

from repro.checker.sweep import sweep_verify
from repro.engine import ResultCache, parallelism_available
from repro.protocols import stabilizing_agreement
from repro.protocols.registry import REGISTRY
from tests.differential import sources

AGREEMENT_SS = sources.bundled("agreement-ss")
SUM_NOT_TWO_SS = sources.bundled("sum-not-two-ss")


# ----------------------------------------------------------------------
# jobs > 1 == jobs = 1
# ----------------------------------------------------------------------
def test_parallel_sweep_identical_reports(matrix):
    for source in (AGREEMENT_SS, sources.bundled("matching-ex4.3")):
        parallel = matrix.cell("sweep", source, up_to=6, jobs=2).result
        assert len(parallel.elapsed_seconds) == len(parallel.reports)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_parallel_sweep_matches_serial_for_every_bundled_protocol(matrix,
                                                                 name):
    """The acceptance bar: `repro sweep --jobs N` verdicts are identical
    to serial for every protocol in the registry."""
    source = sources.bundled(name)
    parallel = matrix.cell("sweep", source, up_to=5, jobs=2).result
    serial = matrix.reference("sweep", source, up_to=5)
    assert parallel.all_self_stabilizing == serial.all_self_stabilizing
    assert parallel.failing_sizes == serial.failing_sizes


def test_parallel_sweep_stop_on_failure_matches_serial(matrix):
    parallel = matrix.cell("sweep", sources.bundled("matching-ex4.3"),
                           up_to=8, stop_on_failure=True, jobs=2).result
    assert parallel.sizes == (3, 4)  # truncated at the first failure


def test_parallel_livelock_search_identical_report(matrix):
    # Whole-report equality with the serial run (stats are
    # compare=False by design), witness states included.
    for source in (SUM_NOT_TWO_SS, sources.bundled("agreement-livelock")):
        matrix.cell("livelock", source, jobs=2)


def test_parallel_livelock_search_many_supports(matrix):
    # Gouda–Acharya matching has 441 candidate supports — enough to
    # genuinely engage the dispatcher (the protocols above have one
    # support each, which short-circuits to the serial path).
    parallel = matrix.cell("livelock",
                           sources.bundled("matching-gouda-acharya"),
                           max_ring_size=4, jobs=2).result
    assert parallel.supports_checked > 1
    # Without fork (e.g. REPRO_START_METHOD=spawn) the certifier has no
    # portable context and runs serially by design.
    assert parallel.stats.parallel or not parallelism_available()


def test_parallel_fuzz_identical_report(matrix):
    matrix.cell("audit", sources.stream(5), samples=10, max_ring_size=3,
                jobs=2)


def test_parallel_verify_convergence_identical_verdict(matrix):
    for source in (AGREEMENT_SS, SUM_NOT_TWO_SS):
        matrix.cell("verify", source, jobs=2)


# ----------------------------------------------------------------------
# cached second run == first run, plus hits and lower wall time
# ----------------------------------------------------------------------
def test_cached_sweep_identical_with_hits_and_speedup(matrix):
    first, second = matrix.cell("sweep", AGREEMENT_SS, up_to=8,
                                cache="warm").runs
    assert first.result.stats.cache_hits == 0
    assert first.result.stats.cache_misses == len(first.result.reports)
    assert second.result.reports == first.result.reports
    assert second.result.stats.cache_hits == len(first.result.reports)
    assert second.result.stats.cache_misses == 0
    assert second.cache.stats.hits > 0
    # The acceptance bar: a warm cache is measurably faster than
    # recomputing seven global state spaces.
    assert second.seconds < first.seconds


def test_cached_sweep_served_from_disk_across_instances(matrix):
    first, second = matrix.cell("sweep", AGREEMENT_SS, up_to=6,
                                cache="warm").runs
    # The warm run's cache is a fresh instance: cold memory, warm disk.
    assert second.cache.stats.disk_hits == len(first.result.reports)


def test_cached_livelock_and_fuzz_reports_identical(matrix):
    # The certificate is cached inside the convergence report.
    second = matrix.cell("verify", SUM_NOT_TWO_SS, cache="warm").result
    assert second.livelock.certified
    assert second.stats.cache_hits == 1
    assert second.stats.work_items == 0

    audit = matrix.cell("audit", sources.stream(9), samples=6,
                        max_ring_size=3, cache="warm").result
    assert audit.stats.cache_hits > 0
    assert audit.stats.work_items == 0


def test_cached_verify_convergence_identical(matrix):
    second = matrix.cell("verify", AGREEMENT_SS, cache="warm").result
    assert second.stats.cache_hits == 1
    assert second.stats.work_items == 0


def test_parallel_cached_sweep_mixed_modes(matrix, tmp_path):
    """jobs>1 with a half-warm cache: hits from cache, misses from the
    pool, assembled in size order."""
    protocol = stabilizing_agreement()
    cache = ResultCache(tmp_path / "cache")
    narrow = sweep_verify(protocol, up_to=5, cache=cache)
    wide = sweep_verify(protocol, up_to=8, jobs=2, cache=cache)
    assert wide.sizes == (2, 3, 4, 5, 6, 7, 8)
    assert wide.reports[:len(narrow.reports)] == narrow.reports
    assert wide.stats.cache_hits == len(narrow.reports)
    assert wide.reports == matrix.reference("sweep", AGREEMENT_SS,
                                            up_to=8).reports
