"""One counter path: layer counts reach every open report exactly once.

A layer counter (``kernel.``, ``localkernel.``, ``fvs.``, ...) is
recorded by one ``obs.metric`` call where its event happens.  Every
:class:`EngineStats` open at that moment collects it — in this process,
or shipped back with the result of a dispatched work item — so the
enclosing report reads the same totals on every dispatch path, and a
per-analysis fold is never needed.  Report counters (``engine.``,
``supervisor.``, ``scheduler.``) stay with the report that wrote them.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.checker.sweep import sweep_verify
from repro.engine import EngineStats, ResultCache
from repro.engine.kernel import build_space, compile_protocol
from repro.engine.pool import parallelism_available
from repro.engine.supervisor import SupervisorPolicy, supervise_work_items
from repro.obs import runtime as obs
from repro.protocols import generalizable_matching, stabilizing_sum_not_two
from repro.randomgen import _SampleOutcome, audit_theorems

needs_fork = pytest.mark.skipif(not parallelism_available(),
                                reason="needs the fork start method")

#: Layer counts one work item records.
K = 3
ITEMS = 6


def _count(k, item):
    for _ in range(k):
        obs.metric("localkernel.mask_evaluations")
    return item


def _count_with_report(k, item):
    """Records layer counts inside a report of its own, which also
    writes report counters — those must stay in the nested report."""
    nested = EngineStats(work_items=5)
    with nested.collecting():
        _count(k, item)
        obs.metric("supervisor.retries")
        nested.cache_hits += 1
    assert nested.mask_evaluations == k
    return item


def _nested_dispatch(k, item):
    """A dispatch from inside a work item: it runs inline."""
    assert supervise_work_items(_count, range(2), jobs=2,
                                context=k) == [0, 1]
    return item


@pytest.fixture
def crash_once(tmp_path):
    """A worker that records its counts, then SIGKILLs itself on the
    first attempt at each item in *items* (marker files carry the
    attempt history across forked children)."""
    def make(items):
        def worker(k, item):
            _count(k, item)
            marker = tmp_path / f"crashed-{item}"
            if item in items and not marker.exists():
                marker.write_text("x")
                os.kill(os.getpid(), signal.SIGKILL)
            return item

        return worker

    return make


def _dispatch(worker, jobs=2, **kwargs) -> EngineStats:
    outer = EngineStats()
    with outer.collecting():
        results = supervise_work_items(worker, range(ITEMS), jobs=jobs,
                                       context=K, stats=outer, **kwargs)
    assert results == list(range(ITEMS))
    return outer


# ----------------------------------------------------------------------
# Every dispatch path counts k x items, once
# ----------------------------------------------------------------------
class TestDispatchPaths:
    def test_serial(self):
        stats = _dispatch(_count, jobs=1)
        assert not stats.parallel
        assert stats.mask_evaluations == K * ITEMS

    @needs_fork
    def test_fork_batch(self):
        stats = _dispatch(_count)
        assert stats.parallel and stats.scheduler_batches > 0
        assert stats.mask_evaluations == K * ITEMS

    @needs_fork
    def test_retried_then_successful(self, crash_once):
        # The killed attempts recorded their counts before dying; those
        # never reach the parent, the successful retries do.
        stats = _dispatch(crash_once({1, 4}),
                          policy=SupervisorPolicy())
        assert stats.supervisor_retries == 2
        assert stats.mask_evaluations == K * ITEMS

    @needs_fork
    def test_degraded(self, crash_once):
        # No retry budget: the killed item reruns in-parent and counts
        # there, directly.
        stats = _dispatch(crash_once({2}),
                          policy=SupervisorPolicy(retries=0))
        assert stats.supervisor_degraded == 1
        assert stats.mask_evaluations == K * ITEMS

    @pytest.mark.parametrize("jobs", [
        1, pytest.param(2, marks=needs_fork)])
    def test_inline_nested_dispatch(self, jobs):
        stats = _dispatch(_nested_dispatch, jobs=jobs)
        assert stats.mask_evaluations == 2 * K * ITEMS

    @pytest.mark.parametrize("jobs", [
        1, pytest.param(2, marks=needs_fork)])
    def test_report_counters_stay_in_the_nested_report(self, jobs):
        stats = _dispatch(_count_with_report, jobs=jobs)
        assert stats.mask_evaluations == K * ITEMS
        # The dispatcher's own count: one per item it ran.  The nested
        # reports' 5 work items and 1 cache hit each stay with them.
        assert stats.work_items == ITEMS
        assert stats.cache_hits == 0
        assert stats.supervisor_retries == 0

    def test_closed_stats_collect_nothing(self):
        stats = EngineStats()
        with stats.collecting():
            _count(K, 0)
        _count(K, 0)
        supervise_work_items(_count, range(2), context=K)
        assert stats.mask_evaluations == K


# ----------------------------------------------------------------------
# The four counter defects of the per-analysis folds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
def test_fuzz_counts_certificates(tmp_path, jobs):
    report = audit_theorems(samples=40, seed=1, jobs=jobs,
                            cache=ResultCache(tmp_path / "cache"))
    stats = report.stats
    assert report.clean and report.certificates_issued > 0
    assert stats.mask_evaluations > 0
    assert stats.skeleton_compiles > 0
    assert stats.work_items == 37  # 40 samples, 37 distinct protocols


def test_kernel_compile_is_charged_once_per_compile():
    protocol = generalizable_matching()
    stats = EngineStats()
    with stats.collecting():
        build_space(protocol.instantiate(4))
        build_space(protocol.instantiate(5))
    compiled = compile_protocol(protocol)  # the memoized compile
    assert compiled.compile_seconds > 0
    assert stats.metrics.value("kernel.compile_seconds") \
        == compiled.compile_seconds
    assert stats.states_encoded == 3 ** 4 + 3 ** 5

    protocol = stabilizing_sum_not_two()
    sweep = sweep_verify(protocol, up_to=9).stats
    assert sweep.work_items == 8
    assert sweep.compile_seconds == compile_protocol(protocol).compile_seconds


# ----------------------------------------------------------------------
# Jobs invariance
# ----------------------------------------------------------------------
_VARIANT = ("jobs", "parallel", "scheduler_", "live_snapshots")


def _invariant_counters(stats: EngineStats) -> dict:
    return {name: value for name, value in stats.to_dict().items()
            if isinstance(value, (int, float))
            and not name.endswith("seconds")
            and not name.startswith(_VARIANT)}


@needs_fork
def test_fuzz_counters_are_jobs_invariant(tmp_path):
    counters = []
    for jobs in (1, 2):
        report = audit_theorems(samples=40, seed=1, jobs=jobs,
                                cache=ResultCache(tmp_path / f"jobs{jobs}"))
        counters.append(_invariant_counters(report.stats))
    assert counters[0]["mask_evaluations"] > 0
    assert counters[0] == counters[1]


@needs_fork
def test_sweep_counters_are_jobs_invariant():
    def counters(jobs):
        stats = sweep_verify(stabilizing_sum_not_two(), up_to=9,
                             jobs=jobs).stats
        return _invariant_counters(stats)

    serial = counters(1)
    assert serial["states_encoded"] == serial["states_explored"] > 0
    assert counters(2) == serial


def test_cached_sample_outcomes_from_older_runs_still_load():
    # Entries written before the counter fields left _SampleOutcome
    # carry them in their pickled state; they must still load.
    import pickle

    outcome = _SampleOutcome(certified=True, deadlock_checks=4,
                             discrepancies=())
    for name, value in (("compile_seconds", 0.5), ("encode_seconds", 0.25),
                        ("states_encoded", 100), ("states_explored", 100)):
        object.__setattr__(outcome, name, value)
    loaded = pickle.loads(pickle.dumps(outcome))
    assert loaded == _SampleOutcome(certified=True, deadlock_checks=4,
                                    discrepancies=())
