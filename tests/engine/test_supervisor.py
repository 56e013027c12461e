"""Unit tests for :mod:`repro.engine.supervisor`.

The differential matrix (``tests/differential/``) pins verdict
equality on real protocols; this file pins the supervision
mechanics themselves — retry ladders, timeouts, degradation, cache
write-through and the fault-injection plumbing — on tiny synthetic
workers.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.engine import EngineStats, ResultCache
from repro.engine.pool import WorkerTraceback, parallelism_available
from repro.engine.supervisor import (
    FAULT_ENV,
    FaultPlan,
    SupervisorPolicy,
    supervise_work_items,
)

from tests.engine.conftest import square

needs_fork = pytest.mark.skipif(not parallelism_available(),
                                reason="needs the fork start method")


def failing_worker(context, item):
    if item == 2:
        raise ValueError(f"item {item} is cursed")
    return item * item


def nested_squares(context, item):
    return supervise_work_items(square, range(item), jobs=2)


def nested_cached_squares(cache, item):
    return supervise_work_items(square, range(item), jobs=2, cache=cache,
                                keys=[f"inner-{item}-{i}"
                                      for i in range(item)])


def none_or_square(context, item):
    """``None`` is a real result (an accepted synthesis combination)."""
    return None if item % 2 else item * item


def must_not_run(context, item):
    raise AssertionError(f"item {item} should have come from the cache")


def _entries(directory) -> int:
    """Result-cache entries on disk under *directory*."""
    return len(list(directory.rglob("*.pkl")))


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------
class TestSupervisorPolicy:
    def test_defaults(self):
        policy = SupervisorPolicy()
        assert policy.timeout is None
        assert policy.retries == 2
        # Nothing to tune beyond the two values the CLI sets.
        assert [f.name for f in dataclasses.fields(SupervisorPolicy)] \
            == ["timeout", "retries"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(timeout=-1.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(retries=-1)


# ----------------------------------------------------------------------
# fault plan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_only_first_attempt_is_sabotaged(self):
        plan = FaultPlan(crash_items=frozenset({0}),
                         hang_items=frozenset({1}))
        assert plan.child_fault(0, attempt=0) == "crash"
        assert plan.child_fault(1, attempt=0) == "hang"
        assert plan.child_fault(0, attempt=1) is None
        assert plan.child_fault(2, attempt=0) is None

    def test_die_after_checkpoints_calls_die(self):
        deaths = []
        plan = FaultPlan(die_after_checkpoints=2, die=deaths.append)
        plan.on_checkpoint(1)
        assert deaths == []
        plan.on_checkpoint(2)
        assert deaths == [70]

    def test_from_env_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(FAULT_ENV, raising=False)
        assert FaultPlan.from_env() is None

    def test_from_env_parses_clauses(self):
        plan = FaultPlan.from_env(
            {FAULT_ENV: "crash:0,2; hang:1 ;die-after:3"})
        assert plan.crash_items == frozenset({0, 2})
        assert plan.hang_items == frozenset({1})
        assert plan.die_after_checkpoints == 3

    def test_from_env_rejects_unknown_clause(self):
        with pytest.raises(ValueError):
            FaultPlan.from_env({FAULT_ENV: "explode:1"})


# ----------------------------------------------------------------------
# the serial path
# ----------------------------------------------------------------------
class TestDelegation:
    def test_unsupervised_call_runs_serially(self):
        stats = EngineStats()
        results = supervise_work_items(square, range(4), stats=stats)
        assert results == [0, 1, 4, 9]
        # Serial is a planned choice, not a fallback: nothing counted,
        # nothing forked.
        assert stats.pool_fallbacks == 0
        assert stats.supervisor_retries == 0
        assert not stats.parallel

    def test_nested_dispatch_runs_inline(self):
        # A worker that dispatches again (the certifier inside a fuzzing
        # audit) runs its inner items in-process, inside the outer task.
        results = supervise_work_items(nested_squares, [2, 3], jobs=2)
        assert results == [[0, 1], [0, 1, 4]]

    def test_serial_supervised_run_writes_through(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [f"k{i}" for i in range(3)]
        results = supervise_work_items(
            square, range(3), jobs=1,
            policy=SupervisorPolicy(),  # no timeout: no children needed
            cache=cache, keys=keys)
        assert results == [0, 1, 4]
        assert cache.stats.stores == 3
        fresh = ResultCache(tmp_path)
        assert [fresh.get(key) for key in keys] == [0, 1, 4]

    def test_cache_requires_one_key_per_item(self, tmp_path):
        with pytest.raises(ValueError, match="one key per work item"):
            supervise_work_items(square, range(3),
                                 cache=ResultCache(tmp_path),
                                 keys=["only-one"])

    def test_nested_dispatch_never_writes_through(self, tmp_path):
        # The inner dispatch runs inline inside the outer task, so its
        # cache is never touched: only the outer ledger writes.
        cache = ResultCache(tmp_path)
        results = supervise_work_items(nested_cached_squares, [2, 3],
                                       context=cache)
        assert results == [[0, 1], [0, 1, 4]]
        assert cache.stats.stores == 0
        assert _entries(tmp_path) == 0


# ----------------------------------------------------------------------
# crash isolation and retries
# ----------------------------------------------------------------------
@needs_fork
class TestCrashIsolation:
    def test_crashed_worker_is_retried(self, crashing_worker):
        worker = crashing_worker(crash_items={1, 3})
        stats = EngineStats()
        results = supervise_work_items(
            worker, range(5), jobs=2, stats=stats,
            policy=SupervisorPolicy())
        assert results == [0, 1, 4, 9, 16]
        assert stats.supervisor_retries == 2
        assert stats.supervisor_degraded == 0

    def test_injected_crash_via_fault_plan(self):
        stats = EngineStats()
        results = supervise_work_items(
            square, range(4), jobs=2, stats=stats,
            policy=SupervisorPolicy(),
            plan=FaultPlan(crash_items=frozenset({0})))
        assert results == [0, 1, 4, 9]
        assert stats.supervisor_retries == 1

    def test_results_keep_item_order(self, crashing_worker):
        # The crashed item finishes last; its slot must not move.
        worker = crashing_worker(crash_items={0})
        results = supervise_work_items(
            worker, range(6), jobs=3,
            policy=SupervisorPolicy())
        assert results == [i * i for i in range(6)]

    def test_retry_budget_exhaustion_degrades(self):
        parent = os.getpid()

        def crashes_in_workers(context, item):
            import signal as _signal

            if item == 1 and os.getpid() != parent:
                os.kill(os.getpid(), _signal.SIGKILL)
            return item * item, os.getpid() == parent

        stats = EngineStats()
        results = supervise_work_items(
            crashes_in_workers, range(3), jobs=2, stats=stats,
            policy=SupervisorPolicy(retries=1))
        # The degraded item is the worker's own answer, run in-parent.
        assert results == [(0, False), (1, True), (4, False)]
        assert stats.supervisor_retries == 1
        assert stats.supervisor_degraded == 1


# ----------------------------------------------------------------------
# timeouts
# ----------------------------------------------------------------------
@needs_fork
class TestTimeouts:
    def test_hung_worker_is_killed_and_retried(self, hanging_worker):
        worker = hanging_worker(hang_items={0})
        stats = EngineStats()
        results = supervise_work_items(
            worker, range(3), jobs=2, stats=stats,
            policy=SupervisorPolicy(timeout=0.4, retries=2))
        assert results == [0, 1, 4]
        assert stats.supervisor_timeouts >= 1
        assert stats.supervisor_retries >= 1
        assert stats.supervisor_degraded == 0

    def test_persistent_hang_degrades_to_fallback(self):
        parent = os.getpid()

        def hangs_in_workers(context, item):
            import time as _time

            if os.getpid() != parent:
                _time.sleep(3600)
            return item * item

        stats = EngineStats()
        results = supervise_work_items(
            hangs_in_workers, [7], jobs=1, stats=stats,
            policy=SupervisorPolicy(timeout=0.3, retries=1))
        assert results == [49]
        assert stats.supervisor_timeouts == 2
        assert stats.supervisor_degraded == 1


# ----------------------------------------------------------------------
# worker exceptions
# ----------------------------------------------------------------------
@needs_fork
class TestWorkerExceptions:
    def test_exception_reraised_with_remote_traceback(self):
        with pytest.raises(ValueError, match="item 2 is cursed") as info:
            supervise_work_items(
                failing_worker, range(4), jobs=2,
                policy=SupervisorPolicy())
        cause = info.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "failing_worker" in cause.text
        assert "item 2 is cursed" in cause.text

    def test_exception_is_not_retried(self, tmp_path):
        counter_dir = tmp_path / "calls"
        counter_dir.mkdir()

        def counting_failure(context, item):
            (counter_dir / f"call-{len(list(counter_dir.iterdir()))}"
             ).write_text("")
            raise RuntimeError("deterministic")

        with pytest.raises(RuntimeError, match="deterministic"):
            supervise_work_items(
                counting_failure, [0], jobs=1,
                policy=SupervisorPolicy(timeout=30.0, retries=3))
        assert len(list(counter_dir.iterdir())) == 1

    def test_unpicklable_result_degrades_that_task(self):
        parent = os.getpid()

        def lambda_result(context, item):
            if os.getpid() != parent:
                return lambda: item  # never pickles
            return item * item

        stats = EngineStats()
        results = supervise_work_items(
            lambda_result, [3], jobs=1, stats=stats,
            policy=SupervisorPolicy(timeout=30.0))
        assert results == [9]
        assert stats.supervisor_degraded == 1


# ----------------------------------------------------------------------
# write-through to the result cache under supervision
# ----------------------------------------------------------------------
class TestWriteThrough:
    def test_none_results_are_answered_from_the_cache(self, tmp_path):
        keys = [f"key-{i}" for i in range(4)]
        first = supervise_work_items(none_or_square, range(4),
                                     cache=ResultCache(tmp_path),
                                     keys=keys)
        assert first == [0, None, 4, None]
        stats = EngineStats()
        again = supervise_work_items(must_not_run, range(4), stats=stats,
                                     cache=ResultCache(tmp_path),
                                     keys=keys)
        assert again == first
        assert stats.cache_hits == 4

    def test_a_probed_miss_is_counted_once(self, tmp_path):
        # The dispatcher is the only prober: one lookup per key, and
        # one miss and one store per key the cache does not hold.
        ResultCache(tmp_path).put("key-1", 1)
        cache = ResultCache(tmp_path)
        stats = EngineStats()
        results = supervise_work_items(square, [3, 1, 4], stats=stats,
                                       cache=cache,
                                       keys=["key-0", "key-1", "key-2"])
        assert results == [9, 1, 16]
        assert (cache.stats.misses, cache.stats.stores) == (2, 2)
        assert (stats.cache_misses, stats.cache_hits) == (2, 1)

    @pytest.mark.parametrize("mode", ["truncate", "tamper", "garbage"])
    def test_corrupt_entry_is_recomputed(self, tmp_path,
                                         corrupt_checkpoint, mode):
        keys = [f"key-{i}" for i in range(3)]
        supervise_work_items(square, range(3),
                             cache=ResultCache(tmp_path), keys=keys)
        damaged = ResultCache(tmp_path)._entry_path("key-1")
        corrupt_checkpoint(damaged, mode=mode)
        stats = EngineStats()
        cache = ResultCache(tmp_path)
        results = supervise_work_items(square, range(3), stats=stats,
                                       cache=cache, keys=keys)
        assert results == [0, 1, 4]
        assert stats.cache_hits == 2
        assert cache.stats.corrupt_entries == 1
        assert cache.stats.stores == 1  # only the damaged item re-ran

    def test_recomputed_entry_answers_the_next_resume(
            self, tmp_path, corrupt_checkpoint):
        keys = [f"key-{i}" for i in range(3)]
        supervise_work_items(square, range(3),
                             cache=ResultCache(tmp_path), keys=keys)
        corrupt_checkpoint(ResultCache(tmp_path)._entry_path("key-2"))
        supervise_work_items(square, range(3),
                             cache=ResultCache(tmp_path), keys=keys)
        # The re-executed item was stored again over the damaged entry.
        stats = EngineStats()
        cache = ResultCache(tmp_path)
        again = supervise_work_items(must_not_run, range(3), stats=stats,
                                     cache=cache, keys=keys)
        assert again == [0, 1, 4]
        assert stats.cache_hits == 3
        assert cache.stats.corrupt_entries == 0

    def test_kill_mid_write_loses_only_the_unwritten_items(
            self, tmp_path, monkeypatch):
        class Killed(BaseException):
            pass

        renames = []
        real_replace = type(tmp_path).replace

        def replace(self, target):
            if self.name.endswith(".tmp"):
                renames.append(target)
                if len(renames) == 4:  # killed between write and rename
                    raise Killed
            return real_replace(self, target)

        keys = [f"key-{i}" for i in range(5)]
        with monkeypatch.context() as patch:
            patch.setattr(type(tmp_path), "replace", replace)
            with pytest.raises(Killed):
                supervise_work_items(
                    square, range(5), keys=keys,
                    cache=ResultCache(tmp_path, durable=True))
        assert _entries(tmp_path) == 3
        assert len(list(tmp_path.rglob("*.tmp"))) == 1  # the cut write

        stats = EngineStats()
        cache = ResultCache(tmp_path)
        results = supervise_work_items(square, range(5), stats=stats,
                                       cache=cache, keys=keys)
        assert results == [i * i for i in range(5)]
        assert stats.cache_hits == 3
        assert cache.stats.corrupt_entries == 0  # a clean loss, no tear
        assert cache.stats.stores == 2  # exactly the lost items re-ran


@needs_fork
class TestWriteThroughUnderWorkers:
    def test_completed_items_are_written_through(self, tmp_path):
        keys = [f"key-{i}" for i in range(4)]
        results = supervise_work_items(
            square, range(4), jobs=2, cache=ResultCache(tmp_path),
            keys=keys, policy=SupervisorPolicy())
        assert results == [0, 1, 4, 9]
        fresh = ResultCache(tmp_path)
        assert [fresh.get(key) for key in keys] == [0, 1, 4, 9]

    def test_cached_items_are_not_re_executed(self, tmp_path,
                                              crashing_worker):
        cache = ResultCache(tmp_path)
        cache.put("key-0", 0)
        cache.put("key-2", 4)
        # Items 0 and 2 would crash forever; the cache must shield
        # them from ever being spawned.
        worker = crashing_worker(crash_items={0, 2})
        stats = EngineStats()
        results = supervise_work_items(
            worker, range(4), jobs=2, stats=stats, cache=cache,
            keys=[f"key-{i}" for i in range(4)],
            policy=SupervisorPolicy(retries=0))
        assert results == [0, 1, 4, 9]
        assert stats.cache_hits == 2
        assert stats.supervisor_retries == 0
        assert cache.stats.stores == 4  # two seeded, only 1 and 3 ran

    def test_parent_death_then_resume_runs_only_the_rest(self, tmp_path):
        class ParentDown(BaseException):
            pass

        def die(status):
            raise ParentDown(status)

        keys = [f"key-{i}" for i in range(5)]
        plan = FaultPlan(die_after_checkpoints=2, die=die)
        with pytest.raises(ParentDown):
            supervise_work_items(
                square, range(5), jobs=1, cache=ResultCache(tmp_path),
                keys=keys,
                policy=SupervisorPolicy(timeout=30.0),
                plan=plan)
        # Exactly two items were written before the "kill -9".
        assert _entries(tmp_path) == 2

        stats = EngineStats()
        cache = ResultCache(tmp_path)
        results = supervise_work_items(
            square, range(5), jobs=2, stats=stats, cache=cache,
            keys=keys, policy=SupervisorPolicy())
        assert results == [i * i for i in range(5)]
        assert stats.cache_hits == 2
        assert cache.stats.stores == 3


# ----------------------------------------------------------------------
# a degraded engine task reruns its own (kernel) worker
# ----------------------------------------------------------------------
@needs_fork
class TestDegradedEngineTasks:
    def test_degraded_sweep_item_checks_on_the_kernel(self):
        from repro.checker.sweep import sweep_verify
        from repro.protocols import nongeneralizable_matching

        result = sweep_verify(
            nongeneralizable_matching(), start=8, up_to=8,
            policy=SupervisorPolicy(timeout=0.5, retries=0),
            fault_plan=FaultPlan(hang_items=frozenset({0})))
        (report,) = result.reports
        assert result.stats.supervisor_degraded == 1
        # The naive interpreter encodes nothing; the kernel packs the
        # 834 rotation orbits of the in-parent rerun's 3^8 states.
        assert report.state_count == 3 ** 8
        assert report.stats.states_encoded == 834
