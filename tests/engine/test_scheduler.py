"""Unit tests for :mod:`repro.engine.scheduler`.

The differential matrix (``tests/differential/``) pins verdict
equality for batch mode on real protocols; this file pins the
batch-specific mechanics — guided batch sizing,
requeue-without-retry-charge on worker death, heartbeat-armed
timeouts, cache write-through and the routing / prewarm plumbing —
on tiny synthetic workers.  Tests that run self-killing workers at
``jobs=1`` (which the dispatcher would run in-parent) build the
:class:`BatchScheduler` directly.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.engine import EngineStats, ResultCache
from repro.engine.pool import WorkerTraceback, parallelism_available
from repro.engine.scheduler import BatchScheduler, batch_size
from repro.engine.supervisor import (
    FaultPlan,
    SupervisorPolicy,
    TaskLedger,
    supervise_work_items,
)
from repro.obs import runtime as obs

from tests.engine.conftest import square

needs_fork = pytest.mark.skipif(not parallelism_available(),
                                reason="needs the fork start method")


def run_batch(worker, items, jobs=1, stats=None, policy=None):
    """Run *items* on a :class:`BatchScheduler` built directly,
    bypassing the dispatcher's serial choice."""
    ledger = TaskLedger(worker, list(items), None, stats,
                        policy or SupervisorPolicy(), None,
                        None, None)
    BatchScheduler(ledger, jobs=jobs).run(list(ledger.claims()))
    if ledger.failure is not None:
        ledger.failure.reraise()
    return ledger.ordered_results()


def batch_shape(items: int, target: int) -> list[int]:
    """The batch sizes a fault-free dispatch of *items* hands out."""
    sizes = []
    while items:
        sizes.append(batch_size(items, target))
        items -= sizes[-1]
    return sizes


def slow_square(context, item):
    time.sleep(0.002)
    return item * item


# ----------------------------------------------------------------------
# batch sizing
# ----------------------------------------------------------------------
class TestBatchSize:
    def test_guided_self_scheduling_shape(self):
        assert batch_shape(246, 2) == [62, 46, 35, 26, 20, 15, 11, 8, 6,
                                       5, 3, 3, 2, 1, 1, 1, 1]
        assert batch_shape(8, 2) == [2, 2, 1, 1, 1, 1]

    def test_first_batch_takes_a_share_of_the_queue(self):
        assert batch_size(1000, 4) == 125
        assert batch_size(12, 1) == 6  # one worker: half the queue
        assert batch_size(10, 1) == 5

    def test_tail_fair_share_caps_the_batch(self):
        assert batch_size(8, 4) == 1  # ceil(8 / 4 / 2)
        assert batch_size(1, 4) == 1

    def test_exhausted_queue_sizes_to_zero(self):
        assert batch_size(0, 4) == 0

    @needs_fork
    def test_batch_count_is_a_function_of_items_and_jobs(self):
        for _ in range(3):
            stats = EngineStats()
            results = supervise_work_items(square, range(246), jobs=2,
                                           stats=stats)
            assert results == [i * i for i in range(246)]
            assert stats.scheduler_batches == 17
            assert stats.scheduler_batch_items == 246

    @needs_fork
    def test_tracing_does_not_change_batching(self):
        untraced = EngineStats()
        supervise_work_items(slow_square, range(40), jobs=2,
                             stats=untraced)
        traced = EngineStats()
        with obs.run("seeded"):
            # A prior stage already measured tasks of this dispatch.
            for _ in range(4):
                obs.observe("scheduler.task_seconds", 0.02)
            supervise_work_items(slow_square, range(40), jobs=2,
                                 stats=traced)
        assert traced.scheduler_batches == untraced.scheduler_batches \
            == len(batch_shape(40, 2))


# ----------------------------------------------------------------------
# routing, validation, prewarm
# ----------------------------------------------------------------------
class TestRouting:
    @needs_fork
    def test_prewarm_runs_once_in_the_parent(self):
        calls = []
        results = supervise_work_items(
            square, range(6), jobs=2,
            policy=SupervisorPolicy(),
            prewarm=lambda: calls.append(1))
        assert results == [i * i for i in range(6)]
        assert calls == [1]  # parent-side: visible, and exactly once

    def test_prewarm_is_skipped_when_nothing_forks(self, tmp_path):
        calls = []
        results = supervise_work_items(
            square, range(3), jobs=1,
            policy=SupervisorPolicy(),  # no timeout: serial in-parent
            prewarm=lambda: calls.append(1))
        assert results == [0, 1, 4]
        # Nothing pending (every item cached): no prewarm either,
        # however many jobs were asked for.
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(f"key-{i}", i * i)
        results = supervise_work_items(
            square, range(3), jobs=2, cache=cache,
            keys=[f"key-{i}" for i in range(3)],
            prewarm=lambda: calls.append(1))
        assert results == [0, 1, 4]
        assert calls == []

    @needs_fork
    def test_parallel_path_matches_serial_and_batches(self):
        outcomes = {}
        for jobs in (1, 2):
            stats = EngineStats()
            outcomes[jobs] = supervise_work_items(
                square, range(8), jobs=jobs, stats=stats)
            if jobs > 1:
                assert stats.parallel
                assert stats.scheduler_batches > 0
                assert stats.scheduler_batch_items == 8
            else:
                assert not stats.parallel
                assert stats.scheduler_batches == 0
        assert outcomes[1] == outcomes[2] == [i * i for i in range(8)]


# ----------------------------------------------------------------------
# batch execution mechanics
# ----------------------------------------------------------------------
@needs_fork
class TestBatchExecution:
    def test_crash_charges_only_the_casualty(self, crashing_worker):
        # One worker, twelve items: a first batch of six.  The crash on
        # item 0 must retry item 0 alone and requeue the five
        # bystanders with their attempt counters untouched.
        worker = crashing_worker(crash_items={0})
        stats = EngineStats()
        results = run_batch(worker, range(12), stats=stats,
                            policy=SupervisorPolicy(retries=1))
        assert results == [i * i for i in range(12)]
        assert stats.supervisor_retries == 1
        assert stats.scheduler_requeued == 5
        # retries=1 with 5 requeued bystanders: had requeueing spent
        # retry budget, something here would have degraded.
        assert stats.supervisor_degraded == 0

    def test_injected_crash_via_fault_plan(self):
        stats = EngineStats()
        results = supervise_work_items(
            square, range(4), jobs=2, stats=stats,
            policy=SupervisorPolicy(),
            plan=FaultPlan(crash_items=frozenset({0})))
        assert results == [0, 1, 4, 9]
        assert stats.supervisor_retries == 1

    def test_hung_task_is_killed_retried_and_bystanders_requeued(
            self, hanging_worker):
        # One worker, ten items: a first batch of five, so the kill on
        # item 0's deadline requeues four bystanders.
        worker = hanging_worker(hang_items={0})
        stats = EngineStats()
        results = run_batch(worker, range(10), stats=stats,
                            policy=SupervisorPolicy(timeout=0.4,
                                                    retries=2))
        assert results == [i * i for i in range(10)]
        assert stats.supervisor_timeouts == 1
        assert stats.scheduler_requeued == 4
        assert stats.supervisor_degraded == 0

    def test_exception_reraises_with_remote_traceback(self):
        def cursed(context, item):
            if item == 2:
                raise ValueError(f"item {item} is cursed")
            return item * item

        with pytest.raises(ValueError, match="item 2 is cursed") as info:
            supervise_work_items(
                cursed, range(4), jobs=2,
                policy=SupervisorPolicy())
        cause = info.value.__cause__
        assert isinstance(cause, WorkerTraceback)
        assert "cursed" in cause.text

    def test_exception_is_not_retried(self, tmp_path):
        counter_dir = tmp_path / "calls"
        counter_dir.mkdir()

        def counting_failure(context, item):
            (counter_dir / f"call-{item}-"
             f"{len(list(counter_dir.iterdir()))}").write_text("")
            raise RuntimeError("deterministic")

        with pytest.raises(RuntimeError, match="deterministic"):
            run_batch(counting_failure, range(2),
                      policy=SupervisorPolicy(retries=3))
        # The failing item ran exactly once; no retry burned on a
        # deterministic exception.
        calls = [p.name for p in counter_dir.iterdir()]
        assert len([c for c in calls if c.startswith("call-0-")]) <= 1
        assert len([c for c in calls if c.startswith("call-1-")]) <= 1

    def test_unpicklable_result_degrades_that_task(self):
        parent = os.getpid()

        def lambda_result(context, item):
            if os.getpid() != parent:
                return lambda: item  # never pickles
            return item * item, "in-parent"

        stats = EngineStats()
        results = run_batch(lambda_result, [3, 4], stats=stats)
        # Each degraded task is the worker's own answer, run in-parent.
        assert results == [(9, "in-parent"), (16, "in-parent")]
        assert stats.supervisor_degraded == 2


# ----------------------------------------------------------------------
# cache write-through under batches
# ----------------------------------------------------------------------
@needs_fork
class TestBatchWriteThrough:
    def test_batched_items_are_written_through_durably(self, tmp_path,
                                                       monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: synced.append(fd) or real_fsync(fd))
        keys = [f"key-{i}" for i in range(40)]
        results = supervise_work_items(
            square, range(40), jobs=2, keys=keys,
            cache=ResultCache(tmp_path, durable=True),
            policy=SupervisorPolicy())
        assert results == [i * i for i in range(40)]
        # Each completed item was written (and synced) by the parent
        # as it arrived, not after the run.
        assert len(synced) >= 40
        fresh = ResultCache(tmp_path)
        assert [fresh.get(key) for key in keys] == results

    def test_cached_items_are_not_re_executed(self, tmp_path,
                                              crashing_worker):
        cache = ResultCache(tmp_path)
        cache.put("key-0", 0)
        cache.put("key-2", 4)
        worker = crashing_worker(crash_items={0, 2})
        stats = EngineStats()
        results = supervise_work_items(
            worker, range(4), jobs=2, stats=stats, cache=cache,
            keys=[f"key-{i}" for i in range(4)],
            policy=SupervisorPolicy(retries=0))
        assert results == [0, 1, 4, 9]
        assert stats.cache_hits == 2
        assert stats.supervisor_retries == 0


# ----------------------------------------------------------------------
# worker lifecycle
# ----------------------------------------------------------------------
_DYING_PARENT = """
import os, sys, time
from repro.engine.cache import ResultCache
from repro.engine.supervisor import FaultPlan, supervise_work_items

size = int(sys.argv[2])

def work(context, item):
    open(os.path.join(sys.argv[1], f"pid-{os.getpid()}"), "w").close()
    time.sleep(0.01)
    return "x" * size

supervise_work_items(work, range(40), jobs=2,
                     cache=ResultCache(os.path.join(sys.argv[1], "cache")),
                     keys=[str(i) for i in range(40)],
                     plan=FaultPlan(die_after_checkpoints=6))
"""


def _running(pid: int) -> bool:
    """Alive and not a zombie (an orphan's reaper may never come)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("result_bytes", [8, 256 * 1024])
def test_workers_exit_when_the_parent_is_killed(tmp_path, result_bytes):
    # The parent dies by os._exit after six cache writes (the first
    # batches hold ten and eight tasks, so workers are mid-batch),
    # never shutting its workers down; they must notice and exit on their own
    # — also mid-batch, blocked sending a result larger than the pipe
    # buffer.
    completed = subprocess.run(
        [sys.executable, "-c", _DYING_PARENT, str(tmp_path),
         str(result_bytes)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        timeout=60)
    assert completed.returncode == 70
    assert len(list((tmp_path / "cache").rglob("*.pkl"))) == 6
    pids = [int(p.name[4:]) for p in tmp_path.glob("pid-*")]
    assert pids
    try:
        deadline = time.monotonic() + 10
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_running, pids)), \
            "orphaned workers kept running"
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
