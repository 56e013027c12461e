"""Observability across worker processes, and its differential contract.

A ``jobs=2`` run yields one re-parented span tree (``scheduler.map`` →
``item[i]``); serial execution is a planned choice that records no
fallback, while an unpicklable result degrades only its own task and
says so; and verdicts are byte-identical with tracing on or off.
"""

import dataclasses
import json
import pickle
import warnings

import pytest

from repro.engine import EngineStats
from repro.engine.pool import parallelism_available, run_work_items
from repro.obs import runtime as obs
from repro.checker.sweep import sweep_verify
from repro.protocols import stabilizing_sum_not_two


@pytest.fixture(autouse=True)
def _no_leaked_run():
    assert obs.active() is None
    yield
    if obs.active() is not None:  # pragma: no cover - test bug guard
        obs.finish(obs.active())
        pytest.fail("test leaked an active observability run")


def _square(_context, item):
    with obs.span("worker.square", item=item):
        obs.metric("worker.calls")
    return item * item


def _unpicklable(_context, _item):
    return lambda: None  # cannot cross the result pipe


needs_fork = pytest.mark.skipif(not parallelism_available(),
                                reason="fork start method unavailable")


# ----------------------------------------------------------------------
# span re-parenting across the process boundary
# ----------------------------------------------------------------------
@needs_fork
def test_parallel_run_yields_one_deterministic_span_tree():
    stats = EngineStats(jobs=2)
    with obs.run("pool-test") as run_ctx:
        results = run_work_items(_square, [2, 3, 4], jobs=2, stats=stats)
    assert results == [4, 9, 16]
    assert stats.parallel
    assert stats.pool_fallbacks == 0

    dispatch = run_ctx.spans[0].children[0]
    assert dispatch.name == "scheduler.map"
    assert dispatch.attrs["jobs"] == 2
    assert dispatch.attrs["items"] == 3
    assert set(dispatch.attrs) == {"jobs", "items", "timeout", "retries"}
    # Items are adopted in completion order, but each subtree is named
    # by its item index, so the set of subtrees is deterministic.
    items = sorted((c for c in dispatch.children
                    if c.name.startswith("item[")), key=lambda c: c.name)
    assert [c.name for c in items] == ["item[0]", "item[1]", "item[2]"]
    for index, wrapper in enumerate(items):
        assert "pid" in wrapper.attrs
        (child,) = wrapper.children
        assert child.name == "worker.square"
        assert child.attrs == {"item": index + 2}
        assert child.pid == wrapper.attrs["pid"]
    batches = [c for c in dispatch.children
               if c.name == "scheduler.batch"]
    assert sum(b.attrs["items"] for b in batches) == 3
    # Worker metrics merged back into the parent run.
    assert run_ctx.metrics.value("worker.calls") == 3
    assert run_ctx.metrics.value("pool.fallbacks", default=None) is None


@needs_fork
def test_parallel_run_without_active_run_still_returns_results():
    stats = EngineStats(jobs=2)
    assert run_work_items(_square, [5, 6], jobs=2,
                          stats=stats) == [25, 36]
    assert stats.parallel


# ----------------------------------------------------------------------
# serial is planned; degradation is per task and never silent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("items,jobs", [([1, 2, 3], 1), ([7], 4)])
def test_serial_run_is_planned_not_a_fallback(items, jobs):
    stats = EngineStats(jobs=jobs)
    with obs.run("serial-test") as run_ctx:
        results = run_work_items(_square, items, jobs=jobs, stats=stats)
    assert results == [i * i for i in items]
    assert not stats.parallel
    assert stats.pool_fallbacks == 0
    assert not [e for e in run_ctx.events
                if e["kind"] == "pool-fallback"]
    serial_span = run_ctx.spans[0].children[0]
    assert serial_span.name == "supervisor.serial"
    assert serial_span.attrs == {"reason": "serial", "items": len(items)}


@needs_fork
def test_unpicklable_result_degrades_per_task():
    stats = EngineStats(jobs=2)
    with obs.run("degrade-test") as run_ctx:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no batch-wide warning
            results = run_work_items(_unpicklable, [1, 2], jobs=2,
                                     stats=stats)
    # Each task re-ran in-parent through the fallback (= the worker).
    assert len(results) == 2 and all(callable(r) for r in results)
    assert stats.parallel
    assert stats.pool_fallbacks == 0
    assert stats.supervisor_degraded == 2
    degraded = [e for e in run_ctx.events if e["kind"] == "task-degraded"]
    assert sorted(e["index"] for e in degraded) == [0, 1]
    assert all(e["reason"].startswith("unpicklable-result")
               and e["level"] == "warning" for e in degraded)


def test_fallback_without_stats_or_run_is_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_work_items(_square, [3], jobs=1) == [9]


# ----------------------------------------------------------------------
# EngineStats on the metrics registry
# ----------------------------------------------------------------------
def test_open_stats_collect_nested_stage_seconds():
    parent = EngineStats()
    parent.stage_seconds["sweep"] = 1.0
    with parent.collecting():
        for _ in range(2):
            child = EngineStats()
            with child.collecting():
                obs.metric("stage.check", 0.25)
                obs.metric("kernel.compile_seconds", 0.5)
                child.work_items = 99  # report counter: stays in child
    assert child.stage_seconds["check"] == pytest.approx(0.25)
    assert parent.stage_seconds["check"] == pytest.approx(0.5)
    assert parent.stage_seconds["sweep"] == pytest.approx(1.0)
    assert parent.compile_seconds == pytest.approx(1.0)
    assert parent.work_items == 0
    obs.metric("stage.check", 1.0)  # closed: nothing collects it
    assert parent.stage_seconds["check"] == pytest.approx(0.5)


def test_stats_pickle_roundtrip_preserves_metrics():
    stats = EngineStats(jobs=4)
    stats.work_items = 3
    stats.stage_seconds["closure"] = 0.125
    clone = pickle.loads(pickle.dumps(stats))
    assert clone.jobs == 4
    assert clone.work_items == 3
    assert clone.stage_seconds["closure"] == 0.125
    assert clone.to_dict() == stats.to_dict()


def test_stats_to_dict_is_json_ready():
    stats = EngineStats()
    with stats.stage("closure"):
        pass
    stats.cache_hits += 2
    data = json.loads(json.dumps(stats.to_dict()))
    assert data["cache_hits"] == 2
    assert "closure" in data["stage_seconds"]
    assert data["total_seconds"] >= 0
    assert data["metrics"]["engine.cache_hits"] == 2


# ----------------------------------------------------------------------
# the differential contract: tracing never changes verdicts
# ----------------------------------------------------------------------
def test_sweep_verdicts_byte_identical_with_tracing_on():
    protocol = stabilizing_sum_not_two()
    plain = sweep_verify(protocol, up_to=6, jobs=2)
    with obs.run("traced-sweep"):
        traced = sweep_verify(protocol, up_to=6, jobs=2)

    def verdict_bytes(result):
        # stats carry wall-clock timings, which differ run to run; the
        # contract is about the verdict payload.
        return pickle.dumps(tuple(
            dataclasses.replace(report, stats=None)
            for report in result.reports))

    assert verdict_bytes(traced) == verdict_bytes(plain)
    assert traced.reports == plain.reports
    assert traced.all_self_stabilizing == plain.all_self_stabilizing
    assert traced.failing_sizes == plain.failing_sizes
