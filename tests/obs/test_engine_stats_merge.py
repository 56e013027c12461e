"""How counters combine across :class:`repro.engine.EngineStats`.

Two paths add counts together.  Worker registries shipped back by the
dispatcher fold into the parent's registries in completion order, so
the registry merge must be associative and commutative — any
interleaving of the same partial counts yields the same aggregate.
And an open stats object collects the layer counters recorded while it
is open, so a nested report (a per-K check inside a sweep) reaches its
enclosing report with no fold — while report counters stay with the
report that wrote them.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from repro.engine import EngineStats
from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry

#: A representative slice of the counter families (engine, supervisor,
#: kernel, localkernel, fvs).
_COUNTERS = (
    "work_items", "states_explored", "cache_hits", "cache_misses",
    "supervisor_timeouts", "supervisor_retries", "supervisor_degraded",
    "compile_seconds", "encode_seconds", "states_encoded",
    "skeleton_compiles", "mask_evaluations", "trail_cache_hits",
    "fvs_nodes_explored",
)

_STAGES = ("sweep", "check", "trail-search")


def _random_stats(rng: random.Random) -> EngineStats:
    stats = EngineStats()
    for name in _COUNTERS:
        if rng.random() < 0.7:
            value = (rng.uniform(0.0, 2.0) if name.endswith("_seconds")
                     else rng.randrange(0, 100))
            setattr(stats, name, value)
    for stage in _STAGES:
        if rng.random() < 0.5:
            stats.stage_seconds[stage] = rng.uniform(0.0, 1.0)
    return stats


def _totals(stats: EngineStats) -> dict:
    return stats.metrics.as_dict()


def _merged(parts) -> EngineStats:
    accumulator = EngineStats()
    for part in parts:
        accumulator.metrics.merge(part.metrics)
    return accumulator


def _approx_equal(left: dict, right: dict) -> bool:
    return set(left) == set(right) and all(
        left[key] == pytest.approx(right[key]) for key in left)


def _capture(stats: EngineStats) -> obs.ChildCapture:
    """*stats*' counters as a worker would ship them back."""
    return obs.ChildCapture(spans=[], metrics=stats.metrics.copy(),
                            events=[], pid=0)


def _layer_totals(stats: EngineStats) -> dict:
    return {name: value for name, value in _totals(stats).items()
            if name.startswith(obs.LAYER_FAMILIES)}


class TestFullMerge:
    """``MetricsRegistry.merge``: the fold worker counts go through."""

    @pytest.mark.parametrize("seed", range(5))
    def test_merge_is_order_independent(self, seed):
        rng = random.Random(seed)
        parts = [_random_stats(rng) for _ in range(3)]
        baselines = None
        for order in permutations(parts):
            totals = _totals(_merged(order))
            if baselines is None:
                baselines = totals
            else:
                assert _approx_equal(totals, baselines)

    def test_merge_is_associative_in_grouping(self):
        rng = random.Random(42)
        a, b, c = (_random_stats(rng) for _ in range(3))
        # (a + b) + c
        grouped_left = _merged([_merged([a, b]), c])
        # a + (b + c)
        grouped_right = _merged([a, _merged([b, c])])
        assert _approx_equal(_totals(grouped_left),
                             _totals(grouped_right))

    def test_merge_none_is_identity(self):
        stats = _random_stats(random.Random(1))
        before = _totals(stats)
        stats.metrics.merge(MetricsRegistry())
        assert _totals(stats) == before


class TestKernelCounterMerge:
    """Layer counters reach every open stats object — recorded in this
    process or shipped back from a worker, in any order — and report
    counters never leave the report that wrote them."""

    @pytest.mark.parametrize("seed", range(5))
    def test_resumed_partials_merge_order_independently(self, seed):
        # Model one sweep's per-K worker captures: a parallel run
        # adopts them in completion order, a serial one in sweep order.
        # Totals must not care.
        rng = random.Random(100 + seed)
        per_size = [_random_stats(rng) for _ in range(4)]
        resumed_order = [per_size[1], per_size[3],  # finished first
                         per_size[0], per_size[2]]
        direct, resumed = EngineStats(), EngineStats()
        for parent, order in ((direct, per_size), (resumed, resumed_order)):
            with parent.collecting():
                for part in order:
                    obs.adopt_child(_capture(part))
        assert _approx_equal(_totals(direct), _totals(resumed))
        # Exactly the layer families arrive; report counters stay out.
        assert _approx_equal(_totals(direct),
                             _layer_totals(_merged(per_size)))

    def test_engine_level_counters_stay_out(self):
        # The enclosing run counts work items / cache traffic itself;
        # a nested report's copy must not reach it.
        parent = EngineStats()
        with parent.collecting():
            child = EngineStats(work_items=7, cache_hits=3,
                                states_explored=100)
            with child.collecting():
                obs.metric("kernel.states_encoded", 50)
                obs.metric("localkernel.mask_evaluations", 20)
                child.work_items += 1
        assert child.work_items == 8 and child.states_encoded == 50
        assert parent.work_items == 0
        assert parent.cache_hits == 0
        assert parent.states_explored == 0
        assert parent.states_encoded == 50
        assert parent.mask_evaluations == 20

    def test_supervisor_counters_stay_out(self):
        # A cached report's stats may carry the *original* run's
        # supervision history; the run reusing it tracks its own.  Even
        # recorded through obs.metric, a supervisor counter is a report
        # counter: collectors ignore it.
        parent = EngineStats()
        with parent.collecting():
            child = EngineStats(supervisor_retries=5,
                                supervisor_degraded=2)
            with child.collecting():
                obs.metric("supervisor.retries")
                obs.metric("scheduler.batches")
                obs.metric("kernel.compile_seconds", 0.25)
            obs.adopt_child(_capture(child))
        assert parent.supervisor_retries == 0
        assert parent.supervisor_degraded == 0
        assert parent.scheduler_batches == 0
        # Once recorded, once shipped back from a worker.
        assert parent.compile_seconds == pytest.approx(0.5)

    def test_stage_timings_accumulate(self):
        parent = EngineStats()
        first, second = EngineStats(), EngineStats()
        with parent.stage("sweep"):
            with first.stage("check"):
                pass
            with second.stage("check"):
                with second.stage("encode"):
                    pass
        assert parent.stage_seconds["check"] == pytest.approx(
            first.stage_seconds["check"] + second.stage_seconds["check"])
        assert parent.stage_seconds["encode"] == pytest.approx(
            second.stage_seconds["encode"])
        assert set(parent.stage_seconds) == {"sweep", "check", "encode"}
        assert "sweep" not in first.stage_seconds

    def test_merge_none_is_identity(self):
        stats = _random_stats(random.Random(2))
        before = _totals(stats)
        with stats.collecting():
            obs.adopt_child(None)
        assert _totals(stats) == before
