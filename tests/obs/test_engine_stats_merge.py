"""Merge algebra of :class:`repro.engine.EngineStats`.

Parallel dispatch makes merge order a real degree of freedom: a
parallel sweep folds per-K partial stats in completion order, while the
serial run folds the same reports in sweep order.  For the totals to be
trustworthy the merge operations must be associative and commutative —
any interleaving of the same partial stats yields the same aggregate.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from repro.engine import EngineStats

#: A representative slice of every counter family (engine, supervisor,
#: kernel, localkernel, fvs, synthesis).
_COUNTERS = (
    "work_items", "states_explored", "cache_hits", "cache_misses",
    "supervisor_timeouts", "supervisor_retries", "supervisor_degraded",
    "compile_seconds", "encode_seconds", "states_encoded",
    "skeleton_compiles", "mask_evaluations", "trail_cache_hits",
    "verdict_cache_hits", "fvs_nodes_explored",
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


def _merged(parts, op) -> EngineStats:
    accumulator = EngineStats()
    for part in parts:
        op(accumulator, part)
    return accumulator


def _approx_equal(left: dict, right: dict) -> bool:
    return set(left) == set(right) and all(
        left[key] == pytest.approx(right[key]) for key in left)


class TestFullMerge:
    @pytest.mark.parametrize("seed", range(5))
    def test_merge_is_order_independent(self, seed):
        rng = random.Random(seed)
        parts = [_random_stats(rng) for _ in range(3)]
        baselines = None
        for order in permutations(parts):
            totals = _totals(_merged(
                order, lambda acc, p: acc.merge(p)))
            if baselines is None:
                baselines = totals
            else:
                assert _approx_equal(totals, baselines)

    def test_merge_is_associative_in_grouping(self):
        rng = random.Random(42)
        a, b, c = (_random_stats(rng) for _ in range(3))
        # (a + b) + c
        left = EngineStats()
        left.merge(a)
        left.merge(b)
        grouped_left = EngineStats()
        grouped_left.merge(left)
        grouped_left.merge(c)
        # a + (b + c)
        right = EngineStats()
        right.merge(b)
        right.merge(c)
        grouped_right = EngineStats()
        grouped_right.merge(a)
        grouped_right.merge(right)
        assert _approx_equal(_totals(grouped_left),
                             _totals(grouped_right))

    def test_merge_none_is_identity(self):
        stats = _random_stats(random.Random(1))
        before = _totals(stats)
        stats.merge(None)
        assert _totals(stats) == before


class TestKernelCounterMerge:
    """The selective merge used when a sweep folds per-K report stats —
    fresh from a worker or in-parent, in any order."""

    @pytest.mark.parametrize("seed", range(5))
    def test_resumed_partials_merge_order_independently(self, seed):
        # Model one sweep's per-K partial stats: a parallel run folds
        # them in completion order, a serial one in sweep order.
        # Totals must not care.
        rng = random.Random(100 + seed)
        per_size = [_random_stats(rng) for _ in range(4)]
        resumed_order = [per_size[1], per_size[3],  # finished first
                         per_size[0], per_size[2]]
        direct = _merged(per_size,
                         lambda acc, p: acc.merge_kernel_counters(p))
        resumed = _merged(resumed_order,
                          lambda acc, p: acc.merge_kernel_counters(p))
        assert _approx_equal(_totals(direct), _totals(resumed))

    def test_engine_level_counters_stay_out(self):
        # The enclosing run counts work items / cache traffic itself;
        # folding a child's copy back in would double-count.
        child = EngineStats(work_items=7, cache_hits=3,
                            states_explored=100, states_encoded=50,
                            mask_evaluations=20)
        parent = EngineStats()
        parent.merge_kernel_counters(child)
        assert parent.work_items == 0
        assert parent.cache_hits == 0
        assert parent.states_explored == 0
        assert parent.states_encoded == 50
        assert parent.mask_evaluations == 20

    def test_supervisor_counters_stay_out(self):
        # A cached report's stats may carry the *original* run's
        # supervision history; the run reusing it tracks its own.
        child = EngineStats(supervisor_retries=5, supervisor_degraded=2,
                            compile_seconds=0.25)
        parent = EngineStats()
        parent.merge_kernel_counters(child)
        assert parent.supervisor_retries == 0
        assert parent.supervisor_degraded == 0
        assert parent.compile_seconds == pytest.approx(0.25)

    def test_stage_timings_accumulate(self):
        first = EngineStats(stage_seconds={"check": 0.5})
        second = EngineStats(stage_seconds={"check": 0.25,
                                            "sweep": 1.0})
        parent = EngineStats()
        parent.merge_kernel_counters(first)
        parent.merge_kernel_counters(second)
        assert parent.stage_seconds["check"] == pytest.approx(0.75)
        assert parent.stage_seconds["sweep"] == pytest.approx(1.0)

    def test_merge_none_is_identity(self):
        stats = _random_stats(random.Random(2))
        before = _totals(stats)
        stats.merge_kernel_counters(None)
        assert _totals(stats) == before
