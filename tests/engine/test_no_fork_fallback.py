"""Fork-less platforms: every entry point must fall back serially.

The engine starts its worker processes one way, by ``fork`` (workers
inherit unpicklable workers/contexts/items).  CPython lists fork on
Linux and macOS; on a platform that does not (Windows), the contract
is a *clean* degradation: identical results, computed serially
in-parent, with a ``pool-fallback`` observability event
(``reason="no-fork"``) marking what happened.  Only the sweep and the
fuzz dispatch work items; verify and synthesis run in-process
everywhere, so they record no fallback.  These tests simulate such a
platform by monkeypatching ``multiprocessing.get_all_start_methods``
and walk every public entry point.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.engine import EngineStats
from repro.engine.pool import parallelism_available
from repro.engine.supervisor import (
    SupervisorPolicy,
    supervise_work_items,
)
from repro.obs import runtime as obs
from repro.randomgen import ProtocolSampler, audit_theorems

from tests.engine.conftest import square


@pytest.fixture
def spawn_only(monkeypatch):
    """Pretend the platform only offers the ``spawn`` start method."""
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    assert not parallelism_available()


def _fallback_events(run) -> list[dict]:
    return [e for e in run.events
            if e["kind"] == "pool-fallback" and e["reason"] == "no-fork"]


def _protocol(seed: int = 3):
    return ProtocolSampler(max_domain=3, max_transitions=5,
                           seed=seed).sample()


class TestSpawnOnlyFallback:
    def test_supervised_items_run_serially(self, spawn_only):
        # The `repro check` shape: one supervised batch, jobs > 1.
        stats = EngineStats()
        with obs.run("no-fork-check") as run:
            results = supervise_work_items(
                square, range(4), jobs=2, stats=stats,
                policy=SupervisorPolicy(timeout=30.0))
        assert results == [0, 1, 4, 9]
        assert stats.pool_fallbacks == 1
        assert _fallback_events(run)

    def test_sweep_verify(self, spawn_only):
        from repro.checker.sweep import sweep_verify

        protocol = _protocol()
        with obs.run("no-fork-sweep") as run:
            swept = sweep_verify(
                protocol, up_to=4, jobs=2,
                policy=SupervisorPolicy(timeout=30.0))
        assert len(swept.reports) == 3  # sizes 2..4, all checked
        assert _fallback_events(run)

    def test_verify_convergence(self, spawn_only):
        from repro.core.convergence import verify_convergence
        from repro.protocols import stabilizing_sum_not_two

        # The livelock certificate is one in-process pass: verify has
        # nothing to dispatch, so a spawn-only platform changes nothing.
        with obs.run("no-fork-verify") as run:
            report = verify_convergence(stabilizing_sum_not_two(),
                                        max_ring_size=4)
        assert report.verdict.value == "converges"
        assert report.stats.work_items == 0
        assert not _fallback_events(run)

    def test_audit_theorems(self, spawn_only):
        with obs.run("no-fork-fuzz") as run:
            report = audit_theorems(
                samples=3, max_ring_size=3, jobs=2,
                policy=SupervisorPolicy(timeout=30.0))
        assert report.clean
        assert report.samples == 3
        assert _fallback_events(run)

    def test_synthesize_convergence(self, spawn_only):
        from repro.core.synthesis import synthesize_convergence
        from repro.protocols import agreement

        # agreement() has deadlocks to repair, so the synthesis loop
        # actually walks a pool of candidate combinations — in-process,
        # so a fork-less platform changes nothing.
        with obs.run("no-fork-synthesize") as run:
            result = synthesize_convergence(agreement(), max_ring_size=4)
        assert result.succeeded and result.stats.full_evaluations > 0
        assert result.stats.work_items == 0
        assert not _fallback_events(run)

    def test_fallback_results_match_the_forked_run(self):
        # The same sweep with fork available must agree with the
        # spawn-only serial fallback — degradation changes the
        # execution, never the verdicts.
        from repro.checker.sweep import sweep_verify

        protocol = _protocol()
        policy = SupervisorPolicy(timeout=30.0)
        reference = sweep_verify(protocol, up_to=4, jobs=2,
                                 policy=policy)
        try:
            original = multiprocessing.get_all_start_methods
            multiprocessing.get_all_start_methods = lambda: ["spawn"]
            degraded = sweep_verify(protocol, up_to=4, jobs=2,
                                    policy=policy)
        finally:
            multiprocessing.get_all_start_methods = original
        assert degraded.reports == reference.reports
