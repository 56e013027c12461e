"""Spawn-mode dispatch: portable contexts + artifact attach parity.

Before the artifact plane, a platform without ``fork`` (or a forced
``REPRO_START_METHOD=spawn``) silently degraded every fan-out to the
serial fallback — and any spawned worker would have recompiled every
kernel from scratch.  These tests pin the new contract: with a
:class:`PortableContext` the batch scheduler really runs spawned
workers, those workers *attach* the parent's published
artifacts instead of compiling (the ``kernel.compile`` span never
opens), and verdicts equal the naive reference under fork and spawn,
with and without an artifact store (the matrix's ``start_method`` and
``artifacts`` axes, see :mod:`tests.differential`).
"""

from __future__ import annotations

import multiprocessing

import pytest

import repro.engine.artifacts as ap
from repro.checker.sweep import sweep_verify
from repro.engine.pool import (
    START_METHOD_ENV,
    PortableContext,
    run_work_items,
    start_method,
)
from repro.obs import runtime as obs
from repro.protocols import generalizable_matching
from tests.differential import sources

needs_spawn = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable")

UP_TO = 6
MATCHING = sources.bundled("matching-ex4.2")


def _warm_store(tmp_path) -> ap.ArtifactStore:
    """Publish the kernel and every per-K space with a serial sweep."""
    store = ap.ArtifactStore(tmp_path / "artifacts")
    with ap.plane(store):
        sweep_verify(generalizable_matching(), up_to=UP_TO, jobs=1)
    assert store.stats.stores > 0
    return store


# ----------------------------------------------------------------------
# The regression: spawn workers must attach, not recompile
# ----------------------------------------------------------------------
@needs_spawn
def test_spawn_workers_attach_instead_of_compiling(tmp_path, monkeypatch):
    store = _warm_store(tmp_path)
    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    assert start_method() == "spawn"
    with ap.plane(store), obs.run("spawn-sweep") as run_ctx:
        result = sweep_verify(generalizable_matching(), up_to=UP_TO,
                              jobs=2)
    stats = result.stats
    assert stats.parallel, "spawn dispatch did not run"
    assert stats.pool_fallbacks == 0
    # Workers mapped the parent's artifacts: attaches happened, and not
    # one kernel.compile span opened anywhere in the run.
    assert stats.artifact_hits > 0
    assert stats.artifact_misses == 0
    assert stats.compile_seconds == 0.0
    assert run_ctx.metrics.value("kernel.compiles", default=0) == 0
    assert run_ctx.metrics.value("artifacts.hits") > 0
    store.close()


@needs_spawn
def test_batch_scheduler_runs_spawn_workers(matrix, tmp_path, monkeypatch):
    store = _warm_store(tmp_path)
    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    with ap.plane(store), obs.run("spawn-batch") as run_ctx:
        result = sweep_verify(generalizable_matching(), up_to=UP_TO,
                              jobs=2)
    assert result.stats.scheduler_batches > 0
    assert result.stats.artifact_hits > 0
    assert run_ctx.metrics.value("kernel.compiles", default=0) == 0
    assert result.reports \
        == matrix.reference("sweep", MATCHING, up_to=UP_TO).reports
    store.close()


# ----------------------------------------------------------------------
# Differential: verdict bytes across start methods and artifact modes
# ----------------------------------------------------------------------
@needs_spawn
def test_verdicts_identical_across_methods_and_modes(matrix):
    for method in ("fork", "spawn"):
        for artifacts in ("off", "rw"):
            matrix.cell("sweep", MATCHING, up_to=UP_TO, jobs=2,
                        start_method=method, artifacts=artifacts)


# ----------------------------------------------------------------------
# Guard rails around the portable recipe
# ----------------------------------------------------------------------
def _double(context, item):
    return (context or 1) * item * 2


def _build_context(payload):
    return payload["factor"]


@needs_spawn
def test_pool_spawn_dispatch_with_portable(monkeypatch):
    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    portable = PortableContext(_build_context, {"factor": 3})
    results = run_work_items(_double, [1, 2, 3], jobs=2, context=None,
                             portable=portable)
    assert results == [6, 12, 18]


def _untraced(context, item):
    return obs.active() is None


@needs_spawn
def test_spawn_workers_trace_only_when_the_parent_does(monkeypatch):
    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    portable = PortableContext(_build_context, {"factor": 1})
    assert obs.active() is None
    assert run_work_items(_untraced, range(4), jobs=2,
                          portable=portable) == [True] * 4
    with obs.run("traced"):
        assert run_work_items(_untraced, range(4), jobs=2,
                              portable=portable) == [False] * 4


@needs_spawn
def test_pool_spawn_without_portable_falls_back_serially(monkeypatch):
    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    with obs.run("fallback") as run_ctx:
        results = run_work_items(_double, [1, 2, 3], jobs=2, context=4)
    assert results == [8, 16, 24]
    reasons = [e.get("reason") for e in run_ctx.events
               if e.get("kind") == "pool-fallback"]
    assert reasons == ["no-fork"]
