"""Engine instrumentation: stage timings, work counts, cache counters.

An :class:`EngineStats` travels inside analysis reports (always as a
``compare=False`` field, so two runs with different timings still compare
equal on their verdicts) and is rendered by ``summary()`` for the CLI and
the benchmark artifacts.

The counters live in a :class:`repro.obs.MetricsRegistry` under dotted
names (``engine.work_items``, ``kernel.compile_seconds``,
``stage.sweep``, ...), and the flat attribute API
(``stats.cache_hits += 1``) reads and writes through it.  Two kinds of
counter meet here:

* *layer counters* (the :data:`repro.obs.runtime.LAYER_FAMILIES`:
  checker states explored, kernel, local kernel, FVS, synthesis,
  artifacts, stage timings) are recorded once, where the event
  happens, by ``obs.metric``; a stats
  object receives them while it is open (:meth:`collecting`, and every
  :meth:`stage`), together with every other open stats object and the
  workers' counts shipped back by the dispatcher.  Nested reports
  therefore need no fold;
* *report counters* (``engine.``, ``supervisor.``, ``scheduler.``,
  ``pool.``) are written on a report's own stats — work items and cache
  hits and misses by the dispatcher the stats were given to — and never
  reach an enclosing one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, MutableMapping

from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry

#: Flat attribute name -> dotted metric name.  Every counter the old
#: dataclass carried, plus the pool-degradation counter.
_COUNTER_METRICS = {
    "work_items": "engine.work_items",
    "states_explored": "checker.states_explored",
    "cache_hits": "engine.cache_hits",
    "cache_misses": "engine.cache_misses",
    "pool_fallbacks": "pool.fallbacks",
    "supervisor_timeouts": "supervisor.timeouts",
    "supervisor_retries": "supervisor.retries",
    "supervisor_degraded": "supervisor.degraded",
    "scheduler_batches": "scheduler.batches",
    "scheduler_batch_items": "scheduler.batch_items",
    "scheduler_requeued": "scheduler.requeued",
    "live_snapshots": "live.snapshots",
    "artifact_hits": "artifacts.hits",
    "artifact_misses": "artifacts.misses",
    "artifact_stores": "artifacts.stores",
    "artifact_corrupt": "artifacts.corrupt",
    "artifact_evictions": "artifacts.evictions",
    "compile_seconds": "kernel.compile_seconds",
    "encode_seconds": "kernel.encode_seconds",
    "states_encoded": "kernel.states_encoded",
    "quotient_states": "kernel.quotient_states",
    "quotient_full_states": "kernel.quotient_full_states",
    "skeleton_compiles": "localkernel.skeleton_compiles",
    "mask_evaluations": "localkernel.mask_evaluations",
    "trail_cache_hits": "localkernel.trail_cache_hits",
    "combos_pruned": "synthsearch.combos_pruned",
    "full_evaluations": "synthsearch.full_evaluations",
    "delta_reuses": "synthsearch.delta_reuses",
    "checkpoint_bytes": "synthsearch.checkpoint_bytes",
    "blocked_hits": "synthsearch.blocked_hits",
    "fvs_nodes_explored": "fvs.nodes_explored",
    "fvs_nodes_pruned": "fvs.nodes_pruned",
}

_STAGE_PREFIX = "stage."


class _StageSeconds(MutableMapping):
    """``stats.stage_seconds`` — a dict-shaped live view over the
    registry's ``stage.<name>`` counters."""

    __slots__ = ("_metrics",)

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._metrics = metrics

    def __getitem__(self, name: str) -> float:
        key = _STAGE_PREFIX + name
        if key not in self._metrics:
            raise KeyError(name)
        return self._metrics.value(key)

    def __setitem__(self, name: str, seconds: float) -> None:
        self._metrics.counter(_STAGE_PREFIX + name).value = seconds

    def __delitem__(self, name: str) -> None:
        key = _STAGE_PREFIX + name
        if key not in self._metrics:
            raise KeyError(name)
        self._metrics.discard(key)

    def __iter__(self) -> Iterator[str]:
        for key in list(self._metrics):
            if key.startswith(_STAGE_PREFIX):
                yield key[len(_STAGE_PREFIX):]

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return repr(dict(self))


class EngineStats:
    """Counters for one engine-backed analysis run.

    ``jobs`` (requested parallelism) and ``parallel`` (whether the
    process pool actually ran) are plain attributes; every other
    counter listed in ``_COUNTER_METRICS`` reads and writes through
    ``self.metrics``.  ``stage_seconds`` stays available as a mapping
    view over the ``stage.*`` counters.
    """

    def __init__(self, jobs: int = 1, parallel: bool = False,
                 stage_seconds: dict[str, float] | None = None,
                 **counters: float) -> None:
        self.metrics = MetricsRegistry()
        self.jobs = jobs
        self.parallel = parallel
        for name, seconds in (stage_seconds or {}).items():
            self.metrics.counter(_STAGE_PREFIX + name).value = seconds
        for name, value in counters.items():
            metric = _COUNTER_METRICS.get(name)
            if metric is None:
                raise TypeError(
                    f"EngineStats got an unexpected counter {name!r}")
            self.metrics.counter(metric).value = value

    # -- attribute <-> metric routing ---------------------------------
    def __getattr__(self, name: str) -> Any:
        metric = _COUNTER_METRICS.get(name)
        if metric is None or "metrics" not in self.__dict__:
            raise AttributeError(name)
        return self.__dict__["metrics"].value(metric)

    def __setattr__(self, name: str, value: Any) -> None:
        metric = _COUNTER_METRICS.get(name)
        if metric is not None and "metrics" in self.__dict__:
            self.__dict__["metrics"].counter(metric).value = value
        else:
            object.__setattr__(self, name, value)

    @property
    def stage_seconds(self) -> _StageSeconds:
        return _StageSeconds(self.metrics)

    @stage_seconds.setter
    def stage_seconds(self, stages: dict[str, float]) -> None:
        for key in [n for n in self.metrics if n.startswith(_STAGE_PREFIX)]:
            self.metrics.discard(key)
        for name, seconds in stages.items():
            self.metrics.counter(_STAGE_PREFIX + name).value = seconds

    # -- recording -----------------------------------------------------
    def collecting(self):
        """``with stats.collecting():`` — open these stats: every layer
        counter recorded inside the block, here or in a dispatched
        worker, is added to them."""
        return obs.collect(self.metrics)

    @contextmanager
    def stage(self, name: str, **attrs: Any):
        """Time a ``with``-block as ``stage.<name>`` with these stats
        open, and trace it as a span (with *attrs*) on the ambient obs
        run.  Like any layer counter, the stage time also reaches every
        enclosing open stats."""
        with self.collecting():
            began = time.perf_counter()
            try:
                with obs.span(name, **attrs):
                    yield self
            finally:
                obs.metric(_STAGE_PREFIX + name,
                           time.perf_counter() - began)

    # -- derived values ------------------------------------------------
    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def encode_rate(self) -> float:
        """Kernel states-per-second (0 when the kernel never ran)."""
        if self.encode_seconds <= 0.0:
            return 0.0
        return self.states_encoded / self.encode_seconds

    @property
    def quotient_ratio(self) -> float:
        """Full states per kept orbit (0 when no quotient ran)."""
        if not self.quotient_states:
            return 0.0
        return self.quotient_full_states / self.quotient_states

    # -- export --------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict (flat counter names + stage timings), as
        embedded in ``repro verify --json`` / ``repro check --json``."""
        data: dict[str, Any] = {"jobs": self.jobs, "parallel": self.parallel}
        for name, metric in _COUNTER_METRICS.items():
            data[name] = self.metrics.value(metric)
        data["stage_seconds"] = dict(self.stage_seconds)
        data["total_seconds"] = self.total_seconds
        data["metrics"] = self.metrics.as_dict()
        return data

    def summary(self) -> str:
        """A one-line human-readable rendering for the CLI."""
        mode = (f"{self.jobs} jobs" if self.parallel
                else "serial" + (f" (jobs={self.jobs} requested)"
                                 if self.jobs > 1 else ""))
        parts = [f"engine: {mode}",
                 f"{self.work_items} work items",
                 f"{self.states_explored} states explored",
                 f"cache {self.cache_hits} hits / "
                 f"{self.cache_misses} misses"]
        if self.pool_fallbacks:
            parts.append(f"{self.pool_fallbacks} pool fallbacks")
        if (self.supervisor_timeouts or self.supervisor_retries
                or self.supervisor_degraded):
            parts.append(
                f"supervisor {self.supervisor_timeouts} timeouts, "
                f"{self.supervisor_retries} retries, "
                f"{self.supervisor_degraded} degraded")
        if self.scheduler_batches:
            parts.append(
                f"scheduler {self.scheduler_batches} batches "
                f"(mean {self.scheduler_batch_items / self.scheduler_batches:.1f}"
                f" items), {self.scheduler_requeued} requeued")
        if self.states_encoded:
            kernel = (f"kernel compile {self.compile_seconds * 1e3:.1f} ms"
                      f", {self.states_encoded} states @ "
                      f"{self.encode_rate / 1e3:.0f}k states/s")
            if self.quotient_states:
                kernel += (f", quotient {self.quotient_states}/"
                           f"{self.quotient_full_states} "
                           f"({self.quotient_ratio:.1f}x)")
            parts.append(kernel)
        if self.mask_evaluations or self.skeleton_compiles:
            parts.append(
                f"localkernel {self.skeleton_compiles} skeletons, "
                f"{self.mask_evaluations} mask evals, "
                f"{self.trail_cache_hits} trail memo hits")
        if self.combos_pruned or self.full_evaluations:
            search = (f"synthsearch {self.combos_pruned} combos pruned / "
                      f"{self.full_evaluations} evaluated, "
                      f"{self.delta_reuses} delta reuses, "
                      f"{self.checkpoint_bytes / 1024:.1f} KiB checkpoints")
            if self.blocked_hits:
                search += f", {self.blocked_hits} blocked-mask hits"
            parts.append(search)
        if (self.artifact_hits or self.artifact_misses
                or self.artifact_stores or self.artifact_corrupt):
            artifacts = (f"artifacts {self.artifact_hits} attached / "
                         f"{self.artifact_misses} misses, "
                         f"{self.artifact_stores} stored")
            if self.artifact_corrupt:
                artifacts += f", {self.artifact_corrupt} corrupt discarded"
            parts.append(artifacts)
        if self.fvs_nodes_explored:
            parts.append(f"fvs {self.fvs_nodes_explored} nodes "
                         f"({self.fvs_nodes_pruned} pruned)")
        if self.stage_seconds:
            stages = ", ".join(f"{name} {seconds * 1e3:.1f} ms"
                               for name, seconds
                               in self.stage_seconds.items())
            parts.append(stages)
        return "; ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EngineStats(jobs={self.jobs}, parallel={self.parallel}, "
                f"{self.metrics.as_dict()!r})")

    # -- pickling ------------------------------------------------------
    def __getstate__(self):
        return {"jobs": self.jobs, "parallel": self.parallel,
                "metrics": self.metrics}

    def __setstate__(self, state):
        object.__setattr__(self, "metrics",
                           state.get("metrics") or MetricsRegistry())
        object.__setattr__(self, "jobs", state.get("jobs", 1))
        object.__setattr__(self, "parallel", state.get("parallel", False))
        if "metrics" not in state:
            # Legacy pickle of the pre-registry dataclass (e.g. an old
            # on-disk cache entry): lift its flat fields into metrics.
            for name, metric in _COUNTER_METRICS.items():
                if state.get(name):
                    self.metrics.counter(metric).value = state[name]
            for name, seconds in (state.get("stage_seconds") or {}).items():
                self.metrics.counter(_STAGE_PREFIX + name).value = seconds
