"""The ambient observability run: one tracer + metrics + event log.

Instrumented code throughout the engine calls the module-level helpers
(:func:`span`, :func:`event`, :func:`metric`, :func:`annotate`).  When
no run is active every helper is a near-free no-op — one global check —
so library users pay nothing; the CLI's ``--trace`` flag (and the
benchmark harness) activate a run around each command, whose spans,
events, metrics and wall time :mod:`repro.obs.export` writes as one
Chrome trace.

Counting: :func:`metric` is the one way a layer records a count or a
timing.  A *layer counter* (a name in :data:`LAYER_FAMILIES`) reaches
the ambient run and every registry collecting at that moment — each
open :class:`repro.engine.EngineStats` registers one with
:func:`collect` — so nested reports (a per-K check inside a sweep, the
certifier inside ``verify``) need no hand-written fold.  Every other
name (``engine.``, ``supervisor.``, ``scheduler.``, ``pool.``, ...) is
a report counter: the code that owns a report writes it on that
report's stats, and collectors ignore it.

Worker capture protocol: the batch scheduler's workers
(:mod:`repro.engine.scheduler`) call :func:`fork_capture_begin` /
:func:`fork_capture_end` around each work item executed in a child.
The pair swaps in a fresh capture — a capture run when the forked
worker inherited an active run, else a bare collector — lets the worker record into it, and returns the picklable
:class:`ChildCapture` with the item's result, tracing on or off.  The
parent grafts it back with :func:`adopt_child`: the item's layer
counts reach the registries collecting at the dispatch, and under an
active run the worker spans are re-parented under the dispatching span
and the worker metrics fold into the run registry, so a ``--jobs 8``
sweep yields one coherent trace.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer


class ObsRun:
    """Everything one observed run records."""

    __slots__ = ("name", "attrs", "tracer", "metrics", "events",
                 "started", "wall_seconds", "_began", "_root")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = dict(attrs)
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.events: list[dict[str, Any]] = []
        self.started = time.time()
        self.wall_seconds: float | None = None
        self._began = time.perf_counter()
        self._root: Span | None = None

    def event(self, kind: str, level: str = "info",
              **fields: Any) -> None:
        self.events.append({"ts": time.time(), "kind": kind,
                            "level": level, "pid": os.getpid(),
                            **fields})

    def finish(self) -> None:
        if self.wall_seconds is None:
            self.wall_seconds = time.perf_counter() - self._began

    @property
    def spans(self) -> list[Span]:
        return self.tracer.roots

    def walk(self) -> Iterator[tuple[int, Span]]:
        return self.tracer.walk()


class ChildCapture:
    """Picklable observability payload of one forked work item."""

    __slots__ = ("spans", "metrics", "events", "pid")

    def __init__(self, spans: list[Span], metrics: MetricsRegistry,
                 events: list[dict[str, Any]], pid: int) -> None:
        self.spans = spans
        self.metrics = metrics
        self.events = events
        self.pid = pid

    def __getstate__(self):
        return (self.spans, self.metrics, self.events, self.pid)

    def __setstate__(self, state):
        self.spans, self.metrics, self.events, self.pid = state


_ACTIVE: ObsRun | None = None
_NULL_SPAN = nullcontext(None)

#: The layer counter families: recorded once, where the event happens,
#: by one :func:`metric` call, and collected by every open report.
LAYER_FAMILIES = ("checker.", "kernel.", "localkernel.", "fvs.",
                  "synthsearch.", "stage.")

#: The registries collecting layer counters right now (see
#: :func:`collect`).
_COLLECTORS: list[MetricsRegistry] = []

#: Out-of-band event subscribers (token -> callable).  The live
#: telemetry plane registers here so warning-level events reach the
#: ``status.json`` snapshot even when no ``--trace`` run is active;
#: :func:`event` stays a single-check no-op when both the ambient run
#: and the sink table are empty.
_EVENT_SINKS: dict[int, Any] = {}
_NEXT_SINK_TOKEN = 0


def add_event_sink(sink) -> int:
    """Subscribe *sink* (``callable(record_dict)``) to every event."""
    global _NEXT_SINK_TOKEN
    _NEXT_SINK_TOKEN += 1
    _EVENT_SINKS[_NEXT_SINK_TOKEN] = sink
    return _NEXT_SINK_TOKEN


def remove_event_sink(token: int) -> None:
    _EVENT_SINKS.pop(token, None)


def active() -> ObsRun | None:
    """The ambient run, or ``None`` when observability is off."""
    return _ACTIVE


def start(name: str, **attrs: Any) -> ObsRun:
    """Activate a run (nested activation raises; one run per process)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError(
            f"an observability run ({_ACTIVE.name!r}) is already active")
    _ACTIVE = ObsRun(name, **attrs)
    return _ACTIVE


def finish(run: ObsRun) -> None:
    """Deactivate *run* and stamp its wall time."""
    global _ACTIVE
    run.finish()
    if _ACTIVE is run:
        _ACTIVE = None


@contextmanager
def run(name: str, **attrs: Any):
    """``with obs.run("repro sweep", protocol=...) as run_ctx:``"""
    run_ctx = start(name, **attrs)
    try:
        with run_ctx.tracer.span(name, **attrs):
            yield run_ctx
    finally:
        finish(run_ctx)


def span(name: str, **attrs: Any):
    """A traced region under the ambient run (no-op when inactive).

    Yields the open :class:`Span` (or ``None``), so call sites can
    attach attributes discovered mid-flight::

        with obs.span("kernel.encode", K=k) as sp:
            ...
            if sp is not None:
                sp.attrs["states"] = count
    """
    if _ACTIVE is None:
        return _NULL_SPAN
    return _ACTIVE.tracer.span(name, **attrs)


def annotate(**attrs: Any) -> None:
    """Attributes for the current span (no-op when inactive)."""
    if _ACTIVE is not None:
        _ACTIVE.tracer.annotate(**attrs)


def event(kind: str, level: str = "info", **fields: Any) -> None:
    """A structured event on the ambient run (no-op when inactive)."""
    if _ACTIVE is None and not _EVENT_SINKS:
        return
    record = {"ts": time.time(), "kind": kind, "level": level,
              "pid": os.getpid(), **fields}
    if _ACTIVE is not None:
        _ACTIVE.events.append(record)
    for sink in _EVENT_SINKS.values():
        sink(record)


def metric(name: str, amount: float = 1) -> None:
    """Count *amount* under *name*: on the ambient run, and — for a
    layer counter — on every collecting registry (no-op when neither
    a run nor a collector is open)."""
    if _ACTIVE is None and not _COLLECTORS:
        return
    if _ACTIVE is not None:
        _ACTIVE.metrics.counter(name).inc(amount)
    if _COLLECTORS and name.startswith(LAYER_FAMILIES):
        for registry in _COLLECTORS:
            registry.counter(name).inc(amount)


@contextmanager
def collect(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Add every layer counter recorded inside the block to *registry*
    — in this process, and in the workers of any dispatch the block
    makes.  Re-entering for a registry already collecting is a no-op,
    so nothing is counted twice."""
    if registry in _COLLECTORS:
        yield registry
        return
    _COLLECTORS.append(registry)
    try:
        yield registry
    finally:
        _COLLECTORS.remove(registry)


def gauge(name: str, value: Any) -> None:
    """Set an ambient run gauge (no-op when inactive)."""
    if _ACTIVE is not None:
        _ACTIVE.metrics.gauge(name).set(value)


def observe(name: str, value: float) -> None:
    """Record a sample in an ambient histogram (no-op when inactive)."""
    if _ACTIVE is not None:
        _ACTIVE.metrics.histogram(name).observe(value)


# ----------------------------------------------------------------------
# Worker capture protocol
# ----------------------------------------------------------------------
def fork_capture_begin() -> tuple:
    """In a worker: swap in a fresh capture for one work item.

    Returns the state to restore with :func:`fork_capture_end`.  With
    an active run (inherited at fork time) the capture is a fresh run,
    which records everything;
    without one it is a bare collector, so the item's layer counts
    still travel back to the parent.
    """
    global _ACTIVE, _COLLECTORS
    saved = (_ACTIVE, _COLLECTORS)
    if _ACTIVE is not None:
        _ACTIVE, _COLLECTORS = ObsRun("fork-capture"), []
    else:
        _COLLECTORS = [MetricsRegistry()]
    return saved


def fork_capture_end(saved: tuple) -> ChildCapture:
    """Close the capture begun by :func:`fork_capture_begin`."""
    global _ACTIVE, _COLLECTORS
    captured, collectors = _ACTIVE, _COLLECTORS
    _ACTIVE, _COLLECTORS = saved
    if captured is None:
        return ChildCapture(spans=[], metrics=collectors[0], events=[],
                            pid=os.getpid())
    return ChildCapture(spans=captured.tracer.roots,
                        metrics=captured.metrics,
                        events=captured.events,
                        pid=os.getpid())


def adopt_child(capture: ChildCapture | None,
                name: str | None = None, **attrs: Any) -> None:
    """Graft a worker's capture into this process.

    The worker's layer counts reach every collecting registry.  Under
    an active run its spans are re-parented under the current span —
    inside a wrapper span *name* (attrs: worker pid plus **attrs**)
    when given, so each work item shows up as one subtree — its
    metrics fold into the run registry and its events append in item
    order.
    """
    if capture is None:
        return
    for registry in _COLLECTORS:
        registry.merge_named(capture.metrics, LAYER_FAMILIES)
    if _ACTIVE is None:
        return
    spans = capture.spans
    if name is not None:
        wrapper = Span(name, {"pid": capture.pid, **attrs},
                       start=min((s.start for s in spans),
                                 default=time.time()),
                       pid=capture.pid)
        wrapper.children = list(spans)
        wrapper.duration = max(
            (s.start + (s.duration or 0.0) for s in spans),
            default=wrapper.start) - wrapper.start
        spans = [wrapper]
    _ACTIVE.tracer.adopt(spans)
    _ACTIVE.metrics.merge(capture.metrics)
    _ACTIVE.events.extend(capture.events)
