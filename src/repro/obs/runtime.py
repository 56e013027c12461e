"""The ambient observability run: one tracer + metrics + event log.

Instrumented code throughout the engine calls the module-level helpers
(:func:`span`, :func:`event`, :func:`metric`, :func:`annotate`).  When
no run is active every helper is a near-free no-op — one global check —
so library users pay nothing; the CLI's ``--trace`` / ``--log-json``
flags (and the benchmark harness) activate a run around each command.

Worker capture protocol: the batch scheduler's workers
(:mod:`repro.engine.scheduler`) call :func:`fork_capture_begin` /
:func:`fork_capture_end` around each work item executed in a child.
The child inherited the parent's active run at fork time (a spawned
worker starts its own); the pair swaps in a fresh capture run, lets
the worker record spans / metrics / events into it, and returns the
picklable :class:`ChildCapture` with the item's result.  The parent
then grafts it back with :func:`adopt_child`, re-parenting the worker
spans under the dispatching span and folding the worker metrics into
the run registry, so a ``--jobs 8`` sweep yields one coherent trace.
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

#: Out-of-band event subscribers (token -> callable).  The live
#: telemetry plane registers here so warning-level events reach the
#: ``status.json`` snapshot even when no ``--trace``/``--log-json`` run
#: is active; :func:`event` stays a single-check no-op when both the
#: ambient run and the sink table are empty.
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
    """Increment an ambient run counter (no-op when inactive)."""
    if _ACTIVE is not None:
        _ACTIVE.metrics.counter(name).inc(amount)


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
def fork_capture_begin() -> ObsRun | None:
    """In a forked worker: swap in a fresh capture run.

    Returns the run that was active (inherited from the parent at fork
    time) so :func:`fork_capture_end` can restore it, or ``None`` when
    observability is off — in which case nothing is captured.
    """
    global _ACTIVE
    if _ACTIVE is None:
        return None
    inherited, _ACTIVE = _ACTIVE, ObsRun("fork-capture")
    return inherited


def fork_capture_end(inherited: ObsRun | None) -> ChildCapture | None:
    """Close the capture begun by :func:`fork_capture_begin`."""
    global _ACTIVE
    if inherited is None:
        return None
    captured, _ACTIVE = _ACTIVE, inherited
    if captured is None:  # pragma: no cover - begin/end always paired
        return None
    return ChildCapture(spans=captured.tracer.roots,
                        metrics=captured.metrics,
                        events=captured.events,
                        pid=os.getpid())


def adopt_child(capture: ChildCapture | None,
                name: str | None = None, **attrs: Any) -> None:
    """Graft a worker's capture into the ambient run.

    The worker's spans are re-parented under the current span — inside
    a wrapper span *name* (attrs: worker pid plus **attrs**) when given,
    so each work item shows up as one subtree.  Worker metrics fold
    into the run registry; worker events append in item order.
    """
    if capture is None or _ACTIVE is None:
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
