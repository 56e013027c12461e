"""Hierarchical span tracing.

A :class:`Span` is one timed region of a run — a sweep, a per-K check,
a kernel compile, a trail search — with a name, free-form attributes
(K, backend, protocol fingerprint, ...) and child spans.  A
:class:`Tracer` maintains the open-span stack and records finished
trees.

Design constraints, in order:

* **Picklable spans.**  Spans recorded inside forked pool workers are
  serialized back with each work-item result and re-parented under the
  dispatching span (:meth:`Tracer.adopt`), so one ``--jobs 8`` sweep
  still yields a single coherent trace.  Spans therefore carry plain
  data only.
* **Two clocks.**  ``start`` is wall-clock epoch seconds
  (``time.time()`` — meaningful across processes, which fork pools
  require); ``duration`` is a monotonic ``time.perf_counter()`` delta
  (immune to clock steps).  Exporters combine both.
* **Cheap.**  Opening a span is one object construction and two list
  operations; instrumented call sites are coarse (stages, per-K
  checks, trail searches), never per-state.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Iterator


class Span:
    """One finished (or still-open) timed region."""

    __slots__ = ("name", "attrs", "start", "duration", "pid", "children")

    def __init__(self, name: str, attrs: dict[str, Any] | None = None,
                 start: float | None = None,
                 duration: float | None = None,
                 pid: int | None = None) -> None:
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.start = time.time() if start is None else start
        self.duration = duration
        self.pid = os.getpid() if pid is None else pid
        self.children: list[Span] = []

    @property
    def end(self) -> float:
        return self.start + (self.duration or 0.0)

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Pre-order ``(depth, span)`` traversal of this subtree."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def __getstate__(self):
        return (self.name, self.attrs, self.start, self.duration,
                self.pid, self.children)

    def __setstate__(self, state):
        (self.name, self.attrs, self.start, self.duration,
         self.pid, self.children) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ms = None if self.duration is None else f"{self.duration * 1e3:.1f}ms"
        return f"Span({self.name!r}, {ms}, {len(self.children)} children)"


class Tracer:
    """Records a forest of spans with an open-span stack."""

    __slots__ = ("roots", "_stack")

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Open a child span of the current span for the ``with`` body."""
        span = Span(name, attrs)
        parent = self.current
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        self._stack.append(span)
        began = time.perf_counter()
        try:
            yield span
        finally:
            span.duration = time.perf_counter() - began
            self._stack.pop()

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the current span (no-op outside spans)."""
        current = self.current
        if current is not None:
            current.attrs.update(attrs)

    def adopt(self, spans: list[Span]) -> None:
        """Re-parent already-finished *spans* under the current span.

        Used to graft span trees serialized back from forked pool
        workers into the dispatching process's trace.
        """
        parent = self.current
        target = self.roots if parent is None else parent.children
        target.extend(spans)

    def walk(self) -> Iterator[tuple[int, Span]]:
        for root in self.roots:
            yield from root.walk()

    @property
    def total_seconds(self) -> float:
        """Summed duration of the root spans (closed ones only)."""
        return sum(root.duration or 0.0 for root in self.roots)

    def __getstate__(self):
        return (self.roots, self._stack)

    def __setstate__(self, state):
        self.roots, self._stack = state
