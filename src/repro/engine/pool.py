"""Dispatch primitives shared by the supervisor and the batch scheduler.

The engine's two fan-outs (per-K sweep instances and per-protocol
fuzzing audits) run through one dispatcher,
:func:`repro.engine.supervisor.supervise_work_items`, which starts its
workers by fork: protocols may carry unpicklable predicate callables
that forked workers simply inherit.  This module holds what that
dispatcher and its worker processes share:

* :func:`parallelism_available` — whether the platform can fork; where
  it cannot, the dispatcher runs every item in-process;
* :class:`WorkerFailure` / :class:`WorkerTraceback`: a worker exception
  is captured *in the worker* with its formatted traceback and re-raised
  in the parent with that remote traceback chained as ``__cause__``, so
  the failing frame inside the worker stays visible;
* :func:`run_work_items`, the unsupervised entry point — a thin
  forwarder to the supervisor kept for callers (and external wrappers)
  that name it.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Any, Callable, Iterable, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")


class WorkerTraceback(Exception):
    """The formatted traceback of an exception raised inside a worker
    process, chained as ``__cause__`` under the re-raised exception so
    the remote frames survive the process boundary (the pattern of
    :mod:`concurrent.futures`' ``_RemoteTraceback``, made explicit)."""

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self.text = text

    def __str__(self) -> str:
        return f"\n\"\"\"\n{self.text}\"\"\""


class WorkerFailure:
    """A worker exception captured at the raise site (picklable).

    Carries the original exception object when it pickles, and always
    the formatted remote traceback; :meth:`reraise` rebuilds the error
    in the parent with the worker frames chained.
    """

    __slots__ = ("exception", "traceback_text", "description")

    def __init__(self, exception: BaseException | None,
                 traceback_text: str, description: str) -> None:
        self.exception = exception
        self.traceback_text = traceback_text
        self.description = description

    @classmethod
    def capture(cls, exc: BaseException) -> "WorkerFailure":
        text = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        return cls(exc, text, f"{type(exc).__name__}: {exc}")

    def reraise(self) -> None:
        cause = WorkerTraceback(self.traceback_text)
        if self.exception is not None:
            raise self.exception from cause
        raise RuntimeError(
            f"worker raised an unpicklable exception "
            f"({self.description})") from cause

    def __reduce__(self):
        # The exception object may itself refuse to pickle; degrade to
        # a traceback-only failure rather than poisoning the pipe.
        # Pickleability is probed here, lazily, and the probe's output
        # is shipped as the payload: the old probe-then-repickle path
        # serialized every exception twice per pipe crossing, and the
        # parent-side rebuild now also survives payloads that pickle
        # but refuse to *unpickle*.
        try:
            payload = pickle.dumps(self.exception)
        except Exception:
            payload = None
        return (_rebuild_failure,
                (payload, self.traceback_text, self.description))


def _rebuild_failure(payload: bytes | None, traceback_text: str,
                     description: str) -> WorkerFailure:
    """Parent-side reconstructor for a pickled :class:`WorkerFailure`."""
    exception = None
    if payload is not None:
        try:
            exception = pickle.loads(payload)
        except Exception:
            exception = None
    return WorkerFailure(exception, traceback_text, description)


def parallelism_available() -> bool:
    """Whether the platform offers the fork start method (CPython lists
    it on Linux and macOS)."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def run_work_items(worker: Callable[[Any, Item], Result],
                   items: Iterable[Item],
                   jobs: int = 1,
                   context: Any = None,
                   stats: Any = None) -> list[Result]:
    """Apply ``worker(context, item)`` to every item, results in order.

    The unsupervised spelling of
    :func:`repro.engine.supervisor.supervise_work_items` (default
    policy, no cache), which it forwards to unchanged.
    """
    from repro.engine.supervisor import supervise_work_items

    return supervise_work_items(worker, items, jobs=jobs, context=context,
                                stats=stats)
