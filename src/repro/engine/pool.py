"""Dispatch primitives shared by the supervisor and the batch scheduler.

Every fan-out in the engine (per-K sweep instances, lattice synthesis
units, per-protocol fuzzing audits) runs through one dispatcher,
:func:`repro.engine.supervisor.supervise_work_items`.  This module holds
what that dispatcher and its worker processes share:

* the start-method choice (:func:`start_method`, honouring
  ``REPRO_START_METHOD``) — fork by default, because protocols may carry
  unpicklable predicate callables that forked workers simply inherit;
* :class:`PortableContext`, the picklable recipe that lets a spawned
  worker rebuild its context where fork is unavailable;
* :class:`WorkerFailure` / :class:`WorkerTraceback`: a worker exception
  is captured *in the worker* with its formatted traceback and re-raised
  in the parent with that remote traceback chained as ``__cause__``, so
  the failing frame inside the worker stays visible;
* :func:`run_work_items`, the unsupervised entry point — a thin
  forwarder to the supervisor kept for callers (and external wrappers)
  that name it.
"""

from __future__ import annotations

import os
import pickle
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterable, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")

#: Environment override for the dispatch start method.  ``spawn``
#: forces every fork-only path into its fallback (and lets portable
#: contexts exercise spawn dispatch on platforms that *do* have fork —
#: how the benchmarks measure spawn-mode parity on Linux); ``fork``
#: pins fork.  Unset picks fork whenever the platform offers it.
START_METHOD_ENV = "REPRO_START_METHOD"


@dataclass(frozen=True)
class PortableContext:
    """A picklable recipe for rebuilding a worker context after spawn.

    Fork workers inherit *worker*/*context*/*items* from the parent;
    spawn workers get nothing for free, and the live contexts
    (protocols carrying closure predicates) do not pickle.  A
    ``PortableContext`` carries a module-level *builder* (pickled by
    qualified name) plus a picklable *payload* — e.g. the
    ``protocol_to_dict`` form of a DSL protocol — from which the
    spawned worker rebuilds the context once at startup.  Callers pass
    one only when their context genuinely round-trips; everything else
    keeps the serial no-fork fallback.
    """

    builder: Callable[[Any], Any]
    payload: Any = None

    def build(self) -> Any:
        return self.builder(self.payload)


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


def start_method() -> str | None:
    """The effective dispatch start method (``fork``/``spawn``/``None``).

    Respects ``REPRO_START_METHOD`` when it names an available method;
    otherwise fork wins whenever the platform offers it (spawn dispatch
    needs a :class:`PortableContext`, so it is never the silent
    default).
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    forced = os.environ.get(START_METHOD_ENV, "").strip().lower()
    if forced in ("fork", "spawn"):
        return forced if forced in methods else None
    if "fork" in methods:
        return "fork"
    return "spawn" if "spawn" in methods else None


def parallelism_available() -> bool:
    """Whether fork-based dispatch can run on this platform."""
    return start_method() == "fork"


def run_work_items(worker: Callable[[Any, Item], Result],
                   items: Iterable[Item],
                   jobs: int = 1,
                   context: Any = None,
                   stats: Any = None,
                   portable: PortableContext | None = None) -> list[Result]:
    """Apply ``worker(context, item)`` to every item, results in order.

    The unsupervised spelling of
    :func:`repro.engine.supervisor.supervise_work_items` (default
    policy, no cache), which it forwards to unchanged.
    """
    from repro.engine.supervisor import supervise_work_items

    return supervise_work_items(worker, items, jobs=jobs, context=context,
                                stats=stats, portable=portable)
