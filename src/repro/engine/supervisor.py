"""The engine's one dispatcher: fault-tolerant, ordered work-item fan-out.

The two fan-outs in the analyses above it — per-K sweep instances
(:func:`repro.checker.sweep.sweep_verify`) and per-protocol fuzzing
audits (:func:`repro.randomgen.audit_theorems`) — hand all their items
to :func:`supervise_work_items`, which decides in one place how they
run:

* **serially, in-parent** (:meth:`TaskLedger.run_serial`) when nothing
  calls for children: ``jobs <= 1`` (or at most one pending item), no
  per-task timeout to enforce and no injected crash, hang or delay.
  This is a planned choice, not a fallback; a ``jobs <= 1`` run claims
  its items one at a time;
* on the **batch scheduler**
  (:class:`repro.engine.scheduler.BatchScheduler`) otherwise — ``jobs``
  persistent forked workers fed batches sized from a shared queue;
* serially, with a ``pool-fallback`` event (``reason="no-fork"``),
  when workers are wanted but the platform cannot fork.

Per-item cost in these workloads is heavily skewed — one pathological
instance can hang or OOM while its siblings finish in milliseconds — so
work always runs under a :class:`SupervisorPolicy`
(``SupervisorPolicy()`` when the caller gives none):

* **timeouts** — a task exceeding the per-task wall-clock budget is
  SIGKILLed and put straight back on the queue as a retry;
* **crash isolation** — a worker that dies (segfault, OOM kill,
  injected SIGKILL) fails only its in-flight task, which is retried
  the same way; the rest of the dead worker's batch is requeued
  without spending retry budget, and sibling workers keep running;
* **degradation** — a task that exhausts its retry budget, or whose
  result does not pickle, runs its own worker once more *in the parent
  process* instead of aborting the run;
* **write-through** — with a :class:`repro.engine.cache.ResultCache`
  and one key per item, the dispatcher looks each item it claims up
  once and returns what the cache holds without re-execution, and
  stores every completed item the moment it completes (in the parent,
  never in a worker).  A killed run therefore loses only its in-flight
  items: rerunning it with the same cache is the resume (``repro sweep
  --resume``);
* **one stop rule** — ``until`` ends the result list at the first
  item, in item order, whose result it accepts, and claiming ends
  there.  A ``jobs <= 1`` serial run claims items one at a time, so
  it looks up and runs nothing past that item; any other run claims
  its items before any of them runs, so only a cached stop ends its
  claims early, and its pending items run speculatively and are cut
  at the stop;
* **observability** — ``task-timeout`` / ``task-retry`` /
  ``task-degraded`` events, ``supervisor.*`` counters, each item's
  layer counts shipped back to the stats open at the dispatch (see
  :mod:`repro.obs.runtime`), and worker spans re-parented as
  ``item[i]`` subtrees.

Whether the cache answers an item, whether it runs, how it is counted
(one cache hit or miss per keyed lookup, one ``work_items`` per item
run) and where the result list stops are all decided in one
:class:`TaskLedger` that the serial loop and the batch scheduler share,
so a run's verdicts and counts do not depend on which of them executed
it, and no caller probes the cache or counts its own items.

Forked workers inherit worker, context and items, so all three may hold
unpicklable objects; only results cross the pipe.  A worker *exception*
(as opposed to a death) is treated as deterministic: it is not retried
but re-raised in the parent with the remote traceback chained.

Fault injection (:class:`FaultPlan`) is part of the module on purpose:
the differential matrix (``tests/differential/``) and the CI smoke job
inject worker crashes, hangs and parent deaths through the same code
path users exercise, via the ``REPRO_INJECT_FAULT`` environment variable
(e.g. ``crash:0``, ``hang:1,2``, ``die-after:3``; test-only, never set
in production).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engine.pool import WorkerFailure, parallelism_available
from repro.obs import runtime as obs

#: Environment variable read by :meth:`FaultPlan.from_env`.
FAULT_ENV = "REPRO_INJECT_FAULT"


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard to try before giving up on a work item.

    ``timeout`` is the per-task wall-clock budget in seconds (``None``
    disables the deadline); ``retries`` is how many *additional*
    attempts a crashed or timed-out task gets before it degrades to one
    in-parent run of its own worker.  A retried task goes straight back
    on the queue.
    """

    timeout: float | None = None
    retries: int = 2

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


#: The policy of a dispatch given none (shared: policies are frozen).
_DEFAULT_POLICY = SupervisorPolicy()


@dataclass
class FaultPlan:
    """Deterministic fault injection for tests and smoke runs.

    ``crash_items`` / ``hang_items`` name item indices whose *first*
    attempt is sabotaged in the child (SIGKILL / sleep past any
    timeout); retries run clean, so a supervised run always converges.
    ``die_after_checkpoints`` hard-kills the parent after that many
    write-through cache stores — the ``kill -9`` of the whole run that
    ``--resume`` exists for.  ``delay_seconds`` slows **every** task
    attempt down by a uniform sleep — the deliberately-degraded run the
    cross-run ledger's ``repro runs diff`` must flag as a timing
    regression.  ``die`` is patchable so in-process tests can observe
    the death without losing the interpreter.
    """

    crash_items: frozenset = frozenset()
    hang_items: frozenset = frozenset()
    die_after_checkpoints: int | None = None
    delay_seconds: float = 0.0
    hang_seconds: float = 3600.0
    die: Callable[[int], Any] = field(default=os._exit, repr=False)

    def child_fault(self, index: int, attempt: int) -> str | None:
        if attempt > 0:
            return None
        if index in self.crash_items:
            return "crash"
        if index in self.hang_items:
            return "hang"
        return None

    def child_delay(self) -> None:
        if self.delay_seconds > 0:
            time.sleep(self.delay_seconds)

    def on_checkpoint(self, count: int) -> None:
        if self.die_after_checkpoints is not None \
                and count >= self.die_after_checkpoints:
            self.die(70)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """Parse ``REPRO_INJECT_FAULT`` (``;``-separated clauses:
        ``crash:<i,j>``, ``hang:<i,j>``, ``die-after:<n>``,
        ``delay:<seconds>``)."""
        spec = (environ or os.environ).get(FAULT_ENV)
        if not spec:
            return None
        crash: set[int] = set()
        hang: set[int] = set()
        die_after: int | None = None
        delay = 0.0
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            kind, _, arg = clause.partition(":")
            if kind == "crash":
                crash.update(int(i) for i in arg.split(",") if i)
            elif kind == "hang":
                hang.update(int(i) for i in arg.split(",") if i)
            elif kind == "die-after":
                die_after = int(arg)
            elif kind == "delay":
                delay = float(arg)
            else:
                raise ValueError(
                    f"unknown {FAULT_ENV} clause {clause!r}")
        return cls(crash_items=frozenset(crash),
                   hang_items=frozenset(hang),
                   die_after_checkpoints=die_after,
                   delay_seconds=delay)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _Task:
    index: int
    key: str | None
    attempts: int = 0


def _bump(stats: Any, attribute: str, metric: str | None = None,
          amount: float = 1) -> None:
    if metric is not None:
        obs.metric(metric, amount)
    if stats is not None:
        setattr(stats, attribute, getattr(stats, attribute) + amount)


class TaskLedger:
    """The supervision bookkeeping of one dispatch.

    Claiming each item (answered by the cache, or pending), writing
    completed items through to the cache, the retry/degrade ladder,
    deterministic-failure latching, the dispatch's cache and work-item
    counts, and where the ordered result list stops all live here;
    :meth:`run_serial` and :class:`repro.engine.scheduler.BatchScheduler`
    are pure execution strategies over one ledger — which is what makes
    their verdicts identical by construction.
    """

    def __init__(self, worker, work: Sequence[Any], context: Any,
                 stats: Any, policy: SupervisorPolicy, cache,
                 keys: Sequence[str] | None,
                 plan: FaultPlan | None,
                 until: Callable[[Any], bool] | None = None) -> None:
        self.worker = worker
        self.work = work
        self.context = context
        self.stats = stats
        self.policy = policy
        self.cache = cache
        self.keys = keys
        self.plan = plan
        self.until = until
        #: The result list ends before this index (see :meth:`_settle`).
        self.stop = len(work)
        self.results: dict[int, Any] = {}
        self.failure: WorkerFailure | None = None
        self.ran = 0  # items completed by running, however they ran
        self.writes = 0

    def claims(self) -> Iterator[_Task]:
        """Claim the items in order and yield each one the cache does
        not answer.  Claiming ends at the item where the result list
        stops, so a lazy consumer that runs each task before it asks
        for the next looks up and runs nothing past that item, and a
        consumer that lists the claims first looks up nothing past a
        cached stop."""
        for index in range(len(self.work)):
            if index >= self.stop:
                return
            key = self.keys[index] if self.keys is not None else None
            if self.cache is not None:
                value = self.cache.get(key, _MISS)
                if value is not _MISS:  # None is a real result
                    _bump(self.stats, "cache_hits")
                    self._settle(index, value)
                    continue
                _bump(self.stats, "cache_misses")
            yield _Task(index=index, key=key)

    def _settle(self, index: int, result: Any) -> None:
        self.results[index] = result
        if index < self.stop and self.until is not None \
                and self.until(result):
            self.stop = index + 1

    def complete(self, task: _Task, result: Any) -> None:
        self.ran += 1
        self._settle(task.index, result)
        if self.cache is not None:
            self.cache.put(task.key, result)
            self.writes += 1
            if self.plan is not None:
                self.plan.on_checkpoint(self.writes)

    def record_failure(self, task: _Task, failure: WorkerFailure) -> None:
        """A deterministic worker exception: latch the first one."""
        if self.failure is None:
            self.failure = failure
        self.results[task.index] = None

    def degrade(self, task: _Task, reason: str) -> None:
        """Retry budget exhausted (or the result did not pickle): run
        the task's own worker once more, in-parent."""
        obs.event("task-degraded", level="warning", index=task.index,
                  key=task.key, attempts=task.attempts, reason=reason)
        _bump(self.stats, "supervisor_degraded", "supervisor.degraded")
        with obs.span("supervisor.degraded", index=task.index,
                      reason=reason):
            self.complete(task, self.worker(
                self.context, self.work[task.index]))

    def retry_or_degrade(self, task: _Task, reason: str) -> bool:
        """Spend one unit of *task*'s retry budget.

        Returns whether the task should be requeued; ``False`` means it
        was degraded and is already complete.
        """
        task.attempts += 1
        if task.attempts > self.policy.retries:
            self.degrade(task, reason)
            return False
        obs.event("task-retry", level="warning", index=task.index,
                  key=task.key, attempt=task.attempts, reason=reason)
        _bump(self.stats, "supervisor_retries", "supervisor.retries")
        return True

    # -- serial mode (no workers needed / none available) -------------
    def run_serial(self, pending: Iterable[_Task], reason: str) -> None:
        """Run *pending* in-parent, in order — a list, or the lazy
        :meth:`claims` of a serial dispatch.  *reason* is ``serial``
        (nothing called for worker processes) or ``no-fork`` (workers
        were wanted but the platform cannot start them — recorded as a
        ``pool-fallback`` event and ``pool.fallbacks`` count)."""
        if reason == "no-fork":
            obs.event("pool-fallback", level="warning", reason=reason,
                      items=len(pending))
            _bump(self.stats, "pool_fallbacks", "pool.fallbacks")
        with obs.span("supervisor.serial", reason=reason) as span:
            for task in pending:
                if self.plan is not None:
                    self.plan.child_delay()
                self.complete(task, self.worker(
                    self.context, self.work[task.index]))
            if span is not None:
                span.attrs["items"] = self.ran

    def ordered_results(self) -> list[Any]:
        return [self.results[i] for i in range(self.stop)]


#: Dispatches executing in this process right now (see
#: :func:`supervise_work_items` on nesting).
_running = 0

#: Cache-miss sentinel: a cached result may itself be ``None``.
_MISS = object()


def _run_workers(ledger: TaskLedger, pending: list[_Task], jobs: int,
                 prewarm: Callable[[], None] | None) -> None:
    """Run *pending* on the batch scheduler's forked workers, or
    serially where the platform cannot fork."""
    if not parallelism_available():
        ledger.run_serial(pending, "no-fork")
        return
    from repro.engine.scheduler import BatchScheduler

    if prewarm is not None:
        # Forked workers inherit what prewarm compiles.
        with obs.span("scheduler.prewarm"):
            prewarm()
    BatchScheduler(ledger, jobs=jobs).run(pending)


def supervise_work_items(worker: Callable[[Any, Any], Any],
                         items: Iterable[Any],
                         jobs: int = 1,
                         context: Any = None,
                         stats: Any = None,
                         policy: SupervisorPolicy | None = None,
                         cache=None,
                         keys: Sequence[str] | None = None,
                         plan: FaultPlan | None = None,
                         prewarm: Callable[[], None] | None = None,
                         until: Callable[[Any], bool] | None = None,
                         ) -> list[Any]:
    """Apply ``worker(context, item)`` to every item, results in order.

    Forked workers inherit *worker*, *context* and *items*, so all
    three may hold unpicklable objects, but each **result** must
    pickle — an unpicklable result degrades that one task to an
    in-parent rerun.  Work runs under *policy*'s timeout/retry/
    degradation ladder (``SupervisorPolicy()`` when omitted).  With a
    *cache* (a :class:`repro.engine.cache.ResultCache`) and *keys*
    (one per item), each item claimed is looked up once —
    counted as one ``cache_hits`` or ``cache_misses`` on *stats* — an
    item the cache holds is returned without re-execution, and each
    completed item is stored under its key as soon as it completes, so
    its value must be exactly what the caller stores under that key
    elsewhere.
    Every item that runs adds one ``work_items`` to *stats*.  See the
    module docstring for how the serial-vs-parallel decision is made.

    *until*, when given, ends the result list at the first item, in
    item order, whose result it accepts (a cached result included);
    no item past a cached stop is looked up or run.  A ``jobs <= 1``
    serial run claims items one at a time, so nothing past that item
    is looked up or run; any other run claims its items before it runs
    them, runs the pending ones speculatively and cuts the list
    afterwards, so both return the same list.

    *prewarm*, when given, is called once in the parent immediately
    before fork workers start (never when everything runs serially or
    nothing is pending) — the sweep compiles the protocol's kernel here
    so every fork worker inherits a hot cache.

    *plan* is fault injection (tests and smoke runs); ``None`` reads it
    from ``REPRO_INJECT_FAULT``, so callers that dispatch many times
    resolve it once and pass it (an empty ``FaultPlan()`` injects
    nothing).  *stats*, when given, is an
    :class:`repro.engine.EngineStats` that receives the dispatch
    counters and ``parallel``.
    """
    global _running
    work = list(items)
    if cache is not None and (keys is None or len(keys) != len(work)):
        raise ValueError("write-through caching needs one key per "
                         "work item")
    # A process that never imported multiprocessing is not one of its
    # workers (fork workers inherit the module), so a serial run need
    # not load it to ask.
    mp = sys.modules.get("multiprocessing")
    if _running or (mp is not None and mp.current_process().daemon):
        # A dispatch from inside another dispatch's task runs inline:
        # worker processes cannot start workers of their own, and the
        # environment's fault plan and the cache writes belong to the
        # outer dispatch.
        results = []
        for item in work:
            results.append(worker(context, item))
            if until is not None and until(results[-1]):
                break
        _bump(stats, "work_items", amount=len(results))
        return results
    if plan is None:
        plan = FaultPlan.from_env()
    policy = policy or _DEFAULT_POLICY

    ledger = TaskLedger(worker, work, context, stats, policy, cache,
                        keys, plan, until)
    injected = plan is not None and (plan.crash_items or plan.hang_items
                                     or plan.delay_seconds)
    supervised = policy.timeout is not None or injected
    _running += 1
    try:
        if jobs <= 1 and not supervised:
            ledger.run_serial(ledger.claims(), "serial")
        else:
            pending = list(ledger.claims())
            if len(pending) > 1 or (pending and supervised):
                _run_workers(ledger, pending, jobs, prewarm)
            elif pending:
                ledger.run_serial(pending, "serial")
    finally:
        _running -= 1
    _bump(stats, "work_items", amount=ledger.ran)
    if ledger.failure is not None:
        ledger.failure.reraise()
    return ledger.ordered_results()
