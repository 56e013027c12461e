"""The engine's one dispatcher: fault-tolerant, ordered work-item fan-out.

Every fan-out in the analyses above it — per-K sweep instances,
per-support trail searches, per-combination synthesis verdicts,
per-protocol fuzzing audits — hands its pending items to
:func:`supervise_work_items`, which decides in one place how they run:

* **serially, in-parent** (:meth:`TaskLedger.run_serial`) when nothing
  calls for children: ``jobs <= 1`` (or at most one pending item), no
  per-task timeout to enforce and no injected crash, hang or delay.
  This is a planned choice, not a fallback;
* on the **batch scheduler**
  (:class:`repro.engine.scheduler.BatchScheduler`) otherwise — ``jobs``
  persistent forked workers pulling adaptively sized batches from a
  shared queue;
* on the batch scheduler over **spawned** workers when fork is
  unavailable but the caller's :class:`~repro.engine.pool.PortableContext`
  and the worker payload pickle; failing that, serially with a
  ``pool-fallback`` event (``reason="no-fork"``).

Per-item cost in these workloads is heavily skewed — one pathological
instance can hang or OOM while its siblings finish in milliseconds — so
work always runs under a :class:`SupervisorPolicy`
(``SupervisorPolicy()`` when the caller gives none):

* **timeouts** — a task exceeding the per-task wall-clock budget is
  SIGKILLed and retried with exponential backoff;
* **crash isolation** — a worker that dies (segfault, OOM kill,
  injected SIGKILL) fails only its in-flight task, which is retried;
  the rest of the dead worker's batch is requeued without spending
  retry budget, and sibling workers keep running;
* **degradation** — a task that exhausts its retry budget, or whose
  result does not pickle, runs its own worker once more *in the parent
  process* instead of aborting the run;
* **write-through** — with a :class:`repro.engine.cache.ResultCache`
  and one key per item, every completed item is stored in the cache the
  moment it completes (in the parent, never in a worker), and items the
  cache already holds are returned without re-execution.  A killed run
  therefore loses only its in-flight items: rerunning it with the same
  cache is the resume (``repro sweep --resume``);
* **observability** — ``task-timeout`` / ``task-retry`` /
  ``task-degraded`` events, ``supervisor.*`` counters, each item's
  layer counts shipped back to the stats open at the dispatch (see
  :mod:`repro.obs.runtime`), and worker spans re-parented as
  ``item[i]`` subtrees.

The cache/retry/degrade bookkeeping lives in one :class:`TaskLedger`
that the serial loop and the batch scheduler share, so a run's verdicts
do not depend on which of them executed it.

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
import pickle
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.engine.pool import PortableContext, WorkerFailure, start_method
from repro.obs import live
from repro.obs import runtime as obs

#: Environment variable read by :meth:`FaultPlan.from_env`.
FAULT_ENV = "REPRO_INJECT_FAULT"


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard to try before giving up on a work item.

    ``timeout`` is the per-task wall-clock budget in seconds (``None``
    disables the deadline); ``retries`` is how many *additional*
    attempts a crashed or timed-out task gets before it degrades to one
    in-parent run of its own worker; the backoff before attempt ``n`` is
    ``backoff * 2**(n-1)`` seconds, capped at ``backoff_cap``.
    """

    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")

    def delay_before(self, attempt: int) -> float:
        """Backoff in seconds before retry *attempt* (1-based)."""
        return min(self.backoff * (2.0 ** (attempt - 1)),
                   self.backoff_cap)


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
    ready_at: float = 0.0


def _bump(stats: Any, attribute: str, metric: str,
          amount: float = 1) -> None:
    obs.metric(metric, amount)
    if stats is not None:
        setattr(stats, attribute, getattr(stats, attribute) + amount)


class TaskLedger:
    """The supervision bookkeeping of one dispatch.

    Answering items from the cache, writing completed items through to
    it, the retry/degrade ladder, deterministic-failure latching and
    result ordering all live here; :meth:`run_serial` and
    :class:`repro.engine.scheduler.BatchScheduler` are pure execution
    strategies over one ledger — which is what makes their verdicts
    identical by construction.
    """

    def __init__(self, worker, work: Sequence[Any], context: Any,
                 stats: Any, policy: SupervisorPolicy, cache,
                 keys: Sequence[str] | None,
                 plan: FaultPlan | None) -> None:
        self.worker = worker
        self.work = work
        self.context = context
        self.stats = stats
        self.policy = policy
        self.cache = cache
        self.keys = keys
        self.plan = plan
        self.results: dict[int, Any] = {}
        self.failure: WorkerFailure | None = None
        self.writes = 0

    def key(self, index: int) -> str | None:
        return self.keys[index] if self.keys is not None else None

    def split_cached(self) -> list[_Task]:
        """Answer the items the cache already holds; return the rest.

        ``key in cache`` guards the lookup, so a key the caller already
        probed and missed is not counted as a miss a second time.
        """
        pending: list[_Task] = []
        for index in range(len(self.work)):
            key = self.key(index)
            if self.cache is not None and key in self.cache:
                value = self.cache.get(key, _MISS)
                if value is not _MISS:  # None is a real result
                    self.results[index] = value
                    if self.stats is not None:
                        self.stats.cache_hits += 1
                    continue
            pending.append(_Task(index=index, key=key))
        return pending

    def complete(self, task: _Task, result: Any) -> None:
        live.note(done=1)
        self.results[task.index] = result
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
        live.note(degraded=1)
        with obs.span("supervisor.degraded", index=task.index,
                      reason=reason):
            self.complete(task, self.worker(
                self.context, self.work[task.index]))

    def retry_or_degrade(self, task: _Task, reason: str) -> _Task | None:
        """Spend one unit of *task*'s retry budget.

        Returns the task (with its backoff ``ready_at`` stamped) when
        it should be requeued, or ``None`` when it was degraded and is
        already complete.
        """
        task.attempts += 1
        if task.attempts > self.policy.retries:
            self.degrade(task, reason)
            return None
        delay = self.policy.delay_before(task.attempts)
        task.ready_at = time.monotonic() + delay
        obs.event("task-retry", level="warning", index=task.index,
                  key=task.key, attempt=task.attempts, reason=reason,
                  delay_seconds=delay)
        _bump(self.stats, "supervisor_retries", "supervisor.retries")
        live.note(retried=1)
        return task

    # -- serial mode (no workers needed / none available) -------------
    def run_serial(self, pending: list[_Task], reason: str) -> None:
        """Run *pending* in-parent, in order.  *reason* is ``serial``
        (nothing called for worker processes) or ``no-fork`` (workers
        were wanted but the platform cannot start them — recorded as a
        ``pool-fallback`` event and ``pool.fallbacks`` count)."""
        if reason == "no-fork":
            obs.event("pool-fallback", level="warning", reason=reason,
                      items=len(pending))
            _bump(self.stats, "pool_fallbacks", "pool.fallbacks")
        with obs.span("supervisor.serial", reason=reason,
                      items=len(pending)):
            for task in pending:
                if self.plan is not None:
                    self.plan.child_delay()
                self.complete(task, self.worker(
                    self.context, self.work[task.index]))
                live.tick()

    def ordered_results(self) -> list[Any]:
        return [self.results[i] for i in range(len(self.work))]


#: Dispatches executing in this process right now (see
#: :func:`supervise_work_items` on nesting).
_running = 0

#: Cache-miss sentinel: a cached result may itself be ``None``.
_MISS = object()


def _spawn_dispatchable(ledger: "TaskLedger",
                        portable: PortableContext | None) -> bool:
    """Whether spawn-mode batch dispatch can carry this workload.

    Spawn workers receive their payload by pickle, so the worker
    function, the portable context recipe, the item list and the fault
    plan must all round-trip; anything that does not keeps the serial
    fallback.
    """
    if portable is None:
        return False
    try:
        pickle.dumps((ledger.worker, portable, ledger.work, ledger.plan))
    except Exception:
        return False
    return True


def _run_workers(ledger: TaskLedger, pending: list[_Task], jobs: int,
                 prewarm: Callable[[], None] | None,
                 portable: PortableContext | None) -> None:
    """Run *pending* on the batch scheduler over the platform's start
    method, or serially when no worker process can carry it."""
    method = start_method()
    if method == "spawn" and not _spawn_dispatchable(ledger, portable):
        method = None
    if method is None:
        ledger.run_serial(pending, "no-fork")
        return
    from repro.engine.scheduler import BatchScheduler

    if prewarm is not None:
        # Fork workers inherit what prewarm compiles; spawn workers
        # attach what prewarm *publishes*.
        with obs.span("scheduler.prewarm"):
            prewarm()
    BatchScheduler(ledger, jobs=jobs, start_method=method,
                   portable=portable if method == "spawn" else None,
                   ).run(pending)


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
                         portable: PortableContext | None = None,
                         ) -> list[Any]:
    """Apply ``worker(context, item)`` to every item, results in order.

    *worker* must be a module-level function when spawn dispatch is
    possible (it is pickled by qualified name); under fork, *worker*,
    *context* and *items* may hold unpicklable objects, but each
    **result** must pickle — an unpicklable result degrades that one
    task to an in-parent rerun.  Work runs under *policy*'s
    timeout/retry/degradation ladder (``SupervisorPolicy()`` when
    omitted).  With a *cache* (a :class:`repro.engine.cache.ResultCache`)
    and *keys* (one per item), items the cache holds are returned
    without re-execution and each completed item is stored under its
    key as soon as it completes, so its value must be exactly what the
    caller stores under that key elsewhere.  See the module docstring
    for how the serial-vs-parallel decision is made.

    *prewarm*, when given, is called once in the parent immediately
    before workers start (never when everything runs serially or
    nothing is pending) — the engine call sites compile the protocol's
    kernels here so every fork worker inherits hot caches; under an
    artifact store a caller activated through the API, the compile
    also publishes the tables for spawn workers to attach.

    *plan* is fault injection (tests and smoke runs); ``None`` reads it
    from ``REPRO_INJECT_FAULT``, so callers that dispatch many times
    resolve it once and pass it (an empty ``FaultPlan()`` injects
    nothing).  *portable* (a :class:`repro.engine.pool.PortableContext`)
    unlocks spawn dispatch where fork is unavailable.  *stats*, when
    given, is an :class:`repro.engine.EngineStats` that receives the
    dispatch counters and ``parallel``.
    """
    global _running
    work = list(items)
    if cache is not None and (keys is None or len(keys) != len(work)):
        raise ValueError("write-through caching needs one key per "
                         "work item")
    # A process that never imported multiprocessing is not one of its
    # workers (fork workers inherit the module, spawn workers import it
    # to boot), so a serial run need not load it to ask.
    mp = sys.modules.get("multiprocessing")
    if _running or (mp is not None and mp.current_process().daemon):
        # A dispatch from inside another dispatch's task (the livelock
        # certifier inside a fuzzing audit, say) runs inline: worker
        # processes cannot start workers of their own, and the live
        # plane, the environment's fault plan and the cache writes
        # belong to the outer dispatch.
        return [worker(context, item) for item in work]
    if plan is None:
        plan = FaultPlan.from_env()
    policy = policy or _DEFAULT_POLICY

    ledger = TaskLedger(worker, work, context, stats, policy, cache,
                        keys, plan)
    pending = ledger.split_cached()
    live.begin_stage(getattr(worker, "__name__", "supervised.map"),
                     total=len(work),
                     resumed=len(work) - len(pending))
    live.tick()
    if pending:
        injected = plan is not None and (plan.crash_items
                                         or plan.hang_items
                                         or plan.delay_seconds)
        _running += 1
        try:
            if policy.timeout is not None or injected \
                    or (jobs > 1 and len(pending) > 1):
                _run_workers(ledger, pending, jobs, prewarm, portable)
            else:
                ledger.run_serial(pending, "serial")
        finally:
            _running -= 1
    if ledger.failure is not None:
        ledger.failure.reraise()
    return ledger.ordered_results()
