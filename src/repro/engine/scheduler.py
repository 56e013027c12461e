"""Guided batch scheduling over persistent supervised workers.

The engine's one parallel execution strategy (chosen by
:func:`repro.engine.supervisor.supervise_work_items` whenever work
should leave the parent process).  The compiled kernels drove per-task
cost down to fractions of a millisecond, at which point one ``fork``
and one pipe round-trip per task would dominate wall-clock.
:class:`BatchScheduler` amortizes that overhead: it starts ``--jobs``
**persistent workers once**, then feeds each idle worker a **batch** of
task indices sized from the queue alone (:func:`batch_size`).

Supervision stays at *task* granularity despite the batched transport:

* every worker announces each task with a ``start`` message before
  touching it — the heartbeat that arms the per-task timeout deadline
  in the parent;
* a worker death (segfault, OOM kill, injected SIGKILL) fails **only
  the in-flight task** — that task re-enters the retry/degrade ladder
  at the back of the queue, while the not-yet-started remainder of the
  dead worker's batch is **requeued at the front without spending
  retry budget** (those tasks were innocent bystanders, and charging
  them attempts would let batch composition change verdicts under
  ``retries=0``);
* deterministic worker exceptions latch into the shared
  :class:`~repro.engine.supervisor.TaskLedger` and re-raise with the
  remote traceback after in-flight work is stopped.

Batch sizing is guided self-scheduling (Polychronopoulos & Kuck, 1987):
each batch takes ``ceil(remaining / (2·T))`` of the queued tasks, where
``T = min(jobs, pending)`` is the dispatch's worker target.  Batches
start large, so a micro-task sweep pays few round-trips, and shrink
geometrically towards one task, so the tail is split across workers
instead of one worker hoarding the last big batch while its siblings
idle.  No timing enters the rule: a fault-free dispatch's batch count is
a function of its item count and ``--jobs`` alone, traced or not.

Workers are forked, so they inherit everything — including kernels
compiled by the parent's ``prewarm`` hook — and unpicklable
workers/contexts/items are fine and nothing is recompiled per task;
only results cross the pipe.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.engine.pool import WorkerFailure
from repro.engine.supervisor import FaultPlan, TaskLedger, _bump, _Task
from repro.obs import runtime as obs
from repro.obs.trace import Span


def batch_size(remaining: int, target: int) -> int:
    """Tasks in the next batch: ``ceil(remaining / (2 * target))``,
    for *remaining* queued tasks and *target* workers (at least one
    task while any remain)."""
    return -(-remaining // (2 * target))


# ----------------------------------------------------------------------
# child side: the persistent worker loop
# ----------------------------------------------------------------------
def _worker_main(worker, context, work: Sequence[Any],
                 plan: FaultPlan | None, commands, results,
                 parent_ends: Sequence[Any] = ()) -> None:
    """Pull batches of ``(index, attempt)`` pairs until told to stop.

    Per task: announce ``("start", index)`` (the heartbeat that arms
    the parent-side deadline), run it, ship ``("done", index, outcome,
    capture)`` — the capture carries the task's layer counts (and,
    under an active run, its spans and events); after a whole batch,
    ``("idle",)`` asks for more.
    ``None`` on the command pipe — or a vanished parent — ends the
    loop.  Fault injection happens *after* the start heartbeat, so the
    parent attributes the death to the right task.

    *parent_ends* are the scheduler's own pipe ends a fork child
    inherited; closing them first leaves the parent the only holder,
    so a parent killed hard reads as EOF on ``recv`` and a broken pipe
    on ``send`` instead of blocking this worker forever.
    """
    for conn in parent_ends:
        conn.close()
    while True:
        try:
            batch = commands.recv()
        except (EOFError, OSError):
            break
        if batch is None:
            break
        for index, attempt in batch:
            try:
                results.send(("start", index, None, None))
            except Exception:
                os._exit(1)
            fault = (plan.child_fault(index, attempt)
                     if plan is not None else None)
            if fault == "crash":
                os.kill(os.getpid(), signal.SIGKILL)
            if fault == "hang":
                time.sleep(plan.hang_seconds)
            if plan is not None:
                plan.child_delay()
            saved = obs.fork_capture_begin()
            try:
                try:
                    outcome: Any = ("ok", worker(context, work[index]))
                except BaseException as exc:
                    outcome = ("failed", WorkerFailure.capture(exc))
            finally:
                capture = obs.fork_capture_end(saved)
            try:
                results.send(("done", index, outcome, capture))
            except Exception as exc:
                # Unpicklable result: report it as such so the parent
                # degrades this task rather than suspecting a crash.
                try:
                    results.send((
                        "done", index,
                        ("unpicklable",
                         f"{type(exc).__name__}: {exc}"), None))
                except Exception:
                    os._exit(1)
        try:
            results.send(("idle", None, None, None))
        except Exception:
            os._exit(1)
    os._exit(0)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """Parent-side state of one persistent worker process."""

    ident: int
    process: Any
    commands: Any  # parent → child: batches of (index, attempt)
    results: Any   # child → parent: start / done / idle
    assigned: deque = field(default_factory=deque)  # sent, not started
    current: _Task | None = None                    # heartbeat received
    deadline: float | None = None
    started_at: float = 0.0
    batch_began: float = 0.0        # wall clock, for the batch span
    batch_items: int = 0
    idle: bool = True

    @property
    def busy(self) -> bool:
        return not self.idle

    def casualty(self) -> _Task | None:
        """The task a death should be charged to: the heartbeat-
        confirmed one, else the first assigned (a worker that died
        before its first heartbeat was necessarily on that task)."""
        if self.current is not None:
            task, self.current = self.current, None
            return task
        if self.assigned:
            return self.assigned.popleft()
        return None


class BatchScheduler:
    """Parallel execution strategy over a shared
    :class:`~repro.engine.supervisor.TaskLedger` (see module docstring:
    per-task supervision, batched transport)."""

    def __init__(self, ledger: TaskLedger, jobs: int = 1) -> None:
        self.ledger = ledger
        self.jobs = max(1, jobs)
        self.policy = ledger.policy
        self._mp = multiprocessing.get_context("fork")
        self.workers: list[_Worker] = []
        self.queue: deque = deque()      # ready tasks, FIFO
        self._next_ident = 0

    # -- lifecycle -----------------------------------------------------
    def run(self, pending: list[_Task]) -> None:
        ledger = self.ledger
        self.queue = deque(pending)
        target = min(self.jobs, max(1, len(pending)))
        if ledger.stats is not None and target > 1:
            ledger.stats.parallel = True
        with obs.span("scheduler.map", jobs=self.jobs,
                      items=len(pending), timeout=self.policy.timeout,
                      retries=self.policy.retries):
            try:
                self._loop(target)
            finally:
                self._shutdown()

    def _loop(self, target: int) -> None:
        ledger = self.ledger
        while ledger.failure is None and (
                self.queue or any(w.busy for w in self.workers)):
            self._dispatch(target)
            if not self.workers:
                continue  # the queue is empty and every worker is gone
            ready = multiprocessing.connection.wait(
                [w.results for w in self.workers]
                + [w.process.sentinel for w in self.workers],
                timeout=self._wait_timeout())
            self._service(set(ready))

    # -- dispatch ------------------------------------------------------
    def _start_worker(self) -> _Worker:
        ledger = self.ledger
        cmd_recv, cmd_send = self._mp.Pipe(duplex=False)
        res_recv, res_send = self._mp.Pipe(duplex=False)
        parent_ends = [cmd_send, res_recv]
        for sibling in self.workers:
            parent_ends += (sibling.commands, sibling.results)
        process = self._mp.Process(
            target=_worker_main,
            args=(ledger.worker, ledger.context, ledger.work,
                  ledger.plan, cmd_recv, res_send, parent_ends),
            daemon=True)
        process.start()
        cmd_recv.close()  # child ends live in the child
        res_send.close()
        worker = _Worker(ident=self._next_ident, process=process,
                         commands=cmd_send, results=res_recv)
        self._next_ident += 1
        self.workers.append(worker)
        obs.metric("scheduler.workers_started")
        return worker

    def _dispatch(self, target: int) -> None:
        """Feed every idle worker a batch while ready tasks remain."""
        while self.queue:
            worker = next((w for w in self.workers if w.idle), None)
            if worker is None:
                if len(self.workers) >= target:
                    return
                worker = self._start_worker()
            size = batch_size(len(self.queue), target)
            batch = [self.queue.popleft() for _ in range(size)]
            try:
                worker.commands.send(
                    [(t.index, t.attempts) for t in batch])
            except (BrokenPipeError, OSError):
                # Found dead at dispatch time: nothing of this batch
                # was in flight, so all of it goes back untouched.
                self.queue.extendleft(reversed(batch))
                self._worker_died(worker, drain=False)
                continue
            worker.assigned = deque(batch)
            worker.idle = False
            worker.batch_began = time.time()
            worker.batch_items = len(batch)
            _bump(self.ledger.stats, "scheduler_batches",
                  "scheduler.batches")
            _bump(self.ledger.stats, "scheduler_batch_items",
                  "scheduler.batch_items", len(batch))
            obs.observe("scheduler.batch_size", len(batch))

    # -- servicing -----------------------------------------------------
    def _service(self, ready: set) -> None:
        now = time.monotonic()
        for worker in list(self.workers):
            # Drain buffered messages first: a dead worker's pipe may
            # still hold completed results, and a readable sentinel
            # must not outrank them.
            try:
                while worker.results.poll():
                    self._handle(worker, worker.results.recv())
            except (EOFError, OSError):
                self._worker_died(worker)
                continue
            if not worker.process.is_alive():
                if worker.busy:
                    self._worker_died(worker)
                else:
                    self._discard(worker)
            elif worker.deadline is not None and now >= worker.deadline:
                self._expire(worker)

    def _handle(self, worker: _Worker, message: tuple) -> None:
        kind, index, payload, capture = message
        ledger = self.ledger
        if kind == "start":
            task = worker.assigned.popleft()
            assert task.index == index, "worker ran out of order"
            worker.current = task
            worker.started_at = time.monotonic()
            worker.deadline = (worker.started_at + self.policy.timeout
                               if self.policy.timeout is not None
                               else None)
        elif kind == "done":
            task = worker.current
            worker.current = None
            worker.deadline = None
            assert task is not None and task.index == index
            obs.observe("scheduler.task_seconds",
                        time.monotonic() - worker.started_at)
            obs.adopt_child(capture, f"item[{task.index}]",
                            attempt=task.attempts)
            status, value = payload
            if status == "ok":
                ledger.complete(task, value)
            elif status == "failed":
                ledger.record_failure(task, value)
            else:  # unpicklable result
                ledger.degrade(task, f"unpicklable-result ({value})")
        else:  # idle: batch finished, synthesize its span
            worker.idle = True
            run = obs.active()
            if run is not None and worker.batch_items:
                span = Span("scheduler.batch",
                            {"worker": worker.ident,
                             "items": worker.batch_items},
                            start=worker.batch_began,
                            duration=time.time() - worker.batch_began,
                            pid=worker.process.pid)
                run.tracer.adopt([span])
            worker.batch_items = 0

    # -- fault handling ------------------------------------------------
    def _retry(self, task: _Task, reason: str) -> None:
        """Charge *task* one attempt and put it straight back on the
        queue (or, past its retry budget, degrade it in-parent)."""
        if self.ledger.retry_or_degrade(task, reason):
            self.queue.append(task)

    def _requeue_survivors(self, worker: _Worker) -> None:
        """Return a dead/killed worker's unstarted tasks to the queue —
        front of the line, attempts untouched: they were never run."""
        if not worker.assigned:
            return
        count = len(worker.assigned)
        self.queue.extendleft(reversed(worker.assigned))
        worker.assigned = deque()
        _bump(self.ledger.stats, "scheduler_requeued",
              "scheduler.requeued", count)
        obs.event("batch-requeued", level="warning",
                  worker=worker.ident, items=count)

    def _worker_died(self, worker: _Worker, drain: bool = True) -> None:
        if drain:
            try:
                while worker.results.poll():
                    self._handle(worker, worker.results.recv())
            except (EOFError, OSError):
                pass
        self._discard(worker)
        casualty = worker.casualty()
        self._requeue_survivors(worker)
        if casualty is not None:
            self._retry(casualty, "worker-died")

    def _expire(self, worker: _Worker) -> None:
        """Per-task deadline passed: kill the worker, retry the task."""
        task = worker.current
        worker.current = None
        try:
            worker.process.kill()
        except Exception:
            pass
        self._discard(worker)
        assert task is not None  # deadlines are only armed by a start
        obs.event("task-timeout", level="warning", index=task.index,
                  key=task.key, attempt=task.attempts,
                  timeout_seconds=self.policy.timeout)
        _bump(self.ledger.stats, "supervisor_timeouts",
              "supervisor.timeouts")
        self._requeue_survivors(worker)
        self._retry(task, "timeout")

    def _discard(self, worker: _Worker) -> None:
        if worker in self.workers:
            self.workers.remove(worker)
        for conn in (worker.commands, worker.results):
            try:
                conn.close()
            except Exception:
                pass
        worker.process.join(timeout=5.0)

    def _shutdown(self) -> None:
        for worker in list(self.workers):
            if worker.busy:
                # Mid-batch at shutdown means the run is aborting (a
                # latched failure): no point waiting the batch out.
                try:
                    worker.process.kill()
                except Exception:
                    pass
            else:
                try:
                    worker.commands.send(None)
                except Exception:
                    pass
        deadline = time.monotonic() + 1.0
        for worker in list(self.workers):
            worker.process.join(
                timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                try:
                    worker.process.kill()
                except Exception:
                    pass
            self._discard(worker)

    # -- pacing --------------------------------------------------------
    def _wait_timeout(self) -> float:
        horizon = 0.5
        deadlines = [w.deadline for w in self.workers
                     if w.deadline is not None]
        if deadlines:
            horizon = min(horizon,
                          max(0.0, min(deadlines) - time.monotonic()))
        return max(horizon, 0.005)
