"""Parallel, cached execution engine for independent analysis work items.

The paper's cost comparison (local reasoning vs. per-K model checking,
Section 7 / benchmark X2) is only honest when the per-K baseline runs as
fast as the hardware allows.  Per-K sweep instances, per-support
contiguous-trail searches and per-protocol fuzzing audits are all
embarrassingly parallel, and repeated CLI/benchmark invocations redo
identical work.  This package supplies the missing pieces:

* :func:`supervise_work_items` — the one dispatcher every fan-out goes
  through: deterministic result ordering, serial in-parent when nothing
  calls for worker processes, the batch scheduler otherwise
  (:func:`run_work_items` is its unsupervised spelling).  It also
  answers cached items, counts cache hits, misses and work items, and
  ends the result list where the caller's ``until`` says;
* :class:`ResultCache` — a content-addressed result cache keyed on a
  canonical protocol fingerprint plus analysis parameters, with an
  in-memory layer and an optional on-disk layer under ``.repro-cache/``;
  the dispatcher looks each work item up in it and writes each finished
  one through, which is what makes a killed run resumable (CLI
  ``--checkpoint`` / ``--resume`` turn on durable, fsynced writes);
* :class:`EngineStats` — lightweight instrumentation (per-stage wall
  time, states explored, cache hit/miss counters, kernel compile /
  encode-rate / quotient counters) threaded into the sweep / livelock /
  convergence / fuzzing reports and surfaced by the CLI's ``--jobs``
  and ``--cache`` flags;
* :mod:`repro.engine.kernel` — the compiled bit-packed state-space
  backend behind :class:`repro.checker.StateGraph`: per-protocol guard
  compilation, base-``|C|`` packed global states in flat arrays, and
  the ring-rotation symmetry quotient every kernel check decides on
  (the full space is built only to name a livelock; the naive
  interpreter is the API-only test oracle ``backend="naive"``);
* :mod:`repro.engine.localkernel` — the bitmask-compiled *local*
  reasoning kernel behind the contiguous-trail search, the Theorem 4.2
  check and the Section 6 synthesis loop: integer-indexed local
  states, per-``(K, |E|)`` product-graph skeletons, masked SCC passes
  and a support-fingerprint trail memo;
* :mod:`repro.engine.supervisor` — the fault-tolerance layer:
  :func:`supervise_work_items` runs every task under per-task timeouts,
  crash isolation, immediate retry and, past the retry budget, one
  in-parent rerun of the task's own worker (CLI ``--timeout`` /
  ``--retries``);
* :mod:`repro.engine.scheduler` — the parallel execution strategy
  under :func:`supervise_work_items`: persistent supervised workers
  fed batches sized from the queue alone (guided self-scheduling,
  heartbeat timeouts, requeue-on-crash) so micro-task sweeps do not
  pay one fork per task (CLI ``--jobs``).

Every kernel is built on the heap of the process that uses it: fork
workers inherit what the parent compiled, and spawn workers compile
their own.  :mod:`repro.engine.artifacts`, a standalone store of
mmap-attachable files that no engine path calls, is not exported.
"""

from repro import _lazy

__all__ = _lazy.exports(globals(), {
    "cache": (
        "DEFAULT_CACHE_DIR",
        "CacheStats",
        "ResultCache",
        "new_run_id",
        "runs_root",
    ),
    "fingerprint": ("analysis_key", "protocol_fingerprint"),
    "kernel": (
        "CompiledProtocol",
        "PackedSpace",
        "build_space",
        "compile_protocol",
        "supports_kernel",
    ),
    "pool": (
        "PortableContext",
        "WorkerFailure",
        "WorkerTraceback",
        "parallelism_available",
        "run_work_items",
    ),
    "stats": ("EngineStats",),
    "supervisor": (
        "FaultPlan",
        "SupervisorPolicy",
        "supervise_work_items",
    ),
    "scheduler": ("BatchScheduler",),
    "localkernel": ("LocalKernel", "local_kernel_for"),
})
