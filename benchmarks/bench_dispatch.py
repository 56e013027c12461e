"""Dispatch smoke: the batch scheduler against the serial reference.

The compiled kernels made per-task cost tiny (sub-millisecond model
checks at small K), so dispatch overhead decides whether ``--jobs``
helps at all on micro-task sweeps.  This benchmark runs one supervised
sweep of N micro model-checking tasks through the engine's one dispatch
path at ``jobs=4`` (persistent workers, guided batches) and the same
items serially in-parent (``jobs=1``), and checks that

* the verdicts are byte-identical to the serial reference;
* batching followed its rule: every item went through a batch, and the
  batch count is the closed form of guided self-scheduling (36 for the
  full variant's 500 items, 29 for CI's 200), in each of five batch
  runs, whose best wall clock is recorded.

It emits ``BENCH_dispatch.json`` (see ``write_bench_record``).

``REPRO_BENCH_DISPATCH_ITEMS`` sets N.  The default of 500 is the
``full`` variant that writes the committed record (and
``benchmarks/out/dispatch_overhead.txt``); any other N (CI uses 200) is
the ``ci`` variant and writes only ``benchmarks/out/BENCH_dispatch.json``,
so a CI-sized run never overwrites a committed result.
"""

import json
import os
import time

from repro.engine import EngineStats, SupervisorPolicy, \
    supervise_work_items
from repro.protocols import generalizable_matching
from repro.serialization import global_report_to_dict

FULL_ITEMS = 500
ITEMS = int(os.environ.get("REPRO_BENCH_DISPATCH_ITEMS", str(FULL_ITEMS)))
FULL = ITEMS == FULL_ITEMS
JOBS = 4
#: Ring sizes the micro tasks cycle over — small enough that one check
#: costs well under a millisecond, so dispatch overhead dominates.
MICRO_SIZES = (3, 4)
#: Batch runs; the best wall clock is recorded.
ROUNDS = 5


def _guided_batches(items: int, workers: int) -> int:
    """Batches a fault-free dispatch of *items* over *workers* makes:
    each takes ``ceil(remaining / (2 * workers))`` of the queue."""
    batches = 0
    while items:
        items -= -(-items // (2 * workers))
        batches += 1
    return batches


def _micro_worker(context, size: int):
    from repro.checker import check_instance

    protocol = context
    return check_instance(protocol.instantiate(size), backend="kernel")


def _verdict_bytes(reports) -> bytes:
    """The dispatch-invariant content of a result list, serialized.

    Run-local ``stats`` are timing-dependent by design and excluded;
    everything the analysis concluded must match byte for byte.
    """
    rows = []
    for report in reports:
        row = global_report_to_dict(report)
        row.pop("stats", None)
        rows.append(row)
    return json.dumps(rows, sort_keys=True).encode("ascii")


def _run(jobs: int):
    protocol = generalizable_matching()
    sizes = [MICRO_SIZES[i % len(MICRO_SIZES)] for i in range(ITEMS)]
    stats = EngineStats(jobs=jobs)
    began = time.perf_counter()
    results = supervise_work_items(
        _micro_worker, sizes, jobs=jobs, context=protocol,
        stats=stats, policy=SupervisorPolicy(retries=2))
    return results, time.perf_counter() - began, stats


def collect():
    serial_results, serial_s, _serial_stats = _run(1)
    return {"serial": (serial_results, serial_s),
            "batch": [_run(JOBS) for _ in range(ROUNDS)]}


def test_dispatch_perf_smoke(benchmark, write_artifact, write_bench_record):
    outcome = benchmark.pedantic(collect, rounds=1, iterations=1)
    serial_results, serial_s = outcome["serial"]
    runs = outcome["batch"]
    batch_s = min(run[1] for run in runs)
    stats = runs[0][2]

    # Byte-identical verdicts: every batch run reproduces the serial
    # in-parent reference.
    reference = _verdict_bytes(serial_results)
    for results, *_ in runs:
        assert _verdict_bytes(results) == reference
    # The batch scheduler actually ran, and batched by its rule alone:
    # the count does not depend on timing.
    for _results, _elapsed, run_stats in runs:
        assert run_stats.parallel
        assert run_stats.pool_fallbacks == 0
        assert run_stats.scheduler_batch_items == ITEMS
        assert run_stats.scheduler_batches == _guided_batches(ITEMS, JOBS)

    payload = {
        "protocol": "matching-ex4.2",
        "items": ITEMS,
        "jobs": JOBS,
        "micro_sizes": list(MICRO_SIZES),
        "serial_s": round(serial_s, 4),
        "rounds": ROUNDS,
        "batch_s_min": round(batch_s, 4),
        "scheduler": {
            "batches": stats.scheduler_batches,
            "batch_items": stats.scheduler_batch_items,
            "mean_batch_size": round(
                stats.scheduler_batch_items
                / max(1, stats.scheduler_batches), 2),
            "requeued": stats.scheduler_requeued,
        },
    }
    write_bench_record("dispatch", payload, full=FULL)
    if not FULL:
        return
    write_artifact(
        "dispatch_overhead.txt",
        f"{ITEMS} micro tasks, {os.cpu_count()} CPUs\n"
        f"  serial (jobs=1)      {serial_s * 1e3:9.1f} ms\n"
        f"  batch (jobs={JOBS})       {batch_s * 1e3:9.1f} ms  "
        f"(best of {ROUNDS}; {payload['scheduler']['batches']} "
        f"batches, mean {payload['scheduler']['mean_batch_size']} "
        f"items)")
