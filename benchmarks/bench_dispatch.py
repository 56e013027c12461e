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
  full variant's 500 items, 29 for CI's 200);
* the live telemetry plane costs at most 2% of wall clock — measured as
  the ratio of the best of five runs with a publisher active to the
  best of five runs without, interleaved (alternating which side goes
  first) so drift hits both sides (gated on the full configuration
  only).

It emits ``BENCH_dispatch.json`` (see ``write_bench_record``).

``REPRO_BENCH_DISPATCH_ITEMS`` sets N.  The default of 500 is the
``full`` variant that writes the committed record (and
``benchmarks/out/dispatch_overhead.txt``); any other N (CI uses 200) is
the ``ci`` variant and writes only ``benchmarks/out/BENCH_dispatch.json``,
so a CI-sized run never overwrites a committed result.
"""

import json
import os
import tempfile
import time

from repro.engine import EngineStats, SupervisorPolicy, \
    supervise_work_items
from repro.obs import live
from repro.protocols import generalizable_matching
from repro.serialization import global_report_to_dict

FULL_ITEMS = 500
ITEMS = int(os.environ.get("REPRO_BENCH_DISPATCH_ITEMS", str(FULL_ITEMS)))
FULL = ITEMS == FULL_ITEMS
JOBS = 4
#: Ring sizes the micro tasks cycle over — small enough that one check
#: costs well under a millisecond, so dispatch overhead dominates.
MICRO_SIZES = (3, 4)
#: Interleaved repetitions per side of the live-overhead comparison.
LIVE_ROUNDS = 5
#: Publishing live status snapshots must stay within 2% of the plain
#: run's wall clock (best of LIVE_ROUNDS each).  Only gated on the full
#: configuration — shorter CI runs are too noisy for a 2% bound.
MAX_LIVE_OVERHEAD = 1.02


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


def _run(jobs: int, live_dir=None):
    protocol = generalizable_matching()
    sizes = [MICRO_SIZES[i % len(MICRO_SIZES)] for i in range(ITEMS)]
    stats = EngineStats(jobs=jobs)
    live_run = None
    if live_dir is not None:
        live_run = live.LiveRun(live_dir, "bench-dispatch-live",
                                command="bench")
        live.activate(live_run)
    began = time.perf_counter()
    try:
        results = supervise_work_items(
            _micro_worker, sizes, jobs=jobs, context=protocol,
            stats=stats, policy=SupervisorPolicy(retries=2))
    finally:
        elapsed = time.perf_counter() - began
        if live_run is not None:
            live_run.finish()
            live.deactivate(live_run)
    return results, elapsed, stats, live_run


def collect():
    serial_results, serial_s, _serial_stats, _ = _run(1)
    plain, observed = [], []
    snapshots = 0
    with tempfile.TemporaryDirectory() as scratch:
        for round_ in range(LIVE_ROUNDS):
            # Alternate which side runs first, so neither always
            # inherits the other's warm caches.
            sides = [(plain, None), (observed, scratch)]
            for runs, live_dir in sides[::-1] if round_ % 2 else sides:
                runs.append(_run(JOBS, live_dir=live_dir))
            snapshots += observed[-1][3].snapshots
    return {"serial": (serial_results, serial_s), "plain": plain,
            "observed": observed, "live_snapshots": snapshots}


def test_dispatch_perf_smoke(benchmark, write_artifact, write_bench_record):
    outcome = benchmark.pedantic(collect, rounds=1, iterations=1)
    serial_results, serial_s = outcome["serial"]
    plain, observed = outcome["plain"], outcome["observed"]
    batch_s = min(run[1] for run in plain)
    live_s = min(run[1] for run in observed)
    live_overhead = live_s / batch_s
    stats = plain[0][2]

    # Byte-identical verdicts: every batch run, with and without a live
    # publisher, reproduces the serial in-parent reference.
    reference = _verdict_bytes(serial_results)
    for results, *_ in plain + observed:
        assert _verdict_bytes(results) == reference
    assert outcome["live_snapshots"] > 0, \
        "live plane never published a snapshot"
    # The batch scheduler actually ran, and batched by its rule alone:
    # the count does not depend on timing or on the live plane.
    for _results, _elapsed, run_stats, _ in plain + observed:
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
        "live_rounds": LIVE_ROUNDS,
        "batch_s_min": round(batch_s, 4),
        "live_s_min": round(live_s, 4),
        "live_overhead": round(live_overhead, 4),
        "max_live_overhead_gate": MAX_LIVE_OVERHEAD,
        "live_snapshots": outcome["live_snapshots"],
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
        f"(best of {LIVE_ROUNDS}; {payload['scheduler']['batches']} "
        f"batches, mean {payload['scheduler']['mean_batch_size']} "
        f"items)\n"
        f"  batch + live         {live_s * 1e3:9.1f} ms  "
        f"({(live_overhead - 1) * 100:+.1f}%, best of {LIVE_ROUNDS}, "
        f"{outcome['live_snapshots']} snapshots)")
    # Publishing costs under 2% of wall clock (full configuration only;
    # checked after the record is written, so a miss is still recorded).
    assert live_overhead <= MAX_LIVE_OVERHEAD, (
        f"live plane cost {(live_overhead - 1) * 100:.1f}% over the "
        f"plain batch run (best of {LIVE_ROUNDS} each; budget "
        f"{(MAX_LIVE_OVERHEAD - 1) * 100:.0f}%)")
