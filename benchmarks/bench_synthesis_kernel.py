"""Synthesis perf smoke: naive Digraph pipeline vs local-reasoning kernel.

Times the Section 6 candidate-evaluation sweep (every combination of
recovery transitions over the first Resolve set) on the bundled
reference protocols with both backends, asserts byte-identical verdicts
and byte-identical end-to-end ``synthesize()`` results, gates on the
kernel being at least ``REPRO_BENCH_SYNTH_MIN_SPEEDUP`` (default 5)
times faster in aggregate, and emits ``BENCH_synthesis.json`` (see
``write_bench_record``; the workload has no size knob, so every run is
the ``full`` variant) so regressions are diffable.

Each timing round constructs a fresh protocol object and synthesizer,
so the kernel backend pays its state-indexing and skeleton-compile cost
inside the measurement — the comparison is cold-vs-cold, not warm-cache
flattery.
"""

import os
import time

from repro.core.synthesis import Synthesizer
from repro.protocols import three_coloring, two_coloring
from repro.protocols.agreement import agreement
from repro.protocols.sum_not_two import sum_not_two
from repro.viz import render_table

ROUNDS = 3  # best-of-N to damp scheduler noise
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SYNTH_MIN_SPEEDUP", "5"))
PROTOCOLS = (agreement, sum_not_two, three_coloring, two_coloring)


def _timed_sweep(factory, backend):
    """Best-of-ROUNDS full candidate sweep, cold kernel each round."""
    best_s, verdicts, stats = None, None, None
    for _ in range(ROUNDS):
        synthesizer = Synthesizer(factory(), backend=backend)
        began = time.perf_counter()
        rows = synthesizer.evaluate_all_combinations()
        elapsed = time.perf_counter() - began
        if best_s is None or elapsed < best_s:
            best_s, verdicts = elapsed, rows
            stats = synthesizer.stats
    return verdicts, best_s, stats


def _comparable(result):
    """The backend-independent surface of a SynthesisResult."""
    return (
        result.outcome,
        result.resolve,
        result.chosen,
        tuple((r.transitions, r.reason) for r in result.rejected),
        result.resolve_sets_tried,
        None if result.protocol is None else result.protocol.name,
    )


def collect():
    rows = []
    for factory in PROTOCOLS:
        naive, naive_s, _ = _timed_sweep(factory, "naive")
        kernel, kernel_s, stats = _timed_sweep(factory, "kernel")
        assert kernel == naive, factory.__name__
        end_naive = Synthesizer(factory(), backend="naive").synthesize()
        end_kernel = Synthesizer(factory(), backend="kernel").synthesize()
        assert _comparable(end_kernel) == _comparable(end_naive), \
            factory.__name__
        rows.append({
            "protocol": factory().name,
            "outcome": end_kernel.outcome.value,
            "combinations": len(kernel),
            "naive_s": round(naive_s, 6),
            "kernel_s": round(kernel_s, 6),
            "speedup": round(naive_s / kernel_s, 2),
            "skeleton_compiles": stats.skeleton_compiles,
            "mask_evaluations": stats.mask_evaluations,
        })
    return rows


def test_synthesis_kernel_perf_smoke(benchmark, write_artifact,
                                     write_bench_record):
    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    # The gate: never slower per protocol (10% noise allowance on the
    # sub-millisecond workloads), >= MIN_SPEEDUP in aggregate.  The
    # aggregate is dominated by the trail-search-heavy workloads, which
    # is exactly where the kernel earns its keep.
    for row in rows:
        assert row["kernel_s"] <= row["naive_s"] * 1.10, row
    total_naive = sum(r["naive_s"] for r in rows)
    total_kernel = sum(r["kernel_s"] for r in rows)
    aggregate = total_naive / total_kernel
    assert aggregate >= MIN_SPEEDUP, (aggregate, rows)

    payload = {
        "protocols": [r["protocol"] for r in rows],
        "aggregate_speedup": round(aggregate, 2),
        "min_speedup_gate": MIN_SPEEDUP,
        "results": rows,
    }
    write_bench_record("synthesis", payload, full=True)
    write_artifact(
        "synthesis_backends.txt",
        render_table(
            ["protocol", "combos", "naive", "kernel", "speedup",
             "mask evals"],
            [(r["protocol"],
              r["combinations"],
              f"{r['naive_s'] * 1e3:.1f} ms",
              f"{r['kernel_s'] * 1e3:.1f} ms",
              f"{r['speedup']:.1f}x",
              r["mask_evaluations"]) for r in rows]))
