"""Kernel perf smoke: naive vs compiled vs rotation quotient.

Times the three state-space engines on the paper's flagship protocol
(Example 4.2 maximal matching) across ring sizes, asserts the compiled
kernel is never slower than the naive interpreter (the CI perf-smoke
gate), and emits ``BENCH_kernel.json`` (see ``write_bench_record``)
with the per-K timings so regressions are diffable.

``REPRO_BENCH_MAX_K`` caps the largest ring size (CI uses 6 to stay
fast; any cap but the default is the ``ci`` variant); the ≥5× speedup
acceptance bound is only asserted on full runs (largest K ≥ 8), where
the gap is far from timing noise.
"""

import os
import time

from repro.checker import check_instance
from repro.checker.statespace import StateGraph
from repro.protocols import generalizable_matching
from repro.viz import render_table

FULL_MAX_K = 8
MAX_K = int(os.environ.get("REPRO_BENCH_MAX_K", str(FULL_MAX_K)))
SIZES = tuple(range(4, MAX_K + 1))
ROUNDS = 2  # best-of-N to damp scheduler noise


def _timed_build(instance, **kwargs) -> tuple[StateGraph, float]:
    """Build a graph and materialize every surface an analysis touches."""
    best = None
    for _ in range(ROUNDS):
        began = time.perf_counter()
        graph = StateGraph(instance, **kwargs)
        graph.successors
        graph.in_invariant
        elapsed = time.perf_counter() - began
        best = elapsed if best is None else min(best, elapsed)
    return graph, best


def collect():
    protocol = generalizable_matching()
    results = []
    for size in SIZES:
        instance = protocol.instantiate(size)
        naive, naive_s = _timed_build(instance, backend="naive")
        kernel, kernel_s = _timed_build(instance, backend="kernel")
        quotient, quotient_s = _timed_build(
            instance, backend="kernel", symmetry=True)
        assert kernel.successors == naive.successors
        assert kernel.in_invariant == naive.in_invariant
        results.append({
            "K": size,
            "states": len(naive),
            "naive_s": round(naive_s, 6),
            "kernel_s": round(kernel_s, 6),
            "speedup": round(naive_s / kernel_s, 2),
            "quotient_s": round(quotient_s, 6),
            "quotient_states": len(quotient),
            "quotient_ratio": round(len(kernel) / len(quotient), 2),
        })
    return results


def test_kernel_perf_smoke(benchmark, write_artifact, write_bench_record):
    results = benchmark.pedantic(collect, rounds=1, iterations=1)
    largest = results[-1]

    # The gate: the compiled backend must beat the interpreter at the
    # largest measured K (states dominate; compile time is amortized).
    assert largest["kernel_s"] < largest["naive_s"], largest
    # Acceptance bound on full runs, where the margin is enormous
    # (measured ~40x at K=8 on the development machine).
    if largest["K"] >= 8:
        assert largest["speedup"] >= 5.0, largest
    # The quotient keeps ~K-fold fewer states.
    assert largest["quotient_ratio"] > largest["K"] / 2

    # Identical verdicts at the largest K, all three engines.
    instance = generalizable_matching().instantiate(largest["K"])
    naive_report = check_instance(instance, backend="naive")
    kernel_report = check_instance(instance, backend="kernel")
    quotient_report = check_instance(instance, symmetry=True)
    assert kernel_report == naive_report
    assert quotient_report.self_stabilizing == naive_report.self_stabilizing
    assert (quotient_report.worst_case_recovery_steps
            == naive_report.worst_case_recovery_steps)

    payload = {
        "protocol": "matching-ex4.2",
        "sizes": list(SIZES),
        "largest_k_speedup": largest["speedup"],
        "results": results,
    }
    full = MAX_K == FULL_MAX_K
    write_bench_record("kernel", payload, full=full)
    if not full:
        return  # the committed table is the full run's
    write_artifact(
        "kernel_backends.txt",
        render_table(
            ["K", "states", "naive", "kernel", "speedup",
             "quotient", "orbit states"],
            [(r["K"], r["states"],
              f"{r['naive_s'] * 1e3:.1f} ms",
              f"{r['kernel_s'] * 1e3:.1f} ms",
              f"{r['speedup']:.1f}x",
              f"{r['quotient_s'] * 1e3:.1f} ms",
              r["quotient_states"]) for r in results]))
