"""Kernel perf smoke: the whole global check on each state-space engine.

Times :func:`check_instance` — state-graph build plus every analysis
(closure, deadlocks, livelock SCCs and witnesses, distances) — on the
naive interpreter and on the compiled kernel, which decides on the
rotation quotient and reports the full space, for the paper's flagship
protocol (Example 4.2 maximal matching) across ring sizes.  Each
check's tracemalloc peak is recorded too, measured once the protocol
is compiled.  The smoke asserts both reports are equal and the kernel
check is never slower than the naive one (the CI perf-smoke gate), and
emits ``BENCH_kernel.json`` (see ``write_bench_record``) with the
per-K timings, orbit counts and peaks so regressions are diffable.

``REPRO_BENCH_MAX_K`` caps the largest ring size (CI uses 6 to stay
fast; any cap but the default is the ``ci`` variant); the ≥5× speedup
acceptance bound is only asserted on full runs (largest K ≥ 8), where
the gap is far from timing noise.
"""

import os
import time
import tracemalloc

from repro.checker import check_instance
from repro.protocols import generalizable_matching
from repro.viz import render_table

FULL_MAX_K = 8
MAX_K = int(os.environ.get("REPRO_BENCH_MAX_K", str(FULL_MAX_K)))
SIZES = tuple(range(4, MAX_K + 1))
ROUNDS = 2  # best-of-N to damp scheduler noise


def _timed_check(instance, **kwargs):
    """The check's report and its best wall time over ``ROUNDS``."""
    best = None
    for _ in range(ROUNDS):
        began = time.perf_counter()
        report = check_instance(instance, **kwargs)
        elapsed = time.perf_counter() - began
        best = elapsed if best is None else min(best, elapsed)
    return report, best


def _peak_kib(instance, **kwargs) -> float:
    """The check's tracemalloc peak, in KiB."""
    tracemalloc.start()
    try:
        check_instance(instance, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def collect():
    protocol = generalizable_matching()
    results = []
    for size in SIZES:
        instance = protocol.instantiate(size)
        naive, naive_s = _timed_check(instance, backend="naive")
        kernel, kernel_s = _timed_check(instance, backend="kernel")
        # The quotient-backed report equals the full naive one.
        assert kernel == naive
        results.append({
            "K": size,
            "states": naive.state_count,
            "naive_s": round(naive_s, 6),
            "kernel_s": round(kernel_s, 6),
            "speedup": round(naive_s / kernel_s, 2),
            "orbits": kernel.stats.states_encoded,
            "orbit_ratio": round(kernel.stats.quotient_ratio, 2),
            "naive_peak_kib": round(_peak_kib(instance, backend="naive")),
            "kernel_peak_kib": round(_peak_kib(instance, backend="kernel")),
        })
    return results


def test_kernel_perf_smoke(benchmark, write_artifact, write_bench_record):
    results = benchmark.pedantic(collect, rounds=1, iterations=1)
    largest = results[-1]

    # The gate: the compiled backend's check must beat the
    # interpreter's at the largest measured K (states dominate; compile
    # time is amortized).
    assert largest["kernel_s"] < largest["naive_s"], largest
    # Acceptance bound on full runs, where the margin is wide.
    if largest["K"] >= 8:
        assert largest["speedup"] >= 5.0, largest
    # The kernel encodes ~K-fold fewer states than it reports.
    assert largest["orbit_ratio"] > largest["K"] / 2

    payload = {
        "protocol": "matching-ex4.2",
        "measured": "check_instance: state graph plus every analysis "
                    "(kernel: on the rotation quotient)",
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
            ["K", "states", "orbits", "naive", "kernel", "speedup",
             "naive peak", "kernel peak"],
            [(r["K"], r["states"], r["orbits"],
              f"{r['naive_s'] * 1e3:.1f} ms",
              f"{r['kernel_s'] * 1e3:.1f} ms",
              f"{r['speedup']:.1f}x",
              f"{r['naive_peak_kib']} KiB",
              f"{r['kernel_peak_kib']} KiB") for r in results]))
