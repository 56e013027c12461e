"""X2 — the paper's efficiency claim: local reasoning is K-independent.

The motivation for the whole approach (§1, §6, §7): verifying
convergence by model checking must be repeated per ring size and its
cost grows exponentially with K, while the local analyses run once on
the representative process's state space, whose size does not depend on
K at all.

The benchmark times the full local analysis of Example 4.2 (what
pytest-benchmark reports) and records a sweep of global model-checking
times for K = 4..8 in the artifact; the assertions pin the shape —
global cost grows by more than the domain factor per added process,
local cost is constant by construction.
"""

import os
import time

from repro.checker import check_instance
from repro.checker.sweep import sweep_verify
from repro.core.deadlock import DeadlockAnalyzer
from repro.core.livelock import LivelockCertifier
from repro.engine import ResultCache
from repro.engine.kernel import compile_protocol
from repro.protocols import generalizable_matching
from repro.viz import render_table

# CI's perf-smoke job caps the sweep at a small K to stay fast; the
# tracked text tables are the full run's, so a capped run leaves them.
FULL_MAX_K = 8
MAX_K = int(os.environ.get("REPRO_BENCH_MAX_K", str(FULL_MAX_K)))
SIZES = tuple(range(4, MAX_K + 1))
FULL = MAX_K == FULL_MAX_K


def local_analysis():
    protocol = generalizable_matching()
    deadlock = DeadlockAnalyzer(protocol).analyze()
    livelock = LivelockCertifier(protocol).analyze()
    return deadlock, livelock


def test_x2_local_reasoning_vs_global_checking(benchmark,
                                               write_artifact):
    deadlock, _livelock = benchmark(local_analysis)
    assert deadlock.deadlock_free

    protocol = generalizable_matching()
    # The kernel compiles once per protocol, not per K: compiled in
    # the first size's check it would hide the growth with K.
    compile_protocol(protocol)
    rows = []
    times = {}
    naive_times = {}
    kernel_stats = None
    for size in SIZES:
        instance = protocol.instantiate(size)
        # Best of 3: at small K the kernel check takes well under a
        # millisecond, where one scheduler hiccup swamps the growth.
        elapsed = None
        for _ in range(3):
            start = time.perf_counter()
            report = check_instance(instance)  # auto = compiled kernel
            spent = time.perf_counter() - start
            elapsed = spent if elapsed is None else min(elapsed, spent)
        start = time.perf_counter()
        naive_report = check_instance(instance, backend="naive")
        naive_elapsed = time.perf_counter() - start
        assert naive_report == report  # verdict-identical backends
        times[size] = elapsed
        naive_times[size] = naive_elapsed
        kernel_stats = report.stats
        assert report.self_stabilizing
        rows.append((size, report.state_count,
                     f"{naive_elapsed * 1e3:.1f} ms",
                     f"{elapsed * 1e3:.1f} ms",
                     f"{naive_elapsed / elapsed:.1f}x"))

    first, last = SIZES[0], SIZES[-1]
    # Shape: the global cost explodes with K (3^K states), on either
    # backend; the factor scales with the swept span.
    required = 10 if last - first >= 4 else 3
    assert times[last] > required * times[first]
    assert naive_times[last] > required * naive_times[first]
    # The compiled kernel must not lose to the interpreter (CI gate).
    assert times[last] < naive_times[last]
    # ...while the local analysis touched only 27 local states, once.
    start = time.perf_counter()
    local_analysis()
    local_elapsed = time.perf_counter() - start
    assert local_elapsed < naive_times[last]

    if not FULL:
        return
    write_artifact(
        "x2_scalability.txt",
        f"local analysis (all K at once): {local_elapsed * 1e3:.1f} ms\n"
        f"kernel at K={last}: {kernel_stats.summary()}\n\n"
        + render_table(["K", "global states", "naive checking",
                        "kernel checking", "speedup"],
                       rows))


def test_x2_sweep_engine_modes(benchmark, write_artifact, tmp_path):
    """The per-K baseline at hardware speed: serial vs parallel vs
    cached sweeps over the same range, identical verdicts throughout."""
    protocol = generalizable_matching()
    first, last = SIZES[0], SIZES[-1]

    def timed(**kwargs):
        began = time.perf_counter()
        result = sweep_verify(protocol, up_to=last, start=first, **kwargs)
        return result, time.perf_counter() - began

    serial, serial_s = benchmark.pedantic(
        lambda: timed(jobs=1), rounds=1, iterations=1)
    naive, naive_s = timed(jobs=1, backend="naive")
    assert naive.reports == serial.reports  # backends report identically
    parallel, parallel_s = timed(jobs=2)
    assert parallel.reports == serial.reports

    cache = ResultCache(tmp_path / "cache")
    warm, warm_s = timed(cache=cache)
    assert warm.reports == serial.reports
    cached, cached_s = timed(cache=cache)
    assert cached.reports == serial.reports
    assert cached.stats.cache_hits == len(serial.reports)
    assert cached_s < serial_s  # the whole point of the cache

    if not FULL:
        return
    write_artifact(
        "x2_sweep_engine_modes.txt",
        f"sweep K={first}..{last} of matching-ex4.2, "
        f"{serial.total_states} global states:\n"
        + render_table(
            ["mode", "wall time", "cache hits"],
            [("serial, naive backend", f"{naive_s * 1e3:.1f} ms",
              0),
             ("serial (jobs=1)", f"{serial_s * 1e3:.1f} ms",
              0),
             ("parallel (jobs=2)", f"{parallel_s * 1e3:.1f} ms",
              0),
             ("cold cached run", f"{warm_s * 1e3:.1f} ms",
              warm.stats.cache_hits),
             ("warm cached run", f"{cached_s * 1e3:.1f} ms",
              cached.stats.cache_hits)]))
