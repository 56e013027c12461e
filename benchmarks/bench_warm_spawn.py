"""Warm-start and spawn-dispatch smoke.

Runs the X2 matching sweep twice against one result-cache directory —
cold (every size checked and stored) and warm (every size answered from
the cache) — and gates on the warm speedup; then runs a batch sweep
under both ``fork`` and ``spawn`` start methods and gates the spawn
dispatch overhead.  Spawned workers rebuild the sweep's context from
its portable recipe and compile their own kernel; fork workers inherit
the one the parent compiled.  Emits ``BENCH_warm_spawn.json`` (see
``write_bench_record``).

``REPRO_BENCH_MAX_K`` sizes the warm/cold sweep (default 8).
``REPRO_BENCH_PARITY_K`` sizes the spawn-parity sweep (default 10 — at
that size per-K compute should dominate and the ≤1.5× acceptance bound
applies; smaller CI runs gate at ≤4× because interpreter start-up is
then a fixed cost the sweep cannot amortize).  A run with either size
below its default is the ``ci`` variant.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.checker.sweep import sweep_verify
from repro.engine import ResultCache
from repro.engine.pool import START_METHOD_ENV
from repro.protocols import generalizable_matching
from repro.serialization import global_report_to_dict

FULL_MAX_K, FULL_PARITY_K = 8, 10
MAX_K = int(os.environ.get("REPRO_BENCH_MAX_K", str(FULL_MAX_K)))
PARITY_K = int(os.environ.get("REPRO_BENCH_PARITY_K", str(FULL_PARITY_K)))
JOBS = 2
MIN_WARM_SPEEDUP = 3.0
#: ≤1.5× is the acceptance bound when compute dominates (K ≥ 10); a
#: shrunken CI parity sweep pays the same absolute interpreter start-up
#: against far less work, so it gates at ≤4×.
MAX_SPAWN_RATIO = 1.5 if PARITY_K >= 10 else 4.0


def _verdict_bytes(result) -> bytes:
    """The cache-invariant content of a sweep, serialized.

    Run-local ``stats`` are timing-dependent by design and excluded;
    every verdict the analysis produced must match byte for byte.
    """
    rows = []
    for report in result.reports:
        row = global_report_to_dict(report)
        row.pop("stats", None)
        rows.append(row)
    return json.dumps(rows, sort_keys=True).encode("ascii")


def _timed_sweep(up_to, *, cache=None, method=None):
    """One sweep of the matching protocol under *method*."""
    previous = os.environ.get(START_METHOD_ENV)
    if method is not None:
        os.environ[START_METHOD_ENV] = method
    try:
        began = time.perf_counter()
        result = sweep_verify(generalizable_matching(), up_to=up_to,
                              jobs=JOBS, cache=cache)
        elapsed = time.perf_counter() - began
    finally:
        if method is not None:
            if previous is None:
                os.environ.pop(START_METHOD_ENV, None)
            else:
                os.environ[START_METHOD_ENV] = previous
    return result, elapsed


def collect(tmp_path):
    reference, _ = _timed_sweep(MAX_K)  # no cache

    root = tmp_path / "warmcold"
    cold, cold_s = _timed_sweep(MAX_K, cache=ResultCache(root))
    warm, warm_s = _timed_sweep(MAX_K, cache=ResultCache(root))

    fork, fork_s = _timed_sweep(PARITY_K, method="fork")
    spawn, spawn_s = _timed_sweep(PARITY_K, method="spawn")
    return {
        "reference": reference,
        "cold": (cold, cold_s),
        "warm": (warm, warm_s),
        "fork": (fork, fork_s),
        "spawn": (spawn, spawn_s),
    }


@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="spawn start method unavailable")
def test_warm_spawn_perf_smoke(benchmark, write_artifact,
                               write_bench_record, tmp_path):
    outcome = benchmark.pedantic(lambda: collect(tmp_path),
                                 rounds=1, iterations=1)
    cold, cold_s = outcome["cold"]
    warm, warm_s = outcome["warm"]
    fork, fork_s = outcome["fork"]
    spawn, spawn_s = outcome["spawn"]
    warm_speedup = cold_s / warm_s
    spawn_ratio = spawn_s / fork_s

    # Neither the cache nor the start method may change a verdict.
    baseline = _verdict_bytes(outcome["reference"])
    assert _verdict_bytes(cold) == baseline
    assert _verdict_bytes(warm) == baseline
    assert _verdict_bytes(spawn) == _verdict_bytes(fork)
    assert spawn.stats.parallel and spawn.stats.pool_fallbacks == 0

    # The gates.
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm sweep only {warm_speedup:.2f}x faster than cold "
        f"(need {MIN_WARM_SPEEDUP}x)")
    assert spawn_ratio <= MAX_SPAWN_RATIO, (
        f"spawn batch dispatch {spawn_ratio:.2f}x of fork "
        f"(allowed {MAX_SPAWN_RATIO}x)")

    payload = {
        "protocol": "matching-ex4.2",
        "jobs": JOBS,
        "max_k": MAX_K,
        "parity_k": PARITY_K,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(warm_speedup, 2),
        "min_warm_speedup_gate": MIN_WARM_SPEEDUP,
        "fork_s": round(fork_s, 4),
        "spawn_s": round(spawn_s, 4),
        "spawn_ratio": round(spawn_ratio, 2),
        "max_spawn_ratio_gate": MAX_SPAWN_RATIO,
    }
    full = (MAX_K, PARITY_K) == (FULL_MAX_K, FULL_PARITY_K)
    write_bench_record("warm_spawn", payload, full=full)
    if not full:
        return  # the committed text is the full run's
    write_artifact(
        "warm_spawn.txt",
        f"matching sweep to K={MAX_K} @ jobs={JOBS}\n"
        f"  cold (check+store)     {cold_s * 1e3:9.1f} ms\n"
        f"  warm (result cache)    {warm_s * 1e3:9.1f} ms  "
        f"({warm_speedup:.1f}x)\n"
        f"batch sweep to K={PARITY_K}\n"
        f"  fork  {fork_s * 1e3:9.1f} ms\n"
        f"  spawn {spawn_s * 1e3:9.1f} ms  "
        f"({spawn_ratio:.2f}x of fork)")
