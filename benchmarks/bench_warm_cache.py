"""Warm-start smoke.

Runs the X2 matching sweep twice against one result-cache directory —
cold (every size checked and stored) and warm (every size answered from
the cache) — and gates on the warm speedup.  Emits
``BENCH_warm_cache.json`` (see ``write_bench_record``).

``REPRO_BENCH_MAX_K`` sizes the sweep (default 8); a run below the
default is the ``ci`` variant.
"""

import json
import os
import time

from repro.checker.sweep import sweep_verify
from repro.engine import ResultCache
from repro.protocols import generalizable_matching
from repro.serialization import global_report_to_dict

FULL_MAX_K = 8
MAX_K = int(os.environ.get("REPRO_BENCH_MAX_K", str(FULL_MAX_K)))
JOBS = 2
MIN_WARM_SPEEDUP = 3.0


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


def _timed_sweep(up_to, *, cache=None):
    """One sweep of the matching protocol."""
    began = time.perf_counter()
    result = sweep_verify(generalizable_matching(), up_to=up_to,
                          jobs=JOBS, cache=cache)
    return result, time.perf_counter() - began


def collect(tmp_path):
    reference, _ = _timed_sweep(MAX_K)  # no cache

    root = tmp_path / "warmcold"
    cold, cold_s = _timed_sweep(MAX_K, cache=ResultCache(root))
    warm, warm_s = _timed_sweep(MAX_K, cache=ResultCache(root))
    return {
        "reference": reference,
        "cold": (cold, cold_s),
        "warm": (warm, warm_s),
    }


def test_warm_cache_perf_smoke(benchmark, write_artifact,
                               write_bench_record, tmp_path):
    outcome = benchmark.pedantic(lambda: collect(tmp_path),
                                 rounds=1, iterations=1)
    cold, cold_s = outcome["cold"]
    warm, warm_s = outcome["warm"]
    warm_speedup = cold_s / warm_s

    # The cache may not change a verdict.
    baseline = _verdict_bytes(outcome["reference"])
    assert _verdict_bytes(cold) == baseline
    assert _verdict_bytes(warm) == baseline

    # The gate.
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm sweep only {warm_speedup:.2f}x faster than cold "
        f"(need {MIN_WARM_SPEEDUP}x)")

    payload = {
        "protocol": "matching-ex4.2",
        "jobs": JOBS,
        "max_k": MAX_K,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(warm_speedup, 2),
        "min_warm_speedup_gate": MIN_WARM_SPEEDUP,
    }
    full = MAX_K == FULL_MAX_K
    write_bench_record("warm_cache", payload, full=full)
    if not full:
        return  # the committed text is the full run's
    write_artifact(
        "warm_cache.txt",
        f"matching sweep to K={MAX_K} @ jobs={JOBS}\n"
        f"  cold (check+store)     {cold_s * 1e3:9.1f} ms\n"
        f"  warm (result cache)    {warm_s * 1e3:9.1f} ms  "
        f"({warm_speedup:.1f}x)")
