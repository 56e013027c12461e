"""A2 — ablation/baseline: cutoff-style sweeping vs. local reasoning.

Section 7 contrasts the approach with cutoff methods, which verify every
size up to a bound.  This benchmark runs both on Example 4.2 and on
Example 4.3:

* the sweep needs to *pick a bound*; for Example 4.3 a bound of 5 (its
  synthesis size) wrongly reports success, while the local analysis
  refutes generalizability instantly;
* for Example 4.2 the sweep only ever yields bounded evidence at
  exponential cost, while the local verdict covers all K.
"""

import time

from repro.checker.sweep import sweep_verify
from repro.core.convergence import verify_convergence
from repro.core.deadlock import DeadlockAnalyzer
from repro.engine import ResultCache
from repro.protocols import (
    generalizable_matching,
    nongeneralizable_matching,
)
from repro.viz import render_table


def run_comparison():
    rows = []
    # Example 4.3: a sweep up to 5 misses the K=4 failure? No: 4 < 5 is
    # inside the range — the interesting bound is a sweep over the
    # *design* sizes only, e.g. K = 5 alone, which is what fixed-K
    # synthesis validated.  Show both.
    bad = nongeneralizable_matching()
    design_only = sweep_verify(bad, up_to=5, start=5)
    assert design_only.all_self_stabilizing  # the fixed-K illusion
    wider = sweep_verify(bad, up_to=7, start=3)
    assert wider.failing_sizes == (4, 6, 7)
    local_bad = DeadlockAnalyzer(bad).analyze()
    assert not local_bad.deadlock_free
    rows.append(("matching-ex4.3", "K=5 only: ok (illusion)",
                 f"K=3..7: fails at {list(wider.failing_sizes)}",
                 "diverges (exact, all K)"))

    good = generalizable_matching()
    sweep_good = sweep_verify(good, up_to=7, start=3)
    assert sweep_good.all_self_stabilizing
    local_good = DeadlockAnalyzer(good).analyze()
    assert local_good.deadlock_free
    rows.append(("matching-ex4.2",
                 f"{sweep_good.total_states} states checked",
                 "evidence bounded at K<=7",
                 "deadlock-free (exact, all K)"))
    # The local analysis' own engine counters (trail searches run on the
    # bitmask localkernel) for the artifact's bottom line.
    local_report = verify_convergence(good)
    assert local_report.stats is not None
    local_line = ("local verification (matching-ex4.2): "
                  + local_report.stats.summary())
    return rows, local_line


def engine_comparison(tmp_dir):
    """Serial vs parallel vs cached timings of the same wide sweep."""
    protocol = generalizable_matching()

    def timed(**kwargs):
        began = time.perf_counter()
        result = sweep_verify(protocol, up_to=7, start=3, **kwargs)
        return result, time.perf_counter() - began

    naive, naive_s = timed(jobs=1, backend="naive")
    serial, serial_s = timed(jobs=1)
    assert naive.reports == serial.reports  # backends report identically
    parallel, parallel_s = timed(jobs=2)
    assert parallel.reports == serial.reports
    cache = ResultCache(tmp_dir)
    warm, _ = timed(cache=cache)
    cached, cached_s = timed(cache=cache)
    assert cached.reports == serial.reports
    assert cached.stats.cache_hits == len(serial.reports)
    assert warm.reports == serial.reports
    # The kernel counters ride the sweep stats into the artifact: the
    # livelock-free sweep encodes only the rotation orbits of the
    # states it reports.
    assert (serial.stats.states_encoded == serial.stats.states_explored
            < serial.total_states)
    rows = [("serial, naive backend", f"{naive_s * 1e3:.1f} ms"),
            ("serial (jobs=1)", f"{serial_s * 1e3:.1f} ms"),
            ("parallel (jobs=2)", f"{parallel_s * 1e3:.1f} ms"),
            ("cached re-run", f"{cached_s * 1e3:.1f} ms")]
    return rows, serial.stats.summary()


def test_a2_sweep_vs_local(benchmark, write_artifact, tmp_path):
    rows, local_line = benchmark.pedantic(run_comparison, rounds=1,
                                          iterations=1)
    engine_rows, kernel_line = engine_comparison(tmp_path / "cache")
    write_artifact(
        "a2_sweep_vs_local.txt",
        render_table(["protocol", "sweep (fixed-K view)",
                      "sweep (wider)", "local verdict"], rows)
        + "\n\nsweep engine modes (matching-ex4.2, K=3..7):\n"
        + render_table(["mode", "wall time"], engine_rows)
        + f"\n{kernel_line}"
        + f"\n{local_line}")
