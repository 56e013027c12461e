"""Synthesis search perf smoke: flat combo enumeration vs lattice walk.

Times the Section 6 candidate sweep on enlarged coloring candidate
pools (the n-coloring pool grows as ``(n-1)^n`` combinations) with both
searches (``Synthesizer(search="flat"|"lattice")``; the flat one is the
serial test oracle) over the same compiled localkernel backend, asserts
byte-identical verdict tables, gates on the lattice walk being at least
``REPRO_BENCH_SYNTHSEARCH_MIN_SPEEDUP`` (default 5) times faster in
aggregate, and emits ``BENCH_synthsearch.json`` (see
``write_bench_record``) so regressions are diffable.

Each timing round constructs a fresh protocol object and synthesizer,
so both modes pay state indexing, skeleton compilation and support
closure from scratch inside the measurement — the comparison is
cold-vs-cold, and the flat side keeps the same per-synthesizer trail
memo it always had.

``REPRO_BENCH_SYNTHSEARCH_SMALL=1`` drops the largest pool (CI smoke
uses this with a relaxed 3x gate; the full workload keeps the 5x gate)
and makes the run the ``ci`` variant, recorded under
``benchmarks/out/``.
"""

import os
import time

from repro.core.synthesis import Synthesizer
from repro.protocols.coloring import coloring
from repro.viz import render_table

ROUNDS = 3  # best-of-N to damp scheduler noise
MIN_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_SYNTHSEARCH_MIN_SPEEDUP", "5"))
SMALL = os.environ.get("REPRO_BENCH_SYNTHSEARCH_SMALL") == "1"
COLORS = (4, 5) if SMALL else (4, 5, 6)


def _timed_sweep(colors, search):
    """Best-of-ROUNDS full candidate sweep, cold synthesizer each round."""
    best_s, verdicts, stats = None, None, None
    for _ in range(ROUNDS):
        synthesizer = Synthesizer(coloring(colors), search=search)
        began = time.perf_counter()
        rows = synthesizer.evaluate_all_combinations()
        elapsed = time.perf_counter() - began
        if best_s is None or elapsed < best_s:
            best_s, verdicts = elapsed, rows
            stats = synthesizer.stats
    return verdicts, best_s, stats


def _comparable(result):
    """The search-independent surface of a SynthesisResult."""
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
    for colors in COLORS:
        flat, flat_s, _ = _timed_sweep(colors, "flat")
        lattice, lattice_s, stats = _timed_sweep(colors, "lattice")
        assert lattice == flat, f"{colors}-coloring sweep diverged"
        end_flat = Synthesizer(coloring(colors), search="flat").synthesize()
        end_lattice = Synthesizer(coloring(colors),
                                  search="lattice").synthesize()
        assert _comparable(end_lattice) == _comparable(end_flat), \
            f"{colors}-coloring synthesize() diverged"
        rows.append({
            "protocol": f"{colors}-coloring",
            "combinations": len(lattice),
            "flat_s": round(flat_s, 6),
            "lattice_s": round(lattice_s, 6),
            "speedup": round(flat_s / lattice_s, 2),
            "combos_pruned": stats.combos_pruned,
            "full_evaluations": stats.full_evaluations,
            "delta_reuses": stats.delta_reuses,
            "checkpoint_bytes": stats.checkpoint_bytes,
        })
    return rows


def test_synthsearch_perf_smoke(benchmark, write_artifact,
                                write_bench_record):
    rows = benchmark.pedantic(collect, rounds=1, iterations=1)

    # The gate: never slower per pool (10% noise allowance on the
    # small ones), >= MIN_SPEEDUP in aggregate.  The aggregate is
    # dominated by the largest pool, which is exactly where the
    # monotone pruning and witness inheritance earn their keep.
    for row in rows:
        assert row["lattice_s"] <= row["flat_s"] * 1.10, row
        assert (row["combos_pruned"] + row["full_evaluations"]
                == row["combinations"]), row
    total_flat = sum(r["flat_s"] for r in rows)
    total_lattice = sum(r["lattice_s"] for r in rows)
    aggregate = total_flat / total_lattice
    assert aggregate >= MIN_SPEEDUP, (aggregate, rows)

    payload = {
        "protocols": [r["protocol"] for r in rows],
        "aggregate_speedup": round(aggregate, 2),
        "min_speedup_gate": MIN_SPEEDUP,
        "results": rows,
    }
    write_bench_record("synthsearch", payload, full=not SMALL)
    if SMALL:
        return  # the committed table is the full run's
    write_artifact(
        "synthsearch_modes.txt",
        render_table(
            ["pool", "combos", "flat", "lattice", "speedup", "pruned",
             "evaluated", "delta reuses"],
            [(r["protocol"],
              r["combinations"],
              f"{r['flat_s'] * 1e3:.1f} ms",
              f"{r['lattice_s'] * 1e3:.1f} ms",
              f"{r['speedup']:.1f}x",
              r["combos_pruned"],
              r["full_evaluations"],
              r["delta_reuses"]) for r in rows]))
