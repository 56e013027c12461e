"""A1 — ablation: the bounded per-support trail scan against the K-free
certificate, at each bound ``max_ring_size``.

The bounded scan searches the round patterns ``(K, |E|)`` of every
pseudo-livelock support up to the bound, so a certificate it issues says
nothing about larger rings, and it must enumerate the supports first
(capped at 4,096).  The K-free certificate — one SCC refinement over the
three-phase product of the whole transition set — covers every K, and
the bound only names a witness's ``(K, |E|)``.  This ablation measures,
at each bound, (a) both verdicts, asserting that the certificate's does
not depend on the bound and that certified under the certificate implies
certified under the bounded scan, and (b) both costs.
"""

import time

from repro.core.livelock import LivelockCertifier
from repro.core.pseudolivelock import (
    SupportExplosion,
    pseudo_livelock_supports,
)
from repro.engine.localkernel import local_kernel_for
from repro.protocols import (
    generalizable_matching,
    gouda_acharya_matching,
    livelock_agreement,
    stabilizing_agreement,
    stabilizing_sum_not_two,
)
from repro.viz import render_table

BOUNDS = (3, 5, 7, 9, 11)
CASES = (
    (stabilizing_agreement, "certified"),
    (stabilizing_sum_not_two, "certified"),
    (livelock_agreement, "unknown"),
    # 441 supports on a bidirectional ring (contiguous livelocks only).
    (gouda_acharya_matching, "unknown"),
    # More supports than the bounded scan enumerates.
    (generalizable_matching, "unknown"),
)


def bounded_scan(protocol, bound: int) -> str:
    """The verdict of every support's round patterns up to *bound*."""
    kernel = local_kernel_for(protocol)
    try:
        supports = pseudo_livelock_supports(protocol.space.transitions)
    except SupportExplosion:
        return "cap"
    if any(kernel.find_trail(support, bound) is not None
           for support in supports):
        return "unknown"
    return "certified"


def k_free(protocol, bound: int) -> str:
    report = LivelockCertifier(protocol, max_ring_size=bound,
                               require_self_disabling=False).analyze()
    return "certified" if report.trail_witnesses == () else "unknown"


def run_ablation():
    rows = []
    for factory, expected in CASES:
        cells = []
        for bound in BOUNDS:
            bounded = bounded_scan(factory(), bound)
            certificate = k_free(factory(), bound)
            assert certificate == expected, (factory.__name__, bound)
            if certificate == "certified":
                assert bounded == "certified", (factory.__name__, bound)
            cells.append(f"{bounded} / {certificate}")
        rows.append((factory().name, *cells))
    return rows


def test_a1_trail_bound_ablation(benchmark, write_artifact):
    rows = benchmark(run_ablation)
    write_artifact(
        "a1_trail_bound_ablation.txt",
        "bounded per-support scan / K-free certificate "
        "(cap: more than 4096 supports)\n\n"
        + render_table(["protocol"] + [f"bound={b}" for b in BOUNDS],
                       rows))


def _best_ms(call, factory, bound: int, repeats: int = 5) -> float:
    """Best of *repeats* fresh runs (a fresh protocol object each, so
    no kernel memo carries over), in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        protocol = factory()
        start = time.perf_counter()
        call(protocol, bound)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def test_a1_cost_by_bound(benchmark, write_artifact):
    benchmark(k_free, stabilizing_sum_not_two(), 9)

    rows = []
    for factory in (stabilizing_sum_not_two, gouda_acharya_matching,
                    generalizable_matching):
        for bound in BOUNDS:
            rows.append((factory().name, bound,
                         f"{_best_ms(bounded_scan, factory, bound):.1f}",
                         f"{_best_ms(k_free, factory, bound):.1f}"))
    write_artifact(
        "a1_trail_bound_cost.txt",
        render_table(["protocol", "max_ring_size", "bounded scan (ms)",
                      "K-free certificate (ms)"], rows))
