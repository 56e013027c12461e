"""Three verification routes, one truth.

Seeded random small protocols are cross-validated three ways —

1. the **local certifier** (Theorem 4.2 deadlock prediction plus the
   Theorem 5.14 livelock certificate),
2. the naive **serial per-K sweep** (the matrix's reference), and
3. the **parallel sweep** through the engine's dispatcher (a ``jobs``
   cell of :mod:`tests.differential`) —

asserting verdict agreement on every instance: the deadlock prediction
must match the swept per-K deadlocks exactly (the theorem is exact both
ways), a livelock-freedom certificate must never coexist with a swept
livelock (the theorem is sound), and the parallel sweep must reproduce
the reference's reports verbatim.
"""

from __future__ import annotations

import pytest

from repro.checker.sweep import SweepResult
from repro.core.deadlock import DeadlockAnalyzer
from repro.core.livelock import LivelockCertifier, LivelockVerdict
from tests.differential import sources

MAX_K = 4
SAMPLES_PER_SEED = 8


@pytest.mark.parametrize("source",
                         sources.sample_block((0, 17, 42), SAMPLES_PER_SEED))
def test_three_routes_agree(matrix, source):
    matrix.cell("sweep", source, up_to=MAX_K, jobs=2)
    swept = matrix.reference("sweep", source, up_to=MAX_K)
    protocol = source.build()
    predicted = DeadlockAnalyzer(protocol).deadlocked_ring_sizes(MAX_K)
    certificate = LivelockCertifier(
        protocol, max_ring_size=MAX_K + 1).analyze()
    certified = certificate.verdict is LivelockVerdict.CERTIFIED_FREE

    for report in swept.reports:
        # Theorem 4.2 is exact: the local prediction and the explicit
        # per-K check must agree on every instance, in both directions.
        assert bool(report.deadlocks_outside) == (
            report.ring_size in predicted), (
            f"deadlock mismatch at K={report.ring_size}:\n"
            f"{protocol.pretty()}")
        # Theorem 5.14 is sound: a certificate forbids real livelocks.
        if certified:
            assert not report.livelock_cycles, (
                f"livelock under certificate at K={report.ring_size}:\n"
                f"{protocol.pretty()}")


def test_differential_verdict_aggregates(matrix):
    """The aggregate sweep verdict is a pure function of the per-K
    reports, so agreement with the reference extends to the
    aggregates."""
    for source in sources.sampled_run(7, SAMPLES_PER_SEED):
        parallel = matrix.cell("sweep", source, up_to=MAX_K, jobs=3).result
        serial = matrix.reference("sweep", source, up_to=MAX_K)
        assert isinstance(parallel, SweepResult)
        assert parallel.all_self_stabilizing == serial.all_self_stabilizing
        assert parallel.failing_sizes == serial.failing_sizes
        assert parallel.total_states == serial.total_states
