"""Theorem 5.14 certification on the paper's protocols."""

import pytest

from repro.core.livelock import (
    LivelockCertifier,
    LivelockVerdict,
    certify_livelock_freedom,
)
from repro.errors import AssumptionViolation
from repro.protocol.dsl import parse_action
from repro.protocol.process import ProcessTemplate
from repro.protocol.ring import RingProtocol
from repro.protocol.variables import ranged
from repro.protocols import (
    gouda_acharya_matching,
    livelock_agreement,
    stabilizing_agreement,
    stabilizing_sum_not_two,
)


class TestCertification:
    def test_stabilizing_agreement_certified(self):
        report = certify_livelock_freedom(stabilizing_agreement())
        assert report.verdict is LivelockVerdict.CERTIFIED_FREE
        assert report.certified
        assert not report.contiguous_only

    def test_stabilizing_sum_not_two_certified(self):
        report = certify_livelock_freedom(stabilizing_sum_not_two())
        assert report.certified
        assert report.supports_checked >= 1  # {t21, t12} was examined

    def test_livelock_agreement_unknown_with_witness(self):
        report = certify_livelock_freedom(livelock_agreement())
        assert report.verdict is LivelockVerdict.UNKNOWN
        assert not report.certified
        assert report.trail_witnesses
        witness = report.trail_witnesses[0]
        assert len(witness.t_arcs) == 2

    def test_gouda_acharya_contiguous_only(self):
        report = certify_livelock_freedom(gouda_acharya_matching())
        assert report.contiguous_only  # bidirectional ring
        assert report.verdict is LivelockVerdict.UNKNOWN

    def test_bidirectional_certificate_never_full(self):
        """Even a trail-free bidirectional protocol is only certified for
        contiguous livelocks (Section 5's scope note)."""
        from repro.protocols import generalizable_matching
        from repro.core.selfdisabling import make_self_disabling

        protocol = make_self_disabling(generalizable_matching())
        report = LivelockCertifier(protocol).analyze()
        assert report.contiguous_only
        assert not report.certified


class TestAssumptions:
    def test_non_self_disabling_protocol_rejected(self):
        x = ranged("x", 3)
        chain = parse_action("x[0] < x[-1] -> x := x[0] + 1", [x])
        protocol = RingProtocol(
            "chain", ProcessTemplate(variables=(x,), actions=(chain,)),
            "x[0] == x[-1]")
        with pytest.raises(AssumptionViolation):
            LivelockCertifier(protocol).analyze()

    def test_non_terminating_protocol_rejected(self):
        x = ranged("x", 2)
        spin = parse_action("x[-1] == 1 -> x := 1 - x[0]", [x])
        protocol = RingProtocol(
            "spin", ProcessTemplate(variables=(x,), actions=(spin,)),
            "x[0] == x[-1]")
        with pytest.raises(AssumptionViolation):
            LivelockCertifier(protocol).analyze()

    def test_checks_can_be_disabled(self):
        x = ranged("x", 3)
        chain = parse_action("x[0] < x[-1] -> x := x[0] + 1", [x])
        protocol = RingProtocol(
            "chain", ProcessTemplate(variables=(x,), actions=(chain,)),
            "x[0] == x[-1]")
        report = LivelockCertifier(
            protocol, require_self_disabling=False).analyze()
        assert report is not None  # analysis runs; verdict best-effort


def _fresh(source):
    """A new protocol object (the local kernel and its trail memo are
    memoized per protocol identity): a bundled name, or the seed of a
    sampled protocol with several candidate supports."""
    if isinstance(source, int):
        from repro.randomgen import ProtocolSampler

        return ProtocolSampler(max_domain=4, max_transitions=12,
                               seed=source).sample()
    from repro.protocols.registry import get_protocol

    return get_protocol(source)


class TestParallelCounters:
    @pytest.mark.parametrize("source", ["sum-not-two-ss", "agreement-ss",
                                        64, 250])
    def test_parallel_run_counts_worker_kernel_work(self, source):
        """Worker-side local-kernel counters travel back with each
        witness: ``jobs=2`` reports the mask evaluations ``jobs=1`` does
        (the trail memo is per support, so the count does not depend on
        which process searched it)."""
        serial = LivelockCertifier(_fresh(source),
                                   max_ring_size=6).analyze()
        parallel = LivelockCertifier(_fresh(source), max_ring_size=6,
                                     jobs=2).analyze()
        assert parallel.stats.mask_evaluations \
            == serial.stats.mask_evaluations
        if isinstance(source, int):
            # The sampled protocols fan several supports out.
            assert serial.supports_checked > 1
            assert serial.stats.mask_evaluations > 0
