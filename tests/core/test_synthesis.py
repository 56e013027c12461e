"""The Section 6 synthesis methodology end-to-end."""

import pytest

from repro.checker import check_instance
from repro.core import verify_convergence
from repro.core.synthesis import (
    SynthesisOutcome,
    Synthesizer,
    synthesize_convergence,
)
from repro.errors import SynthesisFailure
from repro.protocols import (
    agreement,
    stabilizing_agreement,
    sum_not_two,
    three_coloring,
    two_coloring,
)
from repro.viz import state_label


class TestAgreement:
    def test_success_without_pseudo_livelock(self):
        result = synthesize_convergence(agreement())
        assert result.outcome is SynthesisOutcome.SUCCESS_NPL
        assert result.succeeded
        assert len(result.chosen) == 1

    def test_resolve_is_one_illegitimate_deadlock(self):
        result = synthesize_convergence(agreement())
        assert {state_label(s) for s in result.resolve} in (
            {"01"}, {"10"})
        assert {state_label(s) for s in result.resolve} == {
            state_label(result.chosen[0].source)}

    def test_synthesized_protocol_converges_for_all_k(self):
        result = synthesize_convergence(agreement())
        report = verify_convergence(result.protocol)
        assert report.verdict.value == "converges"

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    def test_synthesized_protocol_stabilizes_globally(self, size):
        result = synthesize_convergence(agreement())
        report = check_instance(result.protocol.instantiate(size))
        assert report.self_stabilizing

    def test_ternary_agreement_also_synthesizes(self):
        result = synthesize_convergence(agreement(values=3))
        assert result.succeeded
        report = check_instance(result.protocol.instantiate(4))
        assert report.self_stabilizing


class TestColorings:
    def test_three_coloring_fails_with_8_rejections(self):
        """§6.1: 2^3 candidate combinations, all rejected."""
        result = synthesize_convergence(three_coloring())
        assert result.outcome is SynthesisOutcome.FAILURE
        assert result.protocol is None
        assert len(result.rejected) == 8
        for rejection in result.rejected:
            assert "contiguous trail" in rejection.reason

    def test_two_coloring_fails(self):
        """§6.2: consistent with the impossibility result [25]."""
        result = synthesize_convergence(two_coloring())
        assert result.outcome is SynthesisOutcome.FAILURE
        assert len(result.rejected) == 1  # the single candidate pair

    def test_raise_on_failure_flag(self):
        with pytest.raises(SynthesisFailure):
            synthesize_convergence(two_coloring(), raise_on_failure=True)

    @pytest.mark.parametrize("backend", ["auto", "naive"])
    def test_ring_bound_below_two_is_refused(self, backend):
        # An empty (K, |E|) range certifies nothing: it must not turn
        # §6.1's failure into a success.
        with pytest.raises(ValueError, match="at least 2"):
            Synthesizer(three_coloring(), max_ring_size=1, backend=backend)


class TestSumNotTwo:
    def test_success_at_pl_stage(self):
        result = synthesize_convergence(sum_not_two())
        assert result.outcome is SynthesisOutcome.SUCCESS_PL
        assert {state_label(s) for s in result.resolve} == {
            "20", "11", "02"}
        assert len(result.chosen) == 3

    def test_chosen_set_is_trail_free(self):
        result = synthesize_convergence(sum_not_two())
        report = verify_convergence(result.protocol)
        assert report.verdict.value == "converges"

    @pytest.mark.parametrize("size", [3, 4, 5, 6, 7])
    def test_synthesized_protocol_stabilizes_globally(self, size):
        result = synthesize_convergence(sum_not_two())
        report = check_instance(result.protocol.instantiate(size))
        assert report.self_stabilizing


class TestProblemStatementConstraints:
    """Problem 3.1: I unchanged, Δ_pss|I = Δ_p|I, strong stabilization."""

    def test_added_transitions_fire_only_outside_lc(self):
        for factory in (agreement, sum_not_two):
            protocol = factory()
            result = synthesize_convergence(protocol)
            for transition in result.chosen:
                assert not protocol.is_legitimate(transition.source)

    def test_behaviour_inside_invariant_unchanged(self):
        protocol = agreement()
        result = synthesize_convergence(protocol)
        instance = result.protocol.instantiate(5)
        for state in instance.invariant_states():
            assert instance.moves(state) == []  # input had none either

    def test_already_stabilizing_input_returned_as_is(self):
        protocol = stabilizing_agreement()
        result = synthesize_convergence(protocol)
        assert result.outcome is SynthesisOutcome.ALREADY_STABILIZING
        assert result.protocol is protocol
        assert result.chosen == ()


class TestBidirectionalGating:
    def test_bidirectional_synthesis_fails_fast_by_default(self):
        """Theorem 5.14 only excludes *contiguous* livelocks on
        bidirectional rings — not enough to certify a synthesis result,
        so the methodology declines (§6 is stated for unidirectional
        rings)."""
        from repro.protocols import matching_base

        result = synthesize_convergence(matching_base())
        assert result.outcome is SynthesisOutcome.FAILURE
        assert "contiguous" in result.rejected[0].reason

    def test_opt_in_flag_lifts_the_gate(self):
        """With accept_contiguous_only the per-combination verdict no
        longer fails fast on topology (checked on the cheap verdict
        path; a full bidirectional search is exercised by the
        benchmarks)."""
        from repro.protocols import gouda_acharya_matching

        gated = Synthesizer(gouda_acharya_matching())
        (reason,) = gated._judge_pool([()], first_accept=True)
        assert reason is not None and "contiguous" in reason

        lifted = Synthesizer(gouda_acharya_matching(),
                             accept_contiguous_only=True)
        (reason,) = lifted._judge_pool([()], first_accept=True)
        # the fragment has real trails, so it is still rejected — but
        # for the right (searched) reason now
        assert reason is not None and "contiguous trail" in reason


class TestDiagnostics:
    def test_candidate_transitions_are_self_disabling(self):
        synthesizer = Synthesizer(sum_not_two())
        resolve = synthesizer.protocol.space.deadlocks()
        from repro.core.deadlock import DeadlockAnalyzer

        resolve_set = DeadlockAnalyzer(
            synthesizer.protocol).resolve_candidates()[0]
        candidates = synthesizer.candidate_transitions(resolve_set)
        for options in candidates.values():
            for transition in options:
                assert transition.target not in resolve_set

    def test_summary_renders(self):
        result = synthesize_convergence(three_coloring())
        text = result.summary()
        assert "failure" in text
        assert "rejected combinations: 8" in text

    def test_resolve_sets_tried_recorded(self):
        result = synthesize_convergence(two_coloring())
        assert len(result.resolve_sets_tried) == 1
