"""The hybrid verifier: local certificates + bounded global checking."""

import pytest

from repro.core.hybrid import (
    HybridVerdict,
    WitnessClassification,
    _witness_sizes,
    hybrid_verify,
)
from repro.core.trail import TrailWitness
from repro.core.selfdisabling import action_for_transition
from repro.protocol.actions import LocalTransition
from repro.protocols import (
    livelock_agreement,
    nongeneralizable_matching,
    stabilizing_agreement,
    sum_not_two,
)


class TestVerdicts:
    def test_converging_protocol_passes_through(self):
        report = hybrid_verify(stabilizing_agreement())
        assert report.verdict is HybridVerdict.CONVERGES
        assert report.classifications == ()
        assert report.counterexample is None

    def test_deadlocking_protocol_passes_through(self):
        report = hybrid_verify(nongeneralizable_matching())
        assert report.verdict is HybridVerdict.DIVERGES_DEADLOCK

    def test_real_livelock_found_with_counterexample(self):
        report = hybrid_verify(livelock_agreement(), check_up_to=5)
        assert report.verdict is HybridVerdict.DIVERGES_LIVELOCK
        assert report.counterexample is not None
        # The counterexample really cycles outside I.
        size = len(report.counterexample[0])
        instance = livelock_agreement().instantiate(size)
        for i, state in enumerate(report.counterexample):
            assert not instance.invariant_holds(state)
            nxt = report.counterexample[
                (i + 1) % len(report.counterexample)]
            assert nxt in instance.successors(state)

    def test_full_graph_built_only_at_the_first_livelocked_size(
            self, monkeypatch):
        # Every size is decided on the rotation quotient; the full
        # space is built once, to name the counterexample.
        from repro.checker.livelock import livelock_cycles
        from repro.checker.statespace import StateGraph
        from repro.engine import kernel

        built = []
        build_full = kernel.build_full

        def counting(instance):
            built.append(instance.size)
            return build_full(instance)

        monkeypatch.setattr(kernel, "build_full", counting)
        report = hybrid_verify(livelock_agreement(), check_up_to=6)
        assert report.verdict is HybridVerdict.DIVERGES_LIVELOCK
        first = len(report.counterexample[0])
        assert built == [first]
        assert report.checked_sizes[-1] > first
        monkeypatch.undo()
        full = StateGraph(livelock_agreement().instantiate(first))
        assert report.counterexample \
            == tuple(livelock_cycles(full, max_cycles=1)[0])

    def test_real_witness_classified_real(self):
        report = hybrid_verify(livelock_agreement(), check_up_to=6)
        assert any(not c.spurious for c in report.classifications)
        assert "REAL" in report.summary()

    def test_spurious_trail_bounded_verdict(self):
        """The sum-not-two rejected candidate: its trail is spurious, so
        the hybrid verdict upgrades UNKNOWN to BOUNDED convergence."""
        protocol = sum_not_two()
        space = protocol.space

        def t(a, b, new):
            source = space.state_of(a, b)
            return LocalTransition(source, source.replace_own((new,)),
                                   f"t{b}{new}")

        rejected = [t(0, 2, 1), t(1, 1, 0), t(2, 0, 2)]
        candidate = protocol.extended_with(
            [action_for_transition(x, x.label) for x in rejected])
        report = hybrid_verify(candidate, check_up_to=6)
        assert report.verdict is HybridVerdict.BOUNDED
        assert report.classifications
        assert all(c.spurious for c in report.classifications)
        assert "spurious" in report.summary()


class TestWitnessSizes:
    def _witness(self, ring_size):
        return TrailWitness(ring_size=ring_size, enablements=1,
                            t_arcs=frozenset(), states=(),
                            illegitimate_states=())

    def test_multiples_of_base_size(self):
        assert _witness_sizes(self._witness(3), bound=10, minimum=2) \
            == [3, 6, 9]

    def test_minimum_respected(self):
        assert _witness_sizes(self._witness(2), bound=8, minimum=3) \
            == [4, 6, 8]

    def test_empty_when_bound_too_small(self):
        assert _witness_sizes(self._witness(5), bound=4, minimum=2) == []

    def test_witness_without_k_indicts_every_size(self):
        assert _witness_sizes(self._witness(None), bound=6, minimum=3) \
            == [3, 4, 5, 6]

    def test_witness_past_the_bound_is_not_checked(self):
        # agreement-livelock's trail is at K = 3: a bound of 2 checks
        # K = 2 only, which says nothing about the witness.
        report = hybrid_verify(livelock_agreement(), check_up_to=2)
        (classification,) = report.classifications
        assert classification.checked_sizes == ()
        assert classification.real_at is None
        assert not classification.spurious
        assert "not checked (K=3 exceeds the bound 2)" in report.summary()
        assert "spurious" not in report.summary()

    def test_bound_below_the_smallest_ring_is_refused(self):
        with pytest.raises(ValueError, match="empty check range 2..1"):
            hybrid_verify(livelock_agreement(), check_up_to=1)

    def test_witness_without_k_is_checked_at_every_size(self):
        # agreement-livelock's trail needs K = 3: under a bound of 2
        # the certifier matches its support without naming a K.
        report = hybrid_verify(livelock_agreement(), max_ring_size=2,
                               check_up_to=5)
        (classification,) = report.classifications
        assert classification.witness.ring_size is None
        assert classification.checked_sizes == (2, 3, 4, 5)
        assert classification.real_at == 3
        assert "no K within the bound" in report.summary()


def test_classification_str():
    witness = TrailWitness(ring_size=3, enablements=1,
                           t_arcs=frozenset(), states=(),
                           illegitimate_states=())
    spurious = WitnessClassification(witness, (3, 6), None)
    real = WitnessClassification(witness, (3, 6), 6)
    assert "spurious" in str(spurious)
    assert "REAL at K=6" in str(real)
