"""Global model checking of the case studies at fixed sizes."""

import pytest

from repro.checker import (
    StateGraph,
    check_instance,
    is_closed,
    strongly_converges,
)
from repro.checker.deadlock import (
    illegitimate_deadlocks,
    legitimate_deadlocks,
)
from repro.checker.livelock import has_livelock, livelock_cycles
from repro.protocols import (
    DijkstraTokenRing,
    generalizable_matching,
    gouda_acharya_matching,
    livelock_agreement,
    nongeneralizable_matching,
    stabilizing_agreement,
    stabilizing_sum_not_two,
)
from repro.protocols.registry import REGISTRY


class TestStabilizingProtocols:
    @pytest.mark.parametrize("factory,size", [
        (stabilizing_agreement, 4),
        (stabilizing_agreement, 7),
        (stabilizing_sum_not_two, 4),
        (stabilizing_sum_not_two, 6),
        (generalizable_matching, 5),
        (generalizable_matching, 7),
    ])
    def test_self_stabilizing(self, factory, size):
        report = check_instance(factory().instantiate(size))
        assert report.closed
        assert report.strongly_converging
        assert report.weakly_converging
        assert report.self_stabilizing
        assert report.worst_case_recovery_steps is not None

    def test_matching_is_silent_inside_i(self):
        """Matching fixpoints are legitimate: deadlocks inside I only."""
        graph = StateGraph(generalizable_matching().instantiate(5))
        assert illegitimate_deadlocks(graph) == []
        assert len(legitimate_deadlocks(graph)) > 0


class TestBrokenProtocols:
    def test_example43_deadlocks_at_k6(self):
        report = check_instance(nongeneralizable_matching().instantiate(6))
        assert report.deadlocks_outside
        assert not report.strongly_converging
        # every reported deadlock is genuinely stuck and illegitimate
        instance = nongeneralizable_matching().instantiate(6)
        for state in report.deadlocks_outside:
            assert instance.is_deadlock(state)
            assert not instance.invariant_holds(state)

    def test_example43_clean_at_its_design_size(self):
        report = check_instance(nongeneralizable_matching().instantiate(5))
        assert report.self_stabilizing

    def test_livelock_agreement_cycles_at_k4(self):
        """Example 5.2's livelock: an 8-state cycle entirely outside I."""
        instance = livelock_agreement().instantiate(4)
        graph = StateGraph(instance)
        assert has_livelock(graph)
        cycles = livelock_cycles(graph)
        assert cycles
        for cycle in cycles:
            assert all(not instance.invariant_holds(s) for s in cycle)
            # cycle transitions are real moves
            for i, state in enumerate(cycle):
                nxt = cycle[(i + 1) % len(cycle)]
                assert nxt in instance.successors(state)

    @pytest.mark.parametrize("size", [3, 5])
    def test_livelock_agreement_cycles_at_every_size(self, size):
        """Two-direction copying livelocks at every K >= 3: a corrupted
        boundary pair can rotate around the ring forever."""
        report = check_instance(livelock_agreement().instantiate(size))
        assert report.livelock_cycles

    def test_gouda_acharya_livelocks_at_k5(self):
        report = check_instance(gouda_acharya_matching().instantiate(5))
        assert report.livelock_cycles
        assert not report.strongly_converging

    def test_weak_but_not_strong_convergence_detectable(self):
        instance = livelock_agreement().instantiate(4)
        report = check_instance(instance)
        assert not report.strongly_converging
        assert report.weakly_converging  # a path to I always exists


class TestTokenRing:
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_dijkstra_self_stabilizes_with_enough_values(self, size):
        report = check_instance(DijkstraTokenRing(size))
        assert report.self_stabilizing

    def test_dijkstra_never_deadlocks(self):
        ring = DijkstraTokenRing(3, values=2)
        for state in ring.states():
            assert not ring.is_deadlock(state)

    def test_dijkstra_with_too_few_values_livelocks(self):
        report = check_instance(DijkstraTokenRing(4, values=2))
        assert not report.strongly_converging
        assert report.livelock_cycles

    def test_invariant_is_exactly_one_token(self):
        ring = DijkstraTokenRing(3)
        assert ring.invariant_holds((0, 0, 0))  # root privileged only
        assert not ring.invariant_holds((0, 1, 0))

    def test_closure_of_token_ring(self):
        graph = StateGraph(DijkstraTokenRing(4))
        assert is_closed(graph)


class TestWitnessCap:
    """A report counts every deadlock outside ``I`` and decodes at most
    ``max_witnesses`` of them: the head of the naive reference's list,
    in state order.  The verdict never depends on the cap."""

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_capped_deadlocks_are_the_reference_prefix(self, name):
        protocol = REGISTRY[name]()
        for size in range(protocol.process.window_width, 9):
            instance = protocol.instantiate(size)
            naive = StateGraph(instance, backend="naive")
            every = illegitimate_deadlocks(naive)
            converging = strongly_converges(naive)
            for cap in (0, 1, 8):
                report = check_instance(instance, max_witnesses=cap)
                assert report.deadlocks_outside == tuple(every[:cap]), \
                    (size, cap)
                assert report.deadlock_count == len(every), (size, cap)
                assert report.strongly_converging == converging, \
                    (size, cap)
                assert f"deadlocks outside I: {len(every)}\n" \
                    in report.summary()

    def test_negative_cap_is_refused(self):
        with pytest.raises(ValueError, match="max_witnesses"):
            check_instance(stabilizing_agreement().instantiate(3),
                           max_witnesses=-1)
