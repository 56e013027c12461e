"""Ranking-function extraction and certificate checking."""

import pytest

from repro.checker import StateGraph
from repro.checker.ranking import (
    RankingCertificate,
    compute_ranking,
    verify_ranking,
)
from repro.protocols import (
    DijkstraTokenRing,
    livelock_agreement,
    nongeneralizable_matching,
    stabilizing_agreement,
    stabilizing_sum_not_two,
)
from repro.simulation import AdversarialScheduler, run


@pytest.mark.parametrize("factory,size", [
    (stabilizing_agreement, 5),
    (stabilizing_sum_not_two, 4),
    (lambda: DijkstraTokenRing(3), None),
])
def test_convergent_instances_have_valid_rankings(factory, size):
    protocol = factory()
    instance = protocol.instantiate(size) if size else protocol
    graph = StateGraph(instance)
    certificate = compute_ranking(graph)
    assert certificate is not None
    assert verify_ranking(graph, certificate.ranks)
    assert certificate.max_rank >= 1


def test_livelocking_instance_has_no_ranking():
    graph = StateGraph(livelock_agreement().instantiate(4))
    assert compute_ranking(graph) is None


def test_deadlocking_instance_has_no_ranking():
    graph = StateGraph(nongeneralizable_matching().instantiate(4))
    assert compute_ranking(graph) is None


def test_max_rank_bounds_adversarial_recovery():
    """ρ's maximum is the worst-daemon recovery time: no adversarial run
    may take longer."""
    protocol = stabilizing_agreement()
    instance = protocol.instantiate(6)
    graph = StateGraph(instance)
    certificate = compute_ranking(graph)
    for seed in range(20):
        start = graph.decode((seed * 7) % len(graph))
        trace = run(instance, start,
                    AdversarialScheduler(instance, seed=seed),
                    max_steps=certificate.max_rank + 1)
        assert trace.converged
        assert trace.recovery_steps <= certificate.max_rank


def test_rank_decreases_along_every_move():
    protocol = stabilizing_sum_not_two()
    instance = protocol.instantiate(4)
    graph = StateGraph(instance)
    certificate = compute_ranking(graph)
    for state in instance.states():
        if instance.invariant_holds(state):
            assert certificate.rank_of(state) == 0
            continue
        for successor in instance.successors(state):
            if not instance.invariant_holds(successor):
                assert certificate.rank_of(successor) < \
                    certificate.rank_of(state)


def test_layers_histogram():
    graph = StateGraph(stabilizing_agreement().instantiate(3))
    certificate = compute_ranking(graph)
    layers = certificate.layers()
    assert layers[0] == 2  # the two uniform states
    assert sum(layers.values()) == len(graph)
    assert list(layers) == sorted(layers)


class TestVerifyRanking:
    def test_rejects_wrong_length(self):
        graph = StateGraph(stabilizing_agreement().instantiate(3))
        assert not verify_ranking(graph, (0,))

    def test_rejects_nonzero_invariant_rank(self):
        graph = StateGraph(stabilizing_agreement().instantiate(3))
        certificate = compute_ranking(graph)
        tampered = list(certificate.ranks)
        tampered[list(graph.invariant).index(1)] = 5
        assert not verify_ranking(graph, tampered)

    def test_rejects_non_decreasing_step(self):
        graph = StateGraph(stabilizing_agreement().instantiate(3))
        certificate = compute_ranking(graph)
        tampered = [r if r == 0 else certificate.max_rank + 1
                    for r in certificate.ranks]
        # constant positive rank outside I cannot strictly decrease
        assert not verify_ranking(graph, tampered)

    def test_accepts_any_valid_alternative(self):
        """Doubling a valid ranking keeps strict decrease."""
        graph = StateGraph(stabilizing_agreement().instantiate(3))
        certificate = compute_ranking(graph)
        doubled = [2 * r for r in certificate.ranks]
        assert verify_ranking(graph, doubled)
