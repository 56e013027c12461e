"""The explicit global state graph (both backends)."""

import pytest

from repro.checker import StateGraph
from repro.checker.statespace import reverse_csr
from repro.protocols import stabilizing_agreement, livelock_agreement

pytestmark = pytest.mark.parametrize("backend", ["kernel", "naive"])


def _row(graph, state):
    return list(graph.succ_flat[graph.succ_off[state]:
                                graph.succ_off[state + 1]])


def test_state_interning_and_counts(backend):
    instance = stabilizing_agreement().instantiate(3)
    graph = StateGraph(instance, backend=backend)
    assert graph.backend == backend
    assert len(graph) == 8
    assert graph.scan.invariant_count == sum(graph.invariant) == 2
    for index, state in enumerate(instance.states()):
        assert graph.decode(index) == state
        assert graph.index_of(state) == index
    with pytest.raises(KeyError):
        graph.index_of(instance.state_of(0, 1, 0)[:2])


def test_successor_lists_match_instance(backend):
    instance = stabilizing_agreement().instantiate(3)
    graph = StateGraph(instance, backend=backend)
    assert len(graph.succ_off) == len(graph) + 1
    for i in range(len(graph)):
        state = graph.decode(i)
        expected = [graph.index_of(t) for t in instance.successors(state)]
        assert _row(graph, i) == expected
        assert graph.invariant[i] == instance.invariant_holds(state)


def test_deadlock_indices(backend):
    instance = stabilizing_agreement().instantiate(3)
    graph = StateGraph(instance, backend=backend)
    deadlocks = {graph.decode(i) for i in range(len(graph))
                 if not _row(graph, i)}
    assert deadlocks == {instance.uniform_state(0),
                         instance.uniform_state(1)}
    # Both deadlocks are legitimate: none is reported outside I.
    assert graph.scan.deadlocks == []
    assert graph.scan.closed


def test_reverse_csr_inverts_successors(backend):
    instance = livelock_agreement().instantiate(3)
    graph = StateGraph(instance, backend=backend)
    pred_off, pred_flat = reverse_csr(graph.succ_off, graph.succ_flat)
    edges = sorted((source, target) for source in range(len(graph))
                   for target in _row(graph, source))
    reversed_edges = sorted(
        (pred_flat[position], target) for target in range(len(graph))
        for position in range(pred_off[target], pred_off[target + 1]))
    assert reversed_edges == edges
    # Each predecessor row lists its sources in ascending order.
    for target in range(len(graph)):
        row = list(pred_flat[pred_off[target]:pred_off[target + 1]])
        assert row == sorted(row)


def test_scan_masks_the_states_outside_i(backend):
    instance = livelock_agreement().instantiate(3)
    graph = StateGraph(instance, backend=backend)
    scan = graph.scan
    assert list(scan.outside) == [1 - b for b in graph.invariant]
    assert scan is graph.scan  # one pass, cached
    assert scan.deadlocks == [
        i for i in range(len(graph))
        if not graph.invariant[i] and not _row(graph, i)]


def test_distances_to_invariant(backend):
    instance = stabilizing_agreement().instantiate(3)
    graph = StateGraph(instance, backend=backend)
    distances = graph.distances_to_invariant()
    for i, distance in enumerate(distances):
        if graph.invariant[i]:
            assert distance == 0
        else:
            assert distance is not None and distance >= 1
    # (1 1 0): one copy by process 2 reaches all-ones.
    assert distances[graph.index_of(instance.state_of(1, 1, 0))] == 1
    # (1 0 0): two copies are needed.
    assert distances[graph.index_of(instance.state_of(1, 0, 0))] == 2
