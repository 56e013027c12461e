"""The CSR graph analyses against their ``Digraph`` reference.

The global checker runs Tarjan, the witness-cycle BFS, the reverse
distances and the ranking on flat CSR arrays and byte masks.  Here the
original ``Digraph`` pipeline stays as the test-only oracle:
hypothesis draws small graphs (parallel edges and self-loops included)
and masks, and every CSR result must equal the reference one — the
cyclic components in emission order, each witness cycle, every
distance and every rank.
"""

from __future__ import annotations

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import StateGraph, compute_ranking
from repro.checker.livelock import has_livelock, livelock_cycles
from repro.graphs import Digraph, find_cycle_through
from repro.graphs.cycles import csr_cycle_through
from repro.graphs.scc import (
    csr_components,
    csr_cyclic_components,
    cyclic_components,
    strongly_connected_components,
)

graphs = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=3 * n),
    st.lists(st.booleans(), min_size=n, max_size=n),
))


def _rows(n, edges):
    rows = [[] for _ in range(n)]
    for source, target in edges:
        rows[source].append(target)
    return rows


def _csr(rows):
    off, flat = array("q", [0]), array("q")
    for row in rows:
        flat.extend(row)
        off.append(len(flat))
    return off, flat


def _digraph(rows, keep):
    """The masked subgraph, nodes ascending and rows in CSR order: the
    same root and successor order the CSR walk uses."""
    graph = Digraph(nodes=[v for v in range(len(rows)) if keep[v]])
    for source in graph.nodes:
        for target in rows[source]:
            if keep[target]:
                graph.add_edge(source, target)
    return graph


@given(graphs)
@settings(max_examples=300, deadline=None)
def test_cyclic_components_and_witnesses_match_digraph(draw):
    n, edges, mask = draw
    rows = _rows(n, edges)
    off, flat = _csr(rows)
    keep = bytes(mask)
    reference = _digraph(rows, keep)

    expected = cyclic_components(reference)
    assert list(csr_cyclic_components(off, flat, keep)) == expected
    # Skipping successor-free roots drops only the trivial components
    # that no other kept vertex reaches.
    reached = {target for source in reference.nodes
               for target in rows[source]}
    emitted = list(csr_components(off, flat, keep))
    assert sorted(map(sorted, emitted)) == sorted(
        sorted(c) for c in strongly_connected_components(reference)
        if rows[c[0]] or c[0] in reached)

    member = bytearray(n)
    for component in expected:
        for node in component:
            member[node] = 1
        anchor = min(component)
        assert csr_cycle_through(off, flat, member, anchor) == \
            find_cycle_through(reference.induced_subgraph(component), anchor)
        for node in component:
            member[node] = 0


class _DrawnInstance:
    """A duck-typed instance over a drawn graph (naive backend)."""

    def __init__(self, rows, inside):
        self.rows, self.inside = rows, inside

    def states(self):
        return range(len(self.rows))

    def successors(self, state):
        return self.rows[state]

    def invariant_holds(self, state):
        return self.inside[state]


def _reference_distances(rows, inside):
    reverse = [[] for _ in rows]
    for source, targets in enumerate(rows):
        for target in targets:
            reverse[target].append(source)
    distance = [0 if inside[v] else None for v in range(len(rows))]
    frontier = [v for v in range(len(rows)) if inside[v]]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for node in frontier:
            for predecessor in reverse[node]:
                if distance[predecessor] is None:
                    distance[predecessor] = depth
                    next_frontier.append(predecessor)
        frontier = next_frontier
    return distance


def _reference_ranks(rows, inside):
    outside = [not b for b in inside]
    sub = _digraph(rows, outside)
    if cyclic_components(sub):
        return None
    ranks = [0] * len(rows)
    for component in strongly_connected_components(sub):
        node = component[0]
        if not rows[node]:
            return None
        ranks[node] = max(ranks[t] + 1 if outside[t] else 1
                          for t in rows[node])
    return tuple(ranks)


def _reference_cycles(rows, inside, max_cycles):
    sub = _digraph(rows, [not b for b in inside])
    cycles = []
    for component in cyclic_components(sub):
        anchor = min(component)
        cycles.append(find_cycle_through(sub.induced_subgraph(component),
                                         anchor))
        if len(cycles) >= max_cycles:
            break
    return cycles


@given(graphs, st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_state_graph_analyses_match_reference(draw, max_cycles):
    n, edges, mask = draw
    rows = _rows(n, edges)
    graph = StateGraph(_DrawnInstance(rows, mask), backend="naive")

    scan = graph.scan
    assert scan.closed == all(mask[t] for v in range(n) if mask[v]
                              for t in rows[v])
    assert scan.deadlocks == [v for v in range(n)
                              if not mask[v] and not rows[v]]
    assert scan.invariant_count == sum(mask)

    cycles = _reference_cycles(rows, mask, max_cycles)
    assert livelock_cycles(graph, max_cycles=max_cycles) == cycles
    assert has_livelock(graph) == bool(cycles)
    assert graph.distances_to_invariant() == \
        _reference_distances(rows, mask)
    certificate = compute_ranking(graph)
    expected_ranks = _reference_ranks(rows, mask)
    if expected_ranks is None:
        assert certificate is None
    else:
        assert certificate.ranks == expected_ranks
