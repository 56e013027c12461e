"""Minimal feedback vertex sets: correctness, minimality, constraints."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineStats
from repro.graphs import (
    Digraph,
    is_feedback_vertex_set,
    minimal_feedback_vertex_sets,
    minimal_feedback_vertex_sets_exhaustive,
)

edge_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    max_size=15,
)


def build(edges) -> Digraph:
    g = Digraph(nodes=range(6))
    for u, v in edges:
        g.add_edge(u, v)
    return g


def brute_force_minimal(graph, allowed, bad):
    """Oracle: all minimal feedback sets by exhaustive subset search."""
    pool = sorted(allowed)
    valid = [frozenset(c)
             for size in range(len(pool) + 1)
             for c in combinations(pool, size)
             if is_feedback_vertex_set(graph, c, bad=bad)]
    return {s for s in valid
            if not any(o < s for o in valid)}


def test_simple_cycle_needs_one_vertex():
    g = build([(0, 1), (1, 2), (2, 0)])
    sets = list(minimal_feedback_vertex_sets(g))
    assert all(len(s) == 1 for s in sets)
    assert {next(iter(s)) for s in sets} == {0, 1, 2}


def test_self_loop_forces_its_own_vertex():
    g = build([(3, 3)])
    sets = list(minimal_feedback_vertex_sets(g))
    assert sets == [frozenset({3})]


def test_acyclic_graph_has_empty_fvs():
    g = build([(0, 1), (1, 2)])
    assert list(minimal_feedback_vertex_sets(g)) == [frozenset()]


def test_allowed_restriction_can_make_problem_unsolvable():
    g = build([(0, 0)])
    # Only vertex 1 allowed, but the cycle is at 0.
    assert list(minimal_feedback_vertex_sets(g, allowed=[1])) == []


def test_bad_restriction_ignores_good_cycles():
    g = build([(0, 1), (1, 0), (2, 3), (3, 2)])
    # Only cycles through vertex 0 matter: the 2-3 cycle is harmless.
    sets = list(minimal_feedback_vertex_sets(g, bad=[0]))
    assert frozenset() not in sets
    assert all(s <= {0, 1} for s in sets)


def test_sets_yielded_smallest_first():
    g = build([(0, 1), (1, 0), (2, 2)])
    sizes = [len(s) for s in minimal_feedback_vertex_sets(g)]
    assert sizes == sorted(sizes)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_brute_force(edges):
    g = build(edges)
    allowed = set(g.nodes)
    bad = set(g.nodes)
    mine = set(minimal_feedback_vertex_sets(g))
    assert mine == brute_force_minimal(g, allowed, bad)


@given(edge_lists, st.sets(st.integers(0, 5)))
@settings(max_examples=60, deadline=None)
def test_enumeration_with_constraints_matches_brute_force(edges, bad):
    g = build(edges)
    allowed = bad  # the synthesis use-case: Resolve ⊆ ¬LC_r
    mine = set(minimal_feedback_vertex_sets(g, allowed=allowed, bad=bad))
    assert mine == brute_force_minimal(g, allowed, bad)


@given(edge_lists)
@settings(max_examples=60, deadline=None)
def test_every_yielded_set_is_feedback_and_minimal(edges):
    g = build(edges)
    for s in minimal_feedback_vertex_sets(g):
        assert is_feedback_vertex_set(g, s)
        for member in s:
            assert not is_feedback_vertex_set(g, s - {member})


@given(edge_lists, st.sets(st.integers(0, 5)))
@settings(max_examples=60, deadline=None)
def test_branch_and_bound_matches_exhaustive_order(edges, bad):
    """The B&B search replays the exhaustive enumerator exactly —
    same sets, same (size-then-``combinations``) order."""
    g = build(edges)
    mine = list(minimal_feedback_vertex_sets(g, allowed=bad, bad=bad))
    oracle = list(minimal_feedback_vertex_sets_exhaustive(
        g, allowed=bad, bad=bad))
    assert mine == oracle


@given(edge_lists, st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_max_sets_truncates_to_a_prefix(edges, max_sets):
    g = build(edges)
    full = list(minimal_feedback_vertex_sets(g))
    truncated = list(minimal_feedback_vertex_sets(g, max_sets=max_sets))
    assert truncated == full[:max_sets]


def test_stats_count_search_effort():
    g = build([(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (5, 5)])
    stats = EngineStats()
    with stats.collecting():
        sets = list(minimal_feedback_vertex_sets(g))
    assert sets  # 3-cycle × 2-cycle × self-loop: 6 minimal sets
    assert stats.fvs_nodes_explored > 0
    # A second run accumulates into the same counters.
    explored = stats.fvs_nodes_explored
    with stats.collecting():
        list(minimal_feedback_vertex_sets(g))
    assert stats.fvs_nodes_explored > explored
