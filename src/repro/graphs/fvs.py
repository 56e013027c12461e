"""Minimal feedback vertex sets.

Step 2 of the synthesis methodology (Section 6.1) computes ``Resolve`` as a
minimal feedback vertex set of the deadlock-induced RCG, *restricted to be a
subset of the illegitimate local states* ``¬LC_r``: removing those vertices
must leave no directed cycle through an illegitimate vertex.

Two implementations live here:

* :func:`minimal_feedback_vertex_sets` — branch-and-bound over a
  bit-packed adjacency.  Each search node branches on the vertices of
  one concrete bad cycle (every solution must hit it), with
  inclusion/exclusion banning so no candidate set is visited twice, a
  vertex-disjoint bad-cycle packing lower bound, and iterative
  deepening by cardinality so sets still come out smallest-first in the
  exact order of the exhaustive enumerator.
* :func:`minimal_feedback_vertex_sets_exhaustive` — the original
  increasing-cardinality subset enumeration, kept as the reference
  oracle for the differential tests.

Both yield identical sequences of ``frozenset``\\ s; the differential
suite in ``tests/engine/test_localkernel_differential.py`` pins that.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from itertools import combinations

from repro.graphs.digraph import Digraph
from repro.graphs.scc import cyclic_components, masked_cyclic_mask
from repro.obs import runtime as obs


class _MaskedGraph:
    """Bit-packed view of a :class:`Digraph` for the FVS search.

    Built once per query — the hoist the naive
    :func:`is_feedback_vertex_set` lacked, which rebuilt
    ``graph.induced_subgraph`` (and re-hashed every node) per candidate.
    """

    __slots__ = ("nodes", "index", "succ", "all_mask", "bad_mask")

    def __init__(self, graph: Digraph,
                 bad: Iterable[Hashable] | None) -> None:
        self.nodes = list(graph.nodes)
        self.index = {node: i for i, node in enumerate(self.nodes)}
        self.succ = [0] * len(self.nodes)
        for source, target, _key in graph.edges():
            self.succ[self.index[source]] |= 1 << self.index[target]
        self.all_mask = (1 << len(self.nodes)) - 1
        if bad is None:
            self.bad_mask = self.all_mask
        else:
            self.bad_mask = 0
            for node in bad:
                i = self.index.get(node)
                if i is not None:
                    self.bad_mask |= 1 << i

    def removal_mask(self, vertices: Iterable[Hashable]) -> int:
        mask = 0
        for vertex in vertices:
            i = self.index.get(vertex)
            if i is not None:  # foreign vertices remove nothing
                mask |= 1 << i
        return mask


def is_feedback_vertex_set(graph: Digraph, vertices: Iterable[Hashable],
                           bad: Iterable[Hashable] | None = None) -> bool:
    """Whether *vertices* is a feedback vertex set of *graph*.

    With *bad* given, only cycles passing through a vertex of *bad* need to
    be broken (the relaxation used by Theorem 4.2: cycles entirely within
    legitimate local deadlocks are harmless).
    """
    masked = _MaskedGraph(graph, bad)
    alive = masked.all_mask & ~masked.removal_mask(vertices)
    return not masked_cyclic_mask(masked.succ, alive) & masked.bad_mask


def minimal_feedback_vertex_sets(
        graph: Digraph,
        allowed: Iterable[Hashable] | None = None,
        bad: Iterable[Hashable] | None = None,
        max_sets: int | None = None,
) -> Iterator[frozenset[Hashable]]:
    """Enumerate minimal feedback vertex sets, smallest first.

    Parameters
    ----------
    graph:
        The directed graph to acyclify.
    allowed:
        Candidate vertices the set may draw from (the synthesis methodology
        restricts ``Resolve ⊆ ¬LC_r``).  Defaults to all nodes.
    bad:
        Only cycles through these vertices must be broken.  Defaults to all
        nodes (classical feedback vertex sets).
    max_sets:
        Stop after yielding this many sets.

    Yields ``frozenset`` instances.  Every yielded set is *minimal*: no
    proper subset is itself a feedback vertex set for the same problem.
    Sets are yielded in order of non-decreasing cardinality, and within
    one cardinality in the ``itertools.combinations`` order over the
    repr-sorted pool — byte-identical to
    :func:`minimal_feedback_vertex_sets_exhaustive`.  Each cardinality's
    search-tree nodes are counted as ``fvs.nodes_explored`` /
    ``fvs.nodes_pruned``.
    """
    masked = _MaskedGraph(graph, bad)
    pool = sorted(set(graph.nodes) if allowed is None else set(allowed),
                  key=repr)
    # A minimal set never contains a vertex outside the graph (removing
    # it changes nothing, so the subset without it works too).
    pool = [vertex for vertex in pool if vertex in masked.index]
    pool_position = {masked.index[vertex]: position
                     for position, vertex in enumerate(pool)}
    allowed_mask = 0
    for vertex in pool:
        allowed_mask |= 1 << masked.index[vertex]

    found_masks: list[int] = []
    emitted = 0
    for size in range(len(pool) + 1):
        with obs.span("fvs.search", size=size) as span:
            solutions, explored, pruned = _solutions_of_size(
                masked, allowed_mask, size, found_masks)
            if span is not None:
                span.attrs["solutions"] = len(solutions)
                span.attrs["nodes"] = explored
        obs.metric("fvs.nodes_explored", explored)
        obs.metric("fvs.nodes_pruned", pruned)
        ordered = sorted(
            solutions,
            key=lambda mask: tuple(sorted(pool_position[i]
                                          for i in _bits(mask))))
        for mask in ordered:
            found_masks.append(mask)
            yield frozenset(masked.nodes[i] for i in _bits(mask))
            emitted += 1
            if max_sets is not None and emitted >= max_sets:
                return
    return


def _solutions_of_size(masked: _MaskedGraph, allowed_mask: int, size: int,
                       found_masks: list[int]) -> tuple[set[int], int, int]:
    """All FVSs of exactly *size* vertices not containing a found set,
    with the number of search nodes explored and pruned."""
    solutions: set[int] = set()
    # (chosen, banned) pairs already expanded at this depth budget.
    seen: set[tuple[int, int]] = set()
    explored = pruned = 0

    def descend(chosen: int, banned: int) -> None:
        nonlocal explored, pruned
        state = (chosen, banned)
        if state in seen:
            pruned += 1
            return
        seen.add(state)
        explored += 1
        if any(prior & ~chosen == 0 for prior in found_masks):
            pruned += 1  # contains a smaller minimal set
            return
        alive = masked.all_mask & ~chosen
        cyclic = masked_cyclic_mask(masked.succ, alive)
        if not cyclic & masked.bad_mask:
            if _popcount(chosen) == size:
                solutions.add(chosen)
            # A smaller FVS: its supersets are never minimal.
            return
        budget = size - _popcount(chosen)
        if budget <= 0:
            pruned += 1
            return
        if budget > 1 and _packing_bound(masked, alive, cyclic) > budget:
            pruned += 1
            return
        cycle = _bad_cycle(masked, alive, cyclic)
        branch = [vertex for vertex in cycle
                  if (allowed_mask >> vertex) & 1
                  and not (banned >> vertex) & 1]
        if not branch:
            pruned += 1  # this bad cycle cannot be hit
            return
        # Inclusion/exclusion over one cycle's vertices: branch i takes
        # cycle[i] and bans cycle[0..i-1], so every solution containing
        # some branch vertex is reached exactly once.
        newly_banned = banned
        for vertex in branch:
            descend(chosen | (1 << vertex), newly_banned)
            newly_banned |= 1 << vertex

    descend(0, 0)
    return solutions, explored, pruned


def _packing_bound(masked: _MaskedGraph, alive: int, cyclic: int) -> int:
    """Greedy vertex-disjoint bad-cycle count: a lower bound on how many
    more vertices any solution must still remove."""
    count = 0
    remaining = alive
    while cyclic & masked.bad_mask:
        cycle = _bad_cycle(masked, remaining, cyclic)
        count += 1
        for vertex in cycle:
            remaining &= ~(1 << vertex)
        cyclic = masked_cyclic_mask(masked.succ, remaining)
    return count


def _bad_cycle(masked: _MaskedGraph, alive: int,
               cyclic: int) -> list[int]:
    """A shortest cycle through the lowest-index live bad vertex."""
    region = alive & cyclic
    anchor_bit = region & masked.bad_mask
    anchor = (anchor_bit & -anchor_bit).bit_length() - 1
    if (masked.succ[anchor] >> anchor) & 1:
        return [anchor]
    # BFS back to the anchor; the shortest closed walk is a simple cycle.
    parent: dict[int, int] = {}
    frontier = [anchor]
    while frontier:
        next_frontier = []
        for node in frontier:
            successors = masked.succ[node] & region
            while successors:
                bit = successors & -successors
                successors &= successors - 1
                succ = bit.bit_length() - 1
                if succ == anchor:
                    cycle = [node]
                    while node != anchor:
                        node = parent[node]
                        cycle.append(node)
                    return cycle
                if succ not in parent and succ != anchor:
                    parent[succ] = node
                    next_frontier.append(succ)
        frontier = next_frontier
    raise AssertionError("anchor lies on a cycle by construction")


def _bits(mask: int) -> list[int]:
    indices = []
    while mask:
        bit = mask & -mask
        mask &= mask - 1
        indices.append(bit.bit_length() - 1)
    return indices


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


# ----------------------------------------------------------------------
# Reference oracle (the original exhaustive enumerator).
# ----------------------------------------------------------------------
def _is_feedback_vertex_set_naive(graph: Digraph,
                                  vertices: Iterable[Hashable],
                                  bad: Iterable[Hashable] | None) -> bool:
    removed = set(vertices)
    sub = graph.induced_subgraph(set(graph.nodes) - removed)
    bad_set = set(graph.nodes) if bad is None else set(bad)
    for component in cyclic_components(sub):
        if any(node in bad_set for node in component):
            return False
    return True


def minimal_feedback_vertex_sets_exhaustive(
        graph: Digraph,
        allowed: Iterable[Hashable] | None = None,
        bad: Iterable[Hashable] | None = None,
        max_sets: int | None = None,
) -> Iterator[frozenset[Hashable]]:
    """The original exhaustive subset enumeration, kept as the oracle
    the branch-and-bound search is differentially tested against."""
    pool = sorted(set(graph.nodes) if allowed is None else set(allowed),
                  key=repr)
    found: list[frozenset[Hashable]] = []
    emitted = 0
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            candidate = frozenset(combo)
            if any(prior <= candidate for prior in found):
                continue  # a subset already works => not minimal
            if _is_feedback_vertex_set_naive(graph, candidate, bad):
                found.append(candidate)
                yield candidate
                emitted += 1
                if max_sets is not None and emitted >= max_sets:
                    return
        # Nothing larger than the full pool can help.
    return
