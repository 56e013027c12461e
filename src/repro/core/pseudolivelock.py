"""Pseudo-livelocks (Definition 5.13).

A *pseudo-livelock* of a process is a set of its local transitions whose
projection on the writable variables forms a repetitive sequence of values:
chaining the (old value, new value) pairs yields a cycle.  Pseudo-livelocks
are the local shadow every real livelock must cast (Theorem 5.14, item 2) —
but casting the shadow does not imply a livelock, hence "pseudo".

Operationally, build the **write-projection graph**: nodes are owned-cell
values, and each transition contributes an arc ``old_cell -> new_cell``
keyed by the transition.  Then:

* a transition set *contains* a pseudo-livelock iff that graph has a
  directed cycle;
* the *elementary* pseudo-livelocks are the simple cycles of that graph;
* a set *is* (entirely) pseudo-livelocking iff every arc lies on a cycle —
  equivalently, every arc lies inside a cyclic SCC.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ReproError
from repro.graphs import Digraph, has_cycle
from repro.graphs.cycles import simple_edge_cycles
from repro.graphs.scc import strongly_connected_components
from repro.protocol.actions import LocalTransition


#: The default cap on the support closure of
#: :func:`pseudo_livelock_supports` (the lattice search uses it too).
MAX_SUPPORTS = 4096


class SupportExplosion(ReproError):
    """The union lattice of elementary pseudo-livelocks is too large to
    enumerate; callers should degrade to a conservative verdict."""


def explosion_reason(max_supports: int = MAX_SUPPORTS) -> str:
    """The message of the :class:`SupportExplosion` a closure capped at
    *max_supports* raises (and a synthesis rejection's reason)."""
    return (f"more than {max_supports} pseudo-livelock supports; "
            f"raise max_supports or reduce the candidate set")


def write_projection_graph(
        transitions: Iterable[LocalTransition]) -> Digraph:
    """The write-projection multigraph of *transitions*.

    Nodes are owned cells; each transition adds the arc
    ``source.own -> target.own`` keyed by the transition itself, so
    parallel projections stay distinguishable.
    """
    graph = Digraph()
    for transition in transitions:
        graph.add_edge(transition.source.own, transition.target.own,
                       key=transition)
    return graph


def has_pseudo_livelock(transitions: Iterable[LocalTransition]) -> bool:
    """Whether some subset of *transitions* forms a pseudo-livelock."""
    return has_cycle(write_projection_graph(transitions))


def elementary_pseudo_livelocks(
        transitions: Iterable[LocalTransition],
) -> list[frozenset[LocalTransition]]:
    """The minimal pseudo-livelock subsets of *transitions*.

    These are the simple cycles of the write-projection graph, resolved
    down to individual transitions (two transitions with the same value
    projection give two distinct pseudo-livelocks).
    """
    graph = write_projection_graph(transitions)
    result: list[frozenset[LocalTransition]] = []
    for edge_cycle in simple_edge_cycles(graph):
        subset = frozenset(key for _s, _t, key in edge_cycle)
        if subset not in result:
            result.append(subset)
    return result


def pseudo_livelock_supports(
        transitions: Iterable[LocalTransition],
        max_supports: int = MAX_SUPPORTS,
) -> list[frozenset[LocalTransition]]:
    """All transition sets that *entirely* form pseudo-livelocks.

    Theorem 5.14 requires the t-arcs of a contiguous trail to form
    pseudo-livelocks — i.e. the trail's full t-arc set must decompose into
    value cycles (every t-arc on a cycle of the set's own write-projection
    graph).  These candidate sets are exactly the unions of elementary
    pseudo-livelocks; this function enumerates those unions (deduplicated,
    capped at *max_supports* to bound pathological inputs).
    """
    elements = elementary_pseudo_livelocks(transitions)
    supports: list[frozenset[LocalTransition]] = []
    seen: set[frozenset[LocalTransition]] = set()
    frontier: list[frozenset[LocalTransition]] = [frozenset()]
    seen.add(frozenset())
    for element in elements:
        next_frontier = list(frontier)
        for existing in frontier:
            union = existing | element
            if union not in seen:
                seen.add(union)
                next_frontier.append(union)
                if len(seen) > max_supports:
                    raise SupportExplosion(explosion_reason(max_supports))
        frontier = next_frontier
    supports = [s for s in frontier if s]
    supports.sort(key=lambda s: (len(s), sorted(repr(t) for t in s)))
    return supports


def cyclic_transitions(
        transitions: Iterable[LocalTransition],
) -> frozenset[LocalTransition]:
    """The transitions that lie on a cycle of the set's own
    write-projection graph: the union of every support inside the set
    (empty when it has no pseudo-livelock)."""
    transitions = list(transitions)
    graph = write_projection_graph(transitions)
    component_of: dict = {}
    for component in strongly_connected_components(graph):
        members = frozenset(component)
        for node in members:
            component_of[node] = members
    # An arc lies on a cycle iff its ends share a component (a
    # self-loop is a cycle of its own).
    return frozenset(
        transition for transition in transitions
        if transition.target.own in component_of[transition.source.own])


def is_pseudo_livelock_support(
        transitions: Iterable[LocalTransition]) -> bool:
    """Whether *every* transition lies on a cycle of the set's own
    write-projection graph (the set "forms pseudo-livelocks")."""
    transitions = frozenset(transitions)
    return bool(transitions) and cyclic_transitions(transitions) \
        == transitions
