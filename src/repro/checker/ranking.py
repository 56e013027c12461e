"""Ranking-function certificates for strong convergence.

The classical way to *design* convergence (layering / ranking methods
the paper's introduction surveys [9–12]) is a function that every step
outside the invariant strictly decreases.  Going the other way, for any
strongly convergent instance such a function always exists, and this
module extracts a canonical one:

    ρ(s) = length of the longest transition path from ``s`` that stays
           outside ``I`` (0 for states in ``I``)

``ρ`` is finite exactly when ``Δ_p | ¬I`` is acyclic (no livelocks), and
every move from a state outside ``I`` either enters ``I`` or strictly
decreases ρ — making ρ a *strict* ranking certificate whose maximum is
the worst-case recovery time under the worst possible daemon (compare
:meth:`GlobalReport.worst_case_recovery_steps`, which is the best-daemon
distance).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.checker.statespace import StateGraph
from repro.graphs.scc import csr_components


@dataclass(frozen=True)
class RankingCertificate:
    """A strict ranking over one instance's state space.

    ``ranks[i]`` is ρ of state index ``i`` in the underlying
    :class:`StateGraph`'s ordering.
    """

    graph: StateGraph
    ranks: tuple[int, ...]

    @property
    def max_rank(self) -> int:
        """Worst-case recovery steps under the worst daemon."""
        return max(self.ranks)

    def rank_of(self, state) -> int:
        return self.ranks[self.graph.index_of(state)]

    def layers(self) -> dict[int, int]:
        """Histogram: rank value -> number of states at that rank
        (the "convergence stairs")."""
        histogram: dict[int, int] = {}
        for rank in self.ranks:
            histogram[rank] = histogram.get(rank, 0) + 1
        return dict(sorted(histogram.items()))


def compute_ranking(graph: StateGraph) -> RankingCertificate | None:
    """Extract the longest-escape ranking, or ``None`` when the instance
    is not strongly convergent (a deadlock or cycle outside ``I``)."""
    scan = graph.scan
    if scan.deadlocks:
        return None  # deadlock outside I
    off, flat, outside = graph.succ_off, graph.succ_flat, scan.outside
    ranks = [0] * len(graph)
    # Longest path over the ¬I DAG: Tarjan emits components in reverse
    # topological order, so every ¬I successor is ranked first.  With
    # no deadlock outside I no root is skipped, so every ¬I state is
    # emitted.
    for component in csr_components(off, flat, outside):
        if len(component) > 1:
            return None  # livelock: no finite ranking exists
        node = component[0]
        best = 0
        for position in range(off[node], off[node + 1]):
            succ = flat[position]
            if succ == node:
                return None  # a self-loop outside I is a livelock too
            step = ranks[succ] + 1 if outside[succ] else 1
            if step > best:
                best = step
        ranks[node] = best
    return RankingCertificate(graph=graph, ranks=tuple(ranks))


def verify_ranking(graph: StateGraph,
                   ranks: tuple[int, ...] | list[int]) -> bool:
    """Independently check that *ranks* is a valid strict ranking:

    * states in ``I`` have rank 0;
    * every state outside ``I`` has at least one move, and **every** of
      its moves either enters ``I`` or strictly decreases the rank.

    A valid ranking witnesses strong convergence (Proposition 2.1) —
    this is the 'certificate checking' half of ranking-based design.
    """
    if len(ranks) != len(graph):
        return False
    off, flat, inside = graph.succ_off, graph.succ_flat, graph.invariant
    for index in range(len(graph)):
        if inside[index]:
            if ranks[index] != 0:
                return False
            continue
        if ranks[index] <= 0 or off[index] == off[index + 1]:
            return False
        for position in range(off[index], off[index + 1]):
            succ = flat[position]
            if not inside[succ] and ranks[succ] >= ranks[index]:
                return False
    return True
