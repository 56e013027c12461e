"""Global deadlock detection for a fixed ring size."""

from __future__ import annotations

from repro.checker.statespace import StateGraph


def illegitimate_deadlocks(graph: StateGraph) -> list:
    """Global deadlock states outside ``I(K)``.

    These are exactly the witnesses Theorem 4.2 predicts from local
    reasoning: a ring of local deadlocks with at least one illegitimate
    member.
    """
    return [graph.decode(i) for i in graph.scan.deadlocks]


def legitimate_deadlocks(graph: StateGraph) -> list:
    """Deadlocks inside ``I(K)`` (fixpoints — fine for *silent* protocols
    such as matching or coloring)."""
    off, inside = graph.succ_off, graph.invariant
    return [graph.decode(i) for i in range(len(graph))
            if inside[i] and off[i] == off[i + 1]]
