"""Exact convergence checking for a fixed ring size (Proposition 2.1).

``strongly converges``: every computation from every state reaches ``I``.
``weakly converges``: from every state *some* computation reaches ``I``.
``self-stabilizing``: closed + strongly converging (Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.checker.deadlock import illegitimate_deadlocks
from repro.checker.livelock import has_livelock, livelock_cycles
from repro.checker.statespace import StateGraph
from repro.engine.stats import EngineStats
from repro.obs import runtime as obs


def is_closed(graph: StateGraph) -> bool:
    """Whether ``I(K)`` is closed in the protocol (no transition leaves
    the invariant)."""
    return graph.scan.closed


def strongly_converges(graph: StateGraph) -> bool:
    """No deadlock and no livelock outside ``I(K)`` (Proposition 2.1)."""
    if graph.scan.deadlocks:
        return False
    return not has_livelock(graph)


def weakly_converges(graph: StateGraph) -> bool:
    """Every state has *some* path into ``I(K)``."""
    return None not in graph.distances_to_invariant()


def is_self_stabilizing(graph: StateGraph) -> bool:
    """Closure plus strong convergence."""
    return is_closed(graph) and strongly_converges(graph)


@dataclass(frozen=True)
class GlobalReport:
    """Everything the global checker determines about one instance."""

    ring_size: int
    state_count: int
    invariant_count: int
    closed: bool
    deadlocks_outside: tuple
    livelock_cycles: tuple
    strongly_converging: bool
    weakly_converging: bool
    worst_case_recovery_steps: int | None
    """Longest shortest path from any state into ``I(K)``; ``None`` when
    some state cannot reach the invariant at all."""

    stats: EngineStats | None = field(default=None, compare=False,
                                      repr=False)
    """Backend instrumentation (kernel compile/encode counters, wall
    time); excluded from equality so verdict comparisons stay exact."""

    @property
    def self_stabilizing(self) -> bool:
        return self.closed and self.strongly_converging

    def summary(self) -> str:
        lines = [
            f"K={self.ring_size}: {self.state_count} states, "
            f"{self.invariant_count} in I",
            f"  closed: {self.closed}",
            f"  deadlocks outside I: {len(self.deadlocks_outside)}",
            f"  livelocks: {len(self.livelock_cycles)}",
            f"  strong convergence: {self.strongly_converging}, "
            f"weak: {self.weakly_converging}",
            f"  worst-case recovery: "
            f"{self.worst_case_recovery_steps} steps",
        ]
        return "\n".join(lines)


def check_instance(instance, max_witnesses: int = 8,
                   backend: str = "auto",
                   symmetry: bool = False) -> GlobalReport:
    """Run the full global analysis on one protocol instance.

    *backend* selects the state-space engine (``"auto"`` picks the
    compiled kernel for symmetric ring instances); ``symmetry`` runs
    on the rotation quotient — every verdict field and
    ``worst_case_recovery_steps`` are preserved, while state/witness
    counts then refer to rotation orbits (and a livelock cycle
    witnesses repetition up to rotation).
    """
    stats = EngineStats(work_items=1)
    with stats.stage("check", K=getattr(instance, "size", -1),
                     backend=backend, symmetry=symmetry):
        graph = StateGraph(instance, backend=backend, symmetry=symmetry)
        scan = graph.scan
        deadlocks = tuple(illegitimate_deadlocks(graph))
        cycles = tuple(tuple(c) for c in livelock_cycles(
            graph, max_cycles=max_witnesses))
        distances = graph.distances_to_invariant()
        weak = None not in distances
        worst = max(distances) if weak and distances else None
        obs.annotate(states=len(graph))
    return GlobalReport(
        ring_size=getattr(instance, "size", -1),
        state_count=len(graph),
        invariant_count=scan.invariant_count,
        closed=scan.closed,
        deadlocks_outside=deadlocks,
        livelock_cycles=cycles,
        strongly_converging=not deadlocks and not cycles,
        weakly_converging=weak,
        worst_case_recovery_steps=worst,
        stats=stats,
    )
