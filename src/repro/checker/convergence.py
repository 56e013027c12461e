"""Exact convergence checking for a fixed ring size (Proposition 2.1).

``strongly converges``: every computation from every state reaches ``I``.
``weakly converges``: from every state *some* computation reaches ``I``.
``self-stabilizing``: closed + strongly converging (Section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress

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
    deadlock_count: int
    """How many global deadlocks lie outside ``I(K)``: exact, whatever
    the witness cap."""
    deadlocks_outside: tuple
    """The first ``max_witnesses`` of those deadlocks in state order
    (ascending packed code), decoded."""
    livelock_cycles: tuple
    """Livelock witness cycles, at most ``max(max_witnesses, 1)``: a
    livelocked instance always names one."""
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
            f"  deadlocks outside I: {self.deadlock_count}",
            f"  livelocks: {len(self.livelock_cycles)}",
            f"  strong convergence: {self.strongly_converging}, "
            f"weak: {self.weakly_converging}",
            f"  worst-case recovery: "
            f"{self.worst_case_recovery_steps} steps",
        ]
        return "\n".join(lines)


MAX_WITNESSES = 8
"""The witness cap of :func:`check_instance` by default, and of every
sweep (part of its per-K cache key)."""


def check_instance(instance, max_witnesses: int = MAX_WITNESSES,
                   backend: str = "auto") -> GlobalReport:
    """Run the full global analysis on one protocol instance.

    *backend* selects the state-space engine (``"auto"`` picks the
    compiled kernel for symmetric ring instances).  On the kernel every
    verdict comes from the rotation quotient, and the report still
    describes the full space: state and deadlock counts add up orbit
    sizes, and the deadlock witnesses are the smallest codes of the
    deadlock orbits' rotations, chosen as integers from the first
    orbits and only then decoded.  Only a quotient with a livelock has
    the full graph built, to name the witness cycles (a cycle of orbits
    repeats only up to rotation).  *max_witnesses* caps both witness
    lists; the verdicts and ``deadlock_count`` never depend on it.  The
    report equals the naive backend's field for field.
    """
    from repro.engine.kernel import supports_kernel

    if max_witnesses < 0:
        raise ValueError(f"max_witnesses must be >= 0, not {max_witnesses}")
    size = getattr(instance, "size", -1)
    stats = EngineStats(work_items=1)
    with stats.stage("check", K=size, backend=backend):
        quotient = backend != "naive" and supports_kernel(instance)
        graph = StateGraph(instance, backend=backend, symmetry=quotient)
        scan = graph.scan
        distances = graph.distances_to_invariant()
        if quotient:
            space = graph.space
            state_count = space.full_states
            invariant_count = sum(
                len(space.orbit(i))
                for i in compress(range(len(graph)), graph.invariant))
            deadlock_count = sum(len(space.orbit(i)) for i in scan.deadlocks)
            # An orbit's codes are >= its representative and the
            # representatives ascend, so the first max_witnesses orbits
            # hold the max_witnesses smallest codes.
            head = sorted(chain.from_iterable(
                map(space.orbit, scan.deadlocks[:max_witnesses])))
            deadlocks = tuple(map(space.decode_code, head[:max_witnesses]))
            witness_graph = (StateGraph(instance, backend=backend)
                             if has_livelock(graph) else None)
            obs.annotate(orbits=len(graph))
        else:
            state_count = len(graph)
            invariant_count = scan.invariant_count
            deadlock_count = len(scan.deadlocks)
            deadlocks = tuple(map(graph.decode,
                                  scan.deadlocks[:max_witnesses]))
            witness_graph = graph
        cycles = () if witness_graph is None else tuple(
            tuple(c) for c in livelock_cycles(witness_graph,
                                              max_cycles=max_witnesses))
        weak = None not in distances
        worst = max(distances) if weak and distances else None
        obs.annotate(states=state_count)
    return GlobalReport(
        ring_size=size,
        state_count=state_count,
        invariant_count=invariant_count,
        closed=scan.closed,
        deadlock_count=deadlock_count,
        deadlocks_outside=deadlocks,
        livelock_cycles=cycles,
        strongly_converging=not deadlock_count and not cycles,
        weakly_converging=weak,
        worst_case_recovery_steps=worst,
        stats=stats,
    )
