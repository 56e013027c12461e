"""Global livelock detection for a fixed ring size.

A livelock for ``I(K)`` is an infinite repetition of global states outside
``I(K)`` (Section 2.3) — equivalently, a cycle of ``Δ_p | ¬I``, found here
by SCC analysis of the CSR transition graph masked to ``¬I``.
"""

from __future__ import annotations

from repro.checker.statespace import StateGraph
from repro.graphs.cycles import csr_cycle_through
from repro.graphs.scc import csr_cyclic_components


def livelock_cycles(graph: StateGraph,
                    max_cycles: int = 8) -> list[list]:
    """Up to *max_cycles* witness cycles of ``Δ_p | ¬I``, as state lists.

    A returned cycle ``[s0, ..., sn]`` denotes the repeating computation
    ``s0 -> s1 -> ... -> sn -> s0`` entirely outside the invariant.  Empty
    result means the instance is livelock-free.  Each witness is the
    shortest cycle through the smallest state index of one cyclic
    component, components taken in Tarjan emission order; the walk
    stops once *max_cycles* are found.
    """
    off, flat = graph.succ_off, graph.succ_flat
    member = bytearray(len(graph))
    cycles = []
    for component in csr_cyclic_components(off, flat, graph.scan.outside):
        for node in component:
            member[node] = 1
        cycle = csr_cycle_through(off, flat, member, min(component))
        for node in component:
            member[node] = 0
        cycles.append([graph.decode(i) for i in cycle])
        if len(cycles) >= max_cycles:
            break
    return cycles


def has_livelock(graph: StateGraph) -> bool:
    """Whether any computation can cycle forever outside ``I(K)``."""
    components = csr_cyclic_components(graph.succ_off, graph.succ_flat,
                                       graph.scan.outside)
    return next(components, None) is not None
