"""Parameterized deadlock-freedom (Theorem 4.2).

A parameterized ring protocol ``p(K)`` has a global deadlock outside
``I(K)`` for *some* K **iff** the RCG induced over the local deadlocks of
the representative process contains a directed cycle through an
illegitimate local deadlock.

Beyond the boolean verdict, this module extracts:

* the offending cycles (the witnesses of Example 4.3, Figure 3),
* concrete deadlocked global states built from those cycles,
* the exact set of ring sizes that can deadlock (closed-walk lengths
  through illegitimate deadlocks) — note that, because closed walks may
  combine several cycles, this set is the *numerical-semigroup closure* of
  the cycle lengths anchored at shared vertices, not merely their
  multiples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.rcg import build_rcg
from repro.graphs import Digraph, simple_cycles
from repro.graphs.scc import masked_cyclic_mask
from repro.graphs.walks import closed_walk_lengths
from repro.protocol.localstate import LocalState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.ring import RingProtocol


@dataclass(frozen=True)
class DeadlockReport:
    """Outcome of the parameterized deadlock analysis.

    Attributes
    ----------
    deadlock_free:
        ``True`` iff ``p(K)`` has no global deadlock outside ``I(K)`` for
        any ``K`` (Theorem 4.2; exact, both directions).
    local_deadlocks:
        All local deadlock states of the representative process.
    illegitimate_deadlocks:
        The subset of local deadlocks violating ``LC_r``.
    witness_cycles:
        Simple cycles of the deadlock-induced RCG through an illegitimate
        deadlock (empty when deadlock-free).  Each cycle of length ``n``
        describes global deadlocks for every ring size that is a
        combination of available cycle lengths; at minimum, all multiples
        of ``n``.
    induced_rcg:
        The RCG induced over the local deadlocks.
    """

    deadlock_free: bool
    local_deadlocks: tuple[LocalState, ...]
    illegitimate_deadlocks: tuple[LocalState, ...]
    witness_cycles: tuple[tuple[LocalState, ...], ...]
    induced_rcg: Digraph = field(compare=False)

    def witness_state(self, cycle_index: int = 0,
                      repetitions: int = 1) -> tuple:
        """A concrete deadlocked global state from a witness cycle.

        The cycle is repeated *repetitions* times, giving a ring of size
        ``len(cycle) * repetitions``.  Raises ``ValueError`` when the
        resulting ring would be smaller than the read window (repeat more).
        """
        cycle = self.witness_cycles[cycle_index]
        walk = list(cycle) * repetitions
        return tuple(state.own for state in walk)


class DeadlockAnalyzer:
    """Decides deadlock-freedom of a ring protocol for every ring size."""

    def __init__(self, protocol: "RingProtocol",
                 max_witnesses: int = 32,
                 max_cycle_length: int = 24) -> None:
        self.protocol = protocol
        self.max_witnesses = max_witnesses
        self.max_cycle_length = max_cycle_length
        self._report: DeadlockReport | None = None

    # ------------------------------------------------------------------
    def analyze(self) -> DeadlockReport:
        """Run (or return the cached) analysis."""
        if self._report is not None:
            return self._report
        space = self.protocol.space
        deadlocks = space.deadlocks()
        illegitimate = tuple(s for s in deadlocks
                             if not self.protocol.is_legitimate(s))
        induced = build_rcg(space, vertices=deadlocks)

        offending: list[tuple[LocalState, ...]] = []
        bad_set = set(illegitimate)
        # A cycle through an illegitimate deadlock exists iff some cyclic
        # SCC of the induced RCG contains an illegitimate deadlock —
        # decided with one masked SCC pass over the bit-packed adjacency
        # (the local kernel's Theorem 4.2 primitive).
        index = {state: i for i, state in enumerate(deadlocks)}
        succ_masks = [0] * len(deadlocks)
        for source, target, _key in induced.edges():
            succ_masks[index[source]] |= 1 << index[target]
        bad_mask = 0
        for state in illegitimate:
            bad_mask |= 1 << index[state]
        alive = (1 << len(deadlocks)) - 1
        has_bad_cycle = bool(
            masked_cyclic_mask(succ_masks, alive) & bad_mask)
        if has_bad_cycle:
            for cycle in simple_cycles(induced,
                                       max_length=self.max_cycle_length):
                if any(node in bad_set for node in cycle):
                    offending.append(tuple(cycle))
                    if len(offending) >= self.max_witnesses:
                        break

        self._report = DeadlockReport(
            deadlock_free=not has_bad_cycle,
            local_deadlocks=deadlocks,
            illegitimate_deadlocks=illegitimate,
            witness_cycles=tuple(offending),
            induced_rcg=induced,
        )
        return self._report

    # ------------------------------------------------------------------
    def deadlocked_ring_sizes(self, upto: int) -> set[int]:
        """Exact ring sizes ``K <= upto`` with a global deadlock in ``¬I``.

        Computed as the lengths of closed walks of the deadlock-induced RCG
        through an illegitimate local deadlock, restricted to sizes at
        least the read-window width (smaller rings are degenerate).
        """
        report = self.analyze()
        lengths = closed_walk_lengths(
            report.induced_rcg, report.illegitimate_deadlocks, upto)
        width = self.protocol.process.window_width
        return {k for k in lengths if k >= width}

    def resolve_candidates(
            self, max_sets: int | None = None) -> list[frozenset[LocalState]]:
        """Minimal sets of illegitimate deadlocks whose resolution yields
        deadlock-freedom for all K (the ``Resolve`` sets of Section 6.1).

        Each returned set is a minimal feedback vertex set of the
        deadlock-induced RCG, drawn from ``¬LC_r``, breaking every cycle
        that passes through an illegitimate deadlock.  *max_sets* bounds
        the enumeration (the branch-and-bound search stops as soon as
        that many minimal sets are found).
        """
        from repro.graphs import minimal_feedback_vertex_sets

        report = self.analyze()
        return list(minimal_feedback_vertex_sets(
            report.induced_rcg,
            allowed=report.illegitimate_deadlocks,
            bad=report.illegitimate_deadlocks,
            max_sets=max_sets,
        ))


def analyze_deadlocks(protocol: "RingProtocol") -> DeadlockReport:
    """Convenience wrapper: run the Theorem 4.2 analysis on *protocol*."""
    return DeadlockAnalyzer(protocol).analyze()
