"""Contiguous-trail search (Lemma 5.12 / Theorem 5.14).

A *contiguous livelock* with ``|E|`` enablements in a ring of size ``K``
projects onto the LTG as a closed structure built from *rounds*.  One round
is the rightmost enablement propagating ``K - |E|`` times and then control
crossing the segment of ``|E|`` adjacent enablements::

    round pattern =  T (S T)^{K-|E|-1}  S^{|E|}

where ``T`` traverses a t-arc (a process executes its local transition) and
``S`` traverses an s-arc (control passes to the successor's local state).
Every vertex entered by the trailing ``S^{|E|}`` walk is an *enablement*
and must therefore have an outgoing t-arc among the trail's t-arcs.

(The per-round count of s-arcs is ``K - 1``; the paper's own worked
agreement trail ``t,s,s,t,s,s`` for ``K=3, |E|=2`` matches this pattern.
For ``|E| = 1`` the pattern degenerates to the plain t/s alternation of
Lemma 5.12, item 1.)

The search: for each ``(K, |E|)`` within bounds, build the **product
graph** of (local state, phase-in-round) with arcs restricted to the
allowed t-arc set, and look for a cyclic SCC that

1. visits an illegitimate local state (Theorem 5.14, item 1), and
2. uses the allowed t-arcs **exactly** (the trail's t-arcs are the
   candidate pseudo-livelock and nothing else — Theorem 5.14, item 2).

A cyclic SCC with those properties supports a closed walk of the round
pattern; searching walks rather than edge-disjoint trails over-approximates
Lemma 5.12's trails, so *absence* of any match soundly certifies
livelock-freedom while a match only means "cannot conclude" (as the
sum-not-two example of Section 6.2 illustrates: its trail is spurious).

Every round pattern maps onto one K-free product, the **three-phase**
product of :data:`K_FREE_PHASES` (T, S, S!), by sending each phase to its
kind; a match at any ``(K, |E|)`` maps into a match there, which also
holds an S! node.  :meth:`ContiguousTrailSearcher.forms_trail` searches
that product, so no match there certifies every K at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable

from repro.core.ltg import S_ARC, build_ltg
from repro.graphs import Digraph
from repro.graphs.scc import strongly_connected_components
from repro.protocol.actions import LocalTransition
from repro.protocol.localstate import LocalState, LocalStateSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.ring import RingProtocol

T_PHASE = "T"
S_PHASE = "S"
S_SEGMENT_PHASE = "S!"  # trailing s-arc: target must be t-enabled

#: The K-free product: each phase's kind and successor phases.  A t-arc
#: leads from T to S or S!, an s-arc from S to T, and an s-arc into a
#: t-enabled state from S! to S! or T.
K_FREE_PHASES = ((T_PHASE, (1, 2)), (S_PHASE, (0,)),
                 (S_SEGMENT_PHASE, (2, 0)))


def round_pattern(ring_size: int, enablements: int) -> list[str]:
    """The per-round phase pattern for ``(K, |E|)``.

    >>> round_pattern(4, 1)
    ['T', 'S', 'T', 'S', 'T', 'S!']
    >>> round_pattern(3, 2)
    ['T', 'S!', 'S!']
    """
    if not 1 <= enablements < ring_size:
        raise ValueError(
            f"need 1 <= |E| < K, got |E|={enablements}, K={ring_size}")
    pattern = [T_PHASE]
    for _ in range(ring_size - enablements - 1):
        pattern.extend([S_PHASE, T_PHASE])
    pattern.extend([S_SEGMENT_PHASE] * enablements)
    return pattern


@dataclass(frozen=True)
class TrailWitness:
    """A contiguous-trail candidate found in the LTG.

    Attributes
    ----------
    ring_size, enablements:
        The ``(K, |E|)`` of the round pattern the trail follows.  The same
        LTG structure recurs at every multiple of the round, so a witness
        at ``(K, |E|)`` indicts the whole parameter family.  Both are
        ``None`` for a K-free match with no trail up to the bound
        searched.
    t_arcs:
        The trail's t-arcs (the candidate pseudo-livelock).
    states:
        The local states visited by the witnessing SCC.
    illegitimate_states:
        The visited states violating ``LC_r`` (non-empty by construction).
    """

    ring_size: int | None
    enablements: int | None
    t_arcs: frozenset[LocalTransition]
    states: tuple[LocalState, ...]
    illegitimate_states: tuple[LocalState, ...]

    def __str__(self) -> str:
        arcs = ", ".join(sorted(str(t) for t in self.t_arcs))
        if self.ring_size is None:
            return f"trail(no K within the bound, t-arcs: {arcs})"
        return (f"trail(K={self.ring_size}, |E|={self.enablements}, "
                f"t-arcs: {arcs})")


def trail_reason(t_arcs: Iterable[LocalTransition], ring_size: int,
                 enablements: int) -> str:
    """The synthesis rejection of a support whose t-arcs form a
    contiguous trail at ``(K, |E|) = (ring_size, enablements)``."""
    return ("pseudo-livelock {"
            + ", ".join(sorted(t.label or str(t) for t in t_arcs))
            + f"}} forms a contiguous trail (K={ring_size}, "
              f"|E|={enablements})")


class ContiguousTrailSearcher:
    """Searches an LTG for contiguous trails with a given t-arc support.

    The naive reference of the local kernel
    (:mod:`repro.engine.localkernel`): every query builds a fresh
    ``Digraph`` product.  :meth:`find_trail` scans the round patterns
    up to ``max_ring_size``; :meth:`forms_trail` searches the K-free
    three-phase product.
    """

    def __init__(self, protocol: "RingProtocol",
                 max_ring_size: int = 9) -> None:
        if max_ring_size < 2:
            raise ValueError("max_ring_size must be at least 2")
        self.protocol = protocol
        self.space: LocalStateSpace = protocol.space
        self.max_ring_size = max_ring_size
        ltg = build_ltg(self.space, transitions=())
        # s-adjacency, computed once; t-arcs vary per query.
        self._s_succ: dict[LocalState, list[LocalState]] = {
            state: [target for target in ltg.successors(state)
                    if S_ARC in ltg.edge_keys(state, target)]
            for state in self.space.states
        }
        self._illegitimate = frozenset(protocol.illegitimate_states())
        # Per-phase-table s-arc layers, built on first use and reused
        # across every support queried on this searcher.
        self._layers: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    def find_trail(self, t_arc_support: Iterable[LocalTransition],
                   ) -> TrailWitness | None:
        """A trail whose t-arcs are exactly *t_arc_support*, or ``None``.

        Scans ``(K, |E|)`` with ``2 <= K <= max_ring_size`` and
        ``1 <= |E| < K``; returns the first witness found (smallest K,
        then smallest |E|).
        """
        support = frozenset(t_arc_support)
        if not support:
            return None
        for ring_size in range(2, self.max_ring_size + 1):
            for enablements in range(1, ring_size):
                pattern = round_pattern(ring_size, enablements)
                phases = tuple((kind, ((phase + 1) % len(pattern),))
                               for phase, kind in enumerate(pattern))
                witness = self._search(support, phases)
                if witness is not None:
                    return replace(witness, ring_size=ring_size,
                                   enablements=enablements)
        return None

    def exists_trail(self,
                     t_arc_support: Iterable[LocalTransition]) -> bool:
        """Whether a contiguous trail with exactly this support exists."""
        return self.find_trail(t_arc_support) is not None

    def forms_trail(self, t_arc_support: Iterable[LocalTransition],
                    ) -> TrailWitness | None:
        """The K-free check of one support: a witness (``ring_size`` and
        ``enablements`` ``None``) when its three-phase product has a
        matching component, else ``None``, which rules out a trail at
        every K."""
        support = frozenset(t_arc_support)
        if not support:
            return None
        return self._search(support, K_FREE_PHASES)

    # ------------------------------------------------------------------
    def _phase_layers(self, phases: tuple) -> tuple:
        """The product-graph layers of one phase table.

        *phases* lists each phase's ``(kind, successor phases)``.  The
        s-arc layers do not depend on the queried support, so their
        edges — product-graph node pairs included — are materialized
        once per table and cached; ``_search`` then only filters
        trailing-segment edges by the support's t-sources and inserts.
        Each layer is ``(kind, phase, next_phases, edges)`` with
        ``edges = ((source_node, target_node, target_state), ...)``
        (empty for T layers, whose edges are support-dependent).
        """
        cached = self._layers.get(phases)
        if cached is not None:
            return cached
        layers = []
        for phase, (kind, next_phases) in enumerate(phases):
            edges = () if kind == T_PHASE else tuple(
                ((source, phase), (target, next_phase), target)
                for source, targets in self._s_succ.items()
                for target in targets
                for next_phase in next_phases)
            layers.append((kind, phase, next_phases, edges))
        cached = tuple(layers)
        self._layers[phases] = cached
        return cached

    def _search(self, support: frozenset[LocalTransition],
                phases: tuple) -> TrailWitness | None:
        t_by_source: dict[LocalState, list[LocalTransition]] = {}
        for transition in support:
            t_by_source.setdefault(transition.source, []).append(transition)

        product = Digraph()
        segment = set()
        for kind, phase, next_phases, edges in self._phase_layers(phases):
            if kind == T_PHASE:
                for transition in support:
                    for next_phase in next_phases:
                        product.add_edge((transition.source, phase),
                                         (transition.target, next_phase),
                                         key=transition)
                continue
            if kind == S_SEGMENT_PHASE:
                segment.add(phase)
            for source_node, target_node, target in edges:
                if kind == S_PHASE or target in t_by_source:
                    product.add_edge(source_node, target_node, key=S_ARC)

        for component in strongly_connected_components(product):
            members = set(component)
            if len(component) == 1:
                node = component[0]
                if not product.has_edge(node, node):
                    continue
            used: set[LocalTransition] = set()
            states: set[LocalState] = set()
            for node in members:
                states.add(node[0])
                for succ in product.successors(node):
                    if succ in members:
                        for key in product.edge_keys(node, succ):
                            if isinstance(key, LocalTransition):
                                used.add(key)
            if used != set(support):
                continue
            illegitimate = tuple(sorted(states & self._illegitimate))
            if not illegitimate:
                continue
            if not any(phase in segment for _state, phase in members):
                continue
            return TrailWitness(
                ring_size=None,
                enablements=None,
                t_arcs=support,
                states=tuple(sorted(states)),
                illegitimate_states=illegitimate,
            )
        return None
