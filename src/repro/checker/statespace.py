"""Explicit global state graph of a concrete protocol instance.

Works with any object exposing the :class:`~repro.protocol.instance.
RingInstance` interface (``states()``, ``successors(state)``,
``invariant_holds(state)``) — the Dijkstra token ring of
:mod:`repro.protocols.token_ring` plugs in the same way despite its
distinguished root process.

Two backends build the graph:

* ``"kernel"`` — the compiled bit-packed engine of
  :mod:`repro.engine.kernel`: guards compile once into a flat local
  transition table, global states are base-``|C|`` packed integers,
  adjacency and invariant flags live in flat arrays.  Selected
  automatically for symmetric :class:`RingInstance` objects; supports
  the opt-in rotation-symmetry quotient (``symmetry=True``).
* ``"naive"`` — the original pure-Python interpreter over tuple
  states.  The reference implementation (the differential suite in
  ``tests/engine/`` asserts the kernel reproduces it state for state)
  and the only backend for duck-typed instances such as the token ring.

Both populate the same public surface: ``states``, ``index``,
``successors``, ``in_invariant``, ``invariant_indices``,
``deadlock_indices``, ``predecessors_map``, ``restricted_digraph``,
``distances_to_invariant``.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.graphs import Digraph

BACKENDS = ("auto", "kernel", "naive")


class StateGraph:
    """The global transition graph of one protocol instance.

    States are interned to integer indices; the invariant membership of
    every state is precomputed.  Construction visits every global state
    once and its successors once.

    Parameters
    ----------
    instance:
        The protocol instance to explore.
    backend:
        ``"auto"`` (kernel when the instance supports it), ``"kernel"``
        (raise if unsupported) or ``"naive"``.
    symmetry:
        Quotient the space by ring rotations (kernel only).  Rotations
        are automorphisms of symmetric rings, so deadlock existence,
        livelock existence, closure, weak convergence and distances to
        the invariant — hence every convergence verdict — are
        preserved, at a ~K-fold state reduction.  State *counts* then
        refer to rotation orbits, and a cycle of representatives
        witnesses a livelock only up to rotation.
    """

    def __init__(self, instance, backend: str = "auto",
                 symmetry: bool = False) -> None:
        from repro.engine.kernel import build_space, supports_kernel

        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; "
                             f"choose from {BACKENDS}")
        self.instance = instance
        compilable = supports_kernel(instance)
        if backend == "kernel" and not compilable:
            raise ValueError(
                f"backend='kernel' requires a symmetric RingInstance, "
                f"got {type(instance).__name__}")
        use_kernel = compilable and backend != "naive"
        if symmetry and not use_kernel:
            raise ValueError("the rotation-symmetry quotient requires "
                             "the kernel backend")
        self.symmetry = bool(symmetry)
        self._packed = None
        self._states: list[Hashable] | None = None
        self._index: dict[Hashable, int] | None = None
        self._successors: list[list[int]] | None = None
        self._in_invariant: list[bool] | None = None
        self._predecessors: list[list[int]] | None = None
        if use_kernel:
            self.backend = "kernel"
            self._packed = build_space(instance, symmetry=symmetry)
        else:
            self.backend = "naive"
            states = list(instance.states())
            index = {state: i for i, state in enumerate(states)}
            self._states = states
            self._index = index
            self._successors = [
                [index[t] for t in instance.successors(state)]
                for state in states]
            self._in_invariant = [bool(instance.invariant_holds(state))
                                  for state in states]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._packed is not None:
            return len(self._packed)
        return len(self._states)

    @property
    def states(self) -> list[Hashable]:
        """All states (quotient: orbit representatives), by index.

        Kernel-backed graphs decode lazily: verdict-only analyses never
        touch tuple states at all.
        """
        if self._states is None:
            self._states = [self._packed.decode(i)
                            for i in range(len(self._packed))]
        return self._states

    @property
    def index(self) -> dict[Hashable, int]:
        """State -> index (quotient: representatives only)."""
        if self._index is None:
            self._index = {state: i
                           for i, state in enumerate(self.states)}
        return self._index

    @property
    def successors(self) -> list[list[int]]:
        """Per-state successor index lists."""
        if self._successors is None:
            self._successors = self._packed.successor_lists()
        return self._successors

    @property
    def in_invariant(self) -> list[bool]:
        """Per-state ``I(K)`` membership flags."""
        if self._in_invariant is None:
            self._in_invariant = [bool(b)
                                  for b in self._packed.invariant]
        return self._in_invariant

    @property
    def invariant_indices(self) -> list[int]:
        """Indices of states inside ``I(K)``."""
        if self._packed is not None:
            return [i for i, member in enumerate(self._packed.invariant)
                    if member]
        return [i for i, member in enumerate(self.in_invariant)
                if member]

    def deadlock_indices(self) -> list[int]:
        """Indices of states with no outgoing transition."""
        if self._packed is not None:
            off = self._packed.succ_off
            return [i for i in range(len(self._packed))
                    if off[i] == off[i + 1]]
        return [i for i, succ in enumerate(self.successors) if not succ]

    # ------------------------------------------------------------------
    def predecessors_map(self) -> list[list[int]]:
        """Reverse adjacency (computed once, then cached).

        Both :meth:`distances_to_invariant` and the ranking extractor
        call this; callers must not mutate the returned lists.
        """
        if self._predecessors is not None:
            return self._predecessors
        reverse: list[list[int]] = [[] for _ in range(len(self))]
        if self._packed is not None:
            off, flat = self._packed.succ_off, self._packed.succ_flat
            for source in range(len(self._packed)):
                for position in range(off[source], off[source + 1]):
                    reverse[flat[position]].append(source)
        else:
            for source, targets in enumerate(self.successors):
                for target in targets:
                    reverse[target].append(source)
        self._predecessors = reverse
        return reverse

    def restricted_digraph(self, keep: Iterable[int]) -> Digraph:
        """The transition :class:`Digraph` induced over state indices
        *keep* (used for livelock detection on ``Δ_p | ¬I``)."""
        keep_set = set(keep)
        graph = Digraph(nodes=keep_set)
        if self._packed is not None:
            off, flat = self._packed.succ_off, self._packed.succ_flat
            for source in keep_set:
                for position in range(off[source], off[source + 1]):
                    target = flat[position]
                    if target in keep_set:
                        graph.add_edge(source, target)
            return graph
        for source in keep_set:
            for target in self.successors[source]:
                if target in keep_set:
                    graph.add_edge(source, target)
        return graph

    def distances_to_invariant(self) -> list[int | None]:
        """BFS distance (in transitions) from each state to ``I(K)``.

        ``None`` marks states from which no path into the invariant
        exists; 0 marks invariant states themselves.  On the rotation
        quotient these equal the full-space distances (rotations are
        automorphisms preserving ``I``).
        """
        reverse = self.predecessors_map()
        distance: list[int | None] = [None] * len(self)
        frontier = []
        for i in self.invariant_indices:
            distance[i] = 0
            frontier.append(i)
        depth = 0
        while frontier:
            depth += 1
            next_frontier = []
            for node in frontier:
                for predecessor in reverse[node]:
                    if distance[predecessor] is None:
                        distance[predecessor] = depth
                        next_frontier.append(predecessor)
            frontier = next_frontier
        return distance
