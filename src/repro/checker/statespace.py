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
  automatically for symmetric :class:`RingInstance` objects; builds
  the rotation-symmetry quotient with ``symmetry=True``, the graph
  :func:`repro.checker.convergence.check_instance` decides on.
* ``"naive"`` — the original pure-Python interpreter over tuple
  states.  The reference implementation (the differential suite in
  ``tests/engine/`` asserts the kernel reproduces it state for state)
  and the only backend for duck-typed instances such as the token ring.

Both emit the same storage — CSR adjacency ``succ_off``/``succ_flat``
and one ``invariant`` byte per state, in the same state order — and
share one public surface: ``len()``, ``succ_off``, ``succ_flat``,
``invariant``, ``decode(index)``, ``index_of(state)``, ``scan``
(closure, illegitimate deadlocks and the ``¬I`` mask in one pass) and
``distances_to_invariant()``.  The global analyses run on these
arrays and decode a state only when it is a witness.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice
from typing import Sequence

from repro.obs import runtime as obs

BACKENDS = ("auto", "kernel", "naive")

# bytes.translate table mapping an invariant byte (0/1) to its negation.
_NEGATE = bytes([1]) + bytes(255)


@dataclass(frozen=True)
class GraphScan:
    """What one pass over a :class:`StateGraph`'s rows decides."""

    closed: bool
    """No transition leaves ``I(K)``."""
    invariant_count: int
    deadlocks: list[int]
    """Indices of the deadlocks outside ``I(K)``, ascending."""
    outside: bytes
    """One byte per state, 1 outside ``I(K)``: the mask livelock and
    ranking analyses restrict the graph to."""


class StateGraph:
    """The global transition graph of one protocol instance.

    States are numbered in ``instance.states()`` order (the kernel's
    packed codes follow it; the quotient keeps one representative per
    orbit, in code order).  The successors of state ``i`` are
    ``succ_flat[succ_off[i]:succ_off[i + 1]]`` and ``invariant[i]`` is
    its ``I(K)`` membership.  Construction visits every global state
    once and its successors once, and records the state count once, as
    the layer counter ``checker.states_explored``.

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
        preserved, at a ~K-fold state reduction.  The graph's states
        are then rotation orbits, ``space.orbit(i)`` lists the packed
        codes orbit ``i`` stands for, and a cycle of representatives
        witnesses a livelock only up to rotation.

    ``space`` is the kernel's :class:`~repro.engine.kernel.PackedSpace`
    (``None`` on the naive backend).
    """

    succ_off: Sequence[int]
    succ_flat: Sequence[int]
    invariant: Sequence[int]

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
        if use_kernel:
            self.backend = "kernel"
            self.space = space = build_space(instance, symmetry=symmetry)
            self.succ_off = space.succ_off
            self.succ_flat = space.succ_flat
            self.invariant = space.invariant
            self._decode = space.decode
            self._index_of = space.index_of
        else:
            self.backend = "naive"
            self.space = None
            states = list(instance.states())
            index = {state: i for i, state in enumerate(states)}
            succ_off = array("q", [0])
            succ_flat = array("q")
            invariant = bytearray(len(states))
            for i, state in enumerate(states):
                succ_flat.extend(index[t] for t in instance.successors(state))
                succ_off.append(len(succ_flat))
                invariant[i] = bool(instance.invariant_holds(state))
            self.succ_off, self.succ_flat = succ_off, succ_flat
            self.invariant = invariant
            self._decode = states.__getitem__
            self._index_of = index.__getitem__
        obs.metric("checker.states_explored", len(self))

    def __len__(self) -> int:
        return len(self.invariant)

    def decode(self, index: int):
        """The global state (quotient: orbit representative) *index*."""
        return self._decode(index)

    def index_of(self, state) -> int:
        """The index of *state* (quotient: representatives only);
        ``KeyError`` for a state outside the graph."""
        return self._index_of(state)

    # ------------------------------------------------------------------
    @cached_property
    def scan(self) -> GraphScan:
        """Closure, the illegitimate deadlocks and the ``¬I`` mask, from
        one pass over the rows (computed once, then cached)."""
        off, flat = self.succ_off, self.succ_flat
        inside = bytes(self.invariant)
        closed = True
        deadlocks = []
        start = off[0]
        for state, end in enumerate(islice(off, 1, None)):
            if inside[state]:
                if closed:
                    for position in range(start, end):
                        if not inside[flat[position]]:
                            closed = False
                            break
            elif start == end:
                deadlocks.append(state)
            start = end
        return GraphScan(closed=closed, invariant_count=inside.count(1),
                         deadlocks=deadlocks,
                         outside=inside.translate(_NEGATE))

    def distances_to_invariant(self) -> list[int | None]:
        """BFS distance (in transitions) from each state to ``I(K)``.

        ``None`` marks states from which no path into the invariant
        exists; 0 marks invariant states themselves.  On the rotation
        quotient these equal the full-space distances (rotations are
        automorphisms preserving ``I``).
        """
        pred_off, pred_flat = reverse_csr(self.succ_off, self.succ_flat)
        distance: list[int | None] = [None] * len(self)
        frontier = list(compress(range(len(self)), self.invariant))
        for state in frontier:
            distance[state] = 0
        depth = 0
        while frontier:
            depth += 1
            next_frontier = []
            for node in frontier:
                for position in range(pred_off[node], pred_off[node + 1]):
                    predecessor = pred_flat[position]
                    if distance[predecessor] is None:
                        distance[predecessor] = depth
                        next_frontier.append(predecessor)
            frontier = next_frontier
        return distance


def reverse_csr(succ_off: Sequence[int],
                succ_flat: Sequence[int]) -> tuple[array, array]:
    """The transposed CSR graph, by counting sort: row ``v`` of the
    result lists the sources of ``v``'s in-edges in ascending order."""
    n = len(succ_off) - 1
    pred_off = array("q", [0]) * (n + 1)
    for target in succ_flat:
        pred_off[target + 1] += 1
    for state in range(n):
        pred_off[state + 1] += pred_off[state]
    fill = pred_off[:-1]
    pred_flat = array("q", [0]) * len(succ_flat)
    start = succ_off[0]
    for source, end in enumerate(islice(succ_off, 1, None)):
        for position in range(start, end):
            target = succ_flat[position]
            pred_flat[fill[target]] = source
            fill[target] += 1
        start = end
    return pred_off, pred_flat
