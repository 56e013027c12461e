"""Compiled bit-packed kernel for the *local* reasoning pipeline.

:mod:`repro.engine.kernel` makes the global checker fast; this module
does the same for the paper's local side — the side Theorems
4.2/5.14 and the Section 6 synthesis loop actually run on.  The naive
contiguous-trail search (:mod:`repro.core.trail`) rebuilds a fresh
``Digraph`` product of (local state, phase) for every queried t-arc
support and every round pattern; during synthesis that rebuild
happens for every candidate combination.  The kernel removes all of the
per-query graph construction:

* local states are integer-indexed **once per protocol** (in
  ``space.states`` order, which is the sorted order of
  :class:`~repro.protocol.localstate.LocalState`);
* the RCG/LTG s-adjacency is a list of Python-int bitmasks
  (:func:`repro.core.rcg.continuation_masks`), computed once;
* every product graph is *implicit* — node ``phase * n + state``,
  successors via shift-and-intersect — and one masked iterative Tarjan
  pass (:func:`repro.graphs.scc.bitmask_components`) walks it, with no
  dictionaries of tuples, no ``Digraph``, and no hashing of
  :class:`~repro.protocol.localstate.LocalState` objects in the hot
  loop.

Two questions run on that pass:

* :meth:`LocalKernel.livelock_support` — the livelock certificate for
  every K at once: one SCC refinement over the three-phase (T, S, S!)
  product of the whole transition set, which finds a support with a
  K-free match without enumerating supports (``docs/THEORY.md``,
  "The search");
* :meth:`LocalKernel.find_trail` — the bounded ``(K, |E|)`` scan of one
  support: each round pattern compiles to a :class:`TrailSkeleton`
  holding the phase kinds and premultiplied s-arc layer masks, cached
  per kernel and shared across every support ever queried, and whole
  answers are memoized on the support's index fingerprint and bound,
  so permuted candidate combinations that share a support never
  re-search.  Synthesis judges candidates with it, and the certifier
  names a matched support's ``(K, |E|)`` with it.

The bounded scan is *behaviorally identical* to the naive searcher:
same scan order over ``(K, |E|)``, same "uses the support exactly +
visits an illegitimate state" acceptance test, witnesses carrying the
same ``(ring_size, enablements, t_arcs)``.  Because the s-adjacency and
the legitimacy predicate depend only on the process template — not on
the transition set — one kernel built from a base protocol serves every
candidate-extended variant the synthesizer materializes, which is what
makes the synthesis loop cheap.  The differential matrix
(``tests/differential/``) pins all of this to the naive implementation.
"""

from __future__ import annotations

import time
import weakref
from typing import TYPE_CHECKING, Iterable

from repro.core.ltg import indexed_arcs
from repro.core.pseudolivelock import cyclic_transitions
from repro.core.rcg import continuation_masks
from repro.graphs.scc import bitmask_components
from repro.obs import runtime as obs
from repro.core.trail import (
    S_PHASE,
    S_SEGMENT_PHASE,
    T_PHASE,
    TrailWitness,
    round_pattern,
)
from repro.protocol.actions import LocalTransition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.localstate import LocalState
    from repro.protocol.ring import RingProtocol

_T, _S, _S_SEGMENT = 0, 1, 2
_KIND_CODE = {T_PHASE: _T, S_PHASE: _S, S_SEGMENT_PHASE: _S_SEGMENT}


class TrailSkeleton:
    """One compiled ``(K, |E|)`` round pattern.

    ``kinds[phase]`` is the phase's code (T / S / S!), ``shifts[phase]``
    is ``next_phase * n`` (the amount a state-successor mask is shifted
    to land in the next phase layer), and ``s_layers[phase]`` holds the
    premultiplied per-state successor masks for plain S phases (``None``
    for T and S! phases, whose successors depend on the support).
    """

    __slots__ = ("ring_size", "enablements", "period", "kinds", "shifts",
                 "s_layers", "t_phases")

    def __init__(self, ring_size: int, enablements: int,
                 s_masks: list[int], n: int) -> None:
        pattern = round_pattern(ring_size, enablements)
        self.ring_size = ring_size
        self.enablements = enablements
        self.period = len(pattern)
        self.kinds = tuple(_KIND_CODE[kind] for kind in pattern)
        self.shifts = tuple(((phase + 1) % self.period) * n
                            for phase in range(self.period))
        self.s_layers: tuple[tuple[int, ...] | None, ...] = tuple(
            tuple(mask << self.shifts[phase] for mask in s_masks)
            if kind == _S else None
            for phase, kind in enumerate(self.kinds))
        self.t_phases = tuple(phase for phase, kind in enumerate(self.kinds)
                              if kind == _T)


class LocalKernel:
    """Bitmask-compiled local state space of one protocol.

    Built once per protocol (see :func:`local_kernel_for`); valid for
    every transition set over the same process template, because only
    the continuation relation and the legitimacy predicate are baked in.
    """

    def __init__(self, protocol: "RingProtocol") -> None:
        began = time.perf_counter()
        # No reference back to *protocol*: it is this kernel's key in
        # the weakly keyed memo, which must not keep it alive.
        self.space = protocol.space
        self.states = tuple(self.space.states)
        self.n = len(self.states)
        self.index = {state: i for i, state in enumerate(self.states)}
        with obs.span("localkernel.compile",
                      protocol=getattr(protocol, "name", "?")) as span:
            # s-adjacency (= RCG adjacency) as per-state bitmasks.
            self.s_masks = continuation_masks(self.space)
            illegitimate = frozenset(protocol.illegitimate_states())
            self.illegit_mask = 0
            for i, state in enumerate(self.states):
                if state in illegitimate:
                    self.illegit_mask |= 1 << i
            if span is not None:
                span.attrs["states"] = self.n
        obs.metric("localkernel.compiles")
        obs.metric("kernel.compile_seconds", time.perf_counter() - began)
        self._skeletons: dict[tuple[int, int], TrailSkeleton] = {}
        # (support fingerprint, bound) -> result tuple | None.
        self._trail_memo: dict[tuple[frozenset[tuple[int, int]], int],
                               tuple | None] = {}

    # ------------------------------------------------------------------
    def skeleton(self, ring_size: int, enablements: int) -> TrailSkeleton:
        key = (ring_size, enablements)
        cached = self._skeletons.get(key)
        if cached is None:
            began = time.perf_counter()
            cached = TrailSkeleton(ring_size, enablements,
                                   self.s_masks, self.n)
            self._skeletons[key] = cached
            obs.metric("localkernel.skeleton_compiles")
            obs.metric("kernel.compile_seconds",
                       time.perf_counter() - began)
        return cached

    # ------------------------------------------------------------------
    def find_trail(self, t_arc_support: Iterable[LocalTransition],
                   max_ring_size: int,
                   root_states: Iterable["LocalState"] | None = None,
                   ) -> TrailWitness | None:
        """Kernel counterpart of
        :meth:`repro.core.trail.ContiguousTrailSearcher.find_trail`:
        same ``(K, |E|)`` scan order, first witness wins.

        *root_states*, when given, restricts the Tarjan roots to the
        support arcs sourced at those local states — the lattice
        synthesis engine passes the one arc its delta step added.
        Every matching SCC uses *each* support arc on some T layer, so
        any single arc's (source, T-phase) product nodes still reach
        every candidate component: whether a witness exists, and its
        ``(K, |E|)``, are unchanged; only the ``states`` of the
        first-found witness may differ from an unrestricted search.
        """
        support = frozenset(t_arc_support)
        if not support:
            return None
        arcs = indexed_arcs(self.space, support)
        key = (frozenset(arcs), max_ring_size)
        if key in self._trail_memo:
            obs.metric("localkernel.trail_cache_hits")
            hit = self._trail_memo[key]
            return None if hit is None else self._witness(support, hit)

        t_succ = [0] * self.n
        for source, target in arcs:
            t_succ[source] |= 1 << target
        tsrc_mask = 0
        for source, _target in arcs:
            tsrc_mask |= 1 << source
        sources = sorted({source for source, _target in arcs})
        if root_states is not None:
            index = self.index
            rooted = {index[state] for state in root_states
                      if state in index}
            rooted.intersection_update(sources)
            if rooted:
                sources = sorted(rooted)

        with obs.span("trail.search", support=len(arcs),
                      max_K=max_ring_size) as span:
            for ring_size in range(2, max_ring_size + 1):
                for enablements in range(1, ring_size):
                    hit = self._search(
                        self.skeleton(ring_size, enablements),
                        arcs, t_succ, tsrc_mask, sources)
                    if hit is not None:
                        result = (ring_size, enablements) + hit
                        self._trail_memo[key] = result
                        if span is not None:
                            span.attrs["found_K"] = ring_size
                        return self._witness(support, result)
            self._trail_memo[key] = None
            return None

    # ------------------------------------------------------------------
    def livelock_support(self, transitions: Iterable[LocalTransition],
                         ) -> tuple[TrailWitness | None, int]:
        """A support of *transitions* with a K-free match, by one SCC
        refinement; ``(witness, passes)``.

        The product is the three-phase one (T = 0, S = 1, S! = 2): a
        t-arc leads from T to S and to S!, an s-arc from S to T, and an
        s-arc into a t-source from S! to S! and to T.  Every
        fixed-``(K, |E|)`` round pattern maps onto it phase by kind, so
        a support with no match here forms no contiguous trail at any
        K.  Each work item ``(U, allowed)`` prunes U to the arcs on a
        cycle of its own write projection (the union of every support
        inside U), then takes the cyclic SCCs of U's product inside
        *allowed*.  A component with an illegitimate state and an S!
        node that uses every arc of U is a match; one that uses fewer
        arcs becomes a work item of its own.  Each push shrinks U, so
        the loop ends after at most ``|transitions|`` levels, and no
        support is ever enumerated.

        The witness carries the matched support and the matching
        component's states, with ``ring_size`` and ``enablements``
        ``None`` (:meth:`find_trail` names them); it is ``None`` when
        no support matches, which certifies every K.  *passes* counts
        the SCC passes made.
        """
        n = self.n
        index = self.index
        s_masks = self.s_masks
        state_bits = (1 << n) - 1
        work = [(frozenset(transitions), (1 << 3 * n) - 1)]
        passes = 0
        while work:
            support, allowed = work.pop()
            support = cyclic_transitions(support)
            if not support:
                continue
            passes += 1
            arcs = [(index[t.source], index[t.target], t) for t in support]
            t_succ = [0] * n
            tsrc_mask = 0
            for source, target, _transition in arcs:
                t_succ[source] |= 1 << target
                tsrc_mask |= 1 << source

            def succ_mask(node: int) -> int:
                phase, state = divmod(node, n)
                if phase == _T:
                    mask = t_succ[state]
                    return (mask << n | mask << 2 * n) & allowed
                if phase == _S:
                    return s_masks[state] & allowed
                mask = s_masks[state] & tsrc_mask
                return (mask | mask << 2 * n) & allowed

            roots = [state for state in range(n)
                     if (tsrc_mask & allowed) >> state & 1]
            obs.metric("localkernel.mask_evaluations")
            for component in bitmask_components(roots, succ_mask):
                members = 0
                for node in component:
                    members |= 1 << node
                states = (members | members >> n | members >> 2 * n) \
                    & state_bits
                illegit = states & self.illegit_mask
                if not illegit or not members >> 2 * n:
                    continue
                targets = members >> n | members >> 2 * n
                inner = [transition
                         for source, target, transition in arcs
                         if members >> source & 1 and targets >> target & 1]
                if len(inner) == len(arcs):
                    return TrailWitness(
                        ring_size=None, enablements=None, t_arcs=support,
                        states=tuple(self.states[i]
                                     for i in _mask_indices(states)),
                        illegitimate_states=tuple(
                            self.states[i]
                            for i in _mask_indices(illegit)),
                    ), passes
                if inner:
                    work.append((frozenset(inner), members))
        return None, passes

    def _witness(self, support: frozenset[LocalTransition],
                 result: tuple) -> TrailWitness:
        ring_size, enablements, state_ids, illegit_ids = result
        return TrailWitness(
            ring_size=ring_size,
            enablements=enablements,
            t_arcs=support,
            states=tuple(self.states[i] for i in state_ids),
            illegitimate_states=tuple(self.states[i] for i in illegit_ids),
        )

    # ------------------------------------------------------------------
    def _search(self, sk: TrailSkeleton, arcs: list[tuple[int, int]],
                t_succ: list[int], tsrc_mask: int,
                sources: list[int]) -> tuple | None:
        """One masked SCC pass over the implicit (state, phase) product.

        Product node id = ``phase * n + state``; successor masks come
        from the skeleton's premultiplied S layers, from the support's
        t-successor table (T phases), or from the s-adjacency
        intersected with the support's t-sources (S! phases).  Returns
        ``(state index tuple, illegitimate index tuple)`` of the first
        matching SCC in Tarjan emission order, or ``None``.
        """
        n = self.n
        kinds = sk.kinds
        shifts = sk.shifts
        s_layers = sk.s_layers
        s_masks = self.s_masks

        def succ_mask(node: int) -> int:
            phase, state = divmod(node, n)
            kind = kinds[phase]
            if kind == _T:
                return t_succ[state] << shifts[phase]
            if kind == _S:
                return s_layers[phase][state]
            return (s_masks[state] & tsrc_mask) << shifts[phase]

        # Every matching SCC uses each support arc on some T layer, so
        # it contains a (t-source, T phase) node: rooting Tarjan at
        # those nodes reaches every candidate component.
        roots = [phase * n + state
                 for phase in sk.t_phases for state in sources]
        obs.metric("localkernel.mask_evaluations")
        for component in bitmask_components(roots, succ_mask):
            hit = self._match(sk, component, arcs, succ_mask)
            if hit is not None:
                return hit
        return None

    def _match(self, sk: TrailSkeleton, component: list[int],
               arcs: list[tuple[int, int]], succ_mask) -> tuple | None:
        """The naive acceptance test, over integer product nodes."""
        n = self.n
        if len(component) == 1:
            node = component[0]
            if not (succ_mask(node) >> node) & 1:
                return None
        members = set(component)
        for source, target in arcs:
            for phase in sk.t_phases:
                if (phase * n + source in members
                        and (sk.shifts[phase] // n) * n + target in members):
                    break
            else:
                return None  # this support arc is never used
        state_mask = 0
        for node in members:
            state_mask |= 1 << (node % n)
        illegit = state_mask & self.illegit_mask
        if not illegit:
            return None
        return (_mask_indices(state_mask), _mask_indices(illegit))


def _mask_indices(mask: int) -> tuple[int, ...]:
    indices = []
    while mask:
        bit = mask & -mask
        mask &= mask - 1
        indices.append(bit.bit_length() - 1)
    return tuple(indices)


_KERNEL_CACHE: "weakref.WeakKeyDictionary[RingProtocol, LocalKernel]" = \
    weakref.WeakKeyDictionary()


def local_kernel_for(protocol: "RingProtocol") -> LocalKernel:
    """The (memoized) local kernel of *protocol*.

    Keyed on protocol identity via a weak reference, like
    :func:`repro.engine.kernel.compile_protocol`: repeated analyses of
    the same protocol object share skeletons and the trail memo.
    """
    kernel = _KERNEL_CACHE.get(protocol)
    if kernel is None:
        kernel = LocalKernel(protocol)
        _KERNEL_CACHE[protocol] = kernel
    return kernel
