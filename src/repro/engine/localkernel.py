"""Compiled bit-packed kernel for the *local* reasoning pipeline.

PR 2's :mod:`repro.engine.kernel` made the global checker fast; this
module does the same for the paper's local side — the side Theorems
4.2/5.14 and the Section 6 synthesis loop actually run on.  The naive
contiguous-trail search (:mod:`repro.core.trail`) rebuilds a fresh
``Digraph`` product of (local state, phase) for every queried t-arc
support and every ``(K, |E|)`` pair; during synthesis that rebuild
happens for every candidate combination.  The kernel removes all of the
per-query graph construction:

* local states are integer-indexed **once per protocol** (in
  ``space.states`` order, which is the sorted order of
  :class:`~repro.protocol.localstate.LocalState`);
* the RCG/LTG s-adjacency is a list of Python-int bitmasks
  (:func:`repro.core.rcg.continuation_masks`), computed once;
* each ``(K, |E|)`` round pattern compiles to a :class:`TrailSkeleton`
  holding the phase kinds and premultiplied s-arc layer masks, cached
  per kernel and shared across every support ever queried;
* a candidate t-arc support then costs one t-successor mask table
  (``O(n + |support|)``) plus a masked iterative Tarjan pass over the
  *implicit* product graph — node ``phase * n + state``, successors via
  shift-and-intersect — with no dictionaries of tuples, no ``Digraph``,
  and no hashing of :class:`LocalState` objects in the hot loop;
* whole ``find_trail`` answers are memoized on the support's index
  fingerprint, so permuted candidate combinations that share a support
  never re-search.

The kernel is *behaviorally identical* to the naive searcher: same
scan order over ``(K, |E|)``, same "uses the support exactly + visits
an illegitimate state" acceptance test, witnesses carrying the same
``(ring_size, enablements, t_arcs)``.  Because the s-adjacency and the
legitimacy predicate depend only on the process template — not on the
transition set — one kernel built from a base protocol serves every
candidate-extended variant the synthesizer materializes, which is what
makes the synthesis loop cheap.  The differential suite in
``tests/engine/test_localkernel_differential.py`` pins all of this to
the naive implementation.
"""

from __future__ import annotations

import time
import weakref
from typing import TYPE_CHECKING, Iterable

from repro.core.ltg import indexed_arcs
from repro.core.rcg import continuation_masks
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
        # Support fingerprint -> (bound scanned, result tuple | None).
        self._trail_memo: dict[frozenset[tuple[int, int]],
                               tuple[int, tuple | None]] = {}

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
        key = frozenset(arcs)
        memo = self._trail_memo.get(key)
        if memo is not None:
            bound, hit = memo
            if hit is not None:
                obs.metric("localkernel.trail_cache_hits")
                if hit[0] <= max_ring_size:
                    return self._witness(support, hit)
                # All (K, |E|) below hit's K were scanned and empty.
                return None
            if max_ring_size <= bound:
                obs.metric("localkernel.trail_cache_hits")
                return None
            start = bound + 1  # extend a previously exhausted scan
        else:
            start = 2

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
                      start=start, max_K=max_ring_size) as span:
            for ring_size in range(start, max_ring_size + 1):
                for enablements in range(1, ring_size):
                    hit = self._search(
                        self.skeleton(ring_size, enablements),
                        arcs, t_succ, tsrc_mask, sources)
                    if hit is not None:
                        result = (ring_size, enablements) + hit
                        self._trail_memo[key] = (max_ring_size, result)
                        if span is not None:
                            span.attrs["found_K"] = ring_size
                        return self._witness(support, result)
            self._trail_memo[key] = (max_ring_size, None)
            return None

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
        obs.metric("localkernel.mask_evaluations")
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

        index_of: dict[int, int] = {}
        lowlink: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        counter = 0
        for root in roots:
            if root in index_of:
                continue
            work = [[root, succ_mask(root)]]
            index_of[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                frame = work[-1]
                node = frame[0]
                remaining = frame[1]
                advanced = False
                while remaining:
                    bit = remaining & -remaining
                    remaining &= remaining - 1
                    succ = bit.bit_length() - 1
                    if succ not in index_of:
                        frame[1] = remaining
                        index_of[succ] = lowlink[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append([succ, succ_mask(succ)])
                        advanced = True
                        break
                    if succ in on_stack and index_of[succ] < lowlink[node]:
                        lowlink[node] = index_of[succ]
                if advanced:
                    continue
                work.pop()
                if work and lowlink[node] < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = lowlink[node]
                if lowlink[node] != index_of[node]:
                    continue
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
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
