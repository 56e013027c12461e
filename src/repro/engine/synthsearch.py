"""Incremental lattice search over candidate t-arc combinations.

The flat synthesis loop (:meth:`repro.core.synthesis.Synthesizer`)
judges every candidate combination from scratch: rebuild the merged
transition set, re-check Assumptions 1/2 on a fresh ``Digraph``,
re-enumerate the pseudo-livelock support closure, and trail-search the
supports in canonical order.  But the candidate lattice is *monotone* —
adding a t-arc can only add write-projection cycles, so the support set
of a combination contains the support set of every sub-combination, and
a contiguous-trail witness found for a combo is inherited verbatim by
every superset that does not introduce an earlier-sorting witness.

This module walks the combination list (the deterministic
``itertools.product`` prefix order) as a lattice: each combination
extends an already-evaluated parent by exactly one t-arc, and the
parent's evaluation state is checkpointed in place:

* **support-closure delta** — the parent's support frontier (the
  union-closure of its elementary pseudo-livelocks) is kept as a shared
  list with per-node watermarks; a new arc contributes exactly the
  write-projection cycles *through* that arc, so only unions with those
  new elements are formed.  The closure cap triggers iff the flat
  enumeration's cap would (the union count is order-independent), and
  an exploded node prunes its whole subtree with the identical reason.
* **canonical witness inheritance** — per node we track the
  canonically-first witnessing support.  Every support new at a child
  contains the child's arc, so only new supports sorting *before* the
  inherited witness are trail-searched; the first hit (or the inherited
  one) is exactly the flat scan's first witness, making rejection
  strings byte-identical to the flat path.
* **delta-rooted trail search** — a new support's masked-Tarjan pass is
  rooted at the new arc's (source, T-phase) product nodes only
  (:meth:`repro.engine.localkernel.LocalKernel.find_trail` with
  ``root_states``): every matching SCC must use the arc, so restricted
  roots still reach every candidate component.
* **monotone up-set pruning** — witnessing supports are indexed in a
  subset-closed :class:`BlockedMaskIndex` (popcount-bucketed t-arc
  bitmasks); any node whose transition mask covers an indexed mask
  seeds its witness scan with that entry, bounding the scan without a
  single trail query.  Combinations rejected without any leaf-level
  trail query count as ``synthsearch.combos_pruned``; the witness is
  the recorded prune justification.

One Resolve set's whole pool is one in-process walk
(:meth:`LatticeSearch.verdicts`), in enumeration order, stopping at the
first accepted combination when the search asks it to.  Nothing is
dispatched to worker processes, cached or resumed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.pseudolivelock import (
    MAX_SUPPORTS,
    elementary_pseudo_livelocks,
    explosion_reason,
)
from repro.core.selfdisabling import (
    local_transition_graph,
    not_self_terminating_reason,
    self_enabling_reason,
)
from repro.core.synthesis import BIDIRECTIONAL_REASON
from repro.core.trail import trail_reason
from repro.graphs import has_cycle
from repro.obs import runtime as obs
from repro.protocol.actions import LocalTransition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.synthesis import Synthesizer

#: Counter names the walker accumulates (recorded as ``synthsearch.*``
#: metrics; also flat :class:`repro.engine.EngineStats` attribute
#: names).
COUNTER_NAMES = ("combos_pruned", "full_evaluations", "delta_reuses",
                 "checkpoint_bytes", "blocked_hits")

#: Deterministic per-support checkpoint cost estimate: list slot +
#: frozenset header plus one word per member.
_SUPPORT_BYTES_BASE = 56
_SUPPORT_BYTES_PER_ARC = 8


class BlockedMaskIndex:
    """Subset-closed index of witnessing-support t-arc bitmasks.

    Entries are stride-bucketed by popcount so a cover query only scans
    buckets that can fit under the queried mask.  ``covers_min`` returns
    the canonically-first indexed support contained in the query — an
    upper bound on the node's first witness that is sound because a
    support is witnessing intrinsically (the trail search depends only
    on the support itself, never on the surrounding combination).
    """

    __slots__ = ("_buckets", "_masks")

    def __init__(self) -> None:
        self._buckets: dict[int, list[tuple]] = {}
        self._masks: set[int] = set()

    def __len__(self) -> int:
        return len(self._masks)

    def add(self, mask: int, key: tuple,
            support: frozenset[LocalTransition], head: tuple) -> None:
        if mask in self._masks:
            return
        self._masks.add(mask)
        self._buckets.setdefault(mask.bit_count(), []).append(
            (mask, key, support, head))

    def covers_min(self, mask: int) -> tuple | None:
        """The minimal-key ``(key, support, head)`` whose mask is a
        subset of *mask*, or ``None``."""
        best: tuple | None = None
        popcount = mask.bit_count()
        for count, bucket in self._buckets.items():
            if count > popcount:
                continue
            for entry_mask, key, support, head in bucket:
                if entry_mask & mask == entry_mask \
                        and (best is None or key < best[0]):
                    best = (key, support, head)
        return best


class _Node:
    """One checkpointed lattice position (the path's last t-arc)."""

    __slots__ = ("arc", "mask", "frontier_mark", "seen_added",
                 "graph_added", "exploded", "witness", "queried")

    def __init__(self, arc: LocalTransition | None) -> None:
        self.arc = arc
        self.mask = 0
        self.frontier_mark = 0
        self.seen_added: list[frozenset] = []
        self.graph_added = False
        self.exploded = False
        #: ``(canonical key, support, (K, |E|))`` of the canonically
        #: first witnessing support, or ``None``.  Invariant: every
        #: support of this node sorting before the witness has been
        #: verified trail-free, so the witness is exactly what the flat
        #: scan reports.
        self.witness: tuple | None = None
        self.queried = False


class LatticeWalker:
    """Prefix-stack evaluator over the candidate lattice.

    Maintains the shared mutable evaluation state — write-projection
    multigraph, support frontier with watermarks, global ``seen`` set,
    trail-head memo — with strict push/pop undo discipline, so walking
    the combination list in product order re-evaluates only the suffix
    that changed.  All node values (explosion flag, witness, leaf
    queried flag) are intrinsic to the node's transition set, so a
    combination's verdict and its pruned/evaluated classification do
    not depend on which combinations the walk visited before it.
    """

    def __init__(self, kernel, base_transitions, max_ring_size: int,
                 counts: dict[str, int | float]) -> None:
        self.kernel = kernel
        self.base = tuple(base_transitions)
        self.max_ring_size = max_ring_size
        self.counts = counts
        self.blocked = BlockedMaskIndex()
        self._graph: dict[Any, dict[Any, list[LocalTransition]]] = {}
        self._frontier: list[frozenset] = []
        self._seen: set[frozenset] = set()
        self._canon: dict[frozenset, tuple] = {}
        self._reprs: dict[LocalTransition, str] = {}
        self._pairs: dict[LocalTransition, tuple[int, int]] = {}
        self._bits: dict[LocalTransition, int] = {}
        #: pair-key -> the support's ``(K, |E|)`` trail head, or None.
        self._heads: dict[frozenset[tuple[int, int]], tuple | None] = {}
        self._stack: list[_Node] = []
        self._path: list[LocalTransition] = []

    # -- shared encodings ----------------------------------------------
    def _pair(self, transition: LocalTransition) -> tuple[int, int]:
        pair = self._pairs.get(transition)
        if pair is None:
            index = self.kernel.index
            pair = (index[transition.source], index[transition.target])
            self._pairs[transition] = pair
        return pair

    def _bit(self, transition: LocalTransition) -> int:
        bit = self._bits.get(transition)
        if bit is None:
            bit = 1 << len(self._bits)
            self._bits[transition] = bit
        return bit

    def _mask(self, transitions: Iterable[LocalTransition]) -> int:
        mask = 0
        for transition in transitions:
            mask |= self._bit(transition)
        return mask

    def _canon_key(self, support: frozenset) -> tuple:
        key = self._canon.get(support)
        if key is None:
            reprs = self._reprs
            parts = []
            for transition in support:
                text = reprs.get(transition)
                if text is None:
                    text = reprs[transition] = repr(transition)
                parts.append(text)
            parts.sort()
            key = (len(support), parts)
            self._canon[support] = key
        return key

    # -- trail queries -------------------------------------------------
    def _trail_head(self, support: frozenset,
                    arc: LocalTransition | None) -> tuple | None:
        key = frozenset(self._pair(t) for t in support)
        if key in self._heads:
            return self._heads[key]
        roots = (arc.source,) if arc is not None else None
        witness = self.kernel.find_trail(support, self.max_ring_size,
                                         root_states=roots)
        head = (witness.ring_size, witness.enablements) \
            if witness is not None else None
        self._heads[key] = head
        return head

    # -- new-element enumeration ---------------------------------------
    def _cycles_through(self, arc: LocalTransition) -> list[frozenset]:
        """The elementary pseudo-livelocks through *arc*: node-simple
        write-projection cycles using the arc, expanded over parallel
        edge choices — exactly the elements new to the merged set."""
        start = arc.target.own
        goal = arc.source.own
        if start == goal:
            return [frozenset((arc,))]
        graph = self._graph
        results: list[frozenset] = []
        path_keys: list[LocalTransition] = []
        visited = {start}

        def walk(node: Any) -> None:
            for succ, keys in graph.get(node, {}).items():
                if succ == goal:
                    for key in keys:
                        results.append(frozenset((arc, *path_keys, key)))
                    continue
                if succ == start or succ in visited:
                    continue
                visited.add(succ)
                for key in keys:
                    path_keys.append(key)
                    walk(succ)
                    path_keys.pop()
                visited.discard(succ)

        walk(start)
        return results

    # -- push / pop ----------------------------------------------------
    def ensure_root(self) -> None:
        """Evaluate the base transition set once; reused by every
        combination and every resolve set."""
        if self._stack:
            return
        self._graph = {}
        self._frontier = [frozenset()]
        self._seen = {frozenset()}
        for transition in self.base:
            self._graph.setdefault(transition.source.own, {}) \
                .setdefault(transition.target.own, []).append(transition)
        self._apply(None, elementary_pseudo_livelocks(self.base))

    def _apply(self, arc: LocalTransition | None,
               elements: list[frozenset]) -> _Node:
        node = _Node(arc)
        parent = self._stack[-1] if self._stack else None
        node.mask = (parent.mask if parent is not None else 0)
        if arc is not None:
            node.mask |= self._bit(arc)
        node.frontier_mark = len(self._frontier)
        if parent is not None and parent.exploded:
            node.exploded = True
            self._stack.append(node)
            return node

        counts = self.counts
        added_bytes = 0
        frontier, seen = self._frontier, self._seen
        for element in elements:
            limit = len(frontier)  # unions only with the pre-element set
            for i in range(limit):
                union = frontier[i] | element
                if union in seen:
                    continue
                seen.add(union)
                node.seen_added.append(union)
                frontier.append(union)
                added_bytes += (_SUPPORT_BYTES_BASE
                                + _SUPPORT_BYTES_PER_ARC * len(union))
                if len(seen) > MAX_SUPPORTS:
                    node.exploded = True
                    break
            if node.exploded:
                break
        counts["checkpoint_bytes"] += added_bytes
        if node.exploded:
            self._stack.append(node)
            return node

        inherited = parent.witness if parent is not None else None
        best = inherited
        news = frontier[node.frontier_mark:]
        if news:
            shortest = min(len(support) for support in news)
            # The shortcut and the ``queried`` flag are judged against
            # the *inherited* witness only: whether a node needed new
            # support examination is intrinsic to its transition set,
            # so the pruned/evaluated split does not depend on the
            # path the walk took to the node.  The blocked-index seed
            # only decides how far the examination actually searches.
            if inherited is None or shortest <= inherited[0][0]:
                # A blocked-index hit below the inherited key can only
                # exist when new supports do (every covered entry is a
                # support of this node, and supports at or above the
                # inherited key never matter), so the index is consulted
                # exactly when the scan runs.
                hit = self.blocked.covers_min(node.mask)
                if hit is not None and (best is None or hit[0] < best[0]):
                    best = hit
                    counts["blocked_hits"] += 1
                for support in sorted(news, key=self._canon_key):
                    key = self._canon_key(support)
                    if inherited is not None and key >= inherited[0]:
                        break
                    node.queried = True
                    if best is not inherited and key >= best[0]:
                        break  # the blocked seed is the first witness
                    head = self._trail_head(support, arc)
                    if head is not None:
                        best = (key, support, head)
                        self.blocked.add(self._mask(support), key,
                                         support, head)
                        break
        node.witness = best
        self._stack.append(node)
        return node

    def _push(self, arc: LocalTransition) -> None:
        self.counts["delta_reuses"] += 1
        parent = self._stack[-1]
        if parent.exploded:
            self._apply(arc, [])
        else:
            source, target = arc.source.own, arc.target.own
            self._graph.setdefault(source, {}) \
                .setdefault(target, []).append(arc)
            elements = self._cycles_through(arc)
            node = self._apply(arc, elements)
            node.graph_added = True
        self._path.append(arc)

    def _rewind(self, depth: int) -> None:
        """Pop nodes until only *depth* arcs remain above the root."""
        while len(self._stack) > depth + 1:
            node = self._stack.pop()
            self._path.pop()
            del self._frontier[node.frontier_mark:]
            for support in node.seen_added:
                self._seen.discard(support)
            if node.graph_added:
                arc = node.arc
                bucket = self._graph[arc.source.own][arc.target.own]
                bucket.pop()  # strict LIFO: this node appended last
                if not bucket:
                    del self._graph[arc.source.own][arc.target.own]
                    if not self._graph[arc.source.own]:
                        del self._graph[arc.source.own]

    # -- verdicts ------------------------------------------------------
    def verdicts(self, combos: Sequence[tuple],
                 first_accept: bool) -> list[str | None]:
        """Reasons for *combos* in order (``None`` = accepted), ending
        at the first accepted combination when *first_accept*.  Shares
        checkpoints along common prefixes — state persists across calls,
        so the next pool (or the next single combination) keeps
        extending the same trail."""
        self.ensure_root()
        out: list[str | None] = []
        for combo in combos:
            shared = 0
            for shared, (have, want) in enumerate(zip(self._path, combo)):
                if have != want:
                    break
            else:
                shared = min(len(self._path), len(combo))
            self._rewind(shared)
            for arc in combo[shared:]:
                self._push(arc)
            out.append(self._leaf_reason())
            if first_accept and out[-1] is None:
                break
        return out

    def _leaf_reason(self) -> str | None:
        node = self._stack[-1]
        counts = self.counts
        if node.exploded:
            counts["combos_pruned" if not node.queried
                   else "full_evaluations"] += 1
            # The union count is order-independent, so the flat
            # enumeration trips the same cap with the same message.
            return explosion_reason()
        if node.witness is None:
            counts["full_evaluations"] += 1
            return None
        if node.queried:
            counts["full_evaluations"] += 1
        else:
            counts["combos_pruned"] += 1
        _key, support, head = node.witness
        return trail_reason(support, head[0], head[1])


class LatticeSearch:
    """Facade tying one :class:`Synthesizer` to the lattice engine.

    Owns the walker and the uniform assumption short-circuits, and
    records each call's ``synthsearch.*`` counter deltas; verdict
    strings are byte-identical to :meth:`Synthesizer._kernel_verdict`
    by construction (the differential suite pins this).
    """

    def __init__(self, synthesizer: "Synthesizer") -> None:
        self.synthesizer = synthesizer
        self.protocol = synthesizer.protocol
        self.base_transitions = synthesizer._base_transitions
        self.base_deadlocks = synthesizer._base_deadlocks
        self._name = f"{self.protocol.name}_ss"
        self._base_cyclic = has_cycle(
            local_transition_graph(self.base_transitions))
        self._base_self_enabling = any(
            t.target not in self.base_deadlocks
            for t in self.base_transitions)
        self._counts: dict[str, int | float] = \
            {name: 0 for name in COUNTER_NAMES}
        self._walker = LatticeWalker(
            synthesizer._kernel, self.base_transitions,
            synthesizer.max_ring_size, self._counts)

    # -- uniform short-circuits ----------------------------------------
    def _uniform_reason(self, combos: Sequence[tuple]) -> str | None:
        """A reason shared by the whole pool, or ``None`` when the
        lattice must walk.

        Every pool comes from
        :meth:`repro.core.synthesis.Synthesizer.candidate_transitions`,
        which guarantees by construction that each combination picks
        exactly one arc out of every Resolve state and that every arc
        targets a base local deadlock outside Resolve.  Candidate
        targets are therefore merged-LTG sinks, so Assumption 1 reduces
        to the base graph's cyclicity and Assumption 2 to a base-only
        scan — both independent of which candidates were picked, with
        the exact flat reason strings.  (The lattice-vs-flat suites
        fail if those invariants ever break.)
        """
        if not self.protocol.unidirectional \
                and not self.synthesizer.accept_contiguous_only:
            return BIDIRECTIONAL_REASON
        sources = frozenset(t.source for t in combos[0])
        if self._base_cyclic:
            return not_self_terminating_reason(self._name)
        if self._base_self_enabling or any(
                t.target in sources for t in self.base_transitions):
            return self_enabling_reason(self._name)
        return None

    # -- entry point ---------------------------------------------------
    def verdicts(self, combos: Sequence[tuple],
                 first_accept: bool) -> list[str | None]:
        """Lattice verdicts for one pool, in order: one in-process walk.
        With *first_accept* the result ends at the first accepted
        combination.  The walker counts in its own dict, so this is the
        one place the ``synthsearch.*`` counters are recorded."""
        uniform = self._uniform_reason(combos)
        if uniform is not None:
            obs.metric("synthsearch.combos_pruned", len(combos))
            return [uniform] * len(combos)
        counts = self._counts
        before = dict(counts)
        reasons = self._walker.verdicts(combos, first_accept)
        for name in COUNTER_NAMES:
            if counts[name] != before[name]:
                obs.metric(f"synthsearch.{name}",
                           counts[name] - before[name])
        return reasons
