"""Compiled bit-packed state-space kernel for symmetric ring instances.

The naive global checker (:class:`repro.checker.statespace.StateGraph`
over :class:`repro.protocol.instance.RingInstance`) interprets the
protocol per state: every state visit constructs ``K`` frozen
:class:`LocalState` dataclasses, re-evaluates every guard callable and
hashes tuple-keyed dicts.  For the per-K baseline of benchmark X2 that
interpretation overhead *is* the cost — and it undersells what a tuned
explicit-state engine can do.  This module removes it in three steps:

1. **Compilation** (:func:`compile_protocol`, once per protocol,
   K-independent).  Every local window valuation is enumerated once;
   guards and effects run once per window; the result is a flat table
   ``window index -> tuple of successor own-cell indices`` plus a
   per-window legitimacy bytearray.  No guard is ever evaluated again.

2. **Packed enumeration** (:func:`build_full`, per K).  A global state
   is a base-``|C|`` packed integer — digit ``r`` (most significant
   first) is the cell index of process ``r`` — so the state's *index*
   in enumeration order equals its code and interning dicts disappear.
   The single enumeration pass walks an odometer over the digits,
   computes each process's window index by integer arithmetic, and
   emits adjacency in CSR form (two flat ``array('q')`` buffers) with
   invariant membership in a bytearray.  Successor codes come from
   ``code + (cell' - cell) * |C|^(K-1-r)`` — no tuples are built.
   Distinct moves always produce distinct codes (two processes write
   different digit positions; a move must change its own digit), so
   the per-state successor segment needs no dedup and matches the
   naive backend's ordering exactly.

3. **Rotation quotient** (:func:`build_quotient`).  All ``K``
   processes of a :class:`RingInstance` are instantiated from the same
   template and the invariant is the conjunction of the same local
   predicate at every position, so the cyclic rotation
   ``rho(c_0 .. c_{K-1}) = (c_1 .. c_{K-1}, c_0)`` is an automorphism
   of the transition graph that preserves ``I(K)`` membership.  On
   packed codes a left-rotation is one divmod:
   ``rho(code) = (code % |C|^(K-1)) * |C| + code // |C|^(K-1)``.
   The quotient keeps one canonical (minimal-code) representative per
   rotation orbit — a ~K-fold reduction — and maps successors through
   the canonicalization.  Because rotations are automorphisms, the
   quotient preserves deadlock existence, livelock/SCC existence,
   closure, weak convergence and BFS distances to the invariant, hence
   every convergence *verdict*.  The global checker
   (:func:`repro.checker.convergence.check_instance`) runs on it for
   every kernel instance and reports the full space: counts, the
   deadlock count included, are orbit sizes summed
   (:meth:`PackedSpace.orbit`), the deadlock witnesses are the smallest
   expanded codes, the only ones decoded (:meth:`PackedSpace.decode_code`),
   and only a quotient with a livelock has its full space built
   (:func:`build_full`), because a cycle of representatives repeats only
   up to rotation.

The kernel applies to symmetric rings only — exactly
:class:`RingInstance` (Dijkstra's token ring has a distinguished root
and stays on the naive backend).
"""

from __future__ import annotations

import time
import weakref
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs import runtime as obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.instance import RingInstance
    from repro.protocol.ring import RingProtocol


# ----------------------------------------------------------------------
# Per-protocol compilation (K-independent)
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CompiledProtocol:
    """The flat local-transition table of one protocol.

    ``target_rows[w]`` holds the successor *own-cell indices* of window
    valuation ``w`` (guard-true, own-cell-changing writes only, in
    action order, first occurrence kept); ``legit[w]`` is the ``LC_r``
    bit.  Window valuations are indexed ``sum(cell_index[i] * |C|^i)``
    over window positions ``i`` (leftmost read first).  The per-K
    enumeration loops index one row per (state, process) pair.
    """

    cells: tuple
    reads_left: int
    reads_right: int
    target_rows: tuple[tuple[int, ...], ...]
    legit: bytes
    compile_seconds: float

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @property
    def window_width(self) -> int:
        return self.reads_left + self.reads_right + 1


_COMPILE_CACHE: "weakref.WeakKeyDictionary[RingProtocol, CompiledProtocol]" \
    = weakref.WeakKeyDictionary()


def compile_protocol(protocol: "RingProtocol") -> CompiledProtocol:
    """Compile (and memoize) *protocol*'s guarded commands.

    Guards and effects execute once per local window valuation —
    ``|C|^w`` evaluations total, independent of any ring size.
    """
    cached = _COMPILE_CACHE.get(protocol)
    if cached is not None:
        obs.metric("kernel.compile_memo_hits")
        return cached
    began = time.perf_counter()
    obs.metric("kernel.compiles")
    with obs.span("kernel.compile",
                  protocol=getattr(protocol, "name", "?")) as span:
        space = protocol.space
        cells = space.cells
        cell_index = {cell: i for i, cell in enumerate(cells)}
        # space.states enumerates windows with the *leftmost* read varying
        # slowest, i.e. window index sum(cell_index[i] * |C|^(w-1-i)); we
        # re-index to sum(cell_index[i] * |C|^i) so the enumeration below
        # can stay oblivious to the ordering convention.
        width = space.process.window_width
        count = len(cells) ** width
        rows: list[tuple[int, ...]] = [()] * count
        legit = bytearray(count)
        for state in space.states:
            index = 0
            for position, cell in enumerate(state.cells):
                index += cell_index[cell] * len(cells) ** position
            own: list[int] = []
            for action in space.enabled_actions(state):
                for target in space.targets(state, action):
                    candidate = cell_index[target.own]
                    if candidate not in own:
                        own.append(candidate)
            rows[index] = tuple(own)
            legit[index] = 1 if protocol.is_legitimate(state) else 0
        if span is not None:
            span.attrs["windows"] = count
    compiled = CompiledProtocol(
        cells=cells,
        reads_left=space.process.reads_left,
        reads_right=space.process.reads_right,
        target_rows=tuple(rows),
        legit=bytes(legit),
        compile_seconds=time.perf_counter() - began,
    )
    obs.metric("kernel.compile_seconds", compiled.compile_seconds)
    _COMPILE_CACHE[protocol] = compiled
    return compiled


def supports_kernel(instance: object) -> bool:
    """Whether *instance* is a symmetric ring the kernel can encode.

    Strict type check on purpose: duck-typed instances (Dijkstra's
    token ring, subclasses with overridden semantics) keep the naive
    interpreter, which follows their Python code exactly.
    """
    from repro.protocol.instance import RingInstance

    return type(instance) is RingInstance


# ----------------------------------------------------------------------
# Packed per-K state spaces
# ----------------------------------------------------------------------

@dataclass
class PackedSpace:
    """One built state space in flat form.

    ``codes[i]`` is the packed code of state index ``i`` (``None``
    stands for the identity — full spaces enumerate every code in
    order, so index == code); ``succ_flat``/``succ_off`` are CSR
    adjacency over state indices; ``invariant`` is one byte per state.
    ``full_states`` is ``|C|^K``; ``quotient_states`` is the number of
    kept orbits (0 for a full space).
    """

    ring_size: int
    cell_count: int
    codes: array | None
    succ_off: array
    succ_flat: array
    invariant: bytearray
    cells: tuple
    full_states: int
    quotient_states: int = 0

    def __len__(self) -> int:
        return len(self.invariant)

    # -- decode / index_of / orbit --------------------------------------
    def decode(self, index: int) -> tuple:
        """The global state tuple of state index *index*."""
        return self.decode_code(
            index if self.codes is None else self.codes[index])

    def decode_code(self, code: int) -> tuple:
        """The global state tuple of the packed *code*: any state of
        the full space, kept by this space or not."""
        digits = []
        for _ in range(self.ring_size):
            code, digit = divmod(code, self.cell_count)
            digits.append(digit)
        return tuple(self.cells[d] for d in reversed(digits))

    def orbit(self, index: int) -> list[int]:
        """The packed codes state index *index* stands for, ascending:
        its rotation orbit on a quotient, its own code on a full
        space."""
        if self.codes is None:
            return [index]
        return rotations(self.codes[index], self.ring_size,
                         self.cell_count)

    def index_of(self, state: tuple) -> int:
        """The state index of a global state tuple (quotient: of an
        orbit representative); ``KeyError`` for any other tuple."""
        if len(state) != self.ring_size:
            raise KeyError(state)
        cell_index = {cell: i for i, cell in enumerate(self.cells)}
        code = 0
        for cell in state:
            code = code * self.cell_count + cell_index[cell]
        if self.codes is None:
            return code
        index = bisect_left(self.codes, code)
        if index == len(self.codes) or self.codes[index] != code:
            raise KeyError(state)
        return index


def _count_encode(space: PackedSpace, seconds: float) -> None:
    """Record one space's encode time and its reduction."""
    obs.metric("kernel.encode_seconds", seconds)
    if space.quotient_states:
        obs.metric("kernel.quotient_states", space.quotient_states)
        obs.metric("kernel.quotient_full_states", space.full_states)


def build_full(instance: "RingInstance") -> PackedSpace:
    """The full packed state space of one ring instance."""
    with obs.span("kernel.encode", K=instance.size, mode="full") as span:
        space = _build_full(instance)
        if span is not None:
            span.attrs["states"] = len(space)
        obs.metric("kernel.states_encoded", len(space))
        return space


def _build_full(instance: "RingInstance") -> PackedSpace:
    compiled = compile_protocol(instance.protocol)
    ring_size = instance.size
    cell_count = compiled.cell_count
    began = time.perf_counter()
    total = cell_count ** ring_size
    succ_off = array("q", bytes(8 * (total + 1)))
    succ_flat = array("q")
    invariant = bytearray(total)

    targets = compiled.target_rows
    legit = compiled.legit
    left = compiled.reads_left
    width = compiled.window_width
    # Weight of ring position r inside the packed code (r = 0 most
    # significant, matching itertools.product enumeration order).
    position_pow = [cell_count ** (ring_size - 1 - r)
                    for r in range(ring_size)]
    window_pow = [cell_count ** i for i in range(width)]
    # Window of process r reads ring positions (r - left .. r + right);
    # precompute them so the hot loop is pure indexing.
    window_positions = [
        [(r - left + i) % ring_size for i in range(width)]
        for r in range(ring_size)]

    digits = [0] * ring_size
    append = succ_flat.append
    for code in range(total):
        inside = 1
        for r in range(ring_size):
            window = 0
            for i, position in enumerate(window_positions[r]):
                window += digits[position] * window_pow[i]
            if not legit[window]:
                inside = 0
            row = targets[window]
            if row:
                own = digits[r]
                weight = position_pow[r]
                for cell in row:
                    append(code + (cell - own) * weight)
        invariant[code] = inside
        succ_off[code + 1] = len(succ_flat)
        # Odometer: advance to the next code's digit vector.
        r = ring_size - 1
        while r >= 0:
            digit = digits[r] + 1
            if digit == cell_count:
                digits[r] = 0
                r -= 1
            else:
                digits[r] = digit
                break
    space = PackedSpace(
        ring_size=ring_size, cell_count=cell_count, codes=None,
        succ_off=succ_off, succ_flat=succ_flat, invariant=invariant,
        cells=compiled.cells, full_states=total)
    _count_encode(space, time.perf_counter() - began)
    return space


def rotations(code: int, ring_size: int, cell_count: int) -> list[int]:
    """The distinct packed codes of *code*'s rotation orbit, ascending:
    the first is the canonical representative the quotient keeps.

    Rotating a code returns to it after its period, which divides the
    ring size; the rotations before that are distinct."""
    msd = cell_count ** (ring_size - 1)
    orbit = [code]
    rotated = code
    for _ in range(ring_size - 1):
        high, low = divmod(rotated, msd)
        rotated = low * cell_count + high
        if rotated == code:
            break
        orbit.append(rotated)
    orbit.sort()
    return orbit


def build_quotient(instance: "RingInstance") -> PackedSpace:
    """The rotation-symmetry quotient of one ring instance's space.

    State indices enumerate canonical orbit representatives in
    increasing code order; an edge ``u -> v`` exists iff some member of
    orbit ``u`` has a successor in orbit ``v``.  Successor rows are
    computed for representatives only, so the expensive enumeration
    shrinks by the mean orbit size (~K).
    """
    with obs.span("kernel.encode", K=instance.size,
                  mode="quotient") as span:
        space = _build_quotient(instance)
        if span is not None:
            span.attrs["states"] = len(space)
        obs.metric("kernel.states_encoded", len(space))
        return space


def _build_quotient(instance: "RingInstance") -> PackedSpace:
    compiled = compile_protocol(instance.protocol)
    ring_size = instance.size
    cell_count = compiled.cell_count
    began = time.perf_counter()
    total = cell_count ** ring_size
    msd = cell_count ** (ring_size - 1)

    # Pass 1: canonical code of every orbit, representative list.
    canon = array("q", bytes(8 * total))
    codes = array("q")
    for code in range(total):
        if canon[code]:
            continue  # already tagged by a smaller orbit member
        # `code` is minimal in its orbit: smaller codes were all visited.
        rotated = code
        canon[code] = code
        for _ in range(ring_size - 1):
            high, low = divmod(rotated, msd)
            rotated = low * cell_count + high
            canon[rotated] = code
        codes.append(code)
    # Orbit {0} has canonical code 0, which the tagging above cannot
    # distinguish from "untagged"; the loop handles it first, so every
    # later 0 entry really means "canonicalizes to 0".
    rep_index = {code: i for i, code in enumerate(codes)}

    # Pass 2: successor rows for representatives only.
    count = len(codes)
    succ_off = array("q", bytes(8 * (count + 1)))
    succ_flat = array("q")
    invariant = bytearray(count)
    targets = compiled.target_rows
    legit = compiled.legit
    left = compiled.reads_left
    width = compiled.window_width
    position_pow = [cell_count ** (ring_size - 1 - r)
                    for r in range(ring_size)]
    window_pow = [cell_count ** i for i in range(width)]
    window_positions = [
        [(r - left + i) % ring_size for i in range(width)]
        for r in range(ring_size)]
    append = succ_flat.append
    for index in range(count):
        code = codes[index]
        digits = []
        rest = code
        for _ in range(ring_size):
            rest, digit = divmod(rest, cell_count)
            digits.append(digit)
        digits.reverse()
        inside = 1
        seen: set[int] = set()
        for r in range(ring_size):
            window = 0
            for i, position in enumerate(window_positions[r]):
                window += digits[position] * window_pow[i]
            if not legit[window]:
                inside = 0
            row = targets[window]
            if row:
                own = digits[r]
                weight = position_pow[r]
                for cell in row:
                    successor = rep_index[
                        canon[code + (cell - own) * weight]]
                    if successor not in seen:
                        seen.add(successor)
                        append(successor)
        invariant[index] = inside
        succ_off[index + 1] = len(succ_flat)
    space = PackedSpace(
        ring_size=ring_size, cell_count=cell_count, codes=codes,
        succ_off=succ_off, succ_flat=succ_flat, invariant=invariant,
        cells=compiled.cells, full_states=total, quotient_states=count)
    _count_encode(space, time.perf_counter() - began)
    return space


def build_space(instance: "RingInstance",
                symmetry: bool = False) -> PackedSpace:
    """Build the packed space, quotiented when *symmetry* is set."""
    return build_quotient(instance) if symmetry else build_full(instance)
